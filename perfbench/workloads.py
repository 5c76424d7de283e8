"""The four workloads: fixtures, a warm-up op, one op, and its check.

Every op goes through ``repro.cli.main`` in process, exactly as a user's
command line would.  Campaign op ``i`` uses campaign seed ``seed + i``,
cycling through :data:`SEED_CYCLE` seeds (``campaign-warm``: the
:data:`WARM_SEEDS` seeds its log holds) so each distinct output is
checked against one reference run.  Nothing carries over between ops:
every cold and resume op writes a fresh log.  Warm-up ops never use the
seeds the timed ops use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import lzma
import os
import tarfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus" / "repro-src.tar.xz"
PINNED_FINDINGS = HERE / "corpus" / "findings.json"

REQUESTS = 120
WORKERS = 2
#: Cells in the CLI's injection matrix (4 protectors x 4 faults).
CELLS = 16
WARM_SEEDS = 64
SEED_CYCLE = 8
SHARDS = 8
#: Warm-up ops before timing, on seeds from WARMUP_SEED_OFFSET on, clear
#: of every timed op's seed.
WARMUP_OPS = 3
WARMUP_SEED_OFFSET = 100_000
#: The corpus slice one lint op covers (13 files, 1,280 lines): a whole
#: pass over the snapshot takes 7-12 s on a 2-CPU host, far too long for
#: the dozens of ops a steady median needs in one run.
LINTED = ("repro/components", "repro/services")


def run_cli(argv: List[str]) -> Dict[str, Any]:
    """``repro <argv>`` in process: exit code and captured output."""
    from repro import cli  # ``cli.main`` is looked up per call (tracing)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def campaign_argv(seed: int, workers: int = WORKERS, *extra: str
                  ) -> List[str]:
    return ["campaign", "--format", "json", "--requests", str(REQUESTS),
            "--workers", str(workers), "--seed", str(seed), *extra]


def cell_records(log: Path) -> int:
    """Cell records in a store log (shard records are not cells)."""
    with open(log, "rb") as handle:
        return sum(json.loads(line).get("task") == "campaign.cell"
                   for line in handle)


def check_cells(cells: List[Dict[str, Any]],
                frozen: Optional[List[Dict[str, Any]]]) -> Optional[str]:
    """A campaign op's cells against the frozen snapshot's for the same
    seed: the full matrix, every cell answering every request, and the
    same figures."""
    if len(cells) != CELLS or any(cell["requests"] != REQUESTS
                                  for cell in cells):
        return f"report is not {CELLS} cells of {REQUESTS} requests each"
    if frozen is None:
        return "the frozen snapshot gave no cells for this seed"
    if cells != frozen:
        return "cells differ from the frozen snapshot's"
    return None


def _need(result: Dict[str, Any], what: str) -> None:
    if result["rc"] != 0:
        raise RuntimeError(f"{what} exited {result['rc']}: "
                           f"{result['err'].strip()[-300:]}")


class Workload:
    """One workload.  Subclasses fill in the hooks."""

    name = ""
    #: Protected requests one op answers (0: not a campaign).
    trials_per_op = CELLS * REQUESTS
    #: The snapshot's set-up time in seconds (a fresh interpreter's
    #: ``import repro.cli`` + fixtures + every warm-up op) as measured on
    #: a 2-vCPU Linux VM with Python 3.11.  ``setup_s`` is the live
    #: program's set-up in units of the snapshot's, times this.
    setup_ref_s = 0.0

    def __init__(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        self.seed = seed
        self._refs: Dict[int, Any] = {}

    def seed_of(self, i: int) -> int:
        """The campaign seed op ``i`` uses."""
        return self.seed + i % SEED_CYCLE

    def _reference(self, seed: int, build) -> Any:
        if seed not in self._refs:
            self._refs[seed] = build(seed)
        return self._refs[seed]

    def fixture_steps(self) -> List[Callable[[], Any]]:
        """The steps that build the fixtures the ops use, in order."""
        return []

    def commands(self) -> List[List[str]]:
        """One op's command lines (after ``repro``), each run by a fresh
        process to measure its peak RSS.  Each must exit 0 and leave the
        fixtures as it found them."""
        raise NotImplementedError

    def warm_up(self, rep: int) -> None:
        """One warm-up op, on a seed no timed op uses."""
        raise NotImplementedError

    def op(self, i: int) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, i: int, out: Dict[str, Any],
              frozen: Optional[List[Dict[str, Any]]]) -> Optional[str]:
        """``None`` when op ``i``'s output is right, else why not.
        ``frozen`` is what the frozen snapshot computed for the same op
        (see :meth:`cells`)."""
        raise NotImplementedError

    def cells(self, out: Dict[str, Any]) -> Optional[List[Dict[str, Any]]]:
        """The cells of an op's campaign report; ``None`` without one."""
        try:
            return json.loads(out["out"])["cells"]
        except (ValueError, KeyError, TypeError):
            return None

    def appended(self, i: int, out: Dict[str, Any]) -> tuple:
        """``(bytes appended to the store log, cell records written)``."""
        log = out.get("log")
        if log is None or not Path(log).exists():
            return 0, 0
        return Path(log).stat().st_size, cell_records(Path(log))

    def release(self, i: int, out: Dict[str, Any]) -> None:
        """Drop op ``i``'s files once checked."""
        log = out.get("log")
        if log is not None and Path(log).exists():
            Path(log).unlink()


class CampaignCold(Workload):
    """Every cell computed, into a fresh empty store log."""

    name = "campaign-cold"
    setup_ref_s = 1.9

    def _argv(self, seed: int, log: Path) -> List[str]:
        return campaign_argv(seed, WORKERS, "--store", str(log))

    def _run(self, seed: int, log: Path) -> Dict[str, Any]:
        out = run_cli(self._argv(seed, log))
        out["log"] = str(log)
        return out

    def warm_up(self, rep: int) -> None:
        log = self.tmp / f"cold-warmup-{rep}.log"
        _need(self._run(self.seed + WARMUP_SEED_OFFSET + rep, log),
              "warm-up op")
        log.unlink()

    def commands(self) -> List[List[str]]:
        return [self._argv(self.seed + WARMUP_SEED_OFFSET,
                           self.tmp / "cold-rss.log")]

    def op(self, i: int) -> Dict[str, Any]:
        return self._run(self.seed_of(i), self.tmp / f"cold-{i}.log")

    def _serial_report(self, seed: int) -> Dict[str, Any]:
        log = self.tmp / f"cold-ref-{seed}.log"
        ref = run_cli(campaign_argv(seed, 1, "--store", str(log)))
        log.unlink(missing_ok=True)
        _need(ref, "--workers 1 reference")
        report = json.loads(ref["out"])
        report.pop("workers")
        return report

    def check(self, i: int, out: Dict[str, Any],
              frozen: Optional[List[Dict[str, Any]]]) -> Optional[str]:
        if out["rc"] != 0:
            return f"exit {out['rc']}"
        got = json.loads(out["out"])
        got.pop("workers", None)
        if got != self._reference(self.seed_of(i), self._serial_report):
            return "report differs from the --workers 1 report"
        return check_cells(got["cells"], frozen)


def reference_cells(seed: int) -> List[Dict[str, Any]]:
    """The matrix the CLI builds, run through the plain serial path:
    one worker, no store, no telemetry session."""
    from repro import cli

    args = cli.build_parser().parse_args(
        ["campaign", "--requests", str(REQUESTS), "--workers", "1",
         "--seed", str(seed)])
    campaign, _ = cli._build_campaign(args)
    return [dataclasses.asdict(cell) for cell in campaign.run()]


class CampaignWarm(Workload):
    """Every cell served from one shared log of 64 seeds."""

    name = "campaign-warm"
    setup_ref_s = 7.0

    def __init__(self, tmp: Path, seed: int) -> None:
        super().__init__(tmp, seed)
        self.log = self.tmp / "warm.log"

    def seed_of(self, i: int) -> int:
        return self.seed + i % WARM_SEEDS

    def _fill(self, seed: int) -> None:
        fill = run_cli(["campaign", "--requests", str(REQUESTS),
                        "--workers", "1", "--seed", str(seed),
                        "--store", str(self.log)])
        _need(fill, "log fill")

    def fixture_steps(self) -> List[Callable[[], Any]]:
        return [functools.partial(self._fill, self.seed + j)
                for j in range(WARM_SEEDS)]

    def _argv(self, seed: int) -> List[str]:
        return campaign_argv(seed, WORKERS, "--store", str(self.log))

    def commands(self) -> List[List[str]]:
        return [self._argv(self.seed)]

    def warm_up(self, rep: int) -> None:
        # Served like every timed op (the log holds every seed's cells).
        _need(self.op(WARM_SEEDS - 1 - rep), "warm-up op")

    def op(self, i: int) -> Dict[str, Any]:
        return run_cli(self._argv(self.seed_of(i)))

    def check(self, i: int, out: Dict[str, Any],
              frozen: Optional[List[Dict[str, Any]]]) -> Optional[str]:
        if out["rc"] != 0:
            return f"exit {out['rc']}"
        doc = json.loads(out["out"])
        if doc["cells"] != self._reference(self.seed_of(i), reference_cells):
            return "cells differ from the serial reference"
        rows = [row for row in doc["sli"]["stores"]
                if row["store"] == "campaign"]
        if len(rows) != 1 or (rows[0]["hits"], rows[0]["misses"]) != \
                (CELLS, 0):
            return f"store row is not {CELLS} hits, 0 misses: {rows}"
        return check_cells(doc["cells"], frozen)


class CampaignResume(Workload):
    """Crash after half the shards, then resume: one op."""

    name = "campaign-resume"
    setup_ref_s = 2.0

    def _argvs(self, seed: int, log: Path) -> List[List[str]]:
        """The interrupted run's command line, then the resume's."""
        shards = campaign_argv(seed, WORKERS, "--shards", str(SHARDS),
                               "--store", str(log))
        return [shards + ["--max-shards", str(SHARDS // 2)],
                shards + ["--resume"]]

    def _pair(self, seed: int, log: Path) -> Dict[str, Any]:
        interrupted, resumed = self._argvs(seed, log)
        first = run_cli(interrupted)
        if first["rc"] != 0 or first["out"] or \
                "truncated" not in first["err"]:
            first["log"] = str(log)
            first["stage"] = "interrupted run"
            return first
        second = run_cli(resumed)
        second["first_err"] = first["err"]
        second["log"] = str(log)
        second["stage"] = "resumed run"
        return second

    def warm_up(self, rep: int) -> None:
        log = self.tmp / f"resume-warmup-{rep}.log"
        out = self._pair(self.seed + WARMUP_SEED_OFFSET + rep, log)
        _need(out, out["stage"])
        log.unlink()

    def commands(self) -> List[List[str]]:
        return self._argvs(self.seed + WARMUP_SEED_OFFSET,
                           self.tmp / "resume-rss.log")

    def op(self, i: int) -> Dict[str, Any]:
        return self._pair(self.seed_of(i), self.tmp / f"resume-{i}.log")

    def _uninterrupted(self, seed: int) -> str:
        ref = run_cli(campaign_argv(seed, WORKERS, "--shards", str(SHARDS)))
        _need(ref, "uninterrupted reference")
        return ref["out"]

    def check(self, i: int, out: Dict[str, Any],
              frozen: Optional[List[Dict[str, Any]]]) -> Optional[str]:
        if out["stage"] != "resumed run":
            return f"interrupted run failed (exit {out['rc']})"
        if out["rc"] != 0:
            return f"resumed run exited {out['rc']}"
        half = SHARDS // 2
        if f"served={half} executed={half}" not in out["err"]:
            return f"resume did not serve {half} shards: {out['err']!r}"
        if out["out"] != self._reference(self.seed_of(i),
                                         self._uninterrupted):
            return "resumed report is not byte-identical to an " \
                   "uninterrupted run"
        return check_cells(json.loads(out["out"])["cells"], frozen)


class LintDeep(Workload):
    """One cold whole-program lint pass over a fixed slice of the
    frozen corpus."""

    name = "lint-deep"
    trials_per_op = 0
    setup_ref_s = 1.7

    def __init__(self, tmp: Path, seed: int) -> None:
        super().__init__(tmp, seed)
        self.root = self.tmp / "corpus"
        with open(PINNED_FINDINGS, encoding="utf-8") as handle:
            self.pinned = json.load(handle)

    def fixture_steps(self) -> List[Callable[[], Any]]:
        return [functools.partial(unpack_corpus, self.root)]

    def warm_up(self, rep: int) -> None:
        _need(self.op(rep), "warm-up lint")

    def commands(self) -> List[List[str]]:
        return [["lint", "--deep",
                 *(str(self.root / part) for part in LINTED),
                 "--format", "json"]]

    def op(self, i: int) -> Dict[str, Any]:
        return run_cli(self.commands()[0])

    def cells(self, out: Dict[str, Any]) -> None:
        return None

    def check(self, i: int, out: Dict[str, Any],
              frozen: None) -> Optional[str]:
        # The pinned findings are what the snapshot reports on the slice.
        if out["rc"] != self.pinned["rc"]:
            return f"exit {out['rc']}, pinned {self.pinned['rc']}"
        got = normalized_findings(json.loads(out["out"]), self.root)
        if got["files"] != self.pinned["files"]:
            return f"{got['files']} files linted, pinned " \
                   f"{self.pinned['files']}"
        if got["findings"] != self.pinned["findings"]:
            return "findings differ from the pinned findings"
        return None


def unpack_corpus(root: Path) -> None:
    """Unpack the frozen source snapshot under ``root``."""
    root.mkdir(parents=True)
    with lzma.open(CORPUS) as raw, tarfile.open(fileobj=raw) as tar:
        for member in tar.getmembers():
            if not (member.isfile() or member.isdir()) \
                    or member.name.startswith("/") \
                    or ".." in Path(member.name).parts:
                raise ValueError(f"unexpected corpus entry {member.name!r}")
        tar.extractall(root)


def normalized_findings(report: Dict[str, Any], root: Path
                        ) -> Dict[str, Any]:
    """A lint report's findings with paths relative to the corpus
    root, so they compare across checkouts."""
    prefix = str(root) + os.sep
    findings = []
    for finding in report["findings"]:
        finding = dict(finding)
        if finding["path"].startswith(prefix):
            finding["path"] = finding["path"][len(prefix):]
        findings.append(finding)
    return {"files": report["files"], "findings": findings}


WORKLOADS = {cls.name: cls for cls in (CampaignCold, CampaignWarm,
                                       CampaignResume, LintDeep)}
