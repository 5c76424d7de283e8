"""The ``repro bench`` runner: the benchmark suite through the pool.

Discovers every ``benchmarks/bench_*.py``, fans them out over a
:class:`~repro.runtime.pmap.ParallelMap` (each file is one pure task:
import the module, call its ``test_*`` functions with a timing-aware
stand-in for the pytest-benchmark fixture), and reports:

* per-benchmark wall-clock and pass/fail;
* **drift detection** — after the run, every ``benchmarks/results/*.txt``
  is compared against its pre-run content; any change means the code no
  longer reproduces the committed tables, and the runner exits non-zero;
* ``BENCH_harness.json`` — per-benchmark timings, their sums
  (``serial_seconds``, ``serial_cpu_seconds``), the measured wall time,
  worker count and host info, so the perf trajectory of the harness
  itself is tracked run over run.

Running a file in-process (instead of one ``pytest`` subprocess per
file) lets forked pool workers share the parent's warm imports, which
is where most of a small benchmark's serial cost goes.  The pool is
prewarmed before the wall timer starts, so the measured wall time is
compute, not worker spawn.

With ``--incremental``, a :class:`~repro.runtime.store.ResultStore`
fronts the suite: each file's outcome is addressed by (file name, file
content digest, source-tree digest of ``src/repro`` + ``_common.py``),
so a re-run after an edit re-executes only the files the edit could
affect — served files skip execution entirely (their committed results
tables are untouched, so they cannot drift).  Only passing outcomes
are stored; failures always re-run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

from repro._util import positive_float, positive_int
from repro.harness.report import render_table
from repro.runtime.pmap import ParallelMap
from repro.runtime.store import MISS, ResultStore

#: Default ``--incremental`` store log (next to the working directory,
#: ignored by git).
DEFAULT_STORE = pathlib.Path(".repro-store") / "bench.jsonl"

#: The ``--quick`` subset: deterministic, sub-second artifacts that
#: still exercise discovery, the pool, drift detection and reporting.
QUICK_BENCHMARKS = (
    "bench_table1_taxonomy",
    "bench_table2_classification",
    "bench_figure1_patterns",
    "bench_h1_stats_hotpath",
    "bench_h2_pool_reuse",
    "bench_h4_batch_kernel",
    "bench_h5_stream_overhead",
    "bench_h6_shard_resume",
    "bench_observe_overhead",
)

#: Schema of the sectioned ``BENCH_harness.json`` layout: top-level
#: ``schema``/``host`` plus named sections (``suite`` for the runner's
#: own report, ``shard_resume`` for H6, ...), each updated atomically
#: under an exclusive ``flock``.  Each section carries its own stamp,
#: so the top level is stable across regenerations.
BENCH_HARNESS_SCHEMA = "repro-bench-harness/v2"

#: The flat report schema :func:`run_suite` returns (one run's suite
#: section payload).
BENCH_SUITE_SCHEMA = "repro-bench-harness/v1"

#: Default per-benchmark deadline (real seconds).
DEFAULT_TIMEOUT = 300.0


@dataclasses.dataclass
class BenchOutcome:
    """One benchmark file's run, as returned from a pool worker."""

    name: str
    path: str
    #: Wall-clock inside the worker.  Under CPU contention (more
    #: workers than cores) this includes descheduled time, so the sum
    #: over benchmarks over-estimates a true serial run.
    seconds: float
    #: CPU time inside the (single-threaded) worker — contention-free,
    #: so the sum is a faithful serial-compute estimate.
    cpu_seconds: float
    ok: bool
    tests: int = 0
    output: str = ""
    error: str = ""


class TimingBenchmark:
    """Stand-in for the pytest-benchmark fixture: run once, record wall.

    Supports the two call shapes the suite uses — ``benchmark(fn)`` and
    ``benchmark.pedantic(fn, rounds=..., iterations=...)`` — and keeps
    the measured seconds on ``.seconds``.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        return result

    def pedantic(self, fn, args=(), kwargs=None, **_options):
        return self(fn, *args, **(kwargs or {}))


def discover(benchmarks_dir: pathlib.Path) -> List[pathlib.Path]:
    """Every ``bench_*.py`` under ``benchmarks_dir``, sorted by name."""
    return sorted(benchmarks_dir.glob("bench_*.py"))


def default_benchmarks_dir() -> pathlib.Path:
    """Locate the benchmark suite: ``./benchmarks`` or next to the
    source tree (``src/repro/../../benchmarks``)."""
    candidates = [pathlib.Path.cwd() / "benchmarks"]
    package_root = pathlib.Path(__file__).resolve().parents[3]
    candidates.append(package_root / "benchmarks")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return candidates[0]


def run_bench_file(path_str: str,
                   harness_json: Optional[pathlib.Path] = None
                   ) -> Dict[str, Any]:
    """Run one benchmark file in-process (the pool task).

    Imports the module from its path (with the benchmarks directory on
    ``sys.path`` so ``from _common import save_result`` resolves) and
    calls every ``test_*`` function with a :class:`TimingBenchmark`.
    The module is entered in ``sys.modules`` under its file stem before
    it executes, so the file's own functions pickle by reference and
    the pool maps it makes can run on worker processes.  With
    ``harness_json``, the module's ``BENCH_HARNESS_JSON`` (the document
    a file writes its own sections to) is that path while its tests
    run.  Returns a plain dict so the result pickles across process
    pools.
    """
    path = pathlib.Path(path_str)
    parent = str(path.parent)
    if parent not in sys.path:
        sys.path.insert(0, parent)
    # A previously-run suite may have cached a different directory's
    # ``_common`` helper; evict it so this suite's copy is imported.
    common = sys.modules.get("_common")
    if common is not None and getattr(common, "__file__", None) != str(
            path.parent / "_common.py"):
        del sys.modules["_common"]
    buffer = io.StringIO()
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[path.stem] = module
        with contextlib.redirect_stdout(buffer):
            spec.loader.exec_module(module)
            if harness_json is not None:
                module.BENCH_HARNESS_JSON = pathlib.Path(harness_json)
            tests = [getattr(module, attr) for attr in dir(module)
                     if attr.startswith("test_")
                     and callable(getattr(module, attr))]
            for test in tests:
                test(TimingBenchmark())
    except BaseException:
        return dataclasses.asdict(BenchOutcome(
            name=path.stem, path=path_str,
            seconds=time.perf_counter() - start,
            cpu_seconds=time.process_time() - cpu_start, ok=False,
            output=buffer.getvalue(), error=traceback.format_exc()))
    return dataclasses.asdict(BenchOutcome(
        name=path.stem, path=path_str,
        seconds=time.perf_counter() - start,
        cpu_seconds=time.process_time() - cpu_start, ok=True,
        tests=len(tests), output=buffer.getvalue()))


def tree_fingerprint(benchmarks_dir: pathlib.Path) -> str:
    """A digest of everything a benchmark outcome depends on besides
    its own file: the ``src/repro`` source tree and the suite's
    ``_common.py`` helper.  Any edit under either invalidates every
    stored outcome."""
    hasher = hashlib.sha256()
    package_root = pathlib.Path(__file__).resolve().parents[1]
    for path in sorted(package_root.rglob("*.py")):
        hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    common = benchmarks_dir / "_common.py"
    if common.is_file():
        hasher.update(common.read_bytes())
    return hasher.hexdigest()[:16]


def _bench_key(store: ResultStore, path: pathlib.Path, code: str) -> str:
    """The content address of one benchmark file's outcome."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:24]
    return store.key("repro.runtime.bench.file", (path.name, digest),
                     code=code)


def snapshot_results(benchmarks_dir: pathlib.Path) -> Dict[str, str]:
    """``filename -> content`` for every committed results table."""
    results_dir = benchmarks_dir / "results"
    if not results_dir.is_dir():
        return {}
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(results_dir.glob("*.txt"))}


def diff_results(before: Dict[str, str],
                 after: Dict[str, str]) -> List[str]:
    """Names of results files whose content changed (or appeared)."""
    return [name for name in sorted(after)
            if before.get(name) != after[name]]


def run_suite(benchmarks_dir: pathlib.Path,
              workers: Optional[int] = None,
              only: Sequence[str] = (),
              quick: bool = False,
              timeout: Optional[float] = DEFAULT_TIMEOUT,
              store: Optional[ResultStore] = None,
              harness_json: Optional[pathlib.Path] = None,
              ) -> Dict[str, Any]:
    """Run the (filtered) suite; returns the harness report document.

    With a ``store`` the run is incremental: files whose content-address
    hits are served without executing, only misses fan out.  With
    ``harness_json``, the sections files write to the harness document
    land there (see :func:`run_bench_file`); without it, in the
    document each file's ``_common`` names."""
    paths = discover(benchmarks_dir)
    if quick:
        paths = [p for p in paths if p.stem in QUICK_BENCHMARKS]
    if only:
        paths = [p for p in paths
                 if any(token in p.stem for token in only)]
    before = snapshot_results(benchmarks_dir)
    pool = ParallelMap(workers=workers, timeout=timeout)

    keys: Dict[pathlib.Path, str] = {}
    served: Dict[pathlib.Path, Dict[str, Any]] = {}
    if store is not None:
        code = tree_fingerprint(benchmarks_dir)
        for path in paths:
            keys[path] = _bench_key(store, path, code)
            hit = store.get(keys[path])
            if hit is not MISS:
                served[path] = hit
    missing = [p for p in paths if p not in served]
    task = functools.partial(run_bench_file, harness_json=harness_json)

    if missing:
        # Spawn the warm pool before the wall timer: measured wall time
        # is suite compute, not worker start-up.
        pool.prewarm(task, [str(p) for p in missing])
    wall_start = time.perf_counter()
    fresh = iter(pool.map(task, [str(p) for p in missing])
                 if missing else ())
    outcomes: List[Dict[str, Any]] = []
    for path in paths:
        if path in served:
            outcome = dict(served[path], cached=True)
        else:
            outcome = dict(next(fresh), cached=False)
            if store is not None and outcome["ok"]:
                store.put(keys[path], {k: v for k, v in outcome.items()
                                       if k != "cached"},
                          task=f"bench:{path.stem}")
        outcomes.append(outcome)
    wall_seconds = time.perf_counter() - wall_start
    after = snapshot_results(benchmarks_dir)

    serial_seconds = sum(o["seconds"] for o in outcomes)
    serial_cpu_seconds = sum(o["cpu_seconds"] for o in outcomes)
    drift = diff_results(before, after)
    failures = [o["name"] for o in outcomes if not o["ok"]]
    return {
        "schema": BENCH_SUITE_SCHEMA,
        "generated_unix": time.time(),  # lint: allow[DET002] report stamp
        "host": _host_facts(),
        "benchmarks_dir": str(benchmarks_dir),
        "workers": pool.workers,
        "backend": pool.stats.backend,
        "pool": dataclasses.asdict(pool.stats),
        "incremental": store is not None,
        "store": None if store is None else dict(
            store.stats(), path=store.path,
            served=sum(1 for o in outcomes if o["cached"])),
        "benchmarks": [
            {"name": o["name"], "seconds": round(o["seconds"], 4),
             "cpu_seconds": round(o["cpu_seconds"], 4),
             "ok": o["ok"], "tests": o["tests"], "cached": o["cached"]}
            for o in outcomes
        ],
        "outputs": {o["name"]: o["output"] for o in outcomes},
        "errors": {o["name"]: o["error"] for o in outcomes
                   if not o["ok"]},
        "serial_seconds": round(serial_seconds, 4),
        "serial_cpu_seconds": round(serial_cpu_seconds, 4),
        "wall_seconds": round(wall_seconds, 4),
        "results_drift": drift,
        "failures": failures,
    }


def _host_facts() -> Dict[str, Any]:
    """The machine identity a timing report needs to be interpretable."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def update_harness_json(path: pathlib.Path, section: str,
                        payload: Dict[str, Any]) -> Dict[str, Any]:
    """Read-modify-write one named section of ``BENCH_harness.json``.

    The whole cycle runs under an exclusive ``flock`` (the result-store
    append discipline), so the suite runner and a benchmark landing its
    own section (H6's ``shard_resume``) never clobber each other.
    A JSON object of any other schema at ``path`` (such as the flat
    ``repro-bench-harness/v1`` file older runners wrote) raises
    :class:`ValueError` naming it and is left untouched: it is never
    upgraded.  A file that is not a JSON object is replaced.  Returns
    the document as written.
    """
    import fcntl

    path = pathlib.Path(path)
    with open(path, "a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        handle.seek(0)
        raw = handle.read().strip()
        document: Dict[str, Any] = {}
        if raw:
            try:
                loaded = json.loads(raw)
            except ValueError:
                loaded = None
            if isinstance(loaded, dict):
                schema = loaded.get("schema")
                if schema != BENCH_HARNESS_SCHEMA:
                    raise ValueError(
                        f"{path}: unsupported bench document schema "
                        f"{schema!r}; expected {BENCH_HARNESS_SCHEMA!r} "
                        f"(older documents are not upgraded)")
                document = loaded
        document["schema"] = BENCH_HARNESS_SCHEMA
        document["host"] = _host_facts()
        document[section] = payload
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(document, indent=2, sort_keys=True)
                     + "\n")
    return document


def render_report(report: Dict[str, Any]) -> str:
    """The harness report as a text table plus the run's vitals."""
    rows = [(entry["name"], f"{entry['seconds']:.3f}",
             ("cached" if entry.get("cached")
              else "ok" if entry["ok"] else "FAIL"))
            for entry in report["benchmarks"]]
    table = render_table(("benchmark", "seconds", "status"), rows,
                         title=f"repro bench — {len(rows)} benchmarks, "
                               f"{report['workers']} workers "
                               f"({report['backend']})")
    lines = [table, ""]
    lines.append(f"serial estimate  {report['serial_seconds']:.3f}s wall "
                 f"/ {report['serial_cpu_seconds']:.3f}s cpu "
                 f"(per-benchmark sums)")
    lines.append(f"wall time        {report['wall_seconds']:.3f}s "
                 f"on {report['host']['cpu_count']} CPU(s)")
    if report.get("store"):
        store = report["store"]
        lines.append(f"result store     {store['served']}/"
                     f"{len(report['benchmarks'])} served from "
                     f"{store['path']} "
                     f"(hit rate {store['hit_rate']:.0%})")
    if report["results_drift"]:
        lines.append("results drift    "
                     + ", ".join(report["results_drift"]))
    else:
        lines.append("results drift    none — tables match "
                     "benchmarks/results/")
    if report["failures"]:
        lines.append("failures         " + ", ".join(report["failures"]))
    return "\n".join(lines)


# -- CLI ------------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``bench`` arguments (shared by the ``repro`` CLI and
    ``benchmarks/run_all.py``)."""
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="pool size (default: CPU count)")
    parser.add_argument("--quick", action="store_true",
                        help="run only the fast deterministic subset")
    parser.add_argument("--only", action="append", default=[],
                        metavar="SUBSTR",
                        help="run benchmarks whose name contains SUBSTR "
                             "(repeatable)")
    parser.add_argument("--benchmarks-dir", type=pathlib.Path,
                        default=None,
                        help="suite location (default: auto-detected)")
    parser.add_argument("--timeout", type=positive_float,
                        default=DEFAULT_TIMEOUT,
                        help="per-benchmark deadline in seconds")
    parser.add_argument("--incremental", action="store_true",
                        help="serve benchmark files unchanged since the "
                             "last run from the result store")
    parser.add_argument("--store", type=pathlib.Path,
                        default=DEFAULT_STORE, metavar="PATH",
                        help="result-store log used by --incremental")
    parser.add_argument("--json", type=pathlib.Path,
                        default=pathlib.Path("BENCH_harness.json"),
                        metavar="PATH",
                        help="where to write the harness report")
    parser.add_argument("--verbose", action="store_true",
                        help="echo each benchmark's captured output")
    parser.set_defaults(func=cmd_bench)


def cmd_bench(args: argparse.Namespace) -> int:
    """Entry point behind ``repro bench``; returns the exit code."""
    benchmarks_dir = args.benchmarks_dir or default_benchmarks_dir()
    if not benchmarks_dir.is_dir():
        print(f"error: no benchmark suite at {benchmarks_dir}",
              file=sys.stderr)
        return 2
    store = (ResultStore(args.store, name="bench")
             if getattr(args, "incremental", False) else None)
    report = run_suite(benchmarks_dir, workers=args.workers,
                       only=args.only,
                       quick=args.quick, timeout=args.timeout,
                       store=store, harness_json=args.json)
    if args.verbose:
        for name, output in report["outputs"].items():
            if output:
                print(f"--- {name} ---")
                print(output)
    for name, error in report["errors"].items():
        print(f"--- {name} FAILED ---", file=sys.stderr)
        print(error, file=sys.stderr)
    print(render_report(report))
    if args.json:
        # The runner's flat report becomes the "suite" section of the
        # sectioned v2 document (schema/host live at the top level).
        section = {key: value for key, value in report.items()
                   if key not in ("schema", "host")}
        update_harness_json(args.json, "suite", section)
        print(f"\nharness report written to {args.json} "
              f"(section 'suite', {BENCH_HARNESS_SCHEMA})")
    return 1 if (report["failures"] or report["results_drift"]) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``benchmarks/run_all.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the benchmark suite through the deterministic "
                    "parallel runtime and check for results drift.")
    configure_parser(parser)
    args = parser.parse_args(argv)
    return cmd_bench(args)
