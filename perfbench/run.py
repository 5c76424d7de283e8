"""H0: end-to-end benchmark of ``repro campaign`` and ``repro lint --deep``.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 15 --trace 0

The main thread runs one op at a time (a closed loop with one client)
through ``repro.cli.main``, for ``--seconds`` seconds after set-up, then
checks every op's output, also against what the frozen program snapshot
(see ``snapshot.py``) computes for the same op.  ``--trace 0`` reports
the end-to-end metrics: set-up and each op are paired with the same
set-up and op on the snapshot, run back to back, so their cost relative
to the snapshot holds still while the host's speed drifts.  ``--trace 1``
first runs the loop untraced, then again with every layer's entry
points wrapped, and reports per-layer metrics (see ``layers.py``),
writing the spans as Chrome trace-event JSON under ``.perfbench-tmp/``.
The last line of standard output is the result object; the line before
it holds the details (host, raw timings, sample counts, the workload's
own metrics and any failures).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from snapshot import Snapshot, process_state  # noqa: E402

#: The interpreter settings before the program is imported: the
#: snapshot runs under these.
PROCESS_STATE = process_state()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TEMP_ROOT = ROOT / ".perfbench-tmp"

#: Main-thread self times plus ``unattributed_ms`` must match each
#: traced op's wall to within this share of it.
ACCOUNTING_TOLERANCE = 0.005

#: Traced ops whose spans are written to the Chrome trace.
TRACE_OPS_KEPT = 1

#: Failure messages echoed in the details line.
FAILURES_SHOWN = 5

#: Timed fresh-interpreter imports of each program copy in set-up.
IMPORT_PAIRS = 3


def host_facts(workers: int) -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 1
    facts: Dict[str, Any] = {"cpu_count": cpus,
                             "python": platform.python_version(),
                             "platform": platform.platform(),
                             "workers": workers}
    if cpus < workers:
        facts["warning"] = (f"host has {cpus} CPU(s) but ops run with "
                            f"--workers {workers}: the pool's threads "
                            f"share fewer cores than they expect")
    return facts


#: A fresh ``repro`` process: runs the command line it is given with
#: the program from the path it is given, then prints its peak RSS (KiB)
#: as the last line of its standard error.
RSS_CHILD = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from repro import cli
try:
    sys.exit(cli.main(sys.argv[2:]))
finally:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def peak_rss_mib(workload) -> float:
    """Peak RSS of a fresh ``repro`` process running one op of the
    workload, the highest over the op's command lines."""
    peak = 0
    for argv in workload.commands():
        child = subprocess.run(
            [sys.executable, "-I", "-c", RSS_CHILD, str(SRC), *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited "
                               f"{child.returncode}: {child.stderr[-300:]}")
        peak = max(peak, int(child.stderr.splitlines()[-1]))
    return peak / 1024


def import_program() -> Optional[str]:
    """Import ``repro`` from this checkout's ``src``, compiled to
    bytecode first (as the snapshot is); an error message when that is
    impossible."""
    if not (SRC / "repro").is_dir():
        return f"no program at {SRC / 'repro'}"
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, str(SRC))
    try:
        import repro.cli  # noqa: F401
    except ImportError as exc:
        return f"cannot import the program from {SRC}: {exc}"
    where = Path(sys.modules["repro"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        return f"imported repro from {where}, not from {SRC}"
    return None


def set_up(workload, snapshot) -> Dict[str, Dict[str, Any]]:
    """Build both copies' fixtures and run their warm-up ops step by
    step, the live step and the snapshot's back to back, alternating
    which goes first; each step is timed."""
    import workloads

    copies = {"live": (workload, contextlib.nullcontext),
              "snapshot": (snapshot.workload, snapshot.active)}
    times: Dict[str, Dict[str, Any]] = {
        copy: {"fixtures_s": 0.0, "warmup_ops_s": []} for copy in copies}
    steps = {copy: [("fixtures", step) for step in w.fixture_steps()]
             + [("warmup", functools.partial(w.warm_up, rep))
                for rep in range(workloads.WARMUP_OPS)]
             for copy, (w, _) in copies.items()}
    for k in range(len(steps["live"])):
        for copy in ("live", "snapshot")[::-1 if k % 2 else 1]:
            kind, step = steps[copy][k]
            if kind == "warmup":
                gc.collect()
            with copies[copy][1]():
                t0 = time.perf_counter()
                step()
                wall = time.perf_counter() - t0
            if kind == "fixtures":
                times[copy]["fixtures_s"] += wall
            else:
                times[copy]["warmup_ops_s"].append(wall)
    return times


#: A fresh interpreter that imports ``repro.cli`` from the path it is
#: given and prints how long the import took, in seconds.
IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.cli
print(time.perf_counter() - t0)
"""


def import_walls(live: Path, snapshot: Path) -> Dict[str, List[float]]:
    """Walls of ``import repro.cli`` in a fresh interpreter from each
    program copy: one untimed import each (it writes the bytecode), then
    :data:`IMPORT_PAIRS` pairs, alternating which copy goes first."""
    def once(src: Path) -> float:
        child = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_CHILD, str(src)],
            check=True, capture_output=True, text=True, timeout=120)
        return float(child.stdout)

    walls: Dict[str, List[float]] = {"live": [], "snapshot": []}
    once(live)
    once(snapshot)
    for rep in range(IMPORT_PAIRS):
        for copy, src in [("live", live), ("snapshot", snapshot)
                          ][::-1 if rep % 2 else 1]:
            walls[copy].append(once(src))
    return walls


def timed_loop(workload, seconds: float, first: int, on_op=None,
               snapshot=None) -> Dict[str, Any]:
    """Ops back to back until ``seconds`` have passed (the last op is
    finished, not cut).  With a ``snapshot``, each op is paired with the
    snapshot's op, alternating which of the two runs first."""
    walls: List[float] = []
    outputs: List[Any] = []
    pairs: List[Any] = []
    start = time.perf_counter()
    i = first
    while True:
        if snapshot is not None and i % 2:
            pairs.append(snapshot.op(i))
        gc.collect()  # no op pays for an earlier op's garbage
        t0 = time.perf_counter()
        try:
            out: Any = workload.op(i)
        except Exception as exc:  # the op failed; counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        if snapshot is not None and not i % 2:
            pairs.append(snapshot.op(i))
        walls.append(t1 - t0)
        outputs.append(out)
        if on_op is not None:
            on_op(i, t0, t1)
        i += 1
        if time.perf_counter() - start >= seconds:
            return {"walls": walls, "outputs": outputs, "first": first,
                    "snapshot": pairs}


def check_all(workload, phase: Dict[str, Any],
              answers: List[Dict[str, Any]]) -> List[Optional[str]]:
    """Check every op of a phase against its own references and against
    the snapshot's answer for it (``answers``, one per op); a failed
    check never stops the run."""
    failures: List[Optional[str]] = []
    appended, cells = [], []
    for offset, (out, pair) in enumerate(zip(phase["outputs"], answers)):
        i = phase["first"] + offset
        try:
            failure = out.get("error")
            if failure is None and pair["rc"] != 0:
                failure = f"the snapshot's op exited {pair['rc']}"
            if failure is None:
                failure = workload.check(i, out, pair["cells"])
            written = workload.appended(i, out)
            appended.append(written[0])
            cells.append(written[1])
            workload.release(i, out)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
        failures.append(None if failure is None else f"op {i}: {failure}")
    phase["appended"], phase["cells"] = appended, cells
    return failures


def setup_ratio(live: Dict[str, Any], frozen: Dict[str, Any],
                imports: Dict[str, List[float]]) -> float:
    """The live program's set-up time over the snapshot's: fresh-
    interpreter import (the median) + fixtures + every warm-up op, each
    copy."""
    def total(parts: Dict[str, Any], imported: List[float]) -> float:
        return (statistics.median(imported) + parts["fixtures_s"]
                + sum(parts["warmup_ops_s"]))

    return total(live, imports["live"]) / total(frozen, imports["snapshot"])


def references(phase: Dict[str, Any], snapshot) -> List[Dict[str, Any]]:
    """The snapshot's answer for each op of a phase run without paired
    snapshot ops."""
    return [snapshot.reference(phase["first"] + offset)
            for offset in range(len(phase["outputs"]))]


def end_to_end(phase: Dict[str, Any], setup_s: float,
               rss: float) -> Dict[str, Dict[str, Any]]:
    import figures

    snapshot = [pair["wall"] for pair in phase["snapshot"]]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ratio": {"value": figures.paired_p50_ratio(
            phase["walls"], snapshot), "unit": "ratio"},
        "throughput_ratio": {"value": sum(snapshot) / sum(phase["walls"]),
                             "unit": "ratio"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }


def workload_details(workload, phase: Dict[str, Any],
                     failures: List[Optional[str]]) -> Dict[str, Any]:
    """The workload's own end-to-end figures and the sample counts."""
    import figures
    import workloads

    timing = figures.timing_summary(phase["walls"])
    busy = sum(phase["walls"])
    details: Dict[str, Any] = {"timing": timing}
    own: Dict[str, Dict[str, Any]] = {
        "op_p50_ms": {"value": timing["op_p50_ms"], "unit": "ms"},
        "ops_per_s": {"value": len(phase["walls"]) / busy, "unit": "1/s"},
        "failed_frac": {"value": figures.failed_frac(failures),
                        "unit": "ratio"}}
    if phase.get("snapshot"):
        own["snapshot_op_p50_ms"] = {"value": statistics.median(
            pair["wall"] for pair in phase["snapshot"]) * 1e3, "unit": "ms"}
    if workload.trials_per_op:
        tps = figures.trials_per_s(len(phase["walls"]),
                                   workload.trials_per_op, busy)
        own["trials_per_s"] = {"value": tps, "unit": "1/s"}
        own["cells_per_s"] = {"value": tps / workloads.REQUESTS,
                              "unit": "1/s"}
    per_cell = figures.store_bytes_per_cell(phase["appended"],
                                            phase["cells"])
    if per_cell is not None:
        own["store_bytes_per_cell"] = {"value": per_cell, "unit": "B"}
    if "op_p90_ms" in timing:
        own["op_p90_ms"] = {"value": timing["op_p90_ms"], "unit": "ms"}
    details["metrics"] = own
    return details


def traced_phase(workload, seconds: float, first: int,
                 trace_path: Path, meta: Dict[str, Any]):
    """The traced loop: per-op breakdowns, counts and the trace file."""
    import layers
    import spans

    recorder = spans.Recorder()
    wiring = layers.Layers(recorder)
    breakdowns: List[spans.OpBreakdown] = []
    counts: List[Dict[str, float]] = []
    kept: List[spans.Span] = []
    totals = {"spans": 0, "stragglers": 0}
    names = set()

    def on_op(i: int, t0: float, t1: float) -> None:
        taken, recorder.spans = recorder.spans, []
        mine = [span for span in taken if span.op == i]
        totals["spans"] += len(taken)
        totals["stragglers"] += len(taken) - len(mine)
        names.update(span.name for span in taken)
        parts = spans.breakdown(mine, t0, t1, recorder.main_thread)
        breakdowns.append(parts)
        counts.append(layers.op_counts(parts, wiring.take_objects(),
                                       recorder.counts.pop(i, {})))
        if i - first < TRACE_OPS_KEPT:
            kept.extend(taken)
        recorder.op = i + 1

    recorder.op = first
    wiring.install()
    try:
        phase = timed_loop(workload, seconds, first, on_op)
    finally:
        recorder.unpatch()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    doc = spans.chrome_trace(kept, recorder.main_thread,
                             dict(meta, ops_kept=TRACE_OPS_KEPT))
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return phase, breakdowns, counts, totals, sorted(names)


def run(args) -> int:
    error = import_program()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import figures
    import workloads

    import_s = time.perf_counter() - START
    TEMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TEMP_ROOT))
    snapshot = None
    try:
        workload = workloads.WORKLOADS[args.workload](tmp / "live",
                                                      args.seed)
        workload.tmp.mkdir()
        snapshot = Snapshot(args.workload, args.seed, tmp / "snapshot",
                            PROCESS_STATE)
        steps = set_up(workload, snapshot)
        live = steps["live"]
        details: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_facts(workloads.WORKERS),
            "closed_loop": "one client, one op at a time",
            "setup": {"import_s": import_s, **steps, "raw_s": import_s
                      + live["fixtures_s"] + sum(live["warmup_ops_s"])}}

        if not args.trace:
            imports = import_walls(SRC, snapshot.root)
            ratio = setup_ratio(live, steps["snapshot"], imports)
            details["setup"].update(
                fresh_import_s=imports, ratio=ratio,
                snapshot_reference_s=workload.setup_ref_s)
            rss = peak_rss_mib(workload)
            phase = timed_loop(workload, args.seconds, 0, snapshot=snapshot)
            failures = check_all(workload, phase, phase["snapshot"])
            details.update(workload_details(workload, phase, failures))
            metrics = end_to_end(phase, ratio * workload.setup_ref_s, rss)
            correct = True
        else:
            import layers

            phase = timed_loop(workload, args.seconds, 0)
            failures = check_all(workload, phase,
                                 references(phase, snapshot))
            details.update(workload_details(workload, phase, failures))
            untraced_p50 = figures.timing_summary(
                phase["walls"])["op_p50_ms"]
            trace_path = TEMP_ROOT / f"trace-{args.workload}.json"
            traced, parts, counts, totals, names = traced_phase(
                workload, args.seconds, len(phase["walls"]), trace_path,
                {"workload": args.workload, "seed": args.seed})
            failures += check_all(workload, traced,
                                  references(traced, snapshot))
            units = layers.metric_units()
            metrics = {
                name: {"value": value, "unit": units[name]}
                for name, value in layers.per_layer_metrics(
                    parts, counts, untraced_p50, totals["spans"]).items()}
            gap = max(layers.accounting_gap(p) for p in parts)
            missing = layers.unmapped(names)
            correct = gap <= ACCOUNTING_TOLERANCE and not missing
            details["trace"] = {
                "path": str(trace_path.relative_to(ROOT)),
                "traced_ops": len(parts),
                "accounting_tolerance": ACCOUNTING_TOLERANCE,
                "accounting_gap_ratio": gap, "unmapped_spans": missing,
                "straggler_spans": totals["stragglers"],
                "traced": figures.timing_summary(traced["walls"])}
        failed = [f for f in failures if f is not None]
        details["failures"] = failed[:FAILURES_SHOWN]
        print(json.dumps({"detail": details}, sort_keys=True))
        print(json.dumps({"correct": correct and not failed,
                          "attempted": len(failures),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        if snapshot is not None:
            snapshot.close()
        from repro.runtime.pool import shutdown_pools

        shutdown_pools(wait=True)
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
