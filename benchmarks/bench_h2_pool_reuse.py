"""Warm pools and the incremental result store (H3).

Two claims about the harness's own cost model:

* **warm pools** — a :class:`ParallelMap` borrows one long-lived
  process executor per worker count instead of spawning a fresh one
  per ``map()`` call, so a sequence of maps pays spawn cost once.
  Reuse must be free of observable effect: the warm maps' results are
  byte-identical to cold maps (the warm pools shut down before each,
  so each spawns its own workers) and to the serial path.
* **incremental re-runs** — a suite driven through
  :func:`repro.runtime.bench.run_suite` with a
  :class:`~repro.runtime.store.ResultStore` serves files unchanged
  since the last run from disk; a warm second run executes nothing,
  drifts nothing, and finishes in a fraction of the cold wall time.

Timings (cold vs warm per-map latency, cold vs warm suite wall) are
printed — landing in ``BENCH_harness.json`` under ``outputs`` next to
the runner's own ``pool.pool_reuses`` and ``store.hit_rate`` fields —
while the saved results table carries only the deterministic facts, so
drift detection stays meaningful.
"""

import pathlib
import shutil
import tempfile
import time

from repro.harness.report import render_table
from repro.runtime.bench import run_suite
from repro.runtime.pmap import ParallelMap
from repro.runtime.pool import shutdown_pools
from repro.runtime.store import ResultStore

from _common import save_result

#: Maps per pool configuration; enough for spawn amortisation to show.
MAPS = 6
ITEMS = list(range(32))

#: Generated benchmark files for the incremental-suite phase, with just
#: enough compute that serving from the store is visibly cheaper.
SUITE_FILES = 3
SUITE_WORK = 200_000


def _square(x):
    return x * x


def _run_maps(cold):
    """``MAPS`` process-pool maps; returns (results, seconds, stats).
    ``cold`` shuts the warm pools down before each map."""
    pool = ParallelMap(workers=2)
    results = []
    start = time.perf_counter()
    for _ in range(MAPS):
        if cold:
            shutdown_pools()
        results.append(pool.map(_square, ITEMS))
    seconds = time.perf_counter() - start
    return results, seconds, pool.stats


def _generate_suite(root):
    suite = root / "suite"
    suite.mkdir()
    expected = sum(range(SUITE_WORK))
    for i in range(SUITE_FILES):
        (suite / f"bench_gen{i}.py").write_text(
            "def test_spin(benchmark):\n"
            f"    total = benchmark(lambda: sum(range({SUITE_WORK})))\n"
            f"    assert total == {expected}\n",
            encoding="utf-8")
    return suite


def _run_incremental(suite, store_path):
    """One ``run_suite`` pass against the shared store."""
    start = time.perf_counter()
    report = run_suite(suite, workers=1,
                       store=ResultStore(store_path, name="bench-h3"))
    return report, time.perf_counter() - start


def _experiment():
    serial = [_square(x) for x in ITEMS]
    cold_results, cold_seconds, _ = _run_maps(cold=True)
    warm_results, warm_seconds, warm_stats = _run_maps(cold=False)

    root = pathlib.Path(tempfile.mkdtemp(prefix="bench_h3_"))
    try:
        suite = _generate_suite(root)
        store_path = root / "store.jsonl"
        cold_report, cold_wall = _run_incremental(suite, store_path)
        warm_report, warm_wall = _run_incremental(suite, store_path)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    facts = [
        ("warm maps byte-identical to cold and serial",
         all(r == serial for r in cold_results + warm_results)),
        ("warm pool reused across maps",
         warm_stats.pool_reuses == 1 and warm_stats.backend == "process"),
        ("cold suite executed every file",
         cold_report["store"]["served"] == 0
         and not cold_report["failures"]),
        ("warm suite served every file from the store",
         warm_report["store"]["served"] == SUITE_FILES),
        ("warm suite drift-free", warm_report["results_drift"] == []),
        ("warm suite outcomes match cold",
         [(b["name"], b["ok"], b["tests"])
          for b in warm_report["benchmarks"]]
         == [(b["name"], b["ok"], b["tests"])
             for b in cold_report["benchmarks"]]),
    ]
    table = render_table(
        ("fact", "holds"),
        [(fact, str(bool(ok))) for fact, ok in facts],
        title="H3: warm pools and the incremental result store")
    timings = {
        "cold_ms_per_map": cold_seconds / MAPS * 1e3,
        "warm_ms_per_map": warm_seconds / MAPS * 1e3,
        "cold_suite_s": cold_wall,
        "warm_suite_s": warm_wall,
        "warm_over_cold": warm_wall / cold_wall if cold_wall else 0.0,
        "store_hit_rate": warm_report["store"]["hit_rate"],
    }
    return facts, table, timings


def test_pool_reuse_and_incremental_store(benchmark):
    facts, table, timings = benchmark(_experiment)
    save_result("H3_pool_reuse", table)
    print(" ".join(f"{key}={value:.4f}"
                   for key, value in sorted(timings.items())))

    for fact, ok in facts:
        assert ok, fact
