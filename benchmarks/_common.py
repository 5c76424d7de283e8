"""Shared helpers for the benchmark/experiment suite.

Every benchmark regenerates one paper artifact (table, figure, or
numbered textual claim — see DESIGN.md §4), asserts that the *shape* of
the paper's claim holds, and writes its rendered table to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md entries can be
refreshed verbatim.

Benchmarks that pin machine-dependent timings write them to one JSON
report, ``BENCH_harness.json`` (:data:`BENCH_HARNESS_JSON`), through
:func:`repro.runtime.bench.update_harness_json`: a schema-versioned
document with host metadata, updated one named section at a time under
an advisory ``flock`` so the pool can run the contributing benchmarks
concurrently without losing each other's sections.  ``repro bench
--json PATH`` points each file's ``BENCH_HARNESS_JSON`` at ``PATH``, so
every section of one run lands in the one document it names.
"""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The harness timing report (sectioned repro-bench-harness/v2; written
#: through :func:`repro.runtime.bench.update_harness_json`): the
#: checkout's document, which ``repro bench --json`` replaces in each
#: file it runs.
BENCH_HARNESS_JSON = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_harness.json"


def save_result(experiment_id: str, text: str) -> None:
    """Persist a rendered experiment table and echo it to stdout.

    The table is written to a temporary file beside it and renamed over
    it, so a write that fails leaves the previous table in place and a
    concurrent reader never sees a truncated one.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"\n[{experiment_id}]")
    print(text)

