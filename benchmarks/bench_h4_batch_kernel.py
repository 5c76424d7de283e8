"""Batched trial kernel: identical bytes, an order of magnitude faster (H4).

Two claims about the batched path (:mod:`repro.runtime.kernel`):

* **byte-identity** — for any batch size, ``run_trials`` and
  ``summarize`` reproduce the scalar path byte for byte, including the
  store-backed warm run (whole batches served as single records, zero
  re-execution);
* **throughput** — with a result store attached, the scalar path pays
  one content-address key, one lookup and one encoded record *per
  trial*, all of a run's misses appended by one ``put_many``; the batch
  kernel pays them *per batch*, so trials/sec improves by up to the
  batch size.  The floor asserted here (and gated in CI from
  ``BENCH_harness.json``) is **10x** at ``BATCH = 64``.

The saved results table carries only the deterministic facts so drift
detection stays meaningful; the measured throughputs are printed as
``key=value`` pairs, landing in ``BENCH_harness.json`` under
``outputs``.
"""

import pathlib
import shutil
import tempfile
import time

from repro.harness.experiment import Experiment, run_trials, summarize
from repro.harness.report import render_table
from repro.runtime.store import ResultStore

from _common import save_result

#: Trials in the timed campaign and the per-call batch size.
TRIALS = 512
BATCH = 64
#: The asserted throughput floor, scalar -> batched, store-backed.
SPEEDUP_FLOOR = 10.0
#: Seeds for the (smaller) identity phase.
IDENTITY_SEEDS = tuple(range(23))


def _trial(seed):
    """A micro-trial: all harness tax, negligible work.

    Deterministic arithmetic rather than an RNG draw, so the timed
    phase measures the harness's per-trial overhead (key, lookup,
    record encoding) and not the trial's own compute — the regime
    where the batch kernel's amortisation shows.
    """
    value = (seed * 2654435761) % 997
    return {"value": value / 997.0, "ok": float(seed % 7 != 0)}


def _store(root, name):
    return ResultStore(root / f"{name}.jsonl", name=f"bench-h4-{name}")


#: Timing rounds per path; the minimum is reported (standard practice:
#: the floor is the honest cost, everything above it is noise).
ROUNDS = 3


def _timed_run(root, name, batch):
    """CPU-time the execution+store phase, best of ``ROUNDS`` cold
    rounds (fresh store each, so every round really executes).

    Per-process CPU time, not wall: the suite runner may co-schedule
    another benchmark on the same core, and descheduled time says
    nothing about the kernel's per-trial tax.  ``summarize`` runs
    outside the clock — its cost is identical either way (same fold,
    same floats).
    """
    best = float("inf")
    summary = None
    for round_index in range(ROUNDS):
        experiment = Experiment(
            name="h4-tps", trial=_trial, seeds=range(TRIALS), batch=batch,
            store=_store(root, f"{name}-{round_index}"))
        start = time.process_time()
        results = (experiment.run() if batch is None
                   else experiment.run_batches())
        best = min(best, time.process_time() - start)
        round_summary = summarize(results)
        assert summary is None or repr(summary) == repr(round_summary)
        summary = round_summary
    return summary, best


def _experiment():
    # -- identity phase (deterministic facts) --
    scalar = run_trials(_trial, IDENTITY_SEEDS)
    batch_reprs = {
        b: repr(run_trials(_trial, IDENTITY_SEEDS, batch=b))
        for b in (1, 5, len(IDENTITY_SEEDS))
    }
    scalar_summary = summarize(scalar)
    batched_summaries = {
        b: Experiment(name="h4", trial=_trial, seeds=IDENTITY_SEEDS,
                      batch=b).summary()
        for b in (1, 5, len(IDENTITY_SEEDS))
    }

    root = pathlib.Path(tempfile.mkdtemp(prefix="bench_h4_"))
    try:
        warm_log = _store(root, "warm")
        Experiment(name="h4", trial=_trial, seeds=IDENTITY_SEEDS,
                   batch=5, store=warm_log).run()
        warm_store = _store(root, "warm")
        warm = Experiment(name="h4", trial=_trial, seeds=IDENTITY_SEEDS,
                          batch=5, store=warm_store).run()
        warm_stats = warm_store.stats()

        # -- throughput phase (store-backed, serial, cold) --
        scalar_summary_big, scalar_seconds = _timed_run(
            root, "scalar", batch=None)
        batched_summary_big, batched_seconds = _timed_run(
            root, "batched", batch=BATCH)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    speedup = (scalar_seconds / batched_seconds
               if batched_seconds else float("inf"))
    facts = [
        ("batched results byte-identical for B=1, 5, all",
         all(r == repr(scalar) for r in batch_reprs.values())),
        ("batched summaries byte-identical to scalar",
         all(repr(s) == repr(scalar_summary)
             for s in batched_summaries.values())),
        ("warm run serves whole batches, executes nothing",
         warm_stats["hits"] == 5 and warm_stats["misses"] == 0
         and warm_stats["trials_served"] == len(IDENTITY_SEEDS)),
        ("warm batched results byte-identical to scalar",
         repr(warm) == repr(scalar)),
        ("store-backed summaries agree at campaign scale",
         repr(scalar_summary_big) == repr(batched_summary_big)),
        (f"batched >= {SPEEDUP_FLOOR:.0f}x scalar trials/sec "
         f"(B={BATCH})", speedup >= SPEEDUP_FLOOR),
    ]
    table = render_table(
        ("fact", "holds"),
        [(fact, str(bool(ok))) for fact, ok in facts],
        title="H4: batched trial kernel")
    timings = {
        "scalar_tps": TRIALS / scalar_seconds if scalar_seconds else 0.0,
        "batched_tps": (TRIALS / batched_seconds
                        if batched_seconds else 0.0),
        "speedup": speedup,
    }
    return facts, table, timings


def test_batch_kernel_identity_and_throughput(benchmark):
    facts, table, timings = benchmark(_experiment)
    save_result("H4_batch_kernel", table)
    print(" ".join(f"{key}={value:.4f}"
                   for key, value in sorted(timings.items())))

    for fact, ok in facts:
        assert ok, fact
