"""Delta streaming: identical folded bytes, pinned overhead (H5).

Three claims about the delta-snapshot protocol
(:mod:`repro.observe.stream` + the pool's streamed chunk runner):

* **byte-identity** — folding a streamed run's deltas in emission
  order reproduces the plain captured run byte for byte (metric dump,
  span tree, event history), on the serial and process backends here
  (the unit suite adds ``PYTHONHASHSEED`` stability).  A worker chunk
  ships one delta, offered to the stream when it is folded; the
  in-process chunk of a serial run makes one per item as it runs;
* **disabled path unchanged** — with the streaming machinery
  imported, streams constructed and fed, and the flight recorder
  attached, the disabled resolve-and-check site stays allocation-free
  and within the same pinned ns/site budget as the baseline observe
  benchmark — always-on observability must cost nothing when nothing
  observes;
* **enabled overhead pinned** — the per-trial cost of a streamed
  serial run (a delta per trial) versus a plain one, both recording
  into a session, is measured and written to the ``"streaming"``
  section of ``BENCH_harness.json``, next to host metadata so
  cross-host swings stay attributable.  It is timed on the serial
  backend because a worker process's CPU time does not show in this
  process's ``process_time``.

The saved results table carries only the deterministic facts; the
measured timings land in the JSON report.
"""

import time
import tracemalloc

from repro import observe
from repro.environment import SimEnvironment
from repro.harness.report import render_table
from repro.observe.stream import TelemetryStream
from repro.runtime.bench import update_harness_json
from repro.runtime.pmap import ParallelMap

from _common import BENCH_HARNESS_JSON, save_result

#: Disabled-path timing iterations (same scale as bench_observe).
N_SITES = 20_000

#: Allocation budget for the disabled check (same contract as H1/OBS).
ALLOCATION_BUDGET = 512

#: Same pinned ceiling as bench_observe_overhead's disabled path: the
#: streamed era must not move the disabled check out of budget.
DISABLED_BUDGET_NS = 2000.0

#: Streaming machinery live vs baseline, disabled path: the ratio a
#: real regression (per-site lock traffic, recorder work) would blow
#: through while host noise on a 20k-iteration floor stays well under.
DRIFT_RATIO = 5.0

#: Seeds for the identity phase and the timed phase.
IDENTITY_SEEDS = tuple(range(12))
TIMED_TRIALS = 96
ROUNDS = 3

#: Pool self-metrics are backend- and transport-dependent by design;
#: the byte-identity contract covers the workload series only.
EXCLUDE = ("repro_runtime_",)


def _trial(seed):
    """A telemetry-rich pure trial with dyadic costs only.

    Binds the session to the environment's virtual clock so timestamps
    are seed-derived, not session-relative — the documented contract
    for cross-backend byte-identity (docs/OBSERVABILITY.md).
    """
    env = SimEnvironment(seed=seed)
    tel = observe.current()
    if tel.enabled:
        tel.bind_clock(env.clock)
        tel.count("h5_trials_total")
        with tel.span("h5.trial", cost=1.0):
            tel.publish("h5.tick", seed=seed)
            env.clock.advance(0.5)
    return {"value": float(seed % 7)}


def _fingerprint(tel):
    """The three byte-identity surfaces of one session."""
    return (
        tel.metrics.render_prometheus(exclude=EXCLUDE),
        [span.to_dict() for span in tel.tracer.spans],
        [(e.topic, e.time, e.seq, e.payload) for e in tel.bus.history],
    )


def _run(backend, stream=False, workers=3, seeds=IDENTITY_SEEDS):
    """One pooled run under a session; returns (session, pool)."""
    pool = ParallelMap(
        workers=1 if backend == "serial" else workers,
        stream=TelemetryStream() if stream else None)
    with observe.session() as tel:
        pool.map(_trial, list(seeds))
    assert pool.stats.backend == backend
    return tel, pool


def _time_disabled_checks(n):
    start = time.perf_counter()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    return time.perf_counter() - start


def _net_disabled_allocation(n):
    observe.current()  # warm the lookup machinery first
    tracemalloc.start()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    net, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return net


def _timed_seconds(stream):
    """Best-of-rounds CPU seconds for a serial run under a session.

    Per-process CPU time rather than wall, so co-scheduled suite noise
    is not charged to the run.
    """
    best = float("inf")
    for _ in range(ROUNDS):
        pool = ParallelMap(
            workers=1, stream=TelemetryStream() if stream else None)
        with observe.session():
            start = time.process_time()
            pool.map(_trial, list(range(TIMED_TRIALS)))
            best = min(best, time.process_time() - start)
    return best


def _experiment():
    # -- disabled phase, baseline: no stream constructed yet this run --
    disabled_before = _time_disabled_checks(N_SITES) / N_SITES * 1e9

    # -- identity phase (constructs and exercises the machinery) --
    plain, _ = _run("serial", stream=False)
    expected = _fingerprint(plain)
    serial_tel, serial_pool = _run("serial", stream=True)
    process_tel, process_pool = _run("process", stream=True)
    serial_identical = _fingerprint(serial_tel) == expected
    process_identical = _fingerprint(process_tel) == expected
    deltas_folded = (serial_pool.stats.deltas_merged > 0
                     and process_pool.stats.deltas_merged > 0)
    # The serial run's one in-process chunk offers a delta per item,
    # then its tail.
    chunk_streamed = (serial_pool.stats.streamed_chunks == 1
                      and serial_pool.stats.deltas_merged
                      == len(IDENTITY_SEEDS) + 1)

    # -- disabled phase, streaming machinery live --
    disabled_after = _time_disabled_checks(N_SITES) / N_SITES * 1e9
    net = _net_disabled_allocation(2_000)
    drift = disabled_after / disabled_before if disabled_before else 1.0

    # -- enabled overhead phase (serial backend) --
    captured_seconds = _timed_seconds(stream=False)
    streamed_seconds = _timed_seconds(stream=True)
    overhead_ns = ((streamed_seconds - captured_seconds)
                   / TIMED_TRIALS * 1e9)

    facts = [
        ("serial streamed fold byte-identical to captured run",
         serial_identical),
        ("process streamed fold byte-identical to captured run",
         process_identical),
        ("deltas folded on both backends", deltas_folded),
        ("in-process chunk streamed item by item, not just at gather",
         chunk_streamed),
        ("disabled path within pinned budget with streaming live",
         disabled_after < DISABLED_BUDGET_NS),
        (f"disabled path drift <= {DRIFT_RATIO:.0f}x baseline",
         disabled_after <= disabled_before * DRIFT_RATIO),
        ("disabled path allocation-free with streaming live",
         net < ALLOCATION_BUDGET),
    ]
    table = render_table(
        ("fact", "holds"),
        [(fact, str(bool(ok))) for fact, ok in facts],
        title="H5: delta streaming identity and overhead")
    section = {
        "site_iterations": N_SITES,
        "timed_trials": TIMED_TRIALS,
        "disabled_before_ns_per_site": disabled_before,
        "disabled_after_ns_per_site": disabled_after,
        "disabled_budget_ns_per_site": DISABLED_BUDGET_NS,
        "disabled_drift_ratio": drift,
        "disabled_drift_budget_ratio": DRIFT_RATIO,
        "captured_us_per_trial": captured_seconds / TIMED_TRIALS * 1e6,
        "streamed_us_per_trial": streamed_seconds / TIMED_TRIALS * 1e6,
        "stream_overhead_ns_per_trial": overhead_ns,
    }
    return facts, section, table


def test_stream_overhead_identity_and_disabled_budget(benchmark):
    facts, section, table = benchmark(_experiment)
    save_result("H5_stream_overhead", table)
    update_harness_json(BENCH_HARNESS_JSON, "streaming", section)
    print(" ".join(
        f"{key}={value:.1f}" for key, value in sorted(section.items())))

    for fact, ok in facts:
        assert ok, fact
