"""Observe overhead: per-site cost of the telemetry hot paths.

Every instrumentation site in the framework follows the same shape —
resolve the session (``observe.current()``), check ``enabled``, and
only then do telemetry work — so the cost of *having* the observe
subsystem is the cost of that disabled-path check, and the cost of
*using* it is the per-site enabled work (counter bump, event publish,
span open/close).  This benchmark times both paths per site and writes
the timings to the ``"sites"`` section of ``BENCH_observe.json`` —
schema-versioned, with host metadata and iteration counts, so a
timing swing between hosts is attributable (the bare-number era could
not tell a 113→307 ns host change from a regression).

Each enabled per-site figure is the median of :data:`ROUNDS` rounds of
:data:`N` sites, each round in a fresh session, and
``merge_ns_per_record`` is the cost of folding one round's snapshot
(spans and events) into a session with an
:class:`~repro.observe.sli.SliMonitor` attached, per record — the
parent side of every pooled chunk.

Drift detection: the disabled-path ns/site is asserted against a
pinned budget.  The budget is a generous ceiling (~6x the fastest
host observed) — it tolerates host variance but catches the failure
mode that matters, the disabled check silently growing real work.

The saved results table carries only deterministic facts (counter
exactness, snapshot round-trip fidelity, the allocation-free verdict)
so table-level drift detection stays meaningful.
"""

import statistics
import time
import tracemalloc

from repro import observe
from repro.harness.report import render_table

from _common import save_result, update_bench_json

N = 20_000

#: Rounds per enabled figure; the section reports their median.
ROUNDS = 5

#: Retained-bytes budget for the disabled resolve-and-check path: it
#: must not build anything at all (same contract as H1's 512 bytes for
#: the two counter cells it actually owns).
ALLOCATION_BUDGET = 512

#: Pinned ceiling for the disabled resolve-and-check path, ns/site.
#: Observed floors: ~113 ns (fast host) to ~307 ns (CI container); the
#: ceiling is deliberately generous so it trips on a real regression
#: (the check growing allocations or lock traffic), not host noise.
DISABLED_BUDGET_NS = 2000.0


def _time_disabled_checks(n):
    start = time.perf_counter()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    return time.perf_counter() - start


def _net_disabled_allocation(n):
    """Bytes retained after ``n`` disabled resolve-and-check rounds."""
    observe.current()  # warm the import/lookup machinery first
    tracemalloc.start()
    for _ in range(n):
        tel = observe.current()
        if tel.enabled:  # pragma: no cover - disabled in this phase
            tel.count("bench_total")
    net, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return net


def _enabled_round(n):
    """One round: seconds for ``n`` counter / publish / span sites and
    for merging the round's snapshot into an SLI-monitored session."""
    timings = {}
    with observe.session() as tel:
        start = time.perf_counter()
        for _ in range(n):
            tel.count("bench_total")
        timings["counter"] = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(n):
            tel.publish("bench.event", i=i)
        timings["publish"] = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            with tel.span("bench.span", cost=1.0):
                pass
        timings["span"] = time.perf_counter() - start
        counter_exact = tel.metrics.value("bench_total") == n
        published_exact = tel.bus.published == n
        snapshot = tel.snapshot()
    records = len(snapshot["spans"]["spans"]) + \
        len(snapshot["events"]["events"])
    with observe.session() as merged:
        observe.SliMonitor(merged.bus)
        start = time.perf_counter()
        merged.merge(snapshot)
        timings["merge"] = time.perf_counter() - start
        roundtrip_exact = (
            merged.metrics.value("bench_total") == n
            and merged.bus.published == n
            and merged.tracer.started == snapshot["spans"]["started"])
    exact = (counter_exact, published_exact, roundtrip_exact)
    return timings, records, exact


def _time_enabled_sites(n):
    """Median nanoseconds per site (and per merged record) over
    :data:`ROUNDS` rounds, plus the counter / publish / round-trip
    exactness facts, each of which must hold in every round."""
    samples = [_enabled_round(n) for _ in range(ROUNDS)]
    figures = {
        f"enabled_{site}_ns_per_site": statistics.median(
            timings[site] for timings, _, _ in samples) / n * 1e9
        for site in ("counter", "publish", "span")}
    figures["merge_ns_per_record"] = statistics.median(
        timings["merge"] / records * 1e9 for timings, records, _ in samples)
    exact = [all(column) for column in zip(*(facts for _, _, facts
                                              in samples))]
    return (figures, *exact)


def _experiment():
    disabled_seconds = _time_disabled_checks(N)
    net = _net_disabled_allocation(2_000)
    figures, counter_exact, published_exact, roundtrip_exact = \
        _time_enabled_sites(N)

    disabled_ns = disabled_seconds / N * 1e9
    rows = [
        ("disabled check", N, True, net < ALLOCATION_BUDGET),
        ("enabled counter", N, counter_exact, "n/a"),
        ("enabled publish", N, published_exact, "n/a"),
        ("snapshot/merge round trip", N, roundtrip_exact, "n/a"),
    ]
    table = render_table(
        ("site", "iterations", "exact", "allocation-free"),
        rows, title="observe: per-site instrumentation overhead")
    section = {
        "iterations": N,
        "rounds": ROUNDS,
        "disabled_ns_per_site": disabled_ns,
        "disabled_budget_ns_per_site": DISABLED_BUDGET_NS,
        **figures,
    }
    return rows, section, net, disabled_ns, table


def test_observe_overhead_disabled_path_is_allocation_free(benchmark):
    rows, section, net, disabled_ns, table = benchmark(_experiment)
    save_result("OBS_overhead", table)
    update_bench_json("sites", section)
    print(" ".join(f"{key}={value:.0f}" for key, value in section.items()
                   if key.endswith(("_ns_per_site", "_ns_per_record"))))

    assert net < ALLOCATION_BUDGET, \
        f"disabled observe path retained {net} bytes"
    assert disabled_ns < DISABLED_BUDGET_NS, \
        (f"disabled observe path drifted to {disabled_ns:.0f} ns/site "
         f"(budget {DISABLED_BUDGET_NS:.0f})")
    for _site, _n, exact, _alloc in rows:
        assert exact
