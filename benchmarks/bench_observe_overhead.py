"""Observe overhead: per-site cost of the telemetry hot paths.

Every instrumentation site in the framework follows the same shape —
resolve the session (``observe.current()``), check ``enabled``, and
only then do telemetry work — so the cost of *having* the observe
subsystem is the cost of that disabled-path check, and the cost of
*using* it is the per-site enabled work (counter bump, event publish,
span open/close).  This benchmark times both paths per site and writes
the timings to the ``"sites"`` section of ``BENCH_harness.json`` —
schema-versioned, with host metadata and iteration counts, so a
timing swing between hosts is attributable (the bare-number era could
not tell a 113→307 ns host change from a regression).

Each enabled per-site figure is the median of :data:`ROUNDS` rounds of
:data:`N` sites, each round in a fresh session, and
``merge_ns_per_record`` is the cost of folding one round's snapshot
(spans and events) into a session with an
:class:`~repro.observe.sli.SliMonitor` attached, per record.

Two figures price what a pooled campaign pays per event, on the mix of
:data:`CAMPAIGN_TOPICS` (one event in three a ``unit.outcome``, the
one topic of the mix the SLI monitor reads):
``capture_publish_ns_per_site`` is a publish inside
``observe.capture(events_only=True)``, the session a worker chunk runs
in, and ``events_only_merge_ns_per_record`` folds such a capture's
snapshot into an installed events-only session with an
:class:`~repro.observe.sli.SliMonitor`, as the parent folds every
chunk (the installed session's flight-ring tap included).

Drift detection: the disabled-path ns/site is asserted against a
pinned budget.  The budget is a generous ceiling (~6x the fastest
host observed) — it tolerates host variance but catches the failure
mode that matters, the disabled check silently growing real work.

The saved results table carries only deterministic facts (counter
exactness, snapshot round-trip fidelity, a merged capture's flight
ring and history equal to publishing its events one by one, the
allocation-free verdict) so table-level drift detection stays
meaningful.
"""

import statistics
import time
import tracemalloc

from repro import observe
from repro.harness.report import render_table
from repro.observe.flightrec import FlightRecorder
from repro.runtime.bench import update_harness_json

from _common import BENCH_HARNESS_JSON, save_result

N = 20_000

#: Rounds per enabled figure; the section reports their median.
ROUNDS = 5

#: The topics a captured round cycles through: a pooled campaign's
#: chunks ship about one ``unit.outcome`` in three events.
CAMPAIGN_TOPICS = ("unit.outcome", "adjudication.verdict", "fault.injected")

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


def _captured_snapshot(n):
    """Seconds for ``n`` publishes in an events-only capture, and the
    capture's snapshot."""
    with observe.capture(events_only=True) as tel:
        start = time.perf_counter()
        for i in range(n):
            tel.publish(CAMPAIGN_TOPICS[i % 3], pattern="bench",
                        ok=i % 4 != 0, cost=1.0)
        seconds = time.perf_counter() - start
        return seconds, tel.snapshot()


def _capture_round(n):
    """One round: seconds per captured publish and per record folded
    into an installed, SLI-monitored events-only session."""
    publish, snapshot = _captured_snapshot(n)
    with observe.session(events_only=True) as tel:
        observe.SliMonitor(tel.bus)
        start = time.perf_counter()
        tel.merge(snapshot)
        merge = time.perf_counter() - start
    records = len(snapshot["events"]["events"])
    return publish / n, merge / records


class _RowClock:
    """A clock that reads the given times in turn, so events published
    one by one carry a snapshot's own times."""

    def __init__(self, times):
        self._times = iter(times)

    @property
    def now(self):
        return next(self._times)


def _merge_equals_one_by_one(n):
    """A merged capture's flight ring, history and SLI rows equal those
    of publishing its events one by one."""
    _, snapshot = _captured_snapshot(n)
    rows = snapshot["events"]["events"]
    sides = []
    for merged in (True, False):
        tel = observe.Telemetry(
            clock=None if merged else _RowClock(row[1] for row in rows),
            events_only=True)
        recorder = FlightRecorder()
        recorder.attach(tel)
        monitor = observe.SliMonitor(tel.bus)
        if merged:
            tel.merge(snapshot)
        else:
            for topic, _, _, payload in rows:
                tel.publish(topic, **payload)
        sides.append((recorder.captured, recorder.window(),
                      [(e.topic, e.time, e.seq, e.payload)
                       for e in tel.bus.history], monitor.rows()))
    return sides[0] == sides[1]


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
    captured = [_capture_round(n) for _ in range(ROUNDS)]
    figures["capture_publish_ns_per_site"] = statistics.median(
        publish for publish, _ in captured) * 1e9
    figures["events_only_merge_ns_per_record"] = statistics.median(
        merge for _, merge in captured) * 1e9
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
        ("merged ring and history", N, _merge_equals_one_by_one(N),
         "n/a"),
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
    update_harness_json(BENCH_HARNESS_JSON, "sites", section)
    print(" ".join(f"{key}={value:.0f}" for key, value in section.items()
                   if key.endswith(("_ns_per_site", "_ns_per_record"))))

    assert net < ALLOCATION_BUDGET, \
        f"disabled observe path retained {net} bytes"
    assert disabled_ns < DISABLED_BUDGET_NS, \
        (f"disabled observe path drifted to {disabled_ns:.0f} ns/site "
         f"(budget {DISABLED_BUDGET_NS:.0f})")
    for _site, _n, exact, _alloc in rows:
        assert exact
