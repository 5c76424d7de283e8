"""Per-technique service-level indicators over a sliding window.

:class:`SliMonitor` subscribes to the telemetry event bus and keeps,
for each technique (or pattern), the SLIs an operator of a redundant
service would watch:

* **availability** — the fraction of ``unit.outcome`` events within the
  window that succeeded.  The paper's techniques exist to raise exactly
  this number in the presence of faults, so it is the headline column
  of ``repro report``;
* **failure rate** — its complement over the same window;
* **recovery latency** — nearest-rank p50/p95/p99 of the virtual-time
  cost of recovery events (reboot downtime, checkpoint rollback cost,
  rejuvenation cost) within the window.

The window is a fixed-size ring per series key (default
:data:`DEFAULT_WINDOW` samples), so long campaigns report the *recent*
health of each technique rather than an all-time average — the standard
sliding-window SLI construction — while memory stays bounded.

Series keys come from event payloads with the precedence
``technique`` > ``pattern`` > topic-specific fallback (a reboot's
``scope``, else the topic itself), so events published by a technique
facade and by its inner pattern engine land on the same row whenever
the payloads carry the same name.

The monitor works transparently across processes: the parallel runtime
ships worker-side events home as snapshots, and
:meth:`~repro.observe.events.EventBus.merge` *delivers* them to
subscribers, so a monitor attached to the parent session sees pooled
events exactly as it would serial ones (in submission order).
"""

from __future__ import annotations

import math
import collections
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.observe.events import Event, EventBus
from repro.taxonomy.tables import format_table

__all__ = ["SliMonitor", "DEFAULT_WINDOW", "RECOVERY_TOPICS",
           "STORE_TOPICS", "percentile", "SCHEMA",
           "parse_report", "diff_reports"]

#: Default sliding-window size, in samples per series.
DEFAULT_WINDOW = 256

#: Current report schema.  v2 adds the per-row ``window_span`` (virtual
#: time covered by the outcomes in the window) and ``throughput``
#: (outcomes per virtual-time unit over that span), plus the top-level
#: wall-clock ``trials_per_sec`` / ``wall_span`` pair (populated only
#: when the monitor was built with an injected ``wall_clock``).
SCHEMA = "repro-sli-report/v2"

#: Recovery event topics -> the payload field carrying the recovery's
#: virtual-time cost.
RECOVERY_TOPICS = {
    "reboot": "downtime",
    "checkpoint.rollback": "cost",
    "rejuvenation.performed": "cost",
}

#: Result-store traffic topics (published by
#: :class:`repro.runtime.store.ResultStore`) -> the tally they feed.
STORE_TOPICS = {
    "store.hit": "hits",
    "store.miss": "misses",
    "store.write": "writes",
}

#: Quantiles reported for recovery latency.
QUANTILES = (0.5, 0.95, 0.99)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class _Series:
    """The sliding windows backing one report row."""

    __slots__ = ("outcomes", "latencies", "times", "outcomes_seen",
                 "failures_seen", "recoveries_seen")

    def __init__(self, window: int) -> None:
        #: Recent ``unit.outcome`` verdicts (True = ok).
        self.outcomes: Deque[bool] = collections.deque(maxlen=window)
        #: Recent recovery costs, in virtual time units.
        self.latencies: Deque[float] = collections.deque(maxlen=window)
        #: Virtual timestamps of the windowed outcomes (kept in lock
        #: step with ``outcomes``; backs window_span / throughput).
        self.times: Deque[float] = collections.deque(maxlen=window)
        #: All-time tallies (never trimmed; shown for context).
        self.outcomes_seen = 0
        self.failures_seen = 0
        self.recoveries_seen = 0


class _StoreSeries:
    """All-time result-store traffic for one store name."""

    __slots__ = ("hits", "misses", "writes", "bytes", "trials")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.bytes = 0
        #: Trials served by hits: a scalar record serves 1, a batch
        #: record serves its whole batch (``trials=`` on ``store.hit``).
        self.trials = 0


class SliMonitor:
    """Sliding-window per-technique health derived from bus events.

    Args:
        bus: Event bus to attach to immediately (optional — call
            :meth:`attach` later, e.g. once a session exists).
        window: Sliding-window size in samples per series.

    Usage::

        with observe.session() as tel:
            monitor = SliMonitor(tel.bus)
            run_campaign(...)
        print(monitor.render())
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 window: int = DEFAULT_WINDOW,
                 wall_clock: Optional[Callable[[], float]] = None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._series: Dict[str, _Series] = {}
        self._stores: Dict[str, _StoreSeries] = {}
        self._subscriptions: List[Any] = []
        #: Injected wall clock (e.g. ``time.monotonic`` from the CLI).
        #: The observe package never reads a process clock itself
        #: (DET005): when unset, the report's wall-clock fields stay
        #: ``None`` and the document is fully deterministic.
        self._wall_clock = wall_clock
        self._wall_first: Optional[float] = None
        self._wall_last: Optional[float] = None
        if bus is not None:
            self.attach(bus)

    # -- bus wiring --------------------------------------------------------

    def attach(self, bus: EventBus) -> "SliMonitor":
        """Subscribe to the outcome and recovery topics of ``bus``.

        With a wall clock, the first attach also starts the wall span:
        :meth:`trials_per_sec` counts from here, so outcomes handed
        over in bursts (a pooled chunk's, delivered when the chunk is
        folded) are not credited to the span of the bursts alone.
        """
        if self._wall_clock is not None and self._wall_first is None:
            self._wall_first = self._wall_clock()
        self._subscriptions.append(bus.subscribe("unit.outcome",
                                                 self.observe))
        for topic in RECOVERY_TOPICS:
            self._subscriptions.append(bus.subscribe(topic, self.observe))
        for topic in STORE_TOPICS:
            self._subscriptions.append(bus.subscribe(topic, self.observe))
        return self

    def detach(self) -> None:
        """Cancel every subscription created by :meth:`attach`."""
        while self._subscriptions:
            self._subscriptions.pop().cancel()

    # -- event intake ------------------------------------------------------

    def _key(self, event: Event) -> str:
        payload = event.payload
        for field in ("technique", "pattern"):
            value = payload.get(field)
            if value:
                return str(value)
        if event.topic == "reboot" and payload.get("scope"):
            return str(payload["scope"])
        return event.topic

    def _get(self, key: str) -> _Series:
        series = self._series.get(key)
        if series is None:
            series = _Series(self.window)
            self._series[key] = series
        return series

    def observe(self, event: Event) -> None:
        """Bus handler: fold one event into the windows."""
        if event.topic == "unit.outcome":
            series = self._get(self._key(event))
            ok = bool(event.payload.get("ok"))
            series.outcomes.append(ok)
            series.times.append(float(event.time))
            series.outcomes_seen += 1
            if not ok:
                series.failures_seen += 1
            if self._wall_clock is not None:
                stamp = self._wall_clock()
                if self._wall_first is None:
                    self._wall_first = stamp
                self._wall_last = stamp
        elif event.topic in RECOVERY_TOPICS:
            cost = event.payload.get(RECOVERY_TOPICS[event.topic])
            if cost is None:
                return
            series = self._get(self._key(event))
            series.latencies.append(float(cost))
            series.recoveries_seen += 1
        elif event.topic in STORE_TOPICS:
            name = str(event.payload.get("store", "store"))
            tally = self._stores.get(name)
            if tally is None:
                tally = self._stores[name] = _StoreSeries()
            setattr(tally, STORE_TOPICS[event.topic],
                    getattr(tally, STORE_TOPICS[event.topic]) + 1)
            tally.bytes += int(event.payload.get("bytes", 0) or 0)
            if event.topic == "store.hit":
                tally.trials += int(event.payload.get("trials", 1) or 1)

    # -- reads -------------------------------------------------------------

    def rows(self) -> List[Dict[str, Any]]:
        """One JSON-friendly dict per series, sorted by key.

        ``availability``/``failure_rate`` are ``None`` for a series
        that saw recoveries but no outcomes (and vice versa for the
        latency quantiles), so renderers can distinguish "perfect" from
        "no data".
        """
        out: List[Dict[str, Any]] = []
        for key in sorted(self._series):
            series = self._series[key]
            row: Dict[str, Any] = {
                "technique": key,
                "window": self.window,
                "outcomes": len(series.outcomes),
                "outcomes_seen": series.outcomes_seen,
                "failures_seen": series.failures_seen,
                "recoveries": len(series.latencies),
                "recoveries_seen": series.recoveries_seen,
            }
            if series.outcomes:
                ok = sum(1 for verdict in series.outcomes if verdict)
                row["availability"] = ok / len(series.outcomes)
                row["failure_rate"] = 1.0 - row["availability"]
            else:
                row["availability"] = None
                row["failure_rate"] = None
            # v2: virtual-time span of the windowed outcomes and the
            # throughput over it.  Deterministic — event times come
            # from the session's (virtual) clock, never a process one.
            span = (series.times[-1] - series.times[0]
                    if len(series.times) >= 2 else None)
            row["window_span"] = span
            row["throughput"] = (len(series.outcomes) / span
                                 if span else None)
            latencies = list(series.latencies)
            for q in QUANTILES:
                label = f"recovery_p{int(q * 100)}"
                row[label] = percentile(latencies, q) if latencies else None
            out.append(row)
        return out

    def store_rows(self) -> List[Dict[str, Any]]:
        """One dict per observed result store, sorted by name.

        All-time tallies of ``store.hit`` / ``store.miss`` /
        ``store.write`` events (result-store traffic is not windowed:
        the interesting figure is the cumulative hit rate of a run).
        ``trials_served`` counts the trials behind the hits: a batch
        record (see :meth:`repro.harness.Experiment.run_batches`)
        serves its whole seed batch from one hit, so under batching
        ``trials_served`` exceeds ``hits``.
        """
        out: List[Dict[str, Any]] = []
        for name in sorted(self._stores):
            tally = self._stores[name]
            lookups = tally.hits + tally.misses
            out.append({
                "store": name,
                "hits": tally.hits,
                "misses": tally.misses,
                "writes": tally.writes,
                "bytes": tally.bytes,
                "trials_served": tally.trials,
                "hit_rate": (tally.hits / lookups) if lookups else None,
            })
        return out

    def trials_per_sec(self) -> Optional[float]:
        """All-time outcome rate against the injected wall clock, over
        the span from :meth:`attach` (or, unattached, the first
        outcome) to the last outcome.

        ``None`` without a ``wall_clock``, before any outcome, or on a
        frozen clock — so a report built without wall timing is
        byte-reproducible run to run.
        """
        if self._wall_first is None or self._wall_last is None:
            return None
        span = self._wall_last - self._wall_first
        if span <= 0:
            return None
        total = sum(series.outcomes_seen
                    for series in self._series.values())
        return total / span

    def as_dict(self) -> Dict[str, Any]:
        """The whole report as one JSON-friendly document.

        Schema ``repro-sli-report/v2``; see :data:`SCHEMA` for what v2
        adds and :func:`parse_report` for reading either version.
        """
        wall_span = (self._wall_last - self._wall_first
                     if self._wall_first is not None
                     and self._wall_last is not None else None)
        return {
            "schema": SCHEMA,
            "window": self.window,
            "outcomes_total": sum(series.outcomes_seen
                                  for series in self._series.values()),
            "trials_per_sec": self.trials_per_sec(),
            "wall_span": wall_span,
            "techniques": self.rows(),
            "stores": self.store_rows(),
        }

    def render(self, title: str = "per-technique SLIs") -> str:
        """ASCII health table (the body of ``repro report``)."""
        headers = ("technique", "avail", "fail rate", "outcomes",
                   "tput/u", "recoveries", "rec p50", "rec p95",
                   "rec p99")
        rows = []
        for row in self.rows():
            avail = row["availability"]
            tput = row["throughput"]
            rows.append([
                row["technique"],
                "-" if avail is None else f"{avail:.4f}",
                "-" if avail is None else f"{row['failure_rate']:.4f}",
                f"{row['outcomes']}/{row['outcomes_seen']}",
                "-" if tput is None else f"{tput:.3g}",
                f"{row['recoveries']}/{row['recoveries_seen']}",
                *(("-" if row[f"recovery_p{int(q * 100)}"] is None
                   else f"{row[f'recovery_p{int(q * 100)}']:g}")
                  for q in QUANTILES),
            ])
        table = format_table(headers, rows,
                             title=f"{title} (window={self.window})")
        store_rows = self.store_rows()
        if not store_rows:
            return table
        store_table = format_table(
            ("store", "hits", "misses", "writes", "bytes",
             "trials served", "hit rate"),
            [[row["store"], row["hits"], row["misses"], row["writes"],
              row["bytes"], row["trials_served"],
              "-" if row["hit_rate"] is None
              else f"{row['hit_rate']:.2%}"]
             for row in store_rows],
            title="result-store traffic")
        return f"{table}\n\n{store_table}"


def parse_report(document: Dict[str, Any]) -> Dict[str, Any]:
    """Check that ``document`` is a current SLI report and return it.

    Only :data:`SCHEMA` is read.  Any other schema, including the
    ``repro-sli-report/v1`` layout older runs wrote, raises
    :class:`ValueError` naming it: an old document is never upgraded.
    """
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unsupported SLI report schema {schema!r}; "
                         f"expected {SCHEMA!r} (older documents are "
                         f"not upgraded)")
    return document


def diff_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                 tolerance: float = 0.0) -> List[str]:
    """Field-level drift between two SLI reports (the telemetry-drift
    gate of :mod:`repro.harness.gates`).

    Both documents are checked by :func:`parse_report` first, so a
    baseline of an older schema raises :class:`ValueError` instead of
    comparing.  Returns one human-readable line per drifting field —
    an empty list means the reports agree:

    * techniques present in one report but not the other;
    * ``availability`` / ``failure_rate`` differing by more than
      ``tolerance`` (absolute), or flipping between measured and
      ``None``;
    * the all-time ``outcomes_seen`` / ``failures_seen`` /
      ``recoveries_seen`` tallies differing at all — counts are exact,
      so any delta is drift regardless of ``tolerance``.

    Windowed latency quantiles and throughput are deliberately *not*
    compared: they depend on the sliding-window cut and (for
    wall-clock fields) on the host, so comparing them would make the
    gate flap on machine speed rather than behaviour.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    cur_rows = {row["technique"]: row
                for row in parse_report(current)["techniques"]}
    base_rows = {row["technique"]: row
                 for row in parse_report(baseline)["techniques"]}
    drift: List[str] = []
    for name in sorted(set(base_rows) - set(cur_rows)):
        drift.append(f"technique {name!r} missing from current report")
    for name in sorted(set(cur_rows) - set(base_rows)):
        drift.append(f"technique {name!r} absent from baseline")
    for name in sorted(set(cur_rows) & set(base_rows)):
        cur, base = cur_rows[name], base_rows[name]
        for field in ("availability", "failure_rate"):
            a, b = cur.get(field), base.get(field)
            if a is None and b is None:
                continue
            if a is None or b is None:
                drift.append(f"{name}.{field}: {b!r} -> {a!r}")
            elif abs(a - b) > tolerance:
                drift.append(
                    f"{name}.{field}: {b:.4f} -> {a:.4f} "
                    f"(|delta|={abs(a - b):.4f} > {tolerance})")
        for field in ("outcomes_seen", "failures_seen",
                      "recoveries_seen"):
            a, b = cur.get(field), base.get(field)
            if a != b:
                drift.append(f"{name}.{field}: {b!r} -> {a!r}")
    return drift
