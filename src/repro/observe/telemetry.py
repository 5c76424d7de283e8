"""The telemetry facade and the globally installed session.

One :class:`Telemetry` object bundles the three cooperating pieces of
the observe subsystem — a :class:`~repro.observe.tracer.Tracer`, a
:class:`~repro.observe.metrics.MetricsRegistry` and an
:class:`~repro.observe.events.EventBus` — behind a single ``enabled``
flag that instrumented code checks before doing any telemetry work.

The module-level default is a *disabled* singleton: with no session
installed, every instrumentation site reduces to one attribute check
(no allocation, no locking, no RNG use), so benchmark outputs are
bit-identical to an uninstrumented build.  Enable collection with::

    from repro import observe

    with observe.session() as tel:
        nvp.execute(7, env=env)
    print(tel.tracer.timeline())
    print(tel.metrics.render_prometheus())

or imperatively with :func:`install` / :func:`disable`.

There is one session slot per process.  The parallel runtime captures
a worker chunk by opening a :func:`capture` around it in the worker
process, and no two chunks share a process, so an instrumented trial
that opens its own per-trial session inside a chunk shadows the chunk
capture exactly as it shadows an outer session serially.

A :class:`Capture` records only what its snapshot ships (see the
class).  Every other session taps the process flight ring once it is
installed; one that is never installed taps none.

Cross-process aggregation: :meth:`Telemetry.snapshot` freezes all three
pieces into one picklable document and :meth:`Telemetry.merge` folds it
back — the protocol :class:`~repro.runtime.pmap.ParallelMap` uses to
ship worker-side telemetry home (see docs/OBSERVABILITY.md).

A session opened with ``events_only=True`` keeps its events and
nothing else: spans still open, close, tick the clock and reach the
flight recorder of an installed session, but the tracer retains none,
and counters, gauges and histograms are not recorded.  ``repro
campaign`` and ``repro top`` open such sessions, because their outputs
read events only; worker chunk and shard captures inherit the mode
from the session they capture for.
"""

from __future__ import annotations

import contextlib
import functools
from typing import (Any, Callable, ContextManager, Dict, Iterator,
                    Optional)

from repro.observe import flightrec as _flightrec
from repro.observe.events import CaptureBus, EventBus
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import SpanScope, TickScope, Tracer


class _SeqClock:
    """Fallback clock: ticks one unit per reading.

    Used when a telemetry session is not bound to a virtual clock; it
    keeps timestamps strictly ordered so timelines stay readable.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def tick(self) -> float:
        """Advance one unit and return the new time."""
        self._now += 1.0
        return self._now

    now = property(tick)


def _reader(clock: Any) -> Callable[[], float]:
    """A zero-argument callable returning ``clock.now``, for the tracer
    and the bus to timestamp with.

    The fallback clock is read through its bound ``tick``, which skips
    a method call and a descriptor lookup on every span and event; any
    other clock through ``getattr``.  Both forms pickle.
    """
    if type(clock) is _SeqClock:
        return clock.tick
    return functools.partial(getattr, clock, "now")


class Telemetry:
    """Tracer + metrics + event bus behind one ``enabled`` flag.

    Args:
        clock: Object exposing ``.now`` (duck-typed
            :class:`~repro.environment.clock.VirtualClock`); rebind at
            any time via :meth:`bind_clock`.  Defaults to an internal
            ticking clock.
        enabled: Whether instrumentation sites should record anything.
        events_only: Keep the event bus only.  Spans still open, close,
            tick the clock and reach the flight recorder (once the
            session is installed), but the tracer retains none (its
            capacity is 0), and the metrics registry records nothing.
            The bus, and so every subscriber, sees exactly what a full
            session's would.  Snapshots keep the usual schema, with no
            span and no series; merging a full snapshot in delivers
            its events and drops the rest.

    The session taps the calling process's flight ring once it is
    first :func:`install`-ed (see :mod:`repro.observe.flightrec`).
    """

    #: The bus each fresh set of pieces gets.
    _Bus = EventBus

    def __init__(self, clock: Optional[Any] = None,
                 enabled: bool = True, events_only: bool = False) -> None:
        self._clock = clock if clock is not None else _SeqClock()
        self._now = _reader(self._clock)
        self.enabled = enabled
        self.events_only = events_only
        #: Whether the process flight ring taps this session's pieces.
        self._tapped = False
        self._fresh()

    def _fresh(self) -> None:
        """Install a fresh tracer, registry and bus for this mode.

        An enabled session's :meth:`publish` is its bus's own, so a
        site makes one call per event.
        """
        self.tracer = Tracer(now=self._now)
        if self.events_only:
            self.tracer.capacity = 0
        self.metrics = MetricsRegistry(recording=not self.events_only)
        self.bus = self._Bus(now=self._now)
        if self.enabled:
            self.publish = self.bus.publish

    def _tap(self) -> None:
        """Tap the process flight ring once (:func:`install` calls
        this).  The tap never publishes or appears in snapshots, so
        merge and delta byte-identity are unaffected."""
        if not self._tapped:
            self._tapped = True
            _flightrec.recorder().attach(self)

    def bind_clock(self, clock: Any) -> None:
        """Timestamp subsequent spans/events from ``clock.now``.

        Typically called with a
        :class:`~repro.environment.simenv.SimEnvironment`'s virtual
        clock once the environment exists.
        """
        self._clock = clock
        self._now = self.tracer._now = self.bus._now = _reader(clock)

    # -- producer conveniences --------------------------------------------

    def span(self, name: str, **attrs: Any) -> SpanScope:
        """Record a span (see :meth:`Tracer.span`)."""
        return SpanScope(self.tracer, name, attrs)

    def publish(self, topic: str, **payload: Any) -> None:
        """Publish an event when enabled; silently drop otherwise.

        This method serves a disabled session only: an enabled one's
        ``publish`` is its bus's (see :meth:`_fresh`).
        """

    def count(self, name: str, amount: float = 1.0,
              **labels: Any) -> None:
        """Increment a counter when enabled."""
        if self.enabled:
            self.metrics.inc(name, amount, **labels)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the session into one plain, picklable document.

        Bundles the three piece-level snapshots (metrics, spans,
        events); the whole document is JSON-friendly and byte-stable
        regardless of ``PYTHONHASHSEED``.
        """
        return {
            "schema": "repro-telemetry-snapshot/v1",
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.bus.snapshot(),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` document into this session.

        Metrics and event counts merge commutatively; spans and event
        history append in merge order (the parallel runtime merges
        worker snapshots in submission order, so pooled telemetry is
        byte-identical to a serial run).  Each event is delivered to
        the subscribers of this session's bus routed its topic (see
        :meth:`~repro.observe.events.EventBus.merge`).
        """
        self.metrics.merge(snapshot["metrics"])
        self.tracer.merge(snapshot["spans"])
        self.bus.merge(snapshot["events"])

    # -- summaries ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """A compact per-session digest.

        Returns a dict with ``spans`` (per span-name count / total cost
        / error count), ``events`` (per-topic counts) and ``metrics``
        (flat sample map) — the payload the experiment harness attaches
        to each trial.  An events-only session reports empty ``spans``
        and ``metrics``: it keeps neither.
        """
        spans: Dict[str, Dict[str, float]] = {}
        for span in self.tracer.spans:
            digest = spans.setdefault(span.name,
                                      {"count": 0, "cost": 0.0, "errors": 0})
            digest["count"] += 1
            digest["cost"] += span.cost
            if span.status != "ok":
                digest["errors"] += 1
        return {
            "spans": spans,
            "events": dict(self.bus.counts),
            "metrics": self.metrics.as_dict(),
        }


class Capture(Telemetry):
    """A session whose only reader is the snapshot it hands back.

    The parallel runtime's chunks and the shard engine's shards run in
    one, and a capture records only what its snapshot ships:

    * it taps no flight ring, even while installed: its events reach
      the ring of the process that merges its snapshot, once;
    * its bus (a :class:`~repro.observe.events.CaptureBus`) keeps every
      event since the last snapshot, uncapped, as the snapshot's rows;
    * in events-only mode its spans are clock ticks
      (:class:`~repro.observe.tracer.TickScope`): no tracer keeps them
      and no ring sees them, so only the clock readings and the
      ``started`` and id counts a snapshot ships are made.

    :meth:`snapshot` hands everything over and starts afresh with a
    fresh tracer, registry and bus on the same clock (whose position
    carries over), so consecutive snapshots are consecutive deltas:
    folding them in order is byte-identical to merging one snapshot
    of the whole.  The schema, every event's time and sequence number,
    and the counts are those of a session that kept all it saw.
    """

    _Bus = CaptureBus

    def _fresh(self) -> None:
        super()._fresh()
        self._ticks = TickScope(self.tracer) if self.events_only else None

    def _tap(self) -> None:
        """A capture taps no ring (see the class docstring)."""

    def span(self, name: str, **attrs: Any) -> Any:
        """Record a span, or only its clock ticks in events-only mode."""
        ticks = self._ticks
        if ticks is not None:
            return ticks
        return SpanScope(self.tracer, name, attrs)

    def snapshot(self) -> Dict[str, Any]:
        """Hand over what was recorded since the capture opened or last
        handed over (see :meth:`Telemetry.snapshot`), then start afresh
        on the same clock."""
        document = super().snapshot()
        self._fresh()
        return document


#: The permanently-disabled default session.  Instrumented code holds a
#: reference only transiently (``tel = current()`` per call), so
#: installing a real session takes effect on the next invocation.
_DISABLED = Telemetry(enabled=False)
_current = _DISABLED


def current() -> Telemetry:
    """The installed telemetry session (disabled by default)."""
    return _current


def enabled() -> bool:
    """True when a live telemetry session is installed."""
    return current().enabled


def install(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the current session; returns it.

    The first install taps the process flight ring (a
    :class:`Capture` never taps it)."""
    global _current
    telemetry._tap()
    _current = telemetry
    return telemetry


def disable() -> None:
    """Restore the disabled no-op default."""
    global _current
    _current = _DISABLED


def session(clock: Optional[Any] = None,
            events_only: bool = False) -> ContextManager[Telemetry]:
    """Install a fresh :class:`Telemetry` for the duration of a block.

    The previously installed session (usually the disabled default) is
    restored on exit, so sessions nest and never leak across tests or
    trials.  ``events_only`` opens a session that keeps events only
    (see :class:`Telemetry`).
    """
    return _installed(Telemetry(clock=clock, events_only=events_only))


def capture(events_only: bool = False) -> ContextManager[Capture]:
    """Install a fresh :class:`Capture` for the duration of a block,
    as :func:`session` installs a session.  The block reads its
    telemetry from :meth:`Capture.snapshot`; ``events_only`` keeps
    events only (see :class:`Telemetry`)."""
    return _installed(Capture(events_only=events_only))


@contextlib.contextmanager
def _installed(telemetry: Telemetry) -> Iterator[Any]:
    previous = current()
    install(telemetry)
    try:
        yield telemetry
    finally:
        install(previous)

