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

Sessions resolve per thread: :func:`current` first consults a
thread-local override (set by :func:`local_session`, the mechanism the
parallel runtime uses to give each worker chunk a private capture
session) and falls back to the process-global installed session.
:func:`install` and :func:`session` keep their global semantics except
when the calling thread is already inside a :func:`local_session`, in
which case they nest within that thread's override — so an instrumented
trial that opens its own per-trial session inside a pool worker shadows
the chunk capture exactly as it shadows the global session serially.

Cross-process aggregation: :meth:`Telemetry.snapshot` freezes all three
pieces into one picklable document and :meth:`Telemetry.merge` folds it
back — the protocol :class:`~repro.runtime.pmap.ParallelMap` uses to
ship worker-side telemetry home (see docs/OBSERVABILITY.md).

A session opened with ``events_only=True`` keeps its events and
nothing else: spans still open, close, tick the clock and reach the
flight recorder, but the tracer retains none, and counters, gauges and
histograms are not recorded.  ``repro campaign`` and ``repro top``
open such sessions, because their outputs read events only; worker
chunk and shard sessions inherit the mode from the session they
capture for.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Callable, Dict, Iterator, Optional

from repro.observe import flightrec as _flightrec
from repro.observe.events import EventBus
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import SpanScope, Tracer


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
            tick the clock and reach the flight recorder, but the
            tracer retains none (its capacity is 0), and the metrics
            registry records nothing.  The bus, and so every
            subscriber, sees exactly what a full session's would.
            Snapshots keep the usual schema, with no span and no
            series; merging a full snapshot in redelivers its events
            and drops the rest.
    """

    def __init__(self, clock: Optional[Any] = None,
                 enabled: bool = True, events_only: bool = False) -> None:
        self._clock = clock if clock is not None else _SeqClock()
        self._now = _reader(self._clock)
        self.enabled = enabled
        self.events_only = events_only
        self._fresh()

    def _fresh(self) -> None:
        """Install a fresh tracer, registry and bus for this mode."""
        self.tracer = Tracer(now=self._now)
        if self.events_only:
            self.tracer.capacity = 0
        self.metrics = MetricsRegistry(recording=not self.events_only)
        self.bus = EventBus(now=self._now)
        # Always-on flight recorder: every session taps the calling
        # process's bounded ring (see repro.observe.flightrec).  The
        # tap never publishes or appears in snapshots, so merge and
        # delta byte-identity are unaffected.
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
        """Publish an event when enabled; silently drop otherwise."""
        if self.enabled:
            self.bus.publish(topic, **payload)

    def count(self, name: str, amount: float = 1.0,
              **labels: Any) -> None:
        """Increment a counter when enabled."""
        if self.enabled:
            self.metrics.inc(name, amount, **labels)

    def reset(self) -> None:
        """Replace all three pieces with fresh, empty ones.

        The clock object (and therefore its position — a ticking
        :class:`_SeqClock` does not restart) carries over, as do the
        ``enabled`` and ``events_only`` flags, and the process flight
        recorder is re-tapped.
        This is the delta-streaming primitive: a worker emits
        ``snapshot()`` then ``reset()``, so consecutive deltas
        partition the session's content and folding them in order is
        byte-identical to merging one whole-session snapshot (see
        :mod:`repro.observe.stream`).  Subscribers of the old bus are
        dropped — worker capture sessions have none.
        """
        self._fresh()

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
        byte-identical to a serial run).  Events are redelivered to
        this session's bus subscribers.
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


#: The permanently-disabled default session.  Instrumented code holds a
#: reference only transiently (``tel = current()`` per call), so
#: installing a real session takes effect on the next invocation.
_DISABLED = Telemetry(enabled=False)
_current = _DISABLED


class _LocalSessions(threading.local):
    """Per-thread session override (worker chunk capture).

    The class attribute is the per-thread default, so reading
    ``_local.current`` on a fresh thread is a plain attribute hit —
    no ``getattr`` default, no caught AttributeError — keeping the
    disabled instrumentation hot path allocation- and exception-free.
    """

    current: Optional[Telemetry] = None


_local = _LocalSessions()


def current() -> Telemetry:
    """The current thread's telemetry session (disabled by default).

    A thread-local override installed by :func:`local_session` wins;
    otherwise the process-global installed session is returned.
    """
    override = _local.current
    return _current if override is None else override


def enabled() -> bool:
    """True when a live telemetry session is installed."""
    return current().enabled


def install(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the current session; returns it.

    Installs process-globally, unless the calling thread is inside a
    :func:`local_session` — then the thread's override is replaced
    instead, so nested sessions opened inside a pool worker stay
    invisible to every other thread.
    """
    global _current
    if _local.current is not None:
        _local.current = telemetry
    else:
        _current = telemetry
    return telemetry


def disable() -> None:
    """Restore the disabled no-op default (and drop any thread-local
    override held by the calling thread)."""
    global _current
    _current = _DISABLED
    _local.current = None


@contextlib.contextmanager
def session(clock: Optional[Any] = None,
            events_only: bool = False) -> Iterator[Telemetry]:
    """Install a fresh :class:`Telemetry` for the duration of a block.

    The previously installed session (usually the disabled default) is
    restored on exit, so sessions nest and never leak across tests or
    trials.  ``events_only`` opens a session that keeps events only
    (see :class:`Telemetry`).
    """
    telemetry = Telemetry(clock=clock, events_only=events_only)
    previous = current()
    install(telemetry)
    try:
        yield telemetry
    finally:
        install(previous)


@contextlib.contextmanager
def local_session(clock: Optional[Any] = None,
                  events_only: bool = False) -> Iterator[Telemetry]:
    """Install a fresh session visible *only to the calling thread*.

    This is the capture mechanism of the parallel runtime: each worker
    chunk runs inside a local session, records its telemetry privately
    (other threads keep seeing their own view), and the session's
    :meth:`Telemetry.snapshot` is shipped back to the parent, which
    merges it in submission order.  Sessions opened with
    :func:`session`/:func:`install` inside the block nest within the
    thread's override rather than touching the process-global session.
    The parallel runtime passes the capturing session's
    ``events_only``, so a chunk records what its parent keeps.
    """
    telemetry = Telemetry(clock=clock, events_only=events_only)
    previous = _local.current
    _local.current = telemetry
    try:
        yield telemetry
    finally:
        _local.current = previous
