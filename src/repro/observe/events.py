"""A topic-based event bus for fault-handling telemetry.

Producers — pattern engines, techniques, the fault injector, the
message scheduler — publish named events; monitors and experiment
probes subscribe instead of being hand-wired into each producer (the
separation of fault-tolerance logic from the application layer that
De Florio's application-layer protocols argue for).

Topics are dotted names.  A subscription matches an exact topic
(``"fault.injected"``), a prefix wildcard (``"fault.*"``) or everything
(``"*"``).  Canonical topics published by the framework:

* ``unit.outcome`` — one redundant alternative finished (payload:
  ``pattern``, ``producer``, ``ok``, ``cost``, ``error``);
* ``adjudication.verdict`` — an adjudicator decided (``accepted``…);
* ``pattern.rollback`` — a sequential pattern rolled state back;
* ``unit.disabled`` — an alternative was taken out of rotation;
* ``fault.injected`` — a fault activated (``fault``, ``fault_class``);
* ``reboot`` / ``rejuvenation.performed`` / ``checkpoint.written`` /
  ``checkpoint.rollback`` — environment-redundancy recoveries;
* ``replicas.attack_detected`` — N-variant divergence;
* ``campaign.cell`` — one fault-campaign cell finished (``protector``,
  ``fault``, ``survival_rate``, ``correct_rate``);
* ``scheduler.perturbed`` / ``scheduler.delivered`` — message-level
  environment changes.

Cross-process aggregation: :meth:`EventBus.snapshot` freezes the bus
(retained history, per-topic counts, publication count) into a
picklable document; :meth:`EventBus.merge` folds such a document into
another bus and *delivers* each of the snapshot's retained events to
the receiving bus's subscribers routed its topic, so monitors attached
to a parent session (e.g. :class:`~repro.observe.sli.SliMonitor`)
observe worker-side events exactly as if they had been published
locally.  Per-topic counts merge commutatively and associatively;
history/seq follow merge order (the parallel runtime merges in
submission order).

Who builds what.  A merge builds an :class:`Event` (with its own copy
of the payload) only for a row some subscriber is routed; every other
row waits as a ``(topic, time, seq, payload)`` tuple and becomes an
:class:`Event` when :attr:`EventBus.history` is read.  The process
flight recorder is not a subscriber: it taps a bus through its
:attr:`~EventBus.recorder` slot, which :meth:`EventBus.publish` hands
each event and :meth:`EventBus.merge` a snapshot's rows, of which the
ring keeps only the tail (see :mod:`repro.observe.flightrec`).  A
:class:`Subscription` holds its bus through a weak reference, so a
finished session's bus, history included, is freed by reference
counting rather than left to the cyclic collector.
"""

from __future__ import annotations

import collections
import dataclasses
import weakref
from typing import (Any, Callable, Deque, Dict, List, Optional, Tuple,
                    Union)


@dataclasses.dataclass(frozen=True)
class Event:
    """One published event.

    Attributes:
        topic: Dotted event name.
        time: Virtual time at publication.
        seq: Monotonic publication order.
        payload: Free-form event data.
    """

    __slots__ = ("topic", "time", "seq", "payload")

    topic: str
    time: float
    seq: int
    payload: Dict[str, Any]

    def __init__(self, topic: str, time: float, seq: int,
                 payload: Dict[str, Any]) -> None:
        # Every publish builds one, and so does every merged row a
        # subscriber is handed or a history read takes in.  The
        # generated frozen __init__ pays an object.__setattr__ call per
        # field; the slot descriptors store the same fields cheaper.
        _set_topic(self, topic)
        _set_time(self, time)
        _set_seq(self, seq)
        _set_payload(self, payload)

    def __reduce__(self):
        # Pickle and copy rebuild through __init__: restoring slot state
        # would go through the frozen __setattr__, which refuses.
        return Event, (self.topic, self.time, self.seq, self.payload)


_set_topic = Event.topic.__set__  # type: ignore[attr-defined]
_set_time = Event.time.__set__  # type: ignore[attr-defined]
_set_seq = Event.seq.__set__  # type: ignore[attr-defined]
_set_payload = Event.payload.__set__  # type: ignore[attr-defined]

Handler = Callable[[Event], None]


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; call
    :meth:`cancel` to detach the handler.

    The handle refers to its bus weakly: the bus holds its
    subscriptions, and a strong reference back would make every bus a
    cycle.  Cancelling once the bus is gone does nothing.
    """

    __slots__ = ("topic", "handler", "_bus", "delivered")

    def __init__(self, bus: "EventBus", topic: str, handler: Handler) -> None:
        self._bus = weakref.ref(bus)
        self.topic = topic
        self.handler = handler
        #: Number of events delivered to this subscription.
        self.delivered = 0

    def matches(self, topic: str) -> bool:
        pattern = self.topic
        if pattern == "*" or pattern == topic:
            return True
        return pattern.endswith(".*") and topic.startswith(pattern[:-1])

    def cancel(self) -> None:
        bus = self._bus()
        if bus is not None:
            bus.unsubscribe(self)


class EventBus:
    """Synchronous publish/subscribe with topic wildcards.

    Args:
        now: Zero-argument callable supplying event timestamps.
        history: Ring-buffer size of retained events (diagnostics and
            the ``repro trace`` event log).
    """

    def __init__(self, now: Optional[Callable[[], float]] = None,
                 history: int = 4096) -> None:
        self._now = now or (lambda: 0.0)
        self._subscriptions: List[Subscription] = []
        #: Topic -> the subscriptions matching it, in subscription
        #: order.  Filled on first use of a topic and replaced by an
        #: empty table on every subscribe/unsubscribe; a delivery
        #: iterates the tuple it looked up, so a change made by a
        #: handler takes effect from the next delivery on.
        self._routes: Dict[str, Tuple[Subscription, ...]] = {}
        self._seq = 0
        self._history: Deque[Event] = collections.deque(maxlen=history)
        #: What :attr:`history` has not taken in yet, oldest first and
        #: all newer than it: merged events, merged rows no subscriber
        #: was handed (as ``(topic, time, seq, payload)`` tuples, the
        #: payload still the snapshot's own) and events published
        #: after them.
        self._pending: Deque[Union[Event, Tuple[str, float, int,
                                                Dict[str, Any]]]] = \
            collections.deque(maxlen=history)
        #: Per-topic publication counts (cheap aggregate, never trimmed).
        self.counts: Dict[str, int] = {}
        #: The flight recorder tapping this bus, if any: :meth:`publish`
        #: hands it each event (``record_event``) before the
        #: subscribers, :meth:`merge` a snapshot's rows
        #: (``record_rows``).  See :mod:`repro.observe.flightrec`.
        self.recorder: Any = None

    @property
    def history(self) -> Deque[Event]:
        """The retained events, oldest first: a deque bounded by the
        bus's ``history`` size.

        Reading it takes in what merges left pending, each row becoming
        an :class:`Event` with a copy of its payload, so it holds
        exactly what delivering every event at once would have kept.
        It is always the same deque, filled in place.
        """
        pending = self._pending
        if pending:
            history = self._history
            for item in pending:
                if type(item) is tuple:
                    topic, time, seq, payload = item
                    item = Event(topic, time, seq, dict(payload))
                history.append(item)
            pending.clear()
        return self._history

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Attach ``handler`` to a topic pattern; returns the handle."""
        subscription = Subscription(self, topic, handler)
        self._subscriptions.append(subscription)
        self._routes = {}
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription (no-op if already detached)."""
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            return
        self._routes = {}

    def _route(self, topic: str) -> Tuple[Subscription, ...]:
        """The subscriptions matching ``topic``, cached per topic.

        The table is read before the subscriptions, so a route built
        while another thread subscribes lands in the table that
        subscribe discards, never in its replacement.  The filter walks
        a one-step copy of the list, so a concurrent unsubscribe cannot
        shift it and make it skip a subscription.
        """
        routes = self._routes
        route = tuple(subscription
                      for subscription in tuple(self._subscriptions)
                      if subscription.matches(topic))
        routes[topic] = route
        return route

    def publish(self, topic: str, **payload: Any) -> Event:
        """Publish an event: hand it to the tapping flight recorder,
        then deliver it to matching subscribers."""
        event = Event(topic, self._now(), self._seq, payload)
        self._seq += 1
        (self._pending or self._history).append(event)
        self.counts[topic] = self.counts.get(topic, 0) + 1
        recorder = self.recorder
        if recorder is not None:
            recorder.record_event(event)
        route = self._routes.get(topic)
        if route is None:
            route = self._route(topic)
        for subscription in route:
            subscription.delivered += 1
            subscription.handler(event)
        return event

    @property
    def published(self) -> int:
        """Total number of events published so far."""
        return self._seq

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the bus into a plain, picklable document.

        Carries the retained history (bounded by the ring buffer), the
        full per-topic counts (never trimmed), and the publication
        count.  Topic counts are sorted so the document is byte-stable
        regardless of publication interleaving or ``PYTHONHASHSEED``.
        """
        return {
            "schema": "repro-events-snapshot/v1",
            "events": [[e.topic, e.time, e.seq, dict(e.payload)]
                       for e in self.history],
            "counts": [[topic, count]
                       for topic, count in sorted(self.counts.items())],
            "published": self._seq,
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` document into this bus.

        Retained events are appended with their sequence numbers
        shifted past this bus's publication count and delivered to
        matching subscribers in recorded order; per-topic counts add
        (commutatively — counts survive even when the ring buffer
        trimmed the events themselves).

        The tapping flight recorder is handed all the rows first.  A
        row no subscriber is routed builds no :class:`Event` here: it
        waits for a read of :attr:`history`.
        """
        rows = snapshot["events"]
        recorder = self.recorder
        if recorder is not None:
            recorder.record_rows(rows)
        seq_base = self._seq
        pending = self._pending
        for topic, time, seq, payload in rows:
            route = self._routes.get(topic)
            if route is None:
                route = self._route(topic)
            if not route:
                pending.append((topic, time, seq + seq_base, payload))
                continue
            event = Event(topic, time, seq + seq_base, dict(payload))
            pending.append(event)
            for subscription in route:
                subscription.delivered += 1
                subscription.handler(event)
        self._seq += snapshot["published"]
        for topic, count in snapshot["counts"]:
            self.counts[topic] = self.counts.get(topic, 0) + count


class CaptureBus(EventBus):
    """The bus of a capture session, whose one reader is its snapshot.

    It keeps every event since its last snapshot, uncapped, as the
    snapshot's own ``[topic, time, seq, payload]`` rows, so
    :attr:`history` stays empty and no :class:`Event` is built unless a
    subscriber is there to be handed one.  :meth:`snapshot` hands the
    rows over and starts a new list; the capture (see
    :func:`repro.observe.capture`) replaces the whole bus with it, so
    counts and sequence numbers restart too.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        super().__init__(now, history=0)
        #: Every event since the last snapshot, as snapshot rows.
        self.rows: List[List[Any]] = []

    def publish(self, topic: str, **payload: Any) -> Optional[Event]:
        """Keep one event as a row; an :class:`Event` is built (and
        returned) only when a subscriber is delivered it."""
        row = [topic, self._now(), self._seq, payload]
        self.rows.append(row)
        self._seq += 1
        self.counts[topic] = self.counts.get(topic, 0) + 1
        return self._deliver(row) if self._subscriptions else None

    def _deliver(self, row: List[Any]) -> Event:
        event = Event(*row)
        for subscription in self._route(event.topic):
            subscription.delivered += 1
            subscription.handler(event)
        return event

    def snapshot(self) -> Dict[str, Any]:
        """The :meth:`EventBus.snapshot` document, with every event since
        the last snapshot; its ``events`` list is the bus's own, handed
        over rather than copied."""
        document = super().snapshot()
        document["events"], self.rows = self.rows, []
        return document

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot in as :meth:`EventBus.merge` does, keeping
        its events as rows (a pool nested in a captured chunk merges
        its own chunks here)."""
        seq_base = self._seq
        for topic, time, seq, payload in snapshot["events"]:
            row = [topic, time, seq + seq_base, dict(payload)]
            self.rows.append(row)
            if self._subscriptions:
                self._deliver(row)
        self._seq += snapshot["published"]
        for topic, count in snapshot["counts"]:
            self.counts[topic] = self.counts.get(topic, 0) + count
