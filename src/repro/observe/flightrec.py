"""An always-on, bounded flight recorder for crash diagnosis.

Long fault-injection campaigns fail in ways the final merged telemetry
cannot explain: a chunk times out, a worker dies, a trial raises — and
the events leading *up to* the failure are exactly the ones a bounded
exporter window may have rotated away by the time anyone looks.  The
flight recorder solves this the way avionics do: every process keeps a
small ring buffer of the most recent telemetry (events and finished
spans, interleaved in observation order), always on, O(1) per record,
and when something goes wrong the current window is dumped as a
``repro-flightrec/v1`` document and attached to the run's records.

Wiring: every :class:`~repro.observe.telemetry.Telemetry` session
attaches the calling process's recorder when it is first installed —
an event-bus ``"*"`` subscription plus the :attr:`~repro.observe.
tracer.Tracer.on_finish` tap — so the recorder sees whatever the
installed session sees, including worker-side events *redelivered* by
the parent's snapshot/delta merges.  A session that is never installed
(a live view that only receives merges) and a
:class:`~repro.observe.telemetry.Capture` (a chunk's or a shard's,
whose snapshot the parent merges) attach none, so each event reaches
the ring once.  The recorder itself never publishes events and never
appears in snapshots, so it cannot perturb the byte-identity contracts
of the snapshot/merge and delta-streaming protocols.

Dump triggers wired by the framework (callers may add their own via
:func:`dump`):

* ``chunk-timeout`` / ``chunk-serial-retry`` — a pooled chunk missed
  its deadline or failed and was re-run serially
  (:class:`~repro.runtime.pmap.ParallelMap` attaches these to its
  ``flight_records``);
* ``trial-failure`` — an instrumented experiment trial raised
  (recorded in the executing process; a failing pooled chunk is re-run
  in the parent, so the dump lands parent-side too).

The JSONL rendering reuses the versioned event-log format
(``repro-events-jsonl/v1``; see :mod:`repro.observe.export.jsonl`), so
one validator covers exporter output and crash dumps alike.
"""

from __future__ import annotations

import collections
import os
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.observe.events import Event
from repro.observe.tracer import Span

__all__ = ["SCHEMA", "DEFAULT_CAPACITY", "FlightRecorder", "recorder",
           "dump", "recent_dumps"]

#: Schema tag of one dumped window.
SCHEMA = "repro-flightrec/v1"

#: Default ring size, in records (events + spans combined).
DEFAULT_CAPACITY = 256

#: Recent dump documents retained per process (``recent_dumps``).
_DUMP_CAPACITY = 16


class FlightRecorder:
    """A bounded ring of the most recent events and finished spans.

    Args:
        capacity: Ring size in records; the oldest record is evicted
            when a new one arrives at capacity (strict FIFO).

    Records are uniform event-shaped dicts (``topic`` / ``time`` /
    ``seq`` / ``payload``) so a dumped window renders and validates as
    a standard ``repro-events-jsonl/v1`` log.  Spans are recorded under
    the reserved topic ``"span"`` with :meth:`~repro.observe.tracer.
    Span.to_dict` as the payload.  ``seq`` is the recorder's own
    monotonic observation counter — bus sequence numbers restart per
    session, the window spans sessions.

    The ring holds the observed :class:`~repro.observe.events.Event`
    and :class:`~repro.observe.tracer.Span` objects themselves; the
    record dicts are built by :meth:`window` (and so :meth:`dump`).
    Most records are evicted unread, so intake stays an append.  A
    span or payload mutated after it was recorded therefore renders in
    its final state.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: ``(seq, event-or-span)`` pairs, oldest first.
        self._ring: Deque[Tuple[int, Union[Event, Span]]] = \
            collections.deque(maxlen=capacity)
        #: Total records ever observed (eviction never decrements it).
        self.captured = 0
        #: Dump documents produced so far.
        self.dumps = 0
        self._recent: Deque[Dict[str, Any]] = collections.deque(
            maxlen=_DUMP_CAPACITY)

    # -- intake ------------------------------------------------------------

    def record_event(self, event: Event) -> None:
        """Bus handler: fold one published (or redelivered) event in."""
        self._ring.append((self.captured, event))
        self.captured += 1

    def record_span(self, span: Span) -> None:
        """Tracer ``on_finish`` tap: fold one finished span in."""
        self._ring.append((self.captured, span))
        self.captured += 1

    def attach(self, telemetry: Any) -> None:
        """Tap a telemetry session's bus and tracer.

        Called by :func:`~repro.observe.telemetry.install` on a
        session's first install (and again after its
        :meth:`~repro.observe.telemetry.Telemetry.reset`), so callers
        normally never need to.
        """
        telemetry.bus.subscribe("*", self.record_event)
        telemetry.tracer.on_finish = self.record_span

    # -- reads / dumps -----------------------------------------------------

    def __len__(self) -> int:
        """Number of retained records."""
        return len(self._ring)

    def window(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first, as fresh dicts."""
        records: List[Dict[str, Any]] = []
        for seq, item in tuple(self._ring):
            if isinstance(item, Span):
                records.append({"topic": "span", "time": item.end,
                                "seq": seq, "payload": item.to_dict()})
            else:
                records.append({"topic": item.topic, "time": item.time,
                                "seq": seq, "payload": dict(item.payload)})
        return records

    def clear(self) -> None:
        """Drop the retained window (tallies keep counting)."""
        self._ring.clear()

    def dump(self, reason: str, **context: Any) -> Dict[str, Any]:
        """Freeze the current window into one dump document.

        The document carries the trigger ``reason``, free-form
        ``context`` (chunk index, seed, backend…), the recording
        process's pid, the all-time ``captured`` tally and the window
        itself.  The dump is also retained in the per-process recent
        ring (see :func:`recent_dumps`).
        """
        document = {
            "schema": SCHEMA,
            "reason": reason,
            "context": dict(context),
            "pid": os.getpid(),
            "capacity": self.capacity,
            "captured": self.captured,
            "records": self.window(),
        }
        self.dumps += 1
        self._recent.append(document)
        return document

    def dump_jsonl(self, reason: str, **context: Any) -> str:
        """One dump as a validating ``repro-events-jsonl/v1`` log.

        The header line carries the flight-recorder fields (reason,
        context, pid, tallies) alongside the standard schema/source/
        events keys; record lines are the window.
        """
        import json

        from repro.observe.export.jsonl import SCHEMA as LOG_SCHEMA
        from repro.observe.export.jsonl import _render_line

        document = self.dump(reason, **context)
        header = {"schema": LOG_SCHEMA, "source": "flight-recorder",
                  "events": len(document["records"]),
                  "flightrec": {key: document[key]
                                for key in ("schema", "reason", "context",
                                            "pid", "capacity", "captured")}}
        lines = [json.dumps(header, sort_keys=True, default=str)]
        lines.extend(_render_line(record)
                     for record in document["records"])
        return "\n".join(lines)


#: The per-process recorder singleton (plus the owning pid: a forked
#: child gets a fresh recorder, like the warm-pool registry).
_recorder: Optional[FlightRecorder] = None
_recorder_pid: Optional[int] = None


def recorder() -> FlightRecorder:
    """The calling process's flight recorder (created on first use)."""
    global _recorder, _recorder_pid
    if _recorder is None or _recorder_pid != os.getpid():
        _recorder = FlightRecorder()
        _recorder_pid = os.getpid()
    return _recorder


def dump(reason: str, **context: Any) -> Dict[str, Any]:
    """Dump the process recorder's current window (module-level form)."""
    return recorder().dump(reason, **context)


def recent_dumps() -> List[Dict[str, Any]]:
    """The most recent dump documents of this process, oldest first."""
    return list(recorder()._recent)
