"""JSON-lines export of the event bus history.

The log is a versioned JSONL document (``repro-events-jsonl/v1``): the
first line is a schema header carrying the event count and the source,
followed by one JSON object per retained event, in sequence order, with
stable sorted keys — the machine-readable companion to the
human-readable ``repro trace`` timeline.  The bus retains a bounded
ring of events (:class:`~repro.observe.events.EventBus` ``history``),
so for very long runs the log covers the most recent window; per-topic
counts in the metrics dump stay exact regardless.

:func:`validate_event_log` round-trips a rendered log and raises
:class:`ValueError` on any schema violation, matching the rigor of the
Chrome exporter's :func:`~repro.observe.export.chrome.
validate_chrome_trace`.  The flight recorder
(:mod:`repro.observe.flightrec`) gives its crash dumps the same header
convention and renders their record lines with the same
``_render_line``; the records themselves come from
:meth:`~repro.observe.flightrec.FlightRecorder.window`, not from
:func:`event_record`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.observe.events import Event, EventBus

__all__ = ["SCHEMA", "event_record", "render_event_log",
           "parse_event_log", "validate_event_log"]

#: Schema tag carried by the header line of every rendered log.
SCHEMA = "repro-events-jsonl/v1"

#: Keys every event record line must carry.
_RECORD_KEYS = frozenset(("topic", "time", "seq", "payload"))


def event_record(event: Event) -> Dict[str, Any]:
    """One event as the plain JSON-friendly record the log carries."""
    return {"topic": event.topic, "time": event.time,
            "seq": event.seq, "payload": event.payload}


def _render_line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, default=str)


def render_event_log(bus: EventBus, source: str = "event-bus") -> str:
    """The bus history as versioned JSONL.

    The first line is the schema header (``schema``, ``source``,
    ``events`` = number of record lines that follow); each subsequent
    line is one event record.  An empty bus renders the header alone.
    """
    events = list(bus.history)
    header = {"schema": SCHEMA, "source": source, "events": len(events)}
    lines = [_render_line(header)]
    lines.extend(_render_line(event_record(event)) for event in events)
    return "\n".join(lines)


def parse_event_log(text: str) -> Tuple[Dict[str, Any],
                                        List[Dict[str, Any]]]:
    """Parse a rendered log back into ``(header, records)``.

    Raises :class:`ValueError` when the text is not a well-formed
    ``repro-events-jsonl/v1`` document (bad JSON, missing or wrong
    header, wrong record shape, or a record count that disagrees with
    the header).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty event log: missing schema header line")
    try:
        parsed = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise ValueError(f"event log line is not JSON: {exc}") from exc
    header, records = parsed[0], parsed[1:]
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise ValueError(f"event log header must carry schema={SCHEMA!r}; "
                         f"got {header!r}")
    declared = header.get("events")
    if declared != len(records):
        raise ValueError(f"event log header declares {declared} events "
                         f"but {len(records)} record lines follow")
    for index, record in enumerate(records):
        if not isinstance(record, dict) or \
                not _RECORD_KEYS.issubset(record):
            missing = _RECORD_KEYS - set(record) \
                if isinstance(record, dict) else _RECORD_KEYS
            raise ValueError(f"event record {index} is missing keys "
                             f"{sorted(missing)}")
        if not isinstance(record["payload"], dict):
            raise ValueError(f"event record {index} payload must be an "
                             f"object, not {type(record['payload']).__name__}")
    return header, records


def validate_event_log(text: str) -> Dict[str, Any]:
    """Validate a rendered log; returns its header on success.

    Beyond :func:`parse_event_log`'s shape checks, asserts that record
    sequence numbers are strictly increasing — the order contract the
    bus ring guarantees.
    """
    header, records = parse_event_log(text)
    previous = None
    for index, record in enumerate(records):
        seq = record["seq"]
        if previous is not None and seq <= previous:
            raise ValueError(f"event record {index} seq {seq} does not "
                             f"increase over {previous}")
        previous = seq
    return header
