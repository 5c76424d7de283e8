"""Delta-snapshot telemetry streaming (``repro-delta/v1``).

The snapshot/merge protocol ships a chunk's telemetry home as
snapshots that the parent folds into its session.  This module names
each folded snapshot a **delta** and lets a :class:`TelemetryStream`
see the deltas too, so a live view (the ``repro top`` dashboard) can
follow a map call while it runs.

The trick that keeps byte-identity is *partitioning*: each delta is a
:meth:`~repro.observe.telemetry.Capture.snapshot` of the chunk's
capture, which hands everything over and starts afresh (same clock
object, fresh tracer/metrics/bus, as :meth:`~repro.observe.telemetry.
Telemetry.reset` does), so the sequence of deltas is a partition of
the chunk's content.  Because counters and histogram tallies add,
gauges merge as accumulated deltas, span ids/seqs renumber
cumulatively and event seqs shift cumulatively, folding the deltas
**in emission order** into any receiver produces byte-for-byte the
state that merging one whole-chunk snapshot would have — the property
``tests/unit/test_stream.py`` pins on the serial and process backends.
(The snapshot/merge caveat carries over: a ``set()``-style gauge
merges as a net delta; no framework series uses one.)

:class:`~repro.runtime.pmap.ParallelMap` folds every chunk's deltas
into the installed session in submission order, and hands a stream
each delta in that same order, so the stream's live view records the
session's history row for row.  When the stream sees a delta depends
on where the chunk ran:

* a **worker chunk** is captured exactly as it is without a stream: it
  ships one delta with its results, and the stream is offered it when
  the parent gathers and folds the chunk;
* an **in-process chunk** (the serial backend) offers a delta after
  each item as it runs, and a final one for its tail, so a one-worker
  live view moves item by item;
* the **shard engine** offers each shard's snapshot as it folds it.

A chunk that fails or times out hands nothing back, and its serial
rerun writes straight into the session, so the live view gets nothing
from either.  Everything is offered from the process that folds: a
stream starts no process or thread, and nothing crosses to a worker.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, Iterator, Optional

from repro.observe.sli import SCHEMA as _SLI_SCHEMA

__all__ = ["DELTA_SCHEMA", "FRAME_SCHEMA", "make_delta", "validate_delta",
           "TelemetryStream", "LiveDashboard", "validate_frame"]

#: Schema tag of one streamed delta document.
DELTA_SCHEMA = "repro-delta/v1"

#: Schema tag of one live-dashboard frame (``repro top --format json``).
FRAME_SCHEMA = "repro-top-frame/v1"

#: Keys every delta document must carry.
_DELTA_KEYS = frozenset(("schema", "origin", "seq", "final", "snapshot"))


def make_delta(origin: Any, seq: int, snapshot: Dict[str, Any],
               final: bool = False) -> Dict[str, Any]:
    """One ``repro-delta/v1`` document.

    Args:
        origin: Emitting chunk's identity (the runtime uses the chunk's
            index in its map call, the shard engine ``("shard",
            index)``).
        seq: Emission index within the origin, starting at 0; folding
            in ``seq`` order is the byte-identity contract.
        snapshot: A :meth:`~repro.observe.telemetry.Telemetry.snapshot`
            document covering everything since the previous emission.
        final: True on the origin's last delta (emitted just before
            the chunk returns).
    """
    return {"schema": DELTA_SCHEMA, "origin": origin, "seq": seq,
            "final": final, "snapshot": snapshot}


def validate_delta(document: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` unless ``document`` is a well-formed
    delta."""
    if not isinstance(document, dict) or \
            document.get("schema") != DELTA_SCHEMA:
        raise ValueError(f"not a {DELTA_SCHEMA} document: "
                         f"{document!r:.120}")
    missing = _DELTA_KEYS - set(document)
    if missing:
        raise ValueError(f"delta is missing keys {sorted(missing)}")
    snapshot = document["snapshot"]
    if not isinstance(snapshot, dict) or \
            snapshot.get("schema") != "repro-telemetry-snapshot/v1":
        raise ValueError("delta snapshot must be a "
                         "repro-telemetry-snapshot/v1 document")
    if not isinstance(document["seq"], int) or document["seq"] < 0:
        raise ValueError("delta seq must be a non-negative integer")


class TelemetryStream:
    """A map call's deltas, offered as they are folded, into a live
    view.

    Pass one to :class:`~repro.runtime.pmap.ParallelMap` (or through
    ``FaultCampaign(stream=)``) to follow a map call while it runs::

        live = observe.Telemetry()
        stream = TelemetryStream(live=live)
        campaign = FaultCampaign(..., workers=4, stream=stream)
        with observe.session():
            campaign.run()      # live fills as chunks are folded

    :meth:`offer` validates each delta and folds it into the optional
    live view.  The stream is thread-safe, for the dashboard thread
    that reads it while the map runs, and reusable across map calls.
    The session never reads it: it folds the deltas each chunk hands
    back whether or not a stream is attached.

    Args:
        live: Optional live-view :class:`~repro.observe.telemetry.
            Telemetry`, folded in the order deltas are offered.
    """

    def __init__(self, live: Optional[Any] = None) -> None:
        #: Optional live-view Telemetry.
        self.live = live
        # Reentrant: dashboards snapshot frames under locked() while
        # the frame builder calls stats() on the same stream.
        self._lock = threading.RLock()
        #: Tallies (all-time for this stream).
        self.received = 0
        self.folded_live = 0
        self.invalid = 0

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the intake lock (dashboard reads of the live view)."""
        with self._lock:
            yield

    def offer(self, delta: Dict[str, Any]) -> None:
        """Count one delta and fold it into the live view."""
        try:
            validate_delta(delta)
        except ValueError:
            with self._lock:
                self.invalid += 1
            return
        with self._lock:
            self.received += 1
            if self.live is not None:
                self.live.merge(delta["snapshot"])
                self.folded_live += 1

    def stats(self) -> Dict[str, int]:
        """JSON-friendly tallies for dashboards and tests."""
        with self._lock:
            return {"received": self.received,
                    "folded_live": self.folded_live,
                    "invalid": self.invalid}


class LiveDashboard:
    """Builds ``repro-top-frame/v1`` frames for the live dashboard.

    One frame is a self-contained JSON document: progress, stream and
    pool accounting, flight-recorder state, and the monitor's full SLI
    report.  ``repro top`` renders frames as a refreshing table;
    ``--format json`` prints one frame per line for CI, and the final
    frame additionally embeds the canonical (non-streaming-identical)
    campaign report under ``"report"``.

    Args:
        monitor: The :class:`~repro.observe.sli.SliMonitor` the frame's
            SLI section reads from (typically attached to the live
            view).
        stream: The :class:`TelemetryStream` whose tallies fill the
            ``"stream"`` section.
        wall_clock: Injected wall clock for ``elapsed_sec`` (e.g.
            ``time.perf_counter``); without one the field stays
            ``None``.  The observe package never reads a process clock
            itself (DET005).
        cells_total: Expected ``campaign.cell`` count for the progress
            section.
        counts: Zero-arg callable returning an event-topic -> count
            mapping (usually the live bus's ``counts``) for progress.
        pool_info: Zero-arg callable returning pool accounting (e.g.
            :func:`repro.runtime.pool.pool_stats`).
        shards: Zero-arg callable returning sharded-run accounting (a
            :meth:`repro.harness.shard.ShardStats` ``asdict``); frames
            then carry an extra ``"shards"`` key.
            :func:`validate_frame` checks required keys only, so
            shard-less consumers are unaffected.
    """

    def __init__(self, monitor: Any,
                 stream: Optional[TelemetryStream] = None,
                 wall_clock: Optional[Callable[[], float]] = None,
                 cells_total: Optional[int] = None,
                 counts: Optional[Callable[[], Dict[str, int]]] = None,
                 pool_info: Optional[Callable[[], Any]] = None,
                 shards: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.monitor = monitor
        self.stream = stream
        self._wall = wall_clock
        self._start = wall_clock() if wall_clock is not None else None
        self.cells_total = cells_total
        self._counts = counts
        self._pool_info = pool_info
        self._shards = shards
        self.frames = 0

    def frame(self, final: bool = False,
              report: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Build the next frame (``seq`` increments per call)."""
        from repro.observe import flightrec

        counts = self._counts() if self._counts is not None else {}
        recorder = flightrec.recorder()
        document: Dict[str, Any] = {
            "schema": FRAME_SCHEMA,
            "seq": self.frames,
            "final": bool(final),
            "elapsed_sec": (self._wall() - self._start
                            if self._wall is not None else None),
            "trials_per_sec": self.monitor.trials_per_sec(),
            "cells": {"done": counts.get("campaign.cell", 0),
                      "total": self.cells_total},
            "stream": (self.stream.stats()
                       if self.stream is not None else None),
            "pool": (self._pool_info()
                     if self._pool_info is not None else None),
            "flight": {"captured": recorder.captured,
                       "window": len(recorder),
                       "dumps": recorder.dumps},
            "sli": self.monitor.as_dict(),
        }
        if self._shards is not None:
            document["shards"] = self._shards()
        if final:
            document["report"] = report
        self.frames += 1
        return document


#: Keys every frame must carry.
_FRAME_KEYS = frozenset(("schema", "seq", "final", "elapsed_sec",
                         "trials_per_sec", "cells", "stream", "pool",
                         "flight", "sli"))


def validate_frame(document: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` unless ``document`` is a well-formed
    ``repro-top-frame/v1`` dashboard frame."""
    if not isinstance(document, dict) or \
            document.get("schema") != FRAME_SCHEMA:
        raise ValueError(f"not a {FRAME_SCHEMA} document")
    missing = _FRAME_KEYS - set(document)
    if missing:
        raise ValueError(f"frame is missing keys {sorted(missing)}")
    if not isinstance(document["seq"], int) or document["seq"] < 0:
        raise ValueError("frame seq must be a non-negative integer")
    if not isinstance(document["final"], bool):
        raise ValueError("frame final must be a boolean")
    sli = document["sli"]
    if not isinstance(sli, dict) or sli.get("schema") != _SLI_SCHEMA:
        raise ValueError("frame sli must be an SLI report document")
    if document["final"] and "report" not in document:
        raise ValueError("final frame must embed the campaign report")
