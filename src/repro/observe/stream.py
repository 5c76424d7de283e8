"""Delta documents and live-dashboard frames.

The snapshot/merge protocol ships a chunk's telemetry home as a
snapshot that the parent folds into its session.  This module names
each shipped snapshot a **delta** (``repro-delta/v1``, built by
:func:`make_delta` and checked by :func:`validate_delta`): a captured
chunk of :class:`~repro.runtime.pmap.ParallelMap` hands back exactly
one, covering the whole chunk, and the parent folds the deltas into
its session in submission order, so a pooled session is byte-identical
to a serial one.

It also builds the frames of the ``repro top`` dashboard
(:class:`LiveDashboard`, ``repro-top-frame/v2``).  A dashboard reads
the session itself: its SLI monitor is one more subscriber of the
installed session's bus, so it sees every event the session records,
in the session's order.  A worker chunk's events reach it when the
parent gathers and folds the chunk, a shard's when the shard engine
folds the shard's snapshot (a served one too), and a serial run's as
they are published.  A chunk that fails in its worker hands nothing
back; its serial rerun publishes straight into the session, so the
dashboard sees the rerun's events and nothing of the failed attempt.
Nothing in the runtime or the harness knows a dashboard is there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.observe.sli import SCHEMA as _SLI_SCHEMA

__all__ = ["DELTA_SCHEMA", "FRAME_SCHEMA", "make_delta", "validate_delta",
           "LiveDashboard", "validate_frame"]

#: Schema tag of one delta document.
DELTA_SCHEMA = "repro-delta/v1"

#: Schema tag of one live-dashboard frame (``repro top --format json``).
#: v2 drops v1's ``stream`` section.
FRAME_SCHEMA = "repro-top-frame/v2"

#: Keys every delta document must carry.
_DELTA_KEYS = frozenset(("schema", "origin", "seq", "final", "snapshot"))


def make_delta(origin: Any, seq: int, snapshot: Dict[str, Any],
               final: bool = False) -> Dict[str, Any]:
    """One ``repro-delta/v1`` document.

    Args:
        origin: Emitting chunk's identity (the runtime uses the chunk's
            index in its map call).
        seq: Emission index within the origin, starting at 0 (a
            captured chunk emits one delta, seq 0).
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


class LiveDashboard:
    """Builds ``repro-top-frame/v2`` frames for the live dashboard.

    One frame is a self-contained JSON document: progress, pool
    accounting, flight-recorder state, and the monitor's full SLI
    report.  ``repro top`` renders frames as a refreshing table;
    ``--format json`` prints one frame per line for CI, and the final
    frame additionally embeds the canonical campaign report under
    ``"report"``.

    Args:
        monitor: The :class:`~repro.observe.sli.SliMonitor` the frame's
            SLI section reads from (the CLI attaches it to the
            installed session's bus).
        wall_clock: Injected wall clock for ``elapsed_sec`` (e.g.
            ``time.perf_counter``); without one the field stays
            ``None``.  The observe package never reads a process clock
            itself (DET005).
        cells_total: Expected ``campaign.cell`` count for the progress
            section.
        pool_info: Zero-arg callable returning pool accounting (e.g.
            :func:`repro.runtime.pool.pool_stats`).
        shards: Zero-arg callable returning sharded-run accounting (a
            :meth:`repro.harness.shard.ShardStats` ``asdict``); frames
            then carry an extra ``"shards"`` key.
            :func:`validate_frame` checks required keys only, so
            shard-less consumers are unaffected.
    """

    def __init__(self, monitor: Any,
                 wall_clock: Optional[Callable[[], float]] = None,
                 cells_total: Optional[int] = None,
                 pool_info: Optional[Callable[[], Any]] = None,
                 shards: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.monitor = monitor
        self._wall = wall_clock
        self._start = wall_clock() if wall_clock is not None else None
        self.cells_total = cells_total
        #: ``campaign.cell`` events seen so far, counted by the
        #: caller's subscription: a merge adds to the bus's ``counts``
        #: only after it has delivered its events, so a frame drawn
        #: during a merge would read a stale count there.
        self.cells_done = 0
        self._pool_info = pool_info
        self._shards = shards
        self.frames = 0

    def frame(self, final: bool = False,
              report: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Build the next frame (``seq`` increments per call)."""
        from repro.observe import flightrec

        recorder = flightrec.recorder()
        document: Dict[str, Any] = {
            "schema": FRAME_SCHEMA,
            "seq": self.frames,
            "final": bool(final),
            "elapsed_sec": (self._wall() - self._start
                            if self._wall is not None else None),
            "trials_per_sec": self.monitor.trials_per_sec(),
            "cells": {"done": self.cells_done, "total": self.cells_total},
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
                         "trials_per_sec", "cells", "pool", "flight",
                         "sli"))


def validate_frame(document: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` unless ``document`` is a well-formed
    ``repro-top-frame/v2`` dashboard frame."""
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
