"""Delta-snapshot telemetry streaming (``repro-delta/v1``).

The snapshot/merge protocol ships a worker chunk's telemetry home
**once, at the end of the chunk** — correct, byte-identical, and
completely blind while the chunk runs.  This module lets the same
telemetry also *stream*: a worker makes **incremental snapshots**
(deltas) every few items, each delta covering exactly the telemetry
produced since the previous one, and every receiver folds them with
the very same commutative merge algebra.

The trick that keeps byte-identity is *partitioning*: each emission
is a :meth:`~repro.observe.telemetry.Capture.snapshot` of the chunk's
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

There is one canonical fold and one tap:

* the **canonical session** — every chunk hands all its deltas back
  with its results, and :class:`~repro.runtime.pmap.ParallelMap` folds
  them in emission order, chunk by chunk in submission order, exactly
  as it folds a chunk captured without a stream.  A chunk that fails
  or times out hands nothing back, so it adds nothing; its serial
  rerun writes straight into the session;
* the **live view** — a stream's :class:`StreamCollector` is also
  offered every delta as it is made, and folds it into an optional
  second Telemetry in *arrival* order, feeding the ``repro top``
  dashboard while chunks are still in flight.  The live view is
  advisory: arrival order is nondeterministic, and a failed chunk's
  interim deltas stay in it.  Final dashboards report from the
  canonical session.

Transport to the collector is backend-matched: serial chunks call
:meth:`StreamCollector.offer` themselves (it is thread-safe, for the
dashboard thread that reads it); process chunks put into a
``multiprocessing.Manager().Queue()`` proxy (picklable through executor
submission, unlike a raw ``multiprocessing.Queue``) that a parent
thread drains into the collector.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import threading
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.observe.sli import SCHEMA as _SLI_SCHEMA

__all__ = ["DELTA_SCHEMA", "FRAME_SCHEMA", "make_delta", "validate_delta",
           "StreamCollector", "TelemetryStream", "LiveDashboard",
           "validate_frame", "shutdown_stream_manager"]

#: Schema tag of one streamed delta document.
DELTA_SCHEMA = "repro-delta/v1"

#: Schema tag of one live-dashboard frame (``repro top --format json``).
FRAME_SCHEMA = "repro-top-frame/v1"

#: Default items per delta emission.
DEFAULT_EVERY = 8

#: Keys every delta document must carry.
_DELTA_KEYS = frozenset(("schema", "origin", "seq", "final", "snapshot"))


def make_delta(origin: Any, seq: int, snapshot: Dict[str, Any],
               final: bool = False) -> Dict[str, Any]:
    """One ``repro-delta/v1`` document.

    Args:
        origin: Emitting chunk's identity (the runtime uses
            ``(epoch, chunk_index)`` tuples).
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


class StreamCollector:
    """Parent-side intake of a stream: validates deltas, folds a live
    view.

    Thread-safe.  :meth:`offer` is called for every delta as it is
    made — by the chunk itself on the serial backend, by the drain
    thread on the process backend: the delta is validated
    and folded into the optional live view in arrival order.  The
    canonical session never reads the collector; it folds the deltas
    each chunk hands back with its results.
    """

    def __init__(self, live: Optional[Any] = None) -> None:
        #: Optional live-view Telemetry, folded in arrival order.
        self.live = live
        # Reentrant: dashboards snapshot frames under locked() while
        # the frame builder calls stats() on the same collector.
        self._lock = threading.RLock()
        #: Tallies (all-time for this collector).
        self.received = 0
        self.folded_live = 0
        self.invalid = 0

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the intake lock (dashboard reads of the live view)."""
        with self._lock:
            yield

    def offer(self, delta: Dict[str, Any]) -> None:
        """Count one arriving delta and fold it into the live view."""
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


# -- the shared multiprocessing manager ----------------------------------

_manager: Optional[Any] = None
_manager_pid: Optional[int] = None
_manager_lock = threading.Lock()


def _get_manager() -> Any:
    """The process-wide ``multiprocessing.Manager`` for stream queues.

    Lazy — spawning a manager costs a process — and pid-guarded like
    the warm-pool registry: a forked child never talks to the parent's
    manager.  Torn down by :func:`shutdown_stream_manager` (``atexit``,
    and from :func:`repro.runtime.pool.shutdown_pools`).
    """
    global _manager, _manager_pid
    with _manager_lock:
        if _manager is None or _manager_pid != os.getpid():
            import multiprocessing

            _manager = multiprocessing.Manager()
            _manager_pid = os.getpid()
        return _manager


def shutdown_stream_manager() -> bool:
    """Shut the shared manager down; True when one was running."""
    global _manager, _manager_pid
    with _manager_lock:
        manager, _manager = _manager, None
        owned = _manager_pid == os.getpid()
        _manager_pid = None
    if manager is None or not owned:
        return False
    try:
        manager.shutdown()
    except Exception:  # pragma: no cover - teardown best-effort
        pass
    return True


atexit.register(shutdown_stream_manager)


#: Sentinel telling the drain thread to exit.
_STOP = None


class TelemetryStream:
    """Configuration + lifecycle of one delta stream.

    Pass one to :class:`~repro.runtime.pmap.ParallelMap` (or through
    ``Experiment``/``FaultCampaign`` ``stream=``) to stream worker
    telemetry into a live view while a map call runs::

        live = observe.Telemetry()
        stream = TelemetryStream(every=4, live=live)
        campaign = FaultCampaign(..., workers=4, stream=stream)
        campaign.run()          # live fills while cells execute

    Args:
        every: Items a worker executes between delta emissions (the
            chunk's tail always emits a final delta regardless).
        live: Optional live-view :class:`~repro.observe.telemetry.
            Telemetry`, folded in arrival order (see the module
            docstring for its advisory nature).

    The stream is reusable across map calls, one at a time: each
    activation is an epoch, and a delta's origin is ``(epoch,
    chunk_index)``.
    """

    def __init__(self, every: int = DEFAULT_EVERY,
                 live: Optional[Any] = None) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every
        self.collector = StreamCollector(live=live)
        self._epoch = 0
        self._active = False
        self._queue: Optional[Any] = None
        self._drainer: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle (driven by ParallelMap.map) ---------------------------

    def activate(self, backend: str
                 ) -> Tuple[int, Callable[[Dict[str, Any]], None]]:
        """Open the transport for one map call.

        Returns ``(epoch, put)``: the epoch tags this call's origins,
        and a chunk hands each delta it makes to ``put`` — the
        collector's own :meth:`~StreamCollector.offer` on the serial
        backend, or a manager-queue proxy's ``put`` on the process
        backend, whose queue a drain thread feeds to the
        collector.  Raises :class:`RuntimeError` while the stream is
        already active.
        """
        with self._lock:
            if self._active:
                raise RuntimeError("stream already active; one map call "
                                   "at a time per TelemetryStream")
            if backend == "process":
                self._queue = _get_manager().Queue()
                self._drainer = threading.Thread(
                    target=self._drain, args=(self._queue,),
                    name="repro-stream-drain", daemon=True)
                self._drainer.start()
            self._active = True
            self._epoch += 1
            put = (self.collector.offer if self._queue is None
                   else self._queue.put)
            return self._epoch, put

    def deactivate(self) -> None:
        """Close the transport: stop the drain thread, drop the queue."""
        with self._lock:
            self._active = False
            drainer, self._drainer = self._drainer, None
            channel, self._queue = self._queue, None
        if drainer is not None:
            channel.put(_STOP)
            drainer.join()

    def _drain(self, channel: Any) -> None:
        """Drain-thread body: queue → collector until the sentinel."""
        try:
            for delta in iter(channel.get, _STOP):
                self.collector.offer(delta)
        except (EOFError, OSError, ConnectionError):  # pragma: no cover
            pass  # the manager was torn down under us


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
        collector: The stream's collector (``"stream"`` section).
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
                 collector: Optional[StreamCollector] = None,
                 wall_clock: Optional[Callable[[], float]] = None,
                 cells_total: Optional[int] = None,
                 counts: Optional[Callable[[], Dict[str, int]]] = None,
                 pool_info: Optional[Callable[[], Any]] = None,
                 shards: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.monitor = monitor
        self.collector = collector
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
            "stream": (self.collector.stats()
                       if self.collector is not None else None),
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
