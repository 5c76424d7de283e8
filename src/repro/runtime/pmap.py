"""Deterministic parallel map: ordered scatter/gather over pure tasks.

The harness's unit of work — a seeded trial, a campaign cell, a
benchmark file — is a pure function of its arguments, so fanning work
out across workers must not change a single byte of output.
:class:`ParallelMap` enforces that:

* **ordered gather** — results always come back in submission order,
  regardless of completion order;
* **seed partitioning** — items are split into contiguous chunks, so a
  chunk sees exactly the items (and therefore the seeds) the serial
  loop would have given it;
* **no shared RNG** — the pool never touches ``random``; every task
  derives its randomness from its own item;
* **retry-once-serial fallback** — a chunk that times out, fails to
  pickle, or dies with its worker is re-run serially in the parent
  exactly once, which is always safe for pure tasks.

The work decides the backend: the serial loop for one worker, one
chunk (so one item) or a task that does not pickle (closures and
lambdas keep working, they just stay in-process), and worker processes
otherwise.  This is the one place that choice is made: the harness
hands every map to :class:`ParallelMap`, whatever its worker count, and
only the sharded engine keeps a loop of its own (see :meth:`imap`).
Trials are pure-Python simulations that hold the GIL, so threads would
add overhead and no parallelism; there is no thread backend.  The
process backend borrows a **warm executor** from the process-wide
registry in :mod:`repro.runtime.pool` (keyed on the worker count), so
repeated maps amortise worker spawn cost.  The serial loop is the
reference semantics; the process backend is a bit-identical
acceleration of it.

**Telemetry capture.**  When the parent has a telemetry session
installed at the moment a chunk is submitted, the chunk runs inside a
fresh capture in its worker (:func:`repro.observe.capture`: a session
that records only what its snapshot ships, and taps no flight ring)
and ships its :meth:`~repro.observe.telemetry.Capture.snapshot` back
with the results; the parent merges the snapshots strictly in
submission order, so the merged telemetry of a pooled run is
byte-identical to the serial run's (workload series — pool
self-metrics ``repro_runtime_*`` are backend-dependent by nature; see
docs/OBSERVABILITY.md).  The enabled check happens per chunk, not per
pool, so a session installed while a long campaign is already fanned
out still captures the remaining chunks.  The same read takes the
session's ``events_only`` flag, and the chunk's capture keeps what the
parent keeps.

**Delta streaming.**  A captured chunk hands its snapshots back as
``repro-delta/v1`` documents, and the parent folds them in emission
order.  Pass a :class:`~repro.observe.stream.TelemetryStream` as
``stream=`` and the fold also offers each delta to the stream, in the
same submission order, for the ``repro top`` live view.  A worker chunk
is captured exactly as without a stream, one delta for the whole
chunk; a chunk run in this process (the serial backend) offers a delta
after each item as it runs, so a one-worker live view moves item by
item.  A chunk that times out or fails hands nothing back, so only its
serial rerun, which writes straight into the session, is counted, and
the stream sees neither.  After the rerun, finished or failed, the
process flight recorder's window (:mod:`repro.observe.flightrec`) is
dumped into :attr:`ParallelMap.flight_records`; a chunk's records
reach the parent's ring only through the fold, so the window holds the
rerun's records.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import os
import pickle
from typing import (Any, Callable, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.observe import capture as _capture
from repro.observe import current as _telemetry
from repro.observe import flightrec as _flightrec
from repro.observe.stream import TelemetryStream, make_delta
from repro.runtime.pool import get_pool as _get_pool
from repro.runtime.pool import retire_pool as _retire_pool

T = TypeVar("T")
R = TypeVar("R")


@dataclasses.dataclass
class PoolStats:
    """Accounting for one :meth:`ParallelMap.map` call."""

    backend: str = "serial"
    workers: int = 1
    tasks: int = 0
    chunks: int = 0
    #: Chunks re-run serially in the parent (worker error or timeout).
    serial_retries: int = 0
    #: Chunks whose future missed the per-chunk deadline.
    timeouts: int = 0
    #: Chunks that ran with worker-local telemetry capture.
    captured_chunks: int = 0
    #: Captured chunks whose snapshot was never merged (the chunk timed
    #: out or failed and was re-run in the parent, which writes straight
    #: into the installed session).  ``captured_chunks -
    #: dropped_snapshots`` is the number of snapshots actually merged.
    dropped_snapshots: int = 0
    #: 1 when this call was served by an already-warm shared executor.
    pool_reuses: int = 0
    #: Captured chunks whose deltas a stream was offered (all of
    #: ``captured_chunks`` when the map has a stream).
    streamed_chunks: int = 0
    #: Deltas folded into the installed session by a map with a
    #: stream.
    deltas_merged: int = 0
    #: Flight-recorder dumps attached to this call (see
    #: :attr:`ParallelMap.flight_records`).
    flight_dumps: int = 0


#: The :class:`PoolStats` fields a map call reports as counters.
_COUNTED = ("tasks", "chunks", "serial_retries", "timeouts",
            "captured_chunks", "dropped_snapshots", "pool_reuses",
            "streamed_chunks", "deltas_merged", "flight_dumps")

#: A chunk's capture: ``(events_only, origin, put)`` or None.
_Capture = Optional[Tuple[bool, int, Optional[Callable[[Any], None]]]]


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T],
               capture: _Capture = None) -> Tuple[List[R], List[Any]]:
    """Run one contiguous slice of items — in a worker or the parent.

    With no ``capture`` the items run in the caller's session.  With
    one they run in a fresh :func:`~repro.observe.capture` (keeping
    events only when ``events_only`` is set) that makes a final
    ``repro-delta/v1`` document from ``origin`` when the chunk ends.
    With a ``put`` (an in-process chunk of a map with a stream) the
    chunk also makes a delta after each item and hands every delta to
    ``put`` as it is made; each delta covers the telemetry since the
    previous one.  Returns ``(results, deltas)``.  Module-level so the
    process backend can pickle it.
    """
    if capture is None:
        return [fn(item) for item in chunk], []
    events_only, origin, put = capture
    results: List[R] = []
    deltas: List[Any] = []

    def emit(final: bool) -> None:
        delta = make_delta(origin, len(deltas), telemetry.snapshot(),
                           final=final)
        deltas.append(delta)
        if put is not None:
            put(delta)

    with _capture(events_only=events_only) as telemetry:
        for item in chunk:
            results.append(fn(item))
            if put is not None:
                emit(False)
        emit(True)
    return results, deltas


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


class ParallelMap:
    """An ordered, chunked map over pure tasks.

    Args:
        workers: Worker count; ``None`` means ``os.cpu_count()``.
            Each call runs serially for ``workers <= 1``, for items
            that fit in one chunk, or when ``fn`` or the first item
            does not pickle, and on worker processes otherwise.  At
            most ``workers * 2`` chunks are in flight at once, so huge
            inputs never materialise a future per chunk up front.
        timeout: Per-chunk deadline in (real) seconds; an overdue chunk
            is re-run serially in the parent.  ``None`` waits forever.
        stream: Optional :class:`~repro.observe.stream.TelemetryStream`.
            When set and telemetry is enabled, the stream is offered
            every ``repro-delta/v1`` document the session folds, in
            the same order, and an in-process chunk's as it makes them
            (see the module docstring).  The session folds exactly
            what it folds without a stream.
    """

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 stream: Optional[TelemetryStream] = None) -> None:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.timeout = timeout
        self.stream = stream
        self.stats = PoolStats()
        #: Flight-recorder dump documents produced by the most recent
        #: :meth:`map` call (one per chunk timeout / serial retry).
        self.flight_records: List[Any] = []

    # -- backend resolution ------------------------------------------------

    def _chunk_size(self, items: Sequence,
                    chunk_size: Optional[int]) -> int:
        """The per-call chunk size, or ``ceil(len(items) / (workers *
        4))`` so every worker gets several chunks to smooth uneven task
        costs."""
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        return chunk_size or max(1, -(-len(items) // (self.workers * 4)))

    def _resolve(self, fn: Callable, items: Sequence, size: int) -> str:
        if self.workers <= 1 or len(items) <= size \
                or not _picklable(fn, items[0]):
            return "serial"
        return "process"

    # -- the map -----------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            chunk_size: Optional[int] = None) -> List[R]:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are returned in submission order; for a pure ``fn`` the
        returned list is identical to the serial comprehension above.

        Args:
            chunk_size: Items per submitted chunk (``None``: several
                chunks per worker).  Batched callers (the harness's
                batch kernel) pass ``1`` so each item — already a
                coarse batch of work — is submitted as its own chunk
                and never re-bundled into a second layer of pickling;
                ``FaultCampaign(batch=B)`` passes ``B``.
        """
        results: List[R] = []
        for chunk_results in self.imap(fn, items, chunk_size=chunk_size):
            results.extend(chunk_results)
        return results

    def imap(self, fn: Callable[[T], R], items: Iterable[T],
             chunk_size: Optional[int] = None):
        """The incremental face of :meth:`map`: a generator yielding
        one **chunk's result list** at a time, strictly in submission
        order, as chunks are gathered.

        Every :meth:`map` guarantee holds per chunk — ordered gather,
        retry-once-serial, telemetry capture and delta streaming at the
        moment each chunk is merged — but the parent holds only the
        in-flight window of results instead of the whole output list,
        so a streaming consumer (the sharded campaign engine, which
        submits one shard per chunk and checkpoints each as it lands)
        keeps peak memory O(chunk), not O(items).  Closing the
        generator early releases the executor; with a warm shared
        pool, chunks already submitted may still complete in the
        background.

        The serial backend runs the whole task list as its single
        chunk, exactly as :meth:`map` does — callers that need
        chunk-at-a-time progress under ``workers <= 1`` should iterate
        their items themselves.
        """
        tasks = list(items)
        size = self._chunk_size(tasks, chunk_size)
        backend = self._resolve(fn, tasks, size)
        self.stats = PoolStats(backend=backend, workers=self.workers,
                               tasks=len(tasks))
        self.flight_records = []
        if backend == "serial":
            if tasks:
                results = self._run_serial(fn, tasks)
                self.stats.chunks = 1
                yield results
            return

        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        self.stats.chunks = len(chunks)
        warm = _get_pool(self.workers)
        if warm.warm:
            self.stats.pool_reuses = 1
        pool = warm.acquire()
        try:
            pending: collections.deque = collections.deque()
            submitted = 0
            while submitted < len(chunks) or pending:
                while (submitted < len(chunks)
                       and len(pending) < self.workers * 2):
                    # The enabled check is per chunk, not per pool: a
                    # session installed mid-campaign captures (and
                    # streams) whatever chunks are submitted from then
                    # on, keeping what that session keeps.
                    capture = self._capture(submitted)
                    try:
                        future = pool.submit(_run_chunk, fn,
                                             chunks[submitted], capture)
                    except Exception as exc:
                        # A broken shared executor rejects at submit
                        # time; a pre-failed future keeps the gather
                        # order intact and routes the chunk through the
                        # ordinary retry-once-serial path below.
                        future = concurrent.futures.Future()
                        future.set_exception(exc)
                    pending.append((submitted, capture, future))
                    submitted += 1
                # Gather strictly in submission order: chunk i's results
                # land before chunk i+1's even when i+1 finished first.
                index, capture, future = pending.popleft()
                try:
                    chunk_results, deltas = future.result(
                        timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    self.stats.timeouts += 1
                    chunk_results = self._retry_serial(
                        fn, chunks[index], index, "chunk-timeout",
                        capture)
                except Exception:
                    # Worker death, pickling failure, or the task's own
                    # exception: re-run serially once in the parent.  A
                    # deterministic task error re-raises here with a
                    # clean parent-side traceback.
                    chunk_results = self._retry_serial(
                        fn, chunks[index], index, "chunk-serial-retry",
                        capture)
                else:
                    self._fold(capture, deltas)
                yield chunk_results
            self._report()
        finally:
            if warm.broken():
                # A warm pool that lost a worker must not be reused;
                # drop it so the next call respawns cleanly.
                _retire_pool(warm)

    # -- capture and fold --------------------------------------------------

    def _capture(self, origin: int,
                 put: Optional[Callable[[Any], None]] = None) -> _Capture:
        """Count and return a chunk's capture, read from the installed
        session at submission (``None`` with no session)."""
        tel = _telemetry()
        if not tel.enabled:
            return None
        self.stats.captured_chunks += 1
        if self.stream is not None:
            self.stats.streamed_chunks += 1
        return tel.events_only, origin, put

    def _run_serial(self, fn: Callable[[T], R],
                    tasks: Sequence[T]) -> List[R]:
        """The serial backend: the whole task list as one chunk, run in
        the parent's session, or captured with a delta per item when
        there is a stream and a session (live views update without a
        pool)."""
        if self.stream is None or not _telemetry().enabled:
            return _run_chunk(fn, tasks)[0]
        capture = self._capture(0, self.stream.offer)
        results, deltas = _run_chunk(fn, tasks, capture)
        self._fold(capture, deltas)
        return results

    def _fold(self, capture: _Capture, deltas: List[Any]) -> None:
        """Merge the deltas one finished chunk handed back into the
        installed session, in emission order, offering each to the
        stream unless the chunk offered it as it was made."""
        tel = _telemetry()
        if capture is None or not tel.enabled:
            return
        stream = self.stream
        _, _, put = capture
        for delta in deltas:
            if stream is not None and put is None:
                stream.offer(delta)
            tel.merge(delta["snapshot"])
        if stream is not None:
            self.stats.deltas_merged += len(deltas)

    def _retry_serial(self, fn: Callable[[T], R], chunk: Sequence[T],
                      index: int, reason: str, capture: _Capture
                      ) -> List[R]:
        """Parent-side rerun of a timed-out or failed chunk.

        The chunk handed no deltas back, so none are folded (the rerun
        writes straight into the installed session).  Once the rerun
        has finished or raised, the flight recorder's window is dumped
        into :attr:`flight_records`: the failed chunk's capture taps no
        ring and handed nothing back, so only the rerun can explain the
        failure.
        """
        self.stats.serial_retries += 1
        if capture is not None:
            self.stats.dropped_snapshots += 1
        try:
            return _run_chunk(fn, chunk)[0]
        finally:
            self.flight_records.append(_flightrec.dump(
                reason, chunk=index, backend=self.stats.backend,
                tasks=len(chunk)))
            self.stats.flight_dumps += 1

    # -- executors ---------------------------------------------------------

    def prewarm(self, fn: Callable, items: Sequence) -> str:
        """Spawn (or reuse) the warm executor for this pool's size.

        Resolves the backend exactly as :meth:`map` would for ``fn`` and
        ``items`` with the default chunking, and acquires the registry
        executor outside any timed region, so the first measured
        :meth:`map` call pays no spawn cost.  No-op for serial
        resolutions.  Returns the resolved backend name.
        """
        tasks = list(items)
        backend = self._resolve(fn, tasks, self._chunk_size(tasks, None))
        if backend == "process":
            _get_pool(self.workers).acquire()
        return backend

    # -- telemetry ---------------------------------------------------------

    def _report(self) -> None:
        """Forward a pooled call's accounting to an installed telemetry
        session (no-op when telemetry is disabled): one
        ``repro_runtime_<field>_total`` counter per :data:`_COUNTED`
        field, the zero ones left out past ``tasks`` and ``chunks``.
        Serial calls never report, so a one-worker run records what the
        plain loop would."""
        tel = _telemetry()
        if not tel.enabled:
            return
        stats = self.stats
        for field in _COUNTED:
            amount = getattr(stats, field)
            if amount or field in ("tasks", "chunks"):
                tel.metrics.inc(f"repro_runtime_{field}_total", amount,
                                backend=stats.backend)


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 **kwargs: Any) -> List[R]:
    """One-shot functional form of :class:`ParallelMap`."""
    return ParallelMap(workers=workers, **kwargs).map(
        fn, items, chunk_size=chunk_size)
