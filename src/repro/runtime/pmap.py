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

By default the thread and process backends borrow a **warm executor**
from the process-wide registry in :mod:`repro.runtime.pool` (keyed on
``(backend, workers)``), so repeated maps amortise worker spawn cost;
``reuse=False`` restores the original per-call executor, which is
joined before :meth:`ParallelMap.map` returns.  Either way the serial
backend is the reference semantics; the thread and process backends
are bit-identical accelerations of it.  ``backend="auto"``
picks the process pool when the task and items are picklable and falls
back to ``fallback`` (threads by default) when they are not — closures
and lambdas keep working, they just stay in-process.

**Telemetry capture.**  When the parent has a telemetry session
installed at the moment a chunk is submitted, the chunk runs inside a
worker-local session (:func:`repro.observe.local_session`) and ships
its :meth:`~repro.observe.telemetry.Telemetry.snapshot` back with the
results; the parent merges the snapshots strictly in submission order,
so the merged telemetry of a pooled run is byte-identical to the serial
run's (workload series — pool self-metrics ``repro_runtime_*`` are
backend-dependent by nature; see docs/OBSERVABILITY.md).  The enabled
check happens per chunk, not per pool, so a session installed while a
long campaign is already fanned out still captures the remaining
chunks.  The same read takes the session's ``events_only`` flag, and
the chunk's local session keeps what the parent keeps.

**Delta streaming.**  Pass a :class:`~repro.observe.stream.
TelemetryStream` as ``stream=`` and captured chunks ship their
telemetry home *incrementally* — a ``repro-delta/v1`` document every
``stream.every`` items — instead of once at the end.  One chunk runner
serves both: a captured chunk is a streamed chunk with no sink, which
hands its one delta back with its results.  The parent folds each
chunk's deltas in emission order at gather time, which is
byte-identical to the merge-at-end protocol, while an optional live
view folds them in arrival order for the ``repro top`` dashboard.  A
timed-out or failed chunk additionally dumps the process flight
recorder's window (:mod:`repro.observe.flightrec`) into
:attr:`ParallelMap.flight_records`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import os
import pickle
from typing import (Any, Callable, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.observe import current as _telemetry
from repro.observe import flightrec as _flightrec
from repro.observe import local_session as _local_session
from repro.observe.stream import TelemetryStream, make_delta
from repro.runtime.pool import get_pool as _get_pool
from repro.runtime.pool import retire_pool as _retire_pool

T = TypeVar("T")
R = TypeVar("R")

#: Recognised backend names (``auto`` resolves to one of the others).
BACKENDS = ("auto", "serial", "thread", "process")


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
    #: Chunks that ran with delta streaming (a subset of
    #: ``captured_chunks``).
    streamed_chunks: int = 0
    #: Deltas folded into the installed session at gather time.
    deltas_merged: int = 0
    #: Deltas discarded because their chunk timed out or failed (the
    #: serial rerun writes straight into the installed session; only
    #: the advisory live view keeps the partial fold).
    deltas_dropped: int = 0
    #: Flight-recorder dumps attached to this call (see
    #: :attr:`ParallelMap.flight_records`).
    flight_dumps: int = 0


#: A chunk's capture: ``(events_only, sink, origin, every)`` or None.
_Capture = Optional[Tuple[bool, Any, Any, Optional[int]]]


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T],
               capture: _Capture = None) -> Tuple[List[R], List[Any], int]:
    """Run one contiguous slice of items — in a worker or the parent.

    With no ``capture`` the items run in the caller's session.  With
    one they run in a local session (keeping events only when
    ``events_only`` is set) that emits a ``repro-delta/v1`` document
    every ``every`` items and a final one for the tail, each covering
    the telemetry since the previous one: into ``sink`` (a streamed
    chunk), or, with no sink and no ``every``, handed back (a captured
    chunk).  Returns ``(results, held deltas, deltas emitted)``.
    Module-level so the process backend can pickle it.
    """
    if capture is None:
        return [fn(item) for item in chunk], [], 0
    events_only, sink, origin, every = capture
    held: List[Any] = []
    emit = held.append if sink is None else sink.put
    results: List[R] = []
    emitted = 0
    with _local_session(events_only=events_only) as telemetry:
        for item in chunk:
            results.append(fn(item))
            if every and len(results) % every == 0:
                emit(make_delta(origin, emitted, telemetry.snapshot()))
                telemetry.reset()
                emitted += 1
        emit(make_delta(origin, emitted, telemetry.snapshot(),
                        final=True))
    return results, held, emitted + 1


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
            ``workers <= 1`` always runs serially.
        backend: One of :data:`BACKENDS`.  ``auto`` resolves per call:
            serial for trivial inputs, process when ``fn`` and the items
            pickle, else ``fallback``.
        fallback: Backend ``auto`` degrades to for unpicklable work —
            ``"thread"`` (default) or ``"serial"`` (required when tasks
            touch process-global state such as an installed telemetry
            session).
        chunk_size: Items per submitted chunk; ``None`` picks
            ``ceil(len(items) / (workers * 4))`` so every worker gets
            several chunks to smooth uneven task costs.
        timeout: Per-chunk deadline in (real) seconds; an overdue chunk
            is re-run serially in the parent.  ``None`` waits forever.
        max_in_flight: Bound on submitted-but-ungathered chunks
            (default ``workers * 2``), so huge inputs never materialise
            a future per chunk up front.
        reuse: When true (the default) the call borrows a long-lived
            executor from the warm-pool registry
            (:mod:`repro.runtime.pool`), keyed on ``(backend,
            workers)``, so repeated maps amortise worker spawn cost.
            ``reuse=False`` keeps the original per-call executor, which
            is joined before :meth:`map` returns.  Results and merged
            telemetry are byte-identical either way.
        stream: Optional :class:`~repro.observe.stream.TelemetryStream`.
            When set and telemetry is enabled, captured chunks stream
            incremental ``repro-delta/v1`` snapshots home while they
            run (live dashboards fold them in arrival order); at gather
            time the parent folds each chunk's deltas in emission
            order, which is byte-identical to the merge-at-end
            protocol.  A timed-out or failed chunk's deltas are
            discarded (the serial rerun writes straight into the
            installed session) and a flight-recorder window is dumped
            into :attr:`flight_records`.
    """

    def __init__(self, workers: Optional[int] = None, backend: str = "auto",
                 fallback: str = "thread",
                 chunk_size: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_in_flight: Optional[int] = None,
                 reuse: bool = True,
                 stream: Optional[TelemetryStream] = None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if fallback not in ("thread", "serial"):
            raise ValueError("fallback must be 'thread' or 'serial'")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.backend = backend
        self.fallback = fallback
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self.reuse = reuse
        self.stream = stream
        self.stats = PoolStats()
        #: Flight-recorder dump documents produced by the most recent
        #: :meth:`map` call (one per chunk timeout / serial retry).
        self.flight_records: List[Any] = []

    # -- backend resolution ------------------------------------------------

    def _resolve(self, fn: Callable, items: Sequence) -> str:
        if self.backend != "auto":
            return self.backend
        if self.workers <= 1 or len(items) <= 1:
            return "serial"
        if _picklable(fn, items[0]):
            return "process"
        return self.fallback

    # -- the map -----------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            chunk_size: Optional[int] = None) -> List[R]:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are returned in submission order; for a pure ``fn`` the
        returned list is identical to the serial comprehension above.

        Args:
            chunk_size: Per-call override of the constructor's chunk
                size.  Batched callers (the harness's batch kernel)
                pass ``1`` so each item — already a coarse batch of
                work — is submitted as its own chunk and never
                re-bundled into a second layer of pickling.
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
        generator early deactivates the stream and releases the
        executor; with a warm shared pool, chunks already submitted may
        still complete in the background.

        The serial backend runs the whole task list as its single
        chunk, exactly as :meth:`map` does — callers that need
        chunk-at-a-time progress under ``workers <= 1`` should iterate
        their items themselves.
        """
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        tasks = list(items)
        backend = self._resolve(fn, tasks)
        self.stats = PoolStats(backend=backend, workers=self.workers,
                               tasks=len(tasks))
        self.flight_records = []
        if not tasks:
            self._report()
            return
        if backend == "serial":
            results = self._run_serial(fn, tasks)
            self.stats.chunks = 1
            self._report()
            yield results
            return

        size = (chunk_size or self.chunk_size
                or max(1, -(-len(tasks) // (self.workers * 4))))
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        self.stats.chunks = len(chunks)
        max_in_flight = self.max_in_flight or self.workers * 2
        pool, warm = self._executor(backend, len(chunks))
        stream = self.stream
        epoch: Optional[int] = None
        sink: Any = None
        try:
            if stream is not None:
                # Activation is per map call (an epoch); origins are
                # (epoch, chunk_index), so a straggler delta from an
                # earlier call can never be mistaken for this one's.
                epoch, sink = stream.activate(backend)
            pending: collections.deque = collections.deque()
            submitted = 0
            while submitted < len(chunks) or pending:
                while (submitted < len(chunks)
                       and len(pending) < max_in_flight):
                    # The enabled check is per chunk, not per pool: a
                    # session installed mid-campaign captures (and
                    # streams) whatever chunks are submitted from then
                    # on, keeping what that session keeps.
                    capture = self._capture(sink, (epoch, submitted))
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
                    chunk_results, held, emitted = future.result(
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
                    self._fold(capture, held, emitted)
                yield chunk_results
            self._report()
        finally:
            if stream is not None and sink is not None:
                stream.deactivate()
            if warm is None:
                # Per-call executor: join it, exactly like the previous
                # ``with`` block did.
                pool.shutdown(wait=True)
            elif warm.broken():
                # A warm pool that lost a worker must not be reused;
                # drop it so the next call respawns cleanly.
                _retire_pool(warm)

    # -- capture and fold --------------------------------------------------

    def _capture(self, sink: Any, origin: Any) -> _Capture:
        """Count and return a chunk's capture, read from the installed
        session at submission: streamed into ``sink`` when there is
        one, captured when there is none, ``None`` with no session."""
        tel = _telemetry()
        if not tel.enabled:
            return None
        self.stats.captured_chunks += 1
        if sink is None:
            return tel.events_only, None, None, None
        self.stats.streamed_chunks += 1
        return tel.events_only, sink, origin, self.stream.every

    def _run_serial(self, fn: Callable[[T], R],
                    tasks: Sequence[T]) -> List[R]:
        """The serial backend: the whole task list as one chunk, run in
        the parent's session, or streamed straight to the collector
        when there is a stream and a session (live views update
        without a pool)."""
        if self.stream is None or not _telemetry().enabled:
            return _run_chunk(fn, tasks)[0]
        epoch, sink = self.stream.activate("serial")
        try:
            capture = self._capture(sink, (epoch, 0))
            results, held, emitted = _run_chunk(fn, tasks, capture)
            self._fold(capture, held, emitted)
        finally:
            self.stream.deactivate()
        return results

    def _fold(self, capture: _Capture, held: List[Any],
              emitted: int) -> None:
        """Merge one finished chunk's deltas into the installed session
        in emission order: those it handed back or, streamed, the
        ``emitted`` ones the collector took."""
        if capture is None:
            return
        streamed = capture[1] is not None
        deltas = (self.stream.collector.take(capture[2], emitted)
                  if streamed else held)
        tel = _telemetry()
        if tel.enabled:
            for delta in deltas:
                tel.merge(delta["snapshot"])
            if streamed:
                self.stats.deltas_merged += len(deltas)
        elif streamed:
            # Session uninstalled mid-gather: nowhere canonical to
            # fold into (the live view already saw them on arrival).
            self.stats.deltas_dropped += len(deltas)

    def _retry_serial(self, fn: Callable[[T], R], chunk: Sequence[T],
                      index: int, reason: str, capture: _Capture
                      ) -> List[R]:
        """Parent-side rerun of a timed-out or failed chunk.

        The chunk's own telemetry is dropped, streamed deltas included
        (the rerun writes straight into the installed session; folding
        both would double count), and the flight recorder's window is
        dumped into :attr:`flight_records`.
        """
        self.stats.serial_retries += 1
        if capture is not None:
            self.stats.dropped_snapshots += 1
            if capture[1] is not None:
                self.stats.deltas_dropped += \
                    self.stream.collector.discard(capture[2])
        self.flight_records.append(_flightrec.dump(
            reason, chunk=index, backend=self.stats.backend,
            tasks=len(chunk)))
        self.stats.flight_dumps += 1
        return _run_chunk(fn, chunk)[0]

    # -- executors ---------------------------------------------------------

    def _executor(self, backend: str, nchunks: int):
        """``(executor, warm_pool_or_None)`` for one map call.

        With ``reuse`` (the default) the executor comes from the
        process-wide warm registry, keyed on ``(backend, workers)``;
        ``None`` as the second element marks the per-call fallback
        executor, which the caller must join.
        """
        if self.reuse:
            warm = _get_pool(backend, self.workers)
            reused = warm.warm
            executor = warm.acquire()
            if reused:
                self.stats.pool_reuses = 1
            return executor, warm
        executor_cls = (concurrent.futures.ThreadPoolExecutor
                        if backend == "thread"
                        else concurrent.futures.ProcessPoolExecutor)
        return executor_cls(max_workers=min(self.workers, nchunks)), None

    def prewarm(self, fn: Optional[Callable] = None,
                items: Sequence = ()) -> str:
        """Spawn (or reuse) the warm executor for this pool's signature.

        Resolves the backend exactly as :meth:`map` would for ``fn`` and
        ``items`` (an ``auto`` backend with no sample resolves to
        ``process``) and acquires the registry executor outside any
        timed region, so the first measured :meth:`map` call pays no
        spawn cost.  No-op for serial resolutions or ``reuse=False``.
        Returns the resolved backend name.
        """
        if fn is not None:
            backend = self._resolve(fn, list(items))
        elif self.backend == "auto":
            backend = "process" if self.workers > 1 else "serial"
        else:
            backend = self.backend
        if self.reuse and backend in ("thread", "process"):
            _get_pool(backend, self.workers).acquire()
        return backend

    # -- telemetry ---------------------------------------------------------

    def _report(self) -> None:
        """Forward the call's accounting to an installed telemetry
        session (no-op when telemetry is disabled)."""
        tel = _telemetry()
        if not tel.enabled:
            return
        stats = self.stats
        tel.metrics.inc("repro_runtime_tasks_total", stats.tasks,
                        backend=stats.backend)
        tel.metrics.inc("repro_runtime_chunks_total", stats.chunks,
                        backend=stats.backend)
        if stats.serial_retries:
            tel.metrics.inc("repro_runtime_serial_retries_total",
                            stats.serial_retries, backend=stats.backend)
        if stats.timeouts:
            tel.metrics.inc("repro_runtime_timeouts_total",
                            stats.timeouts, backend=stats.backend)
        if stats.captured_chunks:
            tel.metrics.inc("repro_runtime_captured_chunks_total",
                            stats.captured_chunks, backend=stats.backend)
        if stats.dropped_snapshots:
            tel.metrics.inc("repro_runtime_dropped_snapshots_total",
                            stats.dropped_snapshots,
                            backend=stats.backend)
        if stats.pool_reuses:
            tel.metrics.inc("repro_runtime_pool_reuses_total",
                            stats.pool_reuses, backend=stats.backend)
        if stats.streamed_chunks:
            tel.metrics.inc("repro_runtime_streamed_chunks_total",
                            stats.streamed_chunks, backend=stats.backend)
        if stats.deltas_merged:
            tel.metrics.inc("repro_runtime_deltas_merged_total",
                            stats.deltas_merged, backend=stats.backend)
        if stats.deltas_dropped:
            tel.metrics.inc("repro_runtime_deltas_dropped_total",
                            stats.deltas_dropped, backend=stats.backend)
        if stats.flight_dumps:
            tel.metrics.inc("repro_runtime_flight_dumps_total",
                            stats.flight_dumps, backend=stats.backend)


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: Optional[int] = None,
                 **kwargs: Any) -> List[R]:
    """One-shot functional form of :class:`ParallelMap`."""
    return ParallelMap(workers=workers, **kwargs).map(fn, items)
