"""Warm worker pools: long-lived process executors shared across maps.

Every :meth:`~repro.runtime.pmap.ParallelMap.map` call used to build
and tear down a fresh ``concurrent.futures`` executor, so each
experiment, campaign batch and bench run repaid the full worker spawn
and interpreter-import cost — on a small workload the harness *lost*
CPU time to pooling.  This module amortises that cost: a process-wide
registry lazily spawns **one long-lived process executor per worker
count** and hands the same executor to every subsequent call with that
count, within one parent process.

The registry is safe by construction rather than by convention:

* **fork-safety guard** — executors are owned by the process that
  spawned them.  A forked child that consults the registry gets a
  *fresh, empty* registry (the parent's workers are not the child's to
  use), and a :class:`WorkerPool` handle carried across a fork refuses
  to hand out its executor.
* **broken-pool retirement** — a pool whose worker died
  (``BrokenProcessPool``) is discarded from the registry so the next
  call respawns cleanly; the in-flight call completes through
  :class:`~repro.runtime.pmap.ParallelMap`'s retry-once-serial path.
* **explicit lifecycle** — every executor comes from the registry,
  and :func:`shutdown_pools` tears every warm executor down
  deterministically.  Each process that uses the registry registers
  :func:`shutdown_pools` once as a ``multiprocessing`` exit finalizer,
  which runs at interpreter exit in the main process *and* when a pool
  worker exits (a worker runs no ``atexit`` hooks).  So a pool spawned
  inside a pool worker is torn down before that worker joins its
  children, instead of leaving them idle and the program hung.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing.util
import os
import threading
from typing import Dict, List, Optional

from repro.observe import disable as _telemetry_off

__all__ = ["WorkerPool", "get_pool", "retire_pool", "shutdown_pools",
           "pool_stats"]

#: Exit priority of the per-process :func:`shutdown_pools` finalizer.
#: Above the executor queues' own finalizers (10), so the pools shut
#: down while their queues still work.
_EXIT_PRIORITY = 100


class WorkerPool:
    """One lazily spawned, long-lived process executor.

    Args:
        workers: Executor size (``max_workers``).

    The executor is created on first :meth:`acquire` and reused by every
    later one; ``reuses`` counts the amortised spawns.  Pools come from
    :func:`get_pool`, and :func:`shutdown_pools` (or :meth:`shutdown`)
    tears them down.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._executor: Optional[concurrent.futures.Executor] = None
        self._lock = threading.Lock()
        #: PID of the process that spawned the executor (fork guard).
        self.owner_pid: Optional[int] = None
        #: Acquisitions served by an already-warm executor.
        self.reuses = 0
        #: A dead pool never hands out an executor again.
        self.dead = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def warm(self) -> bool:
        """True when the executor exists (next acquire is a reuse)."""
        return self._executor is not None

    def acquire(self) -> concurrent.futures.Executor:
        """The shared executor, spawning it on first use.

        Raises ``RuntimeError`` after :meth:`shutdown`, and in a forked
        child holding a parent-spawned handle: the child does not own
        the parent's workers, and submitting to them would race the
        parent for results.

        Workers start by dropping the telemetry session they inherited.
        A forked worker holds a copy of whatever session its parent had
        installed at the fork; without the reset, a later map made with
        telemetry off would run its tasks in that copy, which records
        and is never merged.
        """
        with self._lock:
            if self.dead:
                raise RuntimeError("worker pool has been shut down")
            if self._executor is None:
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_telemetry_off)
                self.owner_pid = os.getpid()
            elif self.owner_pid != os.getpid():
                raise RuntimeError(
                    "forked child must not reuse the parent's warm "
                    "worker pool; call repro.runtime.pool.get_pool() "
                    "for a child-local one")
            else:
                self.reuses += 1
            return self._executor

    def broken(self) -> bool:
        """True when the executor lost a worker and cannot be reused."""
        return bool(getattr(self._executor, "_broken", False))

    def shutdown(self, wait: bool = True) -> None:
        """Tear the executor down; the pool is dead afterwards."""
        with self._lock:
            executor, self._executor = self._executor, None
            self.dead = True
        if executor is not None and self.owner_pid == os.getpid():
            executor.shutdown(wait=wait)


#: worker count -> pool, owned by ``_registry_pid``.
_registry: Dict[int, WorkerPool] = {}
_registry_pid: Optional[int] = None
_registry_lock = threading.Lock()


def _guard_fork() -> None:
    """Adopt the registry for the calling process (caller holds the
    lock).

    In a forked child the executors in it belong to the parent — their
    result pipes and worker processes are shared state a child must not
    drain — so the child starts with an empty registry and spawns its
    own pools on demand.  The first use in each process also registers
    that process's exit finalizer.
    """
    global _registry_pid
    if os.getpid() != _registry_pid:
        _registry.clear()
        _registry_pid = os.getpid()
        multiprocessing.util.Finalize(None, shutdown_pools,
                                      exitpriority=_EXIT_PRIORITY)


def get_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool of ``workers`` processes.

    Lazily creates the :class:`WorkerPool` (not yet the executor — that
    spawns on first :meth:`~WorkerPool.acquire`); replaces a dead or
    broken entry with a fresh one.
    """
    with _registry_lock:
        _guard_fork()
        pool = _registry.get(workers)
        if pool is None or pool.dead or pool.broken():
            pool = WorkerPool(workers)
            _registry[workers] = pool
        return pool


def retire_pool(pool: WorkerPool, wait: bool = False) -> None:
    """Remove ``pool`` from the registry and shut it down.

    Used by :class:`~repro.runtime.pmap.ParallelMap` when a map call
    leaves a registry pool broken; the next call respawns cleanly.
    """
    with _registry_lock:
        _guard_fork()
        if _registry.get(pool.workers) is pool:
            del _registry[pool.workers]
    pool.shutdown(wait=wait)


def shutdown_pools(wait: bool = True) -> int:
    """Shut every registry pool down; returns how many were warm."""
    with _registry_lock:
        _guard_fork()
        pools = list(_registry.values())
        _registry.clear()
    warm = 0
    for pool in pools:
        warm += pool.warm
        pool.shutdown(wait=wait)
    return warm


def pool_stats() -> List[Dict[str, object]]:
    """One dict per registry pool, sorted by worker count (for
    reports).  ``backend`` is always ``"process"``: the live frame and
    its readers key on it."""
    with _registry_lock:
        _guard_fork()
        pools = sorted(_registry.items())
    return [{"backend": "process", "workers": workers,
             "warm": pool.warm, "reuses": pool.reuses}
            for workers, pool in pools]
