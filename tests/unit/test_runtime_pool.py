"""Warm worker pools: registry reuse, fork safety, lifecycle.

The warm-pool registry must be a pure acceleration: a map served by a
reused executor returns the same bytes (results *and* merged telemetry)
as per-call executors and as the serial path, and its lifecycle edges —
forked children, broken workers, shutdown — fail safe rather than
sharing executors across processes.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro import observe
from repro.runtime.pmap import ParallelMap
from repro.runtime.pool import (
    WorkerPool,
    get_pool,
    pool_stats,
    retire_pool,
    new_executor,
    shutdown_pools,
)

#: Pool self-metrics are backend-dependent by design; byte-identity
#: covers the workload series only (same contract as
#: test_parallel_telemetry).
EXCLUDE = ("repro_runtime_",)

_PARENT_PID = os.getpid()


# -- module-level (picklable) tasks for the process backend --


def _square(x):
    return x * x


def _noisy(x):
    """Publishes an event and bumps a counter per item (dyadic cost)."""
    tel = observe.current()
    if tel.enabled:
        tel.metrics.inc("pool_test_items_total", parity=str(x % 2))
        tel.publish("pool.test", item=x)
    return x + 1


def _session_enabled(_):
    """Whether the hosting process's current session records."""
    return observe.current().enabled


def _die_in_worker(x):
    """Kills the hosting *worker* process; harmless in the parent, so
    the retry-once-serial rerun completes the map."""
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return x


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test starts and ends with an empty warm-pool registry."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestWorkerPool:
    def test_acquire_spawns_once_and_counts_reuses(self):
        with WorkerPool(2) as pool:
            assert not pool.warm and pool.reuses == 0
            first = pool.acquire()
            assert pool.warm and pool.reuses == 0
            assert pool.acquire() is first
            assert pool.acquire() is first
            assert pool.reuses == 2
        assert pool.dead

    def test_acquire_after_shutdown_raises(self):
        pool = WorkerPool(2)
        pool.acquire()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.acquire()

    def test_rejects_bad_signatures(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestRegistry:
    def test_same_signature_same_pool(self):
        a = get_pool(2)
        assert get_pool(2) is a
        assert get_pool(3) is not a

    def test_dead_entry_is_replaced(self):
        a = get_pool(2)
        a.shutdown()
        b = get_pool(2)
        assert b is not a and not b.dead

    def test_retire_removes_and_kills(self):
        a = get_pool(2)
        a.acquire()
        retire_pool(a)
        assert a.dead
        assert get_pool(2) is not a

    def test_shutdown_pools_reports_warm_count_and_clears(self):
        get_pool(2).acquire()
        get_pool(3)  # created but never spawned
        assert shutdown_pools() == 1
        assert pool_stats() == []

    def test_pool_stats_rows(self):
        get_pool(2).acquire()
        pool = ParallelMap(workers=2)
        pool.map(_square, range(8))
        rows = pool_stats()
        assert rows == [{"backend": "process", "workers": 2,
                         "warm": True, "reuses": 1}]


class TestForkSafety:
    def test_forked_child_refuses_parent_pool(self):
        parent_pool = get_pool(2)
        parent_pool.acquire()
        pid = os.fork()
        if pid == 0:  # child: report via exit code, never run pytest
            code = 1
            try:
                try:
                    parent_pool.acquire()
                except RuntimeError:
                    # And the registry must hand the child a fresh pool,
                    # not the parent's entry.
                    if get_pool(2) is not parent_pool:
                        code = 0
            except BaseException:
                code = 2
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        # The parent's pool is untouched by the child's fork guard.
        assert parent_pool.acquire() is not None


class TestNestedPools:
    #: A pool worker whose task maps over a warm pool of its own.
    SCRIPT = """
import json
import sys
sys.path.insert(0, {src!r})
from repro.runtime.pmap import ParallelMap


def inner(n):
    pool = ParallelMap(workers=2)
    total = sum(pool.map(abs, list(range(-n, n))))
    return total, pool.stats.backend


outer = ParallelMap(workers=2)
print(json.dumps([outer.map(inner, [3, 4, 5]), outer.stats.backend]))
"""

    def test_pool_inside_a_pool_worker_lets_the_program_exit(self):
        # A pool worker runs no atexit hooks, so only the registry's
        # multiprocessing finalizer shuts its own pool down; without
        # it the worker's exit waits on its idle workers forever.
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT.format(src=src)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the program did not exit within 30 s")
        assert proc.returncode == 0, err
        assert json.loads(out) == [
            [[9, "process"], [16, "process"], [25, "process"]], "process"]


class TestWorkerSessions:
    """A process worker forks whatever session its parent had installed;
    the executors' initializer drops it, so a worker's own session is
    the disabled default whenever its parent's is."""

    def test_warm_pool_forked_in_a_session_runs_later_maps_disabled(self):
        pool = ParallelMap(workers=3)
        with observe.session():
            pool.map(_square, range(6))  # forks the warm pool in here
        assert pool.stats.pool_reuses == 0
        assert observe.current().enabled is False
        assert pool.map(_session_enabled, range(6)) == [False] * 6
        assert pool.stats.pool_reuses == 1

    def test_per_call_executor_workers_hold_no_global_session(self):
        # A per-call (reuse=False) executor forks its workers inside the
        # session; tasks submitted bare, with no chunk capture around
        # them, see the worker's own session, which starts off.
        executor = new_executor(3)
        try:
            with observe.session():
                futures = [executor.submit(_session_enabled, x)
                           for x in range(6)]
                assert [future.result() for future in futures] \
                    == [False] * 6
        finally:
            executor.shutdown(wait=True)


class TestParallelMapReuse:
    def test_second_map_reuses_and_matches_serial(self):
        serial = [_square(x) for x in range(20)]
        pool = ParallelMap(workers=2)
        first = pool.map(_square, range(20))
        assert pool.stats.pool_reuses == 0
        second = pool.map(_square, range(20))
        assert pool.stats.pool_reuses == 1
        other = ParallelMap(workers=2)
        third = other.map(_square, range(20))
        assert other.stats.pool_reuses == 1  # shared across instances
        assert first == second == third == serial

    def test_reuse_false_keeps_registry_empty(self):
        pool = ParallelMap(workers=2, reuse=False)
        assert pool.map(_square, range(12)) == [_square(x)
                                                for x in range(12)]
        assert pool.stats.pool_reuses == 0
        assert pool_stats() == []

    def test_warm_process_pool_telemetry_matches_serial(self):
        def run(workers):
            pool = ParallelMap(workers=workers, chunk_size=2)
            with observe.session() as tel:
                results = pool.map(_noisy, range(10))
            return results, tel

        serial_results = [_noisy(x) for x in range(10)]
        expected, serial_tel = run(1)
        assert expected == serial_results
        cold_results, cold_tel = run(3)   # spawns
        warm_results, warm_tel = run(3)   # reuses
        assert cold_results == warm_results == expected
        for tel in (cold_tel, warm_tel):
            assert tel.metrics.as_dict(exclude=EXCLUDE) \
                == serial_tel.metrics.as_dict(exclude=EXCLUDE)
            assert ([(e.topic, e.seq, e.payload)
                     for e in tel.bus.history]
                    == [(e.topic, e.seq, e.payload)
                        for e in serial_tel.bus.history])

    def test_broken_warm_pool_is_retired_and_map_completes(self):
        pool = ParallelMap(workers=2, chunk_size=4)
        warm_before = get_pool(2)
        results = pool.map(_die_in_worker, range(8))
        # Every chunk was re-run serially in the parent.
        assert results == list(range(8))
        assert pool.stats.serial_retries >= 1
        # The poisoned executor must not survive in the registry.
        assert get_pool(2) is not warm_before

    def test_prewarm_spawns_ahead_of_map(self):
        pool = ParallelMap(workers=2)
        assert pool.prewarm() == "process"
        assert pool_stats() == [{"backend": "process", "workers": 2,
                                 "warm": True, "reuses": 0}]
        pool.map(_square, range(8))
        assert pool.stats.pool_reuses == 1  # the very first map reused

    def test_prewarm_resolves_serial_to_noop(self):
        pool = ParallelMap(workers=1)
        assert pool.prewarm() == "serial"
        assert pool_stats() == []
