"""Unit tests for the deterministic parallel map."""

import time

import pytest

from repro import observe
from repro.runtime.pmap import ParallelMap, parallel_map


def square(x):
    return x * x


def sleepy(x):
    """Sleeps long only for item 3 (timeout-path probe)."""
    if x == 3:
        time.sleep(0.3)
    return x * 10


def boom(x):
    if x == 2:
        raise ValueError("boom on 2")
    return x


class Unpicklable:
    """An item that refuses to pickle (it stays in the parent)."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("Unpicklable items do not pickle")


def plus_one(item):
    return getattr(item, "value", item) + 1


def timing_pool(**kwargs):
    """A 2-worker process pool whose workers are already forked, so a
    cold spawn never counts against a chunk's deadline."""
    pool = ParallelMap(workers=2, chunk_size=1, **kwargs)
    assert pool.prewarm() == "process"
    return pool


class TestValidation:
    def test_backend_is_not_an_option(self):
        # The work picks the backend; no argument names one.
        for option in ({"backend": "process"}, {"fallback": "serial"}):
            with pytest.raises(TypeError):
                ParallelMap(**option)

    def test_rejects_bad_options(self):
        with pytest.raises(ValueError):
            ParallelMap(chunk_size=0)
        with pytest.raises(ValueError):
            ParallelMap(timeout=0)


class TestOrderedGather:
    @pytest.mark.parametrize("workers", [1, 4], ids=["serial", "process"])
    def test_results_in_submission_order(self, workers):
        items = list(range(23))
        pool = ParallelMap(workers=workers, chunk_size=3)
        assert pool.map(square, items) == [square(i) for i in items]

    def test_empty_items(self):
        pool = ParallelMap(workers=4)
        assert pool.map(square, []) == []
        assert pool.stats.tasks == 0

    def test_chunk_accounting(self):
        pool = ParallelMap(workers=3, chunk_size=2)
        pool.map(square, range(11))
        assert pool.stats.chunks == 6
        assert pool.stats.tasks == 11

    def test_bounded_in_flight_still_complete(self):
        pool = ParallelMap(workers=2, chunk_size=1, max_in_flight=2)
        assert pool.map(square, range(20)) == [square(i)
                                               for i in range(20)]


class TestBackendResolution:
    def test_workers_one_is_serial(self):
        pool = ParallelMap(workers=1)
        pool.map(square, range(5))
        assert pool.stats.backend == "serial"

    def test_auto_picks_process_for_picklable_tasks(self):
        pool = ParallelMap(workers=2)
        pool.map(square, range(8))
        assert pool.stats.backend == "process"

    def test_closures_run_serially(self):
        offset = 7
        pool = ParallelMap(workers=2)
        out = pool.map(lambda x: x + offset, range(8))
        assert out == [x + 7 for x in range(8)]
        assert pool.stats.backend == "serial"
        assert pool.stats.serial_retries == 0


class TestFallbackPaths:
    def test_timeout_retries_chunk_serially(self):
        pool = timing_pool(timeout=0.05)
        out = pool.map(sleepy, range(5))
        assert out == [x * 10 for x in range(5)]
        assert pool.stats.timeouts == 1
        assert pool.stats.serial_retries == 1

    def test_task_error_propagates_after_one_serial_retry(self):
        pool = ParallelMap(workers=2, chunk_size=1)
        with pytest.raises(ValueError, match="boom on 2"):
            pool.map(boom, range(4))
        assert pool.stats.serial_retries == 1

    def test_later_unpicklable_item_reruns_its_chunk_serially(self):
        # The first item pickles, so the map runs on processes; the
        # chunk holding the item that does not cannot reach a worker
        # and is re-run in the parent, with correct results.
        items = [0, 1, Unpicklable(2), 3]
        pool = ParallelMap(workers=2, chunk_size=1)
        assert pool.map(plus_one, items) == [1, 2, 3, 4]
        assert pool.stats.backend == "process"
        assert pool.stats.serial_retries == 1


class TestDroppedSnapshots:
    def test_timed_out_captured_chunk_drops_its_snapshot(self):
        with observe.session() as tel:
            pool = timing_pool(timeout=0.05)
            out = pool.map(sleepy, range(5))
        assert out == [x * 10 for x in range(5)]
        assert pool.stats.captured_chunks == 5
        assert pool.stats.dropped_snapshots == 1
        assert tel.metrics.value("repro_runtime_dropped_snapshots_total",
                                 backend="process") == 1.0

    def test_failed_captured_chunk_drops_its_snapshot(self):
        with observe.session():
            pool = ParallelMap(workers=2, chunk_size=1)
            with pytest.raises(ValueError, match="boom on 2"):
                pool.map(boom, range(4))
        assert pool.stats.dropped_snapshots == 1
        assert pool.stats.serial_retries == 1

    def test_clean_captured_run_drops_nothing(self):
        with observe.session() as tel:
            pool = ParallelMap(workers=2, chunk_size=2)
            pool.map(square, range(6))
        assert pool.stats.captured_chunks == 3
        assert pool.stats.dropped_snapshots == 0
        # The zero counter is not emitted at all.
        assert tel.metrics.value("repro_runtime_dropped_snapshots_total",
                                 backend="process") == 0.0

    def test_uncaptured_timeouts_do_not_count_as_drops(self):
        pool = timing_pool(timeout=0.05)
        pool.map(sleepy, range(5))
        assert pool.stats.timeouts == 1
        assert pool.stats.captured_chunks == 0
        assert pool.stats.dropped_snapshots == 0


class TestPerCallExecutor:
    def test_reuse_false_joins_a_private_executor(self):
        from repro.runtime.pool import pool_stats, shutdown_pools

        shutdown_pools()
        pool = ParallelMap(workers=2, reuse=False)
        assert pool.map(square, range(10)) == [square(i)
                                               for i in range(10)]
        assert pool.map(square, range(10)) == [square(i)
                                               for i in range(10)]
        # No registry entry was created, and nothing counts as a reuse.
        assert pool.stats.pool_reuses == 0
        assert pool_stats() == []


class TestIncrementalMap:
    @pytest.mark.parametrize("workers", [3], ids=["process"])
    def test_chunks_arrive_in_submission_order(self, workers):
        pool = ParallelMap(workers=workers, chunk_size=4)
        gathered = []
        for chunk in pool.imap(square, range(14)):
            gathered.append(list(chunk))
        assert [len(c) for c in gathered] == [4, 4, 4, 2]
        flat = [value for chunk in gathered for value in chunk]
        assert flat == [square(i) for i in range(14)]
        assert pool.stats.chunks == 4

    def test_serial_backend_yields_one_chunk(self):
        pool = ParallelMap(workers=1)
        chunks = list(pool.imap(square, range(7)))
        assert chunks == [[square(i) for i in range(7)]]
        assert pool.stats.chunks == 1

    def test_empty_items_yield_nothing(self):
        pool = ParallelMap(workers=2)
        assert list(pool.imap(square, [])) == []
        assert pool.stats.chunks == 0

    def test_early_close_is_clean(self):
        pool = ParallelMap(workers=2, chunk_size=2)
        stream = pool.imap(square, range(12))
        first = next(stream)
        stream.close()
        assert first == [0, 1]
        # A fresh map on the same pool still works after the abort.
        assert pool.map(square, range(4)) == [0, 1, 4, 9]

    def test_imap_rejects_bad_chunk_size(self):
        pool = ParallelMap(workers=2)
        with pytest.raises(ValueError):
            list(pool.imap(square, range(4), chunk_size=0))


class TestFunctionalForm:
    def test_parallel_map_matches_comprehension(self):
        assert parallel_map(square, range(9), workers=3) == [
            square(i) for i in range(9)]


class TestTelemetry:
    def test_pool_accounting_reaches_metrics(self):
        with observe.session() as tel:
            parallel_map(square, range(6), workers=2, chunk_size=2)
        assert tel.metrics.value("repro_runtime_tasks_total",
                                 backend="process") == 6.0
        assert tel.metrics.value("repro_runtime_chunks_total",
                                 backend="process") == 3.0

    def test_disabled_session_records_nothing(self):
        parallel_map(square, range(6), workers=2)
        assert observe.current().enabled is False
