"""Delta-snapshot streaming: schemas, the stream, and byte-identity.

The contract under test (see docs/OBSERVABILITY.md): a streamed map
call's canonical session — the ``repro-delta/v1`` documents each chunk
hands back, folded in emission order — is byte-identical to the plain
captured run, serial or on processes, and a chunk that fails in its worker
adds nothing to it.  The stream is offered the deltas the session
folds, in the same order, so its live view holds the session's
history; it starts no process of its own.  Workload costs are dyadic
and every trial binds the session to its environment's virtual clock,
the same discipline as ``test_parallel_telemetry``.
"""

import multiprocessing
import os

import pytest

from repro import observe
from repro.environment import SimEnvironment
from repro.observe.stream import (DELTA_SCHEMA, FRAME_SCHEMA,
                                  LiveDashboard, TelemetryStream,
                                  make_delta, validate_delta,
                                  validate_frame)
from repro.runtime.pmap import ParallelMap
from repro.runtime.pool import get_pool, shutdown_pools

#: Pool self-metrics are backend- and transport-dependent by design;
#: the byte-identity contract covers the workload series only.
EXCLUDE = ("repro_runtime_",)


#: The test process: ``flaky_trial`` fails in any other (a worker).
PARENT_PID = os.getpid()


# -- module-level (picklable) building blocks for the process backend --


def stream_trial(seed):
    """A telemetry-rich pure trial with dyadic costs only."""
    env = SimEnvironment(seed=seed)
    tel = observe.current()
    if tel.enabled:
        tel.bind_clock(env.clock)
        tel.count("stream_trials_total")
        with tel.span("stream.trial", cost=1.0):
            tel.publish("stream.tick", seed=seed)
            env.clock.advance(0.5)
    return seed * 2


def flaky_trial(seed):
    """``stream_trial``, except that seed 4 fails in a pool worker
    (not in the parent's serial rerun)."""
    if seed == 4 and os.getpid() != PARENT_PID:
        raise RuntimeError("worker-only failure")
    return stream_trial(seed)


def _history(tel):
    """A session's event history, row for row."""
    return [(e.topic, e.time, e.seq, e.payload) for e in tel.bus.history]


def _fingerprint(tel):
    """The three byte-identity surfaces of one session."""
    return (
        tel.metrics.render_prometheus(exclude=EXCLUDE),
        [span.to_dict() for span in tel.tracer.spans],
        _history(tel),
    )


def _run(backend, stream=None, workers=3, seeds=range(9)):
    """One run under a session; returns (session, pool)."""
    pool = ParallelMap(workers=1 if backend == "serial" else workers,
                       stream=stream)
    with observe.session() as tel:
        results = pool.map(stream_trial, list(seeds), chunk_size=3)
    assert results == [seed * 2 for seed in seeds]
    assert pool.stats.backend == backend
    return tel, pool


def _snapshot(*counters, topic=None):
    """A minimal real snapshot document for schema/collector tests."""
    tel = observe.Telemetry()
    for name in counters:
        tel.count(name)
    if topic is not None:
        tel.publish(topic)
    return tel.snapshot()


# -- schemas -----------------------------------------------------------


class TestDeltaSchema:
    def test_make_delta_validates(self):
        delta = make_delta((1, 0), 0, _snapshot("unit_total"))
        validate_delta(delta)
        assert delta["schema"] == DELTA_SCHEMA
        assert delta["final"] is False

    def test_rejects_wrong_schema_and_missing_keys(self):
        with pytest.raises(ValueError):
            validate_delta({"schema": "repro-delta/v2"})
        delta = make_delta((1, 0), 0, _snapshot())
        del delta["origin"]
        with pytest.raises(ValueError):
            validate_delta(delta)

    def test_rejects_bad_snapshot_and_negative_seq(self):
        with pytest.raises(ValueError):
            validate_delta(make_delta((1, 0), 0, {"schema": "nope"}))
        bad = make_delta((1, 0), 0, _snapshot())
        bad["seq"] = -1
        with pytest.raises(ValueError):
            validate_delta(bad)


# -- the stream as a collector -----------------------------------------


class TestStreamCollector:
    """What a stream does with a delta: validate, count, fold live."""

    def test_invalid_deltas_are_counted_not_raised(self):
        stream = TelemetryStream()
        stream.offer({"schema": "garbage"})
        assert stream.stats() == {"received": 0, "folded_live": 0,
                                  "invalid": 1}

    def test_live_view_folds_in_arrival_order(self):
        live = observe.Telemetry()
        stream = TelemetryStream(live=live)
        # The live view folds deltas in the order they are offered.
        stream.offer(make_delta(0, 1,
                                _snapshot("live_total", topic="second"),
                                final=True))
        stream.offer(make_delta(0, 0,
                                _snapshot("live_total", topic="first")))
        assert live.metrics.value("live_total") == 2
        assert [event.topic for event in live.bus.history] == \
            ["second", "first"]
        assert stream.stats()["folded_live"] == 2


# -- streamed byte-identity --------------------------------------------


class TestStreamedByteIdentity:
    def test_streamed_folds_identical_across_backends(self):
        plain, _ = _run("serial")
        expected = _fingerprint(plain)
        # A worker chunk ships one delta; the in-process chunk makes
        # one per item plus the tail.
        for backend, deltas in (("serial", 10), ("process", 3)):
            tel, pool = _run(backend, stream=TelemetryStream())
            assert _fingerprint(tel) == expected, backend
            assert pool.stats.streamed_chunks == pool.stats.chunks
            assert pool.stats.deltas_merged == deltas, backend
            # The stream was offered every delta the session folded.
            assert pool.stream.received == pool.stats.deltas_merged

    def test_serial_streamed_path_counts_one_chunk(self):
        stream = TelemetryStream()
        tel, pool = _run("serial", stream=stream)
        assert pool.stats.chunks == 1
        assert pool.stats.captured_chunks == 1
        assert pool.stats.streamed_chunks == 1
        # 9 items -> 9 per-item deltas + the final tail one.
        assert pool.stats.deltas_merged == 10

    def test_stream_is_reusable_across_map_calls(self):
        stream = TelemetryStream()
        first, pool = _run("process", stream=stream)
        second, _ = _run("process", stream=stream)
        assert _fingerprint(first) == _fingerprint(second)
        assert stream.received == 2 * pool.stats.deltas_merged

    def test_live_view_sees_the_same_workload_totals(self):
        live = observe.Telemetry()
        tel, _ = _run("process", stream=TelemetryStream(live=live))
        assert live.metrics.value("stream_trials_total") == \
            tel.metrics.value("stream_trials_total")
        assert live.bus.counts == tel.bus.counts

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_live_view_holds_the_session_history(self, backend):
        # Deltas reach the live view in the order the session folds
        # them, so it records the same history, whichever worker
        # finished first.
        for _ in range(5):
            live = observe.Telemetry()
            tel, _ = _run(backend, stream=TelemetryStream(live=live))
            assert len(_history(tel)) == 9
            assert _history(live) == _history(tel)
            assert _fingerprint(live) == _fingerprint(tel)

    def test_chunk_failing_in_its_worker_adds_nothing(self):
        plain, _ = _run("serial")
        live = observe.Telemetry()
        pool = ParallelMap(workers=3, stream=TelemetryStream(live=live))
        with observe.session() as tel:
            results = pool.map(flaky_trial, list(range(9)), chunk_size=3)
        assert results == [seed * 2 for seed in range(9)]
        # Chunk [3, 4, 5] failed at seed 4 and reran in the parent.
        assert pool.stats.serial_retries == 1
        assert pool.stats.dropped_snapshots == 1
        assert _fingerprint(tel) == _fingerprint(plain)
        # Only the two good chunks' deltas reach the live view: the
        # failed attempt handed nothing back, and its rerun wrote
        # straight into the session.
        assert pool.stats.deltas_merged == 2
        assert pool.stream.received == 2
        assert live.bus.counts["stream.tick"] == 6
        assert tel.bus.counts["stream.tick"] == 9

    def test_disabled_session_streams_nothing(self):
        pool = ParallelMap(workers=2, stream=TelemetryStream())
        results = pool.map(stream_trial, list(range(6)), chunk_size=3)
        assert results == [seed * 2 for seed in range(6)]
        assert pool.stats.streamed_chunks == 0
        assert pool.stats.deltas_merged == 0


class TestNoHelperProcess:
    def test_streamed_map_leaves_only_the_pool_workers(self):
        # A stream is fed in the process that folds the deltas, so a
        # streamed map leaves no process alive but the pool's workers.
        shutdown_pools()
        _run("process", stream=TelemetryStream(live=observe.Telemetry()))
        workers = set(get_pool(3)._executor._processes)
        assert {child.pid for child in multiprocessing.active_children()} \
            == workers


class TestHashSeedStability:
    def test_streamed_dump_is_hashseed_independent(self):
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, {src!r});"
            "sys.path.insert(0, {here!r});"
            "from test_stream import _run, _fingerprint, EXCLUDE;"
            "from repro.observe.stream import TelemetryStream;"
            "tel, _ = _run('process', stream=TelemetryStream());"
            "print(tel.metrics.render_prometheus(exclude=EXCLUDE))"
        ).format(src=str(pathlib.Path(__file__).resolve()
                         .parents[2] / "src"),
                 here=str(pathlib.Path(__file__).resolve().parent))
        dumps = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env={"PYTHONHASHSEED": seed,
                                "PATH": __import__("os").environ["PATH"]})
            assert proc.returncode == 0, proc.stderr
            dumps.add(proc.stdout)
        assert len(dumps) == 1


# -- dashboard frames --------------------------------------------------


class TestLiveDashboard:
    def _dashboard(self, stream=None):
        from repro.observe.sli import SliMonitor

        live = observe.Telemetry()
        monitor = SliMonitor(live.bus, window=16)
        live.bus.publish("unit.outcome", pattern="nvp", ok=True)
        return LiveDashboard(monitor, stream=stream,
                             cells_total=4,
                             counts=lambda: dict(live.bus.counts))

    def test_frames_validate_and_number_sequentially(self):
        dash = self._dashboard(stream=TelemetryStream())
        first = dash.frame()
        second = dash.frame()
        validate_frame(first)
        validate_frame(second)
        assert first["schema"] == FRAME_SCHEMA
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["final"] is False
        assert first["cells"] == {"done": 0, "total": 4}
        assert first["stream"]["received"] == 0
        # No injected wall clock: elapsed stays None (DET005 — the
        # observe package never reads a process clock itself).
        assert first["elapsed_sec"] is None

    def test_final_frame_embeds_the_report(self):
        dash = self._dashboard()
        final = dash.frame(final=True, report={"schema": "x"})
        validate_frame(final)
        assert final["report"] == {"schema": "x"}

    def test_validate_frame_rejects_final_without_report(self):
        dash = self._dashboard()
        final = dash.frame(final=True, report={"schema": "x"})
        del final["report"]
        with pytest.raises(ValueError):
            validate_frame(final)

    def test_validate_frame_rejects_missing_keys(self):
        dash = self._dashboard()
        frame = dash.frame()
        del frame["sli"]
        with pytest.raises(ValueError):
            validate_frame(frame)
        with pytest.raises(ValueError):
            validate_frame({"schema": "not-a-frame"})
