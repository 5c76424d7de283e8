"""Delta-snapshot streaming: schemas, the collector, and byte-identity.

The contract under test (see docs/OBSERVABILITY.md): a streamed map
call's canonical session — the ``repro-delta/v1`` documents each chunk
hands back, folded in emission order — is byte-identical to the plain
captured run, serial or on processes, and a chunk that fails in its worker
adds nothing to it.  Workload costs are dyadic and every trial binds
the session to its environment's virtual clock, the same discipline as
``test_parallel_telemetry``.
"""

import os

import pytest

from repro import observe
from repro.environment import SimEnvironment
from repro.observe.stream import (DELTA_SCHEMA, FRAME_SCHEMA,
                                  LiveDashboard, StreamCollector,
                                  TelemetryStream, make_delta,
                                  validate_delta, validate_frame)
from repro.runtime.pmap import ParallelMap

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


def event_trial(seed):
    """An experiment trial that publishes one event."""
    tel = observe.current()
    if tel.enabled:
        tel.publish("trial.done", seed=seed)
    return {"value": float(seed)}


def _fingerprint(tel):
    """The three byte-identity surfaces of one session."""
    return (
        tel.metrics.render_prometheus(exclude=EXCLUDE),
        [span.to_dict() for span in tel.tracer.spans],
        [(e.topic, e.time, e.seq, e.payload) for e in tel.bus.history],
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


# -- the collector -----------------------------------------------------


class TestStreamCollector:
    def test_invalid_deltas_are_counted_not_raised(self):
        collector = StreamCollector()
        collector.offer({"schema": "garbage"})
        assert collector.stats() == {"received": 0, "folded_live": 0,
                                     "invalid": 1}

    def test_live_view_folds_in_arrival_order(self):
        live = observe.Telemetry()
        collector = StreamCollector(live=live)
        # Arrival order != emission order: the live view keeps arrival.
        collector.offer(make_delta((1, 0), 1,
                                   _snapshot("live_total", topic="second"),
                                   final=True))
        collector.offer(make_delta((1, 0), 0,
                                   _snapshot("live_total", topic="first")))
        assert live.metrics.value("live_total") == 2
        assert [event.topic for event in live.bus.history] == \
            ["second", "first"]
        assert collector.stats()["folded_live"] == 2


# -- streamed byte-identity --------------------------------------------


class TestStreamedByteIdentity:
    def test_streamed_folds_identical_across_backends(self):
        plain, _ = _run("serial")
        expected = _fingerprint(plain)
        for backend in ("serial", "process"):
            tel, pool = _run(backend, stream=TelemetryStream(every=2))
            assert _fingerprint(tel) == expected, backend
            assert pool.stats.streamed_chunks == pool.stats.chunks
            assert pool.stats.deltas_merged >= pool.stats.chunks
            # The tap saw every delta the session folded.
            assert pool.stream.collector.received == \
                pool.stats.deltas_merged

    def test_serial_streamed_path_counts_one_chunk(self):
        stream = TelemetryStream(every=2)
        tel, pool = _run("serial", stream=stream)
        assert pool.stats.chunks == 1
        assert pool.stats.captured_chunks == 1
        assert pool.stats.streamed_chunks == 1
        # 9 items at every=2 -> 4 interim deltas + the final tail one.
        assert pool.stats.deltas_merged == 5

    def test_stream_is_reusable_across_map_calls(self):
        stream = TelemetryStream(every=2)
        first, pool = _run("process", stream=stream)
        second, _ = _run("process", stream=stream)
        assert _fingerprint(first) == _fingerprint(second)
        assert stream.collector.received == 2 * pool.stats.deltas_merged

    def test_activate_twice_raises(self):
        for backend in ("serial", "process"):
            stream = TelemetryStream()
            stream.activate(backend)
            try:
                with pytest.raises(RuntimeError, match="already active"):
                    stream.activate(backend)
            finally:
                stream.deactivate()
            stream.activate(backend)  # reusable once deactivated
            stream.deactivate()

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryStream(every=0)

    def test_live_view_sees_the_same_workload_totals(self):
        live = observe.Telemetry()
        stream = TelemetryStream(every=2, live=live)
        tel, _ = _run("process", stream=stream)
        # Arrival order is nondeterministic, so histories may differ —
        # but the folded totals are commutative and must agree.
        assert live.metrics.value("stream_trials_total") == \
            tel.metrics.value("stream_trials_total")
        assert live.bus.counts == tel.bus.counts

    def test_chunk_failing_in_its_worker_adds_nothing(self):
        plain, _ = _run("serial")
        live = observe.Telemetry()
        pool = ParallelMap(workers=3,
                           stream=TelemetryStream(every=1, live=live))
        with observe.session() as tel:
            results = pool.map(flaky_trial, list(range(9)), chunk_size=3)
        assert results == [seed * 2 for seed in range(9)]
        # Chunk [3, 4, 5] failed at seed 4 and reran in the parent.
        assert pool.stats.serial_retries == 1
        assert pool.stats.dropped_snapshots == 1
        assert _fingerprint(tel) == _fingerprint(plain)
        # The live view kept the failed attempt's interim delta (seed
        # 3's); the two good chunks sent 3 interim + 1 final each.
        assert pool.stats.deltas_merged == 8
        assert pool.stream.collector.received == 9
        assert live.bus.counts["stream.tick"] == 7
        assert tel.bus.counts["stream.tick"] == 9

    def test_disabled_session_streams_nothing(self):
        pool = ParallelMap(workers=2, stream=TelemetryStream(every=2))
        results = pool.map(stream_trial, list(range(6)), chunk_size=3)
        assert results == [seed * 2 for seed in range(6)]
        assert pool.stats.streamed_chunks == 0
        assert pool.stats.deltas_merged == 0


class TestOneWorkerExperiment:
    @pytest.mark.parametrize("batch,deltas", [(None, 5), (2, 5)])
    def test_streams_into_the_live_view(self, batch, deltas):
        # A one-worker experiment hands its map to the pool, batched or
        # not, so its stream taps a delta per seed (a batch is a chunk
        # of seeds) plus a final one, and folds what a plain run holds.
        from repro.harness.experiment import Experiment

        def run(stream):
            with observe.session(events_only=True) as tel:
                Experiment(name="live", trial=event_trial, seeds=range(4),
                           workers=1, batch=batch, stream=stream).run()
            return [(e.topic, e.time, e.seq, e.payload)
                    for e in tel.bus.history]

        stream = TelemetryStream(every=1)
        streamed = run(stream)
        assert stream.collector.stats()["received"] == deltas
        assert streamed == run(None)
        assert len(streamed) == 4


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
            "tel, _ = _run('process', stream=TelemetryStream(every=2));"
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
    def _dashboard(self, collector=None):
        from repro.observe.sli import SliMonitor

        live = observe.Telemetry()
        monitor = SliMonitor(live.bus, window=16)
        live.bus.publish("unit.outcome", pattern="nvp", ok=True)
        return LiveDashboard(monitor, collector=collector,
                             cells_total=4,
                             counts=lambda: dict(live.bus.counts))

    def test_frames_validate_and_number_sequentially(self):
        dash = self._dashboard(collector=StreamCollector())
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
