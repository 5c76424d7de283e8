"""Delta documents, the fold of a map call's deltas, and dashboard
frames.

The contract under test (see docs/OBSERVABILITY.md): a pooled map
call's session — the one ``repro-delta/v1`` document each captured
chunk hands back, folded in submission order — is byte-identical to
the serial run's, and a chunk that fails in its worker adds nothing to
it.  A live view is one more subscriber of that session's bus, so it
sees the session's history row for row.  Workload costs are dyadic and
every trial binds the session to its environment's virtual clock, the
same discipline as ``test_parallel_telemetry``.
"""

import os

import pytest

from repro import observe
from repro.environment import SimEnvironment
from repro.observe.stream import (DELTA_SCHEMA, FRAME_SCHEMA,
                                  LiveDashboard, make_delta,
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


def _run(backend, workers=3, seeds=range(9), seen=None):
    """One run under a session; returns (session, pool).  With a
    ``seen`` list, a subscriber of the session's bus (a live view)
    appends every event it is delivered."""
    pool = ParallelMap(workers=1 if backend == "serial" else workers)
    with observe.session() as tel:
        if seen is not None:
            tel.bus.subscribe("*", seen.append)
        results = pool.map(stream_trial, list(seeds), chunk_size=3)
    assert results == [seed * 2 for seed in seeds]
    assert pool.stats.backend == backend
    return tel, pool


def _snapshot(*counters, topic=None):
    """A minimal real snapshot document for schema tests."""
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


# -- the fold of a map call's deltas ----------------------------------


class TestStreamedByteIdentity:
    def test_streamed_folds_identical_across_backends(self):
        plain, serial = _run("serial")
        # The serial backend runs in the session and captures nothing.
        assert (serial.stats.chunks, serial.stats.captured_chunks) == (1, 0)
        tel, pool = _run("process")
        assert _fingerprint(tel) == _fingerprint(plain)
        # Each worker chunk hands back one delta, folded at its gather.
        assert pool.stats.captured_chunks == pool.stats.chunks == 3

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_live_view_holds_the_session_history(self, backend):
        # A subscriber of the session's bus is delivered every event in
        # the order the session records it: a worker chunk's when the
        # chunk is folded, whichever worker finished first.
        for _ in range(5):
            seen = []
            tel, _ = _run(backend, seen=seen)
            assert len(_history(tel)) == 9
            assert [(e.topic, e.time, e.seq, e.payload)
                    for e in seen] == _history(tel)

    def test_chunk_failing_in_its_worker_adds_nothing(self):
        plain, _ = _run("serial")
        seen = []
        pool = ParallelMap(workers=3)
        with observe.session() as tel:
            tel.bus.subscribe("*", seen.append)
            results = pool.map(flaky_trial, list(range(9)), chunk_size=3)
        assert results == [seed * 2 for seed in range(9)]
        # Chunk [3, 4, 5] failed at seed 4 and reran in the parent.
        assert pool.stats.serial_retries == 1
        assert pool.stats.dropped_snapshots == 1
        assert _fingerprint(tel) == _fingerprint(plain)
        # The failed attempt handed nothing back; its rerun published
        # straight into the session, which a live view reads.
        assert tel.bus.counts["stream.tick"] == 9
        assert len(seen) == 9

    def test_disabled_session_streams_nothing(self):
        pool = ParallelMap(workers=2)
        results = pool.map(stream_trial, list(range(6)), chunk_size=3)
        assert results == [seed * 2 for seed in range(6)]
        assert pool.stats.backend == "process"
        assert pool.stats.captured_chunks == 0


class TestHashSeedStability:
    def test_streamed_dump_is_hashseed_independent(self):
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, {src!r});"
            "sys.path.insert(0, {here!r});"
            "from test_stream import _run, _fingerprint, EXCLUDE;"
            "tel, _ = _run('process');"
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
    def _dashboard(self):
        from repro.observe.sli import SliMonitor

        live = observe.Telemetry()
        monitor = SliMonitor(live.bus, window=16)
        live.bus.publish("unit.outcome", pattern="nvp", ok=True)
        return LiveDashboard(monitor, cells_total=4)

    def test_frames_validate_and_number_sequentially(self):
        dash = self._dashboard()
        first = dash.frame()
        dash.cells_done = 3
        second = dash.frame()
        validate_frame(first)
        validate_frame(second)
        assert FRAME_SCHEMA == "repro-top-frame/v2"
        assert first["schema"] == FRAME_SCHEMA
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["final"] is False
        assert first["cells"] == {"done": 0, "total": 4}
        assert second["cells"] == {"done": 3, "total": 4}
        # v2 frames carry no ``stream`` section.
        assert "stream" not in first
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
