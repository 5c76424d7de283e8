"""Serial-vs-parallel byte-identity for captured telemetry.

The pool captures each chunk's telemetry in a session in its worker
process and merges the snapshots in submission order, so with a session installed
the merged record of a pooled run must equal the serial run's byte for
byte.  Workload costs here are dyadic (1.0, 0.5) so float summation is
exact under any chunk grouping, and every trial binds the session to
its environment's virtual clock so timestamps are seed-derived rather
than session-relative (see docs/OBSERVABILITY.md).
"""

import os

from repro import observe
from repro.harness.experiment import Experiment
from repro.runtime.pmap import ParallelMap

#: The test process: ``flaky_trial`` fails in any other (a worker).
PARENT_PID = os.getpid()

#: Pool self-metrics are backend-dependent by design; the byte-identity
#: contract covers the workload series only.
EXCLUDE = ("repro_runtime_",)


# -- module-level (picklable) building blocks for the process backend --


def nvp_trial(seed):
    """A telemetry-rich pure trial with dyadic costs only."""
    from repro.adjudicators.voting import MajorityVoter
    from repro.components.library import diverse_versions
    from repro.environment import SimEnvironment
    from repro.exceptions import NoMajorityError
    from repro.techniques.nvp import NVersionProgramming

    env = SimEnvironment(seed=seed)
    tel = observe.current()
    if tel.enabled:
        tel.bind_clock(env.clock)
    voter = MajorityVoter()
    voter.unit_cost = 0.5  # dyadic: exact under any summation grouping
    nvp = NVersionProgramming(
        diverse_versions(lambda x: x + 1, 3, 0.1, seed=seed),
        voter=voter)
    ok = 0
    for x in range(4):
        try:
            ok += nvp.execute(x, env=env) == x + 1
        except NoMajorityError:
            pass
    return {"ok": float(ok)}


def flaky_trial(seed):
    """``nvp_trial``, except that seed 1 fails in a pool worker (not in
    the parent's serial rerun)."""
    if seed == 1 and os.getpid() != PARENT_PID:
        raise RuntimeError("worker-side failure")
    return nvp_trial(seed)


def _run_backend(backend, instrument=False, workers=3):
    """One instrumented experiment run; returns the outer session."""
    with observe.session() as tel:
        experiment = Experiment(
            name="t", trial=nvp_trial, seeds=tuple(range(9)),
            instrument=instrument,
            workers=1 if backend == "serial" else workers)
        results = experiment.run()
    if backend != "serial":
        assert experiment.pool_stats.backend == backend
    return tel, results


def _span_tree(tel):
    return [span.to_dict() for span in tel.tracer.spans]


class TestCapturedTelemetryByteIdentity:
    def test_metric_dumps_identical_across_backends(self):
        serial, _ = _run_backend("serial")
        process, _ = _run_backend("process")
        expected = serial.metrics.render_prometheus(exclude=EXCLUDE)
        assert process.metrics.render_prometheus(exclude=EXCLUDE) \
            == expected
        assert process.metrics.as_dict(exclude=EXCLUDE) \
            == serial.metrics.as_dict(exclude=EXCLUDE)

    def test_span_trees_identical_across_backends(self):
        serial, _ = _run_backend("serial")
        process, _ = _run_backend("process")
        assert _span_tree(process) == _span_tree(serial)
        assert process.tracer.timeline() == serial.tracer.timeline()

    def test_event_history_identical_across_backends(self):
        serial, _ = _run_backend("serial")
        process, _ = _run_backend("process")
        strip = lambda bus: [(e.topic, e.time, e.seq, e.payload)  # noqa: E731
                             for e in bus.history]
        assert strip(process.bus) == strip(serial.bus)
        assert process.bus.counts == serial.bus.counts

    def test_results_identical_across_backends(self):
        _, serial = _run_backend("serial")
        _, process = _run_backend("process")
        assert repr(process) == repr(serial)

    def test_instrumented_trials_nest_inside_capture(self):
        # instrument=True opens a per-trial session inside each worker
        # chunk; it must shadow the chunk capture session and restore
        # it, so digests still match serial.
        serial_tel, serial = _run_backend("serial", instrument=True)
        process_tel, process = _run_backend("process", instrument=True)
        assert [r.telemetry for r in process] == [r.telemetry
                                                  for r in serial]
        # The per-trial sessions swallowed the workload telemetry; the
        # outer sessions agree on that too.
        assert process_tel.metrics.as_dict(exclude=EXCLUDE) \
            == serial_tel.metrics.as_dict(exclude=EXCLUDE)


class TestMidCampaignSessionInstall:
    def test_session_installed_after_pool_creation_is_captured(self):
        # Regression: the capture decision must be taken per chunk at
        # submission time, not once per pool, so a session installed
        # after the pool exists still collects telemetry.
        pool = ParallelMap(workers=2, chunk_size=3)
        pool.map(nvp_trial, range(6))  # no session: nothing captured
        assert pool.stats.captured_chunks == 0
        try:
            tel = observe.install(observe.Telemetry())
            pool.map(nvp_trial, range(6))
            assert pool.stats.captured_chunks == 2
            assert tel.metrics.value(
                "repro_pattern_executions_total",
                pattern="ParallelEvaluation") > 0
            assert len(tel.tracer.spans) > 0
        finally:
            observe.disable()

    def test_serial_retry_of_captured_chunk_reaches_the_session(self):
        with observe.session() as serial:
            expected = [nvp_trial(x) for x in (0, 1)]
        with observe.session() as tel:
            pool = ParallelMap(workers=2, chunk_size=1)
            results = pool.map(flaky_trial, [0, 1])
        assert results == expected
        assert pool.stats.captured_chunks == 2
        assert pool.stats.serial_retries == 1
        assert pool.stats.dropped_snapshots == 1
        # The failed chunk's rerun wrote straight into the session.
        assert tel.metrics.as_dict(exclude=EXCLUDE) \
            == serial.metrics.as_dict(exclude=EXCLUDE)
        assert _span_tree(tel) == _span_tree(serial)


class TestHashSeedStability:
    def test_merged_dump_is_hashseed_independent(self, tmp_path):
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, {src!r});"
            "sys.path.insert(0, {here!r});"
            "from test_parallel_telemetry import _run_backend, EXCLUDE;"
            "tel, _ = _run_backend('process');"
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
