"""Unit tests for the experiment harness."""

import math

import pytest

from repro.faults.malicious import AttackPayload
from repro.harness.experiment import Experiment, run_trials, summarize
from repro.harness.report import (
    comparison_row,
    format_cell,
    render_series,
    render_table,
)
from repro.harness.workload import (
    attack_mix,
    load_phases,
    request_stream,
    uniform_inputs,
)


class TestExperiment:
    def test_run_covers_all_seeds(self):
        exp = Experiment(name="e", trial=lambda s: {"x": float(s)},
                         seeds=(1, 2, 3))
        results = exp.run()
        assert [r.seed for r in results] == [1, 2, 3]

    def test_summary_means(self):
        exp = Experiment(name="e", trial=lambda s: {"x": float(s), "y": 1.0},
                         seeds=(0, 10))
        summary = exp.summary()
        assert summary["x"] == 5.0 and summary["y"] == 1.0

    def test_run_trials_functional(self):
        results = run_trials(lambda s: {"v": s * 2.0}, seeds=[1, 2])
        assert summarize(results)["v"] == 3.0

    def test_summarize_empty(self):
        assert summarize([]) == {}

    def test_summarize_reports_stdev(self):
        results = run_trials(lambda s: {"x": float(s)}, seeds=[0, 4])
        summary = summarize(results)
        assert summary["x"] == 2.0
        assert summary["x_stdev"] == pytest.approx(2.8284271247461903)

    @pytest.mark.parametrize("values", [
        [math.inf], [math.nan], [math.inf, 1.0], [math.nan, 1.0]])
    def test_summarize_names_a_non_finite_metric(self, values):
        results = run_trials(lambda s: {"ok": 1.0, "x": values[s]},
                             seeds=range(len(values)))
        with pytest.raises(ValueError,
                           match=r"metric 'x' has a non-finite value "
                                 r"(inf|nan)"):
            summarize(results)

    def test_summarize_single_trial_stdev_is_zero(self):
        assert summarize(run_trials(lambda s: {"x": 3.0},
                                    seeds=[1]))["x_stdev"] == 0.0

    def test_summarize_tolerates_heterogeneous_keys(self):
        # A metric only reported by some trials (e.g. recovery latency
        # when a fault actually struck) averages over its reporters.
        results = run_trials(
            lambda s: {"x": 1.0, "rare": 10.0} if s else {"x": 3.0},
            seeds=[0, 1, 2])
        summary = summarize(results)
        assert summary["x"] == pytest.approx(5.0 / 3.0)
        assert summary["rare"] == 10.0
        assert summary["rare_stdev"] == 0.0

    def test_summary_accepts_precomputed_results(self):
        calls = []

        def trial(seed):
            calls.append(seed)
            return {"x": float(seed)}

        exp = Experiment(name="e", trial=trial, seeds=(1, 3))
        results = exp.run()
        summary = exp.summary(results)
        assert summary["x"] == 2.0
        assert calls == [1, 3]  # trials ran once, not twice

    def test_instrumented_run_attaches_telemetry(self):
        from repro import observe
        from repro.environment import SimEnvironment
        from repro.techniques.nvp import NVersionProgramming
        from repro.components.library import diverse_versions

        def trial(seed):
            env = SimEnvironment(seed=seed)
            nvp = NVersionProgramming(
                diverse_versions(lambda x: x + 1, 3, 0.1, seed=seed))
            for x in range(5):
                nvp.execute(x, env=env)
            return {"executions": float(nvp.stats.executions)}

        plain = Experiment(name="e", trial=trial, seeds=(0, 1)).run()
        instrumented = Experiment(name="e", trial=trial, seeds=(0, 1),
                                  instrument=True).run()
        assert all(r.telemetry is None for r in plain)
        for r in instrumented:
            assert r.telemetry["spans"]["unit.run"]["count"] == 15
        # telemetry never feeds back into the trial
        assert ([r.metrics for r in plain]
                == [r.metrics for r in instrumented])
        assert observe.current().enabled is False


class TestWorkloads:
    def test_uniform_inputs_deterministic(self):
        assert uniform_inputs(10, seed=4) == uniform_inputs(10, seed=4)
        assert uniform_inputs(10, seed=4) != uniform_inputs(10, seed=5)

    def test_uniform_inputs_range(self):
        values = uniform_inputs(100, low=5, high=10, seed=0)
        assert all(5 <= v < 10 for v in values)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_inputs(-1)
        with pytest.raises(ValueError):
            uniform_inputs(1, low=5, high=5)

    def test_request_stream_kinds(self):
        stream = request_stream(50, seed=1, kinds=("a", "b"))
        assert {kind for kind, _ in stream} <= {"a", "b"}
        assert len(stream) == 50

    def test_request_stream_needs_kinds(self):
        with pytest.raises(ValueError):
            request_stream(5, kinds=())

    def test_attack_mix_composition(self):
        mix = attack_mix(benign=10, attacks=4, seed=2)
        attacks = [m for m in mix if isinstance(m, AttackPayload)]
        assert len(attacks) == 4
        assert len(mix) == 14
        kinds = {a.kind for a in attacks}
        assert kinds == {"absolute-address", "code-injection"}

    def test_attack_mix_deterministic(self):
        a = [getattr(m, "kind", m) for m in attack_mix(5, 3, seed=9)]
        b = [getattr(m, "kind", m) for m in attack_mix(5, 3, seed=9)]
        assert a == b

    def test_load_phases(self):
        points = list(load_phases([(3, 0.1), (2, 0.9)], seed=0))
        assert len(points) == 5
        assert [load for _, load in points] == [0.1, 0.1, 0.1, 0.9, 0.9]


class TestReport:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.123456) == "0.1235"
        assert format_cell(1e-6) == "1.00e-06"
        assert format_cell("x") == "x"

    def test_render_table(self):
        text = render_table(("a", "b"), [(1.23456, True)])
        assert "1.235" in text and "yes" in text

    def test_render_series(self):
        text = render_series("n", ("reliability",), [(3, 0.9), (5, 0.99)])
        assert "n" in text and "0.99" in text

    def test_comparison_row(self):
        row = comparison_row("C1", "2k+1 tolerates k", 0.99, True)
        assert row[-1] == "HOLDS"
        assert comparison_row("C1", "x", 1, False)[-1] == "DEVIATES"

    def test_render_telemetry_rows(self):
        from repro.harness.report import render_telemetry

        text = render_telemetry({
            "spans": {"unit.run": {"count": 3, "cost": 3.0, "errors": 1}},
            "events": {"fault.injected": 2},
            "metrics": {"repro_reboots_total": 1.0},
        })
        assert "span" in text and "unit.run" in text
        assert "event" in text and "fault.injected" in text
        assert "metric" in text and "repro_reboots_total" in text
