"""Unit tests for the campaign acceptance gates."""

import pytest

# "tests_gate" is aliased so pytest doesn't collect the import as a
# test function.
from repro.harness.gates import (CONFIDENCE_HIGH, CONFIDENCE_LOW,
                                 CONFIDENCE_MEDIUM, VERDICT_SCHEMA,
                                 bench_gate, drift_gate,
                                 evaluate_campaign)
from repro.harness.gates import tests_gate as matrix_gate
from repro.harness.report import render_verdict
from repro.observe.sli import diff_reports


def _cell(protector, fault, correct, requests=120):
    return {"protector": protector, "fault": fault,
            "survival_rate": correct, "correct_rate": correct,
            "requests": requests}


def _report(requests=120, degrade=False):
    correct_protected = 0.2 if degrade else 0.9
    cells = []
    for fault in ("bohrbug", "heisenbug"):
        cells.append(_cell("retry", fault, correct_protected, requests))
        cells.append(_cell("unprotected", fault, 0.5, requests))
    return {"schema": "repro-campaign-report/v1", "requests": requests,
            "cells": cells,
            "sli": {"schema": "repro-sli-report/v2", "window": 256,
                    "techniques": [
                        {"technique": "retry", "availability": 0.9,
                         "failure_rate": 0.1, "outcomes_seen": 100,
                         "failures_seen": 10, "recoveries_seen": 0}],
                    "stores": []}}


class TestTestsGate:
    def test_passes_a_sane_matrix_with_high_confidence(self):
        result = matrix_gate(_report(requests=120))
        assert result.passed is True
        assert result.confidence == CONFIDENCE_HIGH

    def test_confidence_tracks_workload(self):
        assert matrix_gate(_report(requests=40)).confidence \
            == CONFIDENCE_MEDIUM
        assert matrix_gate(_report(requests=10)).confidence \
            == CONFIDENCE_LOW

    def test_fails_when_protection_hurts(self):
        result = matrix_gate(_report(degrade=True))
        assert result.passed is False
        assert "best protected" in result.detail

    def test_fails_on_out_of_range_rates(self):
        report = _report()
        report["cells"][0]["correct_rate"] = 1.5
        result = matrix_gate(report)
        assert result.passed is False
        assert "outside [0, 1]" in result.detail

    def test_fails_on_empty_report(self):
        assert matrix_gate({"cells": []}).passed is False

    def test_accepts_cell_objects_too(self):
        from repro.harness.campaign import CampaignCell

        cells = [CampaignCell(protector="retry", fault="f",
                              survival_rate=0.9, correct_rate=0.9,
                              requests=120),
                 CampaignCell(protector="unprotected", fault="f",
                              survival_rate=0.3, correct_rate=0.3,
                              requests=120)]
        assert matrix_gate({"cells": cells}).passed is True


class TestDriftGate:
    def test_skipped_without_baseline(self):
        result = drift_gate(_report(), None)
        assert result.passed is None
        assert "skipped" in result.detail

    def test_passes_against_itself(self):
        result = drift_gate(_report(), _report())
        assert result.passed is True
        assert result.confidence == CONFIDENCE_HIGH

    def test_tolerance_softens_rate_drift(self):
        baseline = _report()
        baseline["sli"]["techniques"][0]["availability"] = 0.88
        baseline["sli"]["techniques"][0]["failure_rate"] = 0.12
        strict = drift_gate(_report(), baseline, tolerance=0.0)
        assert strict.passed is False
        soft = drift_gate(_report(), baseline, tolerance=0.05)
        assert soft.passed is True
        assert soft.confidence == CONFIDENCE_MEDIUM

    def test_count_drift_ignores_tolerance(self):
        baseline = _report()
        baseline["sli"]["techniques"][0]["outcomes_seen"] = 99
        result = drift_gate(_report(), baseline, tolerance=0.5)
        assert result.passed is False
        assert "outcomes_seen" in result.detail

    def test_unreadable_baseline_fails_closed(self):
        result = drift_gate(_report(), {"sli": {"schema": "bogus/v9"}})
        assert result.passed is False


class TestBenchGate:
    def test_skipped_without_document(self):
        assert bench_gate(None).passed is None

    def test_accepts_clean_v2_and_rejects_v1_layout(self):
        suite = {"benchmarks": [{"name": f"b{i}"} for i in range(6)],
                 "failures": [], "results_drift": []}
        sectioned = {"schema": "repro-bench-harness/v2", "suite": suite}
        assert bench_gate(sectioned).passed is True
        assert bench_gate(sectioned).confidence == CONFIDENCE_HIGH
        # The flat v1 report is not read as a suite: the gate fails
        # closed and names the schema.
        flat = dict(suite, schema="repro-bench-harness/v1")
        result = bench_gate(flat)
        assert result.passed is False
        assert "'repro-bench-harness/v1'" in result.detail

    def test_fails_on_failures_or_drift(self):
        doc = {"schema": "repro-bench-harness/v2",
               "suite": {"benchmarks": [{"name": "b"}],
                         "failures": ["b"], "results_drift": []}}
        result = bench_gate(doc)
        assert result.passed is False
        assert "failed claim: b" in result.detail
        drifted = {"schema": "repro-bench-harness/v2",
                   "suite": {"benchmarks": [{"name": "b"}, {"name": "c"}],
                             "failures": [], "results_drift": ["T1.txt"]}}
        assert bench_gate(drifted).passed is False


class TestVerdict:
    def test_accepted_verdict_shape(self):
        verdict = evaluate_campaign(_report())
        assert verdict["schema"] == VERDICT_SCHEMA
        assert verdict["is_accepted"] is True
        assert verdict["gates_passed"] == ["tests"]
        assert sorted(verdict["gates_skipped"]) \
            == ["bench-regression", "telemetry-drift"]
        assert len(verdict["gates"]) == 3

    def test_any_failed_gate_rejects(self):
        verdict = evaluate_campaign(_report(degrade=True))
        assert verdict["is_accepted"] is False
        assert verdict["gates_failed"] == ["tests"]

    def test_confidence_is_the_weakest_evaluated(self):
        verdict = evaluate_campaign(
            _report(requests=40), baseline=_report(requests=40))
        assert verdict["confidence"] == CONFIDENCE_MEDIUM
        low = evaluate_campaign(_report(requests=5))
        assert low["confidence"] == CONFIDENCE_LOW

    def test_skipped_gates_never_fail_a_verdict(self):
        verdict = evaluate_campaign(_report())
        assert "telemetry-drift" not in verdict["gates_failed"]
        assert verdict["is_accepted"] is True

    def test_render_verdict_is_readable(self):
        text = render_verdict(evaluate_campaign(_report()))
        assert "ACCEPTED" in text
        assert "tests" in text and "SKIP" in text
        rejected = render_verdict(
            evaluate_campaign(_report(degrade=True)))
        assert "REJECTED" in rejected


class TestDiffReports:
    def _sli(self, availability=0.9, outcomes=100):
        return {"schema": "repro-sli-report/v2", "window": 256,
                "techniques": [
                    {"technique": "t", "availability": availability,
                     "failure_rate": 1 - availability,
                     "outcomes_seen": outcomes, "failures_seen": 0,
                     "recoveries_seen": 0}],
                "stores": []}

    def test_identical_reports_have_no_drift(self):
        assert diff_reports(self._sli(), self._sli()) == []

    def test_v1_baseline_is_rejected(self):
        legacy = self._sli()
        legacy["schema"] = "repro-sli-report/v1"
        with pytest.raises(ValueError, match="'repro-sli-report/v1'"):
            diff_reports(self._sli(), legacy)
        # The drift gate fails closed on it, naming the schema.
        result = drift_gate(_report(), {"sli": legacy})
        assert result.passed is False
        assert "'repro-sli-report/v1'" in result.detail

    def test_technique_set_changes_are_reported(self):
        other = self._sli()
        other["techniques"][0]["technique"] = "other"
        drift = diff_reports(self._sli(), other)
        assert any("missing" in line for line in drift)
        assert any("absent" in line for line in drift)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_reports(self._sli(), self._sli(), tolerance=-1)
