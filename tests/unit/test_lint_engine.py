"""Unit tests for the lint engine: discovery, suppression, reporting."""

import json

import pytest

from repro import observe
from repro.lint import (
    Baseline,
    Finding,
    LintEngine,
    at_least,
    discover_files,
    render_json,
    render_text,
    severity_rank,
)

HASHY = "def f(n):\n    return hash(n)\n"


class TestSeverities:
    def test_ordering(self):
        assert severity_rank("info") < severity_rank("warning") \
            < severity_rank("error")
        assert at_least("error", "warning")
        assert not at_least("info", "warning")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            severity_rank("fatal")
        with pytest.raises(ValueError):
            Finding(rule="X", severity="fatal", path="p", line=1, col=0,
                    message="m")


class TestDiscovery:
    def test_walk_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("z = 3\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "d.py").write_text("w = 4\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        found = discover_files([str(tmp_path)])
        assert [f.split("/")[-1] for f in found] == ["a.py", "b.py"]

    def test_named_file_taken_as_is(self, tmp_path):
        target = tmp_path / "script"
        target.write_text("x = 1\n")
        assert discover_files([str(target)]) == [str(target)]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_files([str(tmp_path / "nope")])


class TestRun:
    def test_findings_are_sorted_and_counted(self, tmp_path):
        (tmp_path / "b.py").write_text(HASHY)
        (tmp_path / "a.py").write_text(
            "import time\n\ndef g():\n    return time.time(), hash(g)\n")
        report = LintEngine().run([str(tmp_path)])
        assert [f.path.split("/")[-1] for f in report.findings] == \
            ["a.py", "a.py", "b.py"]
        assert report.files == 2
        assert report.counts_by_rule() == {"DET002": 1, "DET003": 2}
        assert report.counts_by_severity() == {"warning": 3}
        assert report.duration > 0

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = LintEngine().run([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["E000"]
        assert report.findings[0].severity == "error"
        assert report.exit_code("error") == 1

    def test_exit_codes_respect_fail_on(self, tmp_path):
        (tmp_path / "w.py").write_text(HASHY)
        report = LintEngine().run([str(tmp_path)])
        assert report.exit_code("error") == 0
        assert report.exit_code("warning") == 1
        assert report.exit_code("info") == 1
        assert report.exit_code("never") == 0


class TestBaseline:
    def test_roundtrip_suppresses_existing_but_not_new(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(HASHY)
        engine = LintEngine()
        baseline = engine.run_for_baseline([str(target)])
        path = tmp_path / "baseline.json"
        baseline.write(str(path))

        gated = LintEngine(baseline=Baseline.load(str(path)))
        report = gated.run([str(target)])
        assert report.findings == []
        assert report.baseline_suppressed == 1

        target.write_text(HASHY + "\n\ndef g(m):\n    return hash(m)\n")
        gated = LintEngine(baseline=Baseline.load(str(path)))
        report = gated.run([str(target)])
        assert [f.rule for f in report.findings] == ["DET003"]
        assert report.findings[0].line == 6
        assert report.baseline_suppressed == 1

    def test_baseline_survives_line_shifts(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(HASHY)
        baseline = LintEngine().run_for_baseline([str(target)])
        target.write_text("# a new comment\nX = 1\n" + HASHY)
        report = LintEngine(baseline=baseline).run([str(target)])
        assert report.findings == []
        assert report.baseline_suppressed == 1

    def test_multiplicity_is_honoured(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(n):\n"
                          "    return hash(n)\n"
                          "    return hash(n)\n")
        baseline = LintEngine().run_for_baseline([str(target)])
        assert len(baseline) == 2
        # A baseline holding only ONE of the two identical findings
        # must keep flagging the other.
        half = Baseline(baseline.entries[:1])
        report = LintEngine(baseline=half).run([str(target)])
        assert [f.rule for f in report.findings] == ["DET003"]
        assert report.baseline_suppressed == 1

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))


#: One line tripping two rules at once: an unseeded global-RNG draw
#: (DET001) plus a wall-clock read (DET002).
TWO_RULES = ("import random\n"
             "import time\n\n\n"
             "def f():\n"
             "    return random.random() + time.time(){pragma}\n")

#: A clock hazard reachable only transitively (the alias hides it from
#: DET002), behind a decorated trial entry point — for pinning *where*
#: a pragma must sit to silence a deep finding.
DECORATED = ("from time import time as _w\n\n\n"
             "def deco(fn):\n"
             "    return fn\n\n\n"
             "def leaf():\n"
             "    return _w()\n\n\n"
             "@deco{decorator_pragma}\n"
             "def alpha_trial(seed):{def_pragma}\n"
             "    return {{\"value\": float(leaf())}}\n")


class TestPragmaEdgeCases:
    def test_one_line_two_rules_blanket_pragma(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(TWO_RULES.format(pragma="  # lint: allow"))
        report = LintEngine().run([str(target)])
        assert report.findings == []
        assert report.pragma_suppressed == 2

    def test_one_line_two_rules_selective_pragma(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            TWO_RULES.format(pragma="  # lint: allow[DET002]"))
        report = LintEngine().run([str(target)])
        # Only the named rule is silenced; its roommate still fires.
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.pragma_suppressed == 1

    def test_one_line_two_rules_listed_pragma(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            TWO_RULES.format(pragma="  # lint: allow[DET001, DET002]"))
        report = LintEngine().run([str(target)])
        assert report.findings == []
        assert report.pragma_suppressed == 2

    def test_deep_pragma_on_decorator_line_does_not_suppress(
            self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(DECORATED.format(
            decorator_pragma="  # lint: allow[XDET001]",
            def_pragma=""))
        report = LintEngine(deep=True).run([str(target)])
        # Deep findings anchor on the entry's ``def`` line, not on its
        # decorators — a decorator-line pragma misses.
        assert [f.rule for f in report.findings] == ["XDET001"]
        assert report.pragma_suppressed == 0

    def test_deep_pragma_on_def_line_suppresses(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(DECORATED.format(
            decorator_pragma="",
            def_pragma="  # lint: allow[XDET001]"))
        report = LintEngine(deep=True).run([str(target)])
        assert report.findings == []
        assert report.pragma_suppressed == 1

    def test_pragma_wins_before_baseline_is_consulted(self, tmp_path):
        # Seed a baseline with ONE budget unit for the hash(n) finding
        # (fingerprints bind the path, so seed from the same file).
        target = tmp_path / "mod.py"
        target.write_text(HASHY)
        baseline = LintEngine().run_for_baseline([str(target)])
        assert len(baseline) == 1
        # Now two identical findings, the FIRST pragma'd.  Pragma is
        # checked before the baseline, so it must not consume the
        # budget — which the second finding then uses.
        target.write_text("def f(n):\n"
                          "    return hash(n)  # lint: allow[DET003]\n"
                          "    return hash(n)\n")
        report = LintEngine(baseline=baseline).run([str(target)])
        assert report.findings == []
        assert report.pragma_suppressed == 1
        assert report.baseline_suppressed == 1


class TestReporters:
    def _report(self, tmp_path):
        (tmp_path / "m.py").write_text(HASHY)
        return LintEngine().run([str(tmp_path)])

    def test_text_lists_findings_and_summary(self, tmp_path):
        text = render_text(self._report(tmp_path))
        assert "DET003 warning:" in text
        assert "1 finding (1 warning) in 1 file" in text

    def test_json_is_stable_and_parsable(self, tmp_path):
        report = self._report(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["counts"]["by_rule"] == {"DET003": 1}
        assert payload["findings"][0]["rule"] == "DET003"
        assert payload["findings"][0]["line"] == 2
        assert payload["suppressed"] == {"pragma": 0, "baseline": 0}

    def test_clean_run_renders_zero_findings(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        text = render_text(LintEngine().run([str(tmp_path)]))
        assert text.startswith("0 findings (none) in 1 file")


class TestMetrics:
    def test_run_feeds_installed_session(self, tmp_path):
        (tmp_path / "m.py").write_text(
            HASHY + "\nY = hash(f)  # lint: allow[DET003]\n")
        with observe.session() as tel:
            LintEngine().run([str(tmp_path)])
        metrics = tel.metrics.as_dict()
        assert metrics["repro_lint_runs_total"] == 1
        assert metrics["repro_lint_files_scanned_total"] == 1
        assert metrics['repro_lint_findings_total{rule="DET003"}'] == 1
        assert metrics['repro_lint_suppressed_total{layer="pragma"}'] == 1
        assert metrics["repro_lint_run_seconds_count"] == 1

    def test_disabled_session_costs_nothing(self, tmp_path):
        (tmp_path / "m.py").write_text(HASHY)
        report = LintEngine().run([str(tmp_path)])
        assert len(report.findings) == 1  # no crash without telemetry

    def test_lint_scenario_reports_self_lint(self):
        from repro.harness.scenarios import SCENARIOS

        with observe.session() as tel:
            summary = SCENARIOS["lint"](1, 0)
        # The scenario lints a fixed sample module, so its row is
        # exact and does not move with edits to repro's own source.
        assert summary == {"files": 1, "findings": 3,
                           "pragma_suppressed": 1,
                           "severity.warning": 3, "rule.DET001": 1,
                           "rule.DIV001": 1, "rule.PAT001": 1}
        metrics = tel.metrics.as_dict()
        assert metrics["repro_lint_runs_total"] == 1
        assert metrics["repro_lint_files_scanned_total"] == 1
        assert [event.payload for event in tel.bus.history
                if event.topic == "lint.run"] == \
            [{"files": 1, "findings": 3, "suppressed": 1}]


class TestFingerprint:
    def test_ignores_line_numbers_and_path_roots(self):
        base = dict(rule="DET003", severity="warning", col=0,
                    message="m")
        a = Finding(path="src/repro/x/m.py", line=3, **base)
        b = Finding(path="/abs/root/src/repro/x/m.py", line=99, **base)
        line = "    return hash(n)"
        assert a.fingerprint(line) == b.fingerprint(line)
        assert a.fingerprint(line) != a.fingerprint("other text")
