"""End-to-end tests for ``repro lint`` against the planted fixture.

The fixture (`tests/fixtures/lint_planted.py`) carries exactly one
defect per planted family — a near-clone pair, an unseeded
``random.random()``, an even voting set, a hand-seeded trial RNG — so
the JSON output pins both the detectors and their formatting.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir,
                       "fixtures", "lint_planted.py")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir, os.pardir))


def lint_json(capsys, *argv):
    code = main(["lint", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestPlantedFixture:
    def test_exactly_the_planted_findings_in_json(self, capsys):
        code, payload = lint_json(capsys, FIXTURE)
        rules = [f["rule"] for f in payload["findings"]]
        assert sorted(rules) == ["DET001", "DET006", "DIV001", "PAT001"]
        assert payload["counts"]["by_rule"] == {
            "DET001": 1, "DET006": 1, "DIV001": 1, "PAT001": 1}
        assert payload["counts"]["by_severity"] == {"warning": 4}
        assert payload["files"] == 1
        # All four anchor inside the fixture with real locations.
        for finding in payload["findings"]:
            assert finding["path"].endswith("lint_planted.py")
            assert finding["line"] > 0

    def test_messages_name_the_defects(self, capsys):
        _, payload = lint_json(capsys, FIXTURE)
        by_rule = {f["rule"]: f["message"] for f in payload["findings"]}
        assert "median_filter_a" in by_rule["DIV001"]
        assert "similarity" in by_rule["DIV001"]
        assert "global RNG" in by_rule["DET001"]
        assert "noisy_trial" in by_rule["DET006"]
        assert "trial_stream" in by_rule["DET006"]
        assert "4 versions" in by_rule["PAT001"]

    def test_fail_on_gates_the_exit_code(self, capsys):
        assert main(["lint", FIXTURE, "--fail-on", "warning"]) == 1
        capsys.readouterr()
        assert main(["lint", FIXTURE, "--fail-on", "error"]) == 0
        capsys.readouterr()
        assert main(["lint", FIXTURE, "--fail-on", "never"]) == 0

    def test_select_restricts_rules(self, capsys):
        code, payload = lint_json(capsys, FIXTURE, "--select", "DET001")
        assert [f["rule"] for f in payload["findings"]] == ["DET001"]

    def test_diversity_threshold_is_tunable(self, capsys):
        # The planted pair sits at ~0.91 similarity: caught by the 0.9
        # default, released by a stricter exact-clone-only threshold.
        code, payload = lint_json(capsys, FIXTURE, "--select", "DIV001",
                                  "--diversity-threshold", "1.0")
        assert payload["findings"] == []

    def test_text_format_renders_findings(self, capsys):
        assert main(["lint", FIXTURE]) == 0  # warnings < default error
        out = capsys.readouterr().out
        assert "DET001 warning:" in out
        assert "DET006 warning:" in out
        assert "4 findings (4 warning) in 1 file" in out


class TestCliErrors:
    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "definitely/not/here.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", FIXTURE, "--select", "NOPE1"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_threshold_exits_2(self, capsys):
        assert main(["lint", FIXTURE, "--diversity-threshold", "7"]) == 2
        assert "diversity-threshold" in capsys.readouterr().err

    def test_write_baseline_requires_baseline_path(self, capsys):
        assert main(["lint", FIXTURE, "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err


class TestBaselineWorkflow:
    def test_write_then_gate_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", FIXTURE, "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert "4 findings written" in capsys.readouterr().out
        assert main(["lint", FIXTURE, "--fail-on", "warning",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out
        assert "4 baseline" in out


class TestSelfLintGate:
    def test_repro_tree_is_clean_under_committed_baseline(
            self, capsys, monkeypatch):
        """The CI gate: src/repro passes --fail-on warning."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src/repro", "--fail-on", "warning",
                     "--baseline", "lint-baseline.json"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_a_plain_lint_loads_no_deep_module(self):
        """A lint without ``--deep`` imports none of ``repro.lint.deep``:
        the local rules read the hazard scan from ``repro.lint.hazards``."""
        script = ("import sys\n"
                  "from repro.cli import main\n"
                  "main(['lint', 'tests/fixtures'])\n"
                  "print(sorted(name for name in sys.modules\n"
                  "             if name.startswith('repro.lint.deep')))\n")
        # The child imports the repro package this process imported.
        path = os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(repro.__file__)),
            os.environ.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                             env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert "5 findings" in run.stdout
        assert run.stdout.splitlines()[-1] == "[]"
