"""Unit tests for the deep whole-program pass (repro.lint.deep).

The planted fixtures (tests/fixtures/deep_helpers.py +
deep_planted.py) hide five hazards two call hops away from their entry
points, across a module boundary.  These tests pin the exact findings
the deep pass produces for them — and that the per-module rules see
only the aliased clock read, at the helper that makes it.
"""

import json
import os

import pytest

from repro.lint import Baseline, LintEngine, discover_sources, render_github
from repro.lint.deep import (
    Certificate,
    DeepAnalysis,
    SUMMARY_VERSION,
    module_name_for,
    summarize_module,
)
from repro.lint.registry import ModuleSource

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.relpath(os.path.join(HERE, "..", "fixtures"))
HELPERS = os.path.join(FIXTURES, "deep_helpers.py")
PLANTED = os.path.join(FIXTURES, "deep_planted.py")
DEEP_RULES = ("XDET001", "XDET002", "XDET003", "XPROC001", "XPROC002")


def _sources():
    out = []
    for path in (HELPERS, PLANTED):
        with open(path, "r", encoding="utf-8") as handle:
            out.append(ModuleSource.parse(path, handle.read()))
    return out


def _deep_report(**kwargs):
    engine = LintEngine(deep=True, **kwargs)
    return engine.run([HELPERS, PLANTED]), engine


class TestLocalRulesMissThePlants:
    def test_no_local_rule_fires_on_any_plant(self):
        report = LintEngine().run([HELPERS, PLANTED])
        # DET002 resolves the ``_wall`` alias, so it reports the clock
        # read where stamp() makes it, not at clock_trial; DET006 on
        # clean_trial's seeded RNG is pragma'd in the fixture.  The
        # other four plants — uuid4, os.getenv, Lock(), global mutation
        # — escape the per-module rules entirely.
        assert [(f.rule, f.path, f.line, f.col)
                for f in report.findings] == [("DET002", HELPERS, 28, 11)]
        assert report.pragma_suppressed == 1

    def test_deep_engine_finds_all_five(self):
        report, _ = _deep_report(select=list(DEEP_RULES))
        assert [f.rule for f in report.findings] == list(DEEP_RULES)
        assert all(f.path == PLANTED for f in report.findings)


class TestPinnedTransitiveFindings:
    """Exact JSON payloads for the transitive findings (>= 2 hops)."""

    def _findings(self):
        report, _ = _deep_report(select=list(DEEP_RULES))
        return {f.rule: f.as_dict() for f in report.findings}

    def test_xdet001_clock_via_alias(self):
        assert self._findings()["XDET001"] == {
            "rule": "XDET001", "severity": "warning",
            "path": PLANTED, "line": 32, "col": 0,
            "message": "trial 'clock_trial' transitively reaches "
                       f"wall-clock read time.time() ({HELPERS}:28) via "
                       "annotate -> stamp (2 call hops); results depend "
                       "on when the run happens, not on seeds",
            "chain": [
                {"function": "tests.fixtures.deep_helpers:annotate",
                 "path": PLANTED, "line": 33},
                {"function": "tests.fixtures.deep_helpers:stamp",
                 "path": HELPERS, "line": 51},
                {"hazard": "clock",
                 "detail": "wall-clock read time.time()",
                 "path": HELPERS, "line": 28},
            ],
        }

    def test_xdet002_entropy(self):
        assert self._findings()["XDET002"] == {
            "rule": "XDET002", "severity": "warning",
            "path": PLANTED, "line": 36, "col": 0,
            "message": "trial 'entropy_trial' transitively reaches "
                       f"OS-entropy draw uuid.uuid4() ({HELPERS}:32) "
                       "via labelled -> fresh_token (2 call hops); "
                       "redundant executions draw different values and "
                       "stop being comparable",
            "chain": [
                {"function": "tests.fixtures.deep_helpers:labelled",
                 "path": PLANTED, "line": 37},
                {"function": "tests.fixtures.deep_helpers:fresh_token",
                 "path": HELPERS, "line": 55},
                {"hazard": "rng",
                 "detail": "OS-entropy draw uuid.uuid4()",
                 "path": HELPERS, "line": 32},
            ],
        }

    def test_xproc002_global_mutation(self):
        assert self._findings()["XPROC002"] == {
            "rule": "XPROC002", "severity": "warning",
            "path": PLANTED, "line": 48, "col": 0,
            "message": "trial 'impure_trial' transitively reaches "
                       "mutates module global '_LEDGER.append()' "
                       f"({HELPERS}:44) via audited -> record (2 call "
                       "hops); parallel and serial runs observe "
                       "different global state",
            "chain": [
                {"function": "tests.fixtures.deep_helpers:audited",
                 "path": PLANTED, "line": 49},
                {"function": "tests.fixtures.deep_helpers:record",
                 "path": HELPERS, "line": 67},
                {"hazard": "global",
                 "detail": "mutates module global '_LEDGER.append()'",
                 "path": HELPERS, "line": 44},
            ],
        }

    def test_all_chains_are_two_hops(self):
        for payload in self._findings().values():
            hops = [h for h in payload["chain"] if "function" in h]
            assert len(hops) == 2
            assert payload["chain"][-1].keys() >= {"hazard", "detail"}

    def test_chain_key_absent_from_local_findings(self):
        report = LintEngine().run([os.path.join("src", "repro", "lint",
                                                "engine.py")])
        # Local rules never attach chains, and as_dict omits the key so
        # pre-deep JSON consumers see unchanged payloads.
        engine = LintEngine()
        findings = engine.lint_source("def f(n):\n    return hash(n)\n")
        assert findings and "chain" not in findings[0].as_dict()
        assert report is not None  # engine ran clean over real source


class TestSuppression:
    def test_pragma_on_entry_def_line_suppresses(self, tmp_path):
        (tmp_path / "leaf.py").write_text(
            "from time import time as t\n\n\ndef low():\n"
            "    return t()\n\n\ndef mid():\n    return low()\n")
        (tmp_path / "entry.py").write_text(
            "from leaf import mid\n\n\n"
            "def my_trial(seed):  # lint: allow[XDET001]\n"
            "    return mid()\n")
        report = LintEngine(deep=True).run([str(tmp_path)])
        # The pragma silences the entry's XDET001; DET002 reports the
        # aliased read where leaf.py makes it.
        assert [(f.rule, os.path.basename(f.path), f.line)
                for f in report.findings] == [("DET002", "leaf.py", 5)]
        assert report.pragma_suppressed == 1

    def test_baseline_roundtrip_and_prune(self, tmp_path):
        engine = LintEngine(deep=True, select=list(DEEP_RULES))
        baseline = engine.run_for_baseline([HELPERS, PLANTED])
        assert len(baseline) == 5

        gated = LintEngine(deep=True, select=list(DEEP_RULES),
                           baseline=baseline)
        report = gated.run([HELPERS, PLANTED])
        assert report.findings == []
        assert report.baseline_suppressed == 5

        # Pruning against a world where only two findings remain drops
        # the other three entries (multiset semantics).
        keep = {e["fingerprint"] for e in baseline.entries[:2]}
        current = {fp: 1 for fp in keep}
        pruned, removed = baseline.pruned(current)
        assert removed == 3
        assert len(pruned) == 2
        assert [e["fingerprint"] for e in pruned.entries] == \
            [e["fingerprint"] for e in baseline.entries[:2]]

    def test_prune_honours_multiplicity(self):
        entries = [{"fingerprint": "aa"}, {"fingerprint": "aa"},
                   {"fingerprint": "bb"}]
        pruned, removed = Baseline(entries).pruned({"aa": 1})
        assert removed == 2
        assert [e["fingerprint"] for e in pruned.entries] == ["aa"]


class TestSummaryCache:
    def test_warm_run_serves_every_module(self, tmp_path):
        from repro.runtime.store import ResultStore

        store_path = str(tmp_path / "summaries.jsonl")
        cold = DeepAnalysis(cache=ResultStore(store_path,
                                              name="lint-deep"))
        cold.run(_sources())
        assert cold.cache_misses == 2 and cold.cache_hits == 0

        # Every miss lands in one append: one serve, one put_many.
        assert cold.cache.puts_batched == cold.cache.writes == 2

        warm = DeepAnalysis(cache=ResultStore(store_path,
                                              name="lint-deep"))
        warm_findings = warm.run(_sources())
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.cache.writes == 0
        assert warm.stats()["summary_cache"]["hit_rate"] == 1.0
        assert [f.as_dict() for f in warm_findings] == \
            [f.as_dict() for f in cold.findings()]

    def test_edited_module_invalidates_only_itself(self, tmp_path):
        from repro.runtime.store import ResultStore

        store_path = str(tmp_path / "summaries.jsonl")
        DeepAnalysis(cache=ResultStore(store_path,
                                       name="lint-deep")).run(_sources())
        helpers, planted = _sources()
        edited = ModuleSource.parse(
            planted.path, planted.source + "\n\nX_EXTRA = 1\n")
        warm = DeepAnalysis(cache=ResultStore(store_path,
                                              name="lint-deep"))
        warm.run([helpers, edited])
        assert warm.cache_hits == 1 and warm.cache_misses == 1

    def test_report_carries_deep_stats(self, tmp_path):
        from repro.runtime.store import ResultStore

        cache = ResultStore(str(tmp_path / "s.jsonl"), name="lint-deep")
        report, _ = _deep_report(deep_cache=cache)
        assert report.deep["modules"] == 2
        assert report.deep["summary_cache"]["misses"] == 2
        payload = json.loads(
            __import__("repro.lint", fromlist=["render_json"])
            .render_json(report))
        assert payload["deep"]["summary_cache"]["misses"] == 2


class TestCertificateExport:
    def test_certificate_records_every_function(self):
        _, engine = _deep_report()
        cert = Certificate(engine.analysis.certificate())
        name, _ = module_name_for(PLANTED)
        clean = cert.functions[f"{name}:clean_trial"]
        assert clean["deterministic"] and clean["picklable"] \
            and clean["pure"]
        assert "hazards" not in clean
        dirty = cert.functions[f"{name}:impure_trial"]
        assert dirty["pure"] is False
        assert dirty["deterministic"] and dirty["picklable"]
        chain = dirty["hazards"]["purity"]
        assert chain[-1]["detail"] == \
            "mutates module global '_LEDGER.append()'"

    def test_import_graph_edge_recorded(self):
        _, engine = _deep_report()
        payload = engine.analysis.certificate()
        planted_name, _ = module_name_for(PLANTED)
        helpers_name, _ = module_name_for(HELPERS)
        assert payload["modules"][planted_name]["imports"] == \
            [helpers_name]
        assert payload["summary_version"] == SUMMARY_VERSION


class TestDiscoverySkipNotes:
    def test_non_utf8_file_is_skipped_with_note(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "binary.py").write_bytes(b"\xff\xfe\x00junk")
        sources, skipped = discover_sources([str(tmp_path)])
        assert [os.path.basename(p) for p, _ in sources] == ["good.py"]
        assert len(skipped) == 1
        assert os.path.basename(skipped[0]["path"]) == "binary.py"
        assert "not UTF-8" in skipped[0]["reason"]

    def test_hidden_files_are_skipped(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / ".hidden.py").write_text("y = 2\n")
        sources, skipped = discover_sources([str(tmp_path)])
        assert [os.path.basename(p) for p, _ in sources] == ["good.py"]
        assert skipped == []

    def test_report_and_json_surface_skips(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "binary.py").write_bytes(b"\xff\xfe\x00junk")
        report = LintEngine().run([str(tmp_path)])
        assert report.files == 2
        assert len(report.skipped) == 1
        from repro.lint import render_json, render_text

        payload = json.loads(render_json(report))
        assert payload["skipped"][0]["path"].endswith("binary.py")
        assert "1 file skipped" in render_text(report)


class TestGithubReporter:
    def test_annotations_and_footer(self):
        report, _ = _deep_report(select=["XDET001"])
        lines = render_github(report).splitlines()
        assert lines[0].startswith(
            f"::warning file={PLANTED},line=32,col=1,title=XDET001::")
        assert lines[-1].startswith("::notice title=repro lint::")

    def test_escaping(self):
        from repro.lint import Finding, LintReport

        finding = Finding(rule="R1", severity="error", path="a,b.py",
                          line=1, col=0, message="bad%thing\nnewline")
        text = render_github(LintReport(findings=[finding], files=1))
        assert "::error file=a%2Cb.py,line=1,col=1,title=R1::" \
               "bad%25thing%0Anewline" in text

    def test_info_maps_to_notice(self):
        from repro.lint import Finding, LintReport

        finding = Finding(rule="R2", severity="info", path="x.py",
                          line=2, col=3, message="fyi")
        assert render_github(
            LintReport(findings=[finding], files=1)).startswith(
            "::notice file=x.py,line=2,col=4,title=R2::fyi")


class TestAliasResolutionUnit:
    """The precise gap the deep pass closes: aliased imports."""

    def test_aliased_clock_is_a_hazard(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("from time import time as _wall\n\n\n"
                        "def stamp():\n    return _wall()\n")
        summary = summarize_module(
            ModuleSource.parse(str(path), path.read_text()))
        hazards = summary.functions["stamp"].hazards
        assert [h.kind for h in hazards] == ["clock"]
        assert hazards[0].detail == "wall-clock read time.time()"

    def test_seeded_random_is_clean(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("import random\n\n\ndef trial(seed):\n"
                        "    return random.Random(seed).random()\n")
        summary = summarize_module(
            ModuleSource.parse(str(path), path.read_text()))
        assert summary.functions["trial"].hazards == []

    def test_seedless_random_is_not(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("import random\n\n\ndef trial():\n"
                        "    return random.Random().random()\n")
        summary = summarize_module(
            ModuleSource.parse(str(path), path.read_text()))
        assert [h.kind for h in summary.functions["trial"].hazards] == \
            ["rng"]


class TestCycleSafety:
    def test_mutually_recursive_clean_functions_converge(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def even_trial(n):\n    return n == 0 or odd(n - 1)\n\n\n"
            "def odd(n):\n    return n != 0 and even_trial(n - 1)\n")
        report = LintEngine(deep=True).run([str(tmp_path)])
        assert report.findings == []

    def test_cycle_with_hazard_still_flags(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import uuid\n\n\n"
            "def ping_trial(n):\n    return pong(n)\n\n\n"
            "def pong(n):\n"
            "    if n <= 0:\n        return uuid.uuid4().hex\n"
            "    return ping_trial(n - 1)\n")
        report = LintEngine(deep=True,
                            select=["XDET002"]).run([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["XDET002"]


def _deep_run_of(tmp_path, source):
    """``(findings, certificate)`` of a deep run over a one-module
    package ``pkg`` holding ``source`` as ``pkg/tasks.py``."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "tasks.py").write_text(source)
    engine = LintEngine(deep=True)
    report = engine.run([str(package)])
    return ([(f.rule, f.line) for f in report.findings],
            engine.analysis.certificate()["functions"])


class TestModuleScopeCallTargets:
    """A def under a module-level ``try`` / ``if`` is a call target like
    one in the module body, so what it reaches reaches its callers."""

    def test_trial_calling_a_guarded_clock_reader_is_not_certified(
            self, tmp_path):
        findings, functions = _deep_run_of(tmp_path, (
            "import time\n"
            "\n"
            "try:\n"
            "    import json\n"
            "except ImportError:\n"
            "    json = None\n"
            "else:\n"
            "    def helper():\n"
            "        return time.time()\n"
            "\n"
            "\n"
            "def run_trial(seed):\n"
            "    return {'t': helper() + seed}\n"))
        assert findings == [("DET002", 9), ("XDET001", 12)]
        assert functions["pkg.tasks:run_trial"]["deterministic"] is False


class TestClockGivenItsTime:
    """``strftime``, ``localtime``, ``gmtime`` and ``ctime`` convert a
    time they are handed; only without one do they read the clock."""

    MODULE = (
        "import time\n"
        "\n"
        "\n"
        "def helper(seed):\n"
        "    t = (2008, 6, 24, 0, 0, seed, 1, 176, 0)\n"
        "    return {call}\n"
        "\n"
        "\n"
        "def run_trial(seed):\n"
        "    return helper(seed)\n")

    @pytest.mark.parametrize("call", [
        "time.strftime('%Y', t)", "time.localtime(seed)",
        "time.gmtime(seed)", "time.ctime(seed)"])
    def test_a_given_time_reads_no_clock(self, tmp_path, call):
        findings, functions = _deep_run_of(
            tmp_path, self.MODULE.format(call=call))
        assert findings == []
        assert functions["pkg.tasks:run_trial"]["deterministic"] is True

    @pytest.mark.parametrize("call", [
        "time.strftime('%Y')", "time.localtime()", "time.gmtime(None)",
        "time.ctime(None)"])
    def test_no_time_or_none_reads_the_clock(self, tmp_path, call):
        findings, functions = _deep_run_of(
            tmp_path, self.MODULE.format(call=call))
        assert findings == [("DET002", 6), ("XDET001", 9)]
        assert functions["pkg.tasks:run_trial"]["deterministic"] is False
