"""One hazard model for the linter.

DET001, DET002 and DET004 are filters over the per-module hazard scan
the deep pass reads too, and every line index (pragma text, baseline
fingerprints, function fingerprints) reads the lines the parser counts.  These tests
show it on data — every module of ``src/repro``, ``tests/fixtures`` and
the frozen corpus — and pin the defects the two hazard models and the
``str.splitlines()`` split used to cause.
"""

import importlib
import importlib.util
import lzma
import os
import sys
import tarfile

import pytest

from repro.harness.experiment import run_trials
from repro.lint import LintEngine, discover_sources
from repro.lint.deep import Certificate, DeepAnalysis, summarize_module
from repro.lint.deep.certificate import callable_fingerprint
from repro.lint.hazards import _HazardScan
from repro.lint.registry import ModuleSource, default_rules

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(REPO, "src", "repro")
CORPUS = os.path.join(REPO, "perfbench", "corpus", "repro-src.tar.xz")

SCAN_RULES = ("DET001", "DET002", "DET004")


def _scan_anchors(module):
    """``(rule, line, col)`` of every scan site a local DET rule owns."""
    anchors = []
    for site in module.shared(_HazardScan).sites():
        if site.iterated:
            rule = "DET004"
        elif site.hazard.kind == "clock":
            rule = "DET002"
        elif site.hazard.kind == "rng" \
                and site.name.startswith("random."):
            rule = "DET001"
        else:
            continue
        anchors.append((rule, site.node.lineno, site.node.col_offset))
    return sorted(anchors)


def _raw_anchors(module, rules):
    """``(rule, line, col)`` of the rules' findings, before pragmas."""
    return sorted((finding.rule, finding.line, finding.col)
                  for rule in rules for finding in rule.check(module))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    with lzma.open(CORPUS) as raw, tarfile.open(fileobj=raw) as tar:
        tar.extractall(root)
    return str(root / "repro")


class TestOneModel:
    def test_det_findings_are_exactly_the_scan_sites(self, corpus):
        rules = default_rules().rules(list(SCAN_RULES))
        trees = (SRC, os.path.join(REPO, "tests", "fixtures"), corpus)
        sources, skipped = discover_sources(trees)
        assert skipped == []
        modules = sites = 0
        for path, text in sources:
            module = ModuleSource.parse(path, text)
            expected = _scan_anchors(module)
            assert _raw_anchors(module, rules) == expected, path
            modules += 1
            sites += len(expected)
        assert modules > 250 and sites >= 3

    def test_method_under_if_debug_gets_summary_hazards(self):
        source = ("import time\n\n\n"
                  "class Client:\n"
                  "    if __debug__:\n"
                  "        def _log(self, line):\n"
                  "            return time.time(), line\n")
        summary = summarize_module(ModuleSource.parse("client.py", source))
        hazards = summary.functions["Client._log"].hazards
        assert [(h.kind, h.detail, h.line) for h in hazards] == \
            [("clock", "wall-clock read time.time()", 7)]


class TestParserLines:
    SOURCE = ("import random\n\n\n"
              "def pick(values):\n"
              "    label = 'a\u2028b'  # a line separator in a string\n"
              "    return label, random.choice(values)"
              "  # lint: allow[DET001]\n")

    def test_pragma_after_a_line_separator_suppresses(self, tmp_path):
        assert LintEngine(select=["DET001"]).lint_source(self.SOURCE) == []
        path = tmp_path / "pick.py"
        path.write_text(self.SOURCE, encoding="utf-8")
        report = LintEngine(select=["DET001"]).run([str(path)])
        assert report.findings == []
        assert report.pragma_suppressed == 1


#: Trials whose static and live fingerprints used to disagree: a U+2028
#: inside a string, and a body that ends in an indented comment; the
#: last line of ``hash_line_trial`` opens with ``#`` but holds code.
TRIALS = (
    "def separator_trial(seed):\n"
    "    label = 'a\u2028b'\n"
    "    return {'value': float(seed + len(label))}\n"
    "\n"
    "\n"
    "def commented_trial(seed):\n"
    "    return {'value': float(seed)}\n"
    "    # the body ends in a comment\n"
    "\n"
    "\n"
    "def hash_line_trial(seed):\n"
    "    label = str(\"\"\"\n"
    "#\"\"\"); return {'value': float(seed + len(label))}\n"
)


@pytest.fixture
def trial_module(tmp_path):
    path = tmp_path / "fresh_trials.py"
    path.write_text(TRIALS, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("fresh_trials", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["fresh_trials"] = module
    yield str(path), module
    sys.modules.pop("fresh_trials", None)


class TestFreshCertificates:
    def test_a_fresh_certificate_is_not_stale(self, trial_module):
        path, module = trial_module
        engine = LintEngine(deep=True)
        engine.run([path])
        certificate = Certificate(engine.analysis.certificate())
        for trial in (module.separator_trial, module.commented_trial,
                      module.hash_line_trial):
            assert certificate.check(trial) == []
            results = run_trials(trial, [0, 1], batch=1,
                                 certify=certificate)
            assert results == run_trials(trial, [0, 1])

    def test_code_on_a_line_that_opens_with_a_hash_is_fingerprinted(
            self):
        edited = TRIALS.replace("float(seed + len(label))}\n",
                                "float(seed - len(label))}\n")
        fingerprints = [
            {fn.qualname: fn.code for fn in summarize_module(
                ModuleSource.parse("fresh_trials.py", text)
            ).functions.values()} for text in (TRIALS, edited)]
        assert fingerprints[0]["commented_trial"] == \
            fingerprints[1]["commented_trial"]
        assert fingerprints[0]["hash_line_trial"] != \
            fingerprints[1]["hash_line_trial"]

    def test_every_importable_src_function_matches_its_certificate(
            self, monkeypatch):
        monkeypatch.chdir(REPO)
        sources, _ = discover_sources(["src/repro"])
        analysis = DeepAnalysis()
        analysis.summarize([ModuleSource.parse(path, text)
                            for path, text in sources])
        analysis.propagate()
        certificate = Certificate(analysis.certificate())
        checked, stale = 0, []
        for key, entry in sorted(certificate.functions.items()):
            module_name, _, qualname = key.partition(":")
            if "<locals>" in qualname:
                continue
            target = importlib.import_module(module_name)
            for part in qualname.split("."):
                target = getattr(target, part, None)
            live = callable_fingerprint(target) if target else None
            if live is None \
                    or getattr(target, "__qualname__", None) != qualname:
                continue
            checked += 1
            if live != entry["code"]:
                stale.append(key)
        assert checked > 900
        assert stale == []
