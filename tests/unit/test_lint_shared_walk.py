"""Pins for the cost work in the linter: one walk per module, a linear
DIV001, one hazard scan per module for every rule that reads one.

The digests below were computed before that work landed, from the same
inputs, so they prove the refactor changed no finding, no certificate
byte and no cached deep summary.  They were re-made once since, when
the DET rules moved onto the deep pass's hazard scan and every line
index onto the parser's lines: the edge package then gained one DET001
(``R()`` after ``from random import Random as R``), the pragma'd
``random.choice`` after the U+2028 in ``ff_mod`` became suppressed and
the fingerprints of ``ff_mod``'s functions changed; the fixtures gained
one DET002 (the aliased clock in ``deep_helpers.stamp``); and
``SUMMARY_VERSION`` became v2.  Nothing else moved.  They were re-made
again when ``SUMMARY_VERSION`` became v3 (calls to defs under a
module-level block became call edges, and clock functions handed their
time stopped counting as clock reads) and the PROC rules lost their
``backend='process'`` escalation: with the version string held at v2
every digest still equals its v2 pin except the edge report and raw
findings, whose three PROC001/PROC002 errors became warnings and whose
six PROC messages no longer name a thread fallback.  They were re-made
a third time when ``SUMMARY_VERSION`` became v4, PROC003 and the scan's
warm-pool hazard retired, and PROC001/PROC002 became filters over the
hazard scan's scopes: besides the version string, the edge report and
raw findings lost both PROC003 findings and gained seven PROC001
findings in ``tasks.py`` (class body, lambda body, decorators and
defaults), and ``uses_pool`` lost its warm-pool hazard, so its XPROC001
finding went and the certificates call it picklable.  The fixtures
report did not move.  They were re-made a fourth time when
``SUMMARY_VERSION`` became v5 (``run_batch(fn, …)`` no longer makes
``fn`` a task): only the version string moved, in every certificate
and summary, since no module here calls ``run_batch``.  The digests
cover:

* the JSON report of ``LintEngine(deep=True)`` (less the wall-clock
  ``duration_seconds``) and its determinism certificate, on
  ``tests/fixtures`` and on an in-test package of edge modules;
* the per-module findings and deep summaries of the edge modules parsed
  from their raw text (so CRLF and lone-CR line ends reach the parser:
  the engine reads files with universal newlines);
* every fixture module's ``ModuleSummary.as_dict()``, which a summary
  cache keyed on the same ``SUMMARY_VERSION`` serves as-is.

The edge modules hold no nested trial functions: DET006 attributes a
nested trial's calls to the innermost trial, which is pinned by
``test_lint_rules.TestTrialReseed`` instead.
"""

import ast
import collections
import hashlib
import json
import os
import re

import pytest

from repro.lint import LintEngine, render_json
from repro.lint.deep import (
    SUMMARY_VERSION,
    Certificate,
    DeepAnalysis,
    summarize_module,
)
from repro.lint.hazards import _HazardScan
from repro.lint.registry import ModuleSource, default_rules, parser_lines
from repro.lint.rules_diversity import source_segment

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(REPO, "src", "repro")

#: The edge package: every text shape the segment helper and the
#: shared walk must handle, wired so every local rule family fires.
EDGE_SOURCES = {
    "edgepkg/__init__.py": (
        '"""Edge package: relative imports at every level."""\n'
        "from . import crlf_mod\n"
        "from .nonascii_mod import größe as size\n"
        "from .. import outside\n"
        "from ..sibling.deep import helper as _helper\n"
        "\n"
        "\n"
        "def run_trials_like(fn):\n"
        "    return size(fn) + _helper(fn)\n"
    ),
    # CRLF line ends, a near-clone pair, a third version diverse
    # enough to pass, and a wall-clock read.
    "edgepkg/crlf_mod.py": (
        "import time\r\n"
        "\r\n"
        "\r\n"
        "def smooth_a(values, window):\r\n"
        "    out = []\r\n"
        "    for i in range(len(values)):\r\n"
        "        lo = max(0, i - window)\r\n"
        "        hi = min(len(values), i + window + 1)\r\n"
        "        out.append(sum(values[lo:hi]) / (hi - lo))\r\n"
        "    return out\r\n"
        "\r\n"
        "\r\n"
        "def smooth_b(series, width):\r\n"
        "    result = []\r\n"
        "    for j in range(len(series)):\r\n"
        "        start = max(0, j - width)\r\n"
        "        stop = min(len(series), j + width + 1)\r\n"
        "        result.append(sum(series[start:stop]) / (stop - start))\r\n"
        "    return result\r\n"
        "\r\n"
        "\r\n"
        "def smooth_c(values, window):\r\n"
        "    out = []\r\n"
        "    for i in range(len(values)):\r\n"
        "        lo = max(0, i - window)\r\n"
        "        hi = min(len(values), i + window + 1)\r\n"
        "        out.append(sum(values[lo:hi]) / (hi - lo))\r\n"
        "    return out[::-1]\r\n"
        "\r\n"
        "\r\n"
        "def stamp():\r\n"
        "    return time.time()\r\n"
    ),
    # Lone-CR line ends, a builtin hash() and an os.environ iteration.
    "edgepkg/cr_mod.py": (
        "import os\r"
        "\r"
        "\r"
        "def keyed(name):\r"
        "    return hash(name)\r"
        "\r"
        "\r"
        "def env_names():\r"
        "    return [key for key in os.environ]\r"
        "\r"
        "\r"
        "class Holder:\r"
        "    def clone_a(self, values, window):\r"
        "        out = []\r"
        "        for i in range(len(values)):\r"
        "            lo = max(0, i - window)\r"
        "            hi = min(len(values), i + window + 1)\r"
        "            out.append(sum(values[lo:hi]) / (hi - lo))\r"
        "        return out\r"
        "\r"
        "    def clone_b(self, series, width):\r"
        "        result = []\r"
        "        for j in range(len(series)):\r"
        "            start = max(0, j - width)\r"
        "            stop = min(len(series), j + width + 1)\r"
        "            result.append(sum(series[start:stop]) / (stop - start))\r"
        "        return result\r"
    ),
    # A form feed and a U+2028 inside functions: the parser splits on
    # neither, str.splitlines on both.  The pragma sits after the
    # U+2028, where the two line counts disagree.
    "edgepkg/ff_mod.py": (
        "import random\n"
        "\n"
        "\n"
        "def with_form_feed(values):\n"
        "    total = 0\n"
        "\x0c\n"
        "    for value in values:\n"
        "        total += value\n"
        "    return total\n"
        "\n"
        "\n"
        "def with_line_separator(values):\n"
        "    label = 'a\u2028b'  # a line separator inside a string\n"
        "    picked = random.choice(values)  # lint: allow[DET001]\n"
        "    return label, picked, random.random()\n"
        "\n"
        "\n"
        "def smooth_ff(values, window):\n"
        "    out = []\n"
        "    for i in range(len(values)):\n"
        "\x0c        lo = max(0, i - window)\n"
        "        hi = min(len(values), i + window + 1)\n"
        "        out.append(sum(values[lo:hi]) / (hi - lo))\n"
        "    return out\n"
        "\n"
        "\n"
        "def smooth_ls(series, width):  # \u2028 in a comment\n"
        "    result = []\n"
        "    for j in range(len(series)):\n"
        "        start = max(0, j - width)\n"
        "        stop = min(len(series), j + width + 1)\n"
        "        result.append(sum(series[start:stop]) / (stop - start))\n"
        "    return result\n"
    ),
    # Non-ASCII names and strings before (and inside) a near-clone
    # pair, so byte and character columns differ; decorated clones.
    "edgepkg/nonascii_mod.py": (
        "import functools\n"
        "\n"
        "café = 'naïve — ü'\n"
        "\n"
        "\n"
        "def größe(x): return len('ünïcödé') + x\n"
        "\n"
        "\n"
        "class Ünïcode:\n"
        "    ß = 'straße'\n"
        "\n"
        "    def méthode(self, values, window):\n"
        "        out = []\n"
        "        for i in range(len(values)):\n"
        "            lo = max(0, i - window)\n"
        "            hi = min(len(values), i + window + 1)\n"
        "            out.append(sum(values[lo:hi]) / (hi - lo))\n"
        "        return out, 'é—ü'\n"
        "\n"
        "    def mëthode(self, series, width):\n"
        "        result = []\n"
        "        for j in range(len(series)):\n"
        "            start = max(0, j - width)\n"
        "            stop = min(len(series), j + width + 1)\n"
        "            result.append(sum(series[start:stop]) / (stop - start))\n"
        "        return result, 'ö—ä'\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "@functools.wraps(größe)\n"
        "def décoré_a(values, window):\n"
        "    out = []\n"
        "    for i in range(len(values)):\n"
        "        lo = max(0, i - window)\n"
        "        hi = min(len(values), i + window + 1)\n"
        "        out.append(sum(values[lo:hi]) / (hi - lo))\n"
        "    return tuple(out)\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=128)\n"
        "def décoré_b(series, width):\n"
        "    result = []\n"
        "    for j in range(len(series)):\n"
        "        start = max(0, j - width)\n"
        "        stop = min(len(series), j + width + 1)\n"
        "        result.insert(0, sum(series[start:stop]) / (stop - start))\n"
        "    return tuple(result)\n"
    ),
    # Call chains with two findings of one rule at one (line, col).
    "edgepkg/chains.py": (
        "from repro import techniques as t\n"
        "\n"
        "a = b = c = d = None\n"
        "voters = t.NVersionProgramming([a, b]).NVersionProgramming(\n"
        "    [a, b, c, d])\n"
        "wired = t.ParallelEvaluation([a], adjudicator=None)"
        ".NVersionProgramming([a, b, c], voter=None)\n"
        "seq = t.SequentialAlternatives([a]).SequentialAlternatives([b])\n"
    ),
    # Map tasks in every scope the process-safety rules read: class
    # bodies, lambda bodies, decorator and default arguments, module
    # level and function bodies.
    "edgepkg/tasks.py": (
        "from repro.runtime.pmap import ParallelMap, parallel_map\n"
        "from repro.runtime.pool import get_pool\n"
        "\n"
        "\n"
        "def register(value):\n"
        "    return lambda fn: fn\n"
        "\n"
        "\n"
        "def uses_pool(item):\n"
        "    return get_pool(2), item\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    pool = ParallelMap(backend='process')\n"
        "    results = pool.map(lambda x: x, [1])\n"
        "    more = parallel_map(lambda x: x, [1])\n"
        "\n"
        "\n"
        "handler = lambda: ParallelMap().map(lambda y: y, [2])\n"
        "\n"
        "\n"
        "@register(ParallelMap().map(lambda z: z, [3]))\n"
        "def decorated(v=parallel_map(lambda w: w, [4])):\n"
        "    return v\n"
        "\n"
        "\n"
        "def outer(items):\n"
        "    @register(parallel_map(lambda u: u, items))\n"
        "    def inner(x, d=ParallelMap().map(lambda k: k, items)):\n"
        "        return x\n"
        "\n"
        "    def helper(x):\n"
        "        return x\n"
        "\n"
        "    square = lambda x: x * x\n"
        "    pool = ParallelMap(backend='process')\n"
        "    pool.map(helper, items)\n"
        "    pool.map(square, items)\n"
        "    later.map(helper, items)\n"
        "    later = ParallelMap()\n"
        "    return inner\n"
        "\n"
        "\n"
        "ParallelMap(backend='process').map(lambda q: q, [5])\n"
        "parallel_map(uses_pool, [6])\n"
        "ParallelMap().map(fn=uses_pool, items=[7])\n"
    ),
    # Set iteration inside comprehensions, aliased random imports,
    # re-seeding inside (non-nested) trials, and a batch= keyword.
    "edgepkg/iteration.py": (
        "import random as rnd\n"
        "import datetime\n"
        "from random import choice as pick, seed as s, Random as R\n"
        "\n"
        "items = [1, 2]\n"
        "flat = [y for y in set(items)]\n"
        "nested = [[x for x in {b}] for b in {1, 2}]\n"
        "pairs = {k: v for k, v in zip(frozenset(items), items)}\n"
        "total = sum(z for z in frozenset(items))\n"
        "unique = {w for w in {3, 4}}\n"
        "first = pick(items)\n"
        "draw = rnd.random()\n"
        "now = datetime.datetime.now()\n"
        "\n"
        "\n"
        "def run_trial(seed):\n"
        "    s(seed)\n"
        "    rnd.seed(seed)\n"
        "    return R(seed), rnd.Random(seed), R(), rnd.Random()\n"
        "\n"
        "\n"
        "async def async_trial(seed):\n"
        "    s(seed + 1)\n"
        "    return [q async for q in seed]\n"
        "\n"
        "\n"
        "def launch(run):\n"
        "    return run(trial=run_trial, batch=4)\n"
    ),
    # DET005 fires only under an ``observe`` directory.
    "edgepkg/observe/__init__.py": "",
    "edgepkg/observe/clock.py": (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.perf_counter(), time.monotonic_ns()\n"
    ),
}

#: See the module docstring for when these were computed.
PINS = {
    "fixtures.report":
        "16272491c7f34545f326e08e5c5f3ef2e5634bd19360ce867eb8c36e1b9b7f64",
    "fixtures.certificate":
        "5586c308e5df39a27f8d4f2e92cd3f020eb6eded2cadb972fd49b58085d8ad39",
    "edge.report":
        "aac2360d5ce875cc33460143a8670cabe2dfd31f0b78b152154a0072d6986fad",
    "edge.certificate":
        "28615dccf9891715943318381a002f6a55695aec36f5f8e98ada7386d853fac5",
    "edge.raw_findings":
        "6806d4a1455578ba660697e3bbfdf71500bde67ef6df53282d0f1b51c0c27d8e",
    "edge.raw_summaries":
        "85b83973e4c4360bf3698544e84d16f35b04f11c3ad4095439f3a9fa829986ec",
    # The summaries' fingerprints join the parser's lines with "\n",
    # so CRLF and LF sources certify alike.
    "edge.raw_certificate":
        "28615dccf9891715943318381a002f6a55695aec36f5f8e98ada7386d853fac5",
}

#: ``ModuleSummary.as_dict()`` digest of every fixture module.
SUMMARY_PINS = {
    "tests/fixtures/__init__.py":
        "28065b0dba1657162440729ced6b1f88873f44de51f779ed18080535b0bf19d5",
    "tests/fixtures/deep_helpers.py":
        "e9b639bdad60f4cdc0a1ff93f94fe2b82ac34a5e6522e1407e9ebcb677e51e66",
    "tests/fixtures/deep_planted.py":
        "eb7d51b510e2a5d665d420f822d934b2cd34a12ff7364bf1e97e39c3608fb92d",
    "tests/fixtures/lint_planted.py":
        "db52a651baf5493f18151945f7d5d15678a8d9b14e5a6981c4ebf6027cfd084c",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_digest(payload):
    return _digest(json.dumps(payload, indent=2, sort_keys=True))


def _deep_run(paths):
    """``(report digest, certificate digest)`` of one deep lint run."""
    engine = LintEngine(deep=True)
    report = json.loads(render_json(engine.run(paths)))
    del report["duration_seconds"]
    certificate = Certificate(engine.analysis.certificate()).to_json()
    return _json_digest(report), _digest(certificate)


def _write_edge(root):
    for relative, text in EDGE_SOURCES.items():
        path = os.path.join(root, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _raw_modules():
    return [ModuleSource.parse(relative, text)
            for relative, text in sorted(EDGE_SOURCES.items())]


@pytest.fixture
def in_repo(monkeypatch):
    """Run from the repository root, so report paths are relative."""
    monkeypatch.chdir(REPO)


@pytest.fixture
def edge_root(tmp_path, monkeypatch):
    _write_edge(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestPinnedOutput:
    def test_fixtures_report_and_certificate(self, in_repo):
        report, certificate = _deep_run(["tests/fixtures"])
        assert report == PINS["fixtures.report"]
        assert certificate == PINS["fixtures.certificate"]

    def test_edge_report_and_certificate(self, edge_root):
        report, certificate = _deep_run(["edgepkg"])
        assert report == PINS["edge.report"]
        assert certificate == PINS["edge.certificate"]

    def test_edge_modules_from_raw_text(self, edge_root):
        engine = LintEngine(deep=True)
        found = [finding.as_dict()
                 for module in _raw_modules()
                 for finding in engine.lint_source(module.source,
                                                   module.path)]
        assert _json_digest(found) == PINS["edge.raw_findings"]
        summaries = {module.path: summarize_module(module).as_dict()
                     for module in _raw_modules()}
        assert _json_digest(summaries) == PINS["edge.raw_summaries"]
        analysis = DeepAnalysis()
        analysis.run(_raw_modules())
        certificate = Certificate(analysis.certificate()).to_json()
        assert _digest(certificate) == PINS["edge.raw_certificate"]

    def test_fixture_summaries_serve_from_an_unchanged_cache(
            self, in_repo):
        assert SUMMARY_VERSION == "lint-deep-summary/v5"
        got = {}
        for path in sorted(SUMMARY_PINS):
            with open(path, "r", encoding="utf-8") as handle:
                module = ModuleSource.parse(path, handle.read())
            got[path] = _json_digest(summarize_module(module).as_dict())
        assert got == SUMMARY_PINS


def _defs_and_classes(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _src_files():
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


class TestSegmentHelper:
    """``source_segment`` over ``parser_lines`` is
    ``ast.get_source_segment`` without the per-call re-split, with
    ``\\n`` line ends."""

    def _check(self, source):
        lines = parser_lines(source)
        nodes = _defs_and_classes(ast.parse(source))
        for node in nodes:
            assert source_segment(lines, node) == re.sub(
                r"\r\n?", "\n", ast.get_source_segment(source, node))
        return len(nodes)

    def test_every_def_and_class_of_src(self):
        checked = 0
        for path in _src_files():
            with open(path, "r", encoding="utf-8") as handle:
                checked += self._check(handle.read())
        assert checked > 1000

    def test_every_def_and_class_of_the_edge_modules(self):
        checked = sum(self._check(text) for text in EDGE_SOURCES.values())
        assert checked >= 30

    def test_split_matches_the_parser_not_splitlines(self):
        text = "a\r\nb\rc\nd\x0ce\x0bf\x1cg\x85h\u2028i\u2029j"
        assert parser_lines(text) == \
            ["a", "b", "c", "d\x0ce\x0bf\x1cg\x85h\u2028i\u2029j"]
        assert parser_lines("") == []
        assert parser_lines("x\n") == ["x"]
        assert parser_lines("x\n\n") == ["x", ""]


class TestNodeIndex:
    QUERIES = [
        (ast.Call,),
        (ast.Import, ast.ImportFrom),
        (ast.FunctionDef, ast.AsyncFunctionDef),
        (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp),
    ]

    def test_queries_match_a_filtered_walk_in_walk_order(self):
        for path in _src_files():
            with open(path, "r", encoding="utf-8") as handle:
                module = ModuleSource.parse(path, handle.read())
            for types in self.QUERIES:
                assert module.nodes(*types) == [
                    node for node in ast.walk(module.tree)
                    if isinstance(node, types)]

    def test_scope_queries_stop_at_nested_defs_and_classes(self):
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for path in _src_files():
            with open(path, "r", encoding="utf-8") as handle:
                module = ModuleSource.parse(path, handle.read())
            for scope in (module.tree, *module.nodes(*scopes)):
                owned = []
                todo = collections.deque(ast.iter_child_nodes(scope))
                while todo:
                    node = todo.popleft()
                    owned.append(node)
                    if not isinstance(node, scopes):
                        todo.extend(ast.iter_child_nodes(node))
                for types in self.QUERIES:
                    assert module.nodes(*types, scope=scope) == [
                        node for node in owned if isinstance(node, types)]

    def test_results_are_shared_and_built_once(self):
        module = ModuleSource.parse("m.py", "f(g(x))\n")
        assert module.nodes(ast.Call) is module.nodes(ast.Call)
        calls = []

        def build(mod):
            calls.append(mod)
            return len(mod.nodes(ast.Call))

        assert module.shared(build) == module.shared(build) == 2
        assert calls == [module]


class TestOneWalkPerModule:
    def test_a_deep_run_walks_each_module_tree_once(self, edge_root,
                                                    monkeypatch):
        # A module's one walk is ModuleSource's own, which files every
        # node by scope on the way; an ast.walk of a module counts too.
        walk, module_walk = ast.walk, ModuleSource._walk
        roots = []

        def counting_walk(node):
            if isinstance(node, ast.Module):
                roots.append(node)
            return walk(node)

        def counting_module_walk(module):
            roots.append(module.tree)
            return module_walk(module)

        def no_segment(*args, **kwargs):
            raise AssertionError("ast.get_source_segment re-splits the "
                                 "whole module per call")

        parsed = []
        parse = ModuleSource.parse.__func__

        def recording_parse(cls, path, source):
            module = parse(cls, path, source)
            parsed.append(module)
            return module

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(ModuleSource, "_walk", counting_module_walk)
        monkeypatch.setattr(ast, "get_source_segment", no_segment)
        monkeypatch.setattr(ModuleSource, "parse",
                            classmethod(recording_parse))
        fixtures = os.path.join(REPO, "tests", "fixtures")
        report = LintEngine(deep=True).run([fixtures, "edgepkg"])
        assert report.files == len(parsed) == len(EDGE_SOURCES) + 4
        counts = collections.Counter(id(root) for root in roots)
        assert {id(module.tree) for module in parsed} == set(counts)
        assert set(counts.values()) == {1}

    def test_the_proc_rules_walk_nothing_of_their_own(self, monkeypatch):
        module = ModuleSource.parse("edgepkg/tasks.py",
                                    EDGE_SOURCES["edgepkg/tasks.py"])
        module.shared(_HazardScan)  # the module's one walk, and its scan

        def no_walk(*args, **kwargs):
            raise AssertionError("a PROC rule walked the tree itself")

        rules = default_rules().rules(["PROC001", "PROC002"])
        # The patches are undone before pytest renders a failure.
        with monkeypatch.context() as patched:
            patched.setattr(ast, "walk", no_walk)
            patched.setattr(ast, "iter_child_nodes", no_walk)
            found = sorted((finding.rule, finding.line)
                           for rule in rules
                           for finding in rule.check(module))
        assert found == [("PROC001", line) for line in
                         (15, 16, 19, 22, 23, 28, 29, 38, 44)] \
            + [("PROC002", 37), ("PROC002", 39)]
