"""Pins for the cost work in the linter: one walk per module, a linear
DIV001, one process-safety scan per module.

The digests below were computed before that work landed, from the same
inputs, so they prove the refactor changed no finding, no certificate
byte and no cached deep summary:

* the JSON report of ``LintEngine(deep=True)`` (less the wall-clock
  ``duration_seconds``) and its determinism certificate, on
  ``tests/fixtures`` and on an in-test package of edge modules;
* the per-module findings and deep summaries of the edge modules parsed
  from their raw text (so CRLF and lone-CR line ends reach the parser:
  the engine reads files with universal newlines);
* every fixture module's ``ModuleSummary.as_dict()``, which a summary
  cache keyed on the unchanged ``SUMMARY_VERSION`` serves as-is.

The edge modules hold no nested trial functions: DET006 attributes a
nested trial's calls to the innermost trial, which is pinned by
``test_lint_rules.TestTrialReseed`` instead.
"""

import ast
import collections
import hashlib
import json
import os

import pytest

from repro.lint import LintEngine, render_json
from repro.lint.deep import (
    SUMMARY_VERSION,
    Certificate,
    DeepAnalysis,
    summarize_module,
)
from repro.lint.registry import ModuleSource
from repro.lint.rules_diversity import parser_lines, source_segment

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
    # Map tasks where the process-safety scan must not look (class
    # bodies, lambda bodies, decorator and default arguments) and where
    # it must (module level, function bodies).
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

#: Computed before the single-walk refactor (see the module docstring).
PINS = {
    "fixtures.report":
        "de4058664a9bd8de7fbec38a4946e84bf27d6c92f3c960c953a50db6bb82ec22",
    "fixtures.certificate":
        "7ec79d7ed9296cf6fba276192f71ac6f381692f177bd4f1c7f44f0d3139ce852",
    "edge.report":
        "ed80bbe2f5ab250d17e344c6f0d5f1895bf945276d68b7ea9ad4945da6d91856",
    "edge.certificate":
        "3d4beea1d88c0926d2b53fce81ee49bd7de8a8f454a403a2af1c7c541e6cd89a",
    "edge.raw_findings":
        "2a52dd43756466716120fb9bf4713270b30722cbbd47c212bd7903563a07836b",
    "edge.raw_summaries":
        "58125cc8c8857ffddaef8170a3c59d1ff7152dcd921c0d66171613d48b389970",
    # The summaries' fingerprints join str.splitlines() lines, so CRLF
    # and LF sources certify alike.
    "edge.raw_certificate":
        "3d4beea1d88c0926d2b53fce81ee49bd7de8a8f454a403a2af1c7c541e6cd89a",
}

#: ``ModuleSummary.as_dict()`` digest of every fixture module.
SUMMARY_PINS = {
    "tests/fixtures/__init__.py":
        "dee59f9887041a5f702a8354bfceb6c94c069f06660e1490757256171b743a55",
    "tests/fixtures/deep_helpers.py":
        "4280e5ee28a07dda6c9381b2a0947ed478c97a95dfea4f0ec2b64e02fc5dffb9",
    "tests/fixtures/deep_planted.py":
        "ac7690741fed3aa65ed65cca1b0e95e87a73e6b1432c4e979a508dae9268f5d6",
    "tests/fixtures/lint_planted.py":
        "457662fa320d80b383c582a02d3e974853fcc8574a69807076e46424ff7f24e5",
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
        assert SUMMARY_VERSION == "lint-deep-summary/v1"
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
    ``ast.get_source_segment`` without the per-call re-split."""

    def _check(self, source):
        lines = parser_lines(source)
        nodes = _defs_and_classes(ast.parse(source))
        for node in nodes:
            assert source_segment(lines, node) == \
                ast.get_source_segment(source, node)
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
            ["a\r\n", "b\r", "c\n", "d\x0ce\x0bf\x1cg\x85h\u2028i\u2029j"]
        assert parser_lines("") == []
        assert parser_lines("x\n") == ["x\n"]


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
        walk = ast.walk
        roots = []

        def counting_walk(node):
            if isinstance(node, ast.Module):
                roots.append(node)
            return walk(node)

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
        monkeypatch.setattr(ast, "get_source_segment", no_segment)
        monkeypatch.setattr(ModuleSource, "parse",
                            classmethod(recording_parse))
        fixtures = os.path.join(REPO, "tests", "fixtures")
        report = LintEngine(deep=True).run([fixtures, "edgepkg"])
        assert report.files == len(parsed) == len(EDGE_SOURCES) + 4
        counts = collections.Counter(id(root) for root in roots)
        assert {id(module.tree) for module in parsed} == set(counts)
        assert set(counts.values()) == {1}
