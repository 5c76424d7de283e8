"""Unit tests for the individual lint rule families."""

import ast
import os
import textwrap

import pytest

from repro.lint import LintEngine, discover_sources, pairwise_similarity
from repro.lint import rules_diversity
from repro.lint.diversity import (
    ast_fingerprint,
    normalize_tokens,
    shingles,
    similarity,
)
from repro.lint.registry import ModuleSource
from repro.lint.rules_diversity import (
    MIN_TOKENS,
    NearCloneRule,
    _shape,
    module_functions,
)

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir))


def findings(source, select=None):
    engine = LintEngine(select=select)
    return engine.lint_source(textwrap.dedent(source))


def rule_ids(source, select=None):
    return [f.rule for f in findings(source, select)]


class TestUnseededRandom:
    def test_module_level_random_call_is_flagged(self):
        src = """
            import random

            def roll():
                return random.random()
        """
        assert rule_ids(src) == ["DET001"]

    def test_aliased_import_is_tracked(self):
        src = """
            import random as rnd

            def mix(xs):
                rnd.shuffle(xs)
        """
        assert rule_ids(src) == ["DET001"]

    def test_from_import_is_tracked(self):
        src = """
            from random import choice

            def pick(xs):
                return choice(xs)
        """
        assert rule_ids(src) == ["DET001"]

    def test_seedless_random_instance_is_flagged(self):
        src = """
            import random

            def make_rng():
                return random.Random()
        """
        assert rule_ids(src) == ["DET001"]

    def test_seeded_instance_and_methods_are_clean(self):
        src = """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random() + rng.randrange(10)
        """
        assert rule_ids(src) == []


class TestWallClock:
    def test_time_time_is_flagged(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert rule_ids(src) == ["DET002"]

    def test_datetime_now_is_flagged(self):
        src = """
            from datetime import datetime

            def today():
                return datetime.now()
        """
        assert rule_ids(src) == ["DET002"]

    def test_aliased_clock_and_strftime_are_flagged(self):
        src = """
            import time as _time
            from time import strftime

            def stamp():
                return _time.time(), strftime("%H")
        """
        assert [(f.line, f.col, f.message.split(" reads")[0])
                for f in findings(src)] == [(6, 11, "_time.time()"),
                                            (6, 25, "strftime()")]

    def test_interval_clocks_are_clean(self):
        src = """
            import time

            def measure():
                start = time.perf_counter()
                return time.perf_counter() - start, time.process_time()
        """
        assert rule_ids(src) == []


class TestBuiltinHash:
    def test_hash_call_is_flagged(self):
        assert rule_ids("def f(name):\n    return hash(name) % 7\n") \
            == ["DET003"]

    def test_hashlib_is_clean(self):
        src = """
            import hashlib

            def f(name):
                return hashlib.sha1(name).hexdigest()
        """
        assert rule_ids(src) == []


class TestEnvIteration:
    def test_set_literal_iteration_is_flagged(self):
        assert rule_ids("for x in {1, 2, 3}:\n    print(x)\n") \
            == ["DET004"]

    def test_set_call_iteration_is_flagged(self):
        assert rule_ids("out = [x for x in set(range(3))]\n") \
            == ["DET004"]

    def test_os_environ_iteration_is_flagged(self):
        src = """
            import os

            def dump():
                return [key for key in os.environ]
        """
        assert rule_ids(src) == ["DET004"]

    def test_sorted_wrapping_is_clean(self):
        src = """
            import os

            def dump():
                for key in sorted(os.environ):
                    print(key)
                return [x for x in sorted({1, 2})]
        """
        assert rule_ids(src) == []


class TestObserveClock:
    SOURCE = textwrap.dedent("""
        import time as t
        from time import perf_counter, monotonic_ns as ticks
        from repro.observe.clock import perf_counter as injected

        def stamp(clock):
            return (t.perf_counter(), perf_counter(), ticks(), injected(),
                    clock.monotonic())
    """)

    def test_aliased_and_from_imported_clocks_are_flagged(self):
        engine = LintEngine(select=["DET005"])
        found = engine.lint_source(self.SOURCE, "repro/observe/clock.py")
        assert [(f.line, f.message.split("()")[0]) for f in found] == [
            (7, "t.perf_counter"), (7, "perf_counter"), (7, "ticks")]
        assert engine.lint_source(self.SOURCE,
                                  "repro/runtime/clock.py") == []


class TestTrialReseed:
    def test_seeded_random_in_trial_function_is_flagged(self):
        src = """
            import random

            def trial(seed):
                rng = random.Random(seed)
                return {"v": rng.random()}
        """
        assert rule_ids(src, select=["DET006"]) == ["DET006"]

    def test_random_seed_in_trial_function_is_flagged(self):
        src = """
            import random

            def run_trial(seed):
                random.seed(seed)
        """
        assert rule_ids(src, select=["DET006"]) == ["DET006"]

    def test_from_import_aliases_are_tracked(self):
        src = """
            from random import Random as R, seed as reseed

            def my_trial(s):
                reseed(s)
                return R(s)
        """
        assert rule_ids(src, select=["DET006"]) \
            == ["DET006", "DET006"]

    def test_nested_trial_reports_its_reseed_once(self):
        src = """
            import random

            def run_trial(seed):
                def trial_step():
                    random.seed(seed)
                trial_step()
        """
        found = findings(src, select=["DET006"])
        assert [(f.line, f.col) for f in found] == [(6, 8)]
        assert "inside trial 'trial_step'" in found[0].message

    def test_nested_helper_calls_stay_with_the_trial(self):
        src = """
            import random

            def run_trial(seed):
                def helper():
                    random.seed(seed)
                helper()
        """
        found = findings(src, select=["DET006"])
        assert len(found) == 1
        assert "inside trial 'run_trial'" in found[0].message

    def test_non_trial_functions_are_out_of_scope(self):
        src = """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """
        assert rule_ids(src, select=["DET006"]) == []

    def test_seedless_random_is_det001s_business(self):
        src = """
            import random

            def trial(seed):
                return random.Random()
        """
        assert rule_ids(src, select=["DET006"]) == []

    def test_escalates_to_error_in_batched_modules(self):
        src = """
            import random
            from repro.harness import run_trials

            def trial(seed):
                rng = random.Random(seed)
                return {"v": rng.random()}

            results = run_trials(trial, range(8), batch=4)
        """
        found = findings(src, select=["DET006"])
        assert [f.severity for f in found] == ["error"]

    def test_warning_without_batch_keyword(self):
        src = """
            import random

            def trial(seed):
                return {"v": random.Random(seed).random()}
        """
        found = findings(src, select=["DET006"])
        assert [f.severity for f in found] == ["warning"]

    def test_trial_stream_pattern_is_clean(self):
        src = """
            from repro.runtime.kernel import trial_stream

            def trial(seed):
                rng = trial_stream(seed, 0)
                return {"v": rng.random()}
        """
        assert rule_ids(src, select=["DET006"]) == []


class TestProcessSafety:
    def test_lambda_task_is_flagged(self):
        src = """
            from repro.runtime import parallel_map

            def run(xs):
                return parallel_map(lambda x: x + 1, xs)
        """
        assert rule_ids(src) == ["PROC001"]

    def test_lambda_bound_name_is_flagged(self):
        src = """
            from repro.runtime import ParallelMap

            def run(xs):
                double = lambda x: x * 2
                pool = ParallelMap(workers=4)
                return pool.map(double, xs)
        """
        assert rule_ids(src) == ["PROC001"]

    def test_lambda_task_warns_of_the_serial_loop(self):
        src = """
            from repro.runtime import ParallelMap

            def run(xs):
                return ParallelMap(workers=2).map(lambda x: x, xs)
        """
        result = findings(src)
        assert [f.rule for f in result] == ["PROC001"]
        assert result[0].severity == "warning"
        assert "runs in the serial loop" in result[0].message

    def test_nested_def_task_is_flagged(self):
        src = """
            from repro.runtime import parallel_map

            def run(xs, offset):
                def shifted(x):
                    return x + offset
                return parallel_map(shifted, xs)
        """
        assert rule_ids(src) == ["PROC002"]

    def test_module_level_def_is_clean(self):
        src = """
            from repro.runtime import ParallelMap

            def work(x):
                return x + 1

            def run(xs):
                pool = ParallelMap(workers=2)
                return pool.map(work, xs)
        """
        assert rule_ids(src) == []

    # A pool worker runs pools of its own (the registry is pid-guarded
    # and tears down at worker exit), so a task that imports or calls
    # the warm-pool API is no finding.
    def test_task_touching_pool_api_is_clean(self):
        src = """
            from repro.runtime import parallel_map
            from repro.runtime.pool import get_pool

            def work(x):
                return get_pool(2).acquire().submit(abs, x)

            def run(xs):
                return parallel_map(work, xs)
        """
        assert rule_ids(src) == []

    def test_task_importing_pool_module_is_clean(self):
        src = """
            from repro.runtime import parallel_map

            def work(x):
                import repro.runtime.pool
                return x

            def run(xs):
                return parallel_map(work, xs)
        """
        assert rule_ids(src) == []

    def test_pool_rule_is_retired(self):
        src = """
            from repro.runtime import ParallelMap
            from repro.runtime.pool import shutdown_pools

            def work(x):
                shutdown_pools()
                return x

            def run(xs):
                pool = ParallelMap(workers=2)
                return pool.map(work, xs)
        """
        assert findings(src) == []
        assert "PROC003" not in LintEngine().registry

    def test_parent_side_pool_use_is_clean(self):
        src = """
            from repro.runtime import ParallelMap
            from repro.runtime.pool import shutdown_pools

            def work(x):
                return x + 1

            def run(xs):
                pool = ParallelMap(workers=2)
                try:
                    return pool.map(work, xs)
                finally:
                    shutdown_pools()
        """
        assert rule_ids(src) == []

    def test_maps_in_every_scope_of_the_scan_are_seen(self):
        # Class bodies, lambda bodies and a def's decorators and
        # defaults: each map call is read from the scope that owns it.
        src = """
            from repro.runtime import ParallelMap, parallel_map

            def register(value):
                return value

            class Holder:
                pool = ParallelMap(workers=2)
                results = pool.map(lambda x: x, [1])

            handler = lambda: parallel_map(lambda y: y, [2])

            @register(ParallelMap().map(lambda z: z, [3]))
            def decorated(v=parallel_map(lambda w: w, [4])):
                return v
        """
        assert [(f.rule, f.line) for f in findings(src)] == [
            ("PROC001", 9), ("PROC001", 11), ("PROC001", 13),
            ("PROC001", 14)]

    def test_one_functions_nested_def_does_not_taint_another(self):
        src = """
            from repro.runtime import parallel_map

            def work(x):
                return x + 1

            def unrelated():
                def work():
                    return 0
                return work()

            def run(xs):
                return parallel_map(work, xs)
        """
        assert rule_ids(src) == []


class TestPatternMisuse:
    def test_even_literal_voting_set_is_flagged(self):
        src = """
            from repro import NVersionProgramming

            def build(a, b):
                return NVersionProgramming([a, b])
        """
        assert rule_ids(src) == ["PAT001"]

    def test_even_population_count_is_flagged(self):
        src = """
            from repro import NVersionProgramming, diverse_versions

            def build(oracle):
                return NVersionProgramming(
                    diverse_versions(oracle, 4, 0.1, seed=1))
        """
        assert rule_ids(src) == ["PAT001"]

    def test_odd_sets_and_unknown_sizes_are_clean(self):
        src = """
            from repro import NVersionProgramming

            def build(a, b, c, extras):
                NVersionProgramming([a, b, c])
                NVersionProgramming([a, *extras])
                return NVersionProgramming(extras)
        """
        assert rule_ids(src) == []

    def test_explicit_none_adjudicator_is_flagged(self):
        src = """
            from repro.patterns import ParallelEvaluation

            def build(units):
                return ParallelEvaluation(units, adjudicator=None)
        """
        assert rule_ids(src) == ["PAT002"]

    def test_sequential_without_subject_is_info(self):
        src = """
            from repro.patterns import SequentialAlternatives

            def build(units):
                return SequentialAlternatives(units)
        """
        result = findings(src)
        assert [f.rule for f in result] == ["PAT003"]
        assert result[0].severity == "info"

    def test_sequential_with_subject_is_clean(self):
        src = """
            from repro.patterns import SequentialAlternatives

            def build(units, state):
                return SequentialAlternatives(units, subject=state)
        """
        assert rule_ids(src) == []


BIG_BODY = """
def {name}({arg}):
    \"\"\"Accumulate a running checksum over the request payload.\"\"\"
    total = 0
    for index, item in enumerate({arg}):
        if item < 0:
            total -= index * item + 17
        elif item % 3 == 0:
            total += item * item - index
        else:
            total += item + index * 31
    if total < 0:
        total = -total + 255
    return total % 65521
"""


#: One function written twice: an ``elif`` chain against nested
#: ``else: if``, redundant parentheses and one-line suites.  The
#: normalized ASTs are equal; the token streams are far apart.
ELIF_CHAIN = """
def classify(value, limit):
    \"\"\"Bucket a reading against its limit.\"\"\"
    if value < 0:
        label = "negative"
    elif value == 0:
        label = "zero"
    elif value < limit:
        label = "small"
    else:
        label = "large"
    history.append((label, value))
    return label, value * 2 + limit
"""

NESTED_ELSE = """
def bucket(amount, bound):
    \"\"\"Bucket a reading against its limit.\"\"\"
    if (amount < 0): label = "negative"
    else:
        if (amount == 0): label = "zero"
        else:
            if amount < (bound): label = "small"
            else: label = "large"
    history.append(((label), amount))
    return (label, (amount * 2) + bound)
"""

#: A small def nested in the functions below, decorated on one side.
NESTED_DEF = """
def outer(items, scale):
    {decorator}def inner(item):
        return item * scale + len(items)
    ordered = sorted(items, key=inner)
    for index, item in enumerate(ordered):
        if item > scale:
            ordered[index] = inner(item) - scale
    return ordered, inner(scale)
"""


def near_clones(source, threshold=0.9):
    """DIV001's own findings, before pragmas and baseline."""
    module = ModuleSource.parse("<memory>", textwrap.dedent(source))
    return list(NearCloneRule(threshold).check(module))


def top_shape(source):
    return _shape(ast.parse(textwrap.dedent(source)).body[0])


def reference_check(rule, module):
    """DIV001 with every candidate fingerprinted, shapes unused."""
    functions = []
    for qualname, node, segment in module_functions(module):
        tokens = normalize_tokens(segment)
        if len(tokens) < MIN_TOKENS:
            continue
        functions.append((qualname, node, shingles(tokens),
                          ast_fingerprint(segment)))
    for i, (name_a, node_a, sh_a, fp_a) in enumerate(functions):
        for name_b, node_b, sh_b, fp_b in functions[i + 1:]:
            if fp_a is not None and fp_a == fp_b:
                score = 1.0
            else:
                shared = len(sh_a & sh_b)
                union = len(sh_a) + len(sh_b) - shared
                score = (shared / union) if union else 1.0
            if score >= rule.threshold:
                yield rule.finding(
                    module, node_b,
                    f"'{name_b}' is a near-clone of '{name_a}' "
                    f"(similarity {score:.2f}, diversity "
                    f"{1 - score:.2f}): correlated-fault risk — "
                    f"diversify the implementation or merge the "
                    f"duplicates")


@pytest.fixture(scope="module")
def repo_modules():
    sources, _ = discover_sources([os.path.join(REPO, "src", "repro"),
                                   os.path.join(REPO, "tests", "fixtures")])
    return [ModuleSource.parse(path, source) for path, source in sources]


class TestNearClones:
    def test_renamed_clone_pair_is_flagged_with_score(self):
        src = (BIG_BODY.format(name="checksum_a", arg="payload")
               + BIG_BODY.format(name="checksum_b", arg="items"))
        result = findings(src, select=["DIV001"])
        assert len(result) == 1
        assert "similarity 1.00" in result[0].message
        assert "checksum_a" in result[0].message

    def test_distinct_functions_are_clean(self):
        other = """
def totally_different(text):
    \"\"\"Render a report header.\"\"\"
    lines = [text.upper(), "=" * len(text)]
    for suffix in ("a", "b", "c"):
        lines.append(text + suffix + "!")
    while len(lines) < 9:
        lines.append("padding: " + str(len(lines)))
    return "\\n".join(lines)
"""
        src = BIG_BODY.format(name="checksum", arg="payload") + other
        assert rule_ids(src, select=["DIV001"]) == []

    def test_tiny_twins_are_skipped(self):
        src = """
def get_a(self):
    return self.a

def get_b(self):
    return self.a
"""
        assert rule_ids(src, select=["DIV001"]) == []

    def test_formatting_only_clones_score_one(self):
        assert similarity(ELIF_CHAIN, NESTED_ELSE) < 0.9
        result = near_clones(ELIF_CHAIN + NESTED_ELSE)
        assert len(result) == 1
        assert "'bucket' is a near-clone of 'classify' " \
            "(similarity 1.00" in result[0].message

    def test_a_decorator_on_one_side_only(self):
        # The def's own decorators are outside its segment, so neither
        # the fingerprint nor the shape sees them.
        decorated = NESTED_ELSE.replace(
            "\ndef ", "\n@functools.lru_cache(maxsize=None)\ndef ")
        result = near_clones(ELIF_CHAIN + decorated)
        assert len(result) == 1
        assert "(similarity 1.00" in result[0].message
        # A nested def's decorators are inside it: both see them.
        plain = NESTED_DEF.format(decorator="")
        nested = NESTED_DEF.format(decorator="@staticmethod\n    ")
        assert top_shape(plain) != top_shape(nested)
        assert ast_fingerprint(plain) != ast_fingerprint(nested)
        result = near_clones(plain + nested.replace("outer", "other"),
                             threshold=0.5)
        assert len(result) == 1
        score = similarity(plain, nested)
        assert score < 1.0
        assert f"(similarity {score:.2f}" in result[0].message

    def test_same_shape_with_another_attribute_is_scored_by_jaccard(
            self):
        extend = NESTED_ELSE.replace(".append", ".extend")
        assert top_shape(ELIF_CHAIN) == top_shape(extend)
        assert ast_fingerprint(ELIF_CHAIN) != ast_fingerprint(extend)
        assert near_clones(ELIF_CHAIN + extend) == []
        score = similarity(ELIF_CHAIN, extend)
        [result] = near_clones(ELIF_CHAIN + extend, threshold=score)
        assert f"(similarity {score:.2f}" in result.message
        assert score < 0.9

    def test_only_functions_sharing_a_shape_are_fingerprinted(
            self, monkeypatch):
        calls = []

        def counted(segment):
            calls.append(segment)
            return ast_fingerprint(segment)

        monkeypatch.setattr(rules_diversity, "ast_fingerprint", counted)
        distinct = (BIG_BODY.format(name="checksum", arg="payload")
                    + ELIF_CHAIN + NESTED_DEF.format(decorator=""))
        assert near_clones(distinct) == []
        assert calls == []
        assert len(near_clones(distinct + NESTED_ELSE)) == 1
        assert len(calls) == 2
        assert calls[0].startswith("def classify(")
        assert calls[1].startswith("def bucket(")

    @pytest.mark.parametrize("threshold", [0.9, 0.5])
    def test_matches_fingerprinting_every_function(self, repo_modules,
                                                   threshold):
        rule = NearCloneRule(threshold)
        for module in repo_modules:
            assert list(rule.check(module)) == \
                list(reference_check(rule, module)), module.path


class TestPairwiseSimilarity:
    def test_each_source_is_tokenized_once(self, monkeypatch):
        sources = [ELIF_CHAIN, NESTED_ELSE,
                   NESTED_DEF.format(decorator=""),
                   BIG_BODY.format(name="checksum", arg="payload")]
        calls = []

        def counted(source):
            calls.append(source)
            return normalize_tokens(source)

        monkeypatch.setattr(rules_diversity, "normalize_tokens", counted)
        matrix = pairwise_similarity(sources)
        assert calls == sources
        for i, source_a in enumerate(sources):
            for j, source_b in enumerate(sources):
                expected = 1.0 if i == j else similarity(source_a, source_b)
                assert matrix[i][j] == expected


class TestPragmas:
    def test_bare_allow_suppresses_any_rule(self):
        assert rule_ids(
            "def f(n):\n    return hash(n)  # lint: allow\n") == []

    def test_scoped_allow_suppresses_named_rule(self):
        assert rule_ids(
            "def f(n):\n"
            "    return hash(n)  # lint: allow[DET003]\n") == []

    def test_scoped_allow_for_other_rule_does_not_suppress(self):
        assert rule_ids(
            "def f(n):\n"
            "    return hash(n)  # lint: allow[DET001]\n") == ["DET003"]


class TestRegistry:
    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            LintEngine(select=["NOPE999"])

    def test_all_rule_ids_are_unique_and_familied(self):
        from repro.lint import default_rules

        registry = default_rules()
        ids = registry.ids()
        assert len(ids) == len(set(ids)) >= 10
        families = {rid.rstrip("0123456789") for rid in ids}
        assert families == {"DET", "PROC", "PAT", "DIV", "XDET", "XPROC"}
