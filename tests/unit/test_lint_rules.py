"""Unit tests for the individual lint rule families."""

import textwrap

import pytest

from repro.lint import LintEngine


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

    def test_explicit_process_backend_escalates_to_error(self):
        src = """
            from repro.runtime import ParallelMap

            def run(xs):
                return ParallelMap(backend="process").map(
                    lambda x: x, xs)
        """
        result = findings(src)
        assert [f.rule for f in result] == ["PROC001"]
        assert result[0].severity == "error"

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

    def test_task_touching_pool_api_is_flagged(self):
        src = """
            from repro.runtime import parallel_map
            from repro.runtime.pool import get_pool

            def work(x):
                return get_pool("thread", 2).acquire().submit(abs, x)

            def run(xs):
                return parallel_map(work, xs)
        """
        assert rule_ids(src) == ["PROC003"]

    def test_task_importing_pool_module_is_flagged(self):
        src = """
            from repro.runtime import parallel_map

            def work(x):
                import repro.runtime.pool
                return x

            def run(xs):
                return parallel_map(work, xs)
        """
        assert rule_ids(src) == ["PROC003"]

    def test_pool_task_on_process_backend_is_an_error(self):
        src = """
            from repro.runtime import ParallelMap
            from repro.runtime.pool import shutdown_pools

            def work(x):
                shutdown_pools()
                return x

            def run(xs):
                pool = ParallelMap(workers=2, backend="process")
                return pool.map(work, xs)
        """
        result = findings(src)
        assert [f.rule for f in result] == ["PROC003"]
        assert result[0].severity == "error"

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
