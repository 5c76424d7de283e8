"""Property tests for the diversity score.

The issue's contract for the score backing DIV001: symmetric, bounded
in [0, 1], ≈1.0 for identical sources, and — because the whole point of
the linter is catching ``PYTHONHASHSEED`` dependence — itself stable
across hash seeds.
"""

import ast
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import (
    ast_fingerprint,
    diversity,
    pairwise_similarity,
    similarity,
)
from repro.lint.rules_diversity import _shape

#: Statement templates over two identifier slots and one constant slot.
_TEMPLATES = (
    "    {a} = {a} + {k}",
    "    {b} = {a} * {k} - {b}",
    "    if {a} > {k}:",
    "        {b} = {b} - {k}",
    "    for {b} in range({k}):",
    "        {a} = {a} + {b}",
    "    {a}, {b} = {b}, {a} + {k}",
)


def render(steps, name_a="left", name_b="right"):
    """A small function source from (template_index, constant) pairs.

    Indentation is repaired so every generated source is valid Python:
    a nested line only follows an ``if``/``for`` header, and a header
    is never left without a body.
    """
    body = []
    after_header = False
    for index, constant in steps:
        line = _TEMPLATES[index].format(a=name_a, b=name_b, k=constant)
        nested = line.startswith("        ")
        if after_header and not nested:
            body.append("        pass")
        if nested and not after_header:
            line = line[4:]
        body.append(line)
        after_header = line.rstrip().endswith(":")
    if after_header:
        body.append("        pass")
    return (f"def f({name_a}, {name_b}):\n" + "\n".join(body)
            + f"\n    return {name_a}\n")


steps_strategy = st.lists(
    st.tuples(st.integers(0, len(_TEMPLATES) - 1),
              st.integers(0, 9)),
    min_size=1, max_size=10)


@given(steps_strategy, steps_strategy)
@settings(max_examples=60, deadline=None)
def test_similarity_is_symmetric_and_bounded(steps_a, steps_b):
    source_a, source_b = render(steps_a), render(steps_b)
    forward = similarity(source_a, source_b)
    assert forward == similarity(source_b, source_a)
    assert 0.0 <= forward <= 1.0
    assert diversity(source_a, source_b) == 1.0 - forward


@given(steps_strategy)
@settings(max_examples=60, deadline=None)
def test_identical_sources_score_one(steps):
    source = render(steps)
    assert similarity(source, source) == 1.0
    assert diversity(source, source) == 0.0


@given(steps_strategy)
@settings(max_examples=60, deadline=None)
def test_renaming_does_not_create_diversity(steps):
    """A rename-only "independent version" is not diverse at all, and
    shares the shape DIV001 fingerprints by."""
    original = render(steps, "left", "right")
    renamed = render(steps, "first", "second")
    assert similarity(original, renamed) == 1.0
    assert ast_fingerprint(original) == ast_fingerprint(renamed)
    assert _shape(ast.parse(original).body[0]) == \
        _shape(ast.parse(renamed).body[0])


@given(st.lists(steps_strategy, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_pairwise_matrix_is_symmetric_with_unit_diagonal(all_steps):
    sources = [render(steps) for steps in all_steps]
    matrix = pairwise_similarity(sources)
    for i in range(len(sources)):
        assert matrix[i][i] == 1.0
        for j in range(len(sources)):
            assert matrix[i][j] == matrix[j][i]
            assert 0.0 <= matrix[i][j] <= 1.0


_STABILITY_SCRIPT = """
import json, sys
from repro.lint import ast_fingerprint, similarity

a = "def f(x):\\n    return hash(x) % 31\\n"
b = "def g(y):\\n    return (y * 31) % 7\\n"
print(json.dumps({"sim": similarity(a, b), "self": similarity(a, a),
                  "fp": ast_fingerprint(a)}))
"""


def _score_under_hashseed(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.join(os.path.dirname(__file__),
                                              os.pardir, os.pardir, "src"),
                                 os.environ.get("PYTHONPATH", "")])))
    out = subprocess.run([sys.executable, "-c", _STABILITY_SCRIPT],
                         capture_output=True, text=True, env=env,
                         check=True)
    return json.loads(out.stdout)


def test_scores_are_stable_across_pythonhashseed():
    """The diversity score must not suffer the bug class it polices."""
    runs = [_score_under_hashseed(seed) for seed in ("0", "1", "31337")]
    assert runs[0]["self"] == 1.0
    assert runs[0] == runs[1] == runs[2]
