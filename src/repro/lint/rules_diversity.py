"""Diversity rules (DIV*).

Redundancy only pays when the versions are diverse (§4, Brilliant et
al.): near-clone implementations fail on the same inputs, and the voter
confidently picks the shared wrong answer.  DIV001 scores every pair of
sizeable functions in a module — normalized AST hash first, for the
functions whose shape another shares, token-shingle Jaccard similarity
second — and flags pairs whose similarity exceeds the threshold as
correlated-fault risk, reporting the pairwise score so reviewers can
judge how much diversity actually exists.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Tuple, Type

from repro.lint.diversity import (
    ast_fingerprint,
    jaccard,
    normalize_tokens,
    shingles,
)
from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule

#: Functions with fewer normalized tokens than this are skipped: tiny
#: accessors legitimately look alike.
MIN_TOKENS = 45

#: Similarity at or above this flags the pair as near-clones.
DEFAULT_THRESHOLD = 0.9


def source_segment(lines: List[str], node: ast.AST) -> Optional[str]:
    """``ast.get_source_segment(source, node)`` over the source's
    :func:`~repro.lint.registry.parser_lines`, with ``\\n`` line ends.

    The standard function re-splits the whole source on every call (a
    per-character loop), so one call per function is quadratic in
    module size; splitting once and slicing by UTF-8 byte columns, as
    it does, gives the same text.
    """
    if getattr(node, "end_lineno", None) is None \
            or getattr(node, "end_col_offset", None) is None:
        return None
    first, last = node.lineno - 1, node.end_lineno - 1
    if first == last:
        return lines[first].encode()[
            node.col_offset:node.end_col_offset].decode()
    return "\n".join([lines[first].encode()[node.col_offset:].decode(),
                      *lines[first + 1:last],
                      lines[last].encode()[:node.end_col_offset].decode()])


def module_functions(module: ModuleSource) -> List[
        Tuple[str, ast.AST, str]]:
    """``(qualified_name, node, source_segment)`` for every top-level
    function and method in the module."""
    out = []

    def add(node: ast.AST, qualname: str) -> None:
        segment = source_segment(module.lines, node)
        if segment:
            out.append((qualname, node, segment))

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    add(item, f"{node.name}.{item.name}")
    return out


def _shape(node: ast.AST) -> Tuple[type, ...]:
    """The node types of a def's subtree in breadth-first order, less
    the def's own decorators.

    A function of the tree :func:`~repro.lint.diversity.ast_fingerprint`
    hashes: that is the normalized re-parse of the def's segment, which
    starts at ``def`` and so holds none of the def's own decorators (a
    nested def keeps its), and ``_Normalizer`` renames and retags nodes
    but never adds or drops one.  So equal fingerprints imply equal
    shapes: a function whose shape no other function has cannot share
    its fingerprint.  A normalizer that dropped nodes (docstrings, say)
    would break this key.
    """
    decorators = node.decorator_list
    todo = [child for child in ast.iter_child_nodes(node)
            if child not in decorators]
    for child in todo:
        todo.extend(ast.iter_child_nodes(child))
    return (type(node), *map(type, todo))


def pairwise_similarity(sources: List[str]) -> List[List[float]]:
    """The full similarity matrix over a version set's sources.

    Symmetric with a unit diagonal; entry ``[i][j]`` is
    :func:`repro.lint.diversity.similarity` of sources ``i`` and ``j``,
    from shingle sets built once per source.
    """
    sets = [shingles(normalize_tokens(source)) for source in sources]
    n = len(sets)
    matrix = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = jaccard(sets[i], sets[j])
    return matrix


class NearCloneRule(Rule):
    id = "DIV001"
    severity = "warning"
    summary = ("near-clone function pair: correlated-fault risk — the "
               "versions will fail together and the voter will pick "
               "the shared wrong answer")

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.threshold = threshold

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        candidates = []
        for qualname, node, segment in module_functions(module):
            tokens = normalize_tokens(segment)
            if len(tokens) >= MIN_TOKENS:
                candidates.append((qualname, node, segment,
                                   shingles(tokens)))
        if len(candidates) < 2:
            return
        # Only functions of one shape can share a fingerprint (see
        # _shape); the rest keep None, which equals no fingerprint.
        shapes = [_shape(node) for _, node, _, _ in candidates]
        counts = Counter(shapes)
        functions = [
            (qualname, node, sh,
             ast_fingerprint(segment) if counts[shape] > 1 else None)
            for (qualname, node, segment, sh), shape
            in zip(candidates, shapes)]

        for i, (name_a, node_a, sh_a, fp_a) in enumerate(functions):
            for name_b, node_b, sh_b, fp_b in functions[i + 1:]:
                if fp_a is not None and fp_a == fp_b:
                    score = 1.0
                else:
                    score = jaccard(sh_a, sh_b)
                if score >= self.threshold:
                    yield self.finding(
                        module, node_b,
                        f"'{name_b}' is a near-clone of '{name_a}' "
                        f"(similarity {score:.2f}, diversity "
                        f"{1 - score:.2f}): correlated-fault risk — "
                        f"diversify the implementation or merge the "
                        f"duplicates")


RULES: Iterable[Type[Rule]] = (NearCloneRule,)
