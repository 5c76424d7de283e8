"""Version-diversity scoring: are two implementations actually diverse?

The paper's central caveat (§4, citing Brilliant et al.) is that
N-version reliability gains evaporate when the versions share faults —
and versions that are near-clones of each other share faults almost by
construction.  This module measures how close two sources are:

* :func:`ast_fingerprint` — a structural hash over the *normalized* AST
  (identifiers and constants replaced by placeholders), so renamed
  copies of the same code collide;
* :func:`similarity` — Jaccard similarity of k-shingles over normalized
  token streams, in ``[0, 1]``: 1.0 for structurally identical sources,
  near 0 for unrelated code.

Diversity is the complement: ``diversity = 1 - similarity``.  Both are
pure functions of the source text — no hashing of Python objects — so
scores are identical across ``PYTHONHASHSEED`` values and interpreter
runs.
"""

from __future__ import annotations

import ast
import io
import textwrap
import token as token_module
import tokenize
import warnings
from typing import FrozenSet, List, Optional, Tuple

#: Shingle width for :func:`similarity`; 4 tokens balances sensitivity
#: to reordering against robustness to tiny edits.
DEFAULT_SHINGLE_SIZE = 4

_IDENT = "§n"      # placeholder for identifiers
_NUMBER = "§0"     # placeholder for numeric literals
_STRING = "§s"     # placeholder for string literals

#: Keywords stay verbatim — ``for`` vs ``while`` is structure, not
#: naming.  (``tokenize`` reports keywords as NAME tokens.)
_KEYWORDS = frozenset((
    "False", "None", "True", "and", "as", "assert", "async", "await",
    "break", "class", "continue", "def", "del", "elif", "else", "except",
    "finally", "for", "from", "global", "if", "import", "in", "is",
    "lambda", "nonlocal", "not", "or", "pass", "raise", "return", "try",
    "while", "with", "yield",
))

_STRUCTURE = {
    token_module.NEWLINE: "⏎",
    token_module.INDENT: "⇥",
    token_module.DEDENT: "⇤",
}

_SKIP = frozenset((
    token_module.COMMENT, token_module.NL, token_module.ENCODING,
    token_module.ENDMARKER,
))


def normalize_tokens(source: str) -> List[str]:
    """The source as a stream of normalized lexical tokens.

    Identifiers, numbers and strings collapse to placeholders; keywords,
    operators and block structure survive.  Falls back to
    whitespace-splitting when the fragment does not tokenize (e.g. an
    expression snippet).
    """
    text = textwrap.dedent(source)
    out: List[str] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in _SKIP:
                continue
            if tok.type in _STRUCTURE:
                out.append(_STRUCTURE[tok.type])
            elif tok.type == token_module.NAME:
                out.append(tok.string if tok.string in _KEYWORDS
                           else _IDENT)
            elif tok.type == token_module.NUMBER:
                out.append(_NUMBER)
            elif tok.type == token_module.STRING:
                out.append(_STRING)
            else:
                out.append(tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return text.split()
    return out


def shingles(tokens: List[str],
             k: int = DEFAULT_SHINGLE_SIZE) -> FrozenSet[Tuple[str, ...]]:
    """The set of ``k``-grams over a token stream.

    A stream shorter than ``k`` contributes its whole tuple, so trivial
    fragments still compare (identical one-liners score 1.0).
    """
    if k <= 0:
        raise ValueError("shingle size must be positive")
    if len(tokens) <= k:
        return frozenset((tuple(tokens),))
    return frozenset(tuple(tokens[i:i + k])
                     for i in range(len(tokens) - k + 1))


def jaccard(shingles_a: FrozenSet[Tuple[str, ...]],
            shingles_b: FrozenSet[Tuple[str, ...]]) -> float:
    """``|a ∩ b| / |a ∪ b|`` of two shingle sets; 1.0 when both are
    empty."""
    shared = len(shingles_a & shingles_b)
    union = len(shingles_a) + len(shingles_b) - shared
    return (shared / union) if union else 1.0


def similarity(source_a: str, source_b: str,
               k: int = DEFAULT_SHINGLE_SIZE) -> float:
    """Structural similarity of two sources in ``[0, 1]``.

    Jaccard similarity of normalized-token shingles; symmetric, 1.0 for
    token-identical sources (renames included), and independent of
    ``PYTHONHASHSEED`` because only set cardinalities are compared.
    """
    return jaccard(shingles(normalize_tokens(source_a), k),
                   shingles(normalize_tokens(source_b), k))


def diversity(source_a: str, source_b: str,
              k: int = DEFAULT_SHINGLE_SIZE) -> float:
    """``1 - similarity``: the paper's diversity assumption, quantified."""
    return 1.0 - similarity(source_a, source_b, k)


class _Normalizer(ast.NodeTransformer):
    """Strip naming and constant identity, keep structure and API calls.

    Attribute names survive (``.map`` vs ``.execute`` is a semantic
    difference); local naming and literal values do not.

    It renames and retags nodes but never adds or drops one, so equal
    fingerprints imply equal node-type shapes, and DIV001 fingerprints
    only functions whose shape another shares
    (``repro.lint.rules_diversity._shape``).  A normalizer that dropped
    nodes (docstrings, say) would break that key.
    """

    def visit_Name(self, node: ast.Name):
        return ast.copy_location(
            ast.Name(id=_IDENT, ctx=node.ctx), node)

    def visit_arg(self, node: ast.arg):
        node = self.generic_visit(node)
        node.arg = _IDENT
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef):
        node = self.generic_visit(node)
        node.name = _IDENT
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef):
        node = self.generic_visit(node)
        node.name = _IDENT
        return node

    def visit_Constant(self, node: ast.Constant):
        tag = type(node.value).__name__
        return ast.copy_location(ast.Constant(value=tag), node)


def ast_fingerprint(source: str) -> Optional[str]:
    """A hash of the normalized AST, or ``None`` when unparsable.

    Two sources share a fingerprint iff they are the same program up to
    renaming and literal values — the strongest clone signal.  The
    parse keeps its warnings (an invalid escape sequence's) to itself:
    DIV001 fingerprints segments of a module whose own parse has
    already reported them under the module's path.
    """
    import hashlib

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(textwrap.dedent(source))
    except (SyntaxError, IndentationError, ValueError):
        return None
    normalized = ast.dump(_Normalizer().visit(tree))
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()
