"""Rule base class and registry.

Every rule inspects one parsed module at a time and yields
:class:`~repro.lint.findings.Finding` objects.  Rules are registered by
id in a :class:`RuleRegistry`; the default registry is populated by
importing the ``rules_*`` modules (see :func:`default_rules`).
"""

from __future__ import annotations

import abc
import ast
import dataclasses
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, TypeVar)

from repro.lint.findings import Finding, severity_rank

T = TypeVar("T")


@dataclasses.dataclass
class ModuleSource:
    """One parsed source file handed to every rule.

    A lint pass does each module's shared work once: :meth:`nodes`
    answers "every node of these types" from a single ``ast.walk`` of
    ``tree``, and :meth:`shared` computes an analysis several rules
    read (e.g. the process-safety call sites) once per module.  Both
    live and die with this object — never with the process — so a
    one-shot CLI run and a long-lived caller pay the same.

    Rules share ``tree``, the lists :meth:`nodes` returns and the
    values :meth:`shared` returns: treat all of them as read-only.

    Attributes:
        path: Path the file was read from (relative paths stay relative
            so findings and baselines are machine-independent).
        source: Raw text.
        tree: Parsed ``ast.Module``.
        lines: ``source.splitlines()`` — shared so rules and the
            suppression pass don't each re-split.
    """

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    #: :meth:`nodes` results by type tuple (``()``: the whole walk) and
    #: :meth:`shared` results by build function.
    _memo: Dict[Any, Any] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleSource":
        return cls(path=path, source=source,
                   tree=ast.parse(source, filename=path),
                   lines=source.splitlines())

    def nodes(self, *types: type) -> List[ast.AST]:
        """Every node of exactly one of ``types``, in ``ast.walk`` order.

        One walk of ``tree`` on first use; each distinct query filters
        it once.  Walk order holds across types too, so findings of
        one rule at one ``(line, col)`` keep their order.  For parser
        output, matching the exact type is the same as ``isinstance``.
        """
        walked = self._memo.get(())
        if walked is None:
            walked = self._memo[()] = list(ast.walk(self.tree))
        found = self._memo.get(types)
        if found is None:
            found = self._memo[types] = [node for node in walked
                                         if type(node) in types]
        return found

    def shared(self, build: Callable[["ModuleSource"], T]) -> T:
        """``build(self)``, computed on first use and kept with the
        module for every later rule that asks."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]


class Rule(abc.ABC):
    """One static check.

    Class attributes:
        id: Short unique identifier (``family + number``, e.g. DET001).
        severity: Default severity; the engine may override per run.
        summary: One-line description for ``--list-rules`` and docs.
    """

    id: str = ""
    severity: str = "warning"
    summary: str = ""

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> Iterable[Finding]:
        """Yield findings for one module."""

    def finding(self, module: ModuleSource, node: ast.AST,
                message: str, severity: Optional[str] = None) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(rule=self.id, severity=severity or self.severity,
                       path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


class RuleRegistry:
    """Rules by id, with per-rule severity overrides."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if not rule.id:
            raise ValueError(f"{type(rule).__name__} has no id")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        severity_rank(rule.severity)
        self._rules[rule.id] = rule
        return rule

    def rules(self, select: Optional[Sequence[str]] = None) -> List[Rule]:
        """All rules, or only the ids in ``select`` (order: by id)."""
        if select is None:
            return [self._rules[rid] for rid in sorted(self._rules)]
        missing = [rid for rid in select if rid not in self._rules]
        if missing:
            raise KeyError(f"unknown rule id(s): {', '.join(missing)}; "
                           f"known: {', '.join(sorted(self._rules))}")
        return [self._rules[rid] for rid in sorted(set(select))]

    def ids(self) -> List[str]:
        return sorted(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules())

    def __len__(self) -> int:
        return len(self._rules)


def default_rules() -> RuleRegistry:
    """A registry holding a fresh instance of every built-in rule.

    Instances are constructed per call so that per-run configuration
    (e.g. the DIV001 similarity threshold) never leaks between runs.
    """
    from repro.lint import (  # noqa: F401 - imported for registration
        rules_deep,
        rules_determinism,
        rules_diversity,
        rules_patterns,
        rules_process_safety,
    )

    registry = RuleRegistry()
    for module in (rules_determinism, rules_process_safety,
                   rules_patterns, rules_diversity, rules_deep):
        for rule_cls in module.RULES:
            registry.register(rule_cls())
    return registry


# -- shared AST helpers ----------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` in a call, or ``None``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None
