"""Per-module intraprocedural summaries for the deep pass.

Every function summary (methods, nested defs and defs under ``if`` /
``try`` / ``with`` included) is built from the module's hazard scan
(:class:`repro.lint.hazards._HazardScan`, which the local rules read
too) and holds:

* **determinism hazards** — the scan's clock, entropy, environment and
  hash-order sites in the function's own scope;
* **picklability hazards** — the scan's unpicklable constructors, open
  file handles and lambdas there;
* **purity hazards** — writes to module globals: ``global`` +
  assignment, mutating method calls (``.append`` …) on a module-level
  name, and subscript / attribute stores into one;
* **outgoing calls** — local references (same-module functions,
  ``self.method``, defs under a module-level ``if`` / ``try`` included)
  and canonical dotted externals, the edges the fixpoint propagates
  over.

Summaries serialize to plain dicts so :class:`~repro.runtime.store.
ResultStore` can content-address them (key: module name + source text +
:data:`SUMMARY_VERSION`) and a warm re-lint skips unedited modules.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.deep.certificate import function_fingerprint
from repro.lint.deep.graph import imported_modules
from repro.lint.hazards import (
    _IMPORTS,
    _SCOPE_NODES,
    Hazard,
    _HazardScan,
    _Scope,
)
from repro.lint.registry import ModuleSource

__all__ = ["SUMMARY_VERSION", "FunctionSummary", "Hazard",
           "ModuleSummary", "summarize_module"]

#: Version tag baked into every summary cache key: bump it whenever the
#: extraction below changes, and every cached summary invalidates.  v2:
#: fingerprints index the parser's lines, not ``str.splitlines()``'s.
#: v3: a call to a def under a module-level block is a call edge, and a
#: clock function handed the time to convert reads no clock.  v4: the
#: warm-pool API and ``repro.runtime.pool`` imports are no hazard.  v5:
#: ``run_batch(fn, …)`` no longer makes ``fn`` a task.
SUMMARY_VERSION = "lint-deep-summary/v5"

#: Mutating method names that turn a module-global receiver into a
#: purity hazard (kind ``global``).
_MUTATORS = frozenset((
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "write",
))

@dataclasses.dataclass
class FunctionSummary:
    """Everything the fixpoint needs to know about one function."""

    qualname: str
    line: int
    col: int
    #: Determinism hazards (clock / rng / env / order).
    hazards: List[Hazard] = dataclasses.field(default_factory=list)
    #: Picklability hazards (kind ``pickle``).
    pickle_hazards: List[Hazard] = dataclasses.field(default_factory=list)
    #: Purity hazards (kind ``global``).
    global_writes: List[Hazard] = dataclasses.field(default_factory=list)
    #: Outgoing calls: ``("local", qualname, line)`` within the module
    #: or ``("ext", canonical.dotted.name, line)`` across modules.
    calls: List[Tuple[str, str, int]] = dataclasses.field(
        default_factory=list)
    #: Name matches the trial convention (contains "trial").
    is_trial: bool = False
    #: Referenced as a task somewhere in the module (``trial=``,
    #: ``run_trials(fn, …)``, ``<pool>.map(fn, …)``).
    is_task: bool = False
    #: Fingerprint of the function's own source segment — the runtime
    #: compares it against the live callable to detect stale
    #: certificates.
    code: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "line": self.line, "col": self.col,
            "hazards": [h.as_dict() for h in self.hazards],
            "pickle_hazards": [h.as_dict() for h in self.pickle_hazards],
            "global_writes": [h.as_dict() for h in self.global_writes],
            "calls": [list(call) for call in self.calls],
            "is_trial": self.is_trial, "is_task": self.is_task,
            "code": self.code,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=payload["qualname"], line=payload["line"],
            col=payload["col"],
            hazards=[Hazard(**h) for h in payload["hazards"]],
            pickle_hazards=[Hazard(**h)
                            for h in payload["pickle_hazards"]],
            global_writes=[Hazard(**h) for h in payload["global_writes"]],
            calls=[(c[0], c[1], c[2]) for c in payload["calls"]],
            is_trial=payload["is_trial"], is_task=payload["is_task"],
            code=payload["code"],
        )


@dataclasses.dataclass
class ModuleSummary:
    """One module's functions, imports, and task references."""

    path: str
    module: str
    imports: List[str]
    functions: Dict[str, FunctionSummary]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "path": self.path, "module": self.module,
            "imports": list(self.imports),
            "functions": {name: fn.as_dict()
                          for name, fn in sorted(self.functions.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=payload["path"], module=payload["module"],
            imports=list(payload["imports"]),
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in payload["functions"].items()},
        )


# -- summaries -------------------------------------------------------------


def _module_globals(tree: ast.Module) -> set:
    """Names assigned at module level (mutation targets for purity)."""
    names = set()
    for node in tree.body:
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(e.id for e in target.elts
                             if isinstance(e, ast.Name))
    return names


class _ModuleScanner:
    """Builds every function summary from the module's hazard scan."""

    def __init__(self, module: ModuleSource, hazards: _HazardScan) -> None:
        self.module = module
        self.hazards = hazards
        self.aliases = hazards.aliases
        self.globals = _module_globals(module.tree)
        self.functions: Dict[str, FunctionSummary] = {}
        #: module-scope function/class names (defs under a module-level
        #: ``if`` / ``try`` / ``with`` too), for local call resolution.
        self.top_level = {node.name for node in hazards.scopes[0].own
                          if isinstance(node, (*_SCOPE_NODES,
                                               ast.ClassDef))}
        self.task_names: set = set()

    def scan(self) -> Dict[str, FunctionSummary]:
        for scope in self.hazards.scopes:
            if isinstance(scope.node, _SCOPE_NODES):
                self.functions[scope.qualname] = self._summarize(scope)
        self._collect_task_refs()
        for name in self.task_names:
            summary = self.functions.get(name)
            if summary is not None:
                summary.is_task = True
        return self.functions

    def _summarize(self, scope: _Scope) -> FunctionSummary:
        fn = scope.node
        start = min([d.lineno for d in fn.decorator_list],
                    default=fn.lineno)
        segment = "\n".join(self.module.lines[start - 1:fn.end_lineno])
        summary = FunctionSummary(
            qualname=scope.qualname, line=fn.lineno, col=fn.col_offset,
            is_trial="trial" in fn.name.lower(),
            code=function_fingerprint(segment))
        for site in scope.sites:
            (summary.pickle_hazards if site.hazard.kind == "pickle"
             else summary.hazards).append(site.hazard)
        for node in scope.own:
            if isinstance(node, ast.Call):
                self._record_call_edge(node, summary, scope.class_name,
                                       scope.bound)
        self._scan_global_writes(scope.own, summary, scope.bound)
        return summary

    # -- purity ------------------------------------------------------------

    def _scan_global_writes(self, own: Sequence[ast.AST],
                            summary: FunctionSummary,
                            locals_: set) -> None:
        declared = set()
        for node in own:
            if isinstance(node, ast.Global):
                declared.update(node.names)
        mutable = (self.globals - locals_) | declared
        if not mutable:
            return
        for node in own:
            if isinstance(node, (ast.Assign, ast.AnnAssign,
                                 ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    hazard = self._write_target(target, declared, mutable)
                    if hazard is not None:
                        summary.global_writes.append(
                            Hazard("global", hazard, node.lineno))
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in mutable):
                    summary.global_writes.append(Hazard(
                        "global",
                        f"mutates module global "
                        f"'{func.value.id}.{func.attr}()'", node.lineno))

    def _write_target(self, target: ast.expr, declared: set,
                      mutable: set) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in declared:
            return f"assigns module global '{target.id}'"
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in mutable):
            return f"stores into module global '{target.value.id}[...]'"
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in mutable):
            return (f"sets attribute on module global "
                    f"'{target.value.id}.{target.attr}'")
        return None

    # -- call edges --------------------------------------------------------

    def _record_call_edge(self, call: ast.Call, summary: FunctionSummary,
                          class_name: Optional[str],
                          locals_: set) -> None:
        func = call.func
        line = call.lineno
        if isinstance(func, ast.Name):
            name = func.id
            if name in locals_:
                return
            if name in self.top_level:
                summary.calls.append(("local", name, line))
            elif name in self.aliases.members:
                summary.calls.append(("ext", self.aliases.members[name],
                                      line))
        elif isinstance(func, ast.Attribute):
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "self"
                    and class_name is not None):
                summary.calls.append(("local",
                                      f"{class_name}.{func.attr}", line))
                return
            canonical = self.aliases.canonical(func)
            if canonical is None:
                return
            head = canonical.split(".")[0]
            if self.aliases.binds(head):
                summary.calls.append(("ext", canonical, line))
            elif head in self.top_level and head not in locals_:
                # Foo.bar() / CONFIG.build() on a module-level name:
                # the dotted form matches a method qualname directly.
                summary.calls.append(("local", canonical, line))

    # -- task references ---------------------------------------------------

    def _collect_task_refs(self) -> None:
        """Names referenced as task callables anywhere in the module."""
        for node in self.module.nodes(ast.Call):
            for keyword in node.keywords:
                if (keyword.arg in ("trial", "fn", "task")
                        and isinstance(keyword.value, ast.Name)):
                    self.task_names.add(keyword.value.id)
            func = node.func
            canonical = self.aliases.canonical(func)
            is_map = isinstance(func, ast.Attribute) and func.attr == "map"
            # The first positional argument of ``run_trials`` or
            # ``parallel_map``, under any import path, is a task.
            is_runner = (canonical is not None
                         and canonical.rpartition(".")[2] in ("run_trials",
                                                              "parallel_map"))
            if (is_map or is_runner) and node.args \
                    and isinstance(node.args[0], ast.Name):
                self.task_names.add(node.args[0].id)


def summarize_module(module: ModuleSource) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module, named
    after its path (:func:`~repro.lint.hazards.module_name_for`)."""
    hazards = module.shared(_HazardScan)
    return ModuleSummary(
        path=module.path, module=hazards.module_name,
        imports=imported_modules(module.nodes(*_IMPORTS),
                                 hazards.module_name.rpartition(".")[0]),
        functions=_ModuleScanner(module, hazards).scan())
