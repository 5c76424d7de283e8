"""Process-safety rules (PROC*).

``ParallelMap``'s process backend pickles the task callable into worker
processes.  Lambdas and locally defined functions (closures) do not
pickle, so a map over one silently runs in the serial loop and loses
the process-pool speedup.  These rules catch the unpicklable work item
where it is wired:

* PROC001 — a ``lambda`` passed as the task to ``ParallelMap.map`` /
  ``parallel_map``;
* PROC002 — a function *defined inside another function* passed as the
  task (closures capture their frame and do not pickle);
* PROC003 — a task function that touches the warm-pool API
  (``WorkerPool``, ``get_pool``, ``shutdown_pools``, …or any import of
  ``repro.runtime.pool``).  Pool handles are parent-side only: the
  registry's fork guard makes a forked worker's ``acquire()`` of a
  parent's handle raise.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule, keyword_value

#: Names under which the one-shot functional form may be imported.
PARALLEL_MAP_FNS = frozenset(("parallel_map",))
#: Names of the pool class whose ``.map`` pickles tasks.
POOL_CLASSES = frozenset(("ParallelMap",))
#: The warm-pool API surface that must stay parent-side (PROC003).
POOL_API = frozenset(("WorkerPool", "get_pool", "retire_pool",
                      "shutdown_pools", "pool_stats"))
#: The module whose import inside a task body triggers PROC003.
POOL_MODULE = "repro.runtime.pool"

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without entering nested scopes.

    Nested function/class bodies are separate lexical scopes and are
    visited on their own pass; descending here would both double-count
    call sites and leak one scope's bindings into another.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _ScopeInfo:
    """Names bound to lambdas, nested defs, and ParallelMap instances
    within one lexical scope, and the scope's calls."""

    def __init__(self, body: List[ast.stmt], inside_function: bool) -> None:
        self.lambda_names: Set[str] = set()
        self.nested_def_names: Set[str] = set()
        #: names bound to a ParallelMap(...) constructor call
        self.pool_vars: Set[str] = set()
        #: every call in the scope, in :func:`_walk_scope` order
        self.calls: List[ast.Call] = []
        for node in _walk_scope(body):
            if isinstance(node, ast.Call):
                self.calls.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    self.nested_def_names.add(node.name)
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if not targets:
                    continue
                if isinstance(node.value, ast.Lambda):
                    self.lambda_names.update(targets)
                elif (isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id in POOL_CLASSES):
                    self.pool_vars.update(targets)


def _task_argument(call: ast.Call) -> Optional[ast.expr]:
    """The task callable of a map call (first positional or ``fn=``)."""
    if call.args:
        return call.args[0]
    return keyword_value(call, "fn")


def _scopes(module: ModuleSource
            ) -> Iterator[Tuple[List[ast.stmt], bool]]:
    """Every lexical scope body in the module, with whether it is a
    function body (where a nested def becomes a closure)."""
    yield module.tree.body, False
    for node in module.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
        yield node.body, True


def _is_pool(owner: ast.expr, info: _ScopeInfo) -> bool:
    """Whether ``owner.map`` is a ParallelMap's map."""
    if isinstance(owner, ast.Call):  # ParallelMap(...).map(fn, ...)
        return (isinstance(owner.func, ast.Name)
                and owner.func.id in POOL_CLASSES)
    return isinstance(owner, ast.Name) and owner.id in info.pool_vars


def _map_call_sites(info: _ScopeInfo) -> Iterator[ast.Call]:
    """Every map call site in scope."""
    for node in info.calls:
        func = node.func
        # parallel_map(fn, items, ...)
        if isinstance(func, ast.Name) and func.id in PARALLEL_MAP_FNS:
            yield node
        # <pool>.map(fn, items) and ParallelMap(...).map(fn, ...)
        elif (isinstance(func, ast.Attribute) and func.attr == "map"
                and _is_pool(func.value, info)):
            yield node


_Site = Tuple[ast.expr, _ScopeInfo]


def _task_sites(module: ModuleSource) -> List[_Site]:
    """``(task, scope info)`` per map call site in the module — one
    scan, which every PROC rule filters."""
    sites: List[_Site] = []
    for body, inside_function in _scopes(module):
        info = _ScopeInfo(body, inside_function)
        for call in _map_call_sites(info):
            task = _task_argument(call)
            if task is not None:
                sites.append((task, info))
    return sites


class _ProcessSafetyBase(Rule):
    """Shared scaffolding: classify the task of every map call site."""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for task, info in module.shared(_task_sites):
            yield from self._check_task(module, task, info)

    def _check_task(self, module, task, info):
        raise NotImplementedError


#: What an unpicklable task costs, in every PROC001/PROC002 message.
_SERIAL_CLAUSE = ("the map silently runs in the serial loop, losing "
                  "the process-pool speedup")


class LambdaTaskRule(_ProcessSafetyBase):
    id = "PROC001"
    severity = "warning"
    summary = ("lambda passed as a ParallelMap/parallel_map task: "
               "lambdas do not pickle into worker processes")

    def _check_task(self, module, task, info):
        if isinstance(task, ast.Lambda):
            yield self.finding(
                module, task,
                f"lambda task does not pickle; {_SERIAL_CLAUSE} — "
                f"hoist it to a module-level def")
        elif isinstance(task, ast.Name) and task.id in info.lambda_names:
            yield self.finding(
                module, task,
                f"'{task.id}' is bound to a lambda and does not pickle; "
                f"{_SERIAL_CLAUSE} — hoist it to a module-level def")


class NestedDefTaskRule(_ProcessSafetyBase):
    id = "PROC002"
    severity = "warning"
    summary = ("locally defined function passed as a ParallelMap task: "
               "closures do not pickle into worker processes")

    def _check_task(self, module, task, info):
        if isinstance(task, ast.Name) and task.id in info.nested_def_names:
            yield self.finding(
                module, task,
                f"'{task.id}' is defined inside a function and does not "
                f"pickle; {_SERIAL_CLAUSE} — move it to module level "
                f"and pass data via the items")


def _pool_api_references(fn: ast.AST) -> List[str]:
    """Every warm-pool API name referenced (or imported) in ``fn``."""
    seen: Dict[str, None] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in POOL_API:
            seen.setdefault(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in POOL_API:
            seen.setdefault(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if node.module == POOL_MODULE:
                seen.setdefault(f"from {POOL_MODULE} import ...")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == POOL_MODULE:
                    seen.setdefault(f"import {POOL_MODULE}")
    return list(seen)


class PoolFromTaskRule(_ProcessSafetyBase):
    id = "PROC003"
    severity = "warning"
    summary = ("ParallelMap task references the warm-pool API: pool "
               "handles are parent-side only and must not be touched "
               "from worker-side task code")

    def _check_task(self, module, task, info):
        if not isinstance(task, ast.Name):
            return
        fn = next((node for node in module.tree.body
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   and node.name == task.id), None)
        if fn is None:
            return
        refs = _pool_api_references(fn)
        if refs:
            yield self.finding(
                module, task,
                f"task '{task.id}' references the warm-pool API "
                f"({', '.join(sorted(refs))}); the registry's fork "
                f"guard raises in process workers — keep pool handling "
                f"in the parent")


RULES: Iterable[Type[Rule]] = (LambdaTaskRule, NestedDefTaskRule,
                               PoolFromTaskRule)
