"""Process-safety rules (PROC*).

``ParallelMap``'s process backend pickles the task callable into worker
processes.  Lambdas and locally defined functions (closures) do not
pickle, so a map over one silently runs in the serial loop and loses
the process-pool speedup.  These rules catch the unpicklable work item
where it is wired:

* PROC001 — a ``lambda`` passed as the task to ``ParallelMap.map`` /
  ``parallel_map``, or a name its scope binds to one;
* PROC002 — a function *defined inside another function* passed as the
  task (closures capture their frame and do not pickle).

Both filter the hazard scan's scopes
(:class:`repro.lint.hazards._HazardScan`): a map call and the names its
task is checked against come from one scope's own nodes.  A scope is
the module body, a class body or a function; its own nodes include
every lambda body inside it and, for a function, its decorators and
defaults.
"""

from __future__ import annotations

import ast
from typing import (Callable, Iterable, Iterator, Optional, Set, Tuple,
                    Type)

from repro.lint.findings import Finding
from repro.lint.hazards import _SCOPE_NODES, _HazardScan, _Scope
from repro.lint.registry import ModuleSource, Rule, keyword_value

#: Names under which the one-shot functional form may be imported.
PARALLEL_MAP_FNS = frozenset(("parallel_map",))
#: Names of the pool class whose ``.map`` pickles tasks.
POOL_CLASSES = frozenset(("ParallelMap",))


def _task_argument(call: ast.Call) -> Optional[ast.expr]:
    """The task callable of a map call (first positional or ``fn=``)."""
    if call.args:
        return call.args[0]
    return keyword_value(call, "fn")


def _constructs_pool(node: ast.AST) -> bool:
    """Whether ``node`` is a ``ParallelMap(...)`` call."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in POOL_CLASSES)


def _is_lambda(node: ast.AST) -> bool:
    return isinstance(node, ast.Lambda)


def _names_bound(scope: _Scope, test: Callable[[ast.AST], bool]
                 ) -> Set[str]:
    """The names ``scope`` assigns a value that passes ``test``."""
    return {target.id for node in scope.own
            if isinstance(node, ast.Assign) and test(node.value)
            for target in node.targets if isinstance(target, ast.Name)}


def _map_tasks(module: ModuleSource) -> Iterator[Tuple[ast.expr, _Scope]]:
    """``(task, scope)`` for every map call among a scope's own nodes:
    ``parallel_map(task, …)``, ``ParallelMap(…).map(task, …)`` and
    ``pool.map(task, …)`` where the scope binds ``pool`` to a
    ``ParallelMap(…)``."""
    for scope in module.shared(_HazardScan).scopes:
        pools = None
        for node in scope.own:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in PARALLEL_MAP_FNS:
                    continue
            elif not (isinstance(func, ast.Attribute)
                      and func.attr == "map"):
                continue
            elif isinstance(func.value, ast.Name):
                if pools is None:
                    pools = _names_bound(scope, _constructs_pool)
                if func.value.id not in pools:
                    continue
            elif not _constructs_pool(func.value):
                continue
            task = _task_argument(node)
            if task is not None:
                yield task, scope


#: What an unpicklable task costs, in every PROC001/PROC002 message.
_SERIAL_CLAUSE = ("the map silently runs in the serial loop, losing "
                  "the process-pool speedup")


class LambdaTaskRule(Rule):
    id = "PROC001"
    severity = "warning"
    summary = ("lambda passed as a ParallelMap/parallel_map task: "
               "lambdas do not pickle into worker processes")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for task, scope in _map_tasks(module):
            if isinstance(task, ast.Lambda):
                yield self.finding(
                    module, task,
                    f"lambda task does not pickle; {_SERIAL_CLAUSE} — "
                    f"hoist it to a module-level def")
            elif (isinstance(task, ast.Name)
                    and task.id in _names_bound(scope, _is_lambda)):
                yield self.finding(
                    module, task,
                    f"'{task.id}' is bound to a lambda and does not "
                    f"pickle; {_SERIAL_CLAUSE} — hoist it to a "
                    f"module-level def")


class NestedDefTaskRule(Rule):
    id = "PROC002"
    severity = "warning"
    summary = ("locally defined function passed as a ParallelMap task: "
               "closures do not pickle into worker processes")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for task, scope in _map_tasks(module):
            if (isinstance(task, ast.Name)
                    and isinstance(scope.node, _SCOPE_NODES)
                    and any(isinstance(node, _SCOPE_NODES)
                            and node.name == task.id
                            for node in scope.own)):
                yield self.finding(
                    module, task,
                    f"'{task.id}' is defined inside a function and does "
                    f"not pickle; {_SERIAL_CLAUSE} — move it to module "
                    f"level and pass data via the items")


RULES: Iterable[Type[Rule]] = (LambdaTaskRule, NestedDefTaskRule)
