"""Per-module intraprocedural summaries for the deep pass.

One pass over a parsed module extracts, for every function (methods and
nested defs included, each under its qualified name):

* **determinism hazards** — canonical calls that read a clock
  (``time.time`` and friends, ``datetime.now``), draw OS entropy
  (module-level ``random.*``, seedless ``random.Random()``,
  ``uuid.uuid4``, ``os.urandom``, ``secrets.*``), read the launching
  environment (``os.getenv``, ``os.environ``, ``os.getpid``, …), or
  observe hash order (iterating a set).  Import aliases are resolved
  first — ``from time import time as _wall`` is still a clock read —
  which is precisely the gap the local DET rules cannot see across.
  ``random.Random(seed)`` **with** a seed argument counts as clean:
  seeded-RNG-in-parameter is the sanctioned pattern;
* **picklability hazards** — constructing locks / queues / open file
  handles, touching the warm-pool API (parent-side only, see PROC003),
  importing :mod:`repro.runtime.pool`, or defining a ``lambda`` (which
  captures the enclosing frame);
* **purity hazards** — writes to module globals: ``global`` +
  assignment, mutating method calls (``.append`` …) on a module-level
  name, and subscript / attribute stores into one;
* **outgoing calls** — local references (same-module functions,
  ``self.method``) and canonical dotted externals, the edges the
  fixpoint propagates over.

Summaries serialize to plain dicts so :class:`~repro.runtime.store.
ResultStore` can content-address them (key: module name + source text +
:data:`SUMMARY_VERSION`) and a warm re-lint skips unedited modules.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.deep.certificate import function_fingerprint
from repro.lint.deep.graph import (
    imported_modules,
    module_name_for,
    resolve_import_from,
)
from repro.lint.registry import ModuleSource
from repro.lint.rules_determinism import UNSEEDED_RANDOM_FNS
from repro.lint.rules_process_safety import POOL_API, POOL_MODULE

__all__ = ["SUMMARY_VERSION", "FunctionSummary", "Hazard",
           "ModuleSummary", "summarize_module"]

#: Version tag baked into every summary cache key: bump it whenever the
#: extraction below changes, and every cached summary invalidates.
SUMMARY_VERSION = "lint-deep-summary/v1"

#: Canonical dotted calls that read a wall clock (kind ``clock``).
CLOCK_CALLS = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))

#: Canonical dotted calls that draw OS entropy (kind ``rng``), beyond
#: the ``random.*`` global-RNG family handled separately.
ENTROPY_CALLS = frozenset((
    "uuid.uuid1", "uuid.uuid4", "os.urandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
))

#: Canonical dotted calls that read the launching environment
#: (kind ``env``).
ENV_CALLS = frozenset((
    "os.getenv", "os.getpid", "os.getppid", "os.getcwd", "os.cpu_count",
    "os.uname", "socket.gethostname", "platform.node",
    "platform.platform", "sys.getrecursionlimit",
))

#: Canonical dotted constructors whose instances do not pickle
#: (kind ``pickle``).
UNPICKLABLE_CTORS = frozenset((
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Event", "threading.Barrier", "threading.local",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Queue", "multiprocessing.Pool",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
))

#: Mutating method names that turn a module-global receiver into a
#: purity hazard (kind ``global``).
_MUTATORS = frozenset((
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "write",
))

#: Call-site shapes whose referenced function becomes a *task* entry
#: point: first positional argument of these canonical callables.
_TASK_CALLABLES = frozenset((
    "run_trials", "parallel_map", "run_batch",
    "repro.harness.experiment.run_trials",
    "repro.runtime.pmap.parallel_map",
    "repro.runtime.kernel.run_batch",
))


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One local hazard site inside a function."""

    kind: str    # clock | rng | env | order | pickle | global
    detail: str  # human-readable, e.g. "wall-clock read time.time()"
    line: int

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


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


# -- alias resolution ------------------------------------------------------


class _Aliases:
    """Import bindings of one module, for canonical name resolution."""

    def __init__(self, imports: Sequence[ast.AST], package: str) -> None:
        #: ``bound name -> dotted module`` from ``import a.b [as c]``.
        self.modules: Dict[str, str] = {}
        #: ``bound name -> module.attr`` from ``from m import a [as b]``.
        self.members: Dict[str, str] = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.modules[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import_from(node, package)
                for alias in node.names:
                    if base:
                        self.members[alias.asname or alias.name] = \
                            f"{base}.{alias.name}"

    def canonical(self, func: ast.AST) -> Optional[str]:
        """The canonical dotted name of a call target, or ``None``.

        ``_wall()`` after ``from time import time as _wall`` resolves
        to ``time.time``; ``t.time()`` after ``import time as t`` to
        ``time.time``; a plain local name stays itself.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if head in self.members:
            parts[0:1] = self.members[head].split(".")
        elif head in self.modules:
            parts[0:1] = self.modules[head].split(".")
        return ".".join(parts)


# -- extraction ------------------------------------------------------------


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _own_nodes(fn: ast.AST) -> List[ast.AST]:
    """``fn``'s body nodes without descending into nested defs/classes
    (they are separate functions with their own summaries)."""
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (*_SCOPE_NODES, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda n: (getattr(n, "lineno", 0),
                                      getattr(n, "col_offset", 0)))


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


def _local_bindings(fn: ast.AST, own: Sequence[ast.AST]) -> set:
    """Parameter and locally assigned names (they shadow globals);
    ``own`` is :func:`_own_nodes` of ``fn``."""
    bound = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global = set()
    for node in own:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound - declared_global


def _seeded(call: ast.Call) -> bool:
    return bool(call.args or call.keywords)


class _ModuleScanner:
    """Extracts every function summary from one parsed module."""

    def __init__(self, module: ModuleSource, module_name: str) -> None:
        self.module = module
        self.name = module_name
        self.package = module_name.rpartition(".")[0]
        self.aliases = _Aliases(module.nodes(*_IMPORTS), self.package)
        self.globals = _module_globals(module.tree)
        self.functions: Dict[str, FunctionSummary] = {}
        #: top-level function/class names, for local call resolution.
        self.top_level = {node.name for node in module.tree.body
                          if isinstance(node, (*_SCOPE_NODES,
                                               ast.ClassDef))}
        self.task_names: set = set()

    def scan(self) -> Dict[str, FunctionSummary]:
        self._walk(self.module.tree.body, prefix="", class_name=None)
        self._collect_task_refs()
        for name in self.task_names:
            summary = self.functions.get(name)
            if summary is not None:
                summary.is_task = True
        return self.functions

    # -- function discovery ------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt], prefix: str,
              class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, _SCOPE_NODES):
                qual = f"{prefix}{node.name}"
                self.functions[qual] = self._summarize(node, qual,
                                                       class_name)
                self._walk(node.body, prefix=f"{qual}.<locals>.",
                           class_name=None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                self._walk(node.body, prefix=f"{qual}.",
                           class_name=node.name)

    def _summarize(self, fn: ast.AST, qual: str,
                   class_name: Optional[str]) -> FunctionSummary:
        start = min([d.lineno for d in fn.decorator_list],
                    default=fn.lineno)
        segment = "\n".join(self.module.lines[start - 1:fn.end_lineno])
        summary = FunctionSummary(
            qualname=qual, line=fn.lineno, col=fn.col_offset,
            is_trial="trial" in fn.name.lower(),
            code=function_fingerprint(segment))
        own = _own_nodes(fn)
        locals_ = _local_bindings(fn, own)
        for node in own:
            if isinstance(node, ast.Call):
                self._scan_call(node, summary, class_name, locals_)
            elif isinstance(node, ast.Lambda):
                summary.pickle_hazards.append(Hazard(
                    kind="pickle",
                    detail="lambda capturing the enclosing frame",
                    line=node.lineno))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._scan_iteration(node.iter, summary)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    self._scan_iteration(generator.iter, summary)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._scan_import(node, summary)
        self._scan_global_writes(fn, own, summary, locals_)
        return summary

    # -- hazard scanners ---------------------------------------------------

    def _scan_call(self, call: ast.Call, summary: FunctionSummary,
                   class_name: Optional[str], locals_: set) -> None:
        canonical = self.aliases.canonical(call.func)
        line = call.lineno
        if canonical is not None and not self._shadowed(canonical,
                                                        locals_):
            if canonical in CLOCK_CALLS:
                summary.hazards.append(Hazard(
                    "clock", f"wall-clock read {canonical}()", line))
            elif canonical in ENTROPY_CALLS:
                summary.hazards.append(Hazard(
                    "rng", f"OS-entropy draw {canonical}()", line))
            elif canonical in ENV_CALLS or canonical.startswith(
                    "os.environ."):
                summary.hazards.append(Hazard(
                    "env", f"environment read {canonical}()", line))
            elif (canonical.startswith("random.")
                    and canonical[len("random."):] in UNSEEDED_RANDOM_FNS):
                summary.hazards.append(Hazard(
                    "rng", f"global-RNG draw {canonical}()", line))
            elif canonical == "random.Random" and not _seeded(call):
                summary.hazards.append(Hazard(
                    "rng", "seedless random.Random()", line))
            elif canonical in UNPICKLABLE_CTORS:
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"unpicklable {canonical}() handle", line))
            elif canonical == "open":
                summary.pickle_hazards.append(Hazard(
                    "pickle", "open file handle", line))
            tail = canonical.rpartition(".")[2]
            if (tail in POOL_API
                    and (canonical == tail
                         or canonical.startswith(POOL_MODULE + ".")
                         or canonical.startswith("pool."))):
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"warm-pool API call {tail}()", line))
        self._record_call_edge(call, summary, class_name, locals_)

    def _shadowed(self, canonical: str, locals_: set) -> bool:
        """A canonical match is void when its head is a local binding
        (a parameter named ``time`` shadows the module)."""
        head = canonical.split(".")[0]
        return head in locals_ and head not in self.aliases.members \
            and head not in self.aliases.modules

    def _scan_iteration(self, target: ast.expr,
                        summary: FunctionSummary) -> None:
        if isinstance(target, (ast.Set, ast.SetComp)):
            summary.hazards.append(Hazard(
                "order", "iteration over a set (hash order)",
                target.lineno))
        elif (isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id in ("set", "frozenset")):
            summary.hazards.append(Hazard(
                "order", f"iteration over {target.func.id}() "
                         f"(hash order)", target.lineno))
        else:
            canonical = self.aliases.canonical(target)
            if canonical == "os.environ":
                summary.hazards.append(Hazard(
                    "env", "iteration over os.environ", target.lineno))

    def _scan_import(self, node: ast.AST,
                     summary: FunctionSummary) -> None:
        if isinstance(node, ast.ImportFrom):
            if node.module == POOL_MODULE:
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"from {POOL_MODULE} import ...",
                    node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == POOL_MODULE:
                    summary.pickle_hazards.append(Hazard(
                        "pickle", f"import {POOL_MODULE}", node.lineno))

    def _scan_global_writes(self, fn: ast.AST, own: Sequence[ast.AST],
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
            if head in locals_ and not self._aliased(head):
                return
            if self._aliased(head):
                summary.calls.append(("ext", canonical, line))
            elif head in self.top_level:
                # Foo.bar() / CONFIG.build() on a module-level name:
                # the dotted form matches a method qualname directly.
                summary.calls.append(("local", canonical, line))

    def _aliased(self, head: str) -> bool:
        return head in self.aliases.modules or head in self.aliases.members

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
            is_runner = canonical in _TASK_CALLABLES or (
                canonical is not None
                and canonical.rpartition(".")[2] in ("run_trials",
                                                     "parallel_map"))
            if (is_map or is_runner) and node.args \
                    and isinstance(node.args[0], ast.Name):
                self.task_names.add(node.args[0].id)


def summarize_module(module: ModuleSource,
                     module_name: Optional[str] = None) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    if module_name is None:
        module_name, _ = module_name_for(module.path)
    scanner = _ModuleScanner(module, module_name)
    functions = scanner.scan()
    package = module_name.rpartition(".")[0]
    return ModuleSummary(
        path=module.path, module=module_name,
        imports=imported_modules(module.nodes(*_IMPORTS), package),
        functions=functions)
