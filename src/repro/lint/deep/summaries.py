"""Per-module intraprocedural summaries for the deep pass.

One hazard scan per module (:class:`_HazardScan`, which DET001, DET002
and DET004 filter too) extracts, for every function (methods, nested
defs and defs under ``if`` / ``try`` / ``with`` included):

* **determinism hazards** — canonical calls that read a clock
  (``time.time`` and friends, ``datetime.now``; ``time.localtime``,
  ``gmtime``, ``ctime`` and ``strftime`` only when not handed the time
  to convert), draw OS entropy
  (module-level ``random.*``, seedless ``random.Random()``,
  ``uuid.uuid4``, ``os.urandom``, ``secrets.*``), read the launching
  environment (``os.getenv``, ``os.environ``, ``os.getpid``, …), or
  observe hash order (iterating a set).  Import aliases are resolved
  first — ``from time import time as _wall`` is still a clock read.
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
import operator
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.deep.certificate import function_fingerprint
from repro.lint.deep.graph import (
    imported_modules,
    module_name_for,
    resolve_import_from,
)
from repro.lint.registry import ModuleSource
from repro.lint.rules_process_safety import POOL_API, POOL_MODULE

__all__ = ["SUMMARY_VERSION", "FunctionSummary", "Hazard",
           "ModuleSummary", "summarize_module"]

#: Version tag baked into every summary cache key: bump it whenever the
#: extraction below changes, and every cached summary invalidates.  v2:
#: fingerprints index the parser's lines, not ``str.splitlines()``'s.
#: v3: a call to a def under a module-level block is a call edge, and a
#: clock function handed the time to convert reads no clock.
SUMMARY_VERSION = "lint-deep-summary/v3"

#: ``random`` module functions that drive the shared global RNG.
UNSEEDED_RANDOM_FNS = frozenset((
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "binomialvariate",
))

#: Canonical dotted calls that read a wall clock (kind ``clock``).
CLOCK_CALLS = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))

#: Clock calls that only convert when handed a time: the position of
#: that argument.  With it (and not ``None``) they read no clock.
TIME_ARGUMENT = {"time.localtime": 0, "time.gmtime": 0, "time.ctime": 0,
                 "time.strftime": 1}

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

    def binds(self, name: str) -> bool:
        """Whether an import binds ``name``."""
        return name in self.modules or name in self.members

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


# -- the hazard scan -------------------------------------------------------


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_IMPORTS = (ast.Import, ast.ImportFrom)
_LOOPS = (ast.For, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
#: The node types each scope is scanned for.
_SCANNED = (ast.Call, *_LOOPS, *_COMPREHENSIONS, ast.Lambda, *_IMPORTS,
            *_SCOPE_NODES, ast.ClassDef, ast.Assign, ast.AnnAssign,
            ast.AugAssign, ast.Global)


def _local_bindings(fn: ast.AST, own: Sequence[ast.AST]) -> set:
    """Parameter and locally assigned names (they shadow globals);
    ``own`` is ``fn``'s :attr:`_Scope.own`."""
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
        elif isinstance(node, _LOOPS):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound - declared_global


def _given_time(call: ast.Call, canonical: str) -> bool:
    """Whether a :data:`TIME_ARGUMENT` call is handed its time: a
    positional argument there that is neither ``None`` nor unpacked
    from ``*args``."""
    index = TIME_ARGUMENT.get(canonical)
    if index is None or len(call.args) <= index \
            or any(isinstance(arg, ast.Starred)
                   for arg in call.args[:index + 1]):
        return False
    given = call.args[index]
    return not (isinstance(given, ast.Constant) and given.value is None)


@dataclasses.dataclass(frozen=True)
class _Site:
    """One hazard the scan found, with the node it anchors to."""

    hazard: Hazard
    #: The call, the iterated expression, the lambda or the import.
    node: ast.AST
    #: The call's canonical dotted target (``None`` for other sites).
    name: Optional[str] = None
    #: The site is an iterated expression.
    iterated: bool = False


@dataclasses.dataclass
class _Scope:
    """One scope of the module: the body, a class body or a function."""

    node: ast.AST
    #: ``""`` for the module body.
    qualname: str
    #: The class a function is defined directly in, for ``self.m``.
    class_name: Optional[str]
    #: Its own :data:`_SCANNED` nodes (no nested body), in source order.
    own: List[ast.AST]
    #: Parameter and local names (functions only).
    bound: set
    sites: List[_Site] = dataclasses.field(default_factory=list)


class _HazardScan:
    """Every scope of one module, each visited once, with its sites.

    Build it as ``module.shared(_HazardScan)``: once per module, for
    the DET rules and the summary alike.
    """

    def __init__(self, module: ModuleSource) -> None:
        self.module_name, _ = module_name_for(module.path)
        self.aliases = _Aliases(module.nodes(*_IMPORTS),
                                self.module_name.rpartition(".")[0])
        #: The module body first, then classes and functions pre-order.
        self.scopes: List[_Scope] = []
        self._visit(module, module.tree, "", None)

    def sites(self) -> Iterator[_Site]:
        for scope in self.scopes:
            yield from scope.sites

    def _visit(self, module: ModuleSource, node: ast.AST, qualname: str,
               class_name: Optional[str]) -> None:
        own = sorted(module.nodes(*_SCANNED, scope=node),
                     key=operator.attrgetter("lineno", "col_offset"))
        function = isinstance(node, _SCOPE_NODES)
        scope = _Scope(node, qualname, class_name, own,
                       _local_bindings(node, own) if function else set())
        self.scopes.append(scope)
        prefix = (f"{qualname}.<locals>." if function
                  else f"{qualname}." if qualname else "")
        for child in own:
            if isinstance(child, ast.Call):
                self._classify_call(child, scope)
            elif isinstance(child, _LOOPS):
                self._classify_iteration(child.iter, scope)
            elif isinstance(child, _COMPREHENSIONS):
                for generator in child.generators:
                    self._classify_iteration(generator.iter, scope)
            elif isinstance(child, ast.Lambda):
                scope.sites.append(_Site(Hazard(
                    "pickle", "lambda capturing the enclosing frame",
                    child.lineno), child))
            elif isinstance(child, _IMPORTS):
                self._classify_import(child, scope)
            elif isinstance(child, _SCOPE_NODES):
                self._visit(module, child, prefix + child.name, (
                    node.name if isinstance(node, ast.ClassDef) else None))
            elif isinstance(child, ast.ClassDef):
                self._visit(module, child, prefix + child.name, None)

    def _classify_call(self, call: ast.Call, scope: _Scope) -> None:
        canonical = self.aliases.canonical(call.func)
        if canonical is None or self._shadowed(canonical, scope.bound):
            return

        def add(kind: str, detail: str) -> None:
            scope.sites.append(_Site(Hazard(kind, detail, call.lineno),
                                     call, canonical))

        if canonical in CLOCK_CALLS:
            if not _given_time(call, canonical):
                add("clock", f"wall-clock read {canonical}()")
        elif canonical in ENTROPY_CALLS:
            add("rng", f"OS-entropy draw {canonical}()")
        elif canonical in ENV_CALLS or canonical.startswith("os.environ."):
            add("env", f"environment read {canonical}()")
        elif (canonical.startswith("random.")
                and canonical[len("random."):] in UNSEEDED_RANDOM_FNS):
            add("rng", f"global-RNG draw {canonical}()")
        elif canonical == "random.Random" and not (call.args
                                                   or call.keywords):
            add("rng", "seedless random.Random()")
        elif canonical in UNPICKLABLE_CTORS:
            add("pickle", f"unpicklable {canonical}() handle")
        elif canonical == "open":
            add("pickle", "open file handle")
        tail = canonical.rpartition(".")[2]
        if (tail in POOL_API
                and (canonical == tail
                     or canonical.startswith(POOL_MODULE + ".")
                     or canonical.startswith("pool."))):
            add("pickle", f"warm-pool API call {tail}()")

    def _shadowed(self, canonical: str, bound: set) -> bool:
        """A canonical match is void when its head is a local binding
        (a parameter named ``time`` shadows the module)."""
        head = canonical.split(".")[0]
        return head in bound and not self.aliases.binds(head)

    def _classify_iteration(self, target: ast.expr, scope: _Scope) -> None:
        if isinstance(target, (ast.Set, ast.SetComp)):
            kind, detail = "order", "iteration over a set (hash order)"
        elif (isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id in ("set", "frozenset")):
            kind, detail = ("order", f"iteration over {target.func.id}() "
                                     f"(hash order)")
        elif self.aliases.canonical(target) == "os.environ":
            kind, detail = "env", "iteration over os.environ"
        else:
            return
        scope.sites.append(_Site(Hazard(kind, detail, target.lineno),
                                 target, iterated=True))

    def _classify_import(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.ImportFrom):
            details = ([f"from {POOL_MODULE} import ..."]
                       if node.module == POOL_MODULE else [])
        else:
            details = [f"import {POOL_MODULE}" for alias in node.names
                       if alias.name == POOL_MODULE]
        for detail in details:
            scope.sites.append(_Site(Hazard("pickle", detail,
                                            node.lineno), node))


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
            is_runner = canonical in _TASK_CALLABLES or (
                canonical is not None
                and canonical.rpartition(".")[2] in ("run_trials",
                                                     "parallel_map"))
            if (is_map or is_runner) and node.args \
                    and isinstance(node.args[0], ast.Name):
                self.task_names.add(node.args[0].id)


def summarize_module(module: ModuleSource) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module, named
    after its path (:func:`~repro.lint.deep.graph.module_name_for`)."""
    hazards = module.shared(_HazardScan)
    return ModuleSummary(
        path=module.path, module=hazards.module_name,
        imports=imported_modules(module.nodes(*_IMPORTS),
                                 hazards.module_name.rpartition(".")[0]),
        functions=_ModuleScanner(module, hazards).scan())
