"""The per-module hazard scan every local rule and the deep pass read.

One :class:`_HazardScan` per module, built through
``module.shared(_HazardScan)``, visits every scope once (the module
body, class bodies and every function, methods, nested defs and defs
under ``if`` / ``try`` / ``with`` included) and records, per scope:

* **determinism hazards** — canonical calls that read a clock
  (``time.time`` and friends, ``datetime.now``; ``time.localtime``,
  ``gmtime``, ``ctime`` and ``strftime`` only when not handed the time
  to convert), draw OS entropy (module-level ``random.*``, seedless
  ``random.Random()``, ``uuid.uuid4``, ``os.urandom``, ``secrets.*``),
  read the launching environment (``os.getenv``, ``os.environ``,
  ``os.getpid``, …), or observe hash order (iterating a set).  Import
  aliases are resolved first — ``from time import time as _wall`` is
  still a clock read.  ``random.Random(seed)`` **with** a seed argument
  counts as clean: seeded-RNG-in-parameter is the sanctioned pattern;
* **picklability hazards** — constructing locks / queues / open file
  handles, or defining a ``lambda`` (which captures the enclosing
  frame).

DET001, DET002 and DET004 filter its sites; DET005 and DET006 read its
import bindings; PROC001 and PROC002 read each scope's own nodes; the
deep pass (:mod:`repro.lint.deep.summaries`) builds every function
summary from it.  Nothing here imports :mod:`repro.lint.deep`, so a
plain ``repro lint`` never loads the deep pass.
"""

from __future__ import annotations

import ast
import dataclasses
import operator
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.registry import ModuleSource

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


# -- module names ----------------------------------------------------------


def module_name_for(path: str) -> Tuple[str, str]:
    """``(dotted module name, import root dir)`` for a source file.

    ``src/repro/lint/engine.py`` → ``("repro.lint.engine", "src")``
    provided each of ``repro`` and ``repro/lint`` holds an
    ``__init__.py``.  A file outside any package is its own bare stem.
    ``__init__.py`` itself names the package.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:  # pragma: no cover - filesystem root guard
            break
        parts.insert(0, package)
    return ".".join(parts) or stem, directory


def resolve_import_from(node: ast.ImportFrom, package: str) -> str:
    """The absolute dotted module an ``ImportFrom`` targets."""
    if node.level == 0:
        return node.module or ""
    parts = package.split(".") if package else []
    # level=1 is the current package; each extra level climbs one.
    climb = node.level - 1
    base = parts[:len(parts) - climb] if climb <= len(parts) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One local hazard site inside a function."""

    kind: str    # clock | rng | env | order | pickle | global
    detail: str  # human-readable, e.g. "wall-clock read time.time()"
    line: int

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


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
_SCANNED = (ast.Call, *_LOOPS, *_COMPREHENSIONS, ast.Lambda,
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
    #: The call, the iterated expression or the lambda.
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
    #: Its own :data:`_SCANNED` nodes in source order: none inside a
    #: nested def or class, but those inside its lambdas and, for a
    #: function, its decorators and defaults.
    own: List[ast.AST]
    #: Parameter and local names (functions only).
    bound: set
    sites: List[_Site] = dataclasses.field(default_factory=list)


class _HazardScan:
    """Every scope of one module, each visited once, with its sites.

    Build it as ``module.shared(_HazardScan)``: once per module, for
    every rule that reads it and the summary alike.
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
