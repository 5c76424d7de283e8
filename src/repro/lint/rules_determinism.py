"""Determinism rules (DET*).

The harness's determinism contract — serial and parallel runs are
byte-identical, and every result is a pure function of explicit seeds —
has twice been broken by latent static bugs (builtin ``hash()`` seeds,
wall-clock defaults) that only surfaced at runtime.  These rules catch
the whole class at review time:

* DET001 — module-level ``random.*`` calls (shared, unseeded global RNG)
  and seedless ``random.Random()``;
* DET002 — wall-clock reads (``time.time``, ``datetime.now``, …);
* DET003 — builtin ``hash()``: salted per-process for str/bytes, so any
  value derived from it varies with ``PYTHONHASHSEED``;
* DET004 — iteration over sets or ``os.environ``, whose order is
  hash- or environment-dependent;
* DET005 — process-clock reads (``time.perf_counter``,
  ``time.monotonic``, …) inside the ``repro.observe`` package, whose
  timestamps must come from the injected clock so exported traces and
  metric dumps are byte-stable;
* DET006 — hand-rolled re-seeding (``random.seed``,
  ``random.Random(seed)``) inside trial functions: trial code must
  derive randomness through the counter-based
  :func:`repro.runtime.kernel.trial_stream`, or batch partitions stop
  being byte-identical.  A warning normally; an **error** in modules
  that pass ``batch=`` anywhere (they are explicitly on the batched
  path).
"""

from __future__ import annotations

import ast
import collections
import pathlib
from typing import Dict, Iterable, Iterator, Set, Type

from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule, dotted_name

#: ``random`` module functions that drive the shared global RNG.
UNSEEDED_RANDOM_FNS = frozenset((
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "binomialvariate",
))

#: Dotted call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))


def _random_aliases(module: ModuleSource) -> Set[str]:
    """Names the ``random`` module is bound to in this file."""
    aliases = set()
    for node in module.nodes(ast.Import):
        for alias in node.names:
            if alias.name == "random":
                aliases.add(alias.asname or "random")
    return aliases


def _from_random_imports(module: ModuleSource) -> Set[str]:
    """Local names bound by ``from random import ...``."""
    names = set()
    for node in module.nodes(ast.ImportFrom):
        if node.module == "random":
            for alias in node.names:
                if alias.name in UNSEEDED_RANDOM_FNS:
                    names.add(alias.asname or alias.name)
    return names


class UnseededRandomRule(Rule):
    id = "DET001"
    severity = "warning"
    summary = ("module-level random.* call or seedless random.Random(): "
               "shared global RNG breaks seeded reproducibility")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = _random_aliases(module)
        from_imports = _from_random_imports(module)
        for node in module.nodes(ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                if func.attr in UNSEEDED_RANDOM_FNS:
                    yield self.finding(
                        module, node,
                        f"{func.value.id}.{func.attr}() draws from the "
                        f"shared, unseeded global RNG; construct "
                        f"random.Random(seed) and thread it explicitly")
                elif func.attr == "Random" and not node.args \
                        and not node.keywords:
                    yield self.finding(
                        module, node,
                        f"{func.value.id}.Random() without a seed is "
                        f"OS-entropy seeded; pass an explicit seed")
            elif (isinstance(func, ast.Name)
                    and func.id in from_imports):
                yield self.finding(
                    module, node,
                    f"{func.id}() (from random import) draws from the "
                    f"shared, unseeded global RNG; construct "
                    f"random.Random(seed) and thread it explicitly")


class WallClockRule(Rule):
    id = "DET002"
    severity = "warning"
    summary = ("wall-clock read (time.time, datetime.now, ...): results "
               "depend on when the run happens, not on seeds")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            name = dotted_name(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"{name}() reads the wall clock; use the virtual "
                    f"clock (environment.clock) for simulated time or "
                    f"time.perf_counter() for interval measurement")


class BuiltinHashRule(Rule):
    id = "DET003"
    severity = "warning"
    summary = ("builtin hash(): salted per-process for str/bytes "
               "(PYTHONHASHSEED), so derived seeds and orderings drift "
               "across runs")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield self.finding(
                    module, node,
                    "builtin hash() varies with PYTHONHASHSEED for "
                    "str/bytes inputs; use repro._util.stable_int / "
                    "stable_fraction or zlib.crc32 for stable values")


_LOOPS = (ast.For, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _iter_targets(module: ModuleSource) -> Iterator[ast.expr]:
    """Every expression whose iteration order the program observes."""
    for node in module.nodes(*_LOOPS, *_COMPREHENSIONS):
        if isinstance(node, _LOOPS):
            yield node.iter
        else:
            for generator in node.generators:
                yield generator.iter


class EnvIterationRule(Rule):
    id = "DET004"
    severity = "warning"
    summary = ("iteration over a set or os.environ: order is hash- or "
               "environment-dependent; wrap in sorted()")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for target in _iter_targets(module):
            if isinstance(target, (ast.Set, ast.SetComp)):
                yield self.finding(
                    module, target,
                    "iterating a set: order varies with PYTHONHASHSEED; "
                    "wrap in sorted() or use a list/dict (insertion "
                    "ordered)")
            elif (isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Name)
                    and target.func.id in ("set", "frozenset")):
                yield self.finding(
                    module, target,
                    f"iterating {target.func.id}(...): order varies with "
                    f"PYTHONHASHSEED; wrap in sorted()")
            elif dotted_name(target) == "os.environ":
                yield self.finding(
                    module, target,
                    "iterating os.environ: contents and order depend on "
                    "the launching environment; wrap in sorted() and "
                    "pin the variables you read")


#: ``time``-module attributes that read a process clock.  DET002 flags
#: the wall-clock subset everywhere; inside ``repro.observe`` even the
#: monotonic ones are off-limits, because telemetry timestamps must
#: come from the session's injected clock to keep exports byte-stable.
PROCESS_CLOCK_ATTRS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
))


class ObserveClockRule(Rule):
    id = "DET005"
    severity = "warning"
    summary = ("process-clock read inside repro.observe: telemetry "
               "timestamps must come from the injected clock "
               "(Telemetry.bind_clock), never from the time module")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if "observe" not in pathlib.PurePath(module.path).parts:
            return
        for call in module.nodes(ast.Call):
            dotted = dotted_name(call.func) or ""
            prefix, _, attr = dotted.rpartition(".")
            if prefix != "time" or attr not in PROCESS_CLOCK_ATTRS:
                continue
            yield self.finding(
                module, call,
                f"{dotted}() inside repro.observe bypasses the injected "
                f"clock; take timestamps from the telemetry session's "
                f"bound clock so traces and dumps stay byte-stable")


def _seed_imports(module: ModuleSource) -> Dict[str, str]:
    """``local name -> original name`` bound by ``from random import
    seed / Random``."""
    names: Dict[str, str] = {}
    for node in module.nodes(ast.ImportFrom):
        if node.module == "random":
            for alias in node.names:
                if alias.name in ("seed", "Random"):
                    names[alias.asname or alias.name] = alias.name
    return names


def _uses_batch_keyword(module: ModuleSource) -> bool:
    """True when any call in the module passes a ``batch=`` keyword —
    the module is explicitly on the batched path."""
    return any(keyword.arg == "batch"
               for node in module.nodes(ast.Call)
               for keyword in node.keywords)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_trial(function: ast.AST) -> bool:
    return "trial" in function.name.lower()


def _trial_calls(trial: ast.AST) -> Iterator[ast.Call]:
    """The calls in ``trial``, in ``ast.walk`` order, except those in
    nested trials: each call belongs to its innermost enclosing trial,
    which reports it.  Nested non-trial helpers stay with ``trial``."""
    todo = collections.deque([trial])
    while todo:
        node = todo.popleft()
        if isinstance(node, ast.Call):
            yield node
        elif node is not trial and isinstance(node, _FUNCTIONS) \
                and _is_trial(node):
            continue
        todo.extend(ast.iter_child_nodes(node))


class TrialReseedRule(Rule):
    id = "DET006"
    severity = "warning"
    summary = ("random.seed / random.Random(seed) inside a trial "
               "function: hand-rolled re-seeding breaks batch-partition "
               "identity; use repro.runtime.kernel.trial_stream")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = _random_aliases(module)
        from_imports = _seed_imports(module)
        severity = "error" if _uses_batch_keyword(module) else None
        for function in module.nodes(*_FUNCTIONS):
            if not _is_trial(function):
                continue
            for node in _trial_calls(function):
                func = node.func
                seeded = bool(node.args or node.keywords)
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id in aliases):
                    if func.attr == "seed":
                        yield self.finding(
                            module, node,
                            f"{func.value.id}.seed() inside trial "
                            f"{function.name!r} re-seeds the global RNG; "
                            f"draw from repro.runtime.kernel."
                            f"trial_stream(base_seed, index) so batch "
                            f"partitions stay byte-identical",
                            severity=severity)
                    elif func.attr == "Random" and seeded:
                        yield self.finding(
                            module, node,
                            f"{func.value.id}.Random(seed) inside trial "
                            f"{function.name!r} hand-rolls a seed "
                            f"derivation; use repro.runtime.kernel."
                            f"trial_stream(base_seed, index) so batch "
                            f"partitions stay byte-identical",
                            severity=severity)
                elif (isinstance(func, ast.Name)
                        and func.id in from_imports
                        and (from_imports[func.id] == "seed" or seeded)):
                    yield self.finding(
                        module, node,
                        f"{func.id}() (from random import "
                        f"{from_imports[func.id]}) inside trial "
                        f"{function.name!r} hand-rolls re-seeding; use "
                        f"repro.runtime.kernel.trial_stream(base_seed, "
                        f"index) so batch partitions stay "
                        f"byte-identical",
                        severity=severity)


RULES: Iterable[Type[Rule]] = (UnseededRandomRule, WallClockRule,
                               BuiltinHashRule, EnvIterationRule,
                               ObserveClockRule, TrialReseedRule)
