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

DET001, DET002 and DET004 filter the per-module hazard scan
(:class:`repro.lint.hazards._HazardScan`, which the deep pass reads
too), whose import bindings DET005 and DET006 read.
"""

from __future__ import annotations

import ast
import collections
import pathlib
from typing import Iterable, Iterator, Type

from repro.lint.findings import Finding
from repro.lint.hazards import _HazardScan
from repro.lint.registry import ModuleSource, Rule, dotted_name


class UnseededRandomRule(Rule):
    id = "DET001"
    severity = "warning"
    summary = ("module-level random.* call or seedless random.Random(): "
               "shared global RNG breaks seeded reproducibility")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.shared(_HazardScan).sites():
            if site.hazard.kind != "rng" \
                    or not site.name.startswith("random."):
                continue
            func = site.node.func
            called = f"{dotted_name(func)}()" + (
                " (from random import)" if isinstance(func, ast.Name)
                else "")
            if site.name == "random.Random":
                message = (f"{called} without a seed is OS-entropy "
                           f"seeded; pass an explicit seed")
            else:
                message = (f"{called} draws from the shared, unseeded "
                           f"global RNG; construct random.Random(seed) "
                           f"and thread it explicitly")
            yield self.finding(module, site.node, message)


class WallClockRule(Rule):
    id = "DET002"
    severity = "warning"
    summary = ("wall-clock read (time.time, datetime.now, ...): results "
               "depend on when the run happens, not on seeds")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.shared(_HazardScan).sites():
            if site.hazard.kind == "clock":
                yield self.finding(
                    module, site.node,
                    f"{dotted_name(site.node.func)}() reads the wall "
                    f"clock; use the virtual clock (environment.clock) "
                    f"for simulated time or time.perf_counter() for "
                    f"interval measurement")


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


class EnvIterationRule(Rule):
    id = "DET004"
    severity = "warning"
    summary = ("iteration over a set or os.environ: order is hash- or "
               "environment-dependent; wrap in sorted()")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.shared(_HazardScan).sites():
            if not site.iterated:
                continue
            target = site.node
            if site.hazard.kind == "env":
                message = ("iterating os.environ: contents and order "
                           "depend on the launching environment; wrap in "
                           "sorted() and pin the variables you read")
            elif isinstance(target, ast.Call):
                message = (f"iterating {target.func.id}(...): order "
                           f"varies with PYTHONHASHSEED; wrap in sorted()")
            else:
                message = ("iterating a set: order varies with "
                           "PYTHONHASHSEED; wrap in sorted() or use a "
                           "list/dict (insertion ordered)")
            yield self.finding(module, target, message)


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
        canonical = module.shared(_HazardScan).aliases.canonical
        for call in module.nodes(ast.Call):
            prefix, _, attr = (canonical(call.func) or "").rpartition(".")
            if prefix != "time" or attr not in PROCESS_CLOCK_ATTRS:
                continue
            yield self.finding(
                module, call,
                f"{dotted_name(call.func)}() inside repro.observe "
                f"bypasses the injected clock; take timestamps from the "
                f"telemetry session's bound clock so traces and dumps "
                f"stay byte-stable")


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
        bound = module.shared(_HazardScan).aliases
        aliases = {name for name, target in bound.modules.items()
                   if target == "random"}
        # ``local name -> original name`` bound by ``from random import
        # seed / Random``.
        from_imports = {name: target[len("random."):]
                        for name, target in bound.members.items()
                        if target in ("random.seed", "random.Random")}
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
