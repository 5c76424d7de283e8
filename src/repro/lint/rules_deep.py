"""Rule metadata for the deep whole-program pass (XDET / XPROC).

These rules are *driven* by :class:`~repro.lint.deep.propagate.
DeepAnalysis`, not by per-module ``check()`` calls: the deep pass needs
every module's summary before any verdict exists, so ``check()`` here
yields nothing.  Registering the ids anyway keeps the whole existing
machinery working unchanged on deep findings — ``--select XDET002``,
severity overrides, ``--list-rules``, pragma suppression
(``# lint: allow[XDET001]``), and baselines all resolve through the
registry.

Rule table:

=========  =========================================================
XDET001    entry point transitively reaches a wall-clock read
XDET002    entry point transitively reaches unseeded RNG / entropy
XDET003    entry point transitively reads ambient environment or
           iterates a hash-ordered collection
XPROC001   task transitively closes over unpicklable state
XPROC002   entry point transitively mutates module-global state
=========  =========================================================

All are warnings: the deep pass under-approximates (unknown callees
are assumed clean) but can still be wrong about *reachability* in
dynamically-dispatched code, so verdicts gate runs only through the
explicit ``certify=`` knob, never by themselves.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule


class _DeepRule(Rule):
    """Shared no-op ``check``: findings come from the deep pass."""

    severity = "warning"

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        return ()


class TransitiveClockRule(_DeepRule):
    id = "XDET001"
    summary = ("deep: trial/task transitively reaches a wall-clock read "
               "(time.time, datetime.now, ...)")


class TransitiveEntropyRule(_DeepRule):
    id = "XDET002"
    summary = ("deep: trial/task transitively reaches unseeded RNG or "
               "entropy (module-level random.*, uuid4, os.urandom, "
               "secrets)")


class TransitiveEnvironmentRule(_DeepRule):
    id = "XDET003"
    summary = ("deep: trial/task transitively reads ambient environment "
               "(os.environ, pid, hostname) or iterates a hash-ordered "
               "collection")


class TransitivePicklabilityRule(_DeepRule):
    id = "XPROC001"
    summary = ("deep: task transitively closes over unpicklable state "
               "(locks, queues, open handles, nested lambdas)")


class TransitivePurityRule(_DeepRule):
    id = "XPROC002"
    summary = ("deep: trial/task transitively mutates module-global "
               "state (impure under parallel or reordered execution)")


RULES = (TransitiveClockRule, TransitiveEntropyRule,
         TransitiveEnvironmentRule, TransitivePicklabilityRule,
         TransitivePurityRule)
