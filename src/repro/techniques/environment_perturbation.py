"""Environment perturbation — RX (Qin et al.).

"A rollback mechanism that partially re-executes failing programs under
modified environment conditions": on a detected failure the state is
rolled back to a checkpoint, one perturbation from the menu (padded
allocations, shuffled message order, changed priorities, throttled
requests) is applied, and the program re-executes.  Perturbations
escalate until one works or the menu is exhausted.  Deliberate
environment redundancy with a reactive, explicit adjudicator; survives
Heisenbugs, environment-sensitive Bohrbugs, and some malicious faults.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

from repro.components.state import Checkpointable
from repro.environment.simenv import PERTURBATIONS, SimEnvironment
from repro.exceptions import AllAlternativesFailedError, SimulatedFailure
from repro.taxonomy.paper import paper_entry
from repro.taxonomy.registry import register
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class RxReport:
    """How a request was served.

    Attributes:
        value: The produced value.
        recovered: Whether a failure occurred and was recovered.
        perturbations_used: Perturbations applied, in order, until
            success.
    """

    value: Any
    recovered: bool
    perturbations_used: Tuple[str, ...]


@register
class EnvironmentPerturbation(Technique):
    """RX-style rollback plus deliberate environment change.

    Args:
        operation: The protected operation ``operation(*args, env=...)``.
        env: The perturbable environment.
        subject: Optional application state rolled back with the
            environment.
        menu: Perturbations to escalate through, in order; defaults to
            the full RX menu.
        detects: Exception classes the explicit adjudicator recognises.
        reset_after: Undo perturbations after a successful recovery (RX
            removes the environmental change "after the danger window").
    """

    TAXONOMY = paper_entry("Environment perturbation")

    def __init__(self, operation: Callable[..., Any],
                 env: SimEnvironment,
                 subject: Optional[Checkpointable] = None,
                 menu: Sequence[str] = PERTURBATIONS,
                 detects: Tuple[Type[BaseException], ...] = (
                     SimulatedFailure,),
                 reset_after: bool = True) -> None:
        if not menu:
            raise ValueError("RX needs a non-empty perturbation menu")
        self.operation = operation
        self.env = env
        self.subject = subject
        self.menu = list(menu)
        self.detects = detects
        self.reset_after = reset_after
        self.recoveries = 0
        self.unrecovered = 0
        #: Which perturbation healed each recovered failure (diagnostics).
        self.healing_log: List[str] = []

    def execute(self, *args: Any) -> Any:
        """Serve a request; returns the value (see :meth:`execute_report`
        for full diagnostics)."""
        return self.execute_report(*args).value

    def execute_report(self, *args: Any) -> RxReport:
        env_snapshot = self.env.snapshot()
        state_snapshot = (self.subject.capture_state()
                          if self.subject is not None else None)
        try:
            value = self.operation(*args, env=self.env)
            return RxReport(value=value, recovered=False,
                            perturbations_used=())
        except self.detects as exc:
            return self._recover(args, env_snapshot, state_snapshot, exc)

    def _recover(self, args, env_snapshot, state_snapshot,
                 original: BaseException) -> RxReport:
        used: List[str] = []
        # Each error is kept without its frames, which would hold this
        # frame and so the list itself.
        failures: List[BaseException] = [original.with_traceback(None)]
        for perturbation in self.menu:
            self.env.restore(env_snapshot)
            if state_snapshot is not None:
                self.subject.restore_state(state_snapshot)
            self.env.perturb(perturbation)
            used.append(perturbation)
            try:
                value = self.operation(*args, env=self.env)
            except self.detects as exc:
                failures.append(exc.with_traceback(None))
                continue
            self.recoveries += 1
            self.healing_log.append(perturbation)
            if self.reset_after:
                self.env.reset_perturbations()
            return RxReport(value=value, recovered=True,
                            perturbations_used=tuple(used))
        self.unrecovered += 1
        if self.reset_after:
            self.env.reset_perturbations()
        raise AllAlternativesFailedError(
            f"RX exhausted its perturbation menu ({len(self.menu)} "
            f"changes) without surviving the failure",
            failures=failures)
