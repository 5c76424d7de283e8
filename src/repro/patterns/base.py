"""Shared machinery of the pattern engines."""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, List, Sequence, Tuple

from repro.adjudicators.acceptance import AcceptanceTest
from repro.components.version import Version
from repro.exceptions import RedundancyError, SimulatedFailure
from repro.observe import current as _telemetry
from repro.result import Outcome

#: Exceptions a pattern engine captures as a *component* failure: raw
#: simulated failures, and redundancy exhaustion of a *nested* technique
#: (a composed redundant component whose own redundancy ran out has
#: failed, from the enclosing pattern's point of view).
CAPTURED_FAILURES = (SimulatedFailure, RedundancyError)

#: Virtual cost of one per-unit adjudication (acceptance test or
#: self-check) in the parallel-selection and sequential engines.
UNIT_ADJUDICATION_COST = 0.5


@dataclasses.dataclass
class PatternStats:
    """Cost and efficacy accounting for one pattern instance.

    These counters feed the C3 cost/efficacy experiment: NVP's execution
    count grows with N on every request, recovery blocks' grows only on
    failure, and the adjudication cost captures the design-side asymmetry.
    """

    invocations: int = 0
    executions: int = 0
    execution_cost: float = 0.0
    adjudications: int = 0
    adjudication_cost: float = 0.0
    masked_failures: int = 0
    unmasked_failures: int = 0
    rollbacks: int = 0
    disabled: int = 0
    #: Name of the owning pattern instance — the ``pattern`` label every
    #: increment carries into the telemetry metrics registry.
    owner: str = ""

    def inc(self, counter: str, amount=1) -> None:
        """Increment one counter — the single write path for pattern
        accounting.

        Besides updating the dataclass field, the increment is forwarded
        to the installed telemetry session's metrics registry (as
        ``repro_pattern_<counter>_total{pattern=<owner>}``), so the
        ledger and the telemetry view can never disagree.

        This runs on every execution and adjudication of every
        redundant unit, so with telemetry disabled it must stay a
        direct attribute bump: the ``__dict__`` update below skips the
        ``setattr``/``getattr`` string-dispatch machinery (see
        ``benchmarks/bench_h1_stats_hotpath.py``).
        """
        fields = self.__dict__
        fields[counter] = fields[counter] + amount
        tel = _telemetry()
        if tel.enabled:
            tel.metrics.inc(_METRIC_NAMES[counter], amount,
                            pattern=self.owner or "pattern")

    def as_dict(self) -> dict:
        """The counters as a plain ``name -> value`` dict (no owner)."""
        out = dataclasses.asdict(self)
        del out["owner"]
        return out

    def merge(self, other: "PatternStats") -> "PatternStats":
        return PatternStats(
            invocations=self.invocations + other.invocations,
            executions=self.executions + other.executions,
            execution_cost=self.execution_cost + other.execution_cost,
            adjudications=self.adjudications + other.adjudications,
            adjudication_cost=(self.adjudication_cost
                               + other.adjudication_cost),
            masked_failures=self.masked_failures + other.masked_failures,
            unmasked_failures=(self.unmasked_failures
                               + other.unmasked_failures),
            rollbacks=self.rollbacks + other.rollbacks,
            disabled=self.disabled + other.disabled,
            owner=self.owner if self.owner == other.owner else "",
        )


#: Counter field -> the metric its increments are forwarded to.
_METRIC_NAMES = {field.name: f"repro_pattern_{field.name}_total"
                 for field in dataclasses.fields(PatternStats)}


class ExecutionUnit(abc.ABC):
    """One redundant alternative as seen by a pattern engine."""

    name: str = ""
    enabled: bool = True

    @abc.abstractmethod
    def run(self, args: Tuple[Any, ...], env, charge: bool = True) -> Outcome:
        """Execute and capture the result as an outcome.

        ``charge=False`` suppresses billing virtual time to the
        environment; parallel engines bill the *maximum* alternative cost
        once instead of summing serial costs.
        """

    def validate(self, args: Tuple[Any, ...], outcome: Outcome) -> bool:
        """Per-unit adjudication (parallel selection / sequential);
        defaults to 'no explicit check': success == acceptable."""
        return outcome.ok

    def disable(self) -> None:
        self.enabled = False


class VersionUnit(ExecutionUnit):
    """Adapter: a plain :class:`Version` as an execution unit."""

    def __init__(self, version: Version) -> None:
        self.version = version

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.version.name

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return self.version.enabled

    @property
    def exec_cost(self) -> float:
        return self.version.exec_cost

    def run(self, args: Tuple[Any, ...], env, charge: bool = True) -> Outcome:
        try:
            if charge or env is None:
                value = self.version.execute(*args, env=env)
            else:
                value = self._run_uncharged(args, env)
        except CAPTURED_FAILURES as exc:
            return Outcome.failure(exc, producer=self.name,
                                   cost=self.version.exec_cost,
                                   args=args)
        return Outcome.success(value, producer=self.name,
                               cost=self.version.exec_cost, args=args)

    def _run_uncharged(self, args: Tuple[Any, ...], env) -> Any:
        """Run with fault evaluation against ``env`` but no time billing."""
        version = self.version
        if version.spec is not None:
            version.spec.check_args(args)
        version.calls += 1
        correct = version.impl(*args)
        return version.injector.apply(args, env, correct)

    def disable(self) -> None:
        self.version.disable()


class GuardedUnit(VersionUnit):
    """A version paired with its own explicit acceptance test."""

    def __init__(self, version: Version, acceptance: AcceptanceTest) -> None:
        super().__init__(version)
        self.acceptance = acceptance

    def validate(self, args: Tuple[Any, ...], outcome: Outcome) -> bool:
        return self.acceptance.check(args, outcome)


def as_units(alternatives: Sequence) -> List[ExecutionUnit]:
    """Coerce versions/units into execution units."""
    units: List[ExecutionUnit] = []
    for alt in alternatives:
        if isinstance(alt, ExecutionUnit):
            units.append(alt)
        elif isinstance(alt, Version):
            units.append(VersionUnit(alt))
        else:
            raise TypeError(f"not an execution unit or version: {alt!r}")
    return units


class RedundancyPattern(abc.ABC):
    """Base class of the three Figure-1 engines.

    :meth:`execute` is a template method: it opens the
    ``pattern.execute`` telemetry span (when a session is installed)
    and delegates to the engine-specific :meth:`_execute`.  With the
    default no-op telemetry session, the added cost is one attribute
    check per invocation.
    """

    #: Single-line ASCII sketch, rendered by the Figure-1 benchmark.
    diagram: str = ""

    def __init__(self, alternatives: Sequence) -> None:
        units = as_units(alternatives)
        if not units:
            raise ValueError("a redundancy pattern needs alternatives")
        self.units = units
        #: Diagnostic name used as the ``pattern`` label on every span,
        #: event and metric; assign a distinctive one when running
        #: several instances of the same engine side by side.
        self.name = type(self).__name__
        self.stats = PatternStats(owner=self.name)

    @property
    def active_units(self) -> List[ExecutionUnit]:
        return [u for u in self.units if u.enabled]

    def execute(self, *args: Any, env=None) -> Any:
        """Run the redundant computation; raises when redundancy is
        exhausted or adjudication fails."""
        tel = _telemetry()
        if not tel.enabled:
            return self._execute(args, env, tel)
        with tel.span("pattern.execute", pattern=self.name):
            return self._execute(args, env, tel)

    @abc.abstractmethod
    def _execute(self, args: Tuple[Any, ...], env, tel) -> Any:
        """Engine-specific execution over ``args`` (already a tuple).

        ``tel`` is the current telemetry session; instrumentation sites
        must guard on ``tel.enabled`` so the disabled path stays
        allocation-free.
        """

    def _run_unit(self, unit: ExecutionUnit, args: Tuple[Any, ...], env,
                  tel, charge: bool) -> Outcome:
        """Run one alternative with execution accounting and telemetry."""
        if tel.enabled:
            with tel.span("unit.run", pattern=self.name,
                          producer=unit.name) as span:
                outcome = unit.run(args, env, charge=charge)
                span.attrs["cost"] = outcome.cost
                if outcome.failed:
                    span.status = "error"
            tel.publish("unit.outcome", pattern=self.name,
                        producer=unit.name, ok=outcome.ok,
                        cost=outcome.cost,
                        error=type(outcome.error).__name__
                        if outcome.error is not None else "")
        else:
            outcome = unit.run(args, env, charge=charge)
        self._record_execution(outcome)
        return outcome

    def _validate_unit(self, unit: ExecutionUnit, args: Tuple[Any, ...],
                       outcome: Outcome, tel) -> bool:
        """Run one per-unit adjudication (cost 0.5) with telemetry."""
        if tel.enabled:
            with tel.span("adjudicate", pattern=self.name,
                          producer=unit.name,
                          cost=UNIT_ADJUDICATION_COST) as span:
                accepted = unit.validate(args, outcome)
                if not accepted:
                    span.status = "rejected"
            tel.publish("adjudication.verdict", pattern=self.name,
                        producer=unit.name, accepted=accepted,
                        cost=UNIT_ADJUDICATION_COST)
        else:
            accepted = unit.validate(args, outcome)
        self.stats.inc("adjudications")
        self.stats.inc("adjudication_cost", UNIT_ADJUDICATION_COST)
        return accepted

    def _record_execution(self, outcome: Outcome) -> None:
        self.stats.inc("executions")
        self.stats.inc("execution_cost", outcome.cost)
