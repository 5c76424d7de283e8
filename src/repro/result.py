"""Execution outcomes.

Every redundant execution — a program version, a service call, a re-expressed
input, a process replica — produces an :class:`Outcome`.  Adjudicators
(Section "Triggers and adjudicators" of the paper) operate on lists of
outcomes; patterns aggregate their costs.

The framework never lets a simulated failure escape a redundant execution as
a raw exception: the pattern engines convert it into a failed outcome so the
adjudicator can see *all* results, as in the paper's parallel-evaluation
pattern where the voter sees both correct and erroneous values.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional


@dataclasses.dataclass(frozen=True)
class Outcome:
    """The result of one redundant execution.

    Attributes:
        value: The produced value; meaningful only when ``error is None``.
        error: The exception raised by the execution, or ``None`` on
            success.  :meth:`failure` keeps it without its traceback:
            the frames would hold the caller (a campaign, its store)
            alive until the cyclic collector ran.
        producer: Name of the version/component/service that produced this
            outcome; used by adjudicators that disable failing producers.
        cost: Virtual execution cost (time units on the virtual clock).
        attempt: Ordinal of the attempt that produced this outcome (0-based);
            sequential patterns increment it, parallel patterns leave it 0.
        meta: Free-form diagnostic payload (e.g. the re-expressed input used
            by data diversity, or the perturbation applied by RX).
    """

    value: Any = None
    error: Optional[BaseException] = None
    producer: str = ""
    cost: float = 0.0
    attempt: int = 0
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the execution completed without raising."""
        return self.error is None

    @property
    def failed(self) -> bool:
        """True when the execution raised."""
        return self.error is not None

    def unwrap(self) -> Any:
        """Return the value, re-raising the recorded error on failure
        (same type and message; the traceback starts here)."""
        if self.error is not None:
            raise self.error
        return self.value

    @classmethod
    def success(cls, value: Any, *, producer: str = "", cost: float = 0.0,
                attempt: int = 0, **meta: Any) -> "Outcome":
        """Build a successful outcome."""
        return cls(value=value, producer=producer, cost=cost,
                   attempt=attempt, meta=dict(meta))

    @classmethod
    def failure(cls, error: BaseException, *, producer: str = "",
                cost: float = 0.0, attempt: int = 0, **meta: Any) -> "Outcome":
        """Build a failed outcome carrying the raised exception,
        without its traceback frames."""
        return cls(error=error.with_traceback(None), producer=producer,
                   cost=cost, attempt=attempt, meta=dict(meta))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return (f"Outcome(value={self.value!r}, producer={self.producer!r},"
                    f" cost={self.cost})")
        return (f"Outcome(error={self.error!r}, producer={self.producer!r},"
                f" cost={self.cost})")


def run_to_outcome(func, *args, producer: str = "", cost: float = 0.0,
                   attempt: int = 0, expected=Exception, **kwargs) -> Outcome:
    """Call ``func`` and capture its result or exception as an Outcome.

    Only exceptions matching ``expected`` are captured; anything else (for
    example a programming error in the framework itself) propagates.
    """
    try:
        value = func(*args, **kwargs)
    except expected as exc:
        return Outcome.failure(exc, producer=producer, cost=cost,
                               attempt=attempt)
    return Outcome.success(value, producer=producer, cost=cost,
                           attempt=attempt)
