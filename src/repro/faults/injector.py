"""Attaching faults to callables."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple

from repro.faults.base import Fault
from repro.observe import current as _telemetry


class FaultInjector:
    """Evaluates a fault set against an invocation.

    The injector is deliberately separate from the component model so that
    the same fault definitions can be attached to program versions,
    services, data structures, or raw callables.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: List[Fault] = list(faults)

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return tuple(self._faults)

    def add(self, fault: Fault) -> None:
        self._faults.append(fault)

    def remove(self, fault: Fault) -> None:
        """Remove a fault (e.g. after genetic repair patched it out)."""
        self._faults.remove(fault)

    def clear(self) -> None:
        self._faults.clear()

    def apply(self, args: Tuple[Any, ...], env, correct_value: Any) -> Any:
        """Run every fault's activation check, in attachment order.

        The first activating fault wins: it either raises (CRASH/HANG) or
        substitutes a corrupted value.  Returns the correct value when all
        faults stay dormant.

        Every activation is reported to the installed telemetry session
        as a ``fault.injected`` event and a
        ``repro_faults_injected_total`` counter labelled by fault class
        (when the session's registry records).
        """
        for fault in self._faults:
            if fault.activates(args, env):
                tel = _telemetry()
                if tel.enabled:
                    tel.publish("fault.injected", fault=fault.name,
                                fault_class=type(fault).__name__,
                                effect=fault.effect)
                    metrics = tel.metrics
                    if metrics.recording:
                        metrics.inc("repro_faults_injected_total",
                                    fault_class=type(fault).__name__)
                return fault.manifest(args, correct_value)
        return correct_value


class FaultyFunction:
    """A callable with injected faults and a virtual execution cost.

    This is the smallest fault-bearing execution unit; program versions
    and services wrap it.

    Args:
        func: The oracle implementation (the intended function).
        faults: Faults to inject.
        name: Diagnostic name.
        cost: Virtual time units one call consumes (billed to ``env``).
        env: Default environment; can be overridden per call.
    """

    def __init__(self, func: Callable[..., Any], faults: Iterable[Fault] = (),
                 name: str = "", cost: float = 1.0, env=None) -> None:
        self.func = func
        self.injector = FaultInjector(faults)
        self.name = name or getattr(func, "__name__", "anonymous")
        if cost < 0:
            raise ValueError("cost is non-negative")
        self.cost = cost
        self.env = env
        self.calls = 0

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return self.injector.faults

    def __call__(self, *args: Any, env=None) -> Any:
        environment = env if env is not None else self.env
        self.calls += 1
        if environment is not None:
            environment.do_work(self.cost)
        correct = self.func(*args)
        return self.injector.apply(args, environment, correct)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultyFunction({self.name!r}, "
                f"faults={len(self.injector.faults)})")
