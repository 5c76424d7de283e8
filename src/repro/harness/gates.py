"""Campaign acceptance gates: a machine-readable go/no-go verdict.

CI used to act on campaign output by re-running smoke slices and
eyeballing tables.  This module condenses a finished
``repro-campaign-report/v1`` document into a single
``repro-campaign-verdict/v1`` verdict — the acceptance-gate pattern:
each gate is an independent check with a pass/fail/skip outcome and a
confidence level, and the verdict is accepted exactly when no evaluated
gate failed.

Three gates:

* **tests** — the matrix itself is sane (every rate in ``[0, 1]``) and
  the paper's core claim holds per fault class: the best protected
  technique is never *worse* than the unprotected baseline.
* **telemetry-drift** — the run's SLI section agrees with a baseline
  report (:func:`repro.observe.sli.diff_reports`), within a rate
  tolerance.  Skipped when no baseline is supplied.
* **bench-regression** — the latest sectioned ``BENCH_harness.json``
  (``repro-bench-harness/v2``) recorded no failed claims and no
  store-identity drift.  Skipped when no bench document is supplied.

Confidence is evidence-weighted, not asserted: a 10-request campaign
passes the tests gate at :data:`CONFIDENCE_LOW`, a 100-request one at
:data:`CONFIDENCE_HIGH`, and the verdict's overall confidence is the
lowest confidence among its *evaluated* gates.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

__all__ = ["VERDICT_SCHEMA", "CONFIDENCE_HIGH", "CONFIDENCE_MEDIUM",
           "CONFIDENCE_LOW", "GateResult", "tests_gate", "drift_gate",
           "bench_gate", "evaluate_campaign"]

#: Schema tag of the verdict document.
VERDICT_SCHEMA = "repro-campaign-verdict/v1"

CONFIDENCE_HIGH = "high"
CONFIDENCE_MEDIUM = "medium"
CONFIDENCE_LOW = "low"

#: Ordered weakest-first, for taking the minimum across gates.
_CONFIDENCE_ORDER = (CONFIDENCE_LOW, CONFIDENCE_MEDIUM, CONFIDENCE_HIGH)


@dataclasses.dataclass(frozen=True)
class GateResult:
    """One gate's outcome.

    ``passed`` is three-valued: ``True`` / ``False`` for an evaluated
    gate, ``None`` for a gate that was *skipped* (its input was not
    supplied).  A skipped gate never fails a verdict — absence of
    evidence is reported, not punished — but it is listed under
    ``gates_skipped`` so CI can require specific gates to run.
    """

    gate: str
    passed: Optional[bool]
    confidence: str
    detail: str
    #: Gate-specific supporting figures (JSON-friendly).
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _cell_field(cell: Any, field: str) -> Any:
    """Read a cell field from either a ``CampaignCell`` or the report
    document's ``asdict`` form."""
    if isinstance(cell, dict):
        return cell[field]
    return getattr(cell, field)


def tests_gate(report: Dict[str, Any]) -> GateResult:
    """The matrix-sanity gate over a campaign report's cells."""
    cells = report.get("cells", [])
    if not cells:
        return GateResult(gate="tests", passed=False,
                          confidence=CONFIDENCE_LOW,
                          detail="report has no cells")
    problems: List[str] = []
    requests = min(int(_cell_field(cell, "requests")) for cell in cells)
    by_fault: Dict[str, Dict[str, float]] = {}
    for cell in cells:
        protector = _cell_field(cell, "protector")
        fault = _cell_field(cell, "fault")
        for field in ("survival_rate", "correct_rate"):
            rate = _cell_field(cell, field)
            if not 0.0 <= rate <= 1.0:
                problems.append(
                    f"({protector}, {fault}).{field}={rate!r} "
                    f"outside [0, 1]")
        by_fault.setdefault(fault, {})[protector] = \
            _cell_field(cell, "correct_rate")
    for fault in sorted(by_fault):
        rates = by_fault[fault]
        baseline = rates.get("unprotected")
        if baseline is None:
            continue
        protected = [rate for protector, rate in rates.items()
                     if protector != "unprotected"]
        if protected and max(protected) < baseline:
            problems.append(
                f"fault {fault!r}: best protected correct_rate "
                f"{max(protected):.4f} < unprotected {baseline:.4f}")
    if requests >= 100:
        confidence = CONFIDENCE_HIGH
    elif requests >= 30:
        confidence = CONFIDENCE_MEDIUM
    else:
        confidence = CONFIDENCE_LOW
    detail = ("; ".join(problems) if problems
              else f"{len(cells)} cells sane at {requests}+ requests")
    return GateResult(gate="tests", passed=not problems,
                      confidence=confidence, detail=detail,
                      data={"cells": len(cells), "requests": requests,
                            "problems": problems})


def drift_gate(report: Dict[str, Any],
               baseline: Optional[Dict[str, Any]],
               tolerance: float = 0.0) -> GateResult:
    """The telemetry-drift gate: this run's SLI section against a
    baseline campaign report (or a bare SLI report document)."""
    if baseline is None:
        return GateResult(gate="telemetry-drift", passed=None,
                          confidence=CONFIDENCE_LOW,
                          detail="skipped: no baseline supplied")
    from repro.observe.sli import diff_reports

    current_sli = report.get("sli", report)
    baseline_sli = baseline.get("sli", baseline)
    try:
        drift = diff_reports(current_sli, baseline_sli,
                             tolerance=tolerance)
    except ValueError as exc:
        return GateResult(gate="telemetry-drift", passed=False,
                          confidence=CONFIDENCE_LOW,
                          detail=f"unreadable baseline: {exc}")
    detail = ("; ".join(drift) if drift
              else f"no drift at tolerance {tolerance}")
    return GateResult(gate="telemetry-drift", passed=not drift,
                      confidence=(CONFIDENCE_HIGH if tolerance == 0
                                  else CONFIDENCE_MEDIUM),
                      detail=detail,
                      data={"drift": drift, "tolerance": tolerance})


def bench_gate(bench: Optional[Dict[str, Any]]) -> GateResult:
    """The bench-regression gate over a ``BENCH_harness.json`` document.

    Reads the sectioned ``repro-bench-harness/v2`` layout (claims live
    in the ``suite`` section).  Fails on any recorded claim failure, on
    warm-run store drift (``results_drift``) when the document carries
    it, and closed on any other schema (the flat v1 report included).
    """
    from repro.runtime.bench import BENCH_HARNESS_SCHEMA

    if bench is None:
        return GateResult(gate="bench-regression", passed=None,
                          confidence=CONFIDENCE_LOW,
                          detail="skipped: no bench document supplied")
    schema = bench.get("schema")
    if schema != BENCH_HARNESS_SCHEMA:
        return GateResult(
            gate="bench-regression", passed=False,
            confidence=CONFIDENCE_LOW,
            detail=f"unreadable bench document: unsupported schema "
                   f"{schema!r}; expected {BENCH_HARNESS_SCHEMA!r}")
    suite = bench.get("suite", {})
    failures = list(suite.get("failures", []))
    drift = list(suite.get("results_drift", []))
    benchmarks = list(suite.get("benchmarks", []))
    if len(benchmarks) >= 5:
        confidence = CONFIDENCE_HIGH
    elif len(benchmarks) >= 2:
        confidence = CONFIDENCE_MEDIUM
    else:
        confidence = CONFIDENCE_LOW
    problems = ([f"failed claim: {name}" for name in failures]
                + [f"store drift: {entry}" for entry in drift])
    detail = ("; ".join(problems) if problems
              else f"{len(benchmarks)} benchmarks clean")
    return GateResult(gate="bench-regression", passed=not problems,
                      confidence=confidence, detail=detail,
                      data={"benchmarks": len(benchmarks),
                            "failures": failures,
                            "results_drift": drift})


def evaluate_campaign(report: Dict[str, Any],
                      baseline: Optional[Dict[str, Any]] = None,
                      bench: Optional[Dict[str, Any]] = None,
                      tolerance: float = 0.0) -> Dict[str, Any]:
    """Run every gate and fold the results into one verdict document.

    The verdict is **accepted** when no evaluated gate failed (skipped
    gates don't count either way), and its confidence is the lowest
    confidence among the evaluated gates — a verdict is only as strong
    as its weakest evidence.
    """
    gates = [tests_gate(report),
             drift_gate(report, baseline, tolerance=tolerance),
             bench_gate(bench)]
    evaluated = [gate for gate in gates if gate.passed is not None]
    failed = [gate.gate for gate in evaluated if not gate.passed]
    passed = [gate.gate for gate in evaluated if gate.passed]
    skipped = [gate.gate for gate in gates if gate.passed is None]
    if evaluated:
        confidence = min((gate.confidence for gate in evaluated),
                         key=_CONFIDENCE_ORDER.index)
    else:
        confidence = CONFIDENCE_LOW
    return {
        "schema": VERDICT_SCHEMA,
        "is_accepted": not failed,
        "confidence": confidence,
        "gates_passed": passed,
        "gates_failed": failed,
        "gates_skipped": skipped,
        "gates": [dataclasses.asdict(gate) for gate in gates],
    }
