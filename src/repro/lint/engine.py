"""The lint engine: walk files, run rules, suppress, account.

Suppression has two layers, checked in order:

1. **inline pragma** — ``# lint: allow`` on the flagged line silences
   every rule there; ``# lint: allow[DET002]`` (comma-separated ids)
   silences only those rules.  Pragmas are for findings that are
   *correct by design* (e.g. an intentional wall-clock timestamp in a
   report header);
2. **baseline** — a committed JSON multiset of accepted fingerprints,
   for debt that is real but deferred (see
   :mod:`repro.lint.baseline`).

Every run feeds the installed :mod:`repro.observe` session (when one is
enabled): files scanned, findings per rule, suppressions per layer, and
wall duration, so ``repro metrics lint`` reports lint runs like any
other workload.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline
from repro.lint.findings import Finding, at_least
from repro.lint.registry import ModuleSource, RuleRegistry, default_rules
from repro.observe import current as _telemetry

_PRAGMA = re.compile(r"#\s*lint:\s*allow(?:\[(?P<rules>[\w\s,]+)\])?")

#: Rule id used for files the engine cannot parse.
PARSE_ERROR_RULE = "E000"


@dataclasses.dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = dataclasses.field(default_factory=list)
    files: int = 0
    duration: float = 0.0
    #: Findings silenced by an inline ``# lint: allow`` pragma.
    pragma_suppressed: int = 0
    #: Findings silenced by the baseline file.
    baseline_suppressed: int = 0
    #: Files discovered but not lintable (non-UTF-8, unreadable):
    #: ``{"path": ..., "reason": ...}`` notes, deterministic order.
    skipped: List[dict] = dataclasses.field(default_factory=list)
    #: Deep-pass accounting (``DeepAnalysis.stats()``) when the run
    #: had ``deep=True``; ``None`` otherwise.
    deep: Optional[dict] = None

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def counts_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def exit_code(self, fail_on: str = "error") -> int:
        """0 when no active finding is at/above ``fail_on``.

        ``fail_on="never"`` always returns 0 (report-only runs).
        """
        if fail_on == "never":
            return 0
        return int(any(at_least(f.severity, fail_on)
                       for f in self.findings))


def _pragma_allows(line_text: str, rule_id: str) -> bool:
    match = _PRAGMA.search(line_text)
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return rule_id in {part.strip() for part in rules.split(",")}


def discover_files(paths: Sequence[str]) -> List[str]:
    """Python files under the given files/directories, sorted.

    Hidden directories, hidden files, and ``__pycache__`` are skipped.
    A named file is taken as-is (whatever its extension); missing paths
    raise.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith(".")
                                 and d != "__pycache__")
                found.extend(os.path.join(root, name)
                             for name in sorted(files)
                             if name.endswith(".py")
                             and not name.startswith("."))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(found))


def discover_sources(paths: Sequence[str]
                     ) -> Tuple[List[Tuple[str, str]], List[dict]]:
    """``(path, source)`` pairs plus skip notes, both sorted by path.

    Files that are not UTF-8 text (checked-in binaries with a ``.py``
    extension, editor droppings) or cannot be read are *skipped with a
    recorded note* rather than crashing the run or polluting it with
    spurious parse errors: the note carries the path and the reason, is
    surfaced in text/JSON reports, and is deterministic run to run.
    """
    sources: List[Tuple[str, str]] = []
    skipped: List[dict] = []
    for path in discover_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((path, handle.read()))
        except UnicodeDecodeError as exc:
            skipped.append({"path": path,
                            "reason": f"not UTF-8 text ({exc.reason} "
                                      f"at byte {exc.start})"})
        except OSError as exc:
            skipped.append({"path": path,
                            "reason": f"cannot be read ({exc})"})
    return sources, skipped


class LintEngine:
    """Run a rule registry over modules and apply suppression layers.

    Args:
        registry: Rules to run; defaults to every built-in rule.
        select: Optional rule-id subset.
        baseline: Optional committed :class:`Baseline`.
        deep: Run the whole-program pass (:mod:`repro.lint.deep`) after
            the per-module rules: its XDET/XPROC findings flow through
            the same pragma/baseline/select machinery.
        deep_cache: Optional :class:`~repro.runtime.store.ResultStore`
            content-addressing per-module summaries, so a warm re-lint
            only re-summarizes edited modules.
    """

    def __init__(self, registry: Optional[RuleRegistry] = None,
                 select: Optional[Sequence[str]] = None,
                 baseline: Optional[Baseline] = None,
                 deep: bool = False,
                 deep_cache: Optional[object] = None) -> None:
        self.registry = registry or default_rules()
        self.rules = self.registry.rules(select)
        self.baseline = baseline
        self.deep = deep
        self.deep_cache = deep_cache
        #: The :class:`~repro.lint.deep.propagate.DeepAnalysis` of the
        #: last deep run — the CLI reads its certificate.
        self.analysis = None

    # -- single-module entry points -------------------------------------

    def lint_source(self, source: str,
                    path: str = "<memory>") -> List[Finding]:
        """Findings for one in-memory module (pragmas honoured,
        baseline not consulted — used by tests and tooling)."""
        module = ModuleSource.parse(path, source)
        findings = self._raw_findings(module)
        return [f for f, line_text in findings
                if not _pragma_allows(line_text, f.rule)]

    def _raw_findings(self, module: ModuleSource
                      ) -> List[Tuple[Finding, str]]:
        pairs: List[Tuple[Finding, str]] = []
        for rule in self.rules:
            for finding in rule.check(module):
                index = finding.line - 1
                line_text = (module.lines[index]
                             if 0 <= index < len(module.lines) else "")
                pairs.append((finding, line_text))
        pairs.sort(key=lambda pair: pair[0].sort_key())
        return pairs

    # -- the run ---------------------------------------------------------

    def run(self, paths: Sequence[str]) -> LintReport:
        """Lint every Python file under ``paths``."""
        start = time.perf_counter()
        report = LintReport()
        collected, files, skipped = self._collect(paths)
        report.files = files
        report.skipped = skipped

        for finding, line_text in collected:
            if _pragma_allows(line_text, finding.rule):
                report.pragma_suppressed += 1
            elif (self.baseline is not None
                    and self.baseline.suppresses(finding, line_text)):
                report.baseline_suppressed += 1
            else:
                report.findings.append(finding)
        report.findings.sort(key=Finding.sort_key)
        if self.deep and self.analysis is not None:
            report.deep = self.analysis.stats()
        report.duration = time.perf_counter() - start
        self._record_metrics(report)
        return report

    def _collect(self, paths: Sequence[str]
                 ) -> Tuple[List[Tuple[Finding, str]], int, List[dict]]:
        """All raw ``(finding, line text)`` pairs under ``paths``,
        the file count, and the skip notes — suppression not applied."""
        collected: List[Tuple[Finding, str]] = []
        modules: List[ModuleSource] = []
        sources, skipped = discover_sources(paths)
        for path, source in sources:
            try:
                module = ModuleSource.parse(path, source)
            except (SyntaxError, ValueError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                collected.append((Finding(
                    rule=PARSE_ERROR_RULE, severity="error", path=path,
                    line=line, col=0,
                    message=f"file does not parse: {exc}"), ""))
                continue
            if self.deep:  # the only reader of a module past its rules
                modules.append(module)
            collected.extend(self._raw_findings(module))
        if self.deep:
            collected.extend(self._deep_findings(modules))
        return collected, len(sources) + len(skipped), skipped

    def _deep_findings(self, modules: Sequence[ModuleSource]
                       ) -> List[Tuple[Finding, str]]:
        """Whole-program findings, paired with their anchor line text
        (the entry point's ``def`` line) so pragmas and baseline
        fingerprints work exactly as for per-module findings."""
        from repro.lint.deep import DeepAnalysis

        analysis = DeepAnalysis(cache=self.deep_cache)
        allowed = {rule.id for rule in self.rules}
        lines_by_path = {module.path: module.lines for module in modules}
        pairs: List[Tuple[Finding, str]] = []
        for finding in analysis.run(modules):
            if finding.rule not in allowed:
                continue
            lines = lines_by_path.get(finding.path, [])
            index = finding.line - 1
            line_text = lines[index] if 0 <= index < len(lines) else ""
            pairs.append((finding, line_text))
        self.analysis = analysis
        return pairs

    def run_for_baseline(self, paths: Sequence[str]) -> Baseline:
        """A baseline accepting every active finding of a fresh run
        (deep findings included when the engine runs deep)."""
        collected, _, _ = self._collect(paths)
        return Baseline.from_findings(
            (finding, line_text) for finding, line_text in collected
            if finding.rule != PARSE_ERROR_RULE
            and not _pragma_allows(line_text, finding.rule))

    # -- telemetry -------------------------------------------------------

    def _record_metrics(self, report: LintReport) -> None:
        tel = _telemetry()
        if not tel.enabled:
            return
        tel.metrics.inc("repro_lint_runs_total")
        tel.metrics.inc("repro_lint_files_scanned_total", report.files)
        for rule, count in report.counts_by_rule().items():
            tel.metrics.inc("repro_lint_findings_total", count, rule=rule)
        if report.pragma_suppressed:
            tel.metrics.inc("repro_lint_suppressed_total",
                            report.pragma_suppressed, layer="pragma")
        if report.baseline_suppressed:
            tel.metrics.inc("repro_lint_suppressed_total",
                            report.baseline_suppressed, layer="baseline")
        if report.skipped:
            tel.metrics.inc("repro_lint_files_skipped_total",
                            len(report.skipped))
        if report.deep is not None:
            cache = report.deep["summary_cache"]
            tel.metrics.inc("repro_lint_deep_modules_total",
                            report.deep["modules"])
            tel.metrics.inc("repro_lint_deep_functions_total",
                            report.deep["functions"])
            if cache["hits"]:
                tel.metrics.inc("repro_lint_deep_summary_cache_total",
                                cache["hits"], result="hit")
            if cache["misses"]:
                tel.metrics.inc("repro_lint_deep_summary_cache_total",
                                cache["misses"], result="miss")
        tel.metrics.observe("repro_lint_run_seconds", report.duration)
        tel.publish("lint.run", files=report.files,
                    findings=len(report.findings),
                    suppressed=(report.pragma_suppressed
                                + report.baseline_suppressed))


def _configured_engine(select: Optional[Sequence[str]],
                       baseline_path: Optional[str],
                       diversity_threshold: Optional[float], deep: bool,
                       deep_cache_path: Optional[str]) -> LintEngine:
    """The engine :func:`run_paths` and ``repro lint`` run: every
    built-in rule (DIV001 at ``diversity_threshold``), the baseline
    loaded from ``baseline_path``, and with ``deep``, the summary cache
    at ``deep_cache_path``."""
    registry = default_rules()
    if diversity_threshold is not None:
        if not 0.0 < diversity_threshold <= 1.0:
            raise ValueError("--diversity-threshold must lie in (0, 1]")
        for rule in registry.rules(["DIV001"]):
            rule.threshold = diversity_threshold
    baseline = Baseline.load(baseline_path) if baseline_path else None
    deep_cache = None
    if deep and deep_cache_path:
        from repro.runtime.store import ResultStore

        deep_cache = ResultStore(deep_cache_path, name="lint-deep")
    return LintEngine(registry, select=select, baseline=baseline,
                      deep=deep, deep_cache=deep_cache)


def run_paths(paths: Sequence[str],
              select: Optional[Sequence[str]] = None,
              baseline_path: Optional[str] = None,
              diversity_threshold: Optional[float] = None,
              deep: bool = False,
              deep_cache_path: Optional[str] = None
              ) -> Tuple[LintReport, LintEngine]:
    """One-shot convenience wrapper used by the scenario.

    Returns the report *and* the engine, so callers needing the deep
    analysis (certificate export) can reach ``engine.analysis``.
    """
    engine = _configured_engine(select, baseline_path, diversity_threshold,
                                deep, deep_cache_path)
    return engine.run(paths), engine
