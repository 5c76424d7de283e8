"""Which entry points the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are named after the program's modules.  Every span name maps to
exactly one self-time metric, so the main-thread self times plus
``unattributed_ms`` add up to the op wall.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import pickle
import statistics
from typing import Any, Dict, Iterable, List

from spans import OpBreakdown, Recorder

#: Per-module lint rules, one ``lint.rule.<id>_ms`` metric each.  The
#: whole-program rules' per-module ``check`` lands in
#: ``lint.rule.other_ms``.
LOCAL_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
               "DIV001", "PAT001", "PAT002", "PAT003", "PROC001", "PROC002",
               "PROC003")

#: Self-time metric -> the span names it sums.
SELF_METRICS: Dict[str, tuple] = {
    "techniques.self_ms": ("techniques",),
    "patterns.self_ms": ("patterns", "patterns.unit"),
    "adjudicators.self_ms": ("adjudicators",),
    "components.self_ms": ("components",),
    "faults.self_ms": ("faults",),
    "observe.sites_ms": ("observe.sites", "observe.sites.span"),
    "observe.snapshot_ms": ("observe.snapshot",),
    "observe.merge_ms": ("observe.merge",),
    "observe.stream_ms": ("observe.stream",),
    "observe.sli_ms": ("observe.sli",),
    "harness.campaign.self_ms": ("harness.campaign",),
    "harness.cell.self_ms": ("harness.cell",),
    "harness.shard.self_ms": ("harness.shard",),
    "runtime.pmap.self_ms": ("runtime.pmap",),
    "runtime.pmap.wait_ms": ("runtime.pmap.wait",),
    "runtime.pool.acquire_ms": ("runtime.pool.acquire",),
    "runtime.store.open_ms": ("runtime.store.open",),
    "runtime.store.key_ms": ("runtime.store.key",),
    "runtime.store.get_ms": ("runtime.store.get",),
    "runtime.store.put_ms": ("runtime.store.put",),
    "runtime.pickle_ms": ("runtime.pickle",),
    "sqlstore.insert_ms": ("sqlstore.insert",),
    "sqlstore.select_ms": ("sqlstore.select",),
    "sqlstore.other_ms": ("sqlstore.other",),
    "cli.parse_ms": ("cli.parse",),
    "cli.self_ms": ("cli",),
    "lint.engine.self_ms": ("lint.engine",),
    "lint.parse_ms": ("lint.parse",),
    **{f"lint.rule.{rule}_ms": (f"lint.rule.{rule}",)
       for rule in LOCAL_RULES},
    "lint.rule.other_ms": (),
    "lint.deep.summarize_ms": ("lint.deep.summarize",),
    "lint.deep.propagate_ms": ("lint.deep.propagate",),
    "lint.deep.findings_ms": ("lint.deep.findings",),
}

#: Layers whose work runs on pool threads: their worker-thread self
#: time is reported as ``worker.<metric>`` (busy time).
WORKER_METRICS = ("techniques.self_ms", "patterns.self_ms",
                  "adjudicators.self_ms", "components.self_ms",
                  "faults.self_ms", "observe.sites_ms",
                  "observe.snapshot_ms", "harness.cell.self_ms",
                  "runtime.pickle_ms")

#: Counts and ratios per op, beside the self times.
COUNT_METRICS = (
    ("techniques.calls", "count"), ("patterns.calls", "count"),
    ("patterns.units_per_call", "ratio"), ("adjudicators.calls", "count"),
    ("components.calls", "count"), ("faults.calls", "count"),
    ("observe.sites", "count"), ("observe.merges", "count"),
    ("harness.shard.served_ratio", "ratio"),
    ("runtime.pmap.chunks", "count"),
    ("runtime.pmap.serial_retries", "count"),
    ("runtime.store.hit_ratio", "ratio"),
    ("runtime.store.bytes_read", "B"), ("runtime.store.entries", "count"),
    ("runtime.store.bytes_written", "B"), ("runtime.pickle_bytes", "B"),
    ("sqlstore.statements", "count"), ("lint.files", "count"),
)

#: Metrics about the trace itself.
TRACE_METRICS = (
    ("unattributed_ms", "ms"), ("worker.other_ms", "ms"),
    ("worker.busy_ms", "ms"), ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounting_gap_ratio", "ratio"), ("trace.spans_per_op", "count"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name -> its unit, in reporting order."""
    units = {name: "ms" for name in SELF_METRICS}
    units.update({f"worker.{name}": "ms" for name in WORKER_METRICS})
    units.update(dict(COUNT_METRICS))
    units.update(dict(TRACE_METRICS))
    return units


def span_metric(span_name: str) -> str:
    """The self-time metric a span name belongs to."""
    for metric, names in SELF_METRICS.items():
        if span_name in names:
            return metric
    if span_name.startswith("lint.rule."):
        return "lint.rule.other_ms"
    raise KeyError(f"span {span_name!r} belongs to no metric")


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _patch_family(recorder: Recorder, base: type, attr: str, name: Any,
                  after=None) -> None:
    """Wrap ``attr`` on ``base`` and on every loaded subclass that
    defines its own (an override would otherwise run unrecorded)."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            recorder.patch_method(cls, attr, name, after)


_SQL = {"Insert": "sqlstore.insert", "Select": "sqlstore.select"}


class Layers:
    """Installs the wrappers on every layer's entry points.

    Objects the wrapped entry points create or use during an op (result
    stores, parallel maps, sharded campaigns) are remembered so their
    own counters can be read when the op ends.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._seen: Dict[str, Dict[int, Any]] = collections.defaultdict(dict)

    def _remember(self, kind: str):
        def after(result, obj, *args, **kwargs):
            self._seen[kind][id(obj)] = obj
        return after

    def install(self) -> None:
        import repro.lint
        import repro.techniques
        from repro import cli
        from repro.adjudicators.acceptance import AcceptanceTest
        from repro.adjudicators.base import Adjudicator
        from repro.components.version import Version
        from repro.faults.injector import FaultyFunction
        from repro.harness.campaign import FaultCampaign
        from repro.harness.shard import ShardedCampaign
        from repro.lint.deep.propagate import DeepAnalysis
        from repro.lint.engine import LintEngine
        from repro.lint.registry import ModuleSource, Rule
        from repro.observe import sli, stream
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.telemetry import Telemetry
        from repro.observe.tracer import Tracer
        from repro.patterns.base import ExecutionUnit, RedundancyPattern
        from repro.runtime import pool, store
        from repro.runtime.pmap import ParallelMap
        from repro.sqlstore.engines import StorageEngine

        repro.lint.default_rules()  # loads every rule module
        rec = self.recorder
        for technique in (repro.techniques.NVersionProgramming,
                          repro.techniques.RecoveryBlocks,
                          repro.techniques.EnvironmentPerturbation):
            rec.patch_method(technique, "execute", "techniques")
        _patch_family(rec, RedundancyPattern, "execute", "patterns")
        _patch_family(rec, ExecutionUnit, "run", "patterns.unit")
        _patch_family(rec, Adjudicator, "adjudicate", "adjudicators")
        _patch_family(rec, AcceptanceTest, "accept", "adjudicators")
        rec.patch_method(Version, "execute", "components")
        rec.patch_method(Version, "__call__", "components")
        rec.patch_method(FaultyFunction, "__call__", "faults")

        for attr in ("span", "publish", "count"):
            rec.patch_method(Telemetry, attr, "observe.sites")
        # A ``with tel.span(...)`` site does its work when the block is
        # entered and left, after ``Telemetry.span`` has returned.
        rec.patch_method(Tracer, "start", "observe.sites.span")
        rec.patch_method(Tracer, "finish", "observe.sites.span")
        rec.patch_method(MetricsRegistry, "inc", "observe.sites")
        rec.patch_method(Telemetry, "snapshot", "observe.snapshot")
        rec.patch_method(Telemetry, "merge", "observe.merge")
        rec.patch_function(stream, "make_delta", "observe.stream")
        rec.patch_function(stream, "validate_delta", "observe.stream")
        rec.patch_method(sli.SliMonitor, "as_dict", "observe.sli")

        rec.patch_method(FaultCampaign, "run", "harness.campaign")
        rec.patch_method(FaultCampaign, "_measure", "harness.cell")
        rec.patch_method(ShardedCampaign, "run", "harness.shard")
        rec.patch_method(ShardedCampaign, "run_shards", "harness.shard",
                         self._remember("shard"))

        for attr in ("map", "imap"):
            rec.patch_method(ParallelMap, attr, "runtime.pmap",
                             self._remember("pmap"))
        rec.patch_method(concurrent.futures.Future, "result",
                         "runtime.pmap.wait")
        rec.patch_function(pool, "get_pool", "runtime.pool.acquire")
        rec.patch_method(pool.WorkerPool, "acquire", "runtime.pool.acquire")

        rec.patch_method(store.ResultStore, "__init__", "runtime.store.open",
                         self._remember("store"))
        rec.patch_method(store.ResultStore, "refresh", "runtime.store.open")
        rec.patch_method(store.ResultStore, "key", "runtime.store.key")
        rec.patch_function(store, "code_fingerprint", "runtime.store.key")
        for attr in ("get", "get_many"):
            rec.patch_method(store.ResultStore, attr, "runtime.store.get")
        for attr in ("put", "put_many"):
            rec.patch_method(store.ResultStore, attr, "runtime.store.put")
        rec.patch_function(
            pickle, "dumps", "runtime.pickle",
            lambda result, *a, **k: rec.count("pickle_bytes", len(result)))
        rec.patch_function(
            pickle, "loads", "runtime.pickle",
            lambda result, data, *a, **k: rec.count("pickle_bytes",
                                                    len(data)))
        _patch_family(
            rec, StorageEngine, "execute",
            lambda engine, statement, *a, **k: _SQL.get(
                type(statement).__name__, "sqlstore.other"))

        rec.patch_function(cli, "main", "cli")
        rec.patch_function(cli, "build_parser", "cli.parse")
        rec.patch_method(argparse.ArgumentParser, "parse_args", "cli.parse")

        rec.patch_method(LintEngine, "run", "lint.engine")
        rec.patch_method(ModuleSource, "parse", "lint.parse")
        _patch_family(rec, Rule, "check",
                      lambda rule, *a, **k: f"lint.rule.{rule.id}")
        for attr in ("summarize", "propagate", "findings"):
            rec.patch_method(DeepAnalysis, attr, f"lint.deep.{attr}")

    def take_objects(self) -> Dict[str, List[Any]]:
        """The stores, maps and sharded campaigns seen since last call."""
        seen = {kind: list(objs.values()) for kind, objs in self._seen.items()}
        self._seen.clear()
        return seen


def op_counts(parts: OpBreakdown, objects: Dict[str, List[Any]],
              counters: Dict[str, float]) -> Dict[str, float]:
    """One op's raw counts (summed over ops before ratios are taken)."""
    stores = objects.get("store", [])
    shards = [s.stats for s in objects.get("shard", [])]
    pmaps = [m.stats for m in objects.get("pmap", [])]
    calls, entries = parts.calls, parts.entries
    sql = sum(calls.get(name, 0) for name in _SQL.values()) \
        + calls.get("sqlstore.other", 0)
    return {
        "techniques.calls": entries.get("techniques", 0),
        "patterns.calls": entries.get("patterns", 0),
        "patterns.units": calls.get("patterns.unit", 0),
        "adjudicators.calls": entries.get("adjudicators", 0),
        "components.calls": entries.get("components", 0),
        "faults.calls": entries.get("faults", 0),
        "observe.sites": entries.get("observe.sites", 0),
        "observe.merges": calls.get("observe.merge", 0),
        "shards.served": sum(s.shards_served for s in shards),
        "shards.run": sum(s.shards_served + s.shards_executed
                          for s in shards),
        "runtime.pmap.chunks": sum(p.chunks for p in pmaps),
        "runtime.pmap.serial_retries": sum(p.serial_retries for p in pmaps),
        "store.hits": sum(s.hits for s in stores),
        "store.lookups": sum(s.hits + s.misses for s in stores),
        "runtime.store.bytes_read": sum(s.bytes_read for s in stores),
        "runtime.store.entries": sum(s.entries for s in stores),
        "runtime.store.bytes_written": sum(s.bytes_written for s in stores),
        "runtime.pickle_bytes": counters.get("pickle_bytes", 0),
        "sqlstore.statements": sql,
        "lint.files": calls.get("lint.parse", 0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(ops: List[OpBreakdown], counts: List[Dict[str, float]],
                      untraced_p50_ms: float, spans: int
                      ) -> Dict[str, float]:
    """Per-op means of every per-layer metric over the traced ops."""
    n = len(ops)
    out: Dict[str, float] = {name: 0.0 for name in metric_units()}
    for parts in ops:
        for name, seconds in parts.main.items():
            out[span_metric(name)] += seconds * 1e3 / n
        for name, seconds in parts.workers.items():
            metric = span_metric(name)
            key = (f"worker.{metric}" if metric in WORKER_METRICS
                   else "worker.other_ms")
            out[key] += seconds * 1e3 / n
            out["worker.busy_ms"] += seconds * 1e3 / n
        out["unattributed_ms"] += parts.unattributed * 1e3 / n
    total: Dict[str, float] = collections.Counter()
    for row in counts:
        total.update(row)
    for name, unit in COUNT_METRICS:
        if unit != "ratio":
            out[name] = total.get(name, 0) / n
    out["patterns.units_per_call"] = _ratio(total["patterns.units"],
                                            total["patterns.calls"])
    out["harness.shard.served_ratio"] = _ratio(total["shards.served"],
                                               total["shards.run"])
    out["runtime.store.hit_ratio"] = _ratio(total["store.hits"],
                                            total["store.lookups"])
    traced_p50 = statistics.median(parts.wall for parts in ops) * 1e3
    out["trace.op_p50_ms"] = traced_p50
    out["trace.overhead_ratio"] = _ratio(traced_p50, untraced_p50_ms)
    out["trace.accounting_gap_ratio"] = max(accounting_gap(parts)
                                            for parts in ops)
    out["trace.spans_per_op"] = spans / n
    return out


def accounting_gap(parts: OpBreakdown) -> float:
    """``|main-thread self times + unattributed - wall| / wall`` for one
    op."""
    attributed = sum(parts.main.values()) + parts.unattributed
    return abs(attributed - parts.wall) / parts.wall if parts.wall else 0.0


def unmapped(names: Iterable[str]) -> List[str]:
    """Span names no metric claims (empty when the map is complete)."""
    missing = []
    for name in sorted(set(names)):
        try:
            span_metric(name)
        except KeyError:
            missing.append(name)
    return missing
