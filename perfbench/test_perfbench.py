"""Tests of the benchmark's own arithmetic, recording and checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import figures  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import snapshot  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

MAIN, WORKER = 1, 2


# -- percentiles -------------------------------------------------------


def test_p90_is_reported_only_with_ten_samples_beyond_it():
    assert figures.samples_beyond(99, 90) == 9
    assert figures.samples_beyond(100, 90) == 10
    walls = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    summary = figures.timing_summary(walls)
    assert summary["op_p50_ms"] == pytest.approx(50.5)
    assert summary["op_p90_ms"] == pytest.approx(90.0)
    assert summary["tail_samples_beyond"] == 10
    short = figures.timing_summary(walls[:99])
    assert "op_p90_ms" not in short and "tail_percentile" not in short
    assert figures.timing_summary(walls * 10)["tail_percentile"] == 90


# -- self time ----------------------------------------------------------


def _spans():
    return [
        Span("a", 0.0, 10.0, 1, None, 0, MAIN),
        Span("b", 1.0, 4.0, 2, 1, 0, MAIN),
        Span("c", 2.0, 3.0, 3, 2, 0, MAIN),
        Span("b", 5.0, 6.0, 4, 1, 0, MAIN),
        # Caused by span 1 but ran beside it on a pool thread.
        Span("w", 1.0, 9.0, 5, 1, 0, WORKER),
        Span("c", 2.0, 5.0, 6, 5, 0, WORKER),
    ]


def test_self_time_subtracts_nested_children_on_the_same_thread():
    own = spans.self_times(_spans())
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 5.0, 6: 3.0}


def test_breakdown_splits_main_and_worker_time():
    parts = spans.breakdown(_spans(), 0.0, 12.0, MAIN)
    assert parts.main == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert parts.workers == {"w": 5.0, "c": 3.0}
    assert parts.unattributed == pytest.approx(2.0)
    assert sum(parts.main.values()) + parts.unattributed == parts.wall
    assert layers.accounting_gap(parts) == 0.0
    assert parts.calls == {"a": 1, "b": 2, "c": 2, "w": 1}
    assert parts.entries == {"a": 1, "b": 2, "c": 2, "w": 1}


def test_breakdown_exposes_a_span_that_outlives_its_parent():
    broken = [Span("a", 0.0, 4.0, 1, None, 0, MAIN),
              Span("b", 3.0, 6.0, 2, 1, 0, MAIN)]
    parts = spans.breakdown(broken, 0.0, 6.0, MAIN)
    assert layers.accounting_gap(parts) > run.ACCOUNTING_TOLERANCE


def test_recorder_links_nested_generator_and_pool_thread_spans():
    recorder = spans.Recorder()

    def inner():
        return 1

    def numbers():
        yield inner()
        yield inner()

    inner = recorder.wrap(inner, "inner")
    numbers = recorder.wrap(numbers, "gen")
    pooled = recorder.wrap(lambda: inner(), "pooled")

    def outer():
        worker = threading.Thread(target=pooled)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return sum(numbers())

    recorder.op = 7
    assert recorder.wrap(outer, "outer")() == 2
    by_id = {span.span_id: span for span in recorder.spans}
    [top] = [s for s in recorder.spans if s.name == "outer"]
    [pool_root] = [s for s in recorder.spans if s.name == "pooled"]
    assert top.parent is None and top.thread == recorder.main_thread
    assert pool_root.parent == top.span_id
    assert pool_root.thread != recorder.main_thread
    for span in recorder.spans:
        assert span.op == 7
        if span.name == "inner":
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.name in ("gen", "pooled")
    # One span for the call, one per resumption (the last one ends the
    # iteration) and one for closing: each nests inside "outer".
    assert sum(s.name == "gen" for s in recorder.spans) == 5
    parts = spans.breakdown(recorder.spans, top.start, top.end,
                            recorder.main_thread)
    assert layers.accounting_gap(parts) < 1e-9
    assert "pooled" in parts.workers and "pooled" not in parts.main


def test_patching_restores_every_entry_point():
    import pickle

    recorder = spans.Recorder()
    original = pickle.dumps
    recorder.patch_function(pickle, "dumps", "runtime.pickle",
                            lambda r, *a, **k: recorder.count("n", len(r)))
    assert pickle.dumps is not original
    data = pickle.dumps([1, 2, 3])
    assert recorder.counts[-1]["n"] == len(data)
    recorder.unpatch()
    assert pickle.dumps is original


def test_every_span_name_maps_to_one_metric():
    names = [name for group in layers.SELF_METRICS.values()
             for name in group]
    assert len(names) == len(set(names))
    assert layers.unmapped(names + ["lint.rule.XDET001"]) == []
    assert layers.unmapped(["nowhere"]) == ["nowhere"]


# -- end-to-end arithmetic ----------------------------------------------


def test_paired_ratio_takes_the_median_of_per_pair_ratios():
    walls = [2.0, 3.0, 10.0]
    references = [1.0, 2.0, 2.0]
    assert figures.paired_p50_ratio(walls, references) == pytest.approx(2.0)


def test_snapshot_runs_frozen_ops_beside_the_live_program(tmp_path):
    from snapshot import Snapshot

    assert run.import_program() is None
    live_cli = sys.modules["repro.cli"]
    frozen = Snapshot("campaign-cold", 0, tmp_path, run.PROCESS_STATE)
    try:
        reply = frozen.op(0)
        assert sys.modules["repro.cli"] is live_cli
        frozen_cli = frozen.modules["repro.cli"]
        assert frozen_cli is not live_cli
        assert tmp_path in Path(frozen_cli.__file__).parents
        # Modules the snapshot imported lazily stay with it: a second op
        # imports nothing again.
        loaded = dict(frozen.modules)
        frozen.op(1)
        assert all(frozen.modules[name] is module
                   for name, module in loaded.items())
        # The serial-path answer matches what the timed op computed.
        assert frozen.reference(0) == {"rc": 0, "cells": reply["cells"]}
    finally:
        frozen.close()
    assert reply["rc"] == 0 and reply["wall"] > 0
    assert len(reply["cells"]) == workloads.CELLS
    assert sys.modules["repro.cli"] is live_cli


def test_snapshot_runs_under_its_own_process_state(tmp_path):
    from snapshot import Snapshot, process_state

    assert run.import_program() is None
    frozen = Snapshot("lint-deep", 0, tmp_path, run.PROCESS_STATE)
    saved = process_state()
    tuned = dict(saved, gc_threshold=(5000, 20, 20),
                 switch_interval=saved["switch_interval"] * 4)
    try:
        snapshot.set_process_state(tuned)
        with frozen.active():
            inside = process_state()
        assert process_state() == tuned
    finally:
        snapshot.set_process_state(saved)
    assert inside == run.PROCESS_STATE


def test_trials_per_s_and_store_bytes_per_cell():
    assert figures.trials_per_s(10, 16 * 120, 4.0) == pytest.approx(4800.0)
    assert figures.store_bytes_per_cell([7913, 7917], [16, 16]) == \
        pytest.approx(15830 / 32)
    assert figures.store_bytes_per_cell([0, 0], [0, 0]) is None


class _Planted:
    """A workload whose op 2 answers wrongly and op 4 raises."""

    trials_per_op = 1920

    def op(self, i):
        if i == 4:
            raise RuntimeError("planted crash")
        return {"answer": i * 2 + (i == 2)}

    def check(self, i, out, frozen):
        return None if out["answer"] == frozen else "wrong answer"

    def appended(self, i, out):
        return 0, 0

    def release(self, i, out):
        pass


def test_planted_wrong_output_lands_in_failed_frac():
    phase = {"outputs": [], "first": 0}
    workload = _Planted()
    for i in range(5):
        try:
            phase["outputs"].append(workload.op(i))
        except RuntimeError as exc:
            phase["outputs"].append({"error": str(exc)})
    answers = [{"rc": 0, "cells": i * 2} for i in range(5)]
    failures = run.check_all(workload, phase, answers)
    assert [f is not None for f in failures] == [False, False, True,
                                                 False, True]
    assert figures.failed_frac(failures) == pytest.approx(2 / 5)
    answers[1]["rc"] = 1  # the snapshot's op failed: the pair is void
    failures = run.check_all(workload, phase, answers)
    assert failures[1] == "op 1: the snapshot's op exited 1"


def test_planted_wrong_findings_fail_the_lint_check(tmp_path):
    lint = workloads.LintDeep(tmp_path, seed=0)
    pinned = lint.pinned
    report = {"files": pinned["files"],
              "findings": [dict(f, path=str(lint.root / f["path"]))
                           for f in pinned["findings"]]}
    good = {"rc": pinned["rc"], "out": json.dumps(report)}
    assert lint.check(0, good, None) is None
    report["findings"] = report["findings"][1:]
    bad = {"rc": pinned["rc"], "out": json.dumps(report)}
    assert lint.check(0, bad, None) == \
        "findings differ from the pinned findings"


def test_planted_wrong_cell_fails_the_cold_check(tmp_path):
    assert run.import_program() is None
    cold = workloads.CampaignCold(tmp_path, seed=3)
    out = cold.op(0)
    # The program is unchanged, so the snapshot computes the same cells.
    frozen = cold.cells(out)
    assert cold.check(0, out, frozen) is None
    assert cold.appended(0, out)[1] == workloads.CELLS
    doc = json.loads(out["out"])
    doc["cells"][5]["correct_rate"] += 0.01
    out["out"] = json.dumps(doc)
    assert cold.check(0, out, frozen) == \
        "report differs from the --workers 1 report"
    # A program wrong the same way at every worker count passes the
    # --workers 1 comparison; the snapshot's cells still catch it.
    cold._refs[cold.seed_of(0)] = {k: v for k, v in doc.items()
                                   if k != "workers"}
    assert cold.check(0, out, frozen) == \
        "cells differ from the frozen snapshot's"
    for cell in doc["cells"]:
        cell["requests"] //= 2
    out["out"] = json.dumps(doc)
    assert cold.check(0, out, frozen) == \
        "report is not 16 cells of 120 requests each"


def test_setup_ratio_sums_median_import_fixtures_and_warm_ups():
    live = {"fixtures_s": 1.0, "warmup_ops_s": [9.0, 2.0, 3.0]}
    frozen = {"fixtures_s": 0.5, "warmup_ops_s": [1.0, 1.5, 8.0]}
    imports = {"live": [0.4, 0.2, 0.3], "snapshot": [0.5, 0.5, 0.1]}
    assert run.setup_ratio(live, frozen, imports) == \
        pytest.approx((0.3 + 1.0 + 14.0) / (0.5 + 0.5 + 10.5))


# -- the recorded map ----------------------------------------------------


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == \
        set(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layers.metric_units()
    e2e = run.end_to_end({"walls": [1.0], "snapshot": [{"wall": 1.0}]},
                         1.0, 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: value["unit"] for name, value in e2e.items()}


def test_layer_map_covers_every_per_layer_metric_once():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((HERE / "layer_map.json").read_text())
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    named = [metric for row in mapping["layers"] for metric in row["metrics"]]
    assert sorted(named) == sorted(layers.metric_units())
    end_to_end = {m["name"] for m in bench["end_to_end"]} | {
        "op_p50_ms", "op_p90_ms", "trials_per_s", "store_bytes_per_cell"}
    for row in mapping["layers"]:
        assert set(row["moves"]) <= end_to_end, row["layer"]
        for key in ("works_in", "flat_in"):
            assert set(row[key]) <= set(whys), row["layer"]
