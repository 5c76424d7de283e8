"""Batch kernel: scalar-vs-batched byte-identity and exact folding.

The batched path's whole contract is that it changes *nothing* but the
cost: for any batch size — 1, all, ragged tails — ``run_trials`` and
``summarize`` reproduce the scalar path byte for byte, including
instrumented telemetry digests, serial or on worker processes.  Counter-based
seed streams are pinned across ``PYTHONHASHSEED`` values in a
subprocess, and the exact single-pass :class:`MetricAccumulator` is
checked bit for bit against ``statistics.fmean`` / ``statistics.stdev``.
"""

import os
import pathlib
import statistics
import subprocess
import sys

import pytest

from repro import observe
from repro.harness.experiment import (
    Experiment,
    TrialResult,
    run_trials,
    summarize,
)
from repro.runtime.kernel import (
    MetricAccumulator,
    partition,
    seed_range,
    trial_seed,
    trial_stream,
)
from repro.runtime.store import MISS, ResultStore, code_fingerprint

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


# -- module-level (picklable) sample trials --


def counter_trial(seed):
    """Draws through the sanctioned counter-based stream."""
    rng = trial_stream(seed, 0)
    metrics = {"value": rng.random(), "noise": rng.gauss(0.0, 1.0)}
    if seed % 3 == 0:
        metrics["rare"] = float(seed)
    return metrics


def plain_trial(seed):
    return {"value": seed * 2.0, "tag": seed % 5}


def divergent_order_trial(seed):
    """Odd seeds report their metrics in reversed key order."""
    if seed % 2:
        return {"b": seed + 0.5, "a": float(seed)}
    return {"a": float(seed), "b": seed + 0.5}


def publishing_trial(seed):
    tel = observe.current()
    if tel.enabled:
        tel.publish("unit.outcome", ok=seed % 2 == 0, technique="batch")
        tel.metrics.inc("repro_trials_total")
    return {"ok": float(seed % 2 == 0)}


SEEDS = tuple(range(17))


# -- counter-based seed streams --


class TestCounterSeeds:
    def test_seed_depends_only_on_base_and_index(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)
        assert trial_seed(7, 3) != trial_seed(7, 4)
        assert trial_seed(7, 3) != trial_seed(8, 3)

    def test_seed_range_matches_pointwise_derivation(self):
        seeds = seed_range(11, 6)
        assert seeds == tuple(trial_seed(11, i) for i in range(6))
        # Slicing the range never changes any individual seed.
        assert seed_range(11, 3, start=2) == seeds[2:5]

    def test_streams_are_partition_invariant(self):
        draws = [trial_stream(5, i).random() for i in range(8)]
        # Re-deriving any single stream reproduces its draw, no matter
        # how many trials "ran" before it.
        assert trial_stream(5, 6).random() == draws[6]

    def test_seeds_are_hashseed_stable_across_interpreters(self):
        script = (
            "from repro.runtime.kernel import seed_range\n"
            "print(seed_range(42, 4))\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONPATH=SRC,
                       PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            outputs.add(result.stdout)
        assert len(outputs) == 1
        assert outputs.pop().strip() == repr(seed_range(42, 4))


class TestPartition:
    def test_partition_concatenates_back_exactly(self):
        batches = partition(SEEDS, 4)
        assert [len(b) for b in batches] == [4, 4, 4, 4, 1]
        assert tuple(s for b in batches for s in b) == SEEDS

    def test_degenerate_sizes(self):
        assert partition(SEEDS, 1) == [(s,) for s in SEEDS]
        assert partition(SEEDS, len(SEEDS)) == [SEEDS]
        assert partition(SEEDS, 10 ** 6) == [SEEDS]
        assert partition((), 3) == []

    def test_nonpositive_batch_is_rejected(self):
        with pytest.raises(ValueError):
            partition(SEEDS, 0)


# -- scalar-vs-batched byte-identity --


class TestByteIdentity:
    def test_batched_run_trials_is_byte_identical(self):
        scalar = run_trials(counter_trial, SEEDS)
        for batch in (1, 4, 5, len(SEEDS)):
            batched = run_trials(counter_trial, SEEDS, batch=batch)
            assert repr(batched) == repr(scalar)

    def test_batched_summaries_are_byte_identical(self):
        scalar = summarize(run_trials(counter_trial, SEEDS))
        for batch in (1, 3, len(SEEDS)):
            experiment = Experiment(name="b", trial=counter_trial,
                                    seeds=SEEDS, batch=batch)
            assert repr(experiment.summary()) == repr(scalar)

    def test_instrumented_digests_are_byte_identical(self):
        scalar = Experiment(name="i", trial=publishing_trial,
                            seeds=SEEDS, instrument=True).run()
        assert all(r.telemetry is not None for r in scalar)
        for batch in (1, 4, len(SEEDS)):
            batched = Experiment(name="i", trial=publishing_trial,
                                 seeds=SEEDS, instrument=True,
                                 batch=batch).run()
            assert repr(batched) == repr(scalar)

    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("process", 2)],
                             ids=["serial", "process"])
    def test_pool_backends_are_byte_identical(self, backend, workers):
        scalar = run_trials(counter_trial, SEEDS)
        experiment = Experiment(name="b", trial=counter_trial,
                                seeds=SEEDS, workers=workers, batch=4)
        assert repr(experiment.run()) == repr(scalar)
        if workers > 1:
            assert experiment.pool_stats.backend == backend

    def test_divergent_key_orders_are_replayed(self):
        scalar = run_trials(divergent_order_trial, SEEDS)
        batched = run_trials(divergent_order_trial, SEEDS, batch=6)
        assert repr(batched) == repr(scalar)
        # Each trial's dict keeps its own key order in the batch.
        (batch,) = Experiment(name="d", trial=divergent_order_trial,
                              seeds=SEEDS,
                              batch=len(SEEDS)).run_batches()
        assert list(batch.metrics[1]) == ["b", "a"]
        assert list(batch.metrics[2]) == ["a", "b"]


# -- the batch record --


class TestBatchResult:
    def test_sparse_metrics_stay_on_their_trials(self):
        (batch,) = Experiment(name="sparse", trial=counter_trial,
                              seeds=SEEDS, batch=len(SEEDS)).run_batches()
        assert len(batch) == len(batch.metrics) == len(SEEDS)
        assert batch.telemetry is None
        # Sparse metric: only every third trial reported "rare".
        assert [index for index, metrics in enumerate(batch.metrics)
                if "rare" in metrics] == [0, 3, 6, 9, 12, 15]
        assert batch.metrics[3] == counter_trial(SEEDS[3])

    def test_results_expand_to_scalar_trial_results(self):
        (batch,) = Experiment(name="x", trial=plain_trial, seeds=SEEDS[:5],
                              batch=5).run_batches()
        expanded = batch.results()
        assert all(isinstance(r, TrialResult) for r in expanded)
        assert [r.seed for r in expanded] == list(SEEDS[:5])
        assert expanded[2].metrics == plain_trial(SEEDS[2])


# -- the batch store path --


class TestBatchStore:
    def test_warm_run_serves_whole_batches(self, tmp_path):
        log = tmp_path / "store.jsonl"
        cold = Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                          batch=4, store=ResultStore(log, name="unit"))
        first = cold.run()
        warm_store = ResultStore(log, name="unit")
        warm = Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                          batch=4, store=warm_store)
        assert repr(warm.run()) == repr(first)
        stats = warm_store.stats()
        assert stats["hits"] == 5 and stats["misses"] == 0
        assert stats["writes"] == 0
        assert stats["trials_served"] == len(SEEDS)

    def test_batch_size_is_part_of_the_key(self, tmp_path):
        log = tmp_path / "store.jsonl"
        Experiment(name="s", trial=counter_trial, seeds=SEEDS, batch=4,
                   store=ResultStore(log, name="unit")).run()
        other = ResultStore(log, name="unit")
        Experiment(name="s", trial=counter_trial, seeds=SEEDS, batch=5,
                   store=other).run()
        # A different partition addresses different records: all miss.
        stats = other.stats()
        assert stats["hits"] == 0 and stats["misses"] == 4
        assert stats["trials_stored"] == len(SEEDS)

    def test_partial_hits_compute_only_missing_batches(self, tmp_path):
        log = tmp_path / "store.jsonl"
        Experiment(name="s", trial=counter_trial, seeds=SEEDS[:8],
                   batch=4, store=ResultStore(log, name="unit")).run()
        grown = ResultStore(log, name="unit")
        results = Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                             batch=4, store=grown).run()
        assert repr(results) == repr(run_trials(counter_trial, SEEDS))
        stats = grown.stats()
        assert stats["hits"] == 2 and stats["misses"] == 3

    def test_batch_traffic_reaches_the_sli_table(self, tmp_path):
        log = tmp_path / "store.jsonl"
        Experiment(name="s", trial=counter_trial, seeds=SEEDS, batch=4,
                   store=ResultStore(log, name="unit")).run()
        with observe.session() as tel:
            monitor = observe.SliMonitor(tel.bus)
            Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                       batch=4, store=ResultStore(log, name="unit")).run()
        (row,) = monitor.store_rows()
        assert row["hits"] == 5
        assert row["trials_served"] == len(SEEDS)
        assert "trials served" in monitor.render()

    def test_a_record_in_an_older_layout_is_a_cold_miss(self, tmp_path):
        # Batch records were once struct-of-arrays columns, keyed by
        # (instrument, batch) alone; such a record must never be served.
        log = tmp_path / "store.jsonl"
        old = ResultStore(log, name="unit")
        experiment = Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                                batch=4, store=old)
        code = code_fingerprint(counter_trial)
        for batch in partition(SEEDS, 4):
            old.put(old.key(experiment._task_name(), (False, batch),
                            seed=batch[0], code=code),
                    "a batch record in an older layout")
        store = ResultStore(log, name="unit")
        results = Experiment(name="s", trial=counter_trial, seeds=SEEDS,
                             batch=4, store=store).run()
        assert repr(results) == repr(run_trials(counter_trial, SEEDS))
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 5
        assert stats["trials_stored"] == len(SEEDS)


class TestGetMany:
    def test_get_many_mirrors_get(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl", name="unit")
        keys = [store.key("task", (i,)) for i in range(4)]
        store.put(keys[1], "one")
        store.put(keys[3], "three")
        found = store.get_many(keys)
        assert found[keys[0]] is MISS and found[keys[2]] is MISS
        assert found[keys[1]] == "one" and found[keys[3]] == "three"
        stats = store.stats()
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_get_many_sees_foreign_appends(self, tmp_path):
        log = tmp_path / "s.jsonl"
        ours = ResultStore(log, name="unit")
        key = ours.key("task", ("x",))
        assert ours.get_many([key])[key] is MISS
        theirs = ResultStore(log, name="unit")
        theirs.put(key, "from-elsewhere")
        # One refresh picks up the record another process appended.
        assert ours.get_many([key])[key] == "from-elsewhere"


# -- exact single-pass aggregation --


class TestMetricAccumulator:
    def _values(self, rng, count):
        return [rng.uniform(-1000, 1000) for _ in range(count)]

    def test_mean_matches_fmean_bit_for_bit(self):
        rng = trial_stream(1, 0)
        for count in (1, 2, 7, 100):
            values = self._values(rng, count)
            accumulator = MetricAccumulator()
            for value in values:
                accumulator.add(value)
            assert accumulator.mean() == statistics.fmean(values)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="stdev uses exact sqrt only on 3.11+")
    def test_stdev_matches_statistics_bit_for_bit(self):
        rng = trial_stream(2, 0)
        for count in (2, 3, 11, 100):
            values = self._values(rng, count)
            accumulator = MetricAccumulator()
            for value in values:
                accumulator.add(value)
            assert accumulator.stdev() == statistics.stdev(values)

    def test_single_sample_stdev_is_zero(self):
        accumulator = MetricAccumulator()
        accumulator.add(3.25)
        assert accumulator.stdev() == 0.0
        assert accumulator.count == 1

    def test_summarize_accepts_mixed_result_kinds(self):
        scalars = run_trials(counter_trial, SEEDS[:8])
        batches = Experiment(name="m", trial=counter_trial,
                             seeds=SEEDS[8:], batch=3).run_batches()
        mixed = summarize([*scalars, *batches])
        assert mixed == summarize(run_trials(counter_trial, SEEDS))

    def test_summarize_of_nothing_is_empty(self):
        assert summarize([]) == {}
