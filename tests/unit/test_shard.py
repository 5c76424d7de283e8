"""Unit tests for the sharded, resumable campaign engine."""

import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro import observe
from repro.faults.development import Bohrbug, Heisenbug, InputRegion
from repro.harness.campaign import FaultCampaign
from repro.harness.shard import (ShardPlan, ShardedCampaign,
                                 campaign_fingerprint, pairs_digest)
from repro.runtime.pool import get_pool, retire_pool
from repro.runtime.store import ResultStore

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# -- module-level (picklable) campaign pieces for the process backend --


def oracle(x):
    return x + 1


def retry_protector(faulty, env):
    def protected(x):
        last = None
        for _ in range(4):
            try:
                return faulty(x, env=env)
            except Exception as exc:
                last = exc
        raise last
    return protected


def make_bohrbug():
    return Bohrbug("b", region=InputRegion(0, 10 ** 9))


def make_heisenbug():
    return Heisenbug("h", probability=0.5)


def make_quiet():
    return Heisenbug("quiet", probability=0.0)


def build_campaign(requests=30, seed=3, workers=1, backend="auto"):
    return FaultCampaign(
        {"retry": retry_protector},
        {"bohrbug": make_bohrbug, "heisenbug": make_heisenbug,
         "none": make_quiet},
        oracle=oracle, requests=requests, seed=seed,
        workers=workers, backend=backend)


def snapshot_bytes(snapshot):
    return json.dumps(snapshot, sort_keys=True, default=str)


def sha256(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class CountingProtector:
    """A retry protector factory that counts the cells it is built for
    (one build per measured cell)."""

    def __init__(self):
        self.cells = 0
        self._lock = threading.Lock()

    def __call__(self, faulty, env):
        with self._lock:
            self.cells += 1
        return retry_protector(faulty, env)


class TestShardPlan:
    def test_partition_is_exact_and_deterministic(self):
        plan_a = ShardPlan.for_campaign(build_campaign(), 4)
        plan_b = ShardPlan.for_campaign(build_campaign(), 4)
        assert plan_a == plan_b
        assert sum(len(s) for s in plan_a.shards) == 6
        flattened = tuple(p for s in plan_a.shards for p in s)
        assert flattened == plan_a.ordered
        assert sorted(flattened) == sorted(build_campaign().pairs())

    def test_ragged_remainder_is_front_loaded(self):
        plan = ShardPlan.build([("p", f"f{i}") for i in range(16)], 10)
        sizes = [len(s) for s in plan.shards]
        assert sizes == [2, 2, 2, 2, 2, 2, 1, 1, 1, 1]
        # "Half the shards" carries more than half the cells — the
        # property the H6 resume-speed bound rests on.
        assert sum(sizes[:5]) * 2 > 16

    def test_shard_count_is_clamped_to_grid(self):
        plan = ShardPlan.for_campaign(build_campaign(), 100)
        assert len(plan) == 6
        assert all(len(s) == 1 for s in plan.shards)
        assert len(ShardPlan.for_campaign(build_campaign(), 1)) == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build([], 2)
        with pytest.raises(ValueError):
            ShardPlan.build([("p", "f")], 0)

    def test_plan_order_is_hashseed_stable(self):
        script = (
            "from repro.harness.shard import ShardPlan\n"
            "pairs = [(p, f) for p in ('retry', 'unprotected')\n"
            "         for f in ('bohrbug', 'heisenbug', 'none')]\n"
            "print(ShardPlan.build(pairs, 4).shards)\n"
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


class TestShardedExecution:
    def test_serial_sharded_matches_plain_run(self):
        reference = build_campaign().run()
        for shards in (1, 2, 4, 6):
            sharded = ShardedCampaign(build_campaign(), shards=shards)
            assert sharded.run() == reference
            assert sharded.stats.shards_executed == len(sharded.plan)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pooled_sharded_matches_plain_run(self, backend):
        reference = build_campaign().run()
        sharded = ShardedCampaign(
            build_campaign(workers=3, backend=backend), shards=4)
        assert sharded.run() == reference
        assert sharded.campaign.pool_stats is not None

    def test_run_shards_streams_in_plan_order(self):
        sharded = ShardedCampaign(build_campaign(), shards=3)
        outcomes = list(sharded.run_shards())
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(not o.served for o in outcomes)
        for outcome in outcomes:
            assert [(c.protector, c.fault) for c in outcome.cells] \
                == list(outcome.pairs)

    def test_max_shards_truncates_cleanly(self):
        sharded = ShardedCampaign(build_campaign(), shards=6,
                                  max_shards=2)
        cells = sharded.run()
        assert len(cells) == 2
        assert sharded.stats.truncated
        assert sharded.stats.shards_executed == 2
        with pytest.raises(ValueError):
            ShardedCampaign(build_campaign(), shards=2, max_shards=0)
        # Pooled, shards past the limit must never reach the pool: once
        # the pool has drained, only the first K shards' cells were
        # built.
        counter = CountingProtector()
        campaign = FaultCampaign(
            {"retry": counter, "unprotected": counter},
            {"bohrbug": make_bohrbug, "heisenbug": make_heisenbug,
             "none": make_quiet},
            oracle=oracle, requests=30, seed=3, workers=2,
            backend="thread")
        sharded = ShardedCampaign(campaign, shards=6, max_shards=2)
        assert len(sharded.run()) == 2
        assert sharded.stats.truncated
        retire_pool(get_pool("thread", 2), wait=True)
        assert counter.cells == sum(len(shard)
                                    for shard in sharded.plan.shards[:2])


class TestCheckpointResume:
    def _checkpointed(self, tmp_path, max_shards=None, resume=False,
                      requests=30):
        store = ResultStore(tmp_path / "ck.jsonl", name="ck",
                            quiet=True)
        return ShardedCampaign(build_campaign(requests=requests),
                               shards=4, store=store, resume=resume,
                               max_shards=max_shards)

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        with observe.session():
            interrupted = self._checkpointed(tmp_path, max_shards=2)
            interrupted.run()
            assert interrupted.stats.shards_checkpointed == 2
        with observe.session() as tel:
            resumed = self._checkpointed(tmp_path, resume=True)
            resumed_cells = resumed.run()
            resumed_snapshot = snapshot_bytes(tel.snapshot())
        with observe.session() as tel:
            cold = ShardedCampaign(build_campaign(), shards=4)
            cold_cells = cold.run()
            cold_snapshot = snapshot_bytes(tel.snapshot())
        assert resumed.stats.shards_served == 2
        assert resumed.stats.shards_executed == 2
        assert resumed_cells == cold_cells
        assert resumed_snapshot == cold_snapshot

    def test_full_resume_executes_nothing(self, tmp_path):
        self._checkpointed(tmp_path).run()
        resumed = self._checkpointed(tmp_path, resume=True)
        cells = resumed.run()
        assert resumed.stats.shards_executed == 0
        assert resumed.stats.shards_served == 4
        assert cells == build_campaign().run()

    def test_resume_without_checkpoints_executes_everything(
            self, tmp_path):
        resumed = self._checkpointed(tmp_path, resume=True)
        resumed.run()
        assert resumed.stats.shards_served == 0
        assert resumed.stats.shards_executed == 4

    def test_checkpoint_store_is_telemetry_quiet(self, tmp_path):
        with observe.session() as tel:
            self._checkpointed(tmp_path, max_shards=2).run()
            self._checkpointed(tmp_path, resume=True).run()
            snapshot = tel.snapshot()
        topics = {event[1] for event in
                  snapshot["events"]["history"]} \
            if isinstance(snapshot["events"], dict) \
            and "history" in snapshot["events"] else set()
        rendered = snapshot_bytes(snapshot)
        assert "store.hit" not in rendered
        assert "store.write" not in rendered
        assert "repro_runtime_store" not in rendered
        assert "repro_cache" not in rendered
        assert topics == set() or "store.hit" not in topics

    def test_workload_change_invalidates_checkpoints(self, tmp_path):
        self._checkpointed(tmp_path).run()
        resumed = self._checkpointed(tmp_path, resume=True,
                                     requests=31)
        resumed.run()
        assert resumed.stats.shards_served == 0
        assert resumed.stats.shards_executed == 4

    def test_capture_mode_is_part_of_the_key(self, tmp_path):
        # Checkpoints written without telemetry carry no snapshots; a
        # later telemetry-enabled resume must not serve them.
        self._checkpointed(tmp_path).run()
        with observe.session():
            resumed = self._checkpointed(tmp_path, resume=True)
            resumed.run()
        assert resumed.stats.shards_served == 0

    def test_malformed_record_degrades_to_execution(self, tmp_path):
        # Poison the log with records under the right keys but the
        # wrong shape (hand-edited log, version skew): the validity
        # gate must re-execute, not crash or serve garbage.
        poisoned = self._checkpointed(tmp_path)
        for index in range(len(poisoned.plan)):
            poisoned.store.put(poisoned.shard_key(index, False),
                               {"schema": "bogus"}, task="tamper")
        resumed = self._checkpointed(tmp_path, resume=True)
        cells = resumed.run()
        assert resumed.stats.shards_served == 0
        assert resumed.stats.shards_executed == 4
        assert cells == build_campaign().run()

    def test_cells_are_individually_addressed_too(self, tmp_path):
        # A later *unsharded* --store run is served from the same log.
        sharded = self._checkpointed(tmp_path)
        sharded.run()
        campaign = build_campaign()
        campaign.store = ResultStore(tmp_path / "ck.jsonl", name="ck")
        cells = campaign.run()
        assert cells == build_campaign().run()
        assert campaign.store.hits >= 6


class TestFingerprint:
    def test_fingerprint_covers_workload_and_seed(self):
        base = campaign_fingerprint(build_campaign())
        assert campaign_fingerprint(build_campaign()) == base
        assert campaign_fingerprint(
            build_campaign(requests=31)) != base
        assert campaign_fingerprint(build_campaign(seed=4)) != base

    def test_fingerprint_ignores_execution_knobs(self):
        base = campaign_fingerprint(build_campaign())
        assert campaign_fingerprint(
            build_campaign(workers=8, backend="thread")) == base

    def test_sources_are_read_once_per_campaign(self, tmp_path,
                                                monkeypatch):
        # The fingerprint, the checkpointed cells' keys and a later
        # store= run's cell keys all share the campaign's source memo.
        reads = []
        getsource = inspect.getsource

        def counting_getsource(fn):
            reads.append(fn)
            return getsource(fn)

        monkeypatch.setattr(inspect, "getsource", counting_getsource)
        campaign = build_campaign()
        ShardedCampaign(campaign, shards=4, store=ResultStore(
            tmp_path / "ck.jsonl", quiet=True)).run()
        campaign.store = ResultStore(tmp_path / "ck.jsonl")
        campaign.run()
        assert campaign.store.hits == len(campaign.pairs())
        distinct = [campaign.oracle, *campaign.protectors.values(),
                    *campaign.faults.values()]
        assert sorted(map(id, reads)) == sorted(map(id, distinct))
        # Worker pickles leave the memo behind.
        assert pickle.loads(pickle.dumps(campaign))._sources == {}

    def test_pairs_digest_is_order_sensitive(self):
        pairs = [("a", "x"), ("b", "y")]
        assert pairs_digest(pairs) == pairs_digest(tuple(pairs))
        assert pairs_digest(pairs) != pairs_digest(pairs[::-1])


class TestPinnedAddresses:
    """Content addresses and log bytes, pinned as sha256 digests of what
    an earlier commit computed for :func:`build_campaign`.

    A key that changes silently turns every existing log into misses,
    so these must never move.  The source of the campaign pieces above
    (and of the ``unprotected`` baseline) is part of every key: editing
    them changes the pins by design.
    """

    CELL_KEYS = \
        "5334d95a74e168b7c1c01aee82e221c459484c4921ddb7783c598cb510199d51"
    FINGERPRINT = \
        "5a27e6a34645985697e3a5272d451c43e8f64ec1ab925b724d84d88a3d3a0c2e"
    SHARD_KEYS = \
        "4b7e706334f1b45aa0084b602dde4127104cb8fd5c0903f7683375862944f806"
    STORE_LOG = \
        "8ca95381782eb36d1bc2a140db72b88cfd57932c862be44f296ced815fd5381d"
    CHECKPOINT_LOG = \
        "4752c8902171f7a26d9b1d3c8f8ea5b9b9cc85c2d00c54284a55f41f70c137ff"

    def test_cell_keys(self, tmp_path):
        campaign = build_campaign()
        store = ResultStore(tmp_path / "keys.jsonl")
        keys = [campaign._cell_key(*pair, store=store)
                for pair in campaign.pairs()]
        assert sha256("\n".join(keys)) == self.CELL_KEYS

    def test_campaign_fingerprint(self):
        assert sha256(campaign_fingerprint(build_campaign())) \
            == self.FINGERPRINT

    def test_shard_keys_in_both_capture_modes(self, tmp_path):
        sharded = ShardedCampaign(
            build_campaign(), shards=4,
            store=ResultStore(tmp_path / "keys.jsonl", quiet=True))
        keys = [sharded.shard_key(index, captured)
                for captured in (False, True)
                for index in range(len(sharded.plan))]
        assert sha256("\n".join(keys)) == self.SHARD_KEYS

    def test_store_run_log_bytes(self, tmp_path):
        campaign = build_campaign()
        campaign.store = ResultStore(tmp_path / "store.jsonl")
        campaign.run()
        assert sha256((tmp_path / "store.jsonl").read_bytes()) \
            == self.STORE_LOG

    def test_checkpointed_sharded_log_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "ck.jsonl", quiet=True)
        ShardedCampaign(build_campaign(), shards=4, store=store).run()
        assert sha256((tmp_path / "ck.jsonl").read_bytes()) \
            == self.CHECKPOINT_LOG
