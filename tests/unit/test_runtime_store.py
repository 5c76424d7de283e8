"""ResultStore: content addressing, two tiers, cross-process safety.

The store's contract: a key is a ``PYTHONHASHSEED``-stable function of
(task, args digest, seed, code version); a value survives process exit;
concurrent writers sharing one log interleave whole records; and a
served result is byte-identical to a computed one — asserted here for
the raw store and for the ``store=`` knobs on ``run_trials`` and
``FaultCampaign``.
"""

import inspect
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro import observe
from repro.runtime.store import (
    MISS,
    ResultStore,
    args_digest,
    code_fingerprint,
    fingerprint,
)

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


# -- module-level (picklable, stable-source) sample tasks --


def add_one(x):
    return x + 1


def add_one_differently(x):
    return (x * 1) + 1


def seeded_trial(seed):
    return {"value": seed * 2.0, "tag": seed % 3}


def serve_add_one(store):
    """``add_one(1)`` through ``store.serve``, under its own key."""
    [value] = store.serve([store.key(add_one, (1,), seed=0)],
                          lambda missing: [add_one(1)],
                          task="add_one", seeds=[0])
    return value


class TestKeys:
    def test_args_digest_stable_for_common_shapes(self):
        digest = args_digest((1, "a", 2.5, {"k": (3, 4)}))
        assert digest == args_digest((1, "a", 2.5, {"k": (3, 4)}))
        assert digest != args_digest((1, "a", 2.5, {"k": (3, 5)}))

    def test_code_fingerprint_tracks_source(self):
        assert code_fingerprint(add_one) == code_fingerprint(add_one)
        assert code_fingerprint(add_one) \
            != code_fingerprint(add_one_differently)
        # Multi-callable fingerprints mix every source in.
        assert code_fingerprint(add_one, seeded_trial) \
            != code_fingerprint(add_one)

    def test_code_fingerprint_memo_reads_each_source_once(
            self, monkeypatch):
        reads = []
        getsource = inspect.getsource

        def counting_getsource(fn):
            reads.append(fn)
            return getsource(fn)

        plain = [code_fingerprint(add_one, seeded_trial),
                 code_fingerprint(seeded_trial, add_one_differently)]
        monkeypatch.setattr(inspect, "getsource", counting_getsource)
        memo = {}
        memoized = [code_fingerprint(add_one, seeded_trial, memo=memo),
                    code_fingerprint(seeded_trial, add_one_differently,
                                     memo=memo)]
        assert memoized == plain
        assert reads == [add_one, seeded_trial, add_one_differently]

    def test_key_varies_with_every_part(self):
        store_key = fingerprint("task", "digest", 7, "code")
        assert fingerprint("task2", "digest", 7, "code") != store_key
        assert fingerprint("task", "digest2", 7, "code") != store_key
        assert fingerprint("task", "digest", 8, "code") != store_key
        assert fingerprint("task", "digest", 7, "code2") != store_key

    def test_key_is_hashseed_stable_across_interpreters(self, tmp_path):
        script = (
            "import sys; sys.path.insert(0, {src!r}); "
            "sys.path.insert(0, {here!r}); "
            "from test_runtime_store import add_one; "
            "from repro.runtime.store import ResultStore; "
            "s = ResultStore({path!r}); "
            "print(s.key(add_one, (1, 'a', (2, 3)), seed=7))"
        ).format(src=SRC,
                 here=str(pathlib.Path(__file__).resolve().parent),
                 path=str(tmp_path / "k.jsonl"))
        keys = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env={"PYTHONHASHSEED": seed,
                                "PATH": os.environ["PATH"]})
            assert proc.returncode == 0, proc.stderr
            keys.add(proc.stdout.strip())
        assert len(keys) == 1


class TestTwoTierStore:
    def test_round_trip_and_miss_sentinel(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        key = store.key(add_one, (1,), seed=0)
        assert store.get(key) is MISS
        store.put(key, None, task="add_one")  # stored None is a hit
        assert store.get(key) is None
        assert store.get(key) is None
        assert store.stats()["hits"] == 2
        assert store.stats()["entries"] == 1

    def test_values_survive_process_exit(self, tmp_path):
        path = tmp_path / "s.jsonl"
        first = ResultStore(path)
        key = first.key(add_one, (10,), seed=2)
        first.put(key, {"deep": [1, (2, 3)]}, task="add_one")
        # A brand-new store over the same log serves from disk.
        second = ResultStore(path)
        assert second.get(key) == {"deep": [1, (2, 3)]}
        assert second.stats()["bytes_read"] > 0

    def test_code_version_invalidates(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert serve_add_one(store) == 2
        # Same name/args/seed, different source: a distinct address.
        key_v2 = store.key(f"{add_one.__module__}.{add_one.__qualname__}",
                           (1,), seed=0,
                           code=code_fingerprint(add_one_differently))
        assert store.get(key_v2) is MISS

    def test_refresh_sees_foreign_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        reader = ResultStore(path, name="reader")
        writer = ResultStore(path, name="writer")
        key = writer.key("task", (1,), seed=0, code="v1")
        writer.put(key, "payload", task="task")
        # The reader's miss path notices the grown log and re-reads.
        assert reader.get(key) == "payload"

    @pytest.mark.parametrize("replacement", [1, 24])
    def test_a_log_replaced_under_an_open_store_is_reindexed(
            self, tmp_path, replacement):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        writer.put_many([{"key": f"old-{i:02d}", "value": i}
                         for i in range(16)])
        reader = ResultStore(path)
        assert (reader.entries, reader.get("old-00")) == (16, 0)
        old_size = path.stat().st_size
        path.unlink()
        # Another store writes a new log at the path: one record, far
        # smaller than what the reader consumed, or more bytes than it
        # consumed, whose old offset falls inside a line.
        fresh = [f"fresh-{i:02d}" for i in range(replacement)]
        ResultStore(path).put_many([{"key": key, "value": key}
                                    for key in fresh])
        assert (path.stat().st_size < old_size) == (replacement == 1)
        assert reader.get(fresh[0]) == fresh[0]
        assert reader.get_many(fresh) == {key: key for key in fresh}
        assert reader.get("old-00") == 0  # decoded before, from memory
        assert reader.get("old-01") is MISS
        assert reader.serve(["mine"], lambda missing: ["computed"],
                            task="task", seeds=[None]) == ["computed"]
        assert reader.entries == replacement + 1
        assert reader.stats()["corrupt_lines"] == 0
        assert ResultStore(path).get_many(["mine", *fresh]) == {
            "mine": "computed", **{key: key for key in fresh}}

    def test_a_log_renamed_over_an_open_store_is_reindexed(self,
                                                           tmp_path):
        path = tmp_path / "s.jsonl"
        keys = [f"key-{i:02d}" for i in range(16)]
        ResultStore(path).put_many([{"key": key, "value": key}
                                    for key in keys])
        reader = ResultStore(path)
        # The same records in another order plus one more, renamed over
        # the log: the line where the consumed bytes ended still ends
        # there, and only the file's identity tells the logs apart.
        other = tmp_path / "other.jsonl"
        other.write_bytes(b"".join(reversed(
            path.read_bytes().splitlines(keepends=True))))
        ResultStore(other).put("late", "late")
        os.replace(other, path)
        assert reader.get("late") == "late"
        assert reader.get_many(keys) == {key: key for key in keys}
        assert reader.stats()["corrupt_lines"] == 0

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        key = store.key("task", (1,), seed=0, code="v1")
        store.put(key, 42, task="task")
        first, second = (pickle.dumps(value, protocol=4).hex()
                         for value in ("first", "second"))
        lines = [
            "not json at all",
            {"no_key_field": 1},
            [key, first],                        # not an object
            {"key": "no-id"},                    # no id, no payload
            {"id": 7, "key": "no-payload"},
            {"id": 8, "key": 8, "payload": first},       # key not str
            {"id": 9, "key": "int-payload", "payload": 9},
            # Well formed: the id is not part of the index, so a
            # string id among int ids is served like any record.
            {"id": "str-id", "key": "str-id", "payload": first},
            # The same key twice in one refresh: the first wins.
            {"id": 10, "key": "dup", "payload": first},
            {"id": 10, "key": "dup", "payload": second},
        ]
        with open(path, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write((line if isinstance(line, str)
                              else json.dumps(line)) + "\n")
        reloaded = ResultStore(path)
        assert reloaded.get(key) == 42
        assert reloaded.get("str-id") == "first"
        assert reloaded.get("dup") == "first"
        for missing in ("no-id", "no-payload", "int-payload"):
            assert reloaded.get(missing) is MISS
        assert reloaded.stats()["corrupt_lines"] == 7
        assert reloaded.stats()["entries"] == 3

    def test_torn_trailing_record_waits_for_next_refresh(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        key = store.key("task", (1,), seed=0, code="v1")
        store.put(key, 1, task="task")
        line = path.read_bytes().rstrip(b"\n")
        with open(path, "ab") as handle:
            handle.write(line[:len(line) // 2])  # torn, no newline
        reloaded = ResultStore(path)
        assert reloaded.get(key) == 1
        assert reloaded.stats()["corrupt_lines"] == 0
        with open(path, "ab") as handle:
            handle.write(line[len(line) // 2:] + b"\n")
        assert reloaded.refresh() == 0  # duplicate key: not re-indexed
        assert reloaded.stats()["corrupt_lines"] == 0

    def test_concurrent_writers_interleave_whole_records(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        writers, per_writer = 4, 25
        script = (
            "import sys; sys.path.insert(0, {src!r}); "
            "from repro.runtime.store import ResultStore; "
            "s = ResultStore({path!r}); "
            "wid = int(sys.argv[1]); "
            "[s.put(s.key('task', (wid, i), seed=0, code='v1'),"
            " {{'w': wid, 'i': i, 'pad': 'x' * 200}}, task='task')"
            " for i in range({n})]"
        ).format(src=SRC, path=str(path), n=per_writer)
        procs = [subprocess.Popen([sys.executable, "-c", script, str(w)],
                                  stderr=subprocess.PIPE)
                 for w in range(writers)]
        for proc in procs:
            _, stderr = proc.communicate()
            assert proc.returncode == 0, stderr.decode()
        merged = ResultStore(path)
        assert merged.stats()["corrupt_lines"] == 0
        assert merged.stats()["entries"] == writers * per_writer
        for w in range(writers):
            for i in range(per_writer):
                key = merged.key("task", (w, i), seed=0, code="v1")
                assert merged.get(key) == {"w": w, "i": i,
                                           "pad": "x" * 200}

    def test_counters_flow_into_telemetry(self, tmp_path):
        with observe.session() as tel:
            store = ResultStore(tmp_path / "s.jsonl", name="unit")
            serve_add_one(store)
            serve_add_one(store)
        metrics = tel.metrics.as_dict()
        assert metrics['repro_runtime_store_hits_total{store="unit"}'] \
            == 1.0
        assert metrics['repro_runtime_store_misses_total{store="unit"}'] \
            == 1.0
        assert metrics['repro_runtime_store_writes_total{store="unit"}'] \
            == 1.0
        topics = [e.topic for e in tel.bus.history]
        assert topics.count("store.miss") == 1
        assert topics.count("store.write") == 1
        assert topics.count("store.hit") == 1


class TestMemoryTier:
    """The index keeps the decoded value of every key the store served
    or wrote: a key is unpickled at most once per store, however many
    keys it holds."""

    @staticmethod
    def _counting_loads(monkeypatch, module=pickle):
        """Record every ``module.loads`` call's input (``pickle`` or
        ``json``)."""
        loads = []
        real_loads = module.loads

        def counting(data, *args, **kwargs):
            loads.append(data)
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(module, "loads", counting)
        return loads

    @staticmethod
    def _hit_tiers(tel):
        return [(event.payload["tier"], "bytes" in event.payload)
                for event in tel.bus.history if event.topic == "store.hit"]

    def test_disk_hit_then_memory_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        keys = [writer.key("task", (i,), seed=0, code="v1")
                for i in range(3)]
        writer.put_many([{"key": key, "value": {"i": i}}
                         for i, key in enumerate(keys)])
        loads = self._counting_loads(monkeypatch)
        with observe.session() as tel:
            store = ResultStore(path, name="tiers")
            assert store.get(keys[0]) == {"i": 0}
            read = store.bytes_read
            assert read > 0
            assert store.get(keys[0]) == {"i": 0}
            assert store.bytes_read == read
            first = store.get_many(keys[:2])
            again = store.get_many(keys[:2])
        assert first == again == {keys[0]: {"i": 0}, keys[1]: {"i": 1}}
        assert len(loads) == 2
        assert self._hit_tiers(tel) == [
            ("disk", True), ("memory", False),
            ("memory", False), ("disk", True),
            ("memory", False), ("memory", False)]
        assert store.stats()["hits"] == 6
        assert "memory" not in store.stats()

    def test_written_value_is_served_from_memory(self, tmp_path,
                                                 monkeypatch):
        store = ResultStore(tmp_path / "s.jsonl")
        key = store.key("task", (1,), seed=0, code="v1")
        loads = self._counting_loads(monkeypatch)
        with observe.session() as tel:
            store.put(key, {"v": 1}, task="task")
            assert store.get(key) == {"v": 1}
            assert store.get_many([key]) == {key: {"v": 1}}
        assert loads == []
        assert store.stats()["bytes_read"] == 0
        assert self._hit_tiers(tel) == [("memory", False)] * 2

    def test_no_bound_on_the_memory_tier(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        keys = [writer.key("task", (i,), seed=0, code="v1")
                for i in range(1100)]
        writer.put_many([{"key": key, "value": i}
                         for i, key in enumerate(keys)])
        store = ResultStore(path)
        loads = self._counting_loads(monkeypatch)
        store.get_many(keys)
        read = store.bytes_read
        served = store.get_many(keys)
        assert [served[key] for key in keys] == list(range(1100))
        assert len(loads) == 1100
        assert store.bytes_read == read

    def test_open_parses_no_line_and_a_lookup_only_its_own(
            self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        keys = [writer.key("task", (i,), seed=0, code="v1")
                for i in range(1100)]
        writer.put_many([{"key": key, "value": i}
                         for i, key in enumerate(keys)])
        parsed = self._counting_loads(monkeypatch, json)
        unpickled = self._counting_loads(monkeypatch)
        store = ResultStore(path)
        assert store.entries == 1100
        assert (parsed, unpickled) == ([], [])
        wanted = keys[500:503]
        assert store.get_many(wanted) == {key: 500 + i
                                          for i, key in enumerate(wanted)}
        assert len(parsed) == len(unpickled) == 3

    @pytest.mark.parametrize("rewrite", ["reordered", "removed"])
    def test_a_stale_span_is_a_corrupt_line_and_a_miss(self, tmp_path,
                                                       rewrite):
        path = tmp_path / "s.jsonl"
        writer = ResultStore(path)
        keys = [writer.key("task", (i,), seed=0, code="v1")
                for i in range(16)]
        writer.put_many([{"key": key, "value": {"i": i}}
                         for i, key in enumerate(keys)])
        store = ResultStore(path)
        lines = path.read_bytes().splitlines(keepends=True)
        # Two records of one length trade places, so each one's indexed
        # span holds the other's whole, valid record.
        a, b = next((a, b) for a in range(16) for b in range(a + 1, 16)
                    if len(lines[a]) == len(lines[b]))
        if rewrite == "reordered":
            lines[a], lines[b] = lines[b], lines[a]
            path.write_bytes(b"".join(lines))
        else:
            path.unlink()

        assert store.get(keys[a]) is MISS
        stats = store.stats()
        assert (stats["corrupt_lines"], stats["hits"], stats["misses"]) \
            == (1, 0, 1)
        computed = []

        def compute(missing):
            computed.append(missing)
            return [{"i": b}]

        assert store.serve([keys[b]], compute, task="task",
                           seeds=[0]) == [{"i": b}]
        assert computed == [[0]]
        stats = store.stats()
        assert (stats["corrupt_lines"], stats["misses"], stats["writes"]) \
            == (2, 2, 1)
        appended = json.loads(path.read_bytes().splitlines()[-1])
        assert appended["key"] == keys[b]


def damage(path, key, payload):
    """Rewrite the first record of ``key`` in the log at ``path`` with
    ``payload`` (a function of the old payload)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        row = json.loads(line)
        if row["key"] == key:
            row["payload"] = payload(row["payload"])
            lines[index] = json.dumps(row, sort_keys=True)
            break
    else:  # pragma: no cover - a test defect
        raise AssertionError(f"no record of {key} in {path}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def not_hex(payload):
    return "zz" + payload[2:]


def truncated(payload):
    """Half the pickle: still hex, no longer a whole pickle."""
    return payload[:len(payload) // 4 * 2]


class TestDamagedPayloads:
    """A payload that does not decode is a miss, never a crash."""

    def _store_with(self, path, values):
        store = ResultStore(path)
        keys = [store.key("task", (i,), seed=0, code="v1")
                for i in range(len(values))]
        for key, value in zip(keys, values):
            store.put(key, value, task="task")
        return keys

    def test_non_hex_and_truncated_payloads_miss(self, tmp_path):
        path = tmp_path / "s.jsonl"
        keys = self._store_with(path, [{"v": 1}, {"v": 2}, {"v": 3}])
        damage(path, keys[0], not_hex)
        damage(path, keys[1], truncated)
        for lookup in ("get", "get_many"):
            reloaded = ResultStore(path)
            if lookup == "get":
                got = [reloaded.get(key) for key in keys]
            else:
                values = reloaded.get_many(keys)
                got = [values[key] for key in keys]
            assert got == [MISS, MISS, {"v": 3}]
            stats = reloaded.stats()
            assert stats["corrupt_lines"] == 2
            assert (stats["hits"], stats["misses"]) == (1, 2)
            assert stats["entries"] == 1

    def test_damaged_record_falls_back_to_a_duplicate(self, tmp_path):
        path = tmp_path / "s.jsonl"
        [key] = self._store_with(path, ["first"])
        ResultStore(path).put(key, "second", task="task")
        damage(path, key, truncated)
        reloaded = ResultStore(path)
        assert reloaded.get(key) == "second"
        assert reloaded.stats()["corrupt_lines"] == 1
        assert reloaded.stats()["misses"] == 0

    def test_campaign_reexecutes_only_the_damaged_cell(self, tmp_path):
        from tests.unit.test_parallel_harness import CAMPAIGN_KWARGS
        from repro.harness.campaign import FaultCampaign

        path = tmp_path / "c.jsonl"
        clean = FaultCampaign(**CAMPAIGN_KWARGS,
                              store=ResultStore(path)).run()
        campaign = FaultCampaign(**CAMPAIGN_KWARGS)
        damaged = campaign._cell_key(*campaign.pairs()[1],
                                     store=ResultStore(path))
        damage(path, damaged, not_hex)

        store = ResultStore(path)
        assert FaultCampaign(**CAMPAIGN_KWARGS, store=store).run() == clean
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == \
            (len(clean) - 1, 1, 1)
        assert stats["corrupt_lines"] == 1

        # Reopened, the log serves the appended record in place of the
        # damaged one: nothing runs again.
        reopened = ResultStore(path)
        assert FaultCampaign(**CAMPAIGN_KWARGS,
                             store=reopened).run() == clean
        stats = reopened.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == \
            (len(clean), 0, 0)
        assert stats["corrupt_lines"] == 1


class TestBatchedPuts:
    def test_put_many_round_trips_and_counts(self, tmp_path):
        store = ResultStore(tmp_path / "b.jsonl", name="batch")
        entries = [{"key": store.key("task", (i,), seed=0, code="v1"),
                    "value": {"i": i}, "task": "task", "seed": 0}
                   for i in range(5)]
        store.put_many(entries)
        for entry in entries:
            assert store.get(entry["key"]) == entry["value"]
        assert store.stats()["writes"] == 5
        assert store.stats()["puts_batched"] == 5
        # One append: the log grew once, in whole records.
        fresh = ResultStore(tmp_path / "b.jsonl", name="batch2")
        assert fresh.stats()["entries"] == 5
        assert fresh.stats()["corrupt_lines"] == 0

    def test_put_many_carries_trials_accounting(self, tmp_path):
        store = ResultStore(tmp_path / "b.jsonl", name="batch")
        key = store.key("batched", ("cell",), seed=1)
        store.put_many([{"key": key, "value": [1, 2, 3],
                         "task": "batched", "seed": 1, "trials": 3}])
        assert store.stats()["trials_stored"] == 3
        served = ResultStore(tmp_path / "b.jsonl", name="reader")
        assert served.get(key) == [1, 2, 3]
        assert served.stats()["trials_served"] == 3

    def test_a_written_batch_record_is_served_from_memory_as_a_batch(
            self, tmp_path):
        store = ResultStore(tmp_path / "b.jsonl", name="batch")
        key = store.key("batched", ("cell",), seed=1)
        store.put_many([{"key": key, "value": [1, 2, 3],
                         "task": "batched", "seed": 1, "trials": 3}])
        with observe.session() as tel:
            assert store.get(key) == [1, 2, 3]
        assert store.stats()["trials_served"] == 3
        [hit] = [event.payload for event in tel.bus.history
                 if event.topic == "store.hit"]
        assert (hit["tier"], hit["trials"]) == ("memory", 3)

    def test_empty_batch_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path / "b.jsonl", name="batch")
        store.put_many([])
        assert store.stats()["writes"] == 0
        assert not os.path.exists(store.path) \
            or not os.path.getsize(store.path)

    def test_quiet_store_keeps_counters_but_not_telemetry(self, tmp_path):
        with observe.session() as tel:
            store = ResultStore(tmp_path / "q.jsonl", name="hush",
                                quiet=True)
            serve_add_one(store)
            serve_add_one(store)
            store.put_many([{"key": store.key("t", (9,), seed=0),
                             "value": 9}])
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["writes"] == 2
        rendered = json.dumps(tel.snapshot(), sort_keys=True, default=str)
        assert "repro_runtime_store" not in rendered
        assert "store.hit" not in rendered and "hush" not in rendered
        assert "repro_cache" not in rendered

    def test_experiment_miss_tail_is_one_batch(self, tmp_path):
        from repro.harness.experiment import run_trials

        store = ResultStore(tmp_path / "t.jsonl")
        run_trials(seeded_trial, range(4), store=store)
        assert store.stats()["puts_batched"] == 4
        run_trials(seeded_trial, range(6), store=store)
        # Only the two missing seeds joined the second batch.
        assert store.stats()["puts_batched"] == 6


class TestHarnessWiring:
    def test_run_trials_store_is_byte_identical(self, tmp_path):
        from repro.harness.experiment import run_trials

        plain = run_trials(seeded_trial, range(6))
        store = ResultStore(tmp_path / "t.jsonl")
        cold = run_trials(seeded_trial, range(6), store=store)
        warm = run_trials(seeded_trial, range(6), store=store)
        assert repr(cold) == repr(warm) == repr(plain)
        assert store.stats()["writes"] == 6
        assert store.stats()["hits"] == 6

    def test_run_trials_partial_hits_compute_only_missing(self, tmp_path):
        from repro.harness.experiment import run_trials

        store = ResultStore(tmp_path / "t.jsonl")
        run_trials(seeded_trial, range(4), store=store)
        extended = run_trials(seeded_trial, range(6), store=store)
        assert store.stats()["writes"] == 6  # only seeds 4 and 5 ran
        assert [r.seed for r in extended] == list(range(6))

    def test_repeated_seeds_compute_and_write_each_key_once(self,
                                                             tmp_path):
        from repro.harness.experiment import Experiment

        calls = []

        def counting_trial(seed):
            calls.append(seed)
            return seeded_trial(seed)

        seeds = (1, 1, 2, 2)
        plain = Experiment(name="dup", trial=counting_trial,
                           seeds=seeds).run()
        assert calls == [1, 1, 2, 2]
        del calls[:]
        store = ResultStore(tmp_path / "t.jsonl")
        served = Experiment(name="dup", trial=counting_trial, seeds=seeds,
                            store=store).run()
        assert calls == [1, 2]
        assert store.stats()["writes"] == 2
        assert len(pathlib.Path(store.path).read_text(
            encoding="utf-8").splitlines()) == 2
        assert repr(served) == repr(plain)

    def test_campaign_store_round_trip_and_fanout(self, tmp_path):
        from tests.unit.test_parallel_harness import CAMPAIGN_KWARGS
        from repro.harness.campaign import FaultCampaign

        plain = FaultCampaign(**CAMPAIGN_KWARGS).run()
        store = ResultStore(tmp_path / "c.jsonl")
        cold = FaultCampaign(**CAMPAIGN_KWARGS, store=store).run()
        warm = FaultCampaign(**CAMPAIGN_KWARGS, store=store).run()
        # The store never ships to workers (__getstate__ strips it), so
        # pooled fan-out serves parent-side hits like the serial path.
        pooled = FaultCampaign(**CAMPAIGN_KWARGS, store=store,
                               workers=3).run()
        assert cold == warm == pooled == plain
        assert store.stats()["writes"] == len(plain)

    def test_campaign_code_change_invalidates_cells(self, tmp_path):
        from tests.unit.test_parallel_harness import CAMPAIGN_KWARGS, retry_protector
        from repro.harness.campaign import FaultCampaign

        store = ResultStore(tmp_path / "c.jsonl")
        FaultCampaign(**CAMPAIGN_KWARGS, store=store).run()
        writes = store.stats()["writes"]

        def retry_protector_v2(faulty, env):  # different source
            return retry_protector(faulty, env)

        kwargs = dict(CAMPAIGN_KWARGS,
                      protectors={"retry": retry_protector_v2})
        FaultCampaign(**kwargs, store=store).run()
        # The edited protector's cells re-ran; the untouched
        # "unprotected" baseline cells were served.
        assert store.stats()["writes"] > writes
        assert store.stats()["hits"] > 0


class TestPinnedLogBytes:
    """sha256 of the log an ``Experiment(store=)`` run leaves behind.

    Each run fills a cold store, then re-runs over more seeds, so the
    log holds the first run's records followed by the second run's miss
    tail.  The digests pin keys, payloads and record order for the
    scalar and the batched path alike.
    """

    SCALAR = \
        "525fdf0e51dbb31c08c5c1c5463045430798a07254aae06c43741b476c4c51b0"
    #: Re-made once, when a batch record changed from struct-of-arrays
    #: columns to each trial's own dict and its key's args gained
    #: ``BATCH_SCHEMA``: only the batch records' keys (with the ids
    #: derived from them) and payloads moved, not their task, seed,
    #: trial count or order.
    BATCHED = \
        "ea49a5bbf7d181a999cad1aeb52c5a9d4f1c209ea41650373f8ce2f4244e0e90"

    @staticmethod
    def _log_digest(path, **knobs):
        import hashlib

        from repro.harness.experiment import Experiment

        store = ResultStore(path)
        for seeds in (range(4), range(7)):
            Experiment(name="pin", trial=seeded_trial, seeds=tuple(seeds),
                       store=store, **knobs).run()
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_scalar_log(self, tmp_path):
        assert self._log_digest(tmp_path / "s.jsonl") == self.SCALAR

    def test_batched_log(self, tmp_path):
        assert self._log_digest(tmp_path / "b.jsonl", batch=2,
                                instrument=True) == self.BATCHED
