"""Sessions that keep events only.

``Telemetry(events_only=True)`` keeps its event bus and nothing else:
spans still open, close, tick the clock and reach the flight recorder,
but the tracer retains none and the metrics registry records nothing.
``repro campaign`` and ``repro top`` open such sessions; worker chunk
and shard sessions inherit the mode, and shard checkpoints key it.
"""

import os

import pytest

from repro import observe
from repro.components.library import diverse_versions
from repro.components.version import Version
from repro.faults.development import Bohrbug, InputRegion
from repro.harness.campaign import FaultCampaign
from repro.harness.scenarios import SCENARIOS
from repro.harness.shard import EVENTS_ONLY, ShardedCampaign
from repro.observe import flightrec
from repro.runtime.pmap import ParallelMap
from repro.runtime.store import ResultStore
from repro.techniques import NVersionProgramming

from tests.unit.test_shard import build_campaign


def probe(x):
    """A pure pool task that records a span, an event and a counter,
    and reports whether the session it ran in keeps events only."""
    tel = observe.current()
    with tel.span("probe", item=x):
        tel.publish("probe.item", x=x)
        tel.count("probe_total")
    return tel.events_only


def records(events):
    return [(e.topic, e.time, e.seq, e.payload) for e in events]


def events(tel):
    return records(tel.bus.history)


def fresh_recorder(monkeypatch, capacity=flightrec.DEFAULT_CAPACITY):
    """Install a fresh process flight recorder (``seq`` from 0)."""
    recorder = flightrec.FlightRecorder(capacity=capacity)
    monkeypatch.setattr(flightrec, "_recorder", recorder)
    monkeypatch.setattr(flightrec, "_recorder_pid", os.getpid())
    return recorder


def run_scenario(events_only, monkeypatch):
    """The nvp scenario under a session of one mode; returns the
    session and the flight recorder that watched it (large enough to
    keep every record)."""
    recorder = fresh_recorder(monkeypatch, capacity=4096)
    with observe.session(events_only=events_only) as tel:
        SCENARIOS["nvp"](20, 3)
    return tel, recorder


class TestSession:
    def test_spans_reach_the_tap_and_the_clock_but_are_not_kept(
            self, monkeypatch):
        full, full_ring = run_scenario(False, monkeypatch)
        lean, lean_ring = run_scenario(True, monkeypatch)
        assert lean.events_only and not full.events_only
        assert full.tracer.spans and lean.tracer.spans == []
        # Same spans observed (ids, seqs, times), same events at the
        # same clock readings.
        assert lean.tracer.started == full.tracer.started
        assert lean.tracer._next_id == full.tracer._next_id
        assert lean_ring.captured == full_ring.captured
        assert lean_ring.window() == full_ring.window()
        assert any(r["topic"] == "span" for r in lean_ring.window())
        assert events(lean) == events(full)
        assert lean.bus.counts == full.bus.counts

    def test_metrics_registry_stays_empty(self):
        with observe.session(events_only=True) as tel:
            tel.count("a_total")
            tel.metrics.inc("b_total", 2.0, kind="x")
            tel.metrics.inc("c_total", where=1)
            tel.metrics.set_gauge("g", 3.0)
            tel.metrics.observe("h", 0.7)
            tel.metrics.histogram("h2").observe(1.0)
        assert len(tel.metrics) == 0
        assert tel.metrics.as_dict() == {}
        assert tel.metrics.render_prometheus() == ""

    def test_snapshot_keeps_its_schema(self, monkeypatch):
        full, _ = run_scenario(False, monkeypatch)
        lean, _ = run_scenario(True, monkeypatch)
        want, got = full.snapshot(), lean.snapshot()
        assert got.keys() == want.keys()
        assert got["schema"] == want["schema"]
        for piece in ("metrics", "spans", "events"):
            assert got[piece].keys() == want[piece].keys()
            assert got[piece]["schema"] == want[piece]["schema"]
        assert want["metrics"]["series"] and got["metrics"]["series"] == []
        assert want["spans"]["spans"] and got["spans"]["spans"] == []
        assert got["spans"]["started"] == want["spans"]["started"]
        assert got["spans"]["next_id"] == want["spans"]["next_id"]
        assert got["events"] == want["events"]

    def test_merge_redelivers_events_and_drops_the_rest(self, monkeypatch):
        full, _ = run_scenario(False, monkeypatch)
        snapshot = full.snapshot()
        seen = []
        lean = observe.Telemetry(events_only=True)
        lean.bus.subscribe("*", seen.append)
        lean.merge(snapshot)
        assert records(seen) == events(full)
        assert lean.bus.counts == full.bus.counts
        assert lean.tracer.spans == []
        assert lean.tracer.started == full.tracer.started
        assert len(lean.metrics) == 0

    def test_summary_reports_events_only(self, monkeypatch):
        full, _ = run_scenario(False, monkeypatch)
        lean, _ = run_scenario(True, monkeypatch)
        summary = lean.summary()
        assert summary["spans"] == {} and summary["metrics"] == {}
        assert summary["events"] == full.summary()["events"]

    def test_reset_keeps_the_mode(self):
        # A capture's snapshot starts afresh, in the same mode.
        cap = observe.Capture(events_only=True)
        cap.snapshot()
        assert cap.events_only
        assert cap.tracer.capacity == 0
        assert cap.metrics.recording is False

    def test_nested_session_keeps_its_own_mode(self):
        with observe.session(events_only=True) as tel:
            assert observe.current() is tel and tel.events_only
            with observe.session() as nested:
                # A nested session (an instrumented trial's) is full.
                assert nested.events_only is False


class TestWorkersInherit:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2)])
    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("events_only", [False, True])
    def test_chunks_keep_what_the_parent_keeps(self, backend, workers,
                                               live, events_only):
        seen = []
        with observe.session(events_only=events_only) as tel:
            if live:
                # A live dashboard is one more subscriber of the bus.
                tel.bus.subscribe("probe.*", seen.append)
            pool = ParallelMap(workers=workers)
            modes = pool.map(probe, range(8), chunk_size=3)
        assert modes == [events_only] * 8
        assert tel.bus.counts["probe.item"] == 8
        assert tel.tracer.started == 8
        if events_only:
            assert tel.tracer.spans == [] and len(tel.metrics) == 0
        else:
            assert len(tel.tracer.spans) == 8
            assert tel.metrics.value("probe_total") == 8.0
        assert len(seen) == (8 if live else 0)
        assert pool.stats.backend == backend
        # A serial map runs in the session, watched or not.
        assert (pool.stats.captured_chunks == 0) == (backend == "serial")


def two_shard_runs(path, first, second):
    """A sharded run stopped after 2 of 3 shards in mode ``first``,
    then a resume in mode ``second``; returns the resumed engine."""
    with observe.session(events_only=first):
        ShardedCampaign(build_campaign(), shards=3,
                        store=ResultStore(path, quiet=True),
                        max_shards=2).run()
    with observe.session(events_only=second):
        resumed = ShardedCampaign(build_campaign(), shards=3,
                                  store=ResultStore(path, quiet=True),
                                  resume=True)
        resumed.run()
    return resumed


class TestShardCheckpoints:
    def test_events_only_key_is_a_third_address(self, tmp_path):
        sharded = ShardedCampaign(
            build_campaign(), shards=3,
            store=ResultStore(tmp_path / "keys.jsonl", quiet=True))
        for index in range(len(sharded.plan)):
            keys = {sharded.shard_key(index, captured)
                    for captured in (False, True, EVENTS_ONLY)}
            assert len(keys) == 3

    def test_checkpoint_records_the_mode(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with observe.session(events_only=True):
            sharded = ShardedCampaign(build_campaign(), shards=3,
                                      store=ResultStore(path, quiet=True))
            outcomes = list(sharded.run_shards())
        for outcome in outcomes:
            assert outcome.snapshot["spans"]["spans"] == []
            assert outcome.snapshot["metrics"]["series"] == []
            assert outcome.snapshot["events"]["events"]
        store = ResultStore(path, quiet=True)
        record = store.get(sharded.shard_key(0, EVENTS_ONLY))
        assert record["captured"] == EVENTS_ONLY
        assert sharded._valid(record, 0, EVENTS_ONLY)
        assert not sharded._valid(record, 0, True)
        assert not sharded._valid(dict(record, captured=True), 0,
                                  EVENTS_ONLY)

    @pytest.mark.parametrize("first,second", [(True, False),
                                              (False, True)])
    def test_resume_never_crosses_modes(self, tmp_path, first, second):
        resumed = two_shard_runs(tmp_path / "ck.jsonl", first, second)
        assert resumed.stats.shards_served == 0
        assert resumed.stats.shards_executed == 3

    @pytest.mark.parametrize("mode", [False, True])
    def test_resume_serves_its_own_mode(self, tmp_path, mode):
        path = tmp_path / "ck.jsonl"
        resumed = two_shard_runs(path, mode, mode)
        assert resumed.stats.shards_served == 2
        assert resumed.stats.shards_executed == 1
        # Cell records carry no capture mode: an unsharded run serves
        # every cell whichever session wrote them.
        campaign = build_campaign()
        campaign.store = ResultStore(path)
        with observe.session(events_only=not mode):
            cells = campaign.run()
        assert campaign.store.hits == len(cells)
        assert campaign.store.misses == 0


# -- a campaign whose protector fails mid-cell --


def oracle(x):
    return x + 1


def failing_nvp_protector(faulty, env):
    healthy = diverse_versions(oracle, 2, 0.0, seed=1)
    injected = Version("injected", impl=lambda x: faulty(x, env=env))
    nvp = NVersionProgramming([injected, *healthy])

    def protected(x):
        if x == 9:
            raise RuntimeError("protector defect")
        return nvp.execute(x, env=env)
    return protected


def make_bohrbug():
    return Bohrbug("b", region=InputRegion(0, 10 ** 9))


def failure_dump(events_only, monkeypatch):
    """The flight dump of a pooled campaign chunk that raised."""
    fresh_recorder(monkeypatch)
    # One cell per chunk on worker processes: the failing cell's
    # records stay in its worker's ring, so the parent's ring holds
    # the serial rerun's records alone, in a fixed order.
    campaign = FaultCampaign({"nvp": failing_nvp_protector},
                             {"bohrbug": make_bohrbug}, oracle=oracle,
                             requests=12, seed=4, workers=2, batch=1)
    with observe.session(events_only=events_only):
        with pytest.raises(RuntimeError, match="protector defect"):
            campaign.run()
    assert campaign.pool_stats.backend == "process"
    [dump] = campaign.flight_records
    return dump


class TestFlightDump:
    def test_failed_cell_dumps_the_same_window(self, monkeypatch):
        full = failure_dump(False, monkeypatch)
        lean = failure_dump(True, monkeypatch)
        assert lean == full
        assert lean["reason"] == "chunk-serial-retry"
        topics = [record["topic"] for record in lean["records"]]
        # The window explains the failure: the cell's spans and the
        # faults injected up to the request that raised.
        assert "span" in topics and "fault.injected" in topics
        last = [record["payload"]["name"] for record in lean["records"]
                if record["topic"] == "span"][-1]
        assert last == "technique.execute"
