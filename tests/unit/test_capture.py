"""Captures: sessions whose only reader is the snapshot they hand back.

The parallel map's chunks and the shard engine's shards run in an
``observe.capture``, which records only what its snapshot ships: it
taps no flight ring, its bus keeps every event since the last snapshot
as the snapshot's rows, and an events-only capture's spans are clock
ticks.  Installed sessions tap the ring; a session that is never
installed (the ``--live`` view) taps none.
"""

import contextlib
import io
import json
import os

import pytest

from repro import observe
from repro.cli import main
from repro.harness.scenarios import SCENARIOS
from repro.harness.shard import EVENTS_ONLY, ShardedCampaign
from repro.observe import flightrec
from repro.runtime.store import MISS, ResultStore

from tests.unit.test_shard import build_campaign

CAMPAIGN = ["campaign", "--format", "json", "--requests", "120",
            "--seed", "5"]


@pytest.fixture
def ring(monkeypatch):
    """A fresh process flight recorder."""
    recorder = flightrec.FlightRecorder()
    monkeypatch.setattr(flightrec, "_recorder", recorder)
    monkeypatch.setattr(flightrec, "_recorder_pid", os.getpid())
    return recorder


def scenario_snapshot(opener, events_only):
    """The nvp scenario's snapshot, taken inside the opened session."""
    with opener(events_only=events_only) as tel:
        SCENARIOS["nvp"](20, 3)
        return tel.snapshot()


class TestCapture:
    def test_taps_no_ring_while_a_session_does(self, ring):
        for events_only in (False, True):
            with observe.capture(events_only=events_only) as cap:
                assert observe.current() is cap
                with cap.span("probe"):
                    cap.publish("probe.item", x=1)
        assert ring.captured == 0
        with observe.session(events_only=True) as tel:
            with tel.span("probe"):
                tel.publish("probe.item", x=1)
        assert ring.captured == 2

    @pytest.mark.parametrize("events_only", [False, True])
    def test_snapshot_is_the_sessions(self, ring, events_only):
        assert scenario_snapshot(observe.capture, events_only) == \
            scenario_snapshot(observe.session, events_only)

    def test_events_only_spans_are_clock_ticks(self):
        with observe.capture(events_only=True) as cap:
            with cap.span("outer", a=1):
                with cap.span("inner") as span:
                    span.attrs["cost"] = 2.0
                    span.status = "error"
            with pytest.raises(KeyError):
                with cap.span("raising"):
                    raise KeyError("x")
            cap.publish("after")
        assert cap.tracer.spans == [] and cap.tracer._stack == []
        assert cap.tracer.started == 3 and cap.tracer._next_id == 4
        # Two readings per span, then the event's own: time 7.
        [[topic, time, seq, payload]] = cap.bus.rows
        assert (topic, time, seq, payload) == ("after", 7.0, 0, {})

    def test_keeps_every_event_since_the_last_snapshot(self):
        with observe.session(events_only=True) as tel:
            for i in range(5000):
                tel.publish("unit.e", i=i)
            capped = tel.snapshot()["events"]
        with observe.capture(events_only=True) as cap:
            for i in range(5000):
                cap.publish("unit.e", i=i)
            kept = cap.snapshot()["events"]
        assert len(capped["events"]) == 4096
        assert len(kept["events"]) == kept["published"] == 5000
        assert kept["events"][-4096:] == capped["events"]
        assert kept["counts"] == capped["counts"]

    def test_snapshots_are_consecutive_deltas(self):
        whole = observe.Telemetry(events_only=True)
        parts = observe.Telemetry(events_only=True)
        with observe.session(events_only=True) as tel:
            for i in range(5):
                with tel.span("s"):
                    tel.publish("unit.e", i=i)
        whole.merge(tel.snapshot())
        with observe.capture(events_only=True) as cap:
            for i in range(5):
                with cap.span("s"):
                    cap.publish("unit.e", i=i)
                if i in (1, 3):
                    parts.merge(cap.snapshot())
                    assert cap.bus.rows == [] and cap.tracer.started == 0
            parts.merge(cap.snapshot())
        assert list(parts.bus.history) == list(whole.bus.history)
        assert parts.bus.counts == whole.bus.counts
        assert parts.tracer.started == whole.tracer.started == 5

    def test_subscribers_and_merges_are_served(self):
        # A pool nested in a captured chunk merges its chunks' snapshots
        # into the capture.
        nested = observe.Capture()
        nested.publish("unit.m", y=2)
        seen = []
        with observe.capture() as cap:
            cap.bus.subscribe("unit.*", seen.append)
            cap.publish("unit.e", x=1)
            cap.publish("other")
            cap.merge(nested.snapshot())
        assert [(e.topic, e.seq, e.payload) for e in seen] == \
            [("unit.e", 0, {"x": 1}), ("unit.m", 2, {"y": 2})]
        assert [row[0] for row in cap.bus.rows] == \
            ["unit.e", "other", "unit.m"]
        assert cap.bus.counts == {"unit.e": 1, "other": 1, "unit.m": 1}

    def test_a_session_taps_the_ring_once_installed(self, ring):
        view = observe.Telemetry(events_only=True)
        view.publish("unit.merged")
        assert ring.captured == 0
        with observe.session():
            observe.install(view)
            observe.install(view)
            view.publish("unit.published")
            view.reset()
            view.publish("unit.after_reset")
        assert ring.captured == 2


def run_campaign(*mode):
    """``repro campaign`` in process under a fresh flight recorder:
    the JSON report (a live run's final one) and the ring's count."""
    recorder = flightrec.FlightRecorder()
    saved = flightrec._recorder, flightrec._recorder_pid
    flightrec._recorder, flightrec._recorder_pid = recorder, os.getpid()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(CAMPAIGN + list(mode)) == 0
    finally:
        flightrec._recorder, flightrec._recorder_pid = saved
    text = out.getvalue().strip()
    if "--live" in mode:
        return json.loads(text.splitlines()[-1])["report"], \
            recorder.captured
    return json.loads(text), recorder.captured


def sli_rows(report):
    """SLI rows without the fields counted on the clock-tick axis."""
    return [{key: value for key, value in row.items()
             if key not in ("window_span", "throughput")}
            for row in report["sli"]["techniques"]]


class TestSliAcrossChunkings:
    """Every outcome reaches the report, however the cells are chunked.

    A chunk or shard of more than 4,096 events used to ship only its
    last 4,096, so ``--batch`` of 8 or more and ``--shards 1`` reports
    lost outcomes."""

    SEEN = {"ParallelEvaluation": 1440, "SequentialAlternatives": 882}

    def test_pooled_chunkings_agree(self):
        reports = [run_campaign(*mode)[0] for mode in (
            ["--workers", "1"], ["--workers", "2"],
            ["--workers", "2", "--batch", "8"],
            ["--workers", "2", "--batch", "10"])]
        for report in reports:
            assert sli_rows(report) == sli_rows(reports[0])
            assert report["cells"] == reports[0]["cells"]
        seen = {row["technique"]: row["outcomes_seen"]
                for row in reports[0]["sli"]["techniques"]}
        assert seen == self.SEEN

    def test_shard_plans_agree(self):
        # The plan's order is not the matrix order, so sharded rows are
        # compared with each other only.
        reports = [run_campaign("--workers", workers, "--shards", shards)[0]
                   for shards in ("1", "2", "8") for workers in ("1", "2")]
        for report in reports:
            assert sli_rows(report) == sli_rows(reports[0])
        seen = {row["technique"]: row["outcomes_seen"]
                for row in reports[0]["sli"]["techniques"]}
        assert seen == self.SEEN


class TestFlightRingCount:
    """The parent's ring records each event once, in every mode: the
    live view's fold and in-process captures add nothing to what the
    canonical merge records.  The serial run keeps
    ``TestFlightWindow``'s pin, spans included."""

    @pytest.mark.parametrize("mode,captured", [
        (["--workers", "1"], 12600),
        (["--workers", "2"], 6996),
        (["--workers", "2", "--live", "--interval", "0.05"], 6996),
        (["--workers", "1", "--live", "--interval", "0.05"], 6996),
        (["--workers", "1", "--shards", "2"], 6998),
    ])
    def test_captured(self, mode, captured):
        assert run_campaign(*mode)[1] == captured


class TestTruncatedCheckpoint:
    """A checkpoint whose snapshot holds fewer events than it published
    (one written while shard captures kept only the last 4,096) is not
    served: its shard runs again."""

    def test_truncated_snapshot_is_executed_again(self, tmp_path):
        source = tmp_path / "source.jsonl"
        with observe.session(events_only=True) as tel:
            cold = ShardedCampaign(build_campaign(), shards=3,
                                   store=ResultStore(source, quiet=True))
            cells = cold.run()
            want = tel.snapshot()
        keys = [cold.shard_key(index, EVENTS_ONLY)
                for index in range(len(cold.plan))]
        records = ResultStore(source, quiet=True).get_many(keys)
        damaged = tmp_path / "damaged.jsonl"
        store = ResultStore(damaged, quiet=True)
        for index, key in enumerate(keys):
            record = records[key]
            assert record is not MISS
            assert cold._valid(record, index, EVENTS_ONLY)
            if index == 1:
                bus = record["snapshot"]["events"]
                assert len(bus["events"]) == bus["published"] > 1
                record = dict(record, snapshot=dict(
                    record["snapshot"],
                    events=dict(bus, events=bus["events"][1:])))
                assert not cold._valid(record, index, EVENTS_ONLY)
            store.put(key, record, task="campaign.shard")
        with observe.session(events_only=True) as tel:
            resumed = ShardedCampaign(build_campaign(), shards=3,
                                      store=ResultStore(damaged, quiet=True),
                                      resume=True)
            assert resumed.run() == cells
            got = tel.snapshot()
        assert resumed.stats.shards_served == 2
        assert resumed.stats.shards_executed == 1
        assert got == want
