"""Unit tests for the sliding-window SLI monitor."""

import pytest

from repro.observe import EventBus, SliMonitor
from repro.observe.sli import percentile


class TestPercentile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 0.95) == 5.0
        assert percentile(samples, 0.0) == 1.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0


class TestSliMonitor:
    def test_availability_over_outcomes(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        for ok in (True, True, True, False):
            bus.publish("unit.outcome", pattern="nvp", ok=ok)
        row = monitor.rows()[0]
        assert row["technique"] == "nvp"
        assert row["availability"] == pytest.approx(0.75)
        assert row["failure_rate"] == pytest.approx(0.25)
        assert row["outcomes"] == 4

    def test_window_slides(self):
        bus = EventBus()
        monitor = SliMonitor(bus, window=2)
        bus.publish("unit.outcome", pattern="nvp", ok=False)
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        row = monitor.rows()[0]
        # The early failure fell out of the 2-sample window...
        assert row["availability"] == 1.0
        # ...but the all-time tallies remember it.
        assert row["outcomes_seen"] == 3
        assert row["failures_seen"] == 1

    def test_recovery_latency_percentiles(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        for downtime in (1.0, 2.0, 3.0, 4.0, 10.0):
            bus.publish("reboot", scope="micro", downtime=downtime)
        row = monitor.rows()[0]
        assert row["technique"] == "micro"
        assert row["recovery_p50"] == 3.0
        assert row["recovery_p95"] == 10.0
        assert row["recovery_p99"] == 10.0
        assert row["availability"] is None

    def test_recovery_topics_map_to_their_cost_fields(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        bus.publish("checkpoint.rollback", technique="ckpt", cost=4.0)
        bus.publish("rejuvenation.performed", technique="rejuv", cost=6.0)
        rows = {row["technique"]: row for row in monitor.rows()}
        assert rows["ckpt"]["recovery_p50"] == 4.0
        assert rows["rejuv"]["recovery_p50"] == 6.0

    def test_key_precedence_technique_over_pattern(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        bus.publish("unit.outcome", technique="NVP", pattern="nvp-engine",
                    ok=True)
        assert monitor.rows()[0]["technique"] == "NVP"

    def test_events_without_cost_are_ignored(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        bus.publish("reboot", scope="micro")  # no downtime payload
        assert monitor.rows() == []

    def test_merge_redelivery_feeds_the_monitor(self):
        worker = EventBus()
        worker.publish("unit.outcome", pattern="nvp", ok=True)
        worker.publish("unit.outcome", pattern="nvp", ok=False)
        parent = EventBus()
        monitor = SliMonitor(parent)
        parent.merge(worker.snapshot())
        row = monitor.rows()[0]
        assert row["outcomes"] == 2
        assert row["availability"] == pytest.approx(0.5)

    def test_detach_stops_observing(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        monitor.detach()
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        assert monitor.rows() == []

    def test_render_marks_missing_data_with_dashes(self):
        bus = EventBus()
        monitor = SliMonitor(bus)
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        bus.publish("reboot", scope="micro", downtime=2.0)
        text = monitor.render()
        lines = text.splitlines()
        assert any("nvp" in line and "1.0000" in line and "-" in line
                   for line in lines)
        assert any("micro" in line and line.count("2") >= 3
                   for line in lines)
        assert "window=256" in lines[0]

    def test_as_dict_is_json_friendly(self):
        import json

        bus = EventBus()
        monitor = SliMonitor(bus, window=8)
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        doc = monitor.as_dict()
        assert doc["schema"] == "repro-sli-report/v2"
        assert doc["window"] == 8
        # Without an injected wall clock the wall-derived gauges are
        # null and the document is a pure function of the event stream.
        assert doc["trials_per_sec"] is None
        assert doc["wall_span"] is None
        json.dumps(doc)

    def test_trials_per_sec_counts_from_attach(self):
        # A dashboard's monitor is handed a pooled chunk's outcomes in
        # one burst, when the chunk is folded.  The rate must cover the
        # wall time since the monitor attached, not just the span
        # between a burst's first and last outcome.
        now = [0.0]
        bus = EventBus()
        monitor = SliMonitor(bus, wall_clock=lambda: now[0])

        def burst(start, outcomes):
            for i in range(outcomes):
                now[0] = start + i * 1e-5
                bus.publish("unit.outcome", pattern="nvp", ok=True)

        burst(0.49, 1000)
        assert monitor.trials_per_sec() == pytest.approx(1000 / 0.5,
                                                         rel=1e-3)
        burst(0.99, 1000)
        doc = monitor.as_dict()
        assert doc["trials_per_sec"] == pytest.approx(2000 / 1.0,
                                                      rel=1e-3)
        assert doc["wall_span"] == pytest.approx(1.0, rel=1e-3)

    def test_parse_report_rejects_v1_documents(self):
        from repro.observe.sli import parse_report

        bus = EventBus()
        monitor = SliMonitor(bus, window=8)
        bus.publish("unit.outcome", pattern="nvp", ok=True)
        doc = monitor.as_dict()
        legacy = {"schema": "repro-sli-report/v1",
                  "window": doc["window"],
                  "techniques": [
                      {key: value for key, value in row.items()
                       if key not in ("window_span", "throughput")}
                      for row in doc["techniques"]],
                  "stores": doc["stores"]}
        # An old document fails loudly, naming its schema; it is never
        # upgraded.
        with pytest.raises(ValueError, match="'repro-sli-report/v1'"):
            parse_report(legacy)
        # A current document passes through unchanged.
        assert parse_report(doc) == doc

    def test_parse_report_rejects_unknown_schema(self):
        from repro.observe.sli import parse_report

        with pytest.raises(ValueError):
            parse_report({"schema": "repro-sli-report/v99"})

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SliMonitor(window=0)
