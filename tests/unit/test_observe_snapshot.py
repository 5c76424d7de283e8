"""Unit tests for the telemetry snapshot/merge protocol."""

import pickle

import pytest

from repro.observe import EventBus, MetricsRegistry, Telemetry, Tracer


def _tick_clock():
    class Ticks:
        def __init__(self):
            self._now = 0.0

        @property
        def now(self):
            self._now += 1.0
            return self._now

    return Ticks()


class TestMetricsSnapshot:
    def test_snapshot_is_picklable_and_plain(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", 3, technique="nvp")
        registry.set_gauge("depth", 2.0)
        registry.observe("latency", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == "repro-metrics-snapshot/v1"
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_snapshot_is_insertion_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x_total", 1)
        a.inc("y_total", 2)
        b.inc("y_total", 2)
        b.inc("x_total", 1)
        assert a.snapshot() == b.snapshot()

    def test_merge_adds_counters_and_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("requests_total", 3, technique="nvp")
        a.set_gauge("depth", 2.0)
        b.inc("requests_total", 4, technique="nvp")
        b.set_gauge("depth", 1.0)
        a.merge(b.snapshot())
        assert a.value("requests_total", technique="nvp") == 7
        assert a.value("depth") == 3.0

    def test_merge_combines_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("latency", 1.0)
        b.observe("latency", 100.0)
        a.merge(b.snapshot())
        hist = a.histogram("latency")
        assert hist.count == 2
        assert hist.sum == 101.0
        assert hist.min == 1.0 and hist.max == 100.0

    def test_merge_into_empty_reproduces_the_source(self):
        source, target = MetricsRegistry(), MetricsRegistry()
        source.inc("requests_total", 5, technique="rb")
        source.observe("latency", 2.0)
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()
        assert target.render_prometheus() == source.render_prometheus()

    def test_merge_rejects_bucket_layout_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("latency", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("latency", buckets=(5.0, 10.0)).observe(6.0)
        with pytest.raises(ValueError, match="bucket layout"):
            a.merge(b.snapshot())

    def test_merge_rejects_kind_conflict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("value", 1)
        b.set_gauge("value", 1.0)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_exclude_prefix_drops_series(self):
        registry = MetricsRegistry()
        registry.inc("repro_runtime_tasks_total", 4, backend="process")
        registry.inc("workload_total", 2)
        flat = registry.as_dict(exclude=("repro_runtime_",))
        assert flat == {"workload_total": 2}
        text = registry.render_prometheus(exclude=("repro_runtime_",))
        assert "repro_runtime" not in text
        assert "workload_total 2" in text


class TestHistogramQuantile:
    def test_quantiles_are_monotone_and_clamped(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            registry.observe("latency", value)
        hist = registry.histogram("latency")
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert hist.min <= p50
        assert p99 <= hist.max

    def test_empty_histogram_quantile_is_zero(self):
        hist = MetricsRegistry().histogram("latency")
        assert hist.quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = MetricsRegistry().histogram("latency")
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestTracerSnapshot:
    def test_merge_renumbers_ids_and_preserves_tree(self):
        parent = Tracer()
        with parent.span("before"):
            pass
        worker = Tracer()
        with worker.span("outer") as outer:
            with worker.span("inner"):
                pass
        parent.merge(worker.snapshot())
        names = [s.name for s in parent.spans]
        assert names == ["before", "outer", "inner"]
        merged_outer, merged_inner = parent.spans[1], parent.spans[2]
        assert merged_inner.parent_id == merged_outer.span_id
        assert merged_outer.parent_id is None
        assert outer.attrs == merged_outer.attrs
        ids = [s.span_id for s in parent.spans]
        assert len(set(ids)) == len(ids)

    def test_merge_reproduces_serial_recording(self):
        serial = Tracer()
        for name in ("a", "b"):
            with serial.span(name, cost=1.0):
                pass
        merged = Tracer()
        for name in ("a", "b"):
            worker = Tracer()
            with worker.span(name, cost=1.0):
                pass
            merged.merge(worker.snapshot())
        assert ([s.to_dict() for s in merged.spans]
                == [s.to_dict() for s in serial.spans])

    def test_merge_respects_capacity(self):
        parent = Tracer(capacity=1)
        with parent.span("kept"):
            pass
        worker = Tracer()
        with worker.span("dropped"):
            pass
        parent.merge(worker.snapshot())
        assert [s.name for s in parent.spans] == ["kept"]
        assert parent.started == 2


class TestEventBusSnapshot:
    def test_merge_redelivers_to_subscribers(self):
        worker = EventBus()
        worker.publish("unit.outcome", pattern="nvp", ok=True)
        worker.publish("reboot", scope="micro", downtime=2.0)
        parent = EventBus()
        seen = []
        parent.subscribe("unit.outcome", seen.append)
        parent.merge(worker.snapshot())
        assert [e.topic for e in seen] == ["unit.outcome"]
        assert seen[0].payload == {"pattern": "nvp", "ok": True}
        assert parent.counts == {"unit.outcome": 1, "reboot": 1}
        assert parent.published == 2

    def test_merge_shifts_sequence_numbers(self):
        parent, worker = EventBus(), EventBus()
        parent.publish("local")
        worker.publish("remote")
        parent.merge(worker.snapshot())
        assert [e.seq for e in parent.history] == [0, 1]

    def test_counts_merge_commutes(self):
        a, b = EventBus(), EventBus()
        a.publish("x")
        a.publish("y")
        b.publish("y")
        left, right = EventBus(), EventBus()
        left.merge(a.snapshot())
        left.merge(b.snapshot())
        right.merge(b.snapshot())
        right.merge(a.snapshot())
        assert left.counts == right.counts
        assert left.published == right.published


class TestTelemetrySnapshot:
    def test_bundle_round_trip(self):
        source = Telemetry(clock=_tick_clock())
        with source.span("technique.execute", technique="nvp"):
            source.count("requests_total")
        source.publish("unit.outcome", pattern="nvp", ok=True)
        snapshot = source.snapshot()
        assert snapshot["schema"] == "repro-telemetry-snapshot/v1"
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        target = Telemetry(clock=_tick_clock())
        target.merge(snapshot)
        assert target.metrics.value("requests_total") == 1
        assert target.bus.counts == {"unit.outcome": 1}
        assert [s.name for s in target.tracer.spans] \
            == ["technique.execute"]

