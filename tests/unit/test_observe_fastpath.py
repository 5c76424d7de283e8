"""The enabled telemetry path: recorded bytes and the semantics its
fast paths must keep.

The digests below were computed before the enabled path was rewritten
(span scopes, per-topic routes, the counter cache, the by-reference
flight ring), so they pin what a session records against the earlier
implementation rather than against another backend of this one.
"""

import argparse
import gc
import hashlib
import json
import weakref

import pytest

from repro import cli, observe
from repro.observe import (Event, EventBus, MetricsRegistry, SliMonitor,
                           Telemetry)
from repro.observe.flightrec import FlightRecorder

#: sha256 of ``json.dumps(tel.snapshot(), sort_keys=True)`` for the two
#: cells below.
SNAPSHOT_SHA256 = \
    "6f3bf7c5779afa8d4cb03a27785b0755d43b8072053db0fd42707cf608ccf638"
#: sha256 of ``json.dumps(recorder.window(), sort_keys=True)`` for a
#: fresh recorder attached to the same session (2508 records observed,
#: the last 256 retained).
WINDOW_SHA256 = \
    "b855dc16ec386202bf6c926f794b0186134e96c952def330dccb32b0d7754424"

CELLS = (("N-version (3)", "Heisenbug"), ("recovery blocks", "load"))


def _sha256(document):
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


def test_two_cli_cells_record_the_pinned_bytes():
    args = argparse.Namespace(requests=120, seed=5, workers=1,
                              batch=None, store=None, shards=None)
    campaign, _ = cli._build_campaign(args)
    with observe.session() as tel:
        recorder = FlightRecorder()
        recorder.attach(tel)
        for protector, fault in CELLS:
            campaign._measure(protector, fault)
    assert recorder.captured == 2508
    assert _sha256(tel.snapshot()) == SNAPSHOT_SHA256
    assert _sha256(recorder.window()) == WINDOW_SHA256


class TestDeliveryDuringDelivery:
    """A handler that changes the subscriptions while an event is being
    delivered does not change who gets that event; the next delivery
    sees the new set."""

    def test_subscribe_in_handler_takes_effect_on_next_publish(self):
        bus = EventBus()
        late = []

        def subscribe_late(event):
            if not late:
                bus.subscribe("unit.*", lambda e: late.append(e.seq))
                late.append("subscribed")

        bus.subscribe("unit.*", subscribe_late)
        bus.publish("unit.a")
        assert late == ["subscribed"]
        bus.publish("unit.b")
        assert late == ["subscribed", 1]

    def test_cancel_in_handler_takes_effect_on_next_publish(self):
        bus = EventBus()
        got = []
        box = {}

        def cancel_second(event):
            box["second"].cancel()

        bus.subscribe("unit.a", cancel_second)
        box["second"] = bus.subscribe("*", lambda e: got.append(e.seq))
        bus.publish("unit.a")
        assert got == [0]
        bus.publish("unit.a")
        assert got == [0]

    def test_merge_redelivery_sees_changes_from_the_next_event(self):
        source = EventBus()
        for topic in ("unit.a", "unit.b", "unit.c"):
            source.publish(topic)
        snapshot = source.snapshot()

        bus = EventBus()
        added, cancelled = [], []
        box = {}

        def on_first(event):
            if event.topic == "unit.a":
                bus.subscribe("unit.*", lambda e: added.append(e.topic))
                box["victim"].cancel()

        bus.subscribe("unit.*", on_first)
        box["victim"] = bus.subscribe("unit.*",
                                      lambda e: cancelled.append(e.topic))
        bus.merge(snapshot)
        assert cancelled == ["unit.a"]
        assert added == ["unit.b", "unit.c"]

    def test_cancel_while_a_route_is_built_skips_nobody(self):
        # Stands in for another thread cancelling a subscription while
        # a route is being built: matching the middle subscription's
        # pattern cancels the first one.
        bus = EventBus()
        got = []
        first = bus.subscribe("unit.a", lambda e: got.append("first"))

        class CancellingPattern(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                first.cancel()
                return str.__eq__(self, other)

        bus.subscribe(CancellingPattern("unit.b"),
                      lambda e: got.append("middle"))
        bus.subscribe("unit.a", lambda e: got.append("last"))
        bus.publish("unit.a")
        assert got == ["first", "last"]
        bus.publish("unit.a")
        assert got == ["first", "last", "last"]

    def test_routes_follow_subscription_order_across_patterns(self):
        bus = EventBus()
        order = []
        bus.subscribe("unit.a", lambda e: order.append("exact"))
        bus.subscribe("*", lambda e: order.append("all"))
        bus.subscribe("unit.*", lambda e: order.append("prefix"))
        bus.subscribe("fault.*", lambda e: order.append("other"))
        bus.publish("unit.a")
        assert order == ["exact", "all", "prefix"]


class TestCounterLabels:
    """Label values key series by ``str(value)``: ``1`` and ``"1"`` are
    one series, ``True`` and ``1.0`` are their own — although all four
    compare equal and ``1``/``True``/``1.0`` hash alike."""

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0),
                                       (1, 0, 3, 2), (2, 3, 0, 1)])
    def test_values_key_by_their_string_form(self, order):
        values = (1, "1", True, 1.0)
        registry = MetricsRegistry()
        for index in order:
            registry.inc("m", x=values[index])
            registry.inc("m", x=values[index])
        assert registry.value("m", x="1") == 4
        assert registry.value("m", x="True") == 2
        assert registry.value("m", x="1.0") == 2
        assert len(registry) == 3

    def test_label_order_does_not_split_a_series(self):
        registry = MetricsRegistry()
        registry.inc("m", x=1, y="a")
        registry.inc("m", y="a", x="1")
        registry.inc("m", y="a", x=True)
        registry.inc("m", x=1.0, y="a")
        assert registry.value("m", x="1", y="a") == 2
        assert registry.value("m", x="True", y="a") == 1
        assert registry.value("m", x="1.0", y="a") == 1
        assert len(registry) == 3

    def test_str_subclass_keys_by_its_rendering(self):
        class Shown(str):
            def __str__(self):
                return "shown"

        registry = MetricsRegistry()
        registry.inc("m", x="a")
        registry.inc("m", x=Shown("a"))
        assert registry.value("m", x="a") == 1
        assert registry.value("m", x="shown") == 1

    def test_inc_on_a_gauge_still_raises(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.0, kind="x")
        with pytest.raises(ValueError):
            registry.inc("g", kind="x")
        with pytest.raises(ValueError):
            registry.inc("g")
        registry.inc("c", kind="x")
        with pytest.raises(ValueError):
            registry.set_gauge("c", 1.0, kind="x")

    def test_negative_increment_still_raises(self):
        registry = MetricsRegistry()
        registry.inc("c", pattern="p")
        with pytest.raises(ValueError):
            registry.inc("c", -1, pattern="p")
        assert registry.value("c", pattern="p") == 1


class TestSpanScope:
    def test_scope_created_now_opens_at_entry(self):
        tel = Telemetry()
        scope = tel.span("late", cost=1.0)
        assert tel.tracer.spans == [] and tel.tracer.started == 0
        with tel.span("outer") as outer:
            with scope as span:
                pass
        assert span.parent_id == outer.span_id
        assert outer.start < span.start < span.end < outer.end
        assert [s.name for s in tel.tracer.spans] == ["outer", "late"]
        assert span.attrs == {"cost": 1.0}


class TestFlightWindow:
    def test_window_after_wrap_equals_eager_copies(self):
        capacity = 8
        recorder = FlightRecorder(capacity=capacity)
        tel = Telemetry()
        recorder.attach(tel)
        eager = []

        def copy_event(event):
            eager.append({"topic": event.topic, "time": event.time,
                          "seq": len(eager),
                          "payload": dict(event.payload)})

        def copy_span(span):
            eager.append({"topic": "span", "time": span.end,
                          "seq": len(eager), "payload": span.to_dict()})
            recorder.record_span(span)

        tel.bus.subscribe("*", copy_event)
        tel.tracer.on_finish = copy_span
        for i in range(5):
            with tel.span("unit.run", producer=f"v{i}") as span:
                span.attrs["cost"] = float(i)
                tel.publish("unit.outcome", ok=i % 2 == 0, i=i)
            tel.publish("adjudication.verdict", accepted=True)
        assert recorder.captured == len(eager) == 15
        assert recorder.window() == eager[-capacity:]
        assert recorder.dump("unit-test")["records"] == eager[-capacity:]
        assert len(recorder) == capacity

    def test_window_renders_fresh_dicts(self):
        recorder = FlightRecorder(capacity=4)
        tel = Telemetry()
        recorder.attach(tel)
        tel.publish("unit.e", x=1)
        first = recorder.window()
        first[0]["payload"]["x"] = 2
        first[0]["seq"] = 99
        assert recorder.window() == [{"topic": "unit.e", "time": 1.0,
                                      "seq": 0, "payload": {"x": 1}}]


class _Times:
    """A clock that reads the given times in turn."""

    def __init__(self, times):
        self._times = iter(times)

    @property
    def now(self):
        return next(self._times)


def _worker_snapshot(rows, start=0):
    """A snapshot of ``rows`` events of mixed topics, one in three a
    ``unit.outcome``, published on a bus of its own."""
    worker = EventBus(now=iter(range(start, start + rows)).__next__)
    topics = ("unit.outcome", "adjudication.verdict", "fault.injected")
    for i in range(start, start + rows):
        worker.publish(topics[i % 3], i=i, ok=i % 2 == 0)
    return worker.snapshot()


def _eager_rows(snapshots, published_between):
    """What delivering every row of each snapshot kept: its fields with
    sequence numbers shifted as a merge shifts them, and one event
    published after each merge."""
    rows, seq = [], 0
    for snapshot in snapshots:
        rows.extend((topic, time, row_seq + seq, payload)
                    for topic, time, row_seq, payload in snapshot["events"])
        seq += snapshot["published"]
        rows.append((published_between, 0.0, seq, {"after": seq}))
        seq += 1
    return rows


class TestMergeFold:
    """``EventBus.merge`` builds an ``Event`` only for a row some
    subscriber is routed, the flight ring takes a merge's tail, and
    history fills on read: each keeps what handing every row over in
    turn kept."""

    ROWS = 12

    @pytest.mark.parametrize("capacity", [5, ROWS, 20])
    def test_tail_equals_publishing_one_by_one(self, capacity):
        snapshots = [_worker_snapshot(self.ROWS),
                     _worker_snapshot(self.ROWS, start=self.ROWS)]
        merged, eager = FlightRecorder(capacity), FlightRecorder(capacity)
        merged_tel, eager_tel = Telemetry(), Telemetry()
        merged.attach(merged_tel)
        eager.attach(eager_tel)
        for cell, snapshot in enumerate(snapshots):
            rows = snapshot["events"]
            merged_tel.bind_clock(_Times([cell]))
            merged_tel.publish("campaign.cell", before=True)
            merged_tel.bus.merge(snapshot)
            eager_tel.bind_clock(_Times([cell] + [row[1] for row in rows]))
            eager_tel.publish("campaign.cell", before=True)
            for topic, _, _, payload in rows:
                eager_tel.publish(topic, **payload)
        assert merged.captured == eager.captured == 2 * (self.ROWS + 1)
        assert len(merged) == min(capacity, merged.captured)
        assert merged.window() == eager.window()

    def test_history_equals_the_eager_fold(self):
        snapshots = [_worker_snapshot(self.ROWS, start=self.ROWS * i)
                     for i in range(3)]
        bus = EventBus(history=20)
        delivered = []
        bus.subscribe("unit.outcome", delivered.append)
        for snapshot in snapshots:
            bus.merge(snapshot)
            bus.publish("campaign.cell", after=bus.published)
        want = _eager_rows(snapshots, "campaign.cell")[-20:]
        history = list(bus.history)
        assert all(type(event) is Event for event in history)
        assert [(e.topic, e.time, e.seq, e.payload) for e in history] \
            == want
        theirs = {id(row[3]) for snapshot in snapshots
                  for row in snapshot["events"]}
        assert not any(id(event.payload) in theirs for event in history)
        # An event a subscriber was handed is the one history keeps.
        handed = {id(event) for event in delivered}
        assert all(id(event) in handed for event in history
                   if event.topic == "unit.outcome")
        assert bus.snapshot()["events"] == [list(row) for row in want]

    def test_reading_history_mid_merge_loses_no_later_row(self):
        snapshot = _worker_snapshot(self.ROWS)
        bus = EventBus()
        held = []

        def read_history(event):
            if not held:
                history = bus.history
                held.append((history, len(history)))

        bus.subscribe("unit.outcome", read_history)
        bus.merge(snapshot)
        history, seen = held[0]
        assert seen == 1
        assert bus.history is history
        assert [(e.topic, e.time, e.seq, e.payload) for e in history] \
            == [tuple(row) for row in snapshot["events"]]

    def test_a_finished_bus_needs_no_collector(self):
        gc.disable()
        try:
            bus = EventBus()
            monitor = SliMonitor(bus)
            bus.merge(_worker_snapshot(self.ROWS))
            assert len(bus.history) == self.ROWS
            dead = weakref.ref(bus)
            del bus
            assert dead() is None
            monitor.detach()  # cancelling on a freed bus does nothing
        finally:
            gc.enable()
