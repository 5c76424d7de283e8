"""The flight recorder: bounded ring, dump triggers, JSONL rendering.

Covers the ring's strict FIFO eviction, the framework's three dump
triggers (``chunk-timeout``, ``chunk-serial-retry``, ``trial-failure``
— including a worker killed mid-chunk on the process backend), and the
``repro-events-jsonl/v1`` round trip shared with the event exporter.
"""

import os
import time

import pytest

from repro import observe
from repro.observe import flightrec
from repro.observe.export.jsonl import validate_event_log
from repro.observe.flightrec import SCHEMA, FlightRecorder
from repro.runtime.pmap import ParallelMap

#: The test process: pool tasks below fail in any other (a worker).
PARENT_PID = os.getpid()


def flaky(x):
    """``x + 1``, except that item 2 fails in a pool worker (the
    parent's serial rerun succeeds)."""
    if x == 2 and os.getpid() != PARENT_PID:
        raise RuntimeError("induced worker failure")
    return x + 1


def slow(x):
    """``x + 1``, sleeping long on item 1 (timeout probe)."""
    if x == 1:
        time.sleep(0.4)
    return x + 1


class TestRingBuffer:
    def test_strict_fifo_eviction_order(self):
        rec = FlightRecorder(capacity=4)
        tel = observe.Telemetry()
        rec.attach(tel)
        for i in range(6):
            tel.publish(f"unit.e{i}", i=i)
        window = rec.window()
        assert [r["topic"] for r in window] == \
            ["unit.e2", "unit.e3", "unit.e4", "unit.e5"]
        assert [r["seq"] for r in window] == [2, 3, 4, 5]
        assert rec.captured == 6  # eviction never decrements the tally

    def test_spans_interleave_with_events(self):
        rec = FlightRecorder(capacity=8)
        tel = observe.Telemetry()
        rec.attach(tel)
        with tel.span("unit.work", cost=1.0):
            tel.publish("unit.inside")
        topics = [r["topic"] for r in rec.window()]
        # The span finishes after the event it encloses.
        assert topics == ["unit.inside", "span"]
        assert rec.window()[1]["payload"]["name"] == "unit.work"

    def test_clear_keeps_tallies(self):
        rec = FlightRecorder(capacity=4)
        tel = observe.Telemetry()
        rec.attach(tel)
        tel.publish("unit.e")
        rec.clear()
        assert rec.window() == []
        assert rec.captured == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_recorder_never_perturbs_snapshots(self):
        # The always-on tap must not show up in the session's own
        # telemetry: identical runs with and without extra recorders
        # attached snapshot identically.
        tel = observe.Telemetry()
        tel.publish("unit.e", x=1)
        baseline = tel.snapshot()
        extra = FlightRecorder(capacity=4)
        tel2 = observe.Telemetry()
        extra.attach(tel2)
        tel2.publish("unit.e", x=1)
        assert tel2.snapshot() == baseline


class TestDumps:
    def test_dump_document_shape(self):
        rec = FlightRecorder(capacity=4)
        tel = observe.Telemetry()
        rec.attach(tel)
        tel.publish("unit.before_crash")
        document = rec.dump("unit-test", chunk=3, backend="process")
        assert document["schema"] == SCHEMA
        assert document["reason"] == "unit-test"
        assert document["context"] == {"chunk": 3, "backend": "process"}
        assert document["capacity"] == 4
        assert document["records"][-1]["topic"] == "unit.before_crash"
        assert rec.dumps == 1

    def test_dump_jsonl_round_trips_the_shared_validator(self):
        rec = FlightRecorder(capacity=4)
        tel = observe.Telemetry()
        rec.attach(tel)
        tel.publish("unit.e", x=1)
        with tel.span("unit.s", cost=1.0):
            pass
        text = rec.dump_jsonl("unit-test", chunk=0)
        header = validate_event_log(text)
        assert header["source"] == "flight-recorder"
        assert header["events"] == 2
        assert header["flightrec"]["reason"] == "unit-test"

    def test_module_level_dump_lands_in_recent_ring(self):
        before = len(flightrec.recent_dumps())
        document = flightrec.dump("unit-module-dump", marker=42)
        recent = flightrec.recent_dumps()
        assert len(recent) >= min(before + 1, 16)
        assert recent[-1] is document
        assert recent[-1]["context"] == {"marker": 42}

    def test_process_recorder_is_a_singleton(self):
        assert flightrec.recorder() is flightrec.recorder()


class TestPoolDumpTriggers:
    def test_serial_retry_dumps_flight_window(self):
        pool = ParallelMap(workers=2, chunk_size=1)
        results = pool.map(flaky, [0, 1, 2, 3])
        assert results == [1, 2, 3, 4]
        assert pool.stats.serial_retries == 1
        assert pool.stats.flight_dumps == 1
        [record] = pool.flight_records
        assert record["schema"] == SCHEMA
        assert record["reason"] == "chunk-serial-retry"
        assert record["context"]["backend"] == "process"

    def test_chunk_timeout_dumps_flight_window(self):
        pool = ParallelMap(workers=2, chunk_size=1, timeout=0.05)
        # Fork the workers first: a cold spawn is not a chunk timeout.
        pool.prewarm()
        results = pool.map(slow, [0, 1])
        assert results == [1, 2]
        assert pool.stats.timeouts == 1
        assert any(record["reason"] == "chunk-timeout"
                   for record in pool.flight_records)

    def test_trial_failure_dumps_in_the_executing_process(self):
        from repro.harness.experiment import Experiment

        def bad_trial(seed):
            raise RuntimeError("induced trial failure")

        with pytest.raises(RuntimeError, match="induced trial failure"):
            Experiment(name="flight", trial=bad_trial, seeds=(0,)).run()
        recent = flightrec.recent_dumps()
        assert recent and recent[-1]["reason"] == "trial-failure"
        assert recent[-1]["context"]["seed"] == 0

    def test_batched_trial_failure_dumps_like_a_scalar_one(
            self, monkeypatch):
        from repro.harness.experiment import Experiment

        def bad_trial(seed):
            if seed == 3:
                raise RuntimeError("induced trial failure")
            return {"value": float(seed)}

        dumps = {}
        for batch in (None, 2):
            monkeypatch.setattr(flightrec, "_recorder", FlightRecorder())
            monkeypatch.setattr(flightrec, "_recorder_pid", os.getpid())
            with pytest.raises(RuntimeError, match="induced trial failure"):
                Experiment(name="flight", trial=bad_trial,
                           seeds=tuple(range(5)), batch=batch).run()
            dumps[batch] = [(dump["reason"], dump["context"])
                            for dump in flightrec.recent_dumps()]
        assert dumps[None] == dumps[2] == \
            [("trial-failure", {"seed": 3, "instrument": False})]

    def test_worker_death_recovers_with_flight_dump(self):
        # A worker killed mid-chunk (os._exit, no exception, no
        # traceback) must not kill the run: the parent re-runs the
        # chunk serially, dumps the flight window, and exits cleanly.
        # Run in a subprocess so the dying workers (and the broken
        # executor they leave behind) can't leak into this process.
        import pathlib
        import subprocess
        import sys

        script = """
import os, sys
sys.path.insert(0, {src!r})
os.environ["FLIGHT_PARENT"] = str(os.getpid())

def task(x):
    if x == 2 and os.getpid() != int(os.environ["FLIGHT_PARENT"]):
        os._exit(3)  # simulated worker crash: no exception raised
    return x + 1

from repro.runtime.pmap import ParallelMap
pool = ParallelMap(workers=2, chunk_size=1)
results = pool.map(task, [0, 1, 2, 3])
assert results == [1, 2, 3, 4], results
assert pool.stats.serial_retries >= 1
assert pool.flight_records, "no flight dump recorded"
assert all(r["reason"] == "chunk-serial-retry"
           for r in pool.flight_records)
print("recovered", len(pool.flight_records))
""".format(src=str(pathlib.Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("recovered")
