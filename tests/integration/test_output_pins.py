"""Digests of what the telemetry-consuming commands print.

``repro campaign`` and ``repro top`` open sessions that keep events
only: spans and counters are dropped there, because none of their
outputs reads one.  These sha256 pins were computed before campaign
sessions stopped keeping spans and counters, and pass on both sides of
that change.  They prove that the campaign's outputs (plain, pooled,
sharded, the live final frame, the flight window) and the output of
the commands that keep full sessions (``trace``, ``metrics``,
``report``) did not move.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.observe import flightrec

CAMPAIGN = ["campaign", "--format", "json", "--requests", "120",
            "--seed", "5"]
BATCHED = ["campaign", "--format", "json", "--requests", "20", "--seed", "7",
           "--workers", "2", "--batch", "4"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture
def fresh_recorder(monkeypatch):
    """A fresh process flight recorder, so record ``seq`` numbers
    start at 0 whatever ran before in this process."""
    recorder = flightrec.FlightRecorder()
    monkeypatch.setattr(flightrec, "_recorder", recorder)
    monkeypatch.setattr(flightrec, "_recorder_pid", os.getpid())
    return recorder


class TestCampaignReports:
    SERIAL = \
        "f0807bc1c9608b456b90e2b9e8f4c83fa07caa0ee58f66b6188d0f7881870b66"
    POOLED = \
        "44cb1fd9137e8098bff5fee98bfca9ac3314f5baa8cd528a5b494bdfce95c825"
    SHARDED = \
        "22c7f3e0730fe4f12337b637032f59a4f7c13c81f7f97b582c912f871b085866"
    #: ``--requests 20 --seed 7 --workers 2``, the CI observe-smoke
    #: campaign.  Computed on the thread backend before it was retired:
    #: worker processes print the same bytes.  Its SLI rows differ
    #: from the ``--workers 1`` report's, so only a pin holds it.
    POOLED_SMALL = \
        "8fc2f42410b2508c8ef32b5f473ef76fbc17f1fc597d11c56c09dd869938c6af"
    #: The same campaign with ``--batch 4``: four cells per chunk.  Its
    #: cells are ``POOLED_SMALL``'s, but its SLI rows are not, because
    #: each chunk's session starts a fresh clock (ROADMAP item 5).
    #: ``--batch 2`` prints the ``POOLED_SMALL`` bytes.
    POOLED_BATCHED = \
        "7dd1b6ead46d52fbda9105819a1de933ccdf379d229ad7bb97482270a82dd356"

    def test_serial(self, capsys):
        assert sha256(run(capsys, CAMPAIGN + ["--workers", "1"])) \
            == self.SERIAL

    def test_pooled(self, capsys):
        assert sha256(run(capsys, CAMPAIGN + ["--workers", "2"])) \
            == self.POOLED

    def test_pooled_small(self, capsys):
        argv = ["campaign", "--format", "json", "--requests", "20",
                "--seed", "7", "--workers", "2"]
        assert sha256(run(capsys, argv)) == self.POOLED_SMALL

    def test_pooled_batched(self, capsys):
        assert sha256(run(capsys, BATCHED)) == self.POOLED_BATCHED

    def test_sharded(self, capsys):
        assert sha256(run(capsys, CAMPAIGN + ["--workers", "2",
                                              "--shards", "4"])) \
            == self.SHARDED

    def test_live_final_frame_report(self, capsys):
        out = run(capsys, CAMPAIGN + ["--workers", "2", "--live",
                                      "--interval", "0.05"])
        final = json.loads(out.strip().splitlines()[-1])
        assert final["final"] is True
        report = json.dumps(final["report"], sort_keys=True, indent=2,
                            default=str) + "\n"
        assert sha256(report) == self.POOLED

    def test_live_final_frame_report_batched(self, capsys):
        out = run(capsys, BATCHED + ["--live", "--interval", "0.05"])
        final = json.loads(out.strip().splitlines()[-1])
        assert final["final"] is True
        report = json.dumps(final["report"], sort_keys=True, indent=2,
                            default=str) + "\n"
        assert sha256(report) == self.POOLED_BATCHED


class TestFlightWindow:
    WINDOW = \
        "3df4758d5c22eff78b31eca8902f501748c7040f293a9889a69f2255145d9b40"
    #: Spans and events the ring observed.  The matrix ends on the
    #: unprotected cells, which open no span, so the window itself
    #: holds events only; spans show in its ``seq`` and ``time``
    #: fields, since every span reaches the ring and ticks the clock.
    CAPTURED = 12600
    #: The pooled and sharded runs fill the ring from merged chunk and
    #: shard snapshots, whose rows carry events only.  Computed while
    #: the ring was a ``"*"`` bus subscription handed every merged
    #: event one by one, so they pin that taking a merge's tail keeps
    #: the same window and count.
    POOLED_WINDOW = \
        "d6c41469d4562354e20286f38d02cfe418193aeeed0cc8d755f4f2a7b03d4cb3"
    POOLED_CAPTURED = 6996
    SHARDED_WINDOW = \
        "28c6f7ed6022f51f306d59690409f7d5ec5a7c4669412b849b3714598ba96b1a"
    SHARDED_CAPTURED = 7000

    def test_window_after_a_serial_campaign(self, capsys, fresh_recorder):
        run(capsys, CAMPAIGN + ["--workers", "1"])
        window = fresh_recorder.window()
        assert fresh_recorder.captured == self.CAPTURED
        assert len(window) == fresh_recorder.capacity
        assert sha256(json.dumps(window, sort_keys=True)) == self.WINDOW

    @pytest.mark.parametrize("mode,captured,digest", [
        (["--workers", "2"], POOLED_CAPTURED, POOLED_WINDOW),
        (["--workers", "2", "--shards", "4"], SHARDED_CAPTURED,
         SHARDED_WINDOW),
    ], ids=["pooled", "sharded"])
    def test_window_after_a_merged_campaign(self, capsys, fresh_recorder,
                                            mode, captured, digest):
        run(capsys, CAMPAIGN + mode)
        window = fresh_recorder.window()
        assert fresh_recorder.captured == captured
        assert len(window) == fresh_recorder.capacity
        assert sha256(json.dumps(window, sort_keys=True)) == digest


class TestFullSessionCommands:
    TRACE = \
        "079021f5094e39c552c593002fc5316351b547a592cda440118c92a0a2d15ef4"
    METRICS = \
        "ad876c47d93da8bcdceed1867a03b49b5b95465c1649f8dcef20ec0100abdb7d"
    #: Re-made once, when the ``lint`` scenario moved from repro's own
    #: source to a fixed sample module; the old and new documents
    #: differ only inside the ``lint`` row.
    REPORT = \
        "1775e33eae400f99179a14518c6902df5939ae41b384fc244fe4dabeea145650"
    #: ``metrics microreboot`` in both exposition formats: its
    #: histograms carry labels, so these pin the walk, the histogram
    #: lines and OpenMetrics' additions (family names, quantiles,
    #: ``# EOF``).
    METRICS_OPENMETRICS = \
        "2f0a9204b2f885b82d7a790573865c577c2edefa4212083d5d4c69ac01f8e083"
    METRICS_TEXT = \
        "7a4fbf3c7e0aeac5d8df642cd6c01db677b9c5473a9da50efcc3952f4d07b2db"

    def test_trace(self, capsys):
        assert sha256(run(capsys, ["trace", "nvp", "--requests", "20",
                                   "--seed", "3"])) == self.TRACE

    def test_metrics(self, capsys):
        assert sha256(run(capsys, ["metrics", "nvp", "--requests", "20",
                                   "--seed", "3", "--format", "json"])) \
            == self.METRICS

    @pytest.mark.parametrize("fmt", ["openmetrics", "text"])
    def test_metrics_exposition(self, capsys, fmt):
        out = run(capsys, ["metrics", "microreboot", "--requests", "20",
                           "--seed", "3", "--format", fmt])
        assert sha256(out) == getattr(self, f"METRICS_{fmt.upper()}")

    def test_report(self, capsys):
        assert sha256(run(capsys, ["report", "all", "--requests", "20",
                                   "--seed", "3", "--format", "json"])) \
            == self.REPORT
