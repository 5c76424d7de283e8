"""Unit tests for the fault-injection campaign harness."""

import gc

import pytest

from repro.faults.development import Bohrbug, Heisenbug, InputRegion
from repro.harness.campaign import CampaignCell, FaultCampaign


def retry_protector(attempts=5):
    """A trivial protector: blind re-execution."""
    def factory(faulty, env):
        def protected(x):
            last = None
            for _ in range(attempts):
                try:
                    return faulty(x, env=env)
                except Exception as exc:
                    last = exc
            raise last
        return protected
    return factory


def fault_menu():
    return {
        "bohrbug": lambda: Bohrbug("b", region=InputRegion(0, 10 ** 9)),
        "heisenbug": lambda: Heisenbug("h", probability=0.5),
        "none": lambda: Heisenbug("quiet", probability=0.0),
    }


class TestCampaign:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultCampaign({}, fault_menu())
        with pytest.raises(ValueError):
            FaultCampaign({"r": retry_protector()}, {})
        with pytest.raises(ValueError):
            FaultCampaign({"r": retry_protector()}, fault_menu(),
                          requests=0)

    def test_baseline_always_present(self):
        campaign = FaultCampaign({"retry": retry_protector()},
                                 fault_menu(), requests=20)
        assert "unprotected" in campaign.protectors

    def test_matrix_covers_all_combinations(self):
        campaign = FaultCampaign({"retry": retry_protector()},
                                 fault_menu(), requests=20)
        matrix = campaign.matrix()
        assert len(matrix) == 2 * 3  # (retry, unprotected) x 3 faults

    def test_retry_beats_baseline_on_heisenbugs_only(self):
        campaign = FaultCampaign({"retry": retry_protector()},
                                 fault_menu(), requests=150, seed=3)
        matrix = campaign.matrix()
        # Heisenbugs: retry survives far more often than the baseline.
        assert (matrix[("retry", "heisenbug")].correct_rate
                > matrix[("unprotected", "heisenbug")].correct_rate + 0.3)
        # Bohrbugs: retry is exactly as helpless as the baseline.
        assert matrix[("retry", "bohrbug")].correct_rate == 0.0
        assert matrix[("unprotected", "bohrbug")].correct_rate == 0.0
        # No fault: everything passes everywhere.
        assert matrix[("retry", "none")].correct_rate == 1.0

    def test_cells_are_fresh_per_combination(self):
        # The same fault label yields a fresh instance per cell, so
        # activation counts cannot bleed across protectors.
        instances = []

        def tracking_factory():
            bug = Bohrbug("b", region=InputRegion(0, 10 ** 9))
            instances.append(bug)
            return bug

        campaign = FaultCampaign({"retry": retry_protector()},
                                 {"bug": tracking_factory}, requests=5)
        campaign.run()
        assert len(instances) == 2

    def test_render_contains_all_labels(self):
        campaign = FaultCampaign({"retry": retry_protector()},
                                 fault_menu(), requests=10)
        text = campaign.render(title="matrix")
        for label in ("matrix", "retry", "unprotected", "bohrbug",
                      "heisenbug"):
            assert label in text

    def test_cell_fields(self):
        campaign = FaultCampaign({"retry": retry_protector()},
                                 fault_menu(), requests=10)
        cell = campaign.matrix()[("retry", "none")]
        assert isinstance(cell, CampaignCell)
        assert cell.requests == 10
        assert cell.survival_rate == cell.correct_rate == 1.0


class TestNoFramesOutliveARun:
    """Failures keep their errors without traceback frames, so an
    in-process ``repro campaign`` run leaves nothing for the cyclic
    collector to find: the frames held the campaign, its store and the
    pattern objects alive until the collector ran."""

    def test_no_failure_holds_a_traceback_after_a_run(self, capsys):
        from repro.cli import main
        from repro.exceptions import AllAlternativesFailedError
        from repro.result import Outcome

        gc.collect()
        before = {id(obj) for obj in gc.get_objects()
                  if isinstance(obj, BaseException)}
        gc.disable()
        try:
            assert main(["campaign", "--format", "json", "--requests",
                         "20", "--seed", "3"]) == 0
            live = gc.get_objects()
            failed = [obj for obj in live if isinstance(obj, Outcome)
                      and obj.error is not None]
            listed = [error for obj in live
                      if isinstance(obj, AllAlternativesFailedError)
                      for error in obj.failures]
            errors = [obj for obj in live if isinstance(obj, BaseException)
                      and id(obj) not in before]
            framed = [error for error in
                      [outcome.error for outcome in failed] + listed + errors
                      if error.__traceback__ is not None]
            del live
        finally:
            gc.enable()
        assert framed == []


class TestCollectorAfterARun:
    """What an in-process ``repro campaign --requests 20 --seed 3
    --format json`` run leaves the cyclic collector, in each mode.

    A live run's dashboard is one more subscriber of the run's session,
    so it leaves what its plain twin leaves, give or take the
    dashboard's own monitor.  A subscription refers to its bus weakly,
    so the session's bus and its history are freed without the
    collector; what is left is argparse parsers and monitor and
    subscription pairs.  After a warm-up run of each mode,
    ``gc.collect()`` freed, on 3.10.13, then on 3.11.7 and 3.12.1,
    then on 3.13.0:

    * ``--workers 1``: 311; 230; 200
    * ``--workers 2``: 279; 206; 176
    * ``--workers 2 --shards 4``: 279; 206; 176
    * ``--workers 1 --live``: 306; 224; 225
    * ``--workers 2 --live``: 274; 200; 201

    While each subscription held its bus, every mode freed 1,164 to
    1,277, most of them the history's events.
    """

    #: Every mode frees fewer objects than this.
    BOUND = 400
    #: A live run frees at most this many objects more than its twin.
    LIVE_SLACK = 64
    MODES = {
        "plain-1": ["--workers", "1"],
        "plain-2": ["--workers", "2"],
        "sharded-2": ["--workers", "2", "--shards", "4"],
        "live-1": ["--workers", "1", "--live", "--interval", "0.05"],
        "live-2": ["--workers", "2", "--live", "--interval", "0.05"],
    }

    @staticmethod
    def _freed(extra):
        """Objects ``gc.collect()`` frees after one run of the mode."""
        import contextlib
        import io

        from repro.cli import main

        argv = ["campaign", "--requests", "20", "--seed", "3",
                "--format", "json", *extra]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0

        run()  # warm-up: pools, imports and caches
        gc.collect()
        before = {id(obj) for obj in gc.get_objects()
                  if isinstance(obj, BaseException)}
        gc.disable()
        try:
            run()
            alive = [obj for obj in gc.get_objects()
                     if isinstance(obj, BaseException)
                     and id(obj) not in before]
            assert alive == [], extra
            return gc.collect()
        finally:
            gc.enable()

    def test_live_runs_leave_what_plain_runs_leave(self):
        freed = {name: self._freed(extra)
                 for name, extra in self.MODES.items()}
        for name, count in freed.items():
            assert count < self.BOUND, (name, freed)
        for workers in ("1", "2"):
            assert freed[f"live-{workers}"] - freed[f"plain-{workers}"] \
                <= self.LIVE_SLACK, freed
