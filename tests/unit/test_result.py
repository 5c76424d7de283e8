"""Unit tests for repro.result."""

import pytest

from repro.exceptions import SimulatedFailure
from repro.result import Outcome, run_to_outcome


class TestOutcome:
    def test_success_has_no_error(self):
        out = Outcome.success(7, producer="v1", cost=2.0)
        assert out.ok
        assert not out.failed
        assert out.value == 7
        assert out.producer == "v1"
        assert out.cost == 2.0

    def test_failure_carries_exception(self):
        exc = SimulatedFailure("boom")
        out = Outcome.failure(exc, producer="v2")
        assert out.failed
        assert not out.ok
        assert out.error is exc

    def test_unwrap_returns_value(self):
        assert Outcome.success([1, 2]).unwrap() == [1, 2]

    def test_unwrap_reraises(self):
        exc = SimulatedFailure("boom")
        with pytest.raises(SimulatedFailure):
            Outcome.failure(exc).unwrap()

    def test_failure_keeps_the_error_without_its_frames(self):
        try:
            raise SimulatedFailure("boom")
        except SimulatedFailure as exc:
            out = Outcome.failure(exc)
        assert out.error.__traceback__ is None
        with pytest.raises(SimulatedFailure, match="^boom$"):
            out.unwrap()

    def test_meta_kwargs_captured(self):
        out = Outcome.success(1, args=(3,), expressed=(4,))
        assert out.meta["args"] == (3,)
        assert out.meta["expressed"] == (4,)

    def test_outcome_is_frozen(self):
        out = Outcome.success(1)
        with pytest.raises(Exception):
            out.value = 2

    def test_default_attempt_is_zero(self):
        assert Outcome.success(1).attempt == 0

    def test_attempt_recorded(self):
        assert Outcome.success(1, attempt=3).attempt == 3


class TestRunToOutcome:
    def test_captures_value(self):
        out = run_to_outcome(lambda a, b: a + b, 2, 3, producer="f")
        assert out.ok and out.value == 5 and out.producer == "f"

    def test_captures_expected_exception(self):
        def boom():
            raise SimulatedFailure("x")
        out = run_to_outcome(boom, expected=SimulatedFailure)
        assert out.failed
        assert isinstance(out.error, SimulatedFailure)
        assert out.error.__traceback__ is None

    def test_unexpected_exception_propagates(self):
        def boom():
            raise KeyError("x")
        with pytest.raises(KeyError):
            run_to_outcome(boom, expected=SimulatedFailure)

    def test_kwargs_forwarded(self):
        out = run_to_outcome(lambda a, b=0: a - b, 10, b=4)
        assert out.value == 6
