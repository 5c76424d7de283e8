"""Property: a summary is one function of the trials' values in seed order.

``summarize`` reads scalar ``TrialResult``s and ``BatchResult``s alike.
Whatever metrics the trials report (sparse key sets, keys in divergent
orders, float, int and bool values) and however their seeds are cut
into batches, the batched summary is the scalar one, and each metric's
mean and ``<metric>_stdev``, in first-seen key order, are
``statistics.fmean`` and ``statistics.stdev`` (0.0 for a single
sample) of the metric's values as floats, in seed order.
"""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiment import TrialResult, summarize
from repro.runtime.kernel import BatchResult

#: Finite floats across scales, ints past 2**53 (where ``float()``
#: rounds) and bools, as trials report them.
_values = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(min_value=2 ** 53, max_value=2 ** 70),
    st.booleans())

#: One trial's metrics: any subset of the names, in drawn order.
_metrics = st.dictionaries(st.sampled_from(("a", "b", "c", "d")), _values,
                           max_size=4)


@st.composite
def trials_and_batches(draw):
    """Trial metric dicts, and their seeds cut into batches of drawn
    sizes."""
    trials = draw(st.lists(_metrics, max_size=16))
    sizes = []
    left = len(trials)
    while left:
        sizes.append(draw(st.integers(min_value=1, max_value=left)))
        left -= sizes[-1]
    return trials, sizes


def _scalars(trials):
    return [TrialResult(seed=seed, metrics=metrics)
            for seed, metrics in enumerate(trials)]


def _batches(trials, sizes):
    batches, start = [], 0
    for size in sizes:
        batches.append(BatchResult(
            seeds=tuple(range(start, start + size)),
            metrics=tuple(trials[start:start + size])))
        start += size
    return batches


@settings(max_examples=300, deadline=None)
@given(trials_and_batches())
def test_batched_summary_is_the_scalar_summary(case):
    trials, sizes = case
    scalar = summarize(_scalars(trials))
    batched = summarize(_batches(trials, sizes))
    assert list(batched) == list(scalar)
    assert repr(batched) == repr(scalar)


@settings(max_examples=300, deadline=None)
@given(trials_and_batches())
def test_summary_is_fmean_and_stdev_in_seed_order(case):
    trials, sizes = case
    summary = summarize(_batches(trials, sizes))
    names = list(dict.fromkeys(name for metrics in trials
                               for name in metrics))
    assert list(summary) == [key for name in names
                             for key in (name, f"{name}_stdev")]
    for name in names:
        column = [float(metrics[name]) for metrics in trials
                  if name in metrics]
        stdev = statistics.stdev(column) if len(column) > 1 else 0.0
        assert repr(summary[name]) == repr(statistics.fmean(column))
        assert repr(summary[f"{name}_stdev"]) == repr(stdev)
