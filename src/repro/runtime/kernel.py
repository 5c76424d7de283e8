"""Batched trial kernel: struct-of-arrays execution over seed ranges.

The scalar harness path pays a fixed per-trial tax that has nothing to
do with the trial itself: one :class:`~repro.harness.experiment.
TrialResult` object churned per seed, one content-address key hashed
and one pickle round-tripped per seed through the pool and the
:class:`~repro.runtime.store.ResultStore`.  At campaign scale (millions
of trials, each microseconds of real work) that tax *is* the runtime.
This module removes it:

* :func:`run_batch` executes B seeds as one pure function call and
  accumulates outcomes into **struct-of-arrays columns** — one compact
  ``array('d')`` of values plus an ``array('q')`` of trial indices per
  metric name — instead of B result objects;
* :class:`BatchResult` is the one record returned per batch: ~B× less
  pickle volume across a process pool, and one store key per batch
  instead of one per trial;
* **counter-based seeding** (:func:`trial_seed`, :func:`trial_stream`,
  :func:`seed_range`) derives every trial's randomness from
  ``stable_int(base_seed, trial_index)`` splitmix-style, so any batch
  partition of a seed range — B=1, B=len, ragged tails — yields
  byte-identical per-seed draws, independent of ``PYTHONHASHSEED``;
* :class:`MetricAccumulator` folds values **single-pass** into
  count / exact-sum / exact-sum-of-squares state whose ``mean()`` and
  ``stdev()`` reproduce ``statistics.fmean`` / ``statistics.stdev`` to
  the last bit, so :func:`repro.harness.experiment.summarize` over
  batches is byte-identical to the scalar path it replaced.

The established identity convention generalizes: serial-vs-parallel
became scalar-vs-batched.  ``summarize(batched) == summarize(scalar)``
byte-for-byte, including merged telemetry digests under instrument
mode — asserted by ``tests/unit/test_batch_kernel.py`` and benchmark
H4 (``benchmarks/bench_h4_batch_kernel.py``).
"""

from __future__ import annotations

import dataclasses
import math
import random
from array import array
from fractions import Fraction
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro import observe
from repro._util import stable_int
from repro.observe import flightrec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.harness.experiment import TrialResult

__all__ = ["BatchResult", "MetricAccumulator", "partition", "run_batch",
           "seed_range", "trial_seed", "trial_stream"]

#: Seed-space size for counter-derived streams; large enough that
#: distinct (base, index) pairs never collide in practice.
_SEED_SPACE = 2 ** 63


# -- counter-based RNG streams ---------------------------------------------


def trial_seed(base_seed: int, trial_index: int) -> int:
    """The seed of trial ``trial_index`` in the stream of ``base_seed``.

    A counter-based derivation (splitmix-style: hash the counter, never
    iterate an RNG), so the seed of trial *i* depends only on
    ``(base_seed, i)`` — not on how many trials ran before it, not on
    which batch it landed in, and not on ``PYTHONHASHSEED``.  Any batch
    partition of a seed range therefore reproduces the exact per-seed
    draws of the scalar loop.
    """
    return stable_int("trial-stream", base_seed, trial_index,
                      modulo=_SEED_SPACE)


def trial_stream(base_seed: int, trial_index: int) -> random.Random:
    """A fresh, counter-seeded RNG for one trial.

    The sanctioned way for trial code to draw randomness: constructing
    ``random.Random(seed)`` directly inside trial code is flagged by
    lint rule DET006, because hand-rolled re-seeding is exactly how
    batch partitions stop being byte-identical.
    """
    return random.Random(trial_seed(base_seed, trial_index))  # lint: allow[DET006] the sanctioned helper itself


def seed_range(base_seed: int, count: int, start: int = 0) -> Tuple[int, ...]:
    """``count`` counter-derived seeds from ``base_seed``'s stream.

    ``seed_range(b, n)[i] == trial_seed(b, i)``, so slicing or
    re-partitioning the range never changes any individual seed.
    """
    return tuple(trial_seed(base_seed, index)
                 for index in range(start, start + count))


def partition(seeds: Sequence[int], batch: int) -> List[Tuple[int, ...]]:
    """Contiguous batches of at most ``batch`` seeds (ragged tail kept).

    The concatenation of the partition is exactly ``seeds``, so batched
    execution visits the same seeds in the same order as the scalar
    loop.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    seeds = tuple(seeds)
    return [seeds[i:i + batch] for i in range(0, len(seeds), batch)]


# -- the batch record ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """One batch of trials as struct-of-arrays columns.

    Attributes:
        seeds: The batch's seeds, in execution order.
        columns: ``metric name -> array('d')`` of values, keyed in
            first-seen order (identical to the scalar first-seen key
            order across the same trials).  Trials may report
            heterogeneous metric sets, so a column holds one entry per
            *reporting* trial, aligned with ``rows``.
        rows: ``metric name -> array('q')`` of trial indices (positions
            into ``seeds``) that reported the metric, ascending.
        telemetry: One per-trial telemetry digest per seed when the
            batch ran instrumented (the same digests the scalar path
            attaches to each :class:`~repro.harness.experiment.
            TrialResult`); ``None`` otherwise.
        key_orders: ``trial index -> that trial's metric-key order``,
            recorded only for the (rare) trials whose own dict order
            diverges from the batch-wide column order, so expansion
            back to scalar dicts replays each trial's exact insertion
            order without paying a per-trial tuple for the common case.

    The record pickles ~B× smaller than B ``TrialResult`` objects: two
    typed arrays per metric instead of B dicts, one object header
    instead of B.
    """

    seeds: Tuple[int, ...]
    columns: Dict[str, array]
    rows: Dict[str, array]
    telemetry: Optional[Tuple[Dict[str, Any], ...]] = None
    key_orders: Optional[Dict[int, Tuple[str, ...]]] = None

    def __len__(self) -> int:
        return len(self.seeds)

    def trial_metrics(self, index: int) -> Dict[str, float]:
        """Trial ``index``'s ``metric -> value`` dict, rebuilt with the
        trial's own key order."""
        out: Dict[str, float] = {}
        for key, indices in self.rows.items():
            # Columns are short per-batch arrays; bisect would win only
            # for very large B with many sparse metrics.
            for position, trial in enumerate(indices):
                if trial == index:
                    out[key] = self.columns[key][position]
                    break
        return self._reorder(index, out)

    def _reorder(self, index: int, metrics: Dict[str, float]
                 ) -> Dict[str, float]:
        """Re-key a column-major dict into the trial's own order when
        the batch recorded a divergence."""
        order = (self.key_orders or {}).get(index)
        if order is None:
            return metrics
        return {key: metrics[key] for key in order}

    def results(self) -> List["TrialResult"]:
        """The batch expanded to scalar :class:`TrialResult` objects —
        the compatibility (and identity-test) bridge; hot paths should
        aggregate the columns directly instead."""
        from repro.harness.experiment import TrialResult

        metrics: List[Dict[str, float]] = [{} for _ in self.seeds]
        for key, indices in self.rows.items():
            column = self.columns[key]
            for position, trial in enumerate(indices):
                metrics[trial][key] = column[position]
        return [TrialResult(seed=seed,
                            metrics=self._reorder(index, metrics[index]),
                            telemetry=(self.telemetry[index]
                                       if self.telemetry is not None
                                       else None))
                for index, seed in enumerate(self.seeds)]


def _run_trial(trial: Callable[[int], Dict[str, float]], instrument: bool,
               seed: int) -> Tuple[Dict[str, float],
                                   Optional[Dict[str, Any]]]:
    """Run one seed: ``(metrics, telemetry digest or None)``.

    The per-trial step of the scalar path (its pool task) and of
    :func:`run_batch`: under ``instrument`` the trial runs in a fresh
    telemetry session whose summary is the digest.  A raising trial dumps the executing
    process's flight-recorder window (reason ``trial-failure``) before
    the exception propagates; see :mod:`repro.observe.flightrec`.
    """
    try:
        if not instrument:
            return trial(seed), None
        with observe.session() as tel:
            metrics = trial(seed)
        return metrics, tel.summary()
    except BaseException:
        flightrec.dump("trial-failure", seed=seed, instrument=instrument)
        raise


def run_batch(trial: Callable[[int], Dict[str, float]], instrument: bool,
              seeds: Sequence[int]) -> BatchResult:
    """Execute one batch of seeds as a single pure function call.

    The kernel of the batched path: runs every seed in order through
    the scalar path's per-trial step, :func:`_run_trial` (so digests
    and failure dumps are the scalar path's), and folds the returned
    metrics into struct-of-arrays columns.  Module-level (and driven
    through ``functools.partial``) so process pools can pickle it.
    """
    seeds = tuple(seeds)
    columns: Dict[str, array] = {}
    rows: Dict[str, array] = {}
    positions: Dict[str, int] = {}
    key_orders: Dict[int, Tuple[str, ...]] = {}
    digests: List[Dict[str, Any]] = []
    for index, seed in enumerate(seeds):
        metrics, digest = _run_trial(trial, instrument, seed)
        digests.append(digest)
        last_position = -1
        ordered = True
        for key, value in metrics.items():
            position = positions.get(key)
            if position is None:
                position = positions[key] = len(columns)
                columns[key] = array("d")
                rows[key] = array("q")
            elif position < last_position:
                # This trial's dict order diverges from the batch-wide
                # column order; record it so expansion replays the
                # trial's exact insertion order.
                ordered = False
            last_position = position
            columns[key].append(value)
            rows[key].append(index)
        if not ordered:
            key_orders[index] = tuple(metrics)
    return BatchResult(seeds=seeds, columns=columns, rows=rows,
                       telemetry=tuple(digests) if instrument else None,
                       key_orders=key_orders or None)


# -- single-pass, bit-exact metric aggregation -----------------------------


class MetricAccumulator:
    """Single-pass count/mean/M2-style accumulator, bit-exact.

    A naive Welford recurrence drifts in the last ulps relative to the
    ``statistics.fmean`` / ``statistics.stdev`` pair the harness has
    always reported, which would break the byte-identity contract every
    EXPERIMENTS.md table relies on.  This accumulator keeps the
    single-pass O(1)-state shape but folds each value into *exact*
    state instead:

    * **mean** — Shewchuk partials (the ``math.fsum`` algorithm,
      streamed), so ``mean()`` equals ``statistics.fmean(values)``
      exactly;
    * **M2** — the exact sum and sum-of-squares, so the corrected sum
      of squared deviations ``Σx² − (Σx)²/n`` is computed without
      rounding and ``stdev()`` equals ``statistics.stdev(values)``
      exactly.  Every float is ``mantissa / 2**shift`` exactly, so the
      exact sums are kept as integer mantissas over a shared
      power-of-two shift — plain shifted integer adds per value, no
      per-add rational normalisation; rationals appear only in the O(1)
      final :meth:`stdev`.

    Both folds are commutative and associative (exact arithmetic), so
    accumulators can also :meth:`merge` across batches or shards in any
    order — the same algebra the telemetry snapshot merge relies on.
    """

    __slots__ = ("count", "_partials", "_sum_num", "_sum_shift",
                 "_sq_num", "_sq_shift")

    def __init__(self) -> None:
        self.count = 0
        self._partials: List[float] = []
        #: Exact Σx = _sum_num / 2**_sum_shift.
        self._sum_num = 0
        self._sum_shift = 0
        #: Exact Σx² = _sq_num / 2**_sq_shift.
        self._sq_num = 0
        self._sq_shift = 0

    def add(self, value: float) -> None:
        """Fold one value in (one pass, no value list retained)."""
        self.count += 1
        value = float(value)
        # Shewchuk's algorithm, as math.fsum runs it: maintain a list
        # of non-overlapping partials whose exact sum is the running
        # sum, so the final rounded mean matches fsum's bit for bit.
        partials = self._partials
        i = 0
        x = value
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[i] = low
                i += 1
            x = high
        partials[i:] = [x]
        numerator, denominator = value.as_integer_ratio()
        shift = denominator.bit_length() - 1
        self._sum_num, self._sum_shift = _shifted_add(
            self._sum_num, self._sum_shift, numerator, shift)
        self._sq_num, self._sq_shift = _shifted_add(
            self._sq_num, self._sq_shift,
            numerator * numerator, shift * 2)

    def update(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "MetricAccumulator") -> None:
        """Fold another accumulator in (shard/batch merge)."""
        self.count += other.count
        for value in other._partials:
            self._merge_partial(value)
        self._sum_num, self._sum_shift = _shifted_add(
            self._sum_num, self._sum_shift,
            other._sum_num, other._sum_shift)
        self._sq_num, self._sq_shift = _shifted_add(
            self._sq_num, self._sq_shift,
            other._sq_num, other._sq_shift)

    def _merge_partial(self, value: float) -> None:
        partials = self._partials
        i = 0
        x = value
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[i] = low
                i += 1
            x = high
        partials[i:] = [x]

    def mean(self) -> float:
        """``statistics.fmean`` of everything folded in, bit-exact."""
        return math.fsum(self._partials) / self.count

    def stdev(self) -> float:
        """``statistics.stdev`` of everything folded in (0.0 for a
        single sample, matching the harness convention)."""
        n = self.count
        if n < 2:
            return 0.0
        exact_sum = Fraction(self._sum_num, 1 << self._sum_shift)
        exact_sq = Fraction(self._sq_num, 1 << self._sq_shift)
        mss = (exact_sq - exact_sum * exact_sum / n) / (n - 1)
        try:
            from statistics import _float_sqrt_of_frac
        except ImportError:  # pragma: no cover - Python < 3.11
            return math.sqrt(float(mss))
        return _float_sqrt_of_frac(mss.numerator, mss.denominator)


def _shifted_add(numerator: int, shift: int,
                 other_numerator: int, other_shift: int
                 ) -> Tuple[int, int]:
    """``n/2**s + m/2**t`` as a (numerator, shift) pair — the exact
    dyadic-rational add behind :class:`MetricAccumulator`."""
    if other_shift > shift:
        numerator <<= other_shift - shift
        shift = other_shift
    return numerator + (other_numerator << (shift - other_shift)), shift
