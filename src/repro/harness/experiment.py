"""Seeded experiment trials."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.runtime.kernel import (BATCH_SCHEMA, BatchResult,
                                  MetricAccumulator, _run_trial, partition)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.runtime.store import ResultStore


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """One trial's measurements: a flat ``metric -> value`` mapping.

    When the owning experiment runs instrumented, ``telemetry`` carries
    the trial's telemetry digest (span/event/metric summaries from
    :meth:`repro.observe.Telemetry.summary`); otherwise it is ``None``.
    """

    seed: int
    metrics: Dict[str, float]
    telemetry: Optional[Dict[str, Any]] = None


@dataclasses.dataclass
class Experiment:
    """A named, seeded experiment.

    Args:
        name: Experiment id (e.g. ``"C4-rejuvenation"``).
        trial: ``trial(seed) -> {metric: value}``; must be a pure function
            of the seed so reruns reproduce EXPERIMENTS.md exactly.
        seeds: The seeds to run.
        instrument: When true, each trial runs inside a fresh telemetry
            session and its :class:`TrialResult` carries the session's
            summary.  Telemetry never feeds back into the trial (no RNG
            draws, no clock writes), so metric values are identical
            either way.  Inside a pool worker whose chunk is being
            captured (an outer session was installed), the per-trial
            session nests within the chunk's capture session —
            shadowing it exactly as it shadows an outer session
            serially.
        workers: Fan the trials out over this many pool workers
            (``repro.runtime.ParallelMap``).  Every trial is a pure
            function of its seed and results are gathered in seed
            order, so any worker count produces byte-identical results;
            the pool decides whether the trials run serially or on
            worker processes.
        batch: When set, run the seeds in contiguous batches of up to
            ``batch`` seeds (:mod:`repro.runtime.kernel`): each batch is
            one pool chunk and one
            :class:`~repro.runtime.kernel.BatchResult`, so a store
            keeps one record and one key per batch.  Because every
            trial is a pure function of its seed, any partition
            (``batch=1``, ``batch=len(seeds)``, ragged tails) yields
            byte-identical results; :meth:`run` expands batches back to
            scalar :class:`TrialResult` objects, and :meth:`summary`
            folds the batches as they are.
        store: Optional :class:`~repro.runtime.store.ResultStore`.
            When set, each unit (a trial, or under ``batch`` a whole
            batch) is looked up by content address — (trial source
            version, ``instrument``, seed / batch seed-tuple) — before
            executing, and persisted after; unchanged units are served
            from disk across processes and runs.  A served unit is
            **not re-executed**, so its side-band telemetry events are
            not re-published (the stored result, including any
            ``telemetry`` digest, is byte-identical).
        certify: Optional determinism certificate — a
            :class:`~repro.lint.deep.certificate.Certificate` or a path
            to one (written by ``repro lint --deep --certificate``).
            Before any trial executes, the trial callable is checked
            against it: uncertified, stale, or hazardous tasks raise a
            :class:`~repro.lint.deep.certificate.CertificationWarning`
            in plain runs, and a :class:`~repro.exceptions.
            CertificationError` when ``batch=`` or ``store=`` is in
            play — the paths whose byte-identity and content-addressed
            keys a hidden hazard silently poisons.  Enforcement never
            touches the RNG, the clock, or the trial itself, so a
            certified run is byte-identical to the same run without
            ``certify=``.
        stream: Optional :class:`~repro.observe.stream.TelemetryStream`
            handed to the pool: with an outer session installed,
            captured chunks stream incremental telemetry deltas home
            while trials run (the ``repro top`` live view) instead of
            one snapshot per chunk at the end.  The folded session is
            byte-identical either way.

    After a :meth:`run` that executes trials, :attr:`pool_stats` holds
    the last map call's :class:`~repro.runtime.pmap.PoolStats` and
    :attr:`flight_records` any flight-recorder dumps it produced
    (chunk timeouts / serial retries).
    """

    name: str
    trial: Callable[[int], Dict[str, float]]
    seeds: Sequence[int] = tuple(range(5))
    instrument: bool = False
    workers: int = 1
    batch: Optional[int] = None
    store: Optional["ResultStore"] = None
    certify: Optional[Any] = None
    stream: Optional[Any] = None

    def __post_init__(self) -> None:
        self.pool_stats: Optional[Any] = None
        self.flight_records: List[Any] = []

    def _enforce_certificate(self) -> None:
        """Gate on ``certify=`` (no-op when unset).  Runs before any
        trial; strict (error, not warning) whenever batching or the
        store could silently absorb nondeterministic results."""
        if self.certify is None:
            return
        from repro.lint.deep.certificate import enforce_certificate

        enforce_certificate(
            self.certify, {"trial": self.trial},
            strict=self.batch is not None or self.store is not None,
            context=f"experiment {self.name!r}")

    def run(self) -> List[TrialResult]:
        if self.batch is not None:
            # run_batches() enforces the certificate itself.
            return [result for batch in self.run_batches()
                    for result in batch.results()]
        self._enforce_certificate()
        seeds = list(self.seeds)

        def execute(missing: Sequence[int]) -> List[TrialResult]:
            return [TrialResult(seed=seed, metrics=metrics,
                                telemetry=telemetry)
                    for seed, (metrics, telemetry)
                    in zip(missing, self._execute(missing))]

        if self.store is None:
            return execute(seeds)
        from repro.runtime.store import code_fingerprint

        code = code_fingerprint(self.trial)
        task_name = self._task_name()
        keys = [self.store.key(task_name, (self.instrument,), seed=seed,
                               code=code)
                for seed in seeds]
        return self.store.serve(
            keys, lambda missing: execute([seeds[i] for i in missing]),
            task=task_name, seeds=seeds)

    def run_batches(self) -> List[BatchResult]:
        """The batched path: one :class:`BatchResult` per seed batch.

        Usable with any ``batch`` (``None`` means one batch of all
        seeds).  With a ``store``, each batch is addressed by its
        **batch fingerprint key** — (trial source version,
        :data:`~repro.runtime.kernel.BATCH_SCHEMA`, ``instrument``, the
        batch's seed tuple) — so an unchanged batch is served as one
        record; ``store.hit``/``store.write`` carry ``trials=len(batch)``
        for per-batch accounting in the SLI store-traffic table.
        """
        self._enforce_certificate()
        size = self.batch if self.batch is not None \
            else max(1, len(self.seeds))
        batches = partition(self.seeds, size)

        def execute(missing: Sequence[Tuple[int, ...]]) -> List[BatchResult]:
            # Every batch but the partition's last is full, so chunks
            # of ``size`` seeds are exactly the missing batches.
            ran = iter(self._execute([seed for batch in missing
                                      for seed in batch], chunk_size=size))
            grouped = []
            for batch in missing:
                metrics, telemetry = zip(*itertools.islice(ran, len(batch)))
                grouped.append(BatchResult(
                    seeds=batch, metrics=metrics,
                    telemetry=telemetry if self.instrument else None))
            return grouped

        if not batches:
            return []
        if self.store is None:
            return execute(batches)
        from repro.runtime.store import code_fingerprint

        code = code_fingerprint(self.trial)
        task_name = self._task_name()
        keys = [self.store.key(task_name,
                               (BATCH_SCHEMA, self.instrument, batch),
                               seed=batch[0], code=code)
                for batch in batches]
        return self.store.serve(
            keys, lambda missing: execute([batches[i] for i in missing]),
            task=task_name, seeds=[batch[0] for batch in batches],
            trials=[len(batch) for batch in batches])

    def _task_name(self) -> str:
        return (f"{getattr(self.trial, '__module__', '?')}"
                f".{getattr(self.trial, '__qualname__', 'trial')}")

    def _execute(self, seeds: Sequence[int],
                 chunk_size: Optional[int] = None
                 ) -> List[Tuple[Dict[str, float], Optional[Dict[str, Any]]]]:
        """``(metrics, telemetry digest or None)`` for each of ``seeds``
        (a sub-sequence on store partial hits), in order: one pool map
        of :func:`~repro.runtime.kernel._run_trial`, ``chunk_size``
        seeds per chunk (``None``: the pool's default), its accounting
        kept on the experiment."""
        from repro.runtime.pmap import ParallelMap

        runner = functools.partial(_run_trial, self.trial, self.instrument)
        pool = ParallelMap(workers=self.workers, stream=self.stream)
        try:
            return pool.map(runner, seeds, chunk_size=chunk_size)
        finally:
            self.pool_stats = pool.stats
            self.flight_records = pool.flight_records

    def summary(self, results: Optional[Sequence[Union[TrialResult,
                                                       BatchResult]]] = None
                ) -> Dict[str, float]:
        """Mean and stdev of every metric across trials.

        Args:
            results: Precomputed trial results or batch results (e.g.
                from a preceding :meth:`run` / :meth:`run_batches`);
                when omitted the trials are (re)run — batched when
                ``batch`` is set, so the summary never materialises
                scalar result objects.
        """
        if results is None:
            results = (self.run_batches() if self.batch is not None
                       else self.run())
        return summarize(results)


def run_trials(trial: Callable[[int], Dict[str, float]],
               seeds: Sequence[int], workers: int = 1,
               batch: Optional[int] = None,
               store: Optional["ResultStore"] = None,
               certify: Optional[Any] = None,
               stream: Optional[Any] = None) -> List[TrialResult]:
    """Run ``trial`` over seeds (functional form of :class:`Experiment`)."""
    return Experiment(name="trials", trial=trial, seeds=tuple(seeds),
                      workers=workers, batch=batch,
                      store=store, certify=certify, stream=stream).run()


def summarize(results: Sequence[Union[TrialResult, BatchResult]]
              ) -> Dict[str, float]:
    """Per-metric means (and ``<metric>_stdev``) over trial results.

    Accepts scalar :class:`TrialResult` sequences,
    :class:`~repro.runtime.kernel.BatchResult` sequences, or a mix;
    batched and scalar runs of the same seeds summarize byte-identically,
    because both fold every trial's own metrics dict in seed order.

    Trials may report heterogeneous metric sets (e.g. a metric only
    meaningful when a fault actually struck): each metric is averaged
    over the trials that reported it.  The sample standard deviation is
    reported alongside every mean under ``<metric>_stdev`` (0.0 when
    only one trial reported the metric).

    Single pass: one :class:`~repro.runtime.kernel.MetricAccumulator`
    per metric folds count/mean/M2 state as values stream by — no
    per-key value list is rebuilt — and reproduces the
    ``statistics.fmean`` / ``statistics.stdev`` floats to the digit
    (the accumulator keeps exact state; see its docstring).  Keys keep
    first-seen order, exactly as the two-pass implementation reported
    them.
    """
    accumulators: Dict[str, MetricAccumulator] = {}
    for result in results:
        trials = (result.metrics if isinstance(result, BatchResult)
                  else (result.metrics,))
        for metrics in trials:
            for key, value in metrics.items():
                accumulator = accumulators.get(key)
                if accumulator is None:
                    accumulator = accumulators[key] = MetricAccumulator()
                accumulator.add(value)
    out: Dict[str, float] = {}
    for key, accumulator in accumulators.items():
        out[key] = accumulator.mean()
        out[f"{key}_stdev"] = accumulator.stdev()
    return out
