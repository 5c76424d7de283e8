"""repro.runtime — deterministic parallel execution for the harness.

The paper's trade-off is redundancy cost vs. fault coverage; this
package removes the *wall-clock* part of that cost without touching a
single output byte.  Five cooperating pieces:

* :mod:`~repro.runtime.pmap` — :class:`ParallelMap`, an ordered,
  chunked scatter/gather over pure tasks that runs each call serially
  or on worker processes, as the work decides, with per-chunk timeouts
  and a retry-once-serial fallback, all running chunks through one
  chunk runner;
* :mod:`~repro.runtime.pool` — :class:`WorkerPool`, the warm-executor
  registry ``ParallelMap`` borrows from, so repeated maps amortise
  worker spawn cost (one long-lived process executor per worker count,
  fork-safety guarded, explicit shutdown);
* :mod:`~repro.runtime.store` — :class:`ResultStore`, a disk-backed,
  content-addressed store whose index also keeps decoded values:
  pure-trial results keyed on (task, args digest, seed, code version)
  survive process exit, making campaigns and ``repro bench
  --incremental`` skip unchanged work;
* :mod:`~repro.runtime.kernel` — the batched trial kernel: a seed
  batch is one chunk of the trial map and one :class:`BatchResult`
  record (each trial's own metrics dict, one store key per batch),
  with counter-based seed streams (:func:`trial_seed` /
  :func:`seed_range`) so any batch partition is byte-identical, and
  the bit-exact single-pass :class:`MetricAccumulator` behind
  ``summarize``;
* :mod:`~repro.runtime.bench` — the ``repro bench`` runner: the whole
  benchmark suite through the pool, with drift detection against
  ``benchmarks/results/`` and a ``BENCH_harness.json`` timing report.

The determinism contract (ordered gather, seed partitioning, no shared
RNG) is documented in ``docs/PERFORMANCE.md``, alongside the pool
lifecycle and the store's key schema and invalidation contract.
"""

from repro.runtime.kernel import (
    BatchResult,
    MetricAccumulator,
    partition,
    seed_range,
    trial_seed,
    trial_stream,
)
from repro.runtime.pmap import ParallelMap, PoolStats, parallel_map
from repro.runtime.pool import (
    WorkerPool,
    get_pool,
    pool_stats,
    shutdown_pools,
)
from repro.runtime.store import (
    MISS,
    ResultStore,
    args_digest,
    code_fingerprint,
)

__all__ = [
    "BatchResult",
    "MISS",
    "MetricAccumulator",
    "ParallelMap",
    "PoolStats",
    "ResultStore",
    "WorkerPool",
    "args_digest",
    "code_fingerprint",
    "get_pool",
    "parallel_map",
    "partition",
    "pool_stats",
    "seed_range",
    "shutdown_pools",
    "trial_seed",
    "trial_stream",
]
