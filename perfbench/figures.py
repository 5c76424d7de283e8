"""The benchmark's own arithmetic: percentiles, rates and sizes."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: The tail percentile reported beside the median.
TAIL = 90

#: The tail is reported only with this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank
    ``percentile``."""
    return n - max(1, math.ceil(percentile / 100 * n))


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def timing_summary(walls: Sequence[float]) -> Dict[str, object]:
    """Median op wall, and the p90 when at least :data:`MIN_BEYOND`
    samples lie beyond it, in milliseconds, with the sample counts
    behind them."""
    n = len(walls)
    out: Dict[str, object] = {
        "ops": n, "op_p50_ms": statistics.median(walls) * 1e3,
        "p50_samples_beyond": samples_beyond(n, 50)}
    if samples_beyond(n, TAIL) >= MIN_BEYOND:
        out["op_p90_ms"] = nearest_rank(walls, TAIL) * 1e3
        out["tail_percentile"] = TAIL
        out["tail_samples_beyond"] = samples_beyond(n, TAIL)
    return out


def paired_p50_ratio(walls: Sequence[float],
                     references: Sequence[float]) -> float:
    """Median over op pairs of ``wall / reference``: an op's cost in
    units of the same op on the reference program, run beside it."""
    return statistics.median(w / r for w, r in zip(walls, references))


def trials_per_s(ops: int, trials_per_op: int, timed_wall: float) -> float:
    """Protected requests answered per second of timed wall."""
    return ops * trials_per_op / timed_wall


def store_bytes_per_cell(appended: Sequence[int],
                         cells: Sequence[int]) -> Optional[float]:
    """Bytes appended to the store log per cell record written, over
    the ops that wrote any; ``None`` when no op wrote a cell."""
    written = sum(cells)
    return sum(appended) / written if written else None


def failed_frac(failures: List[Optional[str]]) -> float:
    """Share of attempted ops that failed (``None`` marks a pass)."""
    return sum(f is not None for f in failures) / len(failures)
