"""OpenMetrics-compatible text export of the metrics registry.

Extends the registry's own Prometheus exposition dump in three
OpenMetrics-flavoured ways:

* counter *family* names drop the ``_total`` suffix in ``# TYPE`` lines
  (the samples keep it), per the OpenMetrics counter convention;
* every histogram series is followed by a quantile block —
  ``<name>_quantiles{...,quantile="0.5"}`` and so on — estimated from
  the stored bucket counts via
  :meth:`~repro.observe.metrics.Histogram.quantile`, so p50/p95/p99
  appear in the dump without the registry ever retaining raw samples;
* the dump is terminated by the mandatory ``# EOF`` line.

The output is deterministic: series are sorted by ``(name, labels)``
and no wall clock is consulted, so two runs of the same workload
produce byte-identical dumps (the CI ``observe-smoke`` job relies on
this to detect format drift).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.observe.metrics import (
    Counter,
    Histogram,
    LabelKey,
    MetricsRegistry,
    _render_labels,
)

__all__ = ["QUANTILES", "render_openmetrics"]

#: Quantiles appended to every histogram series.
QUANTILES = (0.5, 0.95, 0.99)


def _family(name: str, kind: type) -> str:
    if kind is Counter and name.endswith("_total"):
        return name[:-len("_total")]
    return name


def _quantiles(name: str, key: LabelKey, metric: Histogram) -> List[str]:
    lines = []
    for q in QUANTILES:
        q_key = key + (("quantile", f"{q:g}"),)
        lines.append(f"{name}_quantiles{_render_labels(q_key)}"
                     f" {metric.quantile(q):g}")
    return lines


def render_openmetrics(registry: MetricsRegistry,
                       exclude: Sequence[str] = ()) -> str:
    """The registry as OpenMetrics-compatible exposition text.

    Args:
        registry: Source registry.
        exclude: Series-name prefixes to drop (e.g.
            ``("repro_runtime_",)``), as in
            :meth:`~repro.observe.metrics.MetricsRegistry.as_dict`.
    """
    lines = registry._exposition(exclude, family=_family, after=_quantiles)
    lines.append("# EOF")
    return "\n".join(lines)
