"""A labelled metrics registry with a Prometheus text dump.

Counters, gauges and histograms keyed by ``(name, labels)``.  The
registry is the single accounting surface of the framework: pattern
engines feed it through :class:`~repro.patterns.base.PatternStats`,
techniques and the fault injector feed it directly, and
``repro metrics`` dumps it in the Prometheus exposition format so the
virtual-time experiments read like any production service.

Metric name conventions follow Prometheus: monotonic counters end in
``_total``; histogram values are virtual-time units.

Cross-process aggregation: :meth:`MetricsRegistry.snapshot` freezes the
registry into a plain, picklable document and
:meth:`MetricsRegistry.merge` folds such a document into another
registry.  Merging is commutative and associative (counters and
histogram tallies add; gauges merge as deltas; min/max combine), so a
pool of workers can each record into a private registry and the parent
can fold the snapshots back in any grouping without changing the
totals.  Snapshot ordering is sorted by ``(name, labels)`` — no
reliance on dict iteration order or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds, in virtual time units.
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


@dataclasses.dataclass
class Counter:
    """A monotonically increasing value."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A value that can move in both directions."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A fixed-bucket distribution (count, sum, min, max, buckets)."""

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the stored bucket counts.

        No raw samples are retained, so the estimate interpolates
        linearly inside the bucket that covers the target rank (the
        standard Prometheus ``histogram_quantile`` scheme).  Ranks that
        land in the overflow (``+Inf``) bucket return the observed
        maximum; the result is clamped to the observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        for i, cumulative in enumerate(self.bucket_counts):
            if cumulative >= rank and cumulative > 0:
                previous = self.bucket_counts[i - 1] if i else 0
                lower = self.buckets[i - 1] if i else (
                    self.min if self.min is not None else 0.0)
                upper = self.buckets[i]
                in_bucket = cumulative - previous
                fraction = ((rank - previous) / in_bucket
                            if in_bucket else 1.0)
                estimate = lower + fraction * (upper - lower)
                break
        else:
            # Rank beyond the last finite bucket: the +Inf overflow.
            estimate = self.max if self.max is not None else 0.0
        if self.max is not None:
            estimate = min(estimate, self.max)
        if self.min is not None:
            estimate = max(estimate, self.min)
        return estimate


class MetricsRegistry:
    """Get-or-create registry of labelled metrics.

    Convenience mutators (:meth:`inc`, :meth:`set_gauge`,
    :meth:`observe`) cover the common one-liner call sites; the typed
    accessors (:meth:`counter`, :meth:`gauge`, :meth:`histogram`) return
    the metric object for repeated updates.

    Args:
        recording: When false the registry stays empty: :meth:`inc`
            returns at once, :meth:`merge` folds nothing, and the
            typed accessors (so :meth:`set_gauge` and :meth:`observe`
            too) hand out a detached series that is never registered.
            This is the registry of an events-only telemetry session
            (see :class:`~repro.observe.telemetry.Telemetry`).
    """

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._kinds: Dict[str, type] = {}
        #: ``(name, raw label items)`` -> counter, consulted by
        #: :meth:`inc` before it builds the canonical key.  Only calls
        #: whose label values are all exactly ``str`` use it: there
        #: ``str(v)`` is ``v``, so equal raw items mean one series.
        #: Any other value takes the canonical path, so ``1``, ``True``
        #: and ``1.0`` (equal, and equally hashed) stay three series.
        #: One entry per label order a call site uses.
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                             Counter] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, cls, name: str, labels: Mapping[str, object],
             **extra) -> object:
        if not self.recording:
            # A detached series: whatever the caller records goes
            # nowhere, and the registry stays empty.
            return cls(name, _label_key(labels), **extra)
        kind = self._kinds.setdefault(name, cls)
        if kind is not cls:
            raise ValueError(f"metric {name!r} already registered as "
                             f"{kind.__name__}, not {cls.__name__}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **extra)
            self._metrics[key] = metric
        return metric

    # -- typed accessors ---------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create a counter for this label set."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create a gauge for this label set."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        """Get or create a histogram for this label set."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- convenience mutators ----------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        """Increment the counter ``name`` for this label set."""
        if not self.recording:
            return
        for value in labels.values():
            if type(value) is not str:
                counter = self._get(Counter, name, labels)
                break
        else:
            raw = (name, tuple(labels.items()))
            counter = self._counters.get(raw)
            if counter is None:
                counter = self._counters[raw] = self._get(Counter, name,
                                                          labels)
        counter.inc(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` for this label set."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one histogram observation for this label set."""
        self.histogram(name, **labels).observe(value)

    # -- snapshot / merge --------------------------------------------------

    #: Snapshot kind tags -> metric classes (see :meth:`snapshot`).
    KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the registry into a plain, picklable document.

        The document is JSON-friendly (lists and scalars only) and
        sorted by ``(name, labels)``, so two registries holding the
        same series produce identical snapshots regardless of insertion
        order or ``PYTHONHASHSEED``.
        """
        series: List[List[Any]] = []
        for (name, key), metric in sorted(self._metrics.items()):
            labels = [list(pair) for pair in key]
            if isinstance(metric, Histogram):
                payload: Any = {
                    "buckets": list(metric.buckets),
                    "bucket_counts": list(metric.bucket_counts),
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min,
                    "max": metric.max,
                }
                kind = "histogram"
            else:
                payload = metric.value
                kind = ("counter" if isinstance(metric, Counter)
                        else "gauge")
            series.append([kind, name, labels, payload])
        return {"schema": "repro-metrics-snapshot/v1", "series": series}

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` document into this registry.

        Counters and histogram tallies add; gauges add too (a worker
        session starts from zero, so its gauge value is the worker's net
        delta); histogram min/max combine.  Merging is commutative and
        associative.  A kind conflict with an existing metric, or a
        histogram bucket-layout mismatch, raises :class:`ValueError`.
        A registry that is not :attr:`recording` folds nothing.
        """
        if not self.recording:
            return
        for kind, name, labels, payload in snapshot["series"]:
            cls = self.KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric kind {kind!r} "
                                 f"in snapshot for {name!r}")
            label_map = dict(labels)
            if cls is Histogram:
                buckets = tuple(payload["buckets"])
                hist: Histogram = self._get(  # type: ignore[assignment]
                    Histogram, name, label_map, buckets=buckets)
                if hist.buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket layout mismatch: "
                        f"{hist.buckets} vs {buckets}")
                hist.count += payload["count"]
                hist.sum += payload["sum"]
                for i, count in enumerate(payload["bucket_counts"]):
                    hist.bucket_counts[i] += count
                for bound, pick in (("min", min), ("max", max)):
                    incoming = payload[bound]
                    if incoming is not None:
                        ours = getattr(hist, bound)
                        setattr(hist, bound,
                                incoming if ours is None
                                else pick(ours, incoming))
            else:
                metric = self._get(cls, name, label_map)
                metric.value += payload  # type: ignore[union-attr]

    # -- reads -------------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge (0.0 when never touched)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[union-attr]

    def as_dict(self, exclude: Sequence[str] = ()) -> Dict[str, float]:
        """Flat ``rendered-sample-name -> value`` mapping.

        Histograms contribute their ``_count`` and ``_sum`` samples.
        ``exclude`` drops series whose name starts with any given
        prefix (e.g. ``("repro_runtime_",)`` to compare workload
        telemetry across pool backends — see docs/OBSERVABILITY.md).
        """
        out: Dict[str, float] = {}
        for (name, key), metric in sorted(self._metrics.items()):
            if any(name.startswith(prefix) for prefix in exclude):
                continue
            labels = _render_labels(key)
            if isinstance(metric, Histogram):
                out[f"{name}_count{labels}"] = float(metric.count)
                out[f"{name}_sum{labels}"] = metric.sum
            else:
                out[f"{name}{labels}"] = metric.value
        return out

    def render_prometheus(self, exclude: Sequence[str] = ()) -> str:
        """The registry in the Prometheus text exposition format.

        ``exclude`` drops series by name prefix, as in :meth:`as_dict`.
        """
        by_name: Dict[str, List[Tuple[LabelKey, object]]] = {}
        for (name, key), metric in sorted(self._metrics.items()):
            if any(name.startswith(prefix) for prefix in exclude):
                continue
            by_name.setdefault(name, []).append((key, metric))
        lines: List[str] = []
        for name, series in by_name.items():
            kind = self._kinds[name]
            lines.append(f"# TYPE {name} {kind.__name__.lower()}")
            for key, metric in series:
                if isinstance(metric, Histogram):
                    # bucket_counts are maintained cumulatively (every
                    # bucket whose bound covers the value is bumped).
                    for bound, count in zip(metric.buckets,
                                            metric.bucket_counts):
                        bucket_key = key + (("le", f"{bound:g}"),)
                        lines.append(f"{name}_bucket"
                                     f"{_render_labels(bucket_key)}"
                                     f" {count}")
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{name}_bucket{_render_labels(inf_key)}"
                                 f" {metric.count}")
                    lines.append(f"{name}_sum{_render_labels(key)}"
                                 f" {metric.sum:g}")
                    lines.append(f"{name}_count{_render_labels(key)}"
                                 f" {metric.count}")
                else:
                    value = metric.value  # type: ignore[union-attr]
                    lines.append(f"{name}{_render_labels(key)} {value:g}")
        return "\n".join(lines)
