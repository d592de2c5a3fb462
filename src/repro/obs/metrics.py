"""Unified metrics: Counter / Gauge / Histogram + Prometheus exposition.

The registry holds typed metric families, each optionally labelled::

    reg = MetricsRegistry()
    reqs = reg.counter("repro_requests_total", "Requests", ("family",))
    reqs.inc(1, "sbo")
    lat = reg.histogram("repro_latency_seconds", "Latency", ("family",))
    lat.observe(0.012, "sbo")
    print(reg.render())          # Prometheus text exposition

Histograms use **fixed boundaries**, so merging two histograms is exact
bucket-count addition: the merge of per-shard histograms equals the
histogram of the concatenated samples.  Quantiles are then *estimated*
from bucket boundaries (upper-bound-of-bucket rule, clamped to the
series' exact maximum) — the standard Prometheus trade-off: exact
merge, approximate quantile.

:func:`summarize` turns one series into the latency summary the
``stats`` payloads carry (``count``, ``p50``/``p90``/``p99``, ``mean``,
``max`` plus the raw ``buckets`` and ``sum``), and
:func:`merge_summaries` merges such summaries exactly by adding their
buckets — the cluster and tenant merges are built on it.

Each serving process owns its histograms (a
:class:`~repro.service.service.SolverService` records its request and
phase latencies into private :class:`Histogram` objects); there is no
process-global registry.  A cluster merges its shards' ``stats``
payloads (:func:`repro.cluster.stats.merge_shard_stats`), and the
``metrics`` op builds a registry from such a payload
(:func:`repro.obs.adapters.build_metrics_registry`); ``to_dict`` gives
the registry's structured form (the op's ``"format": "dict"``).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "summarize",
    "merge_summaries",
]

#: Default latency bucket upper bounds (seconds): 100 µs .. 30 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_LabelKey = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if value != value:  # nan
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames: Sequence[str], labelvalues: _LabelKey,
               extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(str(value))}"'
             for name, value in zip(labelnames, labelvalues)]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Common shape: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labelvalues: Tuple[object, ...]) -> _LabelKey:
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(labelvalues)}"
            )
        return tuple(str(v) for v in labelvalues)

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, *labelvalues: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase, got {amount}")
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, *labelvalues: object) -> None:
        """Overwrite the total — for adapters mirroring an external counter."""
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def value(self, *labelvalues: object) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    def collect(self) -> Dict[_LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def render(self) -> List[str]:
        values = self.collect()
        lines = self._header()
        for key in sorted(values):
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(values[key])}"
            )
        return lines


class Gauge(_Metric):
    """Instantaneous value that can go up or down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, *labelvalues: object) -> None:
        self.inc(-amount, *labelvalues)

    def value(self, *labelvalues: object) -> float:
        with self._lock:
            return self._values.get(self._key(labelvalues), 0.0)

    def collect(self) -> Dict[_LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def render(self) -> List[str]:
        values = self.collect()
        lines = self._header()
        for key in sorted(values):
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(values[key])}"
            )
        return lines


class _HistogramSeries:
    __slots__ = ("buckets", "total", "count", "max")

    def __init__(self, nbuckets: int) -> None:
        self.buckets = [0] * nbuckets   # one per boundary + one overflow
        self.total = 0.0
        self.count = 0
        self.max = -math.inf            # exact; -inf until the first sample

    def as_dict(self) -> Dict[str, object]:
        return {"buckets": list(self.buckets), "sum": self.total,
                "count": self.count, "max": self.max}


def _upper_bound_quantile(boundaries: Sequence[float], buckets: Sequence[int],
                          count: int, q: float) -> float:
    """Upper bound of the bucket holding the ``q``-quantile rank.

    ``+Inf``-bucket hits report the largest finite boundary (the
    standard Prometheus convention).
    """
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        cumulative += bucket_count
        if cumulative >= rank:
            return boundaries[min(index, len(boundaries) - 1)]
    return boundaries[-1]


def summarize(buckets: Sequence[int], total: float, maximum: float,
              boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Dict[str, object]:
    """``{count, p50, p90, p99, mean, max, buckets, sum}`` of one series.

    Percentiles follow the upper-bound rule of :meth:`Histogram.quantile`
    clamped to the exact ``maximum``, so ``p50 <= p90 <= p99 <= max``;
    ``mean`` is ``sum / count``.  An empty series reports ``nan``
    (``null`` on the wire) for every figure but ``count``.
    """
    count = sum(buckets)
    if not count:
        return {"count": 0, "p50": math.nan, "p90": math.nan, "p99": math.nan,
                "mean": math.nan, "max": math.nan,
                "buckets": list(buckets), "sum": 0.0}
    if not math.isfinite(maximum):  # a merged series that carried no maximum
        maximum = _upper_bound_quantile(boundaries, buckets, count, 1.0)
    summary: Dict[str, object] = {"count": count}
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        summary[name] = min(_upper_bound_quantile(boundaries, buckets, count, q), maximum)
    summary.update(mean=total / count, max=maximum, buckets=list(buckets), sum=total)
    return summary


def merge_summaries(summaries: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Exact merge of :func:`summarize` outputs over the default boundaries.

    Buckets and sums add and the maximum is the max of the maxima, so
    the result is the summary of the concatenated samples.  Summaries
    without a well-formed ``buckets`` list contribute nothing.
    """
    buckets = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    total, maximum = 0.0, -math.inf
    for summary in summaries:
        counts = summary.get("buckets")
        if not isinstance(counts, list) or len(counts) != len(buckets):
            continue
        for index, bucket_count in enumerate(counts):
            buckets[index] += int(bucket_count)
        total += float(summary.get("sum") or 0.0)
        peak = summary.get("max")
        if isinstance(peak, (int, float)) and peak > maximum:
            maximum = float(peak)
    return summarize(buckets, total, maximum)


class Histogram(_Metric):
    """Fixed-boundary histogram; merging is exact bucket addition.

    ``boundaries`` are the inclusive upper bounds of the finite buckets
    (Prometheus ``le`` semantics); one implicit ``+Inf`` bucket catches
    the overflow.  Two histograms with identical boundaries merge by
    adding bucket counts, counts, and sums — exactly the histogram the
    concatenated sample stream would have produced; each series also
    keeps its exact maximum.

    ``max_series`` bounds the number of label sets with
    least-recently-recorded eviction (``evicted`` counts the series
    dropped) — for labels a client can influence, such as solver family
    names from runtime-registered solvers.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        max_series: Optional[int] = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"{name}: at least one bucket boundary required")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: boundaries must be strictly increasing")
        if any(b != b or b == math.inf for b in bounds):
            raise ValueError(f"{name}: boundaries must be finite (got {bounds})")
        if max_series is not None and max_series < 1:
            raise ValueError(f"{name}: max_series must be >= 1, got {max_series}")
        self.boundaries: Tuple[float, ...] = bounds
        self.max_series = max_series
        self.evicted = 0
        self._series: Dict[_LabelKey, _HistogramSeries] = {}

    def _touch(self, key: _LabelKey) -> _HistogramSeries:
        """The series for ``key``, moved to most recent (lock held)."""
        series = self._series.pop(key, None)
        if series is None:
            series = _HistogramSeries(len(self.boundaries) + 1)
            if self.max_series is not None:
                while len(self._series) >= self.max_series:
                    del self._series[next(iter(self._series))]
                    self.evicted += 1
        # Dict order is recency of record: eviction drops the oldest.
        self._series[key] = series
        return series

    def observe(self, value: float, *labelvalues: object) -> None:
        key = self._key(labelvalues)
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            series = self._touch(key)
            series.buckets[index] += 1
            series.total += value
            series.count += 1
            if value > series.max:
                series.max = value

    def collect(self) -> Dict[_LabelKey, Dict[str, object]]:
        with self._lock:
            return {key: s.as_dict() for key, s in self._series.items()}

    def summary(self, *labelvalues: object) -> Dict[str, object]:
        """:func:`summarize` of one series (the empty summary when unseen)."""
        key = self._key(labelvalues)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return summarize([0] * (len(self.boundaries) + 1), 0.0, math.nan,
                                 self.boundaries)
            buckets, total, maximum = list(series.buckets), series.total, series.max
        return summarize(buckets, total, maximum, self.boundaries)

    def summaries(self) -> Dict[_LabelKey, Dict[str, object]]:
        """``{label key: summary}`` for every recorded series, sorted by key."""
        return {
            key: summarize(data["buckets"], data["sum"], data["max"], self.boundaries)
            for key, data in sorted(self.collect().items())
        }

    def quantile(self, q: float, *labelvalues: object) -> float:
        """Estimated ``q``-quantile (0..1): upper bound of the covering bucket.

        ``nan`` when the series is empty; the estimate is clamped to the
        series' exact maximum, and ``+Inf``-bucket hits otherwise report
        the largest finite boundary.
        """
        key = self._key(labelvalues)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return math.nan
            buckets, count, maximum = list(series.buckets), series.count, series.max
        return min(_upper_bound_quantile(self.boundaries, buckets, count, q), maximum)

    def merge_series(self, key: _LabelKey, buckets: Sequence[int],
                     total: float, count: int, maximum: float = -math.inf) -> None:
        """Fold one external series (same boundaries) into this histogram."""
        if len(buckets) != len(self.boundaries) + 1:
            raise ValueError(
                f"{self.name}: cannot merge series with {len(buckets)} buckets "
                f"into {len(self.boundaries) + 1}"
            )
        with self._lock:
            series = self._touch(key)
            for index, bucket_count in enumerate(buckets):
                series.buckets[index] += int(bucket_count)
            series.total += float(total)
            series.count += int(count)
            if maximum > series.max:
                series.max = float(maximum)

    def render(self) -> List[str]:
        collected = self.collect()
        lines = self._header()
        for key in sorted(collected):
            data = collected[key]
            cumulative = 0
            for boundary, bucket_count in zip(self.boundaries, data["buckets"]):
                cumulative += bucket_count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_str(self.labelnames, key, (('le', f'{boundary:g}'),))} "
                    f"{cumulative}"
                )
            cumulative += data["buckets"][-1]
            lines.append(
                f"{self.name}_bucket"
                f"{_label_str(self.labelnames, key, (('le', '+Inf'),))} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_label_str(self.labelnames, key)} "
                f"{_format_value(data['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_label_str(self.labelnames, key)} {data['count']}"
            )
        return lines


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, boundaries=boundaries
        )  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def render(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------ #
    # structured form (the `metrics` op's "dict" format)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, object] = {}
        for name, metric in sorted(metrics.items()):
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["boundaries"] = list(metric.boundaries)
            entry["series"] = {
                "\t".join(key): value for key, value in metric.collect().items()
            }
            out[name] = entry
        return out
