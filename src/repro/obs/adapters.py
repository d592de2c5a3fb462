"""Adapters: a ``stats`` payload → a populated metrics registry.

The serving layers expose carefully-specified snapshots
(:class:`~repro.service.stats.ServiceStats`, the cluster's merged
:class:`~repro.cluster.stats.ClusterStats`, the router counter ledger,
per-tenant QoS slices).  These adapters translate those payload dicts
into typed metrics — the ``metrics`` wire op and the ``--metrics-port``
scrape endpoint are built on them.  The latency histograms are rebuilt
exactly from the ``buckets``/``sum``/``max`` each family and phase
summary carries, so the exposition and ``stats`` read one record.

Metric naming scheme (documented in DESIGN.md):

* ``repro_<counter>_total`` — cumulative counters (``submitted``,
  ``completed``, ``cache_hits``, ...);
* ``repro_<gauge>`` — instantaneous gauges (``queue_depth``,
  ``in_flight``, ``pending``, ``sessions_open``);
* ``repro_request_latency_seconds{family}`` /
  ``repro_phase_latency_seconds{phase,family}`` — the latency
  histograms behind the ``families`` and ``phases`` summaries;
* ``repro_tenant_*`` — per-tenant QoS slices;
* ``repro_router_<counter>_total`` / ``repro_shards_alive`` — router
  ledger and shard-set gauges;
* ``repro_profile_seconds_total{family=...,phase=...}`` — profiler
  phase totals.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import PROFILER

__all__ = [
    "registry_from_service_stats",
    "registry_from_router",
    "add_profile_metrics",
    "build_metrics_registry",
]

_STATS_COUNTERS = (
    "submitted", "completed", "failed", "rejected", "timed_out", "cancelled",
    "coalesced", "abandoned", "cache_hits", "cache_misses", "inline", "lost",
    "sessions_opened", "sessions_closed", "sessions_expired",
    "sessions_rejected", "sessions_restored", "session_tasks",
)

_STATS_GAUGES = ("queue_depth", "in_flight", "pending", "sessions_open")


def _finite(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def registry_from_service_stats(
    payload: Mapping[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Mirror a ``stats`` op payload (service *or* cluster) into metrics.

    Accepts both the flat :meth:`ServiceStats.to_dict` shape and the
    cluster shape (``{"cluster": true, "totals": {...}, ...}``) — the
    cluster totals/families/tenants are read from their nested keys.
    """
    registry = registry if registry is not None else MetricsRegistry()
    counters = payload.get("totals") if payload.get("cluster") else payload
    if not isinstance(counters, Mapping):
        counters = {}

    for name in _STATS_COUNTERS:
        value = _finite(counters.get(name))
        if value is not None:
            registry.counter(
                f"repro_{name}_total", f"Cumulative {name} count"
            ).set_total(value)
    for name in _STATS_GAUGES:
        value = _finite(counters.get(name))
        if value is not None:
            registry.gauge(f"repro_{name}", f"Instantaneous {name}").set(value)

    latency_count = _finite(counters.get("latency_count"))
    if latency_count is not None:
        registry.counter(
            "repro_latency_observations_total", "Recorded request latencies"
        ).set_total(latency_count)

    families = payload.get("families")
    if isinstance(families, Mapping):
        family_count = registry.counter(
            "repro_family_requests_total", "Requests recorded per family", ("family",)
        )
        request_latency = registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency by solver family", ("family",),
        )
        for family, snap in families.items():
            if not isinstance(snap, Mapping):
                continue
            count = _finite(snap.get("count"))
            if count is not None:
                family_count.set_total(count, family)
            _add_summary(request_latency, (family,), snap)

    phases = payload.get("phases")
    if isinstance(phases, Mapping):
        phase_latency = registry.histogram(
            "repro_phase_latency_seconds",
            "Unique-job phase latency (queue_wait / exec) by solver family",
            ("phase", "family"),
        )
        for phase, breakdown in phases.items():
            if isinstance(breakdown, Mapping):
                for family, snap in breakdown.items():
                    if isinstance(snap, Mapping):
                        _add_summary(phase_latency, (phase, family), snap)

    tenants = payload.get("tenants")
    if isinstance(tenants, Mapping) and tenants:
        _add_tenant_metrics(registry, tenants)

    router = payload.get("router")
    if isinstance(router, Mapping):
        registry_from_router(router, registry)

    shards = payload.get("shards")
    if isinstance(shards, Mapping) and shards:
        registry.gauge("repro_shards_reporting", "Shards in the stats fan-out").set(
            len(shards)
        )

    return registry


def _add_summary(histogram: Histogram, key: tuple,
                 summary: Mapping[str, object]) -> None:
    """Fold one latency summary's histogram series into ``histogram``."""
    buckets = summary.get("buckets")
    if not isinstance(buckets, list) or len(buckets) != len(histogram.boundaries) + 1:
        return
    maximum = _finite(summary.get("max"))
    histogram.merge_series(
        tuple(str(part) for part in key), buckets,
        _finite(summary.get("sum")) or 0.0, sum(buckets),
        maximum if maximum is not None else -math.inf,
    )


def _add_tenant_metrics(registry: MetricsRegistry,
                        tenants: Mapping[str, object]) -> None:
    admitted = registry.counter(
        "repro_tenant_admitted_total", "Admitted requests per tenant", ("tenant",)
    )
    rejected = registry.counter(
        "repro_tenant_rejected_total", "Rejected requests per tenant", ("tenant",)
    )
    in_flight = registry.gauge(
        "repro_tenant_in_flight", "In-flight requests per tenant", ("tenant",)
    )
    backlog = registry.gauge(
        "repro_tenant_backlog", "Queued requests per tenant", ("tenant",)
    )
    share = registry.gauge(
        "repro_tenant_share", "Configured fair-share weight per tenant", ("tenant",)
    )
    for tenant, snap in tenants.items():
        if not isinstance(snap, Mapping):
            continue
        for metric, keys in (
            (admitted, ("admitted",)),
            (rejected, ("rejected", "rejections")),
        ):
            for key in keys:
                value = _finite(snap.get(key))
                if value is not None:
                    metric.set_total(value, tenant)
                    break
        for metric, key in ((in_flight, "in_flight"), (backlog, "backlog"),
                            (share, "weight")):
            value = _finite(snap.get(key))
            if value is not None:
                metric.set(value, tenant)


def registry_from_router(
    counters: Mapping[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Mirror the router counter ledger into ``repro_router_*`` metrics."""
    registry = registry if registry is not None else MetricsRegistry()
    gauges = {"shards_alive", "shards_draining", "sessions_pinned",
              "sessions_journaled"}
    for name, value in counters.items():
        number = _finite(value)
        if number is None:
            continue
        if name in gauges:
            registry.gauge(f"repro_{name}", f"Instantaneous {name}").set(number)
        else:
            registry.counter(
                f"repro_router_{name}_total", f"Router cumulative {name}"
            ).set_total(number)
    return registry


def add_profile_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Mirror the profiler ledger as ``repro_profile_seconds_total``."""
    snapshot = PROFILER.snapshot()
    if not snapshot:
        return registry
    seconds = registry.counter(
        "repro_profile_seconds_total", "Profiled wall time", ("family", "phase")
    )
    calls = registry.counter(
        "repro_profile_calls_total", "Profiled call count", ("family", "phase")
    )
    for family, phases in snapshot.items():
        for phase, entry in phases.items():
            seconds.set_total(entry["seconds"], family, phase)
            calls.set_total(entry["count"], family, phase)
    return registry


def build_metrics_registry(
    stats_payload: Optional[Mapping[str, object]] = None,
) -> MetricsRegistry:
    """One registry combining a ``stats`` snapshot and the profiler.

    This is what the ``metrics`` wire op and the scrape endpoint serve:
    counters, gauges and latency histograms from the snapshot (a
    cluster snapshot carries the router ledger too) and profiler totals
    (empty unless profiling is on).
    """
    registry = MetricsRegistry()
    if stats_payload is not None:
        registry_from_service_stats(stats_payload, registry)
    add_profile_metrics(registry)
    return registry
