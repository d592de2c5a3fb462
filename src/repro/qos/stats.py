"""Per-tenant observability: snapshot shape and the cross-shard merge.

A *tenant snapshot* is the JSON-friendly ledger one serving process
reports per tenant inside its ``stats()`` payload (the ``tenants`` key):
cumulative counters, the per-code rejection breakdown, instantaneous
gauges, accumulated worker-busy seconds, the queue-wait histogram
summary (:func:`repro.obs.metrics.summarize`), and the tenant's
configured entitlements (so a stats reader needs no side channel to
interpret the numbers).

:func:`merge_tenant_snapshots` folds the per-shard tenant slices into
cluster-wide ones the same way :mod:`repro.cluster.stats` merges family
latencies: counters, gauges, and busy seconds sum; queue-wait summaries
merge exactly by adding their histogram buckets
(:func:`repro.obs.metrics.merge_summaries`); entitlement fields pass
through (identical on every shard by construction — the registry is
distributed from one file).

Each snapshot's ``lost`` is derived exactly like the service-global
ledger's: a submitted request must end in ``admitted`` or ``rejected``
— nonzero per-tenant ``lost`` indicates an accounting bug, and the
property tests assert it stays zero through load, cancellation, and
shard kills.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.obs.metrics import merge_summaries

from .tenants import TenantConfig

__all__ = ["tenant_snapshot", "snapshot_lost", "merge_tenant_snapshots"]

#: Counter keys (cumulative) — summed in the cluster merge.
COUNTER_KEYS = ("submitted", "admitted", "rejected", "completed", "failed",
                "abandoned", "cache_hits", "coalesced")

#: Gauge keys (instantaneous) — also summed (a tenant's cluster-wide
#: in-use count is the sum of its per-shard in-use counts).
GAUGE_KEYS = ("in_use", "queued")


def tenant_snapshot(
    cfg: TenantConfig,
    counters: Mapping[str, int],
    rejected_by: Mapping[str, int],
    in_use: int,
    queued: int,
    busy_s: float,
    queue_wait: Mapping[str, object],
) -> Dict[str, object]:
    """Assemble one tenant's JSON-friendly ledger snapshot."""
    snap: Dict[str, object] = {key: int(counters.get(key, 0)) for key in COUNTER_KEYS}
    snap["rejected_by"] = {code: int(n) for code, n in sorted(rejected_by.items())}
    snap["in_use"] = int(in_use)
    snap["queued"] = int(queued)
    snap["busy_s"] = float(busy_s)
    snap["queue_wait"] = dict(queue_wait)
    snap["lost"] = snapshot_lost(snap)
    snap["config"] = {
        "quota": cfg.quota,
        "rate": cfg.rate,
        "weight": cfg.weight,
        "priority": cfg.priority,
    }
    return snap


def snapshot_lost(snap: Mapping[str, object]) -> int:
    """Requests unaccounted for in one tenant ledger (0 unless buggy)."""
    return int(snap.get("submitted", 0)) - int(snap.get("admitted", 0)) - int(  # type: ignore[call-overload]
        snap.get("rejected", 0)  # type: ignore[arg-type]
    )


def merge_tenant_snapshots(
    slices: List[Mapping[str, Mapping[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Fold per-process ``{tenant: snapshot}`` slices into cluster-wide ones."""
    merged: Dict[str, Dict[str, object]] = {}
    waits: Dict[str, List[Mapping[str, object]]] = {}
    for tenant_slice in slices:
        for name, snap in tenant_slice.items():
            bucket = merged.get(name)
            if bucket is None:
                bucket = merged[name] = {
                    **{key: 0 for key in COUNTER_KEYS},
                    **{key: 0 for key in GAUGE_KEYS},
                    "rejected_by": {},
                    "busy_s": 0.0,
                }
                waits[name] = []
            for key in COUNTER_KEYS + GAUGE_KEYS:
                value = snap.get(key, 0)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    bucket[key] += int(value)  # type: ignore[operator]
            rejected_by = snap.get("rejected_by")
            if isinstance(rejected_by, Mapping):
                codes: Dict[str, int] = bucket["rejected_by"]  # type: ignore[assignment]
                for code, n in rejected_by.items():
                    codes[code] = codes.get(code, 0) + int(n)  # type: ignore[arg-type]
            busy = snap.get("busy_s", 0.0)
            if isinstance(busy, (int, float)) and not isinstance(busy, bool):
                bucket["busy_s"] += float(busy)  # type: ignore[operator]
            queue_wait = snap.get("queue_wait")
            if isinstance(queue_wait, Mapping):
                waits[name].append(queue_wait)  # type: ignore[arg-type]
            config = snap.get("config")
            if isinstance(config, Mapping) and "config" not in bucket:
                bucket["config"] = dict(config)
    for name, bucket in merged.items():
        bucket["rejected_by"] = {
            code: bucket["rejected_by"][code]  # type: ignore[index]
            for code in sorted(bucket["rejected_by"])  # type: ignore[arg-type]
        }
        bucket["queue_wait"] = merge_summaries(waits[name])
        bucket["lost"] = snapshot_lost(bucket)
    return {name: merged[name] for name in sorted(merged)}
