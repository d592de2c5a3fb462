"""Cluster-wide observability: one merged snapshot over every shard.

:func:`merge_shard_stats` folds the per-shard ``stats`` op payloads into
a single :class:`ClusterStats`: counters and gauges are summed, the
``lost`` ledgers are summed (zero on every shard ⇒ zero cluster-wide),
and the per-solver-family and per-phase latency summaries are merged
*exactly*: every shard summary carries its fixed-boundary histogram
``buckets`` and ``sum``, so the merge adds buckets, sums and counts,
takes the max of the maxima, and re-summarizes
(:func:`repro.obs.metrics.merge_summaries`).  The merged summary is the
summary of the concatenated samples of every shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.obs.metrics import merge_summaries
from repro.qos.stats import merge_tenant_snapshots

__all__ = ["ClusterStats", "merge_shard_stats"]

#: Shard counters/gauges that sum into the cluster view.  ``lost`` is
#: derived on each shard and sums like a counter: zero everywhere ⇒ zero.
_SUMMED_KEYS = (
    "submitted", "completed", "failed", "rejected", "timed_out", "cancelled",
    "coalesced", "abandoned", "cache_hits", "cache_misses", "inline",
    "queue_depth", "in_flight", "pending", "lost",
    "sessions_open", "sessions_opened", "sessions_closed", "sessions_expired",
    "sessions_rejected", "sessions_restored", "session_tasks",
    "latency_count",
)

@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time snapshot of a whole cluster.

    ``totals`` sums every shard counter and gauge (see the shard-level
    :class:`~repro.service.stats.ServiceStats` for their semantics);
    ``families`` is the exact merge of the per-family latency summaries;
    ``phases`` does the same merge per lifecycle phase
    (``queue_wait`` / ``exec``, the split the QoS benchmark bounds);
    ``tenants`` is the cluster-wide per-tenant QoS ledger — the router's
    own admission controller slice merged with any per-shard slices via
    :func:`repro.qos.stats.merge_tenant_snapshots` (empty with QoS off);
    ``shards`` maps shard name to its raw stats payload;
    ``router`` carries the router's own ledger: ``routed`` solve routing
    decisions, each ending in exactly one of ``completed`` (a shard
    response relayed), ``retried`` (transport-failure re-route), or
    ``lost`` (no shard / retry budget exhausted) — so
    ``routed == completed + retried + lost`` at every quiescent point;
    ``router_cache_hits``/``router_cache_misses`` for the router's own
    read-through solve tier (a hit makes no routing decision);
    ``handoffs`` completed session migrations and ``handoff_failures``;
    ``sessions_lost`` unrecoverable pinned sessions,
    ``sessions_replayed`` crash failovers replayed bit-identically from
    the arrival journal, ``replays_failed`` failovers the journal could
    not deliver; ``probes``/``probe_failures`` remote health probes;
    ``sessions_pinned``/``sessions_journaled`` the live pin/journal
    table sizes; ``shards_alive``/``shards_draining`` the instantaneous
    shard-set gauges; and the cumulative ``shards_started``
    / ``shards_attached`` / ``shards_retired`` / ``shards_lost``
    lifecycle counters.
    """

    totals: Dict[str, int] = field(default_factory=dict)
    families: Dict[str, Dict[str, object]] = field(default_factory=dict)
    phases: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    shards: Dict[str, Dict[str, object]] = field(default_factory=dict)
    router: Dict[str, int] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Sum of the shard ``lost`` ledgers (nonzero indicates a bug)."""
        return int(self.totals.get("lost", 0))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the cluster ``stats`` op payload)."""
        return {
            "cluster": True,
            "totals": dict(self.totals),
            "families": {k: dict(v) for k, v in self.families.items()},
            "phases": {phase: {k: dict(v) for k, v in families.items()}
                       for phase, families in self.phases.items()},
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "router": dict(self.router),
            "shards": {k: dict(v) for k, v in self.shards.items()},
        }


def _merge_breakdowns(
    breakdowns: List[Mapping[str, Mapping[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Exact per-family merge of per-shard latency summaries."""
    summaries: Dict[str, List[Mapping[str, object]]] = {}
    for breakdown in breakdowns:
        for family, summary in breakdown.items():
            summaries.setdefault(family, []).append(summary)
    return {family: merge_summaries(summaries[family]) for family in sorted(summaries)}


def merge_shard_stats(
    shard_payloads: Mapping[str, Mapping[str, object]],
    router: Mapping[str, int],
    tenants: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> ClusterStats:
    """Fold per-shard ``stats`` payloads + the router ledger into one view.

    ``tenants`` is the router's own admission-controller snapshot (QoS is
    enforced at the router, so this is normally the authoritative slice);
    any per-shard ``tenants`` slices are merged in on top, so a topology
    that does run QoS on its shards still adds up.
    """
    totals: Dict[str, int] = {key: 0 for key in _SUMMED_KEYS}
    breakdowns: List[Mapping[str, Mapping[str, object]]] = []
    phase_breakdowns: Dict[str, List[Mapping[str, Mapping[str, object]]]] = {}
    tenant_slices: List[Mapping[str, Mapping[str, object]]] = []
    if tenants:
        tenant_slices.append(tenants)
    for payload in shard_payloads.values():
        for key in _SUMMED_KEYS:
            value = payload.get(key, 0)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] += int(value)
        families = payload.get("families")
        if isinstance(families, Mapping):
            breakdowns.append(families)  # type: ignore[arg-type]
        phases = payload.get("phases")
        if isinstance(phases, Mapping):
            for phase, breakdown in phases.items():
                if isinstance(breakdown, Mapping):
                    phase_breakdowns.setdefault(str(phase), []).append(breakdown)
        tenant_slice = payload.get("tenants")
        if isinstance(tenant_slice, Mapping) and tenant_slice:
            tenant_slices.append(tenant_slice)  # type: ignore[arg-type]
    return ClusterStats(
        totals=totals,
        families=_merge_breakdowns(breakdowns),
        phases={phase: _merge_breakdowns(phase_breakdowns[phase])
                for phase in sorted(phase_breakdowns)},
        tenants=merge_tenant_snapshots(tenant_slices),
        shards={name: dict(payload) for name, payload in shard_payloads.items()},
        router=dict(router),
    )
