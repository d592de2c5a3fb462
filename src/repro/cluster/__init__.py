"""Sharded cluster serving: many ``SolverService`` shards behind one router.

The package turns the single-process serving layer (:mod:`repro.service`)
into horizontally scalable capacity — the ROADMAP's "service horizontal
scale" seam:

* :mod:`repro.cluster.router` — :class:`ClusterRouter`, the asyncio
  front end: content-hash request routing over supervised backend
  shards, retry-on-shard-loss, pinned streaming sessions with
  bit-identical cross-shard handoff, merged cluster stats;
* :mod:`repro.cluster.backend` — shard handles: ``repro serve``
  subprocesses (:class:`ProcessShard`), embedded services
  (:class:`InprocShard`), or already-running remote hosts attached by
  address (:class:`RemoteShard`, health-checked by periodic pings),
  interchangeable behind one interface;
* :mod:`repro.cluster.journal` — :class:`SessionJournal`, the router's
  shadow of every pinned session (run by the shards' own session
  manager) that makes a pinned-shard crash a bit-identical replay onto
  a survivor instead of a lost session;
* :mod:`repro.cluster.routing` — content-addressed routing keys and
  rendezvous hashing (minimal remapping under scaling);
* :mod:`repro.cluster.autoscaler` — :class:`Autoscaler` /
  :class:`AutoscalerPolicy`: queue-depth driven scale up/down with
  hysteresis, graceful drain, and crash supervision;
* :mod:`repro.cluster.config` — :class:`ClusterConfig`;
* :mod:`repro.cluster.stats` — :class:`ClusterStats` merged snapshots.

Quick start (async API, embedded shards)::

    import asyncio
    from repro import Instance
    from repro.cluster import ClusterConfig, ClusterRouter

    async def main():
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
        config = ClusterConfig(shards=2, backend="inproc", workers=1)
        async with ClusterRouter(config) as router:
            payload = await router.solve(inst, "sbo(delta=1.0)")
            print(payload["cmax"], payload["mmax"])

    asyncio.run(main())

``repro cluster --shards 4 --port 8373`` serves the same thing over TCP
with real ``repro serve`` subprocess shards — the wire protocol is
byte-compatible with a single ``repro serve``, so every existing client
works unchanged.
"""

from __future__ import annotations

from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.backend import (
    InprocShard,
    ProcessShard,
    RemoteShard,
    ShardHandle,
    ShardStartError,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.journal import SessionJournal
from repro.cluster.router import (
    ClusterError,
    ClusterRouter,
    NoShardAvailableError,
    SessionLostError,
)
from repro.cluster.routing import rank, request_key, route
from repro.cluster.stats import ClusterStats, merge_shard_stats

__all__ = [
    "ClusterRouter",
    "ClusterConfig",
    "ClusterStats",
    "ClusterError",
    "NoShardAvailableError",
    "SessionLostError",
    "Autoscaler",
    "AutoscalerPolicy",
    "ShardHandle",
    "InprocShard",
    "ProcessShard",
    "RemoteShard",
    "SessionJournal",
    "ShardStartError",
    "request_key",
    "route",
    "rank",
    "merge_shard_stats",
]
