"""Configuration of the sharded cluster layer (:class:`ClusterConfig`).

One frozen dataclass holds every tunable of a
:class:`~repro.cluster.router.ClusterRouter` and its
:class:`~repro.cluster.autoscaler.Autoscaler`: the initial / minimum /
maximum backend shard counts, the queue-depth scaling thresholds with
their hysteresis, the graceful-drain budget, the backend kind
(``"process"`` spawns real ``repro serve`` subprocesses; ``"inproc"``
embeds :class:`~repro.service.SolverService` instances in the router's
loop — cheap and deterministic for tests), and the per-shard
:class:`~repro.service.ServiceConfig` knobs every backend is started
with.  ``cache`` names the read-through tier; process backends require
a directory — an in-memory cache cannot span processes.  Each spawned
shard gets its **own** subdirectory of it, matching the multi-host
reality that attached :class:`~repro.cluster.backend.RemoteShard` hosts
never share a filesystem; cross-shard reuse comes from rendezvous
routing affinity plus the router's own cache tier (``router_cache``),
not from shared storage.  ``attach`` lists remote ``host:port`` shards joined at start,
health-checked every ``probe_interval`` seconds and declared dead after
``probe_failures`` consecutive failed probes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

__all__ = ["ClusterConfig", "BACKEND_KINDS"]

#: Accepted ``backend`` values: ``"process"`` spawns one ``repro serve``
#: subprocess per shard (the production shape); ``"inproc"`` embeds the
#: backend services in the router's own event loop (tests, quickstarts).
BACKEND_KINDS = ("process", "inproc")


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of a :class:`~repro.cluster.router.ClusterRouter`.

    Attributes
    ----------
    shards:
        Initial number of *local* backend shards started with the router
        (``0`` is allowed when ``attach`` supplies the capacity).
    attach:
        Remote shards to attach at start — ``host:port`` addresses of
        already-running ``repro serve`` instances, joined as
        :class:`~repro.cluster.backend.RemoteShard` handles.  Attached
        shards count toward ``min_shards``/``max_shards`` but are never
        spawned, retired, or shut down by the router.
    probe_interval / probe_failures:
        Remote health checking: every ``probe_interval`` seconds the
        router pings each attached shard; ``probe_failures`` consecutive
        failures mark it dead (reaped through the usual dead-shard path,
        journaled sessions replayed onto survivors).
    min_shards / max_shards:
        Bounds the autoscaler (and manual scaling) must respect.
    backend:
        ``"process"`` or ``"inproc"`` — see :data:`BACKEND_KINDS`.
    workers:
        Worker processes *per shard* (each shard is a full
        :class:`~repro.service.SolverService` with its own pool).
    max_pending / backpressure / default_timeout:
        Forwarded into every shard's :class:`~repro.service.ServiceConfig`
        (:meth:`shard_service_config`), which is built once at
        construction so a bad shard setting fails here, before any shard
        is spawned.
    cache:
        Read-through cache: a directory path (required for process
        backends) or a cache object (inproc backends only).
        ``None``/``False`` disables the tier.  Each spawned process shard
        uses its own subdirectory of the directory, so no shard ever
        assumes another host's filesystem; inproc backends share the
        in-memory cache object (one process *is* one host).
    router_cache:
        Capacity (entries) of the router's own read-through response
        tier (:class:`~repro.service.tier.ResponseTier`), consulted
        before routing; ``0`` disables it.  The tier's summed-assignment
        budget (:data:`~repro.service.tier.TIER_TASKS`) applies too.  With
        per-host caches this tier plus rendezvous affinity is what makes
        a repeated request cheap no matter which client asks.
    max_sessions / session_ttl:
        Per-shard streaming-session bounds (the cluster-wide session
        capacity is the sum over shards).  Each session takes
        :class:`~repro.service.ServiceConfig`'s default task bound, on
        every backend and in the router's journal.
    auto_timeouts:
        Enable latency-derived per-family timeouts on every shard.
    scale_up_at:
        Average ``queue_depth`` per shard at/above which the autoscaler
        votes to add a shard.
    scale_down_at:
        Average ``queue_depth`` per shard at/below which it votes to
        retire one.
    scale_interval:
        Seconds between autoscaler observations.
    hysteresis:
        Consecutive same-direction votes required before acting — keeps
        one bursty poll from flapping the shard set.
    drain_timeout:
        Seconds a retiring shard gets to finish its in-flight jobs
        before it is shut down regardless.
    trace:
        Enable span recording (:mod:`repro.obs.trace`) in the router's
        process at start and in every *inproc* shard (process shards are
        spawned with ``--trace`` by the backend when set).  Off by
        default — the wire stays byte-identical.
    tenants / default_tenant:
        Multi-tenant QoS (:mod:`repro.qos`), enforced **at the router**:
        one cluster-wide admission controller whose slot capacity is
        ``routable shards x max_pending`` (tracking shard churn), so
        quotas and fair shares hold over the whole cluster, not per
        shard.  Shards are started *without* tenants — a request the
        router admitted is never second-guessed by a backend.  Semantics
        of the two knobs match :class:`~repro.service.ServiceConfig`.
    """

    shards: int = 2
    min_shards: int = 1
    max_shards: int = 8
    attach: Sequence[str] = ()
    probe_interval: float = 2.0
    probe_failures: int = 3
    backend: str = "process"
    workers: int = 1
    max_pending: int = 64
    backpressure: str = "wait"
    default_timeout: Optional[float] = None
    cache: object = None
    router_cache: int = 2048
    max_sessions: int = 64
    session_ttl: Optional[float] = 300.0
    auto_timeouts: bool = False
    scale_up_at: float = 8.0
    scale_down_at: float = 1.0
    scale_interval: float = 2.0
    hysteresis: int = 3
    drain_timeout: float = 30.0
    trace: bool = False
    tenants: object = None
    default_tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        object.__setattr__(self, "attach", self._normalized_attach())
        if self.shards < 0 or (self.shards == 0 and not self.attach):
            raise ValueError(
                f"shards ({self.shards}) must be >= 1 "
                f"(0 is allowed only with attached remote shards)"
            )
        initial = self.shards + len(self.attach)
        if not self.min_shards <= initial <= self.max_shards:
            raise ValueError(
                f"shards ({self.shards}) plus attached ({len(self.attach)}) "
                f"must lie in [min_shards={self.min_shards}, "
                f"max_shards={self.max_shards}]"
            )
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"backend must be one of {BACKEND_KINDS}, got {self.backend!r}"
            )
        if self.scale_up_at <= self.scale_down_at:
            raise ValueError(
                f"scale_up_at ({self.scale_up_at}) must be > scale_down_at "
                f"({self.scale_down_at}) — equal thresholds flap"
            )
        if self.scale_interval <= 0:
            raise ValueError(f"scale_interval must be > 0, got {self.scale_interval}")
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")
        if self.drain_timeout <= 0:
            raise ValueError(f"drain_timeout must be > 0, got {self.drain_timeout}")
        if self.probe_interval <= 0:
            raise ValueError(
                f"probe_interval must be > 0, got {self.probe_interval}"
            )
        if self.probe_failures < 1:
            raise ValueError(
                f"probe_failures must be >= 1, got {self.probe_failures}"
            )
        if self.router_cache < 0:
            raise ValueError(
                f"router_cache must be >= 0, got {self.router_cache}"
            )
        # The shard settings are ServiceConfig's: let its own checks run.
        self.shard_service_config()
        # Same normalization as ServiceConfig: the tenants source (path /
        # mapping / registry) becomes a validated registry at construction.
        from repro.qos.tenants import load_tenants

        object.__setattr__(
            self, "tenants", load_tenants(self.tenants, default=self.default_tenant)
        )
        if self.tenants is not None:
            object.__setattr__(self, "default_tenant", self.tenants.default)

    def _normalized_attach(self) -> Tuple[str, ...]:
        """``attach`` as a validated tuple of ``host:port`` strings."""
        source = self.attach
        if isinstance(source, str):
            source = (source,)
        addresses = []
        for entry in source or ():
            address = str(entry).strip()
            host, sep, port = address.rpartition(":")
            if not sep or not host or not port.isdigit() or not 0 < int(port) < 65536:
                raise ValueError(
                    f"attach entry {entry!r} is not a host:port address"
                )
            addresses.append(f"{host}:{int(port)}")
        return tuple(addresses)

    def with_overrides(self, **overrides: object) -> "ClusterConfig":
        """A copy of this config with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def shard_service_config(self):
        """The :class:`~repro.service.ServiceConfig` every shard starts with."""
        from repro.service import ServiceConfig

        return ServiceConfig(
            workers=self.workers,
            max_pending=self.max_pending,
            backpressure=self.backpressure,
            default_timeout=self.default_timeout,
            # Identity tests, not truthiness: an empty cache object is
            # falsy (it has a length) but still a cache.
            cache=False if self.cache is None or self.cache is False else self.cache,
            auto_timeouts=self.auto_timeouts,
            max_sessions=self.max_sessions,
            session_ttl=self.session_ttl,
            trace=self.trace,
        )
