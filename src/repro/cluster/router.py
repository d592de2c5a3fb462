"""``ClusterRouter`` — the asyncio front end of a sharded solver cluster.

The router owns N backend shards (each a full
:class:`~repro.service.SolverService`, usually a ``repro serve``
subprocess) and presents them as **one** service speaking the exact wire
protocol of :mod:`repro.service.protocol` — a client cannot tell a
cluster from a single process, except that it scales.

Request paths:

* ``solve`` — routed by **content hash**: the request's routing key
  (:func:`~repro.cluster.routing.request_key`) is rendezvous-hashed over
  the live shard set, so identical requests always land on the same
  shard and PR 3's in-flight coalescing keeps working cluster-wide.  A
  transport failure (the shard died mid-request) marks the shard dead
  and retries on the next-ranked survivor — solvers are deterministic
  and results content-addressed, so a retry can never produce a
  different answer, and every client receives exactly one response.
* ``session_*`` — streaming sessions are **pinned**: opened on the
  least-loaded shard and addressed through a router-issued session id
  (``csess-N``) mapped to the backend's own id, so ids never collide
  across shards.  Per-session ops are serialized through a lock, which
  is what makes :meth:`session_handoff` safe: export the ledger from the
  source shard, restore-by-verified-replay on the target, repin, close
  the source copy — submissions queued during the migration simply land
  on the new shard, bit-identically.  When a pinned shard dies *without*
  a handoff, the router's journal
  (:class:`~repro.cluster.journal.SessionJournal`) holds a shadow of the
  session: the next op — or the dead-shard reaper — replays it onto a
  survivor through the same verified ``session_restore`` path, so a
  crash is a repin, not a loss.  Only when the shadow diverged, or no
  survivor takes the replay, does the session die with its shard,
  surfaced as :class:`SessionLostError` with the stable ``error.code``
  ``session_lost``.
* ``stats`` — fanned out and merged (:mod:`repro.cluster.stats`),
  counters summed and family latency histograms merged exactly,
  plus the router's own ledger (routed / retried / handoffs / shard
  lifecycle / journal replays / remote probes).

**Cache affinity invariant.**  Shards do *not* share cache storage: by
default every spawned shard gets its own cache subdirectory, and an
attached :class:`~repro.cluster.backend.RemoteShard` is on another host
entirely.  Cross-shard reuse is a property of *routing*, not storage —
``request_key`` rendezvous-hashes identical solve requests to the same
shard, so each key's repeats land where its result is already cached;
on top of that the router keeps its own bounded response tier
(``ClusterConfig.router_cache``), which keeps repeats warm even across
shard churn (a key remapped by a crash finds its result at the router
without recomputing).  The router is a
:class:`~repro.service.server.FrontEnd` like a service: a ``solve``
runs the shared :func:`~repro.service.server.tier_stage` first, so a
repeat is answered from the tier before admission and routing, ledgered
slot-free (:meth:`ClusterRouter.count_tier_hit`), and its next repeat
on a connection from its raw bytes.  The one invariant to
preserve when changing routing: *a given key must map to one routable
shard at a time* — rendezvous hashing guarantees it for any live set.

Attached remote shards are health-checked by a periodic ``ping`` probe
(``probe_interval``); after ``probe_failures`` consecutive failures the
remote is reaped through the same dead-shard path as a crashed local
subprocess, and its journaled sessions replay onto survivors.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cluster.backend import (
    InprocShard,
    ProcessShard,
    RemoteShard,
    ShardHandle,
    ShardStartError,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.journal import SessionJournal
from repro.cluster.routing import rank
from repro.cluster.stats import ClusterStats, merge_shard_stats
from repro.obs.logging import log_event
from repro.obs.trace import (
    RECORDER,
    enable_tracing,
    new_span_id,
    new_trace_id,
    parse_wire_trace,
    wire_trace,
)
from repro.qos.admission import AdmissionController
from repro.qos.tenants import CLASS_URGENCY
from repro.service.config import ServiceConfig
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError, solve_request
from repro.service.server import (
    Miss, _ack_field, _metrics_response, _session_id, _shutdown, _submit_tasks,
    _tenant_field, _timeout_field, _trace_fields, _trace_response, dispatch, tier_stage,
)
from repro.service.sessions import UnknownSessionError
from repro.service.tier import ResponseTier, TierEntry

__all__ = [
    "ClusterRouter",
    "ClusterError",
    "NoShardAvailableError",
    "SessionLostError",
]

#: Closed-session tombstones kept for typed errors; oldest evicted first.
_LOST_SESSION_TOMBSTONES = 4096


class ClusterError(RuntimeError):
    """Base class of cluster-layer errors."""


class NoShardAvailableError(ClusterError):
    """Every shard is dead or draining; the request cannot be placed."""


class SessionLostError(ClusterError):
    """A pinned session died with its shard and could not be replayed.

    Carries the stable wire code ``session_lost`` (``error.code``), so
    clients can distinguish "reopen and resubmit" from a mere unknown
    session id.  Raised only when the session's journal diverged or no
    survivor took its replay — otherwise a crash is a transparent replay.
    """

    code = "session_lost"


class ClusterRouter:
    """Route requests across supervised :class:`~repro.service.SolverService` shards.

    Use as an async context manager::

        config = ClusterConfig(shards=4, backend="process", cache="/tmp/cache")
        async with ClusterRouter(config) as router:
            payload = await router.solve(instance, "sbo(delta=1.0)")

    or serve the wire protocol with ``serve_tcp(router)``
    (:func:`repro.service.server.serve_tcp`) — that is exactly what
    ``repro cluster`` does.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides: object) -> None:
        if config is None:
            config = ClusterConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self._started = False
        self._closed = False
        self._shards: Dict[str, ShardHandle] = {}
        self._shard_seq = itertools.count(1)
        self._sessions: Dict[str, Tuple[str, str]] = {}
        self._session_locks: Dict[str, asyncio.Lock] = {}
        #: Last router-side activity per pin (monotonic seconds) — drives the
        #: lazy pin sweep so abandoned sessions cannot leak pins forever.
        self._session_touch: Dict[str, float] = {}
        self._session_seq = itertools.count(1)
        # Per-counter balance invariant: every routing *decision* increments
        # ``routed`` and ends in exactly one of ``completed`` (a shard
        # response was relayed), ``retried`` (transport failure, the request
        # re-decides), or ``lost`` (no live shard left to try), so
        # ``routed == completed + retried + lost`` holds at every quiescent
        # point.
        self._counters: Dict[str, int] = {
            name: 0
            for name in ("routed", "completed", "retried", "lost",
                         "handoffs", "handoff_failures",
                         "shards_started", "shards_attached",
                         "shards_retired", "shards_lost",
                         "sessions_lost", "sessions_replayed", "replays_failed",
                         "probes", "probe_failures",
                         "router_cache_hits", "router_cache_misses")
        }
        #: Shadow sessions for crash-safe session failover.
        self._journal = SessionJournal(ServiceConfig.max_session_tasks)
        #: Why a session id no longer routes (bounded FIFO of tombstones):
        #: lets a later op on a lost session fail with the typed
        #: ``session_lost`` code instead of a generic unknown-session error.
        self._lost_sessions: "OrderedDict[str, str]" = OrderedDict()
        #: The router's own response tier over request_key (``None`` when
        #: ``router_cache`` is 0): it admits every ok solve response.
        self.response_tier: Optional[ResponseTier] = (
            ResponseTier(config.router_cache) if config.router_cache > 0 else None
        )
        self._probe_task: Optional["asyncio.Task"] = None
        #: Cluster-wide QoS admission (``None`` when no tenants configured).
        #: Enforcement lives here, not on the shards: one controller whose
        #: slot capacity tracks ``routable shards x max_pending``, so quotas
        #: and weighted fair shares hold over the whole cluster.
        self._qos: Optional[AdmissionController] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ClusterRouter":
        """Spawn the initial shard set (idempotent)."""
        if self._closed:
            raise ClusterError("cluster already closed; create a new router")
        if self._started:
            return self
        if self.config.backend == "process" and self.config.cache not in (None, False):
            if not isinstance(self.config.cache, (str, Path)):
                raise TypeError(
                    "process backends need a cache *directory* (a path) — an "
                    "in-memory cache object cannot be shared across processes"
                )
        if self.config.trace:
            enable_tracing()
        self._started = True
        try:
            await asyncio.gather(*(self.add_shard() for _ in range(self.config.shards)))
            for address in self.config.attach:
                await self.attach_shard(address)
        except ShardStartError:
            await self.close()
            raise
        if self.config.tenants is not None:
            self._qos = AdmissionController(
                self.config.tenants, capacity=self._qos_capacity()
            )
        return self

    async def close(self) -> None:
        """Retire every shard (graceful stop) and drop the session pins."""
        if self._closed:
            return
        self._closed = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        shards = list(self._shards.values())
        self._shards.clear()
        self._sessions.clear()
        self._session_locks.clear()
        self._session_touch.clear()
        if shards:
            await asyncio.gather(*(shard.stop() for shard in shards),
                                 return_exceptions=True)

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def is_running(self) -> bool:
        return self._started and not self._closed

    # ------------------------------------------------------------------ #
    # shard-set management
    # ------------------------------------------------------------------ #
    def shard_names(self, include_draining: bool = True) -> List[str]:
        """Names of the live shards (sorted; optionally minus draining ones)."""
        return sorted(
            name for name, shard in self._shards.items()
            if shard.alive and (include_draining or not shard.draining)
        )

    def _routable(self) -> List[str]:
        return self.shard_names(include_draining=False)

    def shard(self, name: str) -> ShardHandle:
        """The handle of one shard (tests and drills poke it)."""
        return self._shards[name]

    def _qos_capacity(self) -> int:
        """Cluster admission slots: routable shards x per-shard max_pending."""
        return max(1, len(self._routable())) * self.config.max_pending

    def _update_qos_capacity(self) -> None:
        """Retarget the admission queue after any shard-set change.

        Growth dispatches queued waiters immediately; shrink drains as
        in-flight requests release their slots — admitted work is never
        revoked by a scale-down or a crash.
        """
        if self._qos is not None:
            self._qos.set_capacity(self._qos_capacity())

    def _make_shard(self, name: str) -> ShardHandle:
        config = self.config
        service_config = config.shard_service_config()
        if config.backend == "inproc":
            # One process is one host: inproc shards legitimately share the
            # in-memory cache object.
            return InprocShard(name, service_config)
        if service_config.cache is not False:
            # Every shard owns its directory — the layout a remote host
            # forces anyway, kept uniform for local spawns so no code
            # path ever assumes cross-shard cache storage.
            service_config = service_config.with_overrides(
                cache=str(Path(str(config.cache)) / name)
            )
        return ProcessShard(name, service_config, stop_timeout=config.drain_timeout)

    async def add_shard(self) -> ShardHandle:
        """Start one more shard (the scale-up primitive).

        Raises :class:`ClusterError` at ``max_shards``,
        :class:`~repro.cluster.backend.ShardStartError` when the backend
        fails to come up.  The new shard immediately joins the routing
        ring; rendezvous hashing remaps only ~1/n of the keyspace to it.
        """
        if not self._started or self._closed:
            raise ClusterError("cluster is not running")
        if len(self.shard_names()) >= self.config.max_shards:
            raise ClusterError(
                f"cluster is at max_shards ({self.config.max_shards})"
            )
        name = f"shard-{next(self._shard_seq)}"
        shard = self._make_shard(name)
        await shard.start()
        self._shards[name] = shard
        self._counters["shards_started"] += 1
        self._update_qos_capacity()
        return shard

    async def attach_shard(self, address: str) -> ShardHandle:
        """Attach an already-running ``repro serve`` at ``host:port``.

        The remote joins the routing ring like any shard, but the router
        does not own its process: detaching severs the connection, the
        autoscaler never retires it to scale down, and its liveness is
        established by the periodic probe loop (started here on first
        attach) rather than a subprocess returncode.
        """
        if not self._started or self._closed:
            raise ClusterError("cluster is not running")
        if len(self.shard_names()) >= self.config.max_shards:
            raise ClusterError(
                f"cluster is at max_shards ({self.config.max_shards})"
            )
        name = f"remote-{next(self._shard_seq)}"
        shard = RemoteShard.parse(name, address)
        await shard.start()
        self._shards[name] = shard
        self._counters["shards_attached"] += 1
        self._update_qos_capacity()
        self._ensure_probe_task()
        return shard

    def _ensure_probe_task(self) -> None:
        if self._probe_task is None or self._probe_task.done():
            self._probe_task = asyncio.get_running_loop().create_task(
                self._probe_loop()
            )

    async def _probe_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.config.probe_interval)
            await self.probe_remotes()

    async def probe_remotes(self) -> int:
        """One probe round over the attached remotes; returns failures seen.

        Probe state machine, per remote: every success resets its failure
        streak; every failure (timeout or transport loss) increments it;
        at ``config.probe_failures`` consecutive failures the remote is
        reaped through :meth:`_mark_dead` — the same path a crashed local
        subprocess takes — and any sessions pinned to it are replayed
        from the journal (or surfaced lost) by :meth:`_recover_orphans`.
        """
        failures = 0
        for shard in list(self._shards.values()):
            if not isinstance(shard, RemoteShard) or not shard.alive:
                continue
            self._counters["probes"] += 1
            try:
                await shard.probe(timeout=self.config.probe_interval)
            except ConnectionError:
                failures += 1
                self._counters["probe_failures"] += 1
                if shard.probe_failures >= self.config.probe_failures:
                    await self._mark_dead(shard)
        await self._recover_orphans()
        return failures

    async def remove_shard(self, name: str, drain: bool = True) -> None:
        """Gracefully retire one shard (the scale-down primitive).

        The shard is excluded from new routing first, its pinned
        sessions are handed off to surviving shards, then it drains —
        in-flight jobs finish and their results land in the shared cache
        (salvaged, not lost) — and finally it is stopped.  ``drain=False``
        skips the handoff/drain (the supervision path for a shard that
        is already dead).
        """
        shard = self._shards.get(name)
        if shard is None:
            raise ClusterError(f"unknown shard {name!r}")
        if drain and len(self._routable()) <= 1:
            raise ClusterError("refusing to retire the last routable shard")
        shard.draining = True
        if drain and shard.alive:
            for router_sid, (pin, _backend_sid) in list(self._sessions.items()):
                if pin != name:
                    continue
                try:
                    handed = (await self.session_handoff(router_sid)).get("ok")
                except (ClusterError, UnknownSessionError):
                    handed = False
                if not handed:
                    self._counters["handoff_failures"] += 1
                    # The shard is going away regardless, so a pin that
                    # survived a failed handoff would point at a name that
                    # no longer exists — the next op would hit an unknown
                    # shard instead of a typed error.  Fail the session
                    # over now: journal replay onto a survivor when
                    # possible, an accounted ``session_lost`` otherwise.
                    if (self._sessions.get(router_sid) or (None,))[0] == name:
                        await self._failover_session(
                            router_sid, exclude=name,
                            reason=f"handoff failed while shard {name} retired",
                        )
            try:
                await shard.request({"op": "drain", "timeout": self.config.drain_timeout})
            except (ConnectionError, OSError):
                pass
        if self._shards.get(name) is shard:
            # Identity-checked pop: supervision (`reap_dead`/`_mark_dead`)
            # may have reaped this very shard — or replaced the name —
            # while the drain above awaited; popping blindly would drop
            # the replacement or double-count the loss.
            self._shards.pop(name)
            self._update_qos_capacity()
            if shard.alive:
                await shard.stop()
                self._counters["shards_retired"] += 1
            else:
                await shard.kill()
                self._counters["shards_lost"] += 1
        else:
            await shard.kill()

    async def _mark_dead(self, shard: ShardHandle) -> None:
        """Reap a shard observed dead mid-request (the failure path)."""
        if self._shards.get(shard.name) is shard:
            del self._shards[shard.name]
            self._counters["shards_lost"] += 1
            self._update_qos_capacity()
            log_event("shard_dead", shard=shard.name,
                      remaining=len(self._routable()))
        await shard.kill()

    async def reap_dead(self) -> int:
        """Drop shards whose backend died silently; returns how many.

        Also the scheduled recovery point for sessions orphaned by any
        earlier :meth:`_mark_dead` (which deliberately leaves pins alone:
        its callers may hold session locks).
        """
        dead = [shard for shard in self._shards.values() if not shard.alive]
        for shard in dead:
            await self._mark_dead(shard)
        await self._recover_orphans()
        return len(dead)

    # ------------------------------------------------------------------ #
    # the wire front end
    # ------------------------------------------------------------------ #
    async def handle(self, request: Dict[str, object]) -> Optional[Mapping[str, object]]:
        """One decoded request in, one response payload (or ``None``) out.

        The :class:`~repro.service.server.FrontEnd` entry point, so
        ``serve_tcp(router)`` serves the whole cluster.  Dispatches through
        the router's op table (:data:`_OPS`) with the service's own
        :func:`~repro.service.server.dispatch`, so both front ends check
        ops and answer errors the same way.
        """
        return await dispatch(self._OPS, self, request)

    def count_tier_hit(
        self, entry: TierEntry, started: float, *, timeout: Optional[float] = None,
        tenant: Optional[str] = None, trace: object = None,
    ) -> None:
        """Ledger one solve the router's tier answered, as a service ledgers a cache hit.

        The tenant passes QoS attribution and its rate limit and is
        admitted slot-free (``cache_hits``); no shard is asked, so no
        routing decision is counted.  ``timeout`` was validated by the
        tier stage and has nothing left to bound.
        """
        if self._qos is not None:
            self._qos.admit_fast(self._qos.begin(tenant), "cache_hits")
        self._counters["router_cache_hits"] += 1
        if RECORDER.enabled:
            # The router is the ingress: adopt the client's trace or mint one.
            tctx = parse_wire_trace(trace) or (new_trace_id(), None)
            RECORDER.record(
                "cache_consult", "router", tctx[0], new_span_id(), tctx[1],
                started, time.perf_counter() - started, hit=True,
            )

    async def _handoff_op(self, request: Dict[str, object]) -> Dict[str, object]:
        session_id = _session_id(request)
        target = request.get("target")
        if target is not None and not isinstance(target, str):
            raise ProtocolError("'target' must be a shard name string")
        outcome = await self.session_handoff(session_id, target)
        outcome["id"] = request.get("id")
        return outcome

    async def _stats_op(self, request: Dict[str, object]) -> Dict[str, object]:
        stats = await self.stats()
        return {"id": request.get("id"), "ok": True, "stats": stats.to_dict()}

    async def _metrics_op(self, request: Dict[str, object]) -> Dict[str, object]:
        stats = await self.stats()
        return _metrics_response(request, stats.to_dict())

    async def _ping_op(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"id": request.get("id"), "ok": True, "pong": True,
                "protocol": PROTOCOL_VERSION, "cluster": True,
                "shards": len(self._routable())}

    async def _drain_op(self, request: Dict[str, object]) -> Dict[str, object]:
        drained, pending = await self.drain(timeout=_timeout_field(request))
        return {"id": request.get("id"), "ok": True,
                "drained": drained, "pending": pending}

    # ------------------------------------------------------------------ #
    # solve routing
    # ------------------------------------------------------------------ #
    async def _admit_solve(self, request: Dict[str, object]) -> Mapping[str, object]:
        """The router's ``solve`` op: :func:`~repro.service.server.tier_stage`,
        then QoS admission and routing on a miss.

        With no tenants configured a miss is :meth:`_forward_solve`.
        Otherwise it passes the cluster-wide admission controller first —
        rate limiter, quota, then a weighted-fair slot — and its outcome
        (completed / failed / abandoned) is ledgered against the tenant,
        keeping per-tenant ``admitted + rejected == submitted``.
        """
        miss = await tier_stage(self, request)
        if not isinstance(miss, Miss):
            return miss
        key = await miss.digest(request)
        if self._qos is None:
            return await self._forward_solve(request, key)
        cfg = self._qos.begin(miss.tenant)
        await self._qos.acquire_slot(
            cfg, reject_on_full=self.config.backpressure == "reject"
        )
        self._qos.job_admitted(cfg)
        outcome = "abandoned"
        try:
            response = await self._forward_solve(request, key)
            outcome = "completed" if response.get("ok") else "failed"
        except NoShardAvailableError:
            outcome = "failed"  # a routing failure, like a relayed error
            raise
        finally:
            self._qos.release_slot(cfg)
            self._qos.finish(cfg, outcome)
        return response

    async def _forward_solve(self, request: Dict[str, object], key: str) -> Mapping[str, object]:
        # Trace context: adopt the client's when the request carries one,
        # otherwise — the router being the ingress — mint a fresh trace id.
        # One ``RECORDER.enabled`` check is the whole disabled-path cost;
        # with recording off an incoming trace field still propagates to
        # the shard untouched (it is part of ``inner``).
        tctx: Optional[Tuple[str, Optional[str]]] = None
        if RECORDER.enabled:
            tctx = parse_wire_trace(request.get("trace")) or (new_trace_id(), None)
            RECORDER.record(  # the tier stage missed (a hit never gets here)
                "cache_consult", "router", tctx[0], new_span_id(), tctx[1],
                time.perf_counter(), 0.0, hit=False,
            )
        if self.response_tier is not None:
            self._counters["router_cache_misses"] += 1
        inner = dict(request)
        inner.pop("id", None)
        tried: set = set()
        while True:
            # One loop iteration == one routing decision; it ends in exactly
            # one of completed / retried / lost (see the counter invariant).
            self._counters["routed"] += 1
            order = [name for name in rank(key, self._routable()) if name not in tried]
            if not order:
                self._counters["lost"] += 1
                raise NoShardAvailableError(
                    "no live shard available for this request "
                    f"({len(tried)} tried and lost)"
                )
            name = order[0]
            shard = self._shards[name]
            route_span = ""
            route_at = 0.0
            if tctx is not None:
                # The route span parents everything the shard records for
                # this attempt; a retry gets a fresh span (one span per
                # routing decision, mirroring the counter ledger).
                route_span = new_span_id()
                route_at = time.perf_counter()
                inner["trace"] = wire_trace(tctx[0], route_span)
            try:
                response = await shard.request(inner)
            except (ConnectionError, OSError):
                if tctx is not None:
                    RECORDER.record(
                        "route", "router", tctx[0], route_span, tctx[1],
                        route_at, time.perf_counter() - route_at,
                        shard=name, lost=True,
                    )
                tried.add(name)
                await self._mark_dead(shard)
                self._counters["retried"] += 1
                continue
            if tctx is not None:
                RECORDER.record(
                    "route", "router", tctx[0], route_span, tctx[1],
                    route_at, time.perf_counter() - route_at, shard=name,
                )
            self._counters["completed"] += 1
            # A copy: an in-process shard may answer from its own tier
            # with a spliced response, which is read-only.
            response = dict(response)
            result = response.get("result")
            tier = self.response_tier
            if tier is not None and response.get("ok") and isinstance(result, dict):
                tier.put(key, result)
            response["id"] = request.get("id")
            return response

    async def solve(
        self,
        instance,
        spec: str,
        timeout: Optional[float] = None,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, object]:
        """Solve one instance through the cluster; returns the result payload.

        Mirrors :meth:`repro.service.client.ServiceClient.solve` (the
        payload dict with objectives, guarantee, assignment, provenance),
        raising :class:`ClusterError` with the remote error message on an
        error response.  ``tenant`` attributes the request when QoS is
        configured (ignored otherwise).
        """
        if not self.is_running:
            raise ClusterError("cluster is not running (use 'async with ClusterRouter(...)')")
        request = solve_request(instance, spec, timeout=timeout, params=params,
                                tenant=tenant)
        response = await self.handle(request)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ClusterError(
                f"{error.get('type', 'ClusterError')}: "
                f"{error.get('message', 'request failed')}"
            )
        return response["result"]  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # session routing (pinning + handoff)
    # ------------------------------------------------------------------ #
    def _pinned_count(self, name: str) -> int:
        return sum(1 for pin, _sid in self._sessions.values() if pin == name)

    def _drop_pin(self, router_sid: str) -> None:
        self._sessions.pop(router_sid, None)
        self._session_locks.pop(router_sid, None)
        self._session_touch.pop(router_sid, None)
        self._journal.forget(router_sid)

    def _lose_session(self, router_sid: str, reason: str) -> None:
        """Account one unrecoverable session: free the pin, tombstone the id."""
        self._drop_pin(router_sid)
        log_event("session_lost", session=router_sid, reason=reason)
        self._counters["sessions_lost"] += 1
        self._lost_sessions[router_sid] = reason
        while len(self._lost_sessions) > _LOST_SESSION_TOMBSTONES:
            self._lost_sessions.popitem(last=False)

    def _session_missing(self, router_sid: str) -> Exception:
        """The right error for a session id with no pin (typed when lost)."""
        reason = self._lost_sessions.get(router_sid)
        if reason is not None:
            return SessionLostError(
                f"session {router_sid!r} was lost with its shard ({reason}); "
                f"reopen and resubmit to continue"
            )
        return UnknownSessionError(
            f"unknown session {router_sid!r} (never opened, closed, or "
            f"lost with its shard)"
        )

    def _sweep_pins(self) -> None:
        """Drop pins whose session the backend has certainly expired.

        Backends expire idle sessions after ``session_ttl``; a client that
        disconnected without ``session_close`` would otherwise leak its
        router pin (and lock) forever.  Twice the TTL of *router-side*
        idleness guarantees the backend sweep ran first, so a swept pin can
        never orphan a live backend session.  ``session_ttl=None`` disables
        both sweeps symmetrically.
        """
        ttl = self.config.session_ttl
        if ttl is None or not self._sessions:
            return
        now = time.monotonic()
        stale = [sid for sid, touched in self._session_touch.items()
                 if now - touched > 2.0 * ttl]
        for router_sid in stale:
            self._drop_pin(router_sid)

    def _least_loaded(self, exclude: Optional[str] = None) -> Optional[str]:
        self._sweep_pins()
        candidates = [name for name in self._routable() if name != exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda name: (self._pinned_count(name), name))

    async def _open_session(self, request: Dict[str, object]) -> Dict[str, object]:
        """Open (or restore) a session on the least-loaded shard and pin it.

        Session opens pass the tenant's rate limiter (slot-free admission,
        same contract as the single-service layer: a session's per-placement
        work never occupies an admission slot, so quotas don't apply).
        """
        if self._qos is not None:
            self._qos.admit_fast(self._qos.begin(_tenant_field(request)))
        inner = dict(request)
        inner.pop("id", None)
        while True:
            name = self._least_loaded()
            if name is None:
                raise NoShardAvailableError("no live shard to host the session")
            shard = self._shards[name]
            try:
                response = await shard.request(inner)
            except (ConnectionError, OSError):
                await self._mark_dead(shard)
                continue
            break
        if response.get("ok"):
            backend_sid = str(response.get("session"))
            router_sid = f"csess-{next(self._session_seq)}"
            self._sessions[router_sid] = (name, backend_sid)
            self._session_locks[router_sid] = asyncio.Lock()
            self._session_touch[router_sid] = time.monotonic()
            self._journal.opened(router_sid, request)
            response["session"] = router_sid
            response["shard"] = name
        response["id"] = request.get("id")
        return response

    async def _replay_session(
        self, router_sid: str, exclude: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """Restore a journaled session onto a survivor (caller holds its lock).

        Exports the shadow and drives it through the normal
        ``session_restore`` wire op — the receiving shard verifies the
        replay placement-by-placement, so a successful return means the
        survivor now holds a bit-identical copy of the lost session.
        Returns the restore response, or ``None`` when the session's
        journal diverged or every candidate shard failed.
        """
        export = self._journal.export(router_sid)
        if export is None:
            return None
        tried: set = set()
        while True:
            candidates = [
                name for name in self._routable()
                if name != exclude and name not in tried
            ]
            if not candidates:
                return None
            target_name = min(
                candidates, key=lambda name: (self._pinned_count(name), name)
            )
            shard = self._shards[target_name]
            try:
                restored = await shard.request(
                    {"op": "session_restore", "export": export}
                )
            except (ConnectionError, OSError):
                tried.add(target_name)
                await self._mark_dead(shard)
                continue
            if not restored.get("ok"):
                # The survivor refused the verified replay: the journal is
                # not trustworthy for this session — treat as unreplayable.
                return None
            self._sessions[router_sid] = (target_name, str(restored["session"]))
            self._session_touch[router_sid] = time.monotonic()
            self._counters["sessions_replayed"] += 1
            log_event("session_replayed", session=router_sid, shard=target_name)
            return restored

    async def _failover_pin(
        self, router_sid: str, shard_name: str, reason: Optional[str] = None
    ) -> bool:
        """Replay-or-lose one pinned session (caller holds its lock).

        True when the session now lives on a survivor; False when it was
        lost (pin freed, ``sessions_lost`` counted, id tombstoned).
        """
        if await self._replay_session(router_sid, exclude=shard_name):
            return True
        self._counters["replays_failed"] += 1
        self._lose_session(
            router_sid,
            reason or f"shard {shard_name} died before a handoff",
        )
        return False

    async def _failover_session(
        self, router_sid: str, exclude: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> bool:
        """Lock-acquiring wrapper of :meth:`_failover_pin` (re-checks the pin)."""
        lock = self._session_locks.get(router_sid)
        if lock is None:
            return False
        async with lock:
            pin = self._sessions.get(router_sid)
            if pin is None:
                return False
            return await self._failover_pin(
                router_sid, exclude or pin[0], reason=reason
            )

    async def _recover_orphans(self) -> None:
        """Fail over every session whose pinned shard is gone or dead.

        Safe to call from any lock-free context (the dead-shard reaper,
        the probe loop); per-session locks serialize against live ops and
        the pin is re-checked under the lock before acting.
        """
        for router_sid in list(self._sessions):
            pin = self._sessions.get(router_sid)
            if pin is None:
                continue
            shard = self._shards.get(pin[0])
            if shard is not None and shard.alive:
                continue
            lock = self._session_locks.get(router_sid)
            if lock is None:
                continue
            async with lock:
                pin = self._sessions.get(router_sid)
                if pin is None:
                    continue
                shard = self._shards.get(pin[0])
                if shard is not None and shard.alive:
                    continue  # recovered (or repinned) while we waited
                await self._failover_pin(router_sid, pin[0])

    async def _forward_session(self, request: Dict[str, object]) -> Optional[Dict[str, object]]:
        op = request.get("op")
        unacked = op == "session_submit" and not _ack_field(request)
        router_sid = request.get("session")
        if unacked and (not isinstance(router_sid, str) or router_sid not in self._sessions):
            return None  # malformed/unknown/lost session on an unacked line: dropped
        router_sid = _session_id(request)
        if router_sid not in self._sessions:  # fail fast before locking
            if op == "session_submit":
                _submit_tasks(request)  # a malformed batch is named first, as on a shard
            raise self._session_missing(router_sid)
        # Serialize ops per session: a handoff holds this lock across its
        # export/restore/repin, so ops queued behind it land on the new pin.
        lock = self._session_locks[router_sid]
        async with lock:
            while True:
                pin = self._sessions.get(router_sid)
                if pin is None:
                    if unacked:
                        return None  # closed/lost while queued behind the lock
                    raise self._session_missing(router_sid)
                name, backend_sid = pin
                shard = self._shards.get(name)
                if shard is None or not shard.alive:
                    # Found dead before sending anything: replay the journal
                    # onto a survivor and fall through to forward there.
                    if await self._failover_pin(router_sid, name):
                        continue
                    if unacked:
                        return None
                    raise self._session_missing(router_sid)
                self._session_touch[router_sid] = time.monotonic()
                inner = {**request, "session": backend_sid}
                inner.pop("id", None)
                if unacked:
                    # Journal BEFORE the send: an unacked line gets no
                    # response, so the shadow is the only record of it.  If
                    # the shard dies under the send, the replayed session
                    # already contains this batch — recovery must NOT
                    # resend it (a resend would double-submit).
                    self._journal.unacked(router_sid, inner)
                    try:
                        await shard.send(inner)
                    except (ConnectionError, OSError):
                        await self._mark_dead(shard)
                        await self._failover_pin(router_sid, name)
                    return None
                try:
                    response = await shard.request(inner)
                except (ConnectionError, OSError):
                    # The shard died under this very op.  The journal only
                    # records acked batches once the backend *answered*, so
                    # the shadow cannot contain this one — after a replay
                    # the loop retries the op on the new pin (idempotent:
                    # exactly the state the backend would have reached).
                    await self._mark_dead(shard)
                    if await self._failover_pin(router_sid, name):
                        continue
                    raise SessionLostError(
                        f"session {router_sid!r} was lost with shard {name} "
                        f"(it died mid-request); reopen and resubmit to continue"
                    ) from None
                break
            self._journal.acked(router_sid, inner, response)
        if response.get("ok") and op == "session_close":
            self._drop_pin(router_sid)
        elif (not response.get("ok")
              and (response.get("error") or {}).get("type") == "UnknownSessionError"):
            # The backend no longer knows the session (idle TTL expiry):
            # the pin is a ghost — free it so it stops skewing placement.
            self._drop_pin(router_sid)
        if "session" in response:
            response["session"] = router_sid
        response["shard"] = name
        response["id"] = request.get("id")
        return response

    async def session_handoff(
        self, router_sid: str, target: Optional[str] = None
    ) -> Dict[str, object]:
        """Migrate one pinned session to another shard, bit-identically.

        Protocol: under the session's lock (no op can interleave),

        1. ``session_export`` on the source shard — the scheduler's full
           ledger state (arrival stream + placements + windowed-ack
           buffer);
        2. ``session_restore`` on the target — rebuilds the scheduler by
           deterministic replay, verifying every placement against the
           export (a divergent replay is refused server-side);
        3. repin the router id to the target and close the source copy.

        A failed restore leaves the session exactly where it was.
        Returns the response-shaped outcome: the handoff, or a shard's own
        error response (``ok`` false) relayed under the router's session
        id.  A failure the router finds itself raises: the missing-session
        error, :class:`SessionLostError`, :class:`NoShardAvailableError`,
        or :class:`ClusterError` for a shard lost mid-handoff.
        """
        if self._sessions.get(router_sid) is None:
            raise self._session_missing(router_sid)
        lock = self._session_locks[router_sid]
        async with lock:
            pin = self._sessions.get(router_sid)
            if pin is None:
                raise self._session_missing(router_sid)
            source_name, backend_sid = pin
            source = self._shards.get(source_name)
            if source is None or not source.alive:
                # The source died before this handoff: a live export is
                # impossible, but the journal can still deliver the same
                # outcome — the session, bit-identical, on a survivor.
                if await self._failover_pin(router_sid, source_name):
                    new_name, _sid = self._sessions[router_sid]
                    self._counters["handoffs"] += 1
                    return {"ok": True, "session": router_sid, "handoff": True,
                            "from": source_name, "shard": new_name,
                            "replayed": True}
                raise SessionLostError(
                    f"session {router_sid!r} was lost with shard {source_name} "
                    f"(it died before a handoff and could not be replayed)"
                )
            if target is None:
                target_name = self._least_loaded(exclude=source_name)
            else:
                target_name = target if target in self._routable() else None
                if target_name == source_name:
                    target_name = None
            if target_name is None:
                raise NoShardAvailableError(
                    f"no live shard to receive session {router_sid!r} "
                    f"(source {source_name})"
                )
            target_shard = self._shards[target_name]
            try:
                exported = await source.request(
                    {"op": "session_export", "session": backend_sid}
                )
            except (ConnectionError, OSError):
                await self._mark_dead(source)
                raise ClusterError(
                    f"source shard {source_name} died during export"
                ) from None
            if not exported.get("ok"):
                return {**exported, "session": router_sid}
            try:
                restored = await target_shard.request(
                    {"op": "session_restore", "export": exported["export"]}
                )
            except (ConnectionError, OSError):
                await self._mark_dead(target_shard)
                raise ClusterError(
                    f"target shard {target_name} died during restore "
                    f"(session unchanged on {source_name})"
                ) from None
            if not restored.get("ok"):
                return {**restored, "session": router_sid}
            self._sessions[router_sid] = (target_name, str(restored["session"]))
            self._session_touch[router_sid] = time.monotonic()
            self._counters["handoffs"] += 1
            log_event("session_handoff", session=router_sid,
                      source=source_name, target=target_name)
            try:
                await source.request({"op": "session_close", "session": backend_sid})
            except (ConnectionError, OSError):
                await self._mark_dead(source)
        return {
            "ok": True, "session": router_sid, "handoff": True,
            "from": source_name, "shard": target_name,
            "n": restored.get("n"), "cmax": restored.get("cmax"),
            "mmax": restored.get("mmax"),
        }

    async def _broadcast(
        self, payload: Dict[str, object]
    ) -> Tuple[List[str], List[Optional[Dict[str, object]]]]:
        """Send ``payload`` to every live shard at once; ``(names, responses)``.

        A shard whose transport fails is marked dead and answers ``None``.
        """
        names = self.shard_names()

        async def one(shard: ShardHandle):
            try:
                return await shard.request(dict(payload))
            except (ConnectionError, OSError):
                await self._mark_dead(shard)
                return None

        responses = await asyncio.gather(*(one(self._shards[name]) for name in names))
        return names, list(responses)

    async def drain(self, timeout: Optional[float] = None) -> Tuple[bool, int]:
        """Fan the ``drain`` op out to every shard; ``(all_drained, pending)``.

        Keeps the wire front end protocol-compatible with a single
        ``repro serve``: the cluster is drained when every live shard is.
        A shard lost during the wait counts as drained (it has no pending
        work any more — its jobs were retried elsewhere or salvaged via
        the shared cache).
        """
        _names, responses = await self._broadcast({"op": "drain", "timeout": timeout})
        drained = True
        pending = 0
        for response in responses:
            if response is None:
                continue
            drained = drained and bool(response.get("ok")) \
                and bool(response.get("drained"))
            value = response.get("pending", 0)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                pending += int(value)
        return drained, pending

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def scaling_signal(self, raw_depth: float) -> float:
        """The autoscaler's pressure number, QoS-weighted when tenants exist.

        With QoS off this is the raw summed shard ``queue_depth`` —
        byte-identical autoscaler behavior.  With QoS on, the admitted
        work is scaled by the average :data:`~repro.qos.tenants.CLASS_URGENCY`
        of the slots in use (a batch-only cluster is damped, an interactive
        one is not) and the router's own *pre-admission* backlog — requests
        the shards cannot even see yet — is added at its class urgency, so
        interactive queueing drives scale-up at full strength.
        """
        if self._qos is None:
            return float(raw_depth)
        mix = self._qos.in_use_by_class()
        total = sum(mix.values())
        urgency = 1.0 if not total else (
            sum(CLASS_URGENCY.get(cls, 1.0) * n for cls, n in mix.items()) / total
        )
        return float(raw_depth) * urgency + self._qos.weighted_backlog()

    def router_counters(self) -> Dict[str, int]:
        """The router's own ledger plus instantaneous shard-set gauges."""
        self._sweep_pins()
        alive = self.shard_names()
        draining = [n for n in alive if self._shards[n].draining]
        return {
            **self._counters,
            "shards_alive": len(alive),
            "shards_draining": len(draining),
            "sessions_pinned": len(self._sessions),
            "sessions_journaled": len(self._journal),
        }

    async def trace(self, request: Dict[str, object]) -> Dict[str, object]:
        """The ``trace`` op over the cluster: the router's ring plus every shard's.

        Fans the op out like ``stats``.  Each distinct ring (``ring`` in a
        response) is taken once, so an in-process shard, whose ring is the
        router's own, adds no duplicate spans; ``dropped`` sums the
        distinct rings.  With ``clear`` every ring is cleared after it was
        read.
        """
        trace_id, clear = _trace_fields(request)
        own = _trace_response(request)
        forward: Dict[str, object] = {"op": "trace", "clear": clear}
        if trace_id is not None:
            forward["trace_id"] = trace_id
        await self.reap_dead()
        _names, responses = await self._broadcast(forward)
        spans = list(own["spans"])  # type: ignore[arg-type]
        dropped = int(own["dropped"])  # type: ignore[arg-type]
        enabled = bool(own["enabled"])
        rings = {own["ring"]}
        for response in responses:
            if response is None or not response.get("ok"):
                continue
            ring = response.get("ring")
            if ring is not None and ring in rings:
                continue
            rings.add(ring)
            spans.extend(response.get("spans") or ())
            dropped += int(response.get("dropped") or 0)
            enabled = enabled or bool(response.get("enabled"))
        return {"id": request.get("id"), "ok": True, "spans": spans,
                "enabled": enabled, "dropped": dropped, "rings": len(rings)}

    async def stats(self) -> ClusterStats:
        """Merged cluster snapshot (fans the ``stats`` op out to every shard)."""
        await self.reap_dead()
        names, responses = await self._broadcast({"op": "stats"})
        payloads = {
            name: response["stats"]
            for name, response in zip(names, responses)
            if response is not None and response.get("ok")
        }
        return merge_shard_stats(
            payloads,
            router=self.router_counters(),
            tenants=self._qos.snapshot() if self._qos is not None else None,
        )

    #: The router's op table (:meth:`handle`): its routed and merged ops,
    #: ``session_handoff``, and ``shutdown`` shared with the service.
    _OPS = {
        "solve": _admit_solve,
        "session_open": _open_session,
        "session_submit": _forward_session,
        "session_result": _forward_session,
        "session_export": _forward_session,
        "session_restore": _open_session,
        "session_handoff": _handoff_op,
        "session_close": _forward_session,
        "stats": _stats_op,
        "metrics": _metrics_op,
        "trace": trace,
        "ping": _ping_op,
        "drain": _drain_op,
        "shutdown": _shutdown,
    }
