"""``SolverService`` — an asyncio front end over the solver process pool.

Many concurrent clients share one persistent fleet of solver workers::

    async with SolverService(workers=4, cache=LRUCache()) as svc:
        result = await svc.solve(instance, "sbo(delta=1.0)")

The request path, in order (a wire ``solve`` request first consults the
digest-keyed response tier, :attr:`SolverService.response_tier`, before
its instance is even rebuilt — see :func:`repro.service.server.tier_stage`):

1. **validate** — :func:`repro.solvers.prepare` parses and binds the spec
   and checks instance capabilities, so malformed requests fail before
   touching the queue;
2. **cache read-through** — builtin-solver requests are looked up in the
   configured cache (:mod:`repro.solvers.cache`); a hit returns
   immediately with ``provenance["cache"] == "hit"``, bypassing the queue;
3. **coalesce** — a request identical to an in-flight job (same instance
   content hash, same canonical bound spec) joins that job instead of
   recomputing: one pool execution fans out to every waiter;
4. **admit** — a bounded semaphore caps queued+running unique jobs
   (``max_pending``); the ``"wait"`` policy parks submitters FIFO, the
   ``"reject"`` policy raises :class:`ServiceOverloadedError` immediately;
5. **execute** — the job runs ``solve(instance, spec, cache=False)``
   (no caching inside: the service already filtered hits).  A job whose
   predicted kernel time is under :data:`INLINE_BUDGET_S` runs right on
   the event loop; every other job goes to the process pool.  The
   prediction is learned from the ``wall_time`` of solves this service
   already ran, per (canonical spec, instance type): a job is cheap only
   when one solve under the budget had at least its ``n``, ``m`` and
   edge count (see :class:`_CostTable`).  Either way the result is
   stored into the cache and fanned out.

Timeouts and cancellation are *waiter-scoped*: a coalesced job keeps
running while any client still waits for it; when the last waiter times
out or is cancelled, the job is abandoned — its pool future is cancelled
if still queued, and if it is already executing, its eventual result is
still stored into the cache (paid-for work is never discarded) and the
worker slot is reclaimed the moment it finishes.  Abandonment is
bookkept, so ``stats()`` gauges return to zero: no zombie jobs.

Results are bit-identical to a direct :func:`repro.solvers.solve` call —
same objectives, guarantee, schedule, and provenance (modulo the
``"cache"`` hit/miss marker when a cache is configured, exactly like a
direct cached ``solve``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import OrderedDict
from concurrent.futures import Future as ConcurrentFuture
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Set, Union

from repro.core.instance import DAGInstance, Instance
from repro.core.task import Task
from repro.obs.logging import log_event
from repro.obs.metrics import Histogram, merge_summaries
from repro.obs.trace import RECORDER, enable_tracing, new_span_id, parse_wire_trace
from repro.qos.admission import AdmissionController
from repro.qos.tenants import QosError, TenantConfig
from repro.service.config import ServiceConfig
from repro.service.server import _SERVICE_OPS, OFFLOAD_TASK_COUNT, dispatch
from repro.service.sessions import Session, SessionManager
from repro.service.stats import ServiceStats
from repro.service.tier import ResponseTier, TierEntry
from repro.solvers.api import PreparedSolve, prepare, solve
from repro.solvers.batch import shippable_custom_entries
from repro.solvers.cache import DiskCache, LRUCache, cache_key, resolve_cache
from repro.solvers.registry import available_solvers, register
from repro.solvers.single import PTAS_EPSILONS
from repro.solvers.spec import SolverSpec

__all__ = [
    "SolverService",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
]

AnyInstance = Union[Instance, DAGInstance]

#: Sentinel distinguishing "no timeout argument" from an explicit ``None``
#: (which disables the configured default for this one request).
_UNSET = object()

#: A cold miss whose predicted kernel time is below this (seconds) is
#: solved on the event loop instead of in the process pool: a pool round
#: trip (pickle out, worker wake-up, pickle back) costs more than that.
INLINE_BUDGET_S = 0.5e-3

#: Solvers whose running time is exponential in the input (the exact
#: branch and bound and the PTAS family).  Their cost is not monotone in
#: the instance size, so no learned prediction covers them: they always
#: run in the pool, as does any spec binding one as a sub-solver.
_EXPONENTIAL = frozenset({"exact", *PTAS_EPSILONS})

#: Bound on the (spec, instance type) keys the kernel-cost table learns,
#: least recently used evicted first: canonical specs carry client-chosen
#: parameter values.
MAX_COST_KEYS = 256

#: Latency-derived timeouts (``ServiceConfig.auto_timeouts``): once a
#: solver family has ``AUTO_TIMEOUT_MIN_SAMPLES`` recorded requests, its
#: requests default to ``AUTO_TIMEOUT_MULTIPLIER`` x the family's p99,
#: clamped into ``[AUTO_TIMEOUT_FLOOR, AUTO_TIMEOUT_CEILING]`` seconds.
#: The floor keeps cache-hit-dominated latency histories from starving
#: real compute requests; the sample minimum keeps one early outlier from
#: poisoning the bound.
AUTO_TIMEOUT_MULTIPLIER = 25.0
AUTO_TIMEOUT_FLOOR = 5.0
AUTO_TIMEOUT_CEILING = 300.0
AUTO_TIMEOUT_MIN_SAMPLES = 20

#: Bound on distinct solver families each latency histogram tracks, with
#: least-recently-recorded eviction beyond it: family names are
#: client-influenced via runtime-registered solvers, so the breakdown
#: must not be a memory leak.  The built-in registry has about a dozen
#: families, so healthy operation never evicts.
MAX_FAMILIES = 64


class ServiceError(RuntimeError):
    """Base class of the serving-layer errors."""


class ServiceClosedError(ServiceError):
    """The service is not started, or already closed."""


class ServiceOverloadedError(ServiceError):
    """``max_pending`` jobs are admitted and the policy is ``"reject"``."""


class ServiceTimeoutError(ServiceError, TimeoutError):
    """The per-request timeout elapsed before a result was available."""


def _pool_solve(instance: AnyInstance, spec: SolverSpec, entries: tuple):
    """Worker-side entry point (module level so it pickles).

    Registers any shipped custom entries (needed under ``spawn``, where
    workers do not inherit the parent registry), then runs the solve
    uncached — the parent already consulted the cache.
    """
    for entry in entries:
        register(entry, replace=True)
    return solve(instance, spec, cache=False)


def _by_family(histogram: Histogram) -> Dict[str, Dict[str, object]]:
    """``{family: summary}`` of a histogram labelled by family alone."""
    return {key[0]: summary for key, summary in histogram.summaries().items()}


class _CostTable:
    """Instance shapes each ``(canonical spec, instance type)`` key solved cheaply.

    A shape is ``(n, m, edges)``.  A row keeps the shapes whose solve took
    less than :data:`INLINE_BUDGET_S`, only the maximal ones and at most
    :attr:`SHAPES` of them.  A job is predicted cheap only when one of
    them covers its shape in ``n``, ``m`` and edge count together: the
    stock polynomial kernels cost no more on an instance that is no
    larger in any of the three, so that solve's time bounds the job's.
    Nothing is extrapolated: a key never seen, or a shape outside every
    recorded one, goes to the pool, whose result may then widen the row.
    A solve at or over the budget withdraws every shape that covers it.
    """

    __slots__ = ("_rows",)

    #: Bound on the shapes one key keeps, oldest dropped first.
    SHAPES = 8

    def __init__(self) -> None:
        self._rows: "OrderedDict[tuple, List[tuple]]" = OrderedDict()

    @staticmethod
    def _covers(big: tuple, small: tuple) -> bool:
        return big[0] >= small[0] and big[1] >= small[1] and big[2] >= small[2]

    def cheap(self, key: tuple, shape: tuple) -> bool:
        """Whether a shape already solved under the budget covers ``shape``."""
        shapes = self._rows.get(key)
        return shapes is not None and any(self._covers(s, shape) for s in shapes)

    def learn(self, key: tuple, shape: tuple, seconds: float) -> None:
        """Record one solve of ``shape`` that took ``seconds``."""
        shapes = self._rows.get(key)
        if seconds >= INLINE_BUDGET_S:
            if shapes is not None:
                shapes[:] = [s for s in shapes if not self._covers(s, shape)]
                if not shapes:
                    del self._rows[key]
            return
        if shapes is None:
            self._rows[key] = [shape]
            if len(self._rows) > MAX_COST_KEYS:
                self._rows.popitem(last=False)
            return
        self._rows.move_to_end(key)
        if not any(self._covers(s, shape) for s in shapes):
            shapes[:] = [s for s in shapes if not self._covers(shape, s)]
            shapes.append(shape)
            del shapes[:-self.SHAPES]


def _cost_key(instance: AnyInstance, prepared: PreparedSolve) -> Optional[tuple]:
    """The cost-table key of a job, or ``None`` when it must use the pool.

    Non-stock entries (their code is not ours to time), periodic
    instances (the facade's hyperperiod unroll is not in ``wall_time``),
    exponential-time solvers and instances of
    :data:`OFFLOAD_TASK_COUNT` tasks or more never run on the loop.
    """
    bound = prepared.bound
    if (
        not prepared.cacheable
        or instance.n >= OFFLOAD_TASK_COUNT
        or getattr(instance, "kind", None) == "periodic"
        or prepared.entry.name in _EXPONENTIAL
        or bound.get("inner") in _EXPONENTIAL
        or bound.get("inner_mmax") in _EXPONENTIAL
    ):
        return None
    return (prepared.canonical, type(instance))


class _Job:
    """One unique in-flight computation and its fan-out future."""

    __slots__ = ("key", "cache_key", "future", "waiters", "task", "pool_future",
                 "tenant", "trace")

    def __init__(
        self,
        key: str,
        cache_key_: Optional[str],
        future: "asyncio.Future",
        tenant: Optional[TenantConfig] = None,
    ) -> None:
        self.key = key
        self.cache_key = cache_key_
        self.future = future
        self.waiters = 0
        self.task: Optional["asyncio.Task"] = None
        self.pool_future: Optional[ConcurrentFuture] = None
        # The tenant whose admission slot this job holds (None on the flat
        # path): _conclude must return the slot to the same ledger.
        self.tenant = tenant
        # Trace context of the submitter that created this job:
        # ``(trace_id, dispatch_span_id, parent_span_id, dispatch_start)``
        # or None.  Coalesced joiners share the creator's spans — one
        # unique job is one dispatch/queue_wait/kernel chain.
        self.trace: Optional[tuple] = None


class SolverService:
    """Async request/response facade over a persistent solver worker pool.

    Use as an async context manager (preferred) or call :meth:`start` /
    :meth:`close` explicitly::

        config = ServiceConfig(workers=4, max_pending=128, backpressure="wait")
        async with SolverService(config) as svc:
            results = await asyncio.gather(
                *(svc.solve(inst, spec) for inst, spec in requests)
            )

    ``SolverService(workers=4)`` is shorthand for
    ``SolverService(ServiceConfig(workers=4))``.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides: object) -> None:
        if config is None:
            config = ServiceConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self._started = False
        self._closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._fallback_pool: Optional[ThreadPoolExecutor] = None
        self._cache = None
        self._tier: Optional[ResponseTier] = None
        self._admit: Optional[asyncio.Semaphore] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[str, _Job] = {}
        self._costs = _CostTable()
        self._tasks: Set["asyncio.Task"] = set()
        self._qos: Optional[AdmissionController] = None
        # The one latency record: end-to-end request latency per family,
        # plus the phase split of unique jobs — time queued for a worker
        # slot vs time executing in the pool (end-to-end latency alone
        # cannot show whether a slow family is compute- or queue-bound).
        # ``stats``, auto-timeouts and the ``metrics`` op all read these.
        self._latency = Histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency by solver family",
            ("family",), max_series=MAX_FAMILIES,
        )
        self._phases = {
            phase: Histogram(
                "repro_phase_latency_seconds",
                "Unique-job phase latency (queue_wait / exec) by solver family",
                ("family",), max_series=MAX_FAMILIES,
            )
            for phase in ("queue_wait", "exec")
        }
        self._sessions = SessionManager(
            max_sessions=config.max_sessions,
            max_session_tasks=config.max_session_tasks,
            ttl=config.session_ttl,
        )
        self._counters: Dict[str, int] = {
            name: 0
            for name in ("submitted", "completed", "failed", "rejected",
                         "timed_out", "cancelled", "coalesced", "abandoned",
                         "cache_hits", "cache_misses", "inline")
        }
        self._queued = 0
        self._running = 0
        self._pending = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "SolverService":
        """Create the worker pool (forking its workers now under ``fork``) and
        the queue primitives (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service already closed; create a new one")
        if self._started:
            return self
        mp_context = multiprocessing.get_context(self.config.start_method)
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers, mp_context=mp_context
        )
        if mp_context.get_start_method() == "fork":
            # A forking pool forks every worker at its first job.  Fork them
            # now, with the solver registry loaded and before any client
            # connection exists: a worker forked later would hold the
            # sockets open at that moment, and their clients would never
            # see the server hang up.
            available_solvers()
            self._pool.submit(int)
        self._cache = resolve_cache(self.config.cache)
        if self._cache is not None:
            self._tier = ResponseTier()
        self._admit = asyncio.Semaphore(self.config.max_pending)
        self._slots = asyncio.Semaphore(self.config.workers)
        if self.config.tenants is not None:
            self._qos = AdmissionController(
                self.config.tenants, capacity=self.config.max_pending
            )
        # Span recording is process-global and opt-in: flip the recorder on
        # only when this service asked for it (never off — another service
        # or the CLI may have enabled it first).
        if self.config.trace:
            enable_tracing()
        self._started = True
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the pool down.

        ``drain=True`` (default) waits for admitted jobs to finish;
        ``drain=False`` cancels them (waiters see ``CancelledError``).
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        tasks = list(self._tasks)
        if not drain:
            for task in tasks:
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        # shutdown() blocks until running workers finish — keep the loop free.
        await loop.run_in_executor(
            None, partial(self._pool.shutdown, wait=True, cancel_futures=True)
        )
        if self._fallback_pool is not None:
            await loop.run_in_executor(
                None, partial(self._fallback_pool.shutdown, wait=True, cancel_futures=True)
            )
        self._sessions.close_all()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no admitted job is pending (the graceful-removal hook).

        Used by the cluster layer before retiring a backend shard: the
        router stops routing new work here first, then drains, so every
        in-flight job finishes and its result lands in the shared
        read-through cache (paid-for work is salvaged, nothing is lost).
        Returns ``True`` once ``pending == 0``, or ``False`` when
        ``timeout`` seconds elapsed first.  The service keeps accepting
        requests — refusing them is the caller's (router's) job.
        """
        self._require_running()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._pending > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    @property
    def is_running(self) -> bool:
        return self._started and not self._closed

    # ------------------------------------------------------------------ #
    # the request path
    # ------------------------------------------------------------------ #
    async def solve(
        self,
        instance: AnyInstance,
        spec: Union[str, SolverSpec],
        *,
        timeout: object = _UNSET,
        tenant: Optional[str] = None,
        trace: object = None,
        **params: object,
    ):
        """Solve one request through the shared worker fleet.

        Parameters mirror :func:`repro.solvers.solve` (``params`` are spec
        overrides); ``timeout`` (seconds) overrides the configured
        per-spec/default timeout for this request — pass ``None`` to wait
        indefinitely.  ``tenant`` attributes the request for QoS when the
        service has tenants configured (``None`` maps to the default
        tenant); without tenants it is ignored.  ``trace`` is an optional
        wire trace context (``{"id": ..., "span": ...}``) — when span
        recording is enabled in this process the request's admission /
        cache / dispatch / kernel phases are recorded under that trace id
        (:mod:`repro.obs.trace`); otherwise it is ignored.  Raises
        :class:`ServiceTimeoutError`, :class:`ServiceOverloadedError`,
        :class:`ServiceClosedError`, a :class:`repro.qos.tenants.QosError`
        rejection (unknown tenant / rate limit / quota / backpressure), or
        whatever the underlying solver/spec validation raises.  The QoS
        attribution comes first (:meth:`attribute`).
        """
        return await self.solve_attributed(
            self.attribute(tenant), instance, spec, timeout=timeout, trace=trace, **params
        )

    def attribute(self, tenant: Optional[str]) -> Optional[TenantConfig]:
        """Attribute a request to its tenant: the first step of a solve with QoS on.

        Counts the submission and passes the tenant's rate limiter, so an
        unknown or rate-limited tenant is refused before the instance or
        the spec is looked at, in the order a router applies (a router
        never rebuilds an instance).  With QoS off this counts nothing and
        returns ``None``: the request is counted once it is valid.  An
        attributed request that then fails validation goes to
        :meth:`refuse`.
        """
        return None if self._qos is None else self._begin(tenant)

    def refuse(self, tenant_cfg: Optional[TenantConfig]) -> None:
        """Ledger an attributed request that failed validation as rejected."""
        if tenant_cfg is not None:
            self._drop_submission(tenant_cfg, "invalid")

    async def solve_attributed(
        self,
        tenant_cfg: Optional[TenantConfig],
        instance: AnyInstance,
        spec: Union[str, SolverSpec],
        *,
        timeout: object = _UNSET,
        trace: object = None,
        **params: object,
    ):
        """:meth:`solve` for a request :meth:`attribute` has attributed."""
        try:
            if not self.is_running:
                raise ServiceClosedError(
                    "service is not running (use 'async with SolverService(...)')"
                )
            prepared = prepare(instance, spec, **params)
            timeout_s = self._effective_timeout(timeout, prepared.entry.name)
        except BaseException:
            self.refuse(tenant_cfg)
            raise
        if tenant_cfg is None:
            # QoS off: the request is counted once it is valid, so an invalid
            # one never unbalances the stats ledger (``lost`` stays 0).
            self._counters["submitted"] += 1
        started = time.perf_counter()
        tctx = self._trace_context(trace)

        if instance.n >= OFFLOAD_TASK_COUNT:
            # Hashing a very large instance is multi-millisecond CPU work;
            # keep it off the event loop so other connections stay live.
            try:
                content = await asyncio.get_running_loop().run_in_executor(
                    None, instance.content_hash
                )
            except asyncio.CancelledError:
                self._drop_submission(tenant_cfg)
                raise
        else:
            content = instance.content_hash()
        coalesce_key = f"{content}|{prepared.canonical}"
        content_key = (
            cache_key(content, prepared.canonical)
            if (self._cache is not None and prepared.cacheable)
            else None
        )

        if content_key is not None:
            consult_at = time.perf_counter() if tctx is not None else 0.0
            try:
                hit = await self._cache_get(content_key, instance.n)
            except asyncio.CancelledError:
                self._drop_submission(tenant_cfg)
                raise
            if tctx is not None:
                RECORDER.record(
                    "cache_consult", "service", tctx[0], new_span_id(), tctx[1],
                    consult_at, time.perf_counter() - consult_at,
                    hit=hit is not None, family=prepared.entry.name,
                )
            if hit is not None:
                self._count_hit(prepared.entry.name, tenant_cfg, started, tctx)
                return replace(hit, provenance={**hit.provenance, "cache": "hit"})
            self._counters["cache_misses"] += 1

        job = self._inflight.get(coalesce_key)
        if job is not None:
            self._counters["coalesced"] += 1
            if tenant_cfg is not None:
                self._qos.admit_fast(tenant_cfg, "coalesced")
        else:
            admit_at = time.perf_counter() if tctx is not None else 0.0
            admitted = await self._admit_job(
                coalesce_key, content_key, instance, prepared, tenant_cfg, tctx
            )
            if tctx is not None:
                RECORDER.record(
                    "admission", "service", tctx[0], new_span_id(), tctx[1],
                    admit_at, time.perf_counter() - admit_at,
                    family=prepared.entry.name,
                )
            if not isinstance(admitted, _Job):
                # Late cache hit: the identical job finished while this
                # submitter waited for admission.
                self._record_latency(prepared.entry.name, started, tctx)
                return admitted
            job = admitted
        return await self._await_job(
            job, timeout_s, started, family=prepared.entry.name, tctx=tctx
        )

    # ------------------------------------------------------------------ #
    # the response tier (answers repeats before the instance is rebuilt)
    # ------------------------------------------------------------------ #
    async def handle(self, request: Dict[str, object]):
        """One decoded wire request in, its response out (:class:`~repro.service.server.FrontEnd`).

        Dispatches through the service's op table; ``None`` for an applied
        unacknowledged submission, which gets no response line.
        """
        return await dispatch(_SERVICE_OPS, self, request)

    @property
    def response_tier(self) -> Optional[ResponseTier]:
        """The digest-keyed response tier, or ``None`` (no cache, or not running).

        Wire requests consult it with the request digest before the
        instance is rebuilt, and it admits only responses the result
        cache served (see :func:`repro.service.server.tier_stage`).
        """
        return self._tier if self.is_running else None

    def count_tier_hit(
        self,
        entry: TierEntry,
        started: float,
        *,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
        trace: object = None,
    ) -> None:
        """Ledger one response served by the tier exactly like a cache hit.

        The entry was stored for this exact (instance, spec, params), so
        only what the digest leaves out is checked again: the timeout is
        validated and the tenant passes QoS attribution and rate limits.
        """
        self._effective_timeout(timeout, entry.family)
        tenant_cfg = self._begin(tenant)
        tctx = self._trace_context(trace)
        if tctx is not None:
            RECORDER.record(
                "cache_consult", "service", tctx[0], new_span_id(), tctx[1],
                started, time.perf_counter() - started,
                hit=True, family=entry.family, tier=True,
            )
        self._count_hit(entry.family, tenant_cfg, started, tctx)

    def _begin(self, tenant: Optional[str]) -> Optional[TenantConfig]:
        """Count one submission and attribute it to its tenant (QoS on)."""
        self._counters["submitted"] += 1
        if self._qos is None:
            return None
        try:
            return self._qos.begin(tenant)
        except QosError:
            # Attribution/rate rejections are real rejections in the
            # global ledger too — ``lost`` must stay 0.
            self._counters["rejected"] += 1
            raise

    @staticmethod
    def _trace_context(trace: object) -> Optional[tuple]:
        """``(trace_id, parent_span_id)`` when recording, else ``None``.

        The single ``RECORDER.enabled`` check keeps the disabled path at
        one attribute read per request.
        """
        if trace is None or not RECORDER.enabled:
            return None
        return parse_wire_trace(trace)

    def _count_hit(
        self, family: str, tenant_cfg: Optional[TenantConfig], started: float,
        tctx: Optional[tuple],
    ) -> None:
        """Ledger one request answered from a cache (result cache or tier)."""
        self._counters["cache_hits"] += 1
        if tenant_cfg is not None:
            self._qos.admit_fast(tenant_cfg, "cache_hits")
        self._record_latency(family, started, tctx)

    async def _admit_job(
        self,
        key: str,
        content_key: Optional[str],
        instance: AnyInstance,
        prepared: PreparedSolve,
        tenant_cfg: Optional[TenantConfig] = None,
        tctx: Optional[tuple] = None,
    ):
        """Acquire a pending slot (honouring backpressure) and start the job.

        Returns the admitted :class:`_Job` — or, when the identical job ran
        to completion *while this submitter waited for admission*, the
        finished :class:`SolveResult` straight from the cache (the pre-wait
        cache check cannot see results that land during the wait).

        With a ``tenant_cfg`` (QoS on) the flat semaphore is replaced by
        the controller's quota check and weighted-fair queue; every other
        step — closed re-check, late cache hit, final coalesce re-check —
        is identical, so the two paths stay behaviourally aligned.
        """
        if tenant_cfg is None:
            assert self._admit is not None
            if self.config.backpressure == "reject" and self._admit.locked():
                self._counters["rejected"] += 1
                raise ServiceOverloadedError(
                    f"service at capacity ({self.config.max_pending} pending jobs); "
                    f"retry later or use backpressure='wait'"
                )
            waited = self._admit.locked()
            try:
                await self._admit.acquire()
            except asyncio.CancelledError:
                self._drop_submission(None)
                raise
        else:
            assert self._qos is not None
            try:
                waited = await self._qos.acquire_slot(
                    tenant_cfg, reject_on_full=self.config.backpressure == "reject"
                )
            except (QosError, asyncio.CancelledError):
                # Quota/backpressure rejections — and a submitter cancelled
                # while queued — are ledgered rejections on both the tenant
                # and the global ledger (``lost`` stays 0 either way).
                self._counters["rejected"] += 1
                raise
        if self._closed:
            self._release_admission(tenant_cfg)
            # Counted as a rejection so the submission stays accounted for
            # in the stats ledger (``lost`` must stay 0).
            if tenant_cfg is not None:
                self._qos.reject(tenant_cfg, "closed")
            self._counters["rejected"] += 1
            raise ServiceClosedError("service closed while waiting for admission")
        if waited and content_key is not None:
            # While this submitter waited for admission the identical job
            # may have already finished: serve its cached result instead of
            # recomputing (the pre-wait cache check could not see it).
            try:
                hit = await self._cache_get(content_key, instance.n)
            except asyncio.CancelledError:
                self._release_admission(tenant_cfg)
                self._drop_submission(tenant_cfg)
                raise
            if hit is not None:
                self._release_admission(tenant_cfg)
                self._counters["cache_hits"] += 1
                if tenant_cfg is not None:
                    self._qos.admit_fast(tenant_cfg, "cache_hits")
                return replace(hit, provenance={**hit.provenance, "cache": "hit"})
        # Final synchronous re-check right before creation: the waits above
        # (admission and/or cache I/O) may have yielded to an identical
        # submitter that already created the job — join it rather than
        # compute twice.
        existing = self._inflight.get(key)
        if existing is not None:
            self._release_admission(tenant_cfg)
            self._counters["coalesced"] += 1
            if tenant_cfg is not None:
                self._qos.admit_fast(tenant_cfg, "coalesced")
            return existing
        loop = asyncio.get_running_loop()
        job = _Job(key, content_key, loop.create_future(), tenant=tenant_cfg)
        if tctx is not None:
            # The dispatch span (recorded at conclusion) parents the job's
            # queue_wait and kernel spans.
            job.trace = (tctx[0], new_span_id(), tctx[1], time.perf_counter())
        if tenant_cfg is not None:
            self._qos.job_admitted(tenant_cfg)
        # Always consume the outcome so an abandoned job (every waiter gone)
        # never logs "exception was never retrieved".
        job.future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self._inflight[key] = job
        self._pending += 1
        job.task = asyncio.create_task(self._run_job(job, instance, prepared))
        self._tasks.add(job.task)
        job.task.add_done_callback(partial(self._job_task_done, job))
        return job

    def _job_task_done(self, job: _Job, task: "asyncio.Task") -> None:
        self._tasks.discard(task)
        if not job.future.done():
            # Cancelled before its first step (``close(drain=False)`` right
            # after admission), so the coroutine never ran, or ended by a
            # KeyboardInterrupt/SystemExit mid-solve: retire it here.
            self._conclude(job, cancelled=True)

    def _drop_submission(
        self, tenant_cfg: Optional[TenantConfig], code: str = "cancelled"
    ) -> None:
        """Ledger a submitter dropped before it joined or created a job."""
        self._counters["rejected"] += 1
        if tenant_cfg is not None:
            self._qos.reject(tenant_cfg, code)

    def _release_admission(self, tenant_cfg: Optional[TenantConfig]) -> None:
        """Return one admission slot to whichever gate issued it."""
        if tenant_cfg is None:
            assert self._admit is not None
            self._admit.release()
        else:
            assert self._qos is not None
            self._qos.release_slot(tenant_cfg)

    def _record_latency(
        self, family: str, started: float, tctx: Optional[tuple] = None
    ) -> None:
        """Record one successful request latency in its family's series."""
        elapsed = time.perf_counter() - started
        self._latency.observe(elapsed, family)
        threshold = self.config.slow_request_threshold
        if threshold is not None and elapsed >= threshold:
            log_event(
                "slow_request", _force=True, family=family,
                seconds=round(elapsed, 6),
                trace=tctx[0] if tctx is not None else None,
            )

    def _record_queue_wait(
        self, job: _Job, family: str, queued_at: float, waited_s: float
    ) -> None:
        """Record the time a job waited for a worker slot."""
        self._phases["queue_wait"].observe(waited_s, family)
        if job.trace is not None:
            RECORDER.record(
                "queue_wait", "service", job.trace[0], new_span_id(),
                job.trace[1], queued_at, waited_s, family=family,
            )

    def _record_exec(
        self, job: _Job, family: str, exec_at: float, inline: bool = False
    ) -> None:
        """Record one execution: phase latency + tenant usage."""
        elapsed = time.perf_counter() - exec_at
        self._phases["exec"].observe(elapsed, family)
        if job.trace is not None:
            RECORDER.record(
                "kernel", "service", job.trace[0], new_span_id(), job.trace[1],
                exec_at, elapsed, family=family, inline=inline,
            )
        if job.tenant is not None and self._qos is not None:
            self._qos.charge_usage(job.tenant, elapsed)

    async def _await_job(
        self,
        job: _Job,
        timeout_s: Optional[float],
        started: float,
        family: str = "?",
        tctx: Optional[tuple] = None,
    ):
        """Wait on a job's fan-out future with waiter-scoped timeout/cancel."""
        job.waiters += 1
        try:
            if timeout_s is None:
                result = await asyncio.shield(job.future)
            else:
                result = await asyncio.wait_for(asyncio.shield(job.future), timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            job.waiters -= 1
            self._counters["timed_out"] += 1
            self._maybe_abandon(job)
            raise ServiceTimeoutError(
                f"request timed out after {timeout_s}s"
            ) from None
        except asyncio.CancelledError:
            job.waiters -= 1
            self._counters["cancelled"] += 1
            self._maybe_abandon(job)
            raise
        except BaseException:
            # Solver-level failure fanned out from the job future.
            job.waiters -= 1
            raise
        job.waiters -= 1
        self._record_latency(family, started, tctx)
        return result

    def _maybe_abandon(self, job: _Job) -> None:
        """Cancel a job once its last interested waiter is gone."""
        if job.waiters > 0 or job.future.done():
            return
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if job.task is not None:
            job.task.cancel()

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #
    async def _run_job(self, job: _Job, instance: AnyInstance, prepared: PreparedSolve) -> None:
        """Execute a job on the loop or in the pool, then store and fan out."""
        key = _cost_key(instance, prepared)
        shape = (instance.n, instance.m, getattr(instance, "n_edges", 0))
        if key is not None and self._costs.cheap(key, shape):
            result = self._run_inline(job, instance, prepared)
        else:
            result = await self._run_in_pool(job, instance, prepared)
        if result is None:
            return  # the branch concluded the job with its failure
        if key is not None:
            self._costs.learn(key, shape, result.wall_time)

        if job.cache_key is not None and self._cache is not None:
            try:
                await self._cache_put(job.cache_key, result, instance.n)
            except asyncio.CancelledError:
                # Abandoned mid-store (e.g. last waiter timed out during the
                # disk write): the result exists — conclude with it so the
                # admission slot is released and the ledger stays balanced.
                # The executor thread finishes the interrupted put on its own.
                self._counters["completed"] += 1
                self._conclude(job, result=result)
                raise
            result = replace(result, provenance={**result.provenance, "cache": "miss"})
        self._counters["completed"] += 1
        self._conclude(job, result=result)

    def _run_inline(self, job: _Job, instance: AnyInstance, prepared: PreparedSolve):
        """Solve on the event loop; the result, or ``None`` once concluded.

        The job takes no worker slot, so it never waits behind pool work:
        its ``queue_wait`` sample is zero.
        """
        family = prepared.entry.name
        self._counters["inline"] += 1
        exec_at = time.perf_counter()
        self._record_queue_wait(job, family, exec_at, 0.0)
        try:
            result = solve(instance, prepared.spec, cache=False)
        except Exception as exc:
            self._record_exec(job, family, exec_at, inline=True)
            self._counters["failed"] += 1
            self._conclude(job, error=exc)
            return None
        self._record_exec(job, family, exec_at, inline=True)
        return result

    async def _run_in_pool(self, job: _Job, instance: AnyInstance, prepared: PreparedSolve):
        """Solve in the process pool; the result, or ``None`` once concluded."""
        assert self._slots is not None
        loop = asyncio.get_running_loop()
        family = prepared.entry.name
        queued_at = time.perf_counter()
        self._queued += 1
        try:
            await self._slots.acquire()
        except asyncio.CancelledError:
            self._queued -= 1
            self._conclude(job, cancelled=True)
            raise
        self._queued -= 1
        self._running += 1
        self._record_queue_wait(job, family, queued_at, time.perf_counter() - queued_at)

        try:
            job.pool_future = self._submit(instance, prepared)
        except Exception as exc:
            self._slots.release()
            self._running -= 1
            self._counters["failed"] += 1
            self._conclude(job, error=exc)
            # The waiters received the error; ending this task cleanly keeps
            # asyncio from logging it as an unretrieved task exception.
            return None
        except BaseException:
            # KeyboardInterrupt/SystemExit: cancel the waiters (never resolve
            # the fan-out future with a bogus value) and propagate.
            self._slots.release()
            self._running -= 1
            self._conclude(job, cancelled=True)
            raise
        # The slot is owned by the *pool work*, not this coroutine: release
        # it when the worker actually finishes, even if the job is abandoned
        # mid-flight (done callbacks also fire for cancelled futures).
        job.pool_future.add_done_callback(
            lambda f: loop.call_soon_threadsafe(self._release_slot)
        )

        exec_at = time.perf_counter()
        try:
            result = await asyncio.wrap_future(job.pool_future, loop=loop)
        except asyncio.CancelledError:
            # Abandoned mid-flight: execution time is unknowable here (the
            # worker may still be running); skip the phase sample.
            self._handle_abandoned_pool_future(job)
            self._conclude(job, cancelled=True)
            raise
        except Exception as exc:
            self._record_exec(job, family, exec_at)
            self._counters["failed"] += 1
            self._conclude(job, error=exc)
            return None
        self._record_exec(job, family, exec_at)
        return result

    def _submit(self, instance: AnyInstance, prepared: PreparedSolve) -> ConcurrentFuture:
        """Hand a job to the process pool (or the in-process fallback).

        Custom registry entries are shipped with the job exactly like
        :func:`repro.solvers.solve_many` does; entries whose callables
        cannot be pickled run in a thread instead of a worker process.
        """
        assert self._pool is not None
        entries: tuple = ()
        if not prepared.cacheable:  # not a stock builtin entry
            shippable, unpicklable = shippable_custom_entries([prepared.spec.name])
            if unpicklable:
                return self._fallback(instance, prepared)
            entries = tuple(shippable.values())
        try:
            return self._pool.submit(_pool_solve, instance, prepared.spec, entries)
        except BrokenProcessPool:  # pragma: no cover - depends on platform failure
            raise ServiceError("worker pool is broken; restart the service") from None

    def _fallback(self, instance: AnyInstance, prepared: PreparedSolve) -> ConcurrentFuture:
        if self._fallback_pool is None:
            self._fallback_pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service-fallback",
            )
        return self._fallback_pool.submit(solve, instance, prepared.spec, cache=False)

    def _handle_abandoned_pool_future(self, job: _Job) -> None:
        """Stop or salvage the pool work of an abandoned job."""
        future = job.pool_future
        if future is None or future.cancel():
            return
        # Already executing: the worker cannot be interrupted, but its
        # result is still useful — store it into the cache when it lands
        # (both cache backends are thread-safe; the callback runs in the
        # executor's thread).
        if job.cache_key is not None and self._cache is not None:
            content_key, cache = job.cache_key, self._cache

            def _salvage(f: ConcurrentFuture) -> None:
                if f.cancelled() or f.exception() is not None:
                    return
                cache.put(content_key, f.result())

            future.add_done_callback(_salvage)
        else:
            # Consume a late exception so it is not logged as unretrieved.
            future.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )

    def _release_slot(self) -> None:
        assert self._slots is not None
        self._running -= 1
        self._slots.release()

    def _conclude(
        self,
        job: _Job,
        result: object = None,
        error: Optional[Exception] = None,
        cancelled: bool = False,
    ) -> None:
        """Retire a job: release its admission slot and resolve its future."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._pending -= 1
        self._release_admission(job.tenant)
        if job.trace is not None:
            trace_id, span_id, parent_id, dispatch_at = job.trace
            job.trace = None  # a job can be concluded at most once per span
            RECORDER.record(
                "dispatch", "service", trace_id, span_id, parent_id,
                dispatch_at, time.perf_counter() - dispatch_at,
                cancelled=cancelled, failed=error is not None,
            )
        if cancelled:
            self._counters["abandoned"] += 1
        if job.tenant is not None:
            assert self._qos is not None
            outcome = "abandoned" if cancelled else ("failed" if error is not None else "completed")
            self._qos.finish(job.tenant, outcome)
        if job.future.done():
            return
        if cancelled:
            job.future.cancel()
        elif error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(result)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _cache_on_loop(self, n: int, store: bool = False) -> bool:
        """Whether a cache read (``store``: write) for ``n`` tasks runs on the loop.

        The in-memory cache always does.  A :class:`DiskCache` entry of
        fewer than :data:`OFFLOAD_TASK_COUNT` tasks is a small file read
        or write, cheaper than the hop to a thread — except a store into
        a cache with a ``max_bytes`` bound, whose trim may scan the
        directory.  Any other cache backend runs off-loop.
        """
        cache = self._cache
        if isinstance(cache, LRUCache):
            return True
        return (
            isinstance(cache, DiskCache)
            and n < OFFLOAD_TASK_COUNT
            and not (store and cache.max_bytes is not None)
        )

    async def _cache_get(self, key: str, n: int):
        """Cache lookup for an ``n``-task instance (see :meth:`_cache_on_loop`)."""
        if self._cache_on_loop(n):
            return self._cache.get(key)
        return await asyncio.get_running_loop().run_in_executor(
            None, self._cache.get, key
        )

    async def _cache_put(self, key: str, result: object, n: int) -> None:
        """Cache store for an ``n``-task instance (see :meth:`_cache_on_loop`)."""
        if self._cache_on_loop(n, store=True):
            self._cache.put(key, result)
            return
        await asyncio.get_running_loop().run_in_executor(
            None, self._cache.put, key, result
        )

    def _effective_timeout(self, timeout: object, solver_name: str) -> Optional[float]:
        if timeout is not _UNSET:
            if timeout is None:
                return None
            seconds = float(timeout)  # type: ignore[arg-type]
            if not seconds > 0:  # also rejects nan
                raise ValueError(f"timeout must be > 0 or None, got {seconds}")
            return seconds
        if self.config.auto_timeouts:
            derived = self._auto_timeout(solver_name)
            if derived is not None:
                return derived
        return self.config.default_timeout

    def _auto_timeout(self, solver_name: str) -> Optional[float]:
        """Timeout derived from the family's observed p99 tail (or ``None``).

        ``AUTO_TIMEOUT_MULTIPLIER x p99`` clamped into
        ``[AUTO_TIMEOUT_FLOOR, AUTO_TIMEOUT_CEILING]``, once the family
        has ``AUTO_TIMEOUT_MIN_SAMPLES`` recorded requests.
        """
        tail = self._latency.summary(solver_name)
        if tail["count"] < AUTO_TIMEOUT_MIN_SAMPLES:
            return None
        derived = max(AUTO_TIMEOUT_MULTIPLIER * tail["p99"], AUTO_TIMEOUT_FLOOR)
        return min(derived, AUTO_TIMEOUT_CEILING)

    def load_summary(self) -> Dict[str, int]:
        """Cheap O(1) load gauges for health probes (the ``ping`` op).

        A strict subset of :meth:`stats` — no latency percentiles, no
        counter merge — so remote routers can poll it every couple of
        seconds without measurable load.
        """
        return {
            "queue_depth": self._queued,
            "in_flight": self._running,
            "pending": self._pending,
            "sessions_open": len(self._sessions),
        }

    def stats(self) -> ServiceStats:
        """An immutable snapshot of counters, gauges, and latency summaries."""
        families = _by_family(self._latency)
        overall = merge_summaries(families.values())
        return ServiceStats(
            **self._counters,
            **self._sessions.stats(),
            queue_depth=self._queued,
            in_flight=self._running,
            pending=self._pending,
            latency_count=overall["count"],
            latency_p50=overall["p50"],
            latency_p90=overall["p90"],
            latency_p99=overall["p99"],
            latency_mean=overall["mean"],
            latency_max=overall["max"],
            families=families,
            phases={phase: _by_family(h) for phase, h in self._phases.items()},
            tenants=self._qos.snapshot() if self._qos is not None else {},
        )

    @property
    def qos(self) -> Optional[AdmissionController]:
        """The admission controller, or ``None`` when QoS is off."""
        return self._qos

    # ------------------------------------------------------------------ #
    # streaming sessions (the online subsystem over the service)
    # ------------------------------------------------------------------ #
    def _require_running(self) -> None:
        if not self.is_running:
            raise ServiceClosedError(
                "service is not running (use 'async with SolverService(...)')"
            )

    def session_open(
        self, spec: str, m: int, tenant: Optional[str] = None, **params: object
    ) -> Session:
        """Open a streaming session running an online spec on ``m`` processors.

        Placements are O(m) CPU work, so the whole session API is
        synchronous: the server handlers call it inline on the event
        loop.  Raises ``SessionLimitError`` past ``config.max_sessions``,
        or whatever :func:`repro.online.registry.create_online` raises
        for a bad spec.  With QoS configured, ``tenant`` attributes the
        session and session opens pass the tenant's rate limiter (a
        session never holds an admission slot — its per-placement work is
        O(m) on the loop, not pool work — so quotas do not apply).
        """
        self._require_running()
        if self._qos is not None:
            cfg = self._qos.begin(tenant)
            self._qos.admit_fast(cfg)
        return self._sessions.open(spec, m, **params)

    def session_submit(self, session_id: str, task: Task) -> Dict[str, object]:
        """Place one arriving task; returns the placement acknowledgement."""
        self._require_running()
        return self._sessions.submit(session_id, task)

    def session_submit_many(self, session_id: str, tasks) -> list:
        """Place a batch all-or-nothing; returns the acknowledgements in order."""
        self._require_running()
        return self._sessions.submit_many(session_id, tasks)

    def session_submit_unacked(self, session_id: str, tasks) -> None:
        """Place tasks without acknowledgement (the windowed-ack wire mode).

        Placements (or the first failure) are buffered on the session and
        flushed back to the client by its next acknowledged op — see
        :meth:`SessionManager.submit_unacked`.
        """
        self._require_running()
        self._sessions.submit_unacked(session_id, tasks)

    def session_check_window(self, session_id: str) -> None:
        """Surface (and clear) a buffered unacknowledged-submission failure."""
        self._require_running()
        self._sessions.check_window(session_id)

    def session_poison_window(self, session_id: str, message: str) -> None:
        """Record an unacknowledged-line failure that never reached submit."""
        self._require_running()
        self._sessions.poison_window(session_id, message)

    def session_take_window_error(self, session_id: str) -> Optional[str]:
        """Pop the buffered unacknowledged failure without raising (close path)."""
        self._require_running()
        return self._sessions.take_window_error(session_id)

    def session_take_window(self, session_id: str) -> list:
        """Drain the buffered unacknowledged placements for an acknowledgement."""
        self._require_running()
        return self._sessions.take_window(session_id)

    def session_export(self, session_id: str) -> Dict[str, object]:
        """Serializable ledger snapshot of one session (handoff source side)."""
        self._require_running()
        return self._sessions.export(session_id)

    def session_restore(self, payload: Dict[str, object]) -> Session:
        """Rebuild a migrated session by verified replay (handoff target side)."""
        self._require_running()
        return self._sessions.restore(payload)

    async def session_result(self, session_id: str):
        """Finalize the session into a :class:`SolveResult` (idempotent).

        The session is *sealed* on the event loop first (late submissions
        are refused deterministically), then finalization runs off-loop:
        for greedy/threshold schedulers it is a cheap schedule evaluation,
        but a hindsight oracle re-solves the whole revealed instance,
        which must not stall every other connection.
        """
        self._require_running()
        session = self._sessions.seal(session_id)
        scheduler = session.scheduler
        if scheduler.is_finalized:
            return scheduler.finalize()
        if session.finalize_future is None:
            # Memoize the in-flight finalization so concurrent
            # session_result requests await one execution instead of
            # racing finalize() on the same scheduler in parallel threads.
            session.finalize_future = asyncio.get_running_loop().run_in_executor(
                None, scheduler.finalize
            )
        return await asyncio.shield(session.finalize_future)

    def session_close(self, session_id: str) -> Dict[str, object]:
        """Close a session and free its slot; returns the final snapshot."""
        self._require_running()
        return self._sessions.close(session_id)

    def session_describe(self, session_id: str) -> Dict[str, object]:
        """Current snapshot of one open session."""
        self._require_running()
        return self._sessions.describe(session_id)
