"""The admission controller: one object deciding every request's fate.

:class:`AdmissionController` is the QoS layer's single entry point for a
serving process (a :class:`~repro.service.service.SolverService` or a
cluster router).  It owns, per tenant:

* the **token bucket** enforcing ``rate``/``burst``,
* the **quota gauge** (``in_use`` admitted-and-unfinished unique jobs),
* the **counter ledger** (submitted / admitted / rejected — with a
  per-code rejection breakdown — completed / failed / abandoned /
  cache_hits / coalesced / busy seconds), and
* a **queue-wait histogram series** (time spent waiting for an
  admission slot — the quantity the fairness benchmark bounds),

plus the shared :class:`~repro.qos.queue.AdmissionQueue` that arbitrates
slots between tenants.

The per-tenant ledger keeps the same balance invariant the service's
global ledger does: every request that passed :meth:`begin` ends exactly
once in ``admitted`` or ``rejected`` (property-tested), so per-tenant
``lost`` is always zero.  Rejections raised *by* the controller
(:class:`~repro.qos.tenants.RateLimitedError` etc.) carry stable
``code`` strings that become the wire ``error.code`` field.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import Histogram

from .bucket import TokenBucket
from .queue import AdmissionQueue
from .stats import tenant_snapshot
from .tenants import (
    CLASS_URGENCY,
    BackpressureError,
    OverQuotaError,
    RateLimitedError,
    TenantConfig,
    TenantRegistry,
)

__all__ = ["AdmissionController"]


class _TenantState:
    """Mutable per-tenant ledger (controller-internal)."""

    __slots__ = ("cfg", "bucket", "counters", "rejected_by",
                 "in_use", "queued", "busy_s")

    def __init__(self, cfg: TenantConfig, clock: Callable[[], float]) -> None:
        self.cfg = cfg
        self.bucket = TokenBucket(cfg.rate, cfg.burst, clock=clock)
        self.counters: Dict[str, int] = {
            name: 0
            for name in ("submitted", "admitted", "rejected", "completed",
                         "failed", "abandoned", "cache_hits", "coalesced")
        }
        self.rejected_by: Dict[str, int] = {}
        self.in_use = 0
        self.queued = 0
        self.busy_s = 0.0

    def reject(self, code: str) -> None:
        self.counters["rejected"] += 1
        self.rejected_by[code] = self.rejected_by.get(code, 0) + 1


class AdmissionController:
    """Per-tenant admission for one serving process (see module docstring).

    ``capacity`` is the total number of admission slots (the service's
    ``max_pending``; a router's routable-shard aggregate).  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        capacity: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self._clock = clock
        self._queue = AdmissionQueue(capacity)
        self._states: Dict[str, _TenantState] = {
            cfg.name: _TenantState(cfg, clock) for cfg in registry
        }
        self._queue_wait = Histogram(
            "repro_tenant_queue_wait_seconds",
            "Admission-slot wait per tenant", ("tenant",),
        )
        #: Requests naming no known tenant (they have no ledger row).
        self.unknown_rejected = 0

    # -- request lifecycle --------------------------------------------

    def begin(self, tenant: Optional[str]) -> TenantConfig:
        """Attribute a request and pass it through the rate limiter.

        Raises :class:`UnknownTenantError` (no attribution possible) or
        :class:`RateLimitedError` (bucket empty).  On success the tenant's
        ``submitted`` counter is charged and the caller must end the
        request in exactly one ``admitted``/``rejected`` outcome.
        """
        try:
            cfg = self.registry.resolve(tenant)
        except Exception:
            self.unknown_rejected += 1
            raise
        state = self._states[cfg.name]
        state.counters["submitted"] += 1
        if not state.bucket.take():
            state.reject(RateLimitedError.code)
            raise RateLimitedError(
                f"tenant {cfg.name!r} exceeded its rate of {cfg.rate:g} req/s "
                f"(burst {state.bucket.burst:g})"
            )
        return cfg

    def admit_fast(self, cfg: TenantConfig, kind: Optional[str] = None) -> None:
        """Admit without a slot: cache hits and coalesced joins.

        ``kind`` (``"cache_hits"`` / ``"coalesced"``) also charges the
        matching per-tenant counter.
        """
        state = self._states[cfg.name]
        state.counters["admitted"] += 1
        if kind is not None:
            state.counters[kind] += 1

    async def acquire_slot(self, cfg: TenantConfig, reject_on_full: bool) -> bool:
        """Take one admission slot, enforcing quota and backpressure.

        Mirrors the flat semaphore's contract: with ``reject_on_full``
        a full queue is an immediate :class:`BackpressureError`; otherwise
        the request waits its weighted-fair turn.  Returns whether it had
        to wait.  Cancellation while queued is ledgered as a rejection
        (code ``"cancelled"``) so the tenant's balance stays exact.
        """
        state = self._states[cfg.name]
        if cfg.quota is not None and state.in_use >= cfg.quota:
            state.reject(OverQuotaError.code)
            raise OverQuotaError(
                f"tenant {cfg.name!r} is at its quota of {cfg.quota} "
                f"concurrently admitted jobs"
            )
        if reject_on_full and self._queue.free == 0:
            state.reject(BackpressureError.code)
            raise BackpressureError(
                f"service at capacity ({self._queue.capacity} admission slots); "
                f"retry later or use backpressure='wait'"
            )
        started = self._clock()
        state.queued += 1
        try:
            waited = await self._queue.acquire(cfg)
        except BaseException:
            state.queued -= 1
            state.reject("cancelled")
            raise
        state.queued -= 1
        self._queue_wait.observe(self._clock() - started, cfg.name)
        state.in_use += 1
        return waited

    def release_slot(self, cfg: TenantConfig) -> None:
        """Return a slot taken by :meth:`acquire_slot`."""
        state = self._states[cfg.name]
        state.in_use -= 1
        self._queue.release()

    def job_admitted(self, cfg: TenantConfig) -> None:
        """The slot turned into a real unique job: count the admission."""
        self._states[cfg.name].counters["admitted"] += 1

    def reject(self, cfg: TenantConfig, code: str) -> None:
        """Ledger a rejection decided by the caller (e.g. service closed)."""
        self._states[cfg.name].reject(code)

    def finish(self, cfg: TenantConfig, outcome: str) -> None:
        """Record a unique job's end: ``completed``/``failed``/``abandoned``."""
        self._states[cfg.name].counters[outcome] += 1

    def charge_usage(self, cfg: TenantConfig, seconds: float) -> None:
        """Accumulate worker-busy seconds against the tenant."""
        self._states[cfg.name].busy_s += seconds

    # -- capacity & signals -------------------------------------------

    @property
    def capacity(self) -> int:
        return self._queue.capacity

    def set_capacity(self, capacity: int) -> None:
        """Retarget total slots (routers follow shard churn with this)."""
        self._queue.set_capacity(capacity)

    @property
    def slots_in_use(self) -> int:
        return self._queue.granted

    @property
    def slots_free(self) -> int:
        return self._queue.free

    def backlog_by_class(self) -> Dict[str, int]:
        """Queued (not yet admitted) requests per priority class."""
        return self._queue.depth_by_class()

    def in_use_by_class(self) -> Dict[str, int]:
        """Held admission slots per priority class (the admitted-work mix)."""
        mix: Dict[str, int] = {}
        for state in self._states.values():
            if state.in_use:
                cls = state.cfg.priority
                mix[cls] = mix.get(cls, 0) + state.in_use
        return mix

    def weighted_backlog(self) -> float:
        """Priority-class-weighted queue depth — the autoscaler's signal.

        Each queued request contributes its class's
        :data:`~repro.qos.tenants.CLASS_URGENCY`, so interactive backlog
        drives scale-up at full strength while batch backlog is damped.
        """
        return sum(
            depth * CLASS_URGENCY.get(cls, 1.0)
            for cls, depth in self._queue.depth_by_class().items()
        )

    # -- observability -------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """``{tenant: ledger}`` — JSON-friendly, for ``stats()`` payloads."""
        return {
            name: tenant_snapshot(
                state.cfg,
                counters=state.counters,
                rejected_by=state.rejected_by,
                in_use=state.in_use,
                queued=state.queued,
                busy_s=state.busy_s,
                queue_wait=self._queue_wait.summary(name),
            )
            for name, state in sorted(self._states.items())
        }
