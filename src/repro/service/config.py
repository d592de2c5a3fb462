"""Configuration of the asyncio serving layer (:class:`ServiceConfig`).

One frozen dataclass holds every tunable of a
:class:`~repro.service.service.SolverService`: worker-pool size, the
request-queue bound and its backpressure policy, the default request
timeout and the latency-derived one, the read-through result cache,
streaming-session bounds, multi-tenant QoS and tracing.  Freezing the
config keeps a running service's behaviour inspectable and prevents
mid-flight reconfiguration races.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.qos.tenants import load_tenants
from repro.solvers.cache import CacheLike

__all__ = ["ServiceConfig", "BACKPRESSURE_POLICIES"]

#: Accepted ``backpressure`` values: ``"wait"`` queues submitters on the
#: bound (fair FIFO), ``"reject"`` fails fast with
#: :class:`~repro.service.service.ServiceOverloadedError`.
BACKPRESSURE_POLICIES = ("wait", "reject")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`~repro.service.service.SolverService`.

    Attributes
    ----------
    workers:
        Size of the persistent process pool executing solver jobs.
    max_pending:
        Bound on *admitted but unfinished* unique jobs (queued + running).
        Cache hits and coalesced joins never consume a slot.
    backpressure:
        What happens when ``max_pending`` jobs are already admitted:
        ``"wait"`` parks the submitter until a slot frees (fair FIFO),
        ``"reject"`` raises ``ServiceOverloadedError`` immediately.
    default_timeout:
        Per-request timeout in seconds applied when the call names none
        and no derived timeout applies; ``None`` waits indefinitely.
    auto_timeouts:
        Derive per-family timeout defaults from *observed* latency tails:
        once a solver family has
        :data:`~repro.service.service.AUTO_TIMEOUT_MIN_SAMPLES` recorded
        requests, requests of that family default to
        :data:`~repro.service.service.AUTO_TIMEOUT_MULTIPLIER` x family
        p99, clamped into ``[AUTO_TIMEOUT_FLOOR, AUTO_TIMEOUT_CEILING]``.
        A pathological request (a spec that suddenly blows up on one
        instance) is then bounded by the family's own history instead of
        hanging a worker, while healthy requests sit far below the
        derived timeout and are untouched.  An explicit per-request
        timeout always wins over the derived value; families without
        enough history fall back to ``default_timeout``.  The p99 is the
        lifetime histogram estimate of the service's latency record (the
        ``families`` summaries of :meth:`SolverService.stats`), which is
        always on and needs no configuration.
    cache:
        Read-through result cache consulted before dispatch and filled
        after computation.  Semantics follow ``solve(..., cache=...)``:
        ``None`` defers to the process default installed via
        :func:`repro.solvers.cache.configure_cache`, ``False`` disables,
        a directory path or cache object enables.
    start_method:
        Optional multiprocessing start method for the worker pool
        (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
        platform default.
    max_sessions:
        Bound on concurrently open streaming sessions
        (:mod:`repro.service.sessions`); opening one more raises
        ``SessionLimitError``.
    max_session_tasks:
        Bound on submissions accepted per streaming session.
    session_ttl:
        Idle seconds before an open session is expired and its slot
        reclaimed; ``None`` keeps sessions forever.
    tenants:
        Multi-tenant QoS (:mod:`repro.qos`).  ``None`` (default) keeps
        the flat admission path — behaviour is exactly the un-tenanted
        service.  Otherwise a :class:`~repro.qos.tenants.TenantRegistry`,
        a mapping in the tenants-file shape, or a path to a
        ``tenants.json`` file; requests are then attributed to tenants
        and admitted through per-tenant rate limits, quotas, priority
        classes, and the weighted-fair queue.
    default_tenant:
        Tenant that untagged requests are attributed to (must name a
        registry entry).  ``None`` with tenants configured makes an
        untagged request an ``unknown_tenant`` rejection.
    trace:
        Enable span recording (:mod:`repro.obs.trace`) in this process
        when the service starts.  Off by default; with it off the wire
        format and hot-path cost are identical to an obs-less build.
    slow_request_threshold:
        Seconds above which a completed request emits one structured
        ``slow_request`` log line (with its trace id when traced);
        ``None`` (default) disables the slow-request log.
    """

    workers: int = 2
    max_pending: int = 64
    backpressure: str = "wait"
    default_timeout: Optional[float] = None
    auto_timeouts: bool = False
    cache: CacheLike = None
    start_method: Optional[str] = None
    max_sessions: int = 64
    max_session_tasks: int = 1_000_000
    session_ttl: Optional[float] = 300.0
    tenants: object = None
    default_tenant: Optional[str] = None
    trace: bool = False
    slow_request_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be > 0 or None, got {self.default_timeout}"
            )
        if self.slow_request_threshold is not None and self.slow_request_threshold <= 0:
            raise ValueError(
                f"slow_request_threshold must be > 0 or None, "
                f"got {self.slow_request_threshold}"
            )
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.max_session_tasks < 1:
            raise ValueError(
                f"max_session_tasks must be >= 1, got {self.max_session_tasks}"
            )
        if self.session_ttl is not None and self.session_ttl <= 0:
            raise ValueError(
                f"session_ttl must be > 0 or None, got {self.session_ttl}"
            )
        # Normalize the tenants source (path / mapping / registry) into a
        # validated registry once, at construction — bad tenants files fail
        # here, not mid-serving.
        object.__setattr__(
            self, "tenants", load_tenants(self.tenants, default=self.default_tenant)
        )
        if self.tenants is not None:
            object.__setattr__(self, "default_tenant", self.tenants.default)

    def with_overrides(self, **overrides: object) -> "ServiceConfig":
        """A copy of this config with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)  # type: ignore[arg-type]
