"""Live observability of a running service: counters and latency percentiles.

:class:`ServiceStats` is an immutable snapshot produced by
:meth:`SolverService.stats` — safe to hand to monitoring code while the
service keeps running.  Its latency figures are summaries
(:func:`repro.obs.metrics.summarize`) of the service's own
fixed-boundary histograms, the one latency record every consumer reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping

__all__ = ["ServiceStats"]


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of a :class:`SolverService`.

    Counter semantics (all cumulative since service start):

    * ``submitted`` — every ``solve()`` call that passed validation;
    * ``completed`` / ``failed`` — unique jobs that finished (in the pool
      or inline);
    * ``rejected`` — submissions refused by the ``"reject"`` backpressure
      policy or by QoS, or cancelled before they joined or created a job;
    * ``timed_out`` / ``cancelled`` — waiter outcomes (a coalesced job can
      time out for one client and still complete for another);
    * ``abandoned`` — unique jobs cancelled after their last interested
      waiter timed out / was cancelled (or the service closed un-drained);
    * ``coalesced`` — requests served by piggybacking on an identical
      in-flight job;
    * ``cache_hits`` / ``cache_misses`` — read-through lookups;
    * ``inline`` — unique jobs solved on the service's event loop rather
      than in the worker pool (a cheap kernel, see
      :data:`repro.service.service.INLINE_BUDGET_S`); they also count in
      ``completed`` / ``failed``.

    Gauge semantics (instantaneous):

    * ``queue_depth`` — admitted jobs waiting for a worker slot;
    * ``in_flight`` — jobs currently executing in the pool;
    * ``pending`` — unique unfinished jobs (queued + running), the
      quantity bounded by ``ServiceConfig.max_pending``.

    ``families`` summarizes end-to-end request latency (submission to
    result, cache hits included) per solver family (registry entry
    name), so a slow family is visible even when the global percentiles
    look healthy.  Each summary is ``{count, p50, p90, p99, mean, max,
    buckets, sum}`` over the service's lifetime: percentiles are
    histogram estimates (the upper bound of the covering bucket, clamped
    to the exact ``max``), ``mean`` is ``sum / count``, and ``buckets`` /
    ``sum`` let summaries from several processes merge exactly
    (:func:`repro.obs.metrics.merge_summaries`).  The ``latency_*``
    fields are the merge of every family summary; an idle service
    reports ``nan`` (``null`` on the wire).

    ``phases`` splits *unique job* latency into its two phases, each a
    per-family breakdown like ``families``: ``phases["queue_wait"]`` is
    time spent admitted but waiting for a worker slot (zero for an
    inline job, which takes none), ``phases["exec"]`` is time executing,
    in the pool or inline — so a slow family
    is attributable to queueing vs compute at a glance (and QoS effects
    on queue wait are observable at all).

    ``tenants`` is the per-tenant QoS ledger
    (:func:`repro.qos.stats.tenant_snapshot` per tenant) when the
    service has tenants configured; empty otherwise.

    ``sessions_*`` fields cover the streaming layer
    (:mod:`repro.service.sessions`): cumulative opened / closed /
    expired / rejected / restored-by-handoff counts, total tasks
    submitted through sessions, and the instantaneous ``sessions_open``
    gauge.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timed_out: int = 0
    cancelled: int = 0
    coalesced: int = 0
    abandoned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    inline: int = 0
    queue_depth: int = 0
    in_flight: int = 0
    pending: int = 0
    latency_count: int = 0
    latency_p50: float = math.nan
    latency_p90: float = math.nan
    latency_p99: float = math.nan
    latency_mean: float = math.nan
    latency_max: float = math.nan
    families: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    phases: Mapping[str, Mapping[str, Mapping[str, object]]] = field(default_factory=dict)
    tenants: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    sessions_open: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_expired: int = 0
    sessions_rejected: int = 0
    sessions_restored: int = 0
    session_tasks: int = 0

    @property
    def lost(self) -> int:
        """Requests unaccounted for — nonzero indicates a service bug.

        Every submitted request either returned from the cache, joined an
        in-flight job, or created a unique job that is still pending or
        ended completed / failed / abandoned; waiter-side timeouts and
        cancellations never lose the underlying job.
        """
        accounted = (self.cache_hits + self.coalesced + self.rejected
                     + self.completed + self.failed + self.abandoned + self.pending)
        return self.submitted - accounted

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly dict (used by the ``stats`` protocol op)."""
        payload: Dict[str, object] = asdict(self)
        payload["lost"] = self.lost
        return payload

