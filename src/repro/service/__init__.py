"""Async serving layer: many clients, one shared solver fleet.

The package turns the unified facade (:mod:`repro.solvers`) into a
long-running service (the ROADMAP's production-serving seam):

* :mod:`repro.service.service` — :class:`SolverService`, the asyncio
  front end over a persistent worker process pool: bounded admission with
  wait/reject backpressure, per-request and per-spec timeouts with clean
  cancellation, read-through result caching, coalescing of identical
  in-flight requests, and live stats;
* :mod:`repro.service.config` — :class:`ServiceConfig`;
* :mod:`repro.service.stats` — :class:`ServiceStats` snapshots;
* :mod:`repro.service.protocol` — the line-delimited JSON wire format;
* :mod:`repro.service.server` — the stdio and TCP transports of
  ``repro serve`` and ``repro cluster``, and the ``solve`` tier stage
  both front ends share;
* :mod:`repro.service.sessions` — per-session state for streaming
  (online) solving: ``session_open`` / ``session_submit`` /
  ``session_result`` / ``session_close`` ops backed by
  :mod:`repro.online` schedulers, with admission bounds and idle expiry;
* :mod:`repro.service.client` — :class:`ServiceClient`, the async TCP
  client (multiplexed requests + :class:`OnlineSession` handles).

Quick start (async API)::

    import asyncio
    from repro import Instance
    from repro.service import SolverService
    from repro.solvers import LRUCache

    async def main():
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
        async with SolverService(workers=2, cache=LRUCache()) as svc:
            result = await svc.solve(inst, "sbo(delta=1.0)")
            print(result.summary(), svc.stats())

    asyncio.run(main())

(``cache=`` follows ``solve()`` semantics: a cache object or directory
path enables a service-local cache, ``None`` defers to the process
default installed via :func:`repro.solvers.cache.configure_cache`.)
"""

from __future__ import annotations

from repro.service.client import OnlineSession, ServiceClient, ServiceProtocolError
from repro.service.config import ServiceConfig
from repro.service.service import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    SolverService,
)
from repro.service.sessions import (
    Session,
    SessionError,
    SessionLimitError,
    SessionManager,
    UnknownSessionError,
)
from repro.service.stats import ServiceStats

__all__ = [
    "SolverService",
    "ServiceConfig",
    "ServiceStats",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "Session",
    "SessionManager",
    "SessionError",
    "SessionLimitError",
    "UnknownSessionError",
    "ServiceClient",
    "OnlineSession",
    "ServiceProtocolError",
]
