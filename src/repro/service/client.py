"""Async client for the ``repro serve`` line-delimited JSON protocol.

:class:`ServiceClient` owns one TCP connection and multiplexes requests
over it: every request gets an auto-assigned ``id``, a background reader
task resolves the matching future when the response line arrives, so any
number of coroutines can share the connection::

    client = await ServiceClient.connect("127.0.0.1", port)
    try:
        payload = await client.solve(instance, "sbo(delta=1.0)")
        async with client.session("online_sbo(delta=1.0)", m=4) as session:
            for task in arrivals:
                placement = await session.submit(task)
            final = await session.result()
    finally:
        await client.close()

:class:`OnlineSession` wraps the ``session_*`` ops of one open session;
it is returned by :meth:`ServiceClient.session` (an async context
manager that closes the session server-side on exit).

Errors come back as :class:`ServiceProtocolError` carrying the server's
error ``type`` and ``message``.  When the error response carries a
stable ``code`` (structured rejections: over-quota, rate-limited,
backpressure, timeout, unknown tenant), the raised exception is the
matching *typed* subclass — ``except RateLimitedRejection:`` instead of
string-matching the remote message; everything else stays the base
class, uninterpreted.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Dict, Optional, Type

from repro.obs.trace import RECORDER, new_span_id, new_trace_id, wire_trace
from repro.service.protocol import (
    decode_message,
    encode_message,
    session_close_request,
    session_open_request,
    session_result_request,
    session_submit_request,
    solve_request,
)
from repro.service.server import READER_LIMIT

__all__ = [
    "ServiceClient",
    "OnlineSession",
    "ServiceProtocolError",
    "ServiceRejection",
    "OverQuotaRejection",
    "RateLimitedRejection",
    "BackpressureRejection",
    "TimeoutRejection",
    "UnknownTenantRejection",
    "SessionLostRejection",
    "rejection_class",
]


class ServiceProtocolError(RuntimeError):
    """An error response from the server (carries the remote type name).

    ``code`` is the stable machine-readable rejection code when the
    server sent one (``error.code``), else ``None``.
    """

    def __init__(self, error_type: str, message: str, code: Optional[str] = None) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message
        self.code = code


class ServiceRejection(ServiceProtocolError):
    """Base of the typed, code-carrying rejections (retryable semantics)."""


class OverQuotaRejection(ServiceRejection):
    """The tenant is at its concurrent-jobs quota (``over_quota``)."""


class RateLimitedRejection(ServiceRejection):
    """The tenant exceeded its request rate (``rate_limited``)."""


class BackpressureRejection(ServiceRejection):
    """The server is at capacity with the reject policy (``backpressure``)."""


class TimeoutRejection(ServiceRejection):
    """The per-request timeout elapsed server-side (``timeout``)."""


class UnknownTenantRejection(ServiceRejection):
    """The request named no registered tenant (``unknown_tenant``)."""


class SessionLostRejection(ServiceRejection):
    """A pinned session died with its shard and could not be replayed
    (``session_lost``) — reopen and resubmit to continue."""


_REJECTIONS: Dict[str, Type[ServiceRejection]] = {
    "over_quota": OverQuotaRejection,
    "rate_limited": RateLimitedRejection,
    "backpressure": BackpressureRejection,
    "timeout": TimeoutRejection,
    "unknown_tenant": UnknownTenantRejection,
    "session_lost": SessionLostRejection,
}


def rejection_class(code: Optional[str]) -> Type[ServiceProtocolError]:
    """The exception class an ``error.code`` maps to (base class when unknown)."""
    if code is None:
        return ServiceProtocolError
    return _REJECTIONS.get(code, ServiceRejection)


class ServiceClient:
    """One multiplexed client connection to a ``repro serve`` TCP server."""

    def __init__(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
        trace: Optional[bool] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[object, "asyncio.Future"] = {}
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        self._closed = False
        self._dead = False
        # Trace-context injection on solve(): True forces it, False forbids
        # it, None (default) follows the process-wide recorder switch — so
        # an untraced process keeps the wire byte-identical.
        self._trace = trace

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8373,
        trace: Optional[bool] = None,
    ) -> "ServiceClient":
        """Open a connection to a running server."""
        reader, writer = await asyncio.open_connection(host, port, limit=READER_LIMIT)
        return cls(reader, writer, trace=trace)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_message(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, ValueError):
            pass
        # EOF or transport loss: the connection is gone for good.  Fail
        # everything in flight AND latch `_dead` so a request issued
        # after this point raises instead of parking a future that no
        # reader will ever resolve.
        self._dead = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server connection closed"))
        self._pending.clear()

    async def request_raw(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request payload; returns the raw response dict as-is.

        Assigns an ``id`` when the payload has none.  Unlike
        :meth:`request`, an ``ok: false`` response is *returned*, not
        raised — the cluster router relays error responses to its own
        clients verbatim instead of interpreting them.  Raises
        :class:`ConnectionError` when the server goes away mid-request.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if self._dead:
            raise ConnectionError("server connection closed")
        if "id" not in payload:
            payload = {**payload, "id": f"c{next(self._ids)}"}
        future = asyncio.get_running_loop().create_future()
        self._pending[payload["id"]] = future
        try:
            self._writer.write(encode_message(payload))
            await self._writer.drain()
            return await future
        finally:
            # A cancelled/timed-out waiter or a failed write must not leak
            # its pending entry (the reader also pops it on a response).
            self._pending.pop(payload["id"], None)

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one raw request payload; returns the raw ``ok`` response.

        Assigns an ``id`` when the payload has none; raises
        :class:`ServiceProtocolError` for an ``ok: false`` response and
        :class:`ConnectionError` when the server goes away mid-request.
        """
        response = await self.request_raw(payload)
        if not response.get("ok"):
            error = response.get("error") or {}
            code = error.get("code")
            code = str(code) if isinstance(code, str) else None
            raise rejection_class(code)(
                str(error.get("type", "ServiceError")),
                str(error.get("message", "request failed")),
                code=code,
            )
        return response

    async def send(self, payload: Dict[str, object]) -> None:
        """Fire-and-forget: write one request line and expect no response.

        Used for unacknowledged (``ack: false``) session submissions —
        the server writes no response line for those, so no ``id`` is
        assigned and nothing waits.  Write backpressure is still honoured
        (``drain``), so a slow server throttles the stream instead of
        buffering it unboundedly.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if self._dead:
            raise ConnectionError("server connection closed")
        self._writer.write(encode_message(payload))
        await self._writer.drain()

    # ------------------------------------------------------------------ #
    # one-shot ops
    # ------------------------------------------------------------------ #
    async def solve(
        self,
        instance,
        spec: str,
        timeout: Optional[float] = None,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, object]:
        """Solve one instance; returns the result payload dict.

        When tracing is active (``trace=True`` on this client, or the
        process recorder enabled with ``trace`` unset) a fresh trace id is
        generated here — the ingress — and propagated on the wire; the
        end-to-end ``request`` span is recorded client-side.
        """
        tfield = None
        start = 0.0
        if self._trace if self._trace is not None else RECORDER.enabled:
            tfield = wire_trace(new_trace_id(), new_span_id())
            start = time.perf_counter()
        response = await self.request(
            solve_request(
                instance, spec, timeout=timeout, params=params, tenant=tenant,
                trace=tfield,
            )
        )
        if tfield is not None and RECORDER.enabled:
            RECORDER.record(
                "request", "client", tfield["id"], tfield["span"], None,
                start, time.perf_counter() - start, spec=str(spec),
            )
        return response["result"]  # type: ignore[return-value]

    async def ping(self) -> Dict[str, object]:
        return await self.request({"op": "ping"})

    async def stats(self) -> Dict[str, object]:
        response = await self.request({"op": "stats"})
        return response["stats"]  # type: ignore[return-value]

    async def metrics(self, format: str = "text"):
        """Unified metrics from the server (``metrics`` op).

        ``format="text"`` returns the Prometheus exposition text;
        ``format="dict"`` returns the registry's structured form
        (:meth:`repro.obs.metrics.MetricsRegistry.to_dict`).  A cluster's
        answer is already merged over its shards (from their ``stats``).
        """
        response = await self.request({"op": "metrics", "format": format})
        return response["text" if format == "text" else "metrics"]

    async def trace_dump(
        self, trace_id: Optional[str] = None, clear: bool = False
    ) -> list:
        """Spans recorded in the server process (``trace`` op).

        ``trace_id`` filters to one trace; ``clear`` empties the server's
        span ring after the snapshot.
        """
        payload: Dict[str, object] = {"op": "trace"}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if clear:
            payload["clear"] = True
        response = await self.request(payload)
        return response["spans"]  # type: ignore[return-value]

    async def shutdown(self) -> None:
        """Ask the server to stop (the connection closes afterwards)."""
        await self.request({"op": "shutdown"})

    # ------------------------------------------------------------------ #
    # streaming sessions
    # ------------------------------------------------------------------ #
    async def session_open(
        self,
        spec: str,
        m: int,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
    ) -> "OnlineSession":
        """Open a streaming session; returns its :class:`OnlineSession` handle."""
        response = await self.request(
            session_open_request(spec, m, params=params, tenant=tenant)
        )
        return OnlineSession(self, str(response["session"]), response)

    def session(
        self,
        spec: str,
        m: int,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
    ) -> "_SessionContext":
        """``async with client.session(spec, m) as s:`` — auto-closing session."""
        return _SessionContext(self, spec, m, params, tenant)

    async def close(self) -> None:
        """Close the connection (pending requests fail with ConnectionError)."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - peer went away
            pass


class OnlineSession:
    """Client-side handle of one open streaming session."""

    def __init__(self, client: ServiceClient, session_id: str, opened: Dict[str, object]) -> None:
        self.client = client
        self.id = session_id
        self.spec = str(opened.get("spec", ""))
        self.m = int(opened.get("m", 0))  # type: ignore[arg-type]

    async def submit(self, task) -> Dict[str, object]:
        """Place one arriving task; returns the placement acknowledgement."""
        return await self.client.request(session_submit_request(self.id, task))

    async def submit_many(self, tasks) -> Dict[str, object]:
        """Place a batch of tasks in one request (applied in order)."""
        return await self.client.request(session_submit_request(self.id, list(tasks)))

    async def submit_windowed(self, tasks, ack_every: int = 16) -> list:
        """Stream tasks one line each, acknowledged every ``ack_every`` lines.

        Each task is still its own wire line (placements happen strictly
        in arrival order, exactly like :meth:`submit`), but only every
        ``ack_every``-th line — and always the last — asks for a
        response, so the stream pays one round trip per *window* instead
        of one per submission.  Returns every placement as ``[task_id,
        processor]`` pairs in arrival order.  A failure inside a window
        surfaces on its acknowledgement as :class:`ServiceProtocolError`;
        placements stop at the failure point.
        """
        if ack_every < 1:
            raise ValueError(f"ack_every must be >= 1, got {ack_every}")
        tasks = list(tasks)
        placements: list = []
        for index, task in enumerate(tasks):
            payload = session_submit_request(self.id, task)
            if (index + 1) % ack_every and index + 1 < len(tasks):
                payload["ack"] = False
                await self.client.send(payload)
            else:
                response = await self.client.request(payload)
                placements.extend(response["placements"])  # type: ignore[arg-type]
        return placements

    async def result(self) -> Dict[str, object]:
        """Finalize the session; returns the solve-result payload."""
        response = await self.client.request(session_result_request(self.id))
        return response["result"]  # type: ignore[return-value]

    async def close(self) -> Dict[str, object]:
        """Close the session server-side; returns the final snapshot."""
        return await self.client.request(session_close_request(self.id))


class _SessionContext:
    """Async context manager opening/closing an :class:`OnlineSession`."""

    def __init__(self, client, spec, m, params, tenant=None) -> None:
        self._client = client
        self._spec = spec
        self._m = m
        self._params = params
        self._tenant = tenant
        self._session: Optional[OnlineSession] = None

    async def __aenter__(self) -> OnlineSession:
        self._session = await self._client.session_open(
            self._spec, self._m, self._params, tenant=self._tenant
        )
        return self._session

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if self._session is not None:
            try:
                await self._session.close()
            except (ServiceProtocolError, ConnectionError):
                # Already expired/closed server-side, or the connection died;
                # either way there is nothing left to release.
                pass
