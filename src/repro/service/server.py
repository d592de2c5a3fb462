"""Network front ends for :class:`~repro.service.service.SolverService`.

Two transports speak the line-delimited JSON protocol of
:mod:`repro.service.protocol`:

* **stdio** — one client on stdin/stdout (``repro serve --stdio``); ideal
  for subprocess embedding and piping;
* **TCP** — many concurrent connections (``repro serve --port 8373``).

Both process requests *concurrently*: every request line spawns a task,
responses are written as they complete (the ``id`` echo lets clients
match them), and a per-connection lock keeps response lines atomic.
Request-level failures (bad JSON, unknown solver, capability errors,
timeouts, backpressure rejections, session errors) are reported as error
responses on the same connection — they never tear the server down.

The streaming ``session_*`` ops execute synchronously on the event loop
(placements are O(m) CPU work), so ops pipelined on one connection are
applied in line order even though each line runs in its own task —
clients may stream ``session_submit`` lines back-to-back without
awaiting each acknowledgement, **as long as each line stays under**
:data:`INLINE_DECODE_LIMIT`: a request line at or past that size is
JSON-decoded off-loop (an await), so a later small line can overtake
it.  A client sending a huge batch line must await its acknowledgement
before pipelining further ops on that session.  Expensive session
finalization (the hindsight oracle's offline solve) also runs off-loop,
after the session is sealed, so it never stalls other connections.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
from functools import partial
from typing import Awaitable, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.obs.trace import RECORDER, new_span_id, parse_wire_trace
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_processors,
    decode_message,
    encode_message,
    result_to_payload,
    instance_from_payload,
    error_code_for,
    request_key,
    result_response,
    sanitize_non_finite,
    task_from_payload,
)
from repro.service.service import SolverService

__all__ = ["handle_request", "dispatch", "serve_connection", "serve_tcp", "serve_stdio", "Handler"]

#: A request handler: one decoded request in, one response payload out —
#: a dict, or an :class:`~repro.service.protocol.EncodedResponse` for a
#: solve answered from a response tier — or ``None`` for fire-and-forget
#: requests that must not produce a response line (unacknowledged
#: ``session_submit`` ops).  The transports
#: (:func:`serve_connection` / :func:`serve_tcp` / :func:`serve_stdio`)
#: default to ``handle_request`` bound to a :class:`SolverService`, but
#: accept any handler — the cluster layer reuses the exact same line protocol,
#: concurrency, and shutdown machinery with its router's handler.
Handler = Callable[[Dict[str, object]], Awaitable[Optional[Mapping[str, object]]]]

#: Per-line buffer limit for the stream readers.  The default asyncio limit
#: (64 KiB) is far too small for a solve request carrying a few thousand
#: tasks in its instance payload; 32 MiB comfortably fits ~10^5-task
#: instances while still bounding a hostile unterminated line.
READER_LIMIT = 32 * 1024 * 1024

#: Request lines at or above this size are JSON-decoded off-loop, and solve
#: payloads with at least :data:`~repro.service.service._OFFLOAD_TASK_COUNT`
#: tasks are rebuilt off-loop, so one huge request cannot head-of-line block
#: every other connection.
INLINE_DECODE_LIMIT = 256 * 1024
OFFLOAD_TASK_COUNT = 10_000


def _tenant_field(request: Dict[str, object]) -> Optional[str]:
    """The optional ``tenant`` attribution of a request (validated)."""
    tenant = request.get("tenant")
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty tenant name string")
    return tenant


def _timeout_field(request: Dict[str, object]) -> Optional[float]:
    """The optional ``timeout`` of a ``solve`` or ``drain`` request, in seconds.

    Absent or ``null`` means no timeout; anything else must be a finite
    JSON number ``> 0`` (booleans are not numbers here).  The router
    validates with this same function.
    """
    timeout = request.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, bool) and isinstance(timeout, (int, float)) \
            and 0 < timeout < math.inf:
        try:
            return float(timeout)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ProtocolError(
        f"'timeout' must be a number of seconds, finite and > 0, got {timeout!r}"
    )


def _is_huge(data: object) -> bool:
    """Whether an instance payload is big enough to process off-loop."""
    return (
        isinstance(data, dict)
        and isinstance(data.get("tasks"), list)
        and len(data["tasks"]) >= OFFLOAD_TASK_COUNT
    )


async def _solve(service: SolverService, request: Dict[str, object]) -> Mapping[str, object]:
    """The ``solve`` op: the response tier first, the full path on a miss.

    With a result cache configured, the request digest is looked up in
    the service's response tier before anything else.  An entry exists
    only for exactly this decoded (instance, spec, params) after a full
    validated solve whose answer the cache served, so a hit skips the
    instance rebuild, the content hash and the cache read; the fields the
    digest leaves out (``timeout``, ``tenant``) are still validated, and
    the hit is ledgered like a cache hit.  The response splices the
    tier's stored result bytes behind the request id
    (:func:`~repro.service.protocol.result_response`).

    The digest is computed only where it can pay off: to look up a tier
    that holds entries, and to admit a response.  A stream of one-off
    misses leaves the tier empty and never pays for it.
    """
    request_id = request.get("id")
    data = request.get("instance")
    huge = _is_huge(data)
    loop = asyncio.get_running_loop()

    async def digest() -> str:
        if huge:
            return await loop.run_in_executor(None, request_key, request)
        return request_key(request)

    tier = service.response_tier
    key = None
    if tier is not None and len(tier) > 0:
        started = time.perf_counter()
        key = await digest()
        entry = tier.get(key)
        if entry is not None:
            service.count_tier_hit(
                entry, started,
                timeout=_timeout_field(request), tenant=_tenant_field(request),
                trace=request.get("trace"),
            )
            return result_response(request_id, entry.body)
    if huge:
        # Rebuilding a huge instance is CPU work — keep it off the event
        # loop so other connections stay responsive.
        instance = await loop.run_in_executor(None, instance_from_payload, data)
    else:
        instance = instance_from_payload(data)
    spec = request.get("spec")
    if not isinstance(spec, str) or not spec:
        raise ProtocolError("'spec' must be a non-empty spec string")
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    timeout = _timeout_field(request)
    tenant = _tenant_field(request)
    kwargs: Dict[str, object] = dict(params)
    if timeout is not None:
        kwargs["timeout"] = timeout
    if tenant is not None:
        kwargs["tenant"] = tenant
    trace_ctx = request.get("trace")
    if trace_ctx is not None:
        kwargs["trace"] = trace_ctx
    result = await service.solve(instance, spec, **kwargs)
    payload = result_to_payload(result)
    if tier is not None and result.provenance.get("cache") == "hit":
        # Admission: only answers the result cache served, so misses
        # (one-off requests), coalesced joins and errors cost no memory.
        if key is None:
            key = await digest()
        tier.put(key, payload, family=result.solver)
    return {"id": request_id, "ok": True, "result": payload}


def _session_id(request: Dict[str, object]) -> str:
    session_id = request.get("session")
    if not isinstance(session_id, str) or not session_id:
        raise ProtocolError("'session' must be a non-empty session id string")
    return session_id


def _submit_tasks(request: Dict[str, object]) -> list:
    """Parse the task(s) of a ``session_submit`` request (ProtocolError on misuse)."""
    if "task" in request and "tasks" in request:
        raise ProtocolError("give either 'task' or 'tasks', not both")
    if "task" in request:
        return [task_from_payload(request["task"])]
    if "tasks" in request:
        batch = request["tasks"]
        if not isinstance(batch, list) or not batch:
            raise ProtocolError("'tasks' must be a non-empty JSON array")
        return [task_from_payload(item) for item in batch]
    raise ProtocolError("'session_submit' needs a 'task' or 'tasks' field")


def _metrics_response(
    request: Dict[str, object], stats_payload: Dict[str, object]
) -> Dict[str, object]:
    """Build the ``metrics`` op response (shared by service and router).

    The registry is assembled fresh per request from the ``stats``
    payload — its counters and gauges, and the latency histograms its
    family and phase summaries carry (a cluster payload's are already
    the exact merge over its shards) — plus the profiler ledger.
    """
    from repro.obs.adapters import build_metrics_registry
    from repro.obs.httpd import CONTENT_TYPE

    fmt = request.get("format", "text")
    if fmt not in ("text", "dict"):
        raise ProtocolError(f"'format' must be 'text' or 'dict', got {fmt!r}")
    registry = build_metrics_registry(stats_payload)
    request_id = request.get("id")
    if fmt == "dict":
        return {"id": request_id, "ok": True,
                "metrics": sanitize_non_finite(registry.to_dict())}
    return {"id": request_id, "ok": True, "content_type": CONTENT_TYPE,
            "text": registry.render()}


def _trace_fields(request: Dict[str, object]) -> Tuple[Optional[str], bool]:
    """The ``(trace_id, clear)`` fields of a ``trace`` request, checked."""
    trace_id = request.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("'trace_id' must be a string when given")
    clear = request.get("clear", False)
    if not isinstance(clear, bool):
        raise ProtocolError("'clear' must be a JSON boolean when given")
    return trace_id, clear


def _trace_response(request: Dict[str, object]) -> Dict[str, object]:
    """Build the ``trace`` op response: this process's span ring as JSON.

    ``ring`` identifies the ring, so a router that merges its shards'
    answers counts a ring it shares with an in-process shard once.
    """
    trace_id, clear = _trace_fields(request)
    dropped = RECORDER.dropped
    spans = RECORDER.snapshot(trace_id)
    if clear:
        RECORDER.clear()
    return {"id": request.get("id"), "ok": True, "spans": spans,
            "enabled": RECORDER.enabled, "dropped": dropped, "ring": RECORDER.ring}


def _ack_field(request: Dict[str, object]) -> bool:
    """The optional ``ack`` flag of a ``session_submit`` request (validated)."""
    ack = request.get("ack", True)
    # isinstance, not `in (True, False)`: 0 == False would let a
    # loosely-typed client's `"ack": 0` slip through as acknowledged.
    if not isinstance(ack, bool):
        raise ProtocolError("'ack' must be a JSON boolean when given")
    return ack


#: One entry of a front end's op table: the front end's target (a
#: :class:`SolverService`, or the cluster router) and the decoded request
#: in, the response payload (or ``None``, see :data:`Handler`) out.
Op = Callable[[object, Dict[str, object]], Awaitable[Optional[Mapping[str, object]]]]


async def dispatch(
    ops: Mapping[str, Op], target: object, request: Dict[str, object]
) -> Optional[Mapping[str, object]]:
    """Run one decoded request through a front end's op table.

    The one dispatch of both front ends (``handle_request`` and the
    cluster router's ``handle``): ``op`` defaults to ``solve``; an op that
    is not a string naming a table entry is a ``ProtocolError`` listing
    the table's ops; and every request-level failure becomes one error
    response carrying ``type``, ``message`` and, for a rejection with a
    stable meaning, ``code`` (:func:`error_code_for`).  Cancellation is
    not a request failure and passes through.
    """
    op = request.get("op", "solve")
    try:
        handler = ops.get(op) if isinstance(op, str) else None
        if handler is None:
            *names, last = ops
            raise ProtocolError(f"unknown op {op!r}; expected {', '.join(names)}, or {last}")
        return await handler(target, request)
    except Exception as exc:  # every request-level failure becomes a response
        error: Dict[str, object] = {"type": type(exc).__name__, "message": str(exc)}
        code = error_code_for(exc)
        if code is not None:
            error["code"] = code
        return {"id": request.get("id"), "ok": False, "error": error}


async def _session_open(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    spec = request.get("spec")
    if not isinstance(spec, str) or not spec:
        raise ProtocolError("'spec' must be a non-empty online spec string")
    m = request.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ProtocolError("'m' must be a positive integer processor count")
    check_processors(m)
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    tenant = _tenant_field(request)
    session = service.session_open(spec, m, tenant=tenant, **params)
    return {"id": request.get("id"), "ok": True, **session.describe()}


async def _session_submit(
    service: SolverService, request: Dict[str, object]
) -> Optional[Dict[str, object]]:
    if not _ack_field(request):
        # Windowed mode: place now, respond NEVER — whatever happens, no
        # response line may be written for an unacknowledged op (an
        # unsolicited line would desync a pipelined client).  Parse
        # failures poison the session's window when the session is
        # identifiable; an unknown session is a dropped line (the client
        # learns at its next acknowledged op, which fails with
        # unknown-session itself).
        try:
            session_id = _session_id(request)
            tasks = _submit_tasks(request)
        except ProtocolError as exc:
            target = request.get("session")
            if isinstance(target, str) and target:
                try:
                    service.session_poison_window(target, str(exc))
                except Exception:
                    pass
            return None
        try:
            service.session_submit_unacked(session_id, tasks)
        except Exception:
            pass
        return None
    session_id = _session_id(request)
    tasks = _submit_tasks(request)
    # A buffered unacknowledged failure surfaces here, *before* the
    # current batch is applied — the client's view stops exactly at the
    # failure point.
    service.session_check_window(session_id)
    # Placements are irrevocable, so a batch is all-or-nothing: the
    # session layer validates the whole batch (duplicates, capacity,
    # sealed session) before applying any of it.
    acks = service.session_submit_many(session_id, tasks)
    window = service.session_take_window(session_id)
    last = acks[-1]
    placements = list(window)
    placements.extend([ack["task_id"], ack["processor"]] for ack in acks)
    return {
        "id": request.get("id"), "ok": True, "session": session_id,
        "placements": placements,
        "cmax": last["cmax"], "mmax": last["mmax"], "n": last["n"],
    }


async def _session_result(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    session_id = _session_id(request)
    service.session_check_window(session_id)
    result = await service.session_result(session_id)
    return {"id": request.get("id"), "ok": True, "result": result_to_payload(result)}


async def _session_export(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    session_id = _session_id(request)
    export = service.session_export(session_id)
    return {"id": request.get("id"), "ok": True, "session": session_id, "export": export}


async def _session_restore(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    export = request.get("export")
    if not isinstance(export, dict):
        raise ProtocolError("'export' must be the JSON object produced by session_export")
    state = export.get("state")
    if isinstance(state, dict):
        check_processors(state.get("m"), "export 'm'")
    session = service.session_restore(export)
    return {"id": request.get("id"), "ok": True, **session.describe()}


async def _session_close(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    session_id = _session_id(request)
    # Close always succeeds, but a poisoned windowed-ack buffer must not
    # vanish silently: the buffered failure rides along in the response
    # so the client learns its stream stopped short.
    window_error = service.session_take_window_error(session_id)
    summary = service.session_close(session_id)
    response = {"id": request.get("id"), "ok": True, "closed": True, **summary}
    if window_error is not None:
        response["window_error"] = window_error
    return response


async def _stats(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    # Idle summaries report nan percentiles; the wire carries null (with
    # or without orjson) instead of the NaN literal.
    return {"id": request.get("id"), "ok": True,
            "stats": sanitize_non_finite(service.stats().to_dict())}


async def _metrics(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    return _metrics_response(request, service.stats().to_dict())


async def _trace(_service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    return _trace_response(request)


async def _ping(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    # Pings double as cluster health probes: the ``load`` summary is O(1)
    # gauges, cheap enough to poll every couple of seconds.
    return {"id": request.get("id"), "ok": True, "pong": True,
            "protocol": PROTOCOL_VERSION, "load": service.load_summary()}


async def _drain(service: SolverService, request: Dict[str, object]) -> Dict[str, object]:
    drained = await service.drain(timeout=_timeout_field(request))
    return {"id": request.get("id"), "ok": True, "drained": drained,
            "pending": service.stats().pending}


async def _shutdown(_target: object, request: Dict[str, object]) -> Dict[str, object]:
    """The ``shutdown`` op of both front ends: acknowledged here; stopping
    the loop is the transport's job (it sees ``response["shutdown"]``)."""
    return {"id": request.get("id"), "ok": True, "shutdown": True}


#: The service's op table, in the order an unknown-op error lists it.
_SERVICE_OPS: Dict[str, Op] = {
    "solve": _solve,
    "session_open": _session_open,
    "session_submit": _session_submit,
    "session_result": _session_result,
    "session_export": _session_export,
    "session_restore": _session_restore,
    "session_close": _session_close,
    "stats": _stats,
    "metrics": _metrics,
    "trace": _trace,
    "ping": _ping,
    "drain": _drain,
    "shutdown": _shutdown,
}


async def handle_request(
    service: SolverService, request: Dict[str, object]
) -> Optional[Mapping[str, object]]:
    """Execute one decoded request against ``service`` and build the response.

    Dispatches through the service's op table (:func:`dispatch`).  Returns
    ``None`` for successfully applied *unacknowledged* submissions
    (``ack: false``) — the transport writes no response line for those.
    """
    return await dispatch(_SERVICE_OPS, service, request)


async def serve_connection(
    service: Optional[SolverService],
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
    shutdown: Optional["asyncio.Event"] = None,
    handler: Optional[Handler] = None,
) -> None:
    """Serve one client connection until EOF (or a ``shutdown`` request).

    Requests run concurrently; in-flight ones are awaited before the
    connection closes so no accepted request goes unanswered.  The
    default ``handler`` is :func:`handle_request` bound to ``service``;
    passing another handler (the cluster router's) reuses this line
    protocol and lifecycle unchanged — ``service`` may then be ``None``.
    """
    if handler is None:
        if service is None:
            raise ValueError("serve_connection needs a service or an explicit handler")
        handler = partial(handle_request, service)
    write_lock = asyncio.Lock()
    tasks: Set["asyncio.Task"] = set()

    async def respond(
        payload: Mapping[str, object],
        tctx: Optional[Tuple[str, Optional[str]]] = None,
    ) -> None:
        async with write_lock:
            try:
                if tctx is not None:
                    start = time.perf_counter()
                    data = encode_message(payload)
                    RECORDER.record(
                        "encode", "wire", tctx[0], new_span_id(), tctx[1],
                        start, time.perf_counter() - start, nbytes=len(data),
                    )
                else:
                    data = encode_message(payload)
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                # Peer went away before reading its response; the request's
                # outcome is already recorded in the service stats.
                pass

    async def process(raw: bytes) -> None:
        start = time.perf_counter()
        try:
            if len(raw) >= INLINE_DECODE_LIMIT:
                request = await asyncio.get_running_loop().run_in_executor(
                    None, decode_message, raw
                )
            else:
                request = decode_message(raw)
        except ProtocolError as exc:
            await respond({"id": None, "ok": False,
                           "error": {"type": "ProtocolError", "message": str(exc)}})
            return
        tctx = (parse_wire_trace(request.get("trace"))
                if RECORDER.enabled else None)
        if tctx is not None:
            RECORDER.record(
                "recv", "wire", tctx[0], new_span_id(), tctx[1],
                start, time.perf_counter() - start, nbytes=len(raw),
            )
        response = await handler(request)
        if response is None:  # unacknowledged op: no response line
            return
        await respond(response, tctx)
        if response.get("shutdown") and shutdown is not None:
            shutdown.set()

    shutdown_wait: Optional["asyncio.Task"] = (
        asyncio.create_task(shutdown.wait()) if shutdown is not None else None
    )
    try:
        while shutdown_wait is None or not shutdown_wait.done():
            read = asyncio.create_task(reader.readline())
            # Race the read against shutdown so a client that keeps the
            # connection open after sending {"op": "shutdown"} cannot park
            # the server in readline() forever.
            race = {read} if shutdown_wait is None else {read, shutdown_wait}
            await asyncio.wait(race, return_when=asyncio.FIRST_COMPLETED)
            if not read.done():
                read.cancel()
                try:
                    await read
                except asyncio.CancelledError:
                    pass
                break
            try:
                line = read.result()
            except ValueError as exc:
                # A line exceeding READER_LIMIT cannot be framed: report it
                # on the connection instead of dying silently, then close
                # (the stream position is unrecoverable after an overrun).
                await respond({"id": None, "ok": False,
                               "error": {"type": "ProtocolError",
                                         "message": f"request line too long: {exc}"}})
                break
            except (ConnectionError, OSError):
                # Rude disconnect (RST, killed client): just drop the
                # connection — no traceback, the server keeps serving.
                break
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.create_task(process(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if shutdown_wait is not None:
            shutdown_wait.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            writer.close()
            await writer.wait_closed()
        except asyncio.CancelledError:
            # Loop shutdown cancelled the tail flush.  The transport is
            # already closing; ending this coroutine *normally* keeps the
            # task out of the cancelled state, which CPython 3.11's
            # streams connection callback reports loudly (it calls
            # ``task.exception()`` on cancelled connection tasks).
            pass
        except (ConnectionError, OSError):  # pragma: no cover - peer went away
            pass
        except NotImplementedError:
            # The stdio pipe transport (FlowControlMixin) has no close
            # waiter; closing it above already flushed everything.
            pass


async def serve_tcp(
    service: Optional[SolverService],
    host: str = "127.0.0.1",
    port: int = 0,
    shutdown: Optional["asyncio.Event"] = None,
    handler: Optional[Handler] = None,
) -> "asyncio.base_events.Server":
    """Start a TCP server; returns the listening ``asyncio.Server``.

    ``port=0`` picks a free port (``server.sockets[0].getsockname()[1]``).
    The caller owns the server object: close it (or set ``shutdown`` via a
    client's ``shutdown`` op and watch the event) to stop accepting.
    ``handler`` overrides the per-request handler (cluster front end).
    """
    return await asyncio.start_server(
        lambda reader, writer: serve_connection(service, reader, writer, shutdown, handler),
        host=host,
        port=port,
        limit=READER_LIMIT,
    )


async def serve_stdio(
    service: Optional[SolverService], handler: Optional[Handler] = None
) -> None:
    """Serve one client on this process's stdin/stdout until EOF."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=READER_LIMIT)
    protocol = asyncio.StreamReaderProtocol(reader)
    await loop.connect_read_pipe(lambda: protocol, sys.stdin)
    transport, writer_protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, writer_protocol, None, loop)
    shutdown = asyncio.Event()
    await serve_connection(service, reader, writer, shutdown, handler)
