"""The line-protocol transports, shared by both front ends.

A *front end* is what the transports serve: a
:class:`~repro.service.service.SolverService` (``repro serve``) or a
:class:`~repro.cluster.router.ClusterRouter` (``repro cluster``).  Both
satisfy :class:`FrontEnd`: ``handle(request)`` answers one decoded
request, ``response_tier`` is the digest-keyed response tier (or
``None``), and ``count_tier_hit`` ledgers one answer the tier gave.
Everything here runs the same code for either of them.

Two transports speak the line-delimited JSON protocol of
:mod:`repro.service.protocol`:

* **stdio** — one client on stdin/stdout (``repro serve --stdio``); ideal
  for subprocess embedding and piping;
* **TCP** — many concurrent connections (``repro serve --port 8373``).

Both process requests *concurrently*.  A connection reads whatever its
client has sent and takes every complete line in it in one pass.  A
``solve`` line that repeats, byte for byte but for its id, a line the
front end's response tier already served is answered on the spot from
its raw bytes (:meth:`~repro.service.tier.ResponseTier.match`): no
decode, no digest, no task — unless a task started for an earlier line
has not run yet, so lines are still charged to their tenants in line
order.  Every other line gets one task, in line order, and
its response is written when it completes (the ``id`` echo lets clients
match them); the answers ready in a pass go out in one write.  While the
transport holds more unsent responses than its high-water mark the
connection reads nothing, so a client that does not read its answers
cannot make the server buffer without bound.
Request-level failures (bad JSON, unknown solver, capability errors,
timeouts, backpressure rejections, session errors) are reported as error
responses on the same connection — they never tear the server down.

A decoded ``solve`` runs :func:`tier_stage` first on both front ends:
it checks the fields the digest leaves out and answers a repeat from
the tier before anything else happens.

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
from contextvars import ContextVar
from typing import (
    TYPE_CHECKING, Awaitable, Callable, Dict, List, Mapping, NamedTuple, Optional, Protocol,
    Set, Tuple, Union,
)

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

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.service.service import SolverService
    from repro.service.tier import ResponseTier, TierEntry

__all__ = [
    "FrontEnd", "Miss", "dispatch", "tier_stage",
    "serve_connection", "serve_tcp", "serve_stdio",
]


class FrontEnd(Protocol):
    """What the transports serve: a ``SolverService`` or a ``ClusterRouter``.

    ``handle`` answers one decoded request: a dict, an
    :class:`~repro.service.protocol.EncodedResponse` for a solve the tier
    answered, or ``None`` where no response line is written (an
    unacknowledged ``session_submit``).  ``response_tier`` is the front
    end's tier or ``None``; ``count_tier_hit`` ledgers one solve the tier
    answered, or raises its rejection.
    """

    response_tier: Optional["ResponseTier"]

    async def handle(self, request: Dict[str, object]) -> Optional[Mapping[str, object]]:
        ...

    def count_tier_hit(
        self, entry: "TierEntry", started: float, *, timeout: Optional[float] = None,
        tenant: Optional[str] = None, trace: object = None,
    ) -> None:
        ...


#: Per-line limit of the connection loop and buffer limit of the stream
#: readers.  The default asyncio limit (64 KiB) is far too small for a
#: solve request carrying a few thousand tasks in its instance payload;
#: 32 MiB comfortably fits ~10^5-task instances while still bounding a
#: hostile unterminated line, which gets one ``too_large`` error.
READER_LIMIT = 32 * 1024 * 1024

#: Request lines at or above this size are JSON-decoded off-loop, and solve
#: payloads with at least :data:`OFFLOAD_TASK_COUNT` tasks are digested and
#: rebuilt off-loop, so one huge request cannot head-of-line block every
#: other connection.
INLINE_DECODE_LIMIT = 256 * 1024

#: Instances at or above this task count are processed off-loop: their
#: payload here, their content hash in the service.
OFFLOAD_TASK_COUNT = 10_000

#: The raw line of the request a connection's task is serving, when it is
#: short enough to alias (see :func:`tier_stage`).  A router forwards a
#: request without its id, so an in-process shard never aliases the line.
_RAW_LINE: ContextVar[Optional[bytes]] = ContextVar("raw_line", default=None)


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


class Miss(NamedTuple):
    """A ``solve`` request :func:`tier_stage` did not answer, with its checked fields."""

    timeout: Optional[float]
    tenant: Optional[str]
    #: Whether the instance payload is processed off-loop (:func:`_is_huge`).
    huge: bool
    #: The request digest, when the stage computed it.
    key: Optional[str] = None

    async def digest(self, request: Dict[str, object]) -> str:
        """The request digest: the stage's, else computed now (off-loop when huge)."""
        if self.key is not None:
            return self.key
        if self.huge:
            return await asyncio.get_running_loop().run_in_executor(None, request_key, request)
        return request_key(request)


async def tier_stage(
    front: FrontEnd, request: Dict[str, object]
) -> Union[Mapping[str, object], Miss]:
    """Stage 0 of a ``solve`` on both front ends: the response tier.

    Validates the fields the request digest leaves out (``timeout``,
    ``tenant``), so a tier hit cannot accept what the full path rejects.
    When the front end's tier holds entries it looks the digest up; an
    entry exists only for exactly this decoded (instance, spec, params),
    so a hit skips the instance rebuild, the content hash, the cache read
    and, on a router, the shards.  The hit is ledgered by
    ``front.count_tier_hit`` (slot-free, like a cache hit), admits the
    request's raw line as an alias of the entry
    (:meth:`~repro.service.tier.ResponseTier.alias`) so its next repeat
    is answered by :func:`serve_connection` from its bytes, and returns
    the response spliced from the stored result bytes
    (:func:`~repro.service.protocol.result_response`).

    The digest is computed only where it can pay off: a stream of one-off
    misses leaves the tier empty and never pays for it.  Anything else
    returns a :class:`Miss` for the front end's own path.
    """
    timeout = _timeout_field(request)
    tenant = _tenant_field(request)
    miss = Miss(timeout, tenant, _is_huge(request.get("instance")))
    tier = front.response_tier
    if tier is None or len(tier) == 0:
        return miss
    started = time.perf_counter()
    key = await miss.digest(request)
    entry = tier.get(key)
    if entry is None:
        return miss._replace(key=key)
    front.count_tier_hit(entry, started, timeout=timeout, tenant=tenant,
                         trace=request.get("trace"))
    line = _RAW_LINE.get()
    if line is not None:
        tier.alias(line, request, key, timeout, tenant)
    return result_response(request.get("id"), entry.body)


async def _solve(service: SolverService, request: Dict[str, object]) -> Mapping[str, object]:
    """The service's ``solve`` op: :func:`tier_stage`, then the full path on a miss.

    The service's tier admits only answers its result cache served, so
    one-off misses, coalesced joins and errors cost it no memory.  On a
    miss the QoS attribution (:meth:`SolverService.attribute`) runs before
    the instance is rebuilt and the spec is checked, as a router does: an
    unknown tenant is one ``UnknownTenantError`` on both front ends,
    whatever else the request gets wrong.
    """
    miss = await tier_stage(service, request)
    if not isinstance(miss, Miss):
        return miss
    tenant_cfg = service.attribute(miss.tenant)
    data = request.get("instance")
    try:
        if miss.huge:
            # Rebuilding a huge instance is CPU work — keep it off the event
            # loop so other connections stay responsive.
            instance = await asyncio.get_running_loop().run_in_executor(
                None, instance_from_payload, data
            )
        else:
            instance = instance_from_payload(data)
        spec = request.get("spec")
        if not isinstance(spec, str) or not spec:
            raise ProtocolError("'spec' must be a non-empty spec string")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
    except BaseException:
        service.refuse(tenant_cfg)
        raise
    kwargs: Dict[str, object] = dict(params)
    if miss.timeout is not None:
        kwargs["timeout"] = miss.timeout
    trace_ctx = request.get("trace")
    if trace_ctx is not None:
        kwargs["trace"] = trace_ctx
    result = await service.solve_attributed(tenant_cfg, instance, spec, **kwargs)
    payload = result_to_payload(result)
    tier = service.response_tier
    if tier is not None and result.provenance.get("cache") == "hit":
        tier.put(await miss.digest(request), payload, family=result.solver)
    return {"id": request.get("id"), "ok": True, "result": payload}


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


#: One entry of a front end's op table: the front end (a
#: :class:`SolverService`, or the cluster router) and the decoded request
#: in, the response payload (or ``None``, see :meth:`FrontEnd.handle`) out.
Op = Callable[[object, Dict[str, object]], Awaitable[Optional[Mapping[str, object]]]]


def _error_response(request_id: object, exc: Exception) -> Dict[str, object]:
    """The error response to a request that failed with ``exc``."""
    error: Dict[str, object] = {"type": type(exc).__name__, "message": str(exc)}
    code = error_code_for(exc)
    if code is not None:
        error["code"] = code
    return {"id": request_id, "ok": False, "error": error}


async def dispatch(
    ops: Mapping[str, Op], target: object, request: Dict[str, object]
) -> Optional[Mapping[str, object]]:
    """Run one decoded request through a front end's op table.

    The one dispatch of both front ends (``SolverService.handle`` and
    ``ClusterRouter.handle``): ``op`` defaults to ``solve``; an op that
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
        return _error_response(request.get("id"), exc)


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


async def serve_connection(
    front: FrontEnd,
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
    shutdown: Optional["asyncio.Event"] = None,
) -> None:
    """Serve one client connection until EOF (or a ``shutdown`` request).

    Requests run concurrently through ``front.handle``; in-flight ones
    are awaited before the connection closes so no accepted request goes
    unanswered.  Repeat lines are answered from ``front.response_tier``
    by their raw bytes.  Cancelled at loop teardown, the connection still
    cleans up and ends normally.
    """
    limit = READER_LIMIT
    transport = writer.transport
    high_water = transport.get_write_buffer_limits()[1]
    tasks: Set["asyncio.Task"] = set()
    # Tasks started whose first step has not run yet.  A line behind one
    # is not answered from its raw bytes, so every line is charged (QoS,
    # rate limits, ledger) in line order, as each task's first step does.
    unstarted = 0

    def send(data: bytes) -> None:
        # A peer that went away loses its responses; the requests'
        # outcomes are already recorded in the service stats.
        if not transport.is_closing():
            writer.write(data)

    def answer_from_tier(line: bytes) -> Optional[bytes]:
        """The response line to a repeat of an aliased line, else ``None``."""
        tier = front.response_tier
        if tier is None:
            return None
        started = time.perf_counter()
        match = tier.match(line)
        if match is None:
            return None
        request_id, entry, timeout, tenant = match
        try:
            front.count_tier_hit(entry, started, timeout=timeout, tenant=tenant)
        except Exception as exc:
            return encode_message(_error_response(request_id, exc))
        return encode_message(result_response(request_id, entry.body))

    async def process(raw: bytes, aliasable: bool) -> None:
        nonlocal unstarted
        unstarted -= 1
        start = time.perf_counter()
        try:
            if len(raw) >= INLINE_DECODE_LIMIT:
                request = await asyncio.get_running_loop().run_in_executor(
                    None, decode_message, raw
                )
            else:
                request = decode_message(raw)
        except ProtocolError as exc:
            send(encode_message({"id": None, "ok": False,
                                 "error": {"type": "ProtocolError", "message": str(exc)}}))
            return
        tctx = (parse_wire_trace(request.get("trace"))
                if RECORDER.enabled else None)
        if tctx is not None:
            RECORDER.record(
                "recv", "wire", tctx[0], new_span_id(), tctx[1],
                start, time.perf_counter() - start, nbytes=len(raw),
            )
        if aliasable:
            _RAW_LINE.set(raw)  # this task's own context
        response = await front.handle(request)
        if response is None:  # unacknowledged op: no response line
            return
        if tctx is not None:
            start = time.perf_counter()
            data = encode_message(response)
            RECORDER.record(
                "encode", "wire", tctx[0], new_span_id(), tctx[1],
                start, time.perf_counter() - start, nbytes=len(data),
            )
        else:
            data = encode_message(response)
        send(data)
        if response.get("shutdown") and shutdown is not None:
            shutdown.set()

    def take(line: bytes, ready: List[bytes]) -> None:
        """Answer one complete line now or start its task."""
        nonlocal unstarted
        if not line or line.isspace():
            return
        aliasable = len(line) < INLINE_DECODE_LIMIT
        if aliasable and not unstarted:
            response = answer_from_tier(line)
            if response is not None:
                ready.append(response)
                return
        unstarted += 1
        task = asyncio.create_task(process(line, aliasable))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def read_lines() -> None:
        held: List[bytes] = []  # the unterminated line read so far
        held_size = 0
        while True:
            try:
                if transport.get_write_buffer_size() > high_water:
                    # Read nothing more until the client takes its answers.
                    await writer.drain()
                chunk = await reader.read(limit + 1)
            except (ConnectionError, OSError):
                # Rude disconnect (RST, killed client): just drop the
                # connection — no traceback, the server keeps serving.
                return
            if not chunk:  # EOF: a last line without "\n" is still a request
                lines = [b"".join(held)]
            else:
                lines = chunk.split(b"\n")
                if len(lines) == 1:
                    held.append(chunk)
                    held_size += len(chunk)
                    lines = []
                else:
                    held.append(lines[0])
                    lines[0] = b"".join(held)
                    last = lines.pop()
                    held, held_size = [last], len(last)
            ready: List[bytes] = []
            too_long = held_size > limit
            for line in lines:
                if len(line) > limit:
                    too_long = True
                    break
                take(line, ready)
            if ready:
                send(b"".join(ready))
            if too_long:
                # A line past the limit cannot be framed: report it on the
                # connection, then close (its end is not worth waiting for).
                send(encode_message({"id": None, "ok": False, "error": {
                    "type": "ProtocolError",
                    "message": f"request line too long: over {limit} bytes",
                    "code": "too_large"}}))
                return
            if not chunk:
                return

    try:
        if shutdown is None:
            await read_lines()
        else:
            # One watch for the whole connection: a client that keeps the
            # connection open after sending {"op": "shutdown"} cannot park
            # the server in a read forever.
            reading = asyncio.create_task(read_lines())
            shutdown_wait = asyncio.create_task(shutdown.wait())
            try:
                await asyncio.wait({reading, shutdown_wait},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                shutdown_wait.cancel()
                reading.cancel()
                try:
                    await reading
                except asyncio.CancelledError:
                    pass
    except asyncio.CancelledError:
        # Loop teardown cancelled the connection in its read.  Clean up
        # below and end *normally*: CPython 3.11's streams connection
        # callback calls ``task.exception()`` on a cancelled connection
        # task, which logs a ``CancelledError`` traceback.
        pass
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        try:
            writer.close()
            await writer.wait_closed()
        except asyncio.CancelledError:
            pass  # loop teardown cancelled the tail flush, as above
        except (ConnectionError, OSError):  # pragma: no cover - peer went away
            pass
        except NotImplementedError:
            # The stdio pipe transport (FlowControlMixin) has no close
            # waiter; closing it above already flushed everything.
            pass


async def serve_tcp(
    front: FrontEnd,
    host: str = "127.0.0.1",
    port: int = 0,
    shutdown: Optional["asyncio.Event"] = None,
) -> "asyncio.base_events.Server":
    """Start a TCP server for ``front``; returns the listening ``asyncio.Server``.

    ``port=0`` picks a free port (``server.sockets[0].getsockname()[1]``).
    The caller owns the server object: close it (or set ``shutdown`` via a
    client's ``shutdown`` op and watch the event) to stop accepting.
    """
    return await asyncio.start_server(
        lambda reader, writer: serve_connection(front, reader, writer, shutdown),
        host=host,
        port=port,
        limit=READER_LIMIT,
    )


async def serve_stdio(front: FrontEnd) -> None:
    """Serve one client of ``front`` on this process's stdin/stdout until EOF."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=READER_LIMIT)
    protocol = asyncio.StreamReaderProtocol(reader)
    await loop.connect_read_pipe(lambda: protocol, sys.stdin)
    transport, writer_protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, writer_protocol, None, loop)
    shutdown = asyncio.Event()
    await serve_connection(front, reader, writer, shutdown)
