"""Line-delimited JSON protocol spoken by ``repro serve``.

One request or response per line — no web framework, no framing beyond
``\\n``, so any language (or a human with ``nc``) can talk to the server.

Requests are JSON objects with an optional ``id`` (echoed verbatim in
the response so clients can multiplex) and an ``op``:

``solve`` (the default when ``op`` is omitted)
    ``{"id": 1, "instance": {...}, "spec": "sbo(delta=1.0)",
    "params": {...}, "timeout": 5.0}`` — ``instance`` is the JSON form
    produced by ``Instance.to_dict()`` / ``repro generate`` (kinds
    ``independent``, ``dag``, and ``uniform`` for speed-aware
    :class:`~repro.extensions.uniform_machines.UniformInstance`
    requests), ``params`` are optional spec overrides, ``timeout``
    optional seconds (a finite number ``> 0``, not a boolean; ``drain``
    takes the same field).
``stats``
    ``{"op": "stats"}`` — returns the service stats snapshot.
``metrics``
    ``{"op": "metrics", "format": "text"|"dict"}`` — the unified
    metrics registry (:mod:`repro.obs`): Prometheus text exposition
    (``"text"``, the default) or the structured registry dict
    (``"dict"``).  Both are rendered from the ``stats`` snapshot, so
    their latency histograms hold the same counts as its summaries.
``trace``
    ``{"op": "trace", "trace_id": "...", "clear": false}`` — dump the
    process's recorded spans (optionally one trace, optionally clearing
    the ring) as ``{"spans": [...], "enabled": ..., "dropped": ...}``;
    empty unless tracing is enabled.  The router fans this out and
    merges shard rings.
``ping``
    ``{"op": "ping"}`` — liveness probe.
``drain``
    ``{"op": "drain", "timeout": 30.0}`` — waits until no admitted job
    is pending (or the timeout elapses) and responds ``{"drained":
    true|false, "pending": k}``; the graceful-removal hook the cluster
    layer calls before retiring a backend shard.
``shutdown``
    ``{"op": "shutdown"}`` — asks the server to stop after responding.

Streaming sessions (the :mod:`repro.online` subsystem over the wire —
one open scheduler per session, tasks placed as they arrive):

``session_open``
    ``{"op": "session_open", "spec": "online_sbo(delta=1.0)", "m": 4,
    "params": {...}}`` — responds with ``{"session": "sess-1", ...}``.
``session_submit``
    ``{"op": "session_submit", "session": "sess-1",
    "task": {"id": 0, "p": 3.0, "s": 1.5}}`` (or ``"tasks": [...]`` for
    a batch) — responds with the placements
    ``{"placements": [[task_id, processor], ...], "cmax": ..., "mmax":
    ..., "n": ...}``.  Placements are irrevocable.  With ``"ack": false``
    the submission is applied but **no response line is written — ever**,
    success or failure: its placements buffer server-side and are
    prepended to the ``placements`` of the session's next acknowledged
    op (the windowed mode thin clients use to amortize round trips).  A
    failure inside the window poisons it and surfaces as the next
    acknowledged op's error response; an unacknowledged line naming an
    unknown session is dropped (the next acknowledged op fails with
    unknown-session itself).
``session_export``
    ``{"op": "session_export", "session": "sess-1"}`` — responds with
    ``{"export": {...}}``, the session's full serialized ledger state
    (arrival stream + placements + windowed-ack buffer), the source side
    of a cross-shard session handoff.
``session_restore``
    ``{"op": "session_restore", "export": {...}}`` — rebuilds an
    exported session under a fresh id by verified deterministic replay
    (divergent placements are refused); responds like ``session_open``.
``session_result``
    ``{"op": "session_result", "session": "sess-1"}`` — finalizes the
    session's schedule and responds with the same result payload shape
    as ``solve`` (idempotent; later submits are rejected).
``session_close``
    ``{"op": "session_close", "session": "sess-1"}`` — frees the
    session slot; responds with the final session snapshot.  A buffered
    unacknowledged-submission failure is not lost: it rides along as a
    ``window_error`` field in the (successful) close response.
``session_handoff`` (cluster router only)
    ``{"op": "session_handoff", "session": "csess-1", "target":
    "shard-2"}`` — moves a pinned session to another shard (``target``
    optional: the least-loaded other shard by default) by export and
    verified restore; responds with ``{"handoff": true, "from": ...,
    "shard": ..., "n": ..., "cmax": ..., "mmax": ...}``.

Distributed tracing (:mod:`repro.obs.trace`): every request may carry
an optional ``"trace": {"id": "...", "span": "..."}`` context field.
It is generated at the ingress (client or router) only when tracing is
enabled there and propagated downstream otherwise untouched — a request
without the field is byte-identical to the pre-tracing wire format.

Multi-tenant QoS (:mod:`repro.qos`): ``solve`` and ``session_open``
accept an optional ``"tenant": "name"`` field attributing the request;
servers without tenants configured ignore it.  QoS rejections (and the
pre-existing backpressure/timeout rejections) carry a stable
machine-readable ``code`` inside the error object — see below.

Responses: ``{"id": ..., "ok": true, "result": {...}}`` on success, or
``{"id": ..., "ok": false, "error": {"type": "SpecError", "message":
"..."}}``.  Rejections with a stable meaning additionally carry
``"code"`` in the error object — one of ``over_quota``,
``rate_limited``, ``backpressure``, ``timeout``, ``unknown_tenant``,
``session_lost``, ``too_large`` (:func:`error_code_for`); the free-text
``message`` and exception-class ``type`` are unchanged, so pre-QoS
clients keep working.  The solve
result payload carries everything a client needs to
reconstruct the outcome: objectives, guarantee tuple, feasibility,
canonical spec, provenance extras, wall time, and the schedule as a
``[[task_id, processor], ...]`` assignment list (task ids may be
non-string, so the assignment is not a JSON object).

Non-finite floats (``inf`` guarantees of unbounded objectives) are
serialized as the JSON-extension literals ``Infinity``/``NaN`` that
Python's ``json`` emits and parses natively — a non-Python client must
tolerate them.  **Exception:** ``stats`` and ``metrics`` payloads are
sanitized with :func:`sanitize_non_finite` before encoding — an idle
service's percentile snapshot is ``nan``-filled, and emitting the
``NaN`` literal there broke strict-JSON consumers (and round-tripped as
``null`` on the orjson fast path anyway); monitoring payloads use plain
``null`` instead, with or without orjson.

Size caps: an instance (any kind), a ``session_open`` or a
``session_restore`` export asking for more than :data:`MAX_PROCESSORS`
processors is refused up front with a ``ProtocolError`` whose code is
``too_large`` — before anything is allocated per processor.

Line-delimited JSON is the only wire format; ``ping`` reports the
protocol version (:data:`PROTOCOL_VERSION`).

Error types.  ``repro serve`` and ``repro cluster`` dispatch every op
through one function (:func:`repro.service.server.dispatch`) and check
fields with the same validators, so they answer the same errors: an op
outside the front end's list (or not a string) and every malformed field
are a ``ProtocolError``; a session id never opened, closed or expired is
an ``UnknownSessionError``; solver and session failures keep their own
types (``SpecError``, ``SolverCapabilityError``, ``SessionError``, ...).
The cluster router adds its routing-only errors: ``NoShardAvailableError``
(no live shard), ``SessionLostError`` (code ``session_lost``: the
session died with its shard and could not be replayed) and
``ClusterError`` (a shard lost during a handoff).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_key
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.instance import DAGInstance, Instance
from repro.solvers.result import SolveResult

try:  # optional accelerator; the wire format is unchanged when present
    import orjson as _orjson  # type: ignore
except ImportError:  # pragma: no cover - exercised via stub injection in tests
    _orjson = None

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "MAX_PROCESSORS",
    "check_processors",
    "ProtocolError",
    "error_code_for",
    "encode_message",
    "encode_json",
    "decode_message",
    "decode_json",
    "EncodedResponse",
    "result_response",
    "request_key",
    "sanitize_non_finite",
    "instance_from_payload",
    "task_from_payload",
    "result_to_payload",
    "solve_request",
    "session_open_request",
    "session_submit_request",
    "session_result_request",
    "session_close_request",
    "values_from_payload",
]

PROTOCOL_VERSION = 3

#: Provenance keys surfaced to clients next to the result payload.
_PROVENANCE_KEYS = ("solver", "spec", "params", "version", "cache")


#: The largest processor count a request may ask for.  Every kernel
#: allocates per-processor state, so a 100-byte request with a huge ``m``
#: would otherwise run out of memory instead of failing fast.
MAX_PROCESSORS = 65536


class ProtocolError(ValueError):
    """A request line that cannot be parsed or is structurally invalid.

    ``code``, when set, is the stable wire code of the rejection (one of
    :data:`ERROR_CODES`).
    """

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


#: The stable machine-readable rejection codes an error response may
#: carry in ``error.code`` (absent for failures without a stable
#: meaning, e.g. solver errors).
ERROR_CODES = (
    "over_quota", "rate_limited", "backpressure", "timeout", "unknown_tenant",
    "session_lost", "too_large",
)


def error_code_for(exc: BaseException) -> Optional[str]:
    """The stable wire code of a rejection exception, or ``None``.

    QoS errors carry their own ``code`` attribute; the pre-existing
    service rejections map to ``backpressure`` (overloaded) and
    ``timeout``.  Any other exception advertising a registered code via
    a ``code`` attribute (e.g. the cluster's ``SessionLostError``) is
    honored as-is.  Imported lazily so this module stays importable
    without dragging the service/QoS stacks in.
    """
    from repro.qos.tenants import QosError
    from repro.service.service import ServiceOverloadedError, ServiceTimeoutError

    if isinstance(exc, QosError):
        return exc.code
    if isinstance(exc, ServiceTimeoutError):
        return "timeout"
    if isinstance(exc, ServiceOverloadedError):
        return "backpressure"
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code in ERROR_CODES:
        return code
    return None


#: Types a container scan can pass over: never a float, never a container.
_PLAIN = frozenset({int, str, bool, type(None)})
_PLAIN_OR_FLOAT = _PLAIN | {float}


#: Lists at least this long (a result's ``[task_id, processor]`` pairs)
#: are encoded before they are screened (see :func:`encode_json`).
_PROBE_LEN = 32


def _has_non_finite(value: object) -> bool:
    """True when ``value`` contains a float ``orjson`` cannot round-trip.

    ``orjson`` silently serializes ``inf``/``nan`` as ``null`` (and rejects
    the ``Infinity`` literal on parse), while this protocol's documented
    wire form uses the JSON-extension literals stdlib ``json`` emits.  Any
    payload containing a non-finite float must therefore take the stdlib
    path.  Each container is first screened by the set of its members'
    types (C-level), so a list of plain scalars, or of lists of them,
    costs no Python call per member.
    """
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    kinds = set(map(type, value))
    if kinds <= _PLAIN:
        return False
    if kinds == {list}:
        return _has_non_finite(list(chain.from_iterable(value)))
    if kinds <= _PLAIN_OR_FLOAT:
        return not all(map(math.isfinite, (v for v in value if type(v) is float)))
    return any(map(_has_non_finite, value))


def sanitize_non_finite(value: object) -> object:
    """Copy ``value`` with every non-finite float replaced by ``None``.

    Applied to ``stats``/``metrics`` payloads at the protocol boundary:
    an idle service's latency snapshot is legitimately ``nan``-filled,
    but stdlib ``json`` would emit the non-standard ``NaN`` literal
    while the orjson fast path nullifies non-finite floats — the same
    snapshot serialized differently per encoder, and invalid strict
    JSON on one of them.  Monitoring consumers read ``null`` instead,
    identically with either encoder.  Containers are copied only as needed;
    scalars pass through.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_non_finite(item) for item in value]
    return value


#: The stdlib encoder, in the compact wire form (``json.dumps`` would
#: build a new encoder per call for the non-default separators).
_STDLIB_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_stdlib(value: object) -> bytes:
    return _STDLIB_ENCODER.encode(value).encode("utf-8")


def encode_json(value: object) -> bytes:
    """``value`` as compact JSON bytes, under the one encoder rule.

    Without ``orjson`` the stdlib encoder writes everything.  With it, a
    dict with string keys is written member by member (keys in the
    stdlib's ASCII form), so a member holding a non-finite float (a
    single-objective result's ``guarantee``) is the only one that pays
    for the stdlib encoder.  Any other value is written by ``orjson``
    when it is expressible in strict JSON (finite floats, string keys,
    integers within 64 bits), else by the stdlib.  Each value is screened
    once: a list of :data:`_PROBE_LEN` members or more (a result's
    ``assignment``) is encoded first, and its bytes are kept unless they
    hold a ``null``, which is how ``orjson`` writes a non-finite float
    (a ``None`` then passes the type scan); shorter values are type
    scanned first (:func:`_has_non_finite`).  Both encoders write the same
    wire format (the line decodes equal either way), so the fast path is
    invisible to peers.  Each member is encoded as it would be alone, so
    a response's bytes are the result's bytes spliced behind the id: a
    response tier stores a solve result in this form
    (:func:`result_response`).
    """
    if _orjson is None:
        return _encode_stdlib(value)
    if type(value) is dict and all(type(key) is str for key in value):
        return b"{" + b",".join(
            _encode_key(key).encode("ascii") + b":" + encode_json(member)
            for key, member in value.items()
        ) + b"}"
    try:
        if isinstance(value, (list, tuple)) and len(value) >= _PROBE_LEN:
            blob = _orjson.dumps(value)
            if b"null" not in blob or not _has_non_finite(value):
                return blob
        elif not _has_non_finite(value):
            return _orjson.dumps(value)
    except TypeError:
        # Non-string keys and exotic types: stdlib json coerces more
        # (e.g. int dict keys become strings).
        pass
    return _encode_stdlib(value)


def encode_message(payload: Union[Dict[str, object], EncodedResponse]) -> bytes:
    """Serialize one message to a single ``\\n``-terminated line.

    An :class:`EncodedResponse` is already its line.
    """
    if type(payload) is EncodedResponse:
        return payload.line()
    return encode_json(payload) + b"\n"


def _splice_id(request_id: object) -> Optional[bytes]:
    """The JSON of ``request_id`` when it cannot change the line's encoder.

    ``null``, an integer within orjson's range and a printable-ASCII
    string are written byte for byte alike by both encoders; any other id
    (a float, a bool, a big integer, non-ASCII text) may not be.
    """
    if request_id is None:
        return b"null"
    if type(request_id) is int and -(2 ** 63) <= request_id < 2 ** 64:
        return str(request_id).encode("ascii")
    if type(request_id) is str and request_id.isascii() and request_id.isprintable():
        return json.dumps(request_id).encode("ascii")
    return None


class EncodedResponse(Mapping):
    """A successful solve response whose ``result`` is already encoded.

    The transport writes :meth:`line` as is: the id spliced in front of
    the stored result bytes, with no dict built and no encoder run over
    the result.  In-process callers read it as the response mapping
    (``id``, ``ok``, ``result``), with ``result`` decoded from the bytes.
    Built by :func:`result_response` only for ids :func:`_splice_id`
    accepts.
    """

    __slots__ = ("id", "_head", "body")

    def __init__(self, request_id: object, head: bytes, body: bytes) -> None:
        self.id = request_id
        self._head = head
        self.body = body

    def line(self) -> bytes:
        return b'{"id":' + self._head + b',"ok":true,"result":' + self.body + b"}\n"

    def __getitem__(self, key: str) -> object:
        if key == "id":
            return self.id
        if key == "ok":
            return True
        if key == "result":
            return decode_json(self.body)
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(("id", "ok", "result"))

    def __len__(self) -> int:
        return 3


def result_response(
    request_id: object, body: bytes
) -> Union[EncodedResponse, Dict[str, object]]:
    """The ``solve`` response carrying the result ``body`` (:func:`encode_json`).

    Spliced (:class:`EncodedResponse`) when the id allows it: the id then
    cannot change which encoder ``encode_message`` picks for the whole
    response, so ``{"id":<id>,"ok":true,"result":`` + ``body`` + ``}`` is
    exactly its output.  Otherwise the response dict with the result
    decoded, which the transport then encodes whole.
    """
    head = _splice_id(request_id)
    if head is None:
        return {"id": request_id, "ok": True, "result": decode_json(body)}
    return EncodedResponse(request_id, head, body)


#: Run of digits that may be an integer literal orjson cannot hold: it
#: parses integers past its 64-bit range (-2**63 .. 2**64 - 1) as floats.
#: Every such literal has at least 19 digits; digits are mapped to ``0``
#: first, so one substring search finds any run.
_LONG_DIGITS = b"0" * 19
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")


class _OrjsonDecoded(dict):
    """A request :func:`decode_message` parsed with orjson.

    orjson refuses ``NaN``/``Infinity`` literals and numbers that overflow
    a double, and lines holding a long integer literal never reach it, so
    the value holds no non-finite float and no integer past 64 bits:
    exactly what :func:`request_key`'s round-trip check guards against.
    That holds while the request is not modified in place, which the
    serving paths never do (the router forwards a copy).
    """

    __slots__ = ()


def _loads(data: Union[str, bytes], raw: bytes) -> Tuple[object, bool]:
    """Parse one JSON document: ``(value, parsed_by_orjson)``.

    ``raw`` is ``data`` as bytes.  orjson parses it unless it holds a long
    digit run or is not strict JSON (``Infinity``/``NaN`` literals, which
    the stdlib parser accepts).
    """
    if _orjson is not None and _LONG_DIGITS not in raw.translate(_DIGITS_TO_ZERO):
        try:
            return _orjson.loads(data), True
        except _orjson.JSONDecodeError:
            pass
    try:
        return json.loads(data), False
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request line is not valid JSON: {exc}") from None


def decode_message(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one request line; raises :class:`ProtocolError` with a reason."""
    if isinstance(line, bytes):
        raw = line
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not valid UTF-8: {exc}") from None
    else:
        raw = line.encode("utf-8", "surrogatepass")
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    payload, strict = _loads(line, raw)
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return _OrjsonDecoded(payload) if strict else payload


def decode_json(body: bytes) -> Dict[str, object]:
    """The value of :func:`encode_json` bytes (a fresh copy)."""
    return _loads(body, body)[0]  # type: ignore[return-value]


def request_key(request: Dict[str, object]) -> str:
    """The content digest of one decoded solve request.

    SHA-256 over the canonical form of the fields that determine the
    answer — ``instance``, ``spec`` and ``params`` — with sorted keys, so
    the digest ignores the request ``id``, ``trace``, ``tenant``,
    ``timeout`` and the client's field order.  The router routes and
    caches by it and the service's response tier is keyed by it.

    The digest is injective over decoded requests.  With ``orjson`` the
    canonical form is its sorted-keys serialization, used only when it
    decodes back to an equal value: orjson writes NaN and ±inf as
    ``null`` and refuses ints beyond 64 bits, and those requests take the
    stdlib form instead.  A request :func:`decode_message` parsed with
    orjson holds neither, so its serialization is used without the
    round-trip parse.  Each form hashes behind its own tag, so the two
    can never collide — but a process with orjson keys a request
    differently from one without it.
    """
    routed = [request.get("instance"), request.get("spec"), request.get("params") or {}]
    if _orjson is not None:
        try:
            blob = _orjson.dumps(routed, option=_orjson.OPT_SORT_KEYS)
        except TypeError:
            pass
        else:
            if type(request) is _OrjsonDecoded or _orjson.loads(blob) == routed:
                return hashlib.sha256(b"o:" + blob).hexdigest()
    text = json.dumps(routed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(b"j:" + text.encode("utf-8")).hexdigest()


def check_processors(m: object, what: str = "'m'") -> None:
    """Refuse a processor count above :data:`MAX_PROCESSORS` (code ``too_large``).

    Only the cap is checked here; the type and sign checks stay with the
    constructors, so their messages are unchanged.
    """
    if isinstance(m, int) and not isinstance(m, bool) and m > MAX_PROCESSORS:
        raise ProtocolError(
            f"{what} asks for {m} processors; this server accepts at most "
            f"{MAX_PROCESSORS}",
            code="too_large",
        )


def instance_from_payload(data: object) -> Union[Instance, DAGInstance]:
    """Rebuild an instance from its ``to_dict()`` JSON form.

    The processor count is capped at :data:`MAX_PROCESSORS` for every
    kind; a ``uniform`` instance's count is its number of speeds.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            f"'instance' must be a JSON object (Instance.to_dict() form), "
            f"got {type(data).__name__}"
        )
    check_processors(data.get("m"), "instance 'm'")
    speeds = data.get("speeds")
    if isinstance(speeds, list):
        check_processors(len(speeds), "instance 'speeds'")
    kind = data.get("kind", "independent")
    try:
        if kind == "dag":
            return DAGInstance.from_dict(data)
        if kind == "independent":
            return Instance.from_dict(data)
        if kind == "uniform":
            from repro.extensions.uniform_machines import UniformInstance

            return UniformInstance.from_dict(data)
        if kind == "periodic":
            from repro.periodic.model import PeriodicInstance

            return PeriodicInstance.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed instance payload: {exc}") from None
    raise ProtocolError(
        f"unknown instance kind {kind!r}; expected 'independent', 'dag', "
        f"'uniform', or 'periodic'"
    )


def task_from_payload(data: object):
    """Rebuild one arriving task from its ``session_submit`` JSON form."""
    from repro.core.task import Task

    if not isinstance(data, dict):
        raise ProtocolError(
            f"'task' must be a JSON object with id/p/s, got {type(data).__name__}"
        )
    missing = [key for key in ("id", "p", "s") if key not in data]
    if missing:
        raise ProtocolError(f"task payload is missing {', '.join(map(repr, missing))}")
    try:
        return Task(id=data["id"], p=data["p"], s=data["s"], label=data.get("label"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed task payload: {exc}") from None


def _clean_float(value: float) -> float:
    # json handles inf/nan natively (non-strict literals); normalize the
    # type so numpy scalars in provenance never reach the encoder.
    return float(value)


def result_to_payload(result: SolveResult) -> Dict[str, object]:
    """Flatten a :class:`SolveResult` into its JSON wire form.

    Provenance extras that cannot be expressed in JSON (native solver
    objects, non-string dict keys, structures nested past
    :data:`_JSON_SAFE_MAX_DEPTH`) are dropped — but never silently: the
    payload then carries ``"provenance_truncated": [key, ...]`` naming
    every dropped extra, so clients can tell an absent record from an
    unserializable one.
    """
    provenance = {
        key: result.provenance[key]
        for key in _PROVENANCE_KEYS
        if key in result.provenance
    }
    extras: Dict[str, object] = {}
    truncated = []
    for key, value in result.provenance.items():
        if key in _PROVENANCE_KEYS:
            continue
        if _is_json_safe(value):
            extras[key] = value
        else:
            truncated.append(key)
    assignment = None
    if result.schedule is not None:
        assignment = [[tid, proc] for tid, proc in result.schedule.assignment_items()]
    payload: Dict[str, object] = {
        "solver": result.solver,
        "spec": result.spec,
        "feasible": result.feasible,
        "cmax": _clean_float(result.cmax),
        "mmax": _clean_float(result.mmax),
        "sum_ci": _clean_float(result.sum_ci),
        "guarantee": [_clean_float(v) for v in result.guarantee],
        "wall_time": _clean_float(result.wall_time),
        "assignment": assignment,
        "provenance": provenance,
        "extras": extras,
    }
    if truncated:
        payload["provenance_truncated"] = truncated
    return payload


#: Nesting depth past which provenance extras are considered unsafe.  A
#: genuine recursion guard, not a payload policy: any legitimately nested
#: provenance record fits well within it (the pre-fix cutoff of 3 silently
#: dropped real depth-4 records).
_JSON_SAFE_MAX_DEPTH = 64


def _is_json_safe(value: object, depth: int = _JSON_SAFE_MAX_DEPTH) -> bool:
    """True when ``value`` serializes to JSON without a custom encoder."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if depth <= 0:
        return False
    if isinstance(value, (list, tuple)):
        return all(_is_json_safe(v, depth - 1) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _is_json_safe(v, depth - 1)
            for k, v in value.items()
        )
    return False


# ------------------------------------------------------------------------- #
# client-side helpers (used by tests, benchmarks, and examples)
# ------------------------------------------------------------------------- #
def solve_request(
    instance: Union[Instance, DAGInstance],
    spec: str,
    request_id: object = None,
    timeout: Optional[float] = None,
    params: Optional[Dict[str, object]] = None,
    tenant: Optional[str] = None,
    trace: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Build a ``solve`` request payload for an instance/spec pair.

    ``trace`` is an optional trace context in wire form
    (:func:`repro.obs.trace.wire_trace`); omitted, the payload is
    byte-identical to the pre-tracing protocol.
    """
    payload: Dict[str, object] = {"op": "solve", "instance": instance.to_dict(), "spec": spec}
    if request_id is not None:
        payload["id"] = request_id
    if timeout is not None:
        payload["timeout"] = timeout
    if params:
        payload["params"] = dict(params)
    if tenant is not None:
        payload["tenant"] = tenant
    if trace is not None:
        payload["trace"] = dict(trace)
    return payload


def session_open_request(
    spec: str,
    m: int,
    request_id: object = None,
    params: Optional[Dict[str, object]] = None,
    tenant: Optional[str] = None,
) -> Dict[str, object]:
    """Build a ``session_open`` request payload."""
    payload: Dict[str, object] = {"op": "session_open", "spec": spec, "m": int(m)}
    if request_id is not None:
        payload["id"] = request_id
    if params:
        payload["params"] = dict(params)
    if tenant is not None:
        payload["tenant"] = tenant
    return payload


def _task_payload(task) -> Dict[str, object]:
    record: Dict[str, object] = {"id": task.id, "p": task.p, "s": task.s}
    if getattr(task, "label", None):
        record["label"] = task.label
    return record


def session_submit_request(
    session: str,
    tasks,
    request_id: object = None,
) -> Dict[str, object]:
    """Build a ``session_submit`` request for one :class:`Task` or a sequence."""
    payload: Dict[str, object] = {"op": "session_submit", "session": session}
    if isinstance(tasks, (list, tuple)):
        payload["tasks"] = [_task_payload(t) for t in tasks]
    else:
        payload["task"] = _task_payload(tasks)
    if request_id is not None:
        payload["id"] = request_id
    return payload


def session_result_request(session: str, request_id: object = None) -> Dict[str, object]:
    """Build a ``session_result`` request payload."""
    payload: Dict[str, object] = {"op": "session_result", "session": session}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def session_close_request(session: str, request_id: object = None) -> Dict[str, object]:
    """Build a ``session_close`` request payload."""
    payload: Dict[str, object] = {"op": "session_close", "session": session}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def values_from_payload(payload: Dict[str, object]) -> Tuple[float, float, float]:
    """The ``(cmax, mmax, sum_ci)`` triple of a solve response payload."""
    return (
        float(payload["cmax"]),  # type: ignore[arg-type]
        float(payload["mmax"]),  # type: ignore[arg-type]
        float(payload["sum_ci"]),  # type: ignore[arg-type]
    )
