"""Wire-protocol fast path: JSON safety, orjson gating, one line format.

Covers:

* the deep ``_is_json_safe`` check with the ``provenance_truncated``
  marker (deeply nested provenance used to be *silently* dropped past
  depth 3);
* the ``orjson`` encode/decode fast path — exercised through a stub
  module, since the accelerator is optional and absent here: payloads
  containing non-finite floats must take the stdlib path (orjson would
  silently serialize ``inf`` as ``null``), strict payloads may take the
  fast path, and both produce the identical documented wire format;
* the non-finite scan that picks the encoder: the same answer as the
  plain recursive walk for every value, and the same bytes as the
  encoder rule written as that walk — a dict is encoded member by
  member, so a member holding ``inf`` takes the stdlib encoder while its
  siblings (a result's ``assignment``) keep the fast path, and the line
  decodes equal to the plain stdlib encoding;
* integer literals past 64 bits reach the solver as integers, not as the
  floats orjson would parse them to;
* line-delimited JSON as the only wire format — a ``negotiate`` line is
  an unknown op like any other and leaves the connection usable.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.protocol as protocol
from repro.core.instance import Instance
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    result_to_payload,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.service.service import SolverService
from repro.solvers import solve


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inst():
    return Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)


# --------------------------------------------------------------------------- #
# deep JSON safety + provenance_truncated (the silent-truncation bugfix)
# --------------------------------------------------------------------------- #
class TestProvenanceDepth:
    def _result_with_extras(self, inst, extras):
        result = solve(inst, "lpt", cache=False)
        return replace(result, provenance={**result.provenance, **extras})

    def test_depth_four_provenance_survives(self, inst):
        # Depth-4 nesting was silently dropped by the old depth-3 cutoff.
        deep = {"l1": {"l2": {"l3": {"l4": "value"}}}}
        payload = result_to_payload(self._result_with_extras(inst, {"deep": deep}))
        assert payload["extras"]["deep"] == deep
        assert "provenance_truncated" not in payload
        # And it must round-trip the wire intact.
        decoded = decode_message(encode_message(payload))
        assert decoded["extras"]["deep"] == deep

    def test_very_deep_provenance_survives(self, inst):
        nested: object = "leaf"
        for _ in range(20):
            nested = {"n": nested}
        payload = result_to_payload(self._result_with_extras(inst, {"deep": nested}))
        assert payload["extras"]["deep"] == nested
        assert "provenance_truncated" not in payload

    def test_unserializable_extra_is_marked_not_silent(self, inst):
        result = self._result_with_extras(
            inst, {"native": object(), "fine": {"a": [1, 2]}}
        )
        payload = result_to_payload(result)
        assert payload["extras"]["fine"] == {"a": [1, 2]}
        assert "native" not in payload["extras"]
        assert payload["provenance_truncated"] == ["native"]

    def test_non_string_keys_are_marked(self, inst):
        payload = result_to_payload(
            self._result_with_extras(inst, {"intkeys": {1: "x"}})
        )
        assert payload["provenance_truncated"] == ["intkeys"]

    def test_pathological_depth_still_bounded(self, inst):
        nested: object = "leaf"
        for _ in range(500):
            nested = [nested]
        payload = result_to_payload(self._result_with_extras(inst, {"mad": nested}))
        assert payload["provenance_truncated"] == ["mad"]


# --------------------------------------------------------------------------- #
# orjson gating (via stub: the accelerator is not installed in CI)
# --------------------------------------------------------------------------- #
class _FakeOrjson:
    """Mimics orjson's contract: strict JSON only, bytes out, TypeError on
    non-string keys, rejects Infinity/NaN literals on parse.  ``dumps``
    raises ``ValueError`` if a non-finite float ever reaches it — which is
    exactly the bug the ``_has_non_finite`` guard must prevent."""

    class JSONDecodeError(ValueError):
        pass

    calls: list

    def __init__(self):
        self.calls = []

    def dumps(self, obj) -> bytes:
        self._check_keys(obj)
        self.calls.append("dumps")
        return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()

    def loads(self, data):
        self.calls.append("loads")

        def reject(const):
            raise _FakeOrjson.JSONDecodeError(f"non-finite literal {const}")

        try:
            return json.loads(data, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise _FakeOrjson.JSONDecodeError(str(exc)) from None

    @classmethod
    def _check_keys(cls, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if not isinstance(k, str):
                    raise TypeError(f"non-str key {k!r}")
                cls._check_keys(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                cls._check_keys(v)


class TestOrjsonGate:
    @pytest.fixture
    def fake(self, monkeypatch):
        stub = _FakeOrjson()
        monkeypatch.setattr(protocol, "_orjson", stub)
        return stub

    def test_strict_payload_takes_fast_path(self, fake):
        payload = {"op": "solve", "spec": "lpt", "n": 3, "xs": [1.5, 2.0]}
        line = encode_message(payload)
        assert "dumps" in fake.calls
        # Byte-identical to the documented stdlib wire format.
        assert line == (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        assert decode_message(line) == payload

    def test_non_finite_payload_falls_back_to_stdlib(self, fake):
        payload = {"guarantee": [2.0, math.inf], "nan": math.nan}
        line = encode_message(payload)  # must NOT raise, must NOT nullify
        assert b"Infinity" in line
        assert "dumps" not in fake.calls
        decoded = decode_message(line)
        assert decoded["guarantee"][1] == math.inf
        assert math.isnan(decoded["nan"])

    def test_non_finite_nested_in_tuple_detected(self, fake):
        line = encode_message({"t": ({"x": [math.inf]},)})
        assert b"Infinity" in line and "dumps" not in fake.calls

    def test_non_str_keys_fall_back(self, fake):
        # stdlib json coerces int keys to strings; orjson raises TypeError.
        line = encode_message({"m": {1: "x"}})
        assert decode_message(line) == {"m": {"1": "x"}}

    def test_decode_falls_back_on_infinity_literal(self, fake):
        decoded = decode_message(b'{"cmax": Infinity}\n')
        assert decoded["cmax"] == math.inf
        assert "loads" in fake.calls  # tried the fast path first

    def test_decode_invalid_json_still_protocol_error(self, fake):
        with pytest.raises(ProtocolError):
            decode_message(b"{nope\n")

    def test_without_accelerator_everything_works(self, monkeypatch):
        monkeypatch.setattr(protocol, "_orjson", None)
        payload = {"a": [1.0, math.inf], "b": "x"}
        assert decode_message(encode_message(payload)) == payload


# --------------------------------------------------------------------------- #
# the non-finite scan: same decision as the plain walk, same bytes
# --------------------------------------------------------------------------- #
def _walk(value: object) -> bool:
    """The recursive walk the encoder rule was first written with."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_walk(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_walk(v) for v in value)
    return False


def _stdlib(value: object) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _reference_value(value: object) -> bytes:
    """The encoder rule written as the plain walk: a dict with string
    keys member by member (keys in the stdlib's ASCII form), any other
    value by orjson when it holds no non-finite float, the stdlib for
    anything else."""
    if protocol._orjson is None:
        return _stdlib(value)
    if type(value) is dict and all(type(key) is str for key in value):
        return b"{" + b",".join(
            json.dumps(key).encode("ascii") + b":" + _reference_value(member)
            for key, member in value.items()
        ) + b"}"
    if not _walk(value):
        try:
            return protocol._orjson.dumps(value)
        except TypeError:
            pass
    return _stdlib(value)


def _reference_encode(payload: object) -> bytes:
    return _reference_value(payload) + b"\n"


def _normal(line: bytes) -> str:
    """A decoded line re-encoded by the stdlib (``NaN`` compares equal)."""
    return json.dumps(json.loads(line), sort_keys=True)


class _Float(float):
    """A float subclass (as numpy's float64 is)."""


scan_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
    | st.sampled_from([math.inf, -math.inf, math.nan, _Float(math.inf), _Float(1.0)])
)
scan_values = st.recursive(
    scan_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.lists(inner, min_size=2, max_size=2), max_size=5)  # [id, proc] pairs
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)


class TestNonFiniteScan:
    @settings(max_examples=500, deadline=None)
    @given(value=scan_values)
    def test_scan_agrees_with_the_walk(self, value):
        assert protocol._has_non_finite(value) == _walk(value)

    @settings(max_examples=300, deadline=None)
    @given(value=scan_values)
    def test_bytes_equal_the_walk_rule(self, value):
        payload = {"id": 1, "ok": True, "result": {"assignment": value, "g": [1.0, math.inf]}}
        line = encode_message(payload)
        assert line == _reference_encode(payload)
        assert _normal(line) == _normal(_stdlib(payload))

    @settings(max_examples=200, deadline=None)
    @given(value=scan_values)
    def test_long_pair_lists_agree_with_the_walk(self, value):
        # Lists of _PROBE_LEN members or more are encoded before they are
        # screened (orjson writes a non-finite float as null).
        pairs = [[k, value] for k in range(protocol._PROBE_LEN)]
        assert protocol._has_non_finite(pairs) == _walk(pairs)
        payload = {"pairs": pairs, "short": [[0, value]]}
        line = encode_message(payload)
        assert line == _reference_encode(payload)
        assert _normal(line) == _normal(_stdlib(payload))

    @pytest.mark.parametrize("spec", ["lpt", "sbo(delta=1.0)", "rls(delta=3.0)",
                                      "trio(delta=3.0)", "pareto_approx"])
    def test_solver_payloads_encode_as_before(self, spec):
        inst = Instance.from_lists(p=[(7 * i) % 11 + 1 for i in range(60)],
                                   s=[(5 * i) % 13 + 1 for i in range(60)], m=4)
        payload = result_to_payload(solve(inst, spec, cache=False))
        assert protocol._has_non_finite(payload) == _walk(payload)
        line = encode_message(payload)
        assert line == _reference_encode(payload)
        assert _normal(line) == _normal(_stdlib(payload))

    def test_single_objective_result_keeps_the_fast_path(self, monkeypatch):
        # An lpt result's guarantee holds inf: only that member takes the
        # stdlib encoder, the Infinity literal stays, and the assignment is
        # still written by orjson.
        stub = _FakeOrjson()
        monkeypatch.setattr(protocol, "_orjson", stub)
        inst = Instance.from_lists(p=[(7 * i) % 11 + 1 for i in range(60)],
                                   s=[(5 * i) % 13 + 1 for i in range(60)], m=4)
        payload = {"id": 7, "ok": True,
                   "result": result_to_payload(solve(inst, "lpt", cache=False))}
        assert payload["result"]["guarantee"][1] == math.inf
        dumped = []
        real_dumps = stub.dumps
        monkeypatch.setattr(stub, "dumps", lambda obj: dumped.append(obj) or real_dumps(obj))
        line = encode_message(payload)
        assert any(obj is payload["result"]["assignment"] for obj in dumped)
        assert not any(obj is payload["result"]["guarantee"] for obj in dumped)
        assert b'"guarantee":[' in line and b"Infinity]" in line
        assert line == _reference_encode(payload)
        assert _normal(line) == _normal(_stdlib(payload))
        assert decode_message(line)["result"]["guarantee"][1] == math.inf


# --------------------------------------------------------------------------- #
# integer literals past 64 bits
# --------------------------------------------------------------------------- #
class TestBigIntegers:
    @pytest.mark.parametrize("codec", ["orjson", "stdlib"])
    def test_wire_assignment_equals_the_direct_one(self, codec, monkeypatch):
        if codec == "stdlib":
            monkeypatch.setattr(protocol, "_orjson", None)
        elif protocol._orjson is None:
            pytest.skip("orjson is not installed")
        big = 2**70
        inst = Instance.from_dict({"kind": "independent", "m": 2, "tasks": [
            {"id": big, "p": 3.0, "s": 1.0}, {"id": -(2**64), "p": 2.0, "s": 2.0},
            {"id": 7, "p": 1.0, "s": 3.0}]})
        direct = result_to_payload(solve(inst, "lpt", cache=False))["assignment"]

        async def scenario():
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(encode_message(solve_request(inst, "lpt", request_id=1)))
                    await writer.drain()
                    line = await reader.readline()
                finally:
                    writer.close()
                    server.close()
                    await server.wait_closed()
                return line

        line = run(scenario())
        assert str(big).encode() in line
        response = decode_message(line)
        assert response["ok"], response
        assert response["result"]["assignment"] == direct
        assert [big, 0] in direct or [big, 1] in direct
        assert all(type(tid) is int for tid, _ in response["result"]["assignment"])

    def test_long_digit_runs_outside_numbers_still_decode(self):
        line = b'{"id": "12345678901234567890123", "x": 0.1234567890123456789012}'
        decoded = decode_message(line)
        assert decoded == json.loads(line)


# --------------------------------------------------------------------------- #
# one wire format: line-delimited JSON over a live TCP server
# --------------------------------------------------------------------------- #
class TestLineJsonOnly:
    def test_negotiate_is_an_unknown_op(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def exchange(payload):
                    writer.write(encode_message(payload))
                    await writer.drain()
                    return decode_message(await reader.readline())

                try:
                    refused = await exchange(
                        {"op": "negotiate", "framings": ["msgpack"], "id": "n1"}
                    )
                    assert refused["id"] == "n1" and refused["ok"] is False
                    assert refused["error"]["type"] == "ProtocolError"
                    assert "unknown op" in refused["error"]["message"]

                    # Exactly one response: the next line answers the solve.
                    solved = await exchange(solve_request(inst, "lpt", request_id="s1"))
                    assert solved["id"] == "s1" and solved["ok"] is True
                    direct = solve(inst, "lpt", cache=False)
                    assert solved["result"]["cmax"] == direct.cmax
                    assert solved["result"]["mmax"] == direct.mmax

                    pong = await exchange({"op": "ping", "id": "p1"})
                    assert pong["protocol"] == PROTOCOL_VERSION == 3
                    assert "framings" not in pong
                finally:
                    writer.close()
                    await writer.wait_closed()
                server.close()
                await server.wait_closed()

        run(scenario())
