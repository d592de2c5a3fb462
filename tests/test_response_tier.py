"""The request digest and the digest-keyed response tier.

* **digest** — :func:`repro.service.protocol.request_key` is injective
  over decoded requests (property-tested over JSON values, with and
  without orjson), ignores the fields outside the answer, and is what
  the cluster's routing module re-exports;
* **tier** — :class:`repro.service.tier.ResponseTier` honours both of its
  bounds and stores each result as its encoded bytes;
* **splice** — a tier hit, from the service and from the router, writes
  the stored bytes behind the request id, byte-identical to encoding the
  whole response, for every JSON id type, with and without non-finite
  floats, with and without orjson; a request orjson decoded gets the
  same digest without the round-trip parse;
* **service contract** — over TCP a tier hit is byte-identical to the
  disk-cache hit it replays, skips the instance rebuild, is ledgered as
  a cache hit, still passes QoS rate limits, and only cache-served
  responses are ever admitted;
* **strict ``m``** — a non-integer processor count is one typed error on
  the wire and leaves no cache or tier entry behind;
* **strict ``timeout``** — a boolean, non-finite or non-positive
  ``timeout`` is one typed error on ``solve`` and ``drain``, from the
  service and from the router, and unbalances no ledger;
* **aliases** — a repeat line is answered from its raw bytes only when
  it opens with a plain integer id; every other id form, a string id, a
  second ``id`` key, a ``trace`` field and a whitespace variant take the
  decoding path and answer as it does; QoS and timeout errors and the
  per-tenant ledgers are those of the decoding path, one line at a time
  and pipelined; an entry keeps its first alias, so a second version of
  the request pays no second decode; an alias hit refreshes its entry,
  and aliases are bounded and evicted with the entries.
"""

from __future__ import annotations

import asyncio
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, routing
from repro.core.instance import DAGInstance, Instance
from repro.extensions.uniform_machines import UniformInstance
from repro.online.arrivals import ArrivalTrace
from repro.periodic.model import PeriodicInstance
from repro.qos.tenants import TenantConfig, TenantRegistry
from repro.service import ServiceConfig, SolverService, protocol, server
from repro.service.protocol import (
    EncodedResponse,
    ProtocolError,
    decode_message,
    decode_json,
    encode_message,
    instance_from_payload,
    request_key,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.service import tier as tier_module
from repro.service.tier import ResponseTier, split_id
from repro.solvers import LRUCache

from _service_helpers import make_sleepy_entry, registered
from make_golden import golden_instances, golden_specs


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inst() -> Instance:
    return Instance.from_lists(p=[4, 3, 2, 2, 1, 6, 5], s=[1, 5, 2, 4, 3, 2, 6], m=3)


# --------------------------------------------------------------------------- #
# digest
# --------------------------------------------------------------------------- #
CODECS = ["orjson", "stdlib"]


def _with_codec(codec: str, monkeypatch: pytest.MonkeyPatch) -> None:
    if codec == "stdlib":
        monkeypatch.setattr(protocol, "_orjson", None)
    elif protocol._orjson is None:
        pytest.skip("orjson is not installed")


def _tagged(value):
    """A type-strict structural form: equal exactly when two decoded JSON
    values are the same value (``1``, ``1.0`` and ``true`` differ, ``-0.0``
    and ``0.0`` differ, dict key order does not count)."""
    if value is None or isinstance(value, (bool, str)):
        return (type(value).__name__, value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value) else value.hex())
    if isinstance(value, list):
        return ("list", tuple(_tagged(v) for v in value))
    return ("dict", tuple(sorted((k, _tagged(v)) for k, v in value.items())))


def _reordered(value):
    """The same value with every dict's field order reversed."""
    if isinstance(value, list):
        return [_reordered(v) for v in value]
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    return value


json_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**65)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1.0, 1, True, 0, False])
    | st.text(max_size=6)
    | st.sampled_from(["é", "e", " ", "日本", "\U0001f600"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _request(instance, params=None, **extra):
    request = {"op": "solve", "instance": instance, "spec": "lpt", **extra}
    if params is not None:
        request["params"] = params
    return request


class TestDigest:
    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=300, deadline=None)
    @given(a=json_values, b=json_values)
    def test_injective_over_json_values(self, codec, a, b):
        with pytest.MonkeyPatch.context() as mp:
            _with_codec(codec, mp)
            same = _tagged(a) == _tagged(b)
            assert (request_key(_request(a)) == request_key(_request(b))) == same
            nested_a, nested_b = {"x": {"y": [a]}}, {"x": {"y": [b]}}
            assert (request_key(_request(None, nested_a))
                    == request_key(_request(None, nested_b))) == same

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=150, deadline=None)
    @given(value=json_values)
    def test_equal_values_give_equal_keys(self, codec, value):
        with pytest.MonkeyPatch.context() as mp:
            _with_codec(codec, mp)
            base = request_key(_request(value, {"p": value}))
            assert request_key(_request(_reordered(value), _reordered({"p": value}))) == base

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize(
        "a, b",
        [
            (math.nan, None), (math.inf, None), (-math.inf, None),
            (math.inf, -math.inf), (-0.0, 0.0), (1, 1.0), (1, True),
            (1.0, True), (0, False), (None, False), ("é", "e"),
            (2**64, 2**64 + 1), (2**64, float(2**64)), (2**64, str(2**64)),
            ([1, 2], [2, 1]), ({"a": 1}, {"a": 1.0}), ([None], [math.nan]),
        ],
    )
    def test_edge_pairs_key_apart(self, codec, a, b, monkeypatch):
        _with_codec(codec, monkeypatch)
        assert request_key(_request(a)) != request_key(_request(b))
        assert request_key(_request(None, {"k": [a]})) != request_key(_request(None, {"k": [b]}))

    @pytest.mark.parametrize("codec", CODECS)
    def test_ignores_fields_outside_the_answer(self, codec, inst, monkeypatch):
        _with_codec(codec, monkeypatch)
        base = solve_request(inst, "sbo(delta=1.0)", params={"inner": "lpt"})
        variant = solve_request(
            inst, "sbo(delta=1.0)", params={"inner": "lpt"}, request_id=99,
            timeout=3.0, tenant="alice", trace={"id": "t1", "span": "s1"},
        )
        variant = _reordered(variant)
        assert list(variant) != list(base)
        assert request_key(variant) == request_key(base)
        assert request_key(solve_request(inst, "sbo(delta=2.0)")) != request_key(
            solve_request(inst, "sbo(delta=1.0)"))

    def test_forms_are_tagged_apart(self, inst):
        if protocol._orjson is None:
            pytest.skip("orjson is not installed")
        finite = _request(inst.to_dict())
        fast = request_key(finite)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_orjson", None)
            slow = request_key(finite)
        # The same request keys differently per codec (deterministic per
        # environment), and a non-finite float takes the tagged stdlib form.
        assert fast != slow
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_orjson", None)
            stdlib_nan = request_key(_request([math.nan]))
        assert request_key(_request([math.nan])) == stdlib_nan

    def test_routing_reexports_the_one_digest(self):
        assert routing.request_key is request_key


class TestDigestWithoutReparse:
    @settings(max_examples=300, deadline=None)
    @given(instance=json_values, params=json_values, rid=json_scalars)
    def test_same_digest_with_and_without_the_reparse(self, instance, params, rid):
        request = {"id": rid, "op": "solve", "instance": instance, "spec": "lpt",
                   "params": params}
        decoded = decode_message(encode_message(request))
        # A plain copy is not marked as orjson-decoded: it takes the check.
        assert request_key(decoded) == request_key(dict(decoded))
        assert request_key(decoded) == request_key(request)

    def test_an_orjson_decoded_request_is_not_parsed_again(self, inst, monkeypatch):
        if protocol._orjson is None:
            pytest.skip("orjson is not installed")
        real = protocol._orjson
        loads = []

        class Counting:
            JSONDecodeError = real.JSONDecodeError
            OPT_SORT_KEYS = real.OPT_SORT_KEYS
            dumps = staticmethod(real.dumps)

            @staticmethod
            def loads(data):
                loads.append(1)
                return real.loads(data)

        monkeypatch.setattr(protocol, "_orjson", Counting)
        decoded = decode_message(encode_message(solve_request(inst, "lpt", request_id=1)))
        assert loads == [1]
        key = request_key(decoded)
        assert loads == [1]
        assert request_key(dict(decoded)) == key and loads == [1, 1]

    def test_a_long_integer_literal_is_parsed_exactly(self):
        for value in (2**70, -(2**64), 2**64 - 1, -(2**63)):
            decoded = decode_message(f'{{"instance": [{value}], "spec": "lpt"}}'.encode())
            assert decoded["instance"] == [value] and type(decoded["instance"][0]) is int


# --------------------------------------------------------------------------- #
# the tier's bounds
# --------------------------------------------------------------------------- #
def _payload(n: int, cache: str = "miss") -> dict:
    return {"solver": "lpt", "assignment": [[i, 0] for i in range(n)],
            "provenance": {"solver": "lpt", "cache": cache}}


class TestResponseTier:
    def test_lru_entry_bound(self):
        tier = ResponseTier(max_entries=2, max_tasks=100)
        tier.put("a", _payload(1))
        tier.put("b", _payload(1))
        assert tier.get("a") is not None  # touch: b is now least recent
        tier.put("c", _payload(1))
        assert tier.get("b") is None
        assert tier.get("a") is not None and tier.get("c") is not None
        assert len(tier) == 2

    def test_size_budget_is_never_exceeded(self):
        tier = ResponseTier(max_entries=100, max_tasks=50)
        for i, n in enumerate([10, 30, 20, 49, 5, 50, 1, 25, 40]):
            tier.put(str(i), _payload(n))
            assert tier.get(str(i)) is not None
            assert tier.tasks == sum(e.size for e in tier._entries.values()) <= 50
        tier.put("huge", _payload(51))
        assert tier.get("huge") is None and tier.tasks <= 50

    def test_replacing_a_key_keeps_the_size_exact(self):
        tier = ResponseTier(max_entries=10, max_tasks=100)
        tier.put("a", _payload(30))
        tier.put("a", _payload(10))
        assert tier.tasks == 10 and len(tier) == 1

    def test_stored_payloads_are_stamped_hit(self):
        tier = ResponseTier()
        tier.put("k", _payload(3, cache="miss"), family="lpt")
        entry = tier.get("k")
        assert entry.family == "lpt"
        assert entry.body == encode_message(_payload(3, cache="hit"))[:-1]
        assert decode_json(entry.body)["provenance"]["cache"] == "hit"
        served = _payload(3, cache="hit")
        tier.put("h", served)
        assert tier.get("h").body == encode_message(served)[:-1]


# --------------------------------------------------------------------------- #
# spliced tier hits: byte identity with the full encode
# --------------------------------------------------------------------------- #
request_ids = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**65)
    | st.integers(min_value=-(2**65), max_value=-(2**63) + 2)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
    | st.sampled_from(['"', "\\", "\x7f", "\n", "é", "a/b", "</s>"])
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NON_FINITE = [math.inf, -math.inf, math.nan]


@st.composite
def result_payloads(draw, non_finite: bool) -> dict:
    """A solve result payload; with ``non_finite`` one float in it is not."""
    task_ids = (st.integers(min_value=0, max_value=2**70) | st.text(max_size=3)
                | finite_floats)
    payload = {
        "solver": "lpt", "spec": "lpt", "feasible": draw(st.booleans()),
        "cmax": draw(finite_floats), "mmax": draw(finite_floats),
        "sum_ci": draw(finite_floats),
        "guarantee": draw(st.lists(finite_floats, min_size=1, max_size=3)),
        "wall_time": draw(finite_floats),
        "assignment": draw(st.lists(st.tuples(task_ids, st.integers(0, 64)).map(list),
                                    max_size=10)),
        "provenance": {"solver": "lpt", "spec": "lpt",
                       "params": draw(st.dictionaries(st.text(max_size=3), finite_values,
                                                      max_size=2)),
                       "cache": draw(st.sampled_from(["miss", "hit"]))},
        "extras": draw(st.dictionaries(st.text(max_size=4), finite_values, max_size=3)),
    }
    if non_finite:
        bad = draw(st.sampled_from(NON_FINITE))
        where = draw(st.sampled_from(["guarantee", "cmax", "extras", "assignment"]))
        if where == "guarantee":
            payload["guarantee"].append(bad)
        elif where == "cmax":
            payload["cmax"] = bad
        elif where == "extras":
            payload["extras"]["bad"] = [1, {"x": bad}]
        else:
            payload["assignment"].append([bad, 0])
    return payload


def _stamped(payload: dict) -> dict:
    return {**payload, "provenance": {**payload["provenance"], "cache": "hit"}}


async def _service_tier_hit(request: dict, payload: dict):
    async with SolverService(workers=1, cache=LRUCache()) as svc:
        # The service admits only what its cache served: stamped payloads.
        svc.response_tier.put(request_key(request), _stamped(payload), family="lpt")
        return await svc.handle(request)


async def _router_tier_hit(request: dict, payload: dict):
    from repro.cluster import ClusterConfig, ClusterRouter

    config = ClusterConfig(shards=1, min_shards=1, max_shards=1, backend="inproc",
                           workers=1, cache=False, session_ttl=None, router_cache=8)
    async with ClusterRouter(config) as router:
        router.response_tier.put(request_key(request), payload)
        return await router.handle(request)


TIER_HITS = {"service": _service_tier_hit, "router": _router_tier_hit}


class TestSplicedHits:
    @pytest.mark.parametrize("owner", sorted(TIER_HITS))
    @pytest.mark.parametrize("non_finite", [False, True], ids=["finite", "non-finite"])
    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_spliced_line_equals_the_full_encode(self, owner, non_finite, codec, data):
        rid = data.draw(request_ids, label="id")
        payload = data.draw(result_payloads(non_finite), label="payload")
        request = {"id": rid, "op": "solve", "instance": {"m": 1}, "spec": "lpt"}
        with pytest.MonkeyPatch.context() as mp:
            _with_codec(codec, mp)
            response = run(TIER_HITS[owner](request, payload))
            expected = encode_message({"id": rid, "ok": True, "result": _stamped(payload)})
            assert encode_message(response) == expected
            spliced = isinstance(response, EncodedResponse)
            assert spliced == (rid is None or type(rid) is int and -(2**63) <= rid < 2**64
                               or type(rid) is str and rid.isascii() and rid.isprintable())
            # In-process callers read the same response the line carries.
            assert _tagged(json.loads(encode_message(dict(response)))) == _tagged(
                json.loads(expected))

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("spec", ["lpt", "sbo(delta=1.0)"])  # inf / finite guarantee
    def test_served_hits_over_tcp_match_the_full_path(self, codec, spec, inst, tmp_path,
                                                      monkeypatch):
        from repro.cluster import ClusterConfig, ClusterRouter

        _with_codec(codec, monkeypatch)
        ids = [None, 0, -5, 2**64 - 1, 2**64, -(2**63) - 1, 1.5, math.inf, True,
               "q-1", 'say "hi" \\', "é", "\x7f", [1], {"a": 1}]
        config = ClusterConfig(shards=2, min_shards=1, max_shards=2, backend="inproc",
                               workers=1, cache=False, session_ttl=None, router_cache=8)

        async def scenario():
            async with SolverService(workers=1, cache=str(tmp_path / "cache")) as svc:
                async with Wire(svc) as wire:
                    assert (await wire.call(solve_request(inst, spec)))["ok"]
                    for rid in ids:
                        request = solve_request(inst, spec, request_id=rid)
                        # The first repeat is a disk hit the tier admits;
                        # every later one is a tier hit.
                        full = await wire.raw(request)
                        assert await wire.raw(request) == full, rid
                    assert svc.stats().cache_hits == 2 * len(ids)
            async with ClusterRouter(config) as router:
                front = await serve_tcp(router, port=0)
                port = front.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def raw(request: dict) -> bytes:
                    writer.write(encode_message(request))
                    await writer.drain()
                    return await reader.readline()

                try:
                    routed = decode_message(await raw(solve_request(inst, spec)))
                    assert "cache" not in routed["result"]["provenance"]
                    for rid in ids:
                        hit = await raw(solve_request(inst, spec, request_id=rid))
                        expected = {"id": rid, "ok": True, "result": _stamped(routed["result"])}
                        assert hit == encode_message(expected), rid
                    counters = router.router_counters()
                    assert counters["router_cache_hits"] == len(ids) and counters["routed"] == 1
                finally:
                    writer.close()
                    front.close()
                    await front.wait_closed()

        run(scenario())


# --------------------------------------------------------------------------- #
# the service's tier over TCP
# --------------------------------------------------------------------------- #
class Wire:
    """One TCP connection to a served front end (a service or a router)."""

    def __init__(self, front) -> None:
        self.front = front

    async def __aenter__(self) -> "Wire":
        self.server = await serve_tcp(self.front, port=0)
        port = self.server.sockets[0].getsockname()[1]
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=server.READER_LIMIT)
        return self

    async def __aexit__(self, *exc) -> None:
        self.writer.close()
        self.server.close()
        await self.server.wait_closed()

    async def raw(self, payload: dict) -> bytes:
        self.writer.write(encode_message(payload))
        await self.writer.drain()
        return await asyncio.wait_for(self.reader.readline(), 60)

    async def call(self, payload: dict) -> dict:
        return json.loads(await self.raw(payload))


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts instance rebuilds on the serving path."""
    calls = []

    def counting(data):
        calls.append(1)
        return instance_from_payload(data)

    monkeypatch.setattr(server, "instance_from_payload", counting)
    return calls


class TestServiceTier:
    def test_tier_hit_is_byte_identical_to_the_disk_hit(self, tmp_path, rebuilds):
        golden = golden_instances()["small-independent"]
        specs = golden_specs("small-independent", golden)

        async def scenario():
            async with SolverService(workers=1, cache=str(tmp_path / "cache")) as svc:
                async with Wire(svc) as wire:
                    for spec in specs:
                        request = solve_request(golden, spec, request_id=7)
                        miss = await wire.call(request)
                        assert miss["ok"], (spec, miss)
                        assert miss["result"]["provenance"]["cache"] == "miss"
                        before = len(rebuilds)
                        disk_hit = await wire.raw(request)
                        assert len(rebuilds) == before + 1
                        tier_hit = await wire.raw(request)
                        assert len(rebuilds) == before + 1, spec  # no rebuild
                        assert tier_hit == disk_hit, spec
                        assert json.loads(tier_hit)["result"]["provenance"]["cache"] == "hit"
                    stats = svc.stats()
                    n = len(specs)
                    assert len(svc.response_tier) == n
                    assert stats.submitted == 3 * n and stats.completed == n
                    assert stats.cache_hits == 2 * n and stats.cache_misses == n
                    assert stats.lost == 0
                    lpt_specs = sum(spec.startswith("lpt") for spec in specs)
                    assert stats.families["lpt"]["count"] == 3 * lpt_specs

        run(scenario())

    def test_tier_hit_checks_the_fields_outside_the_digest(self, inst):
        async def scenario():
            async with SolverService(workers=1, cache=LRUCache()) as svc:
                async with Wire(svc) as wire:
                    for rid in range(2):
                        assert (await wire.call(solve_request(inst, "lpt", request_id=rid)))["ok"]
                    assert len(svc.response_tier) == 1
                    bad_timeout = await wire.call({**solve_request(inst, "lpt", request_id=3),
                                                   "timeout": "soon"})
                    assert bad_timeout["error"]["type"] == "ProtocolError"
                    negative = await wire.call(solve_request(inst, "lpt", request_id=4,
                                                             timeout=-1.0))
                    assert negative["error"]["type"] == "ProtocolError"
                    bad_tenant = await wire.call({**solve_request(inst, "lpt", request_id=5),
                                                  "tenant": ""})
                    assert bad_tenant["error"]["type"] == "ProtocolError"
                    ok = await wire.call(solve_request(inst, "lpt", request_id=6, timeout=5.0))
                    assert ok["ok"] and ok["id"] == 6
                    stats = svc.stats()
                    assert stats.submitted == 3 and stats.cache_hits == 2
                    assert stats.lost == 0

        run(scenario())

    def test_rate_limit_applies_to_hot_requests(self, inst):
        tenants = TenantRegistry([TenantConfig("t", rate=0.001, burst=2)], default="t")

        async def scenario():
            config = ServiceConfig(workers=1, cache=LRUCache(), tenants=tenants)
            async with SolverService(config) as svc:
                async with Wire(svc) as wire:
                    for rid in range(2):
                        response = await wire.call(
                            solve_request(inst, "lpt", request_id=rid, tenant="t"))
                        assert response["ok"], response
                    assert len(svc.response_tier) == 1  # the next one is hot
                    limited = await wire.call(
                        solve_request(inst, "lpt", request_id=2, tenant="t"))
                    assert limited["ok"] is False
                    assert limited["error"]["code"] == "rate_limited"
                    unknown = await wire.call(
                        solve_request(inst, "lpt", request_id=3, tenant="nobody"))
                    assert unknown["error"]["code"] == "unknown_tenant"
                    stats = svc.stats()
                    assert stats.lost == 0 and stats.rejected == 2
                    snap = stats.tenants["t"]
                    assert snap["admitted"] + snap["rejected"] == snap["submitted"] == 3
                    assert snap["lost"] == 0

        run(scenario())

    def test_misses_errors_and_joins_are_never_admitted(self, inst, monkeypatch):
        digests = []

        def counting(request):
            digests.append(1)
            return request_key(request)

        monkeypatch.setattr(server, "request_key", counting)

        def variant(k: int) -> Instance:
            return Instance.from_lists(p=[k + 1, 2, 3, 4], s=[1, 2, 3, k + 1], m=2)

        async def scenario():
            async with SolverService(workers=1, cache=LRUCache()) as svc:
                async with Wire(svc) as wire:
                    for k in range(6):
                        response = await wire.call(solve_request(variant(k), "lpt", request_id=k))
                        assert response["result"]["provenance"]["cache"] == "miss"
                    errors = [
                        solve_request(inst, "no_such_solver", request_id=10),
                        solve_request(inst, "constrained", request_id=11),
                        {"id": 12, "op": "solve", "instance": {"kind": "nope"}, "spec": "lpt"},
                        {"id": 13, "op": "solve", "instance": inst.to_dict()},
                    ]
                    for request in errors * 2:
                        assert (await wire.call(request))["ok"] is False
                    assert len(svc.response_tier) == 0
                # Coalesced joins carry the job's miss result: not admitted.
                joined = await asyncio.gather(*(
                    svc.handle(solve_request(variant(9), "sbo(delta=1.0)"))
                    for _ in range(3)))
                assert all(r["result"]["provenance"]["cache"] == "miss" for r in joined)
                assert svc.stats().coalesced == 2
                assert len(svc.response_tier) == 0 and svc.stats().lost == 0
                assert digests == []  # an empty tier is never consulted

        run(scenario())

    def test_large_payloads_respect_the_size_budget(self):
        def sized(n: int, seed: int) -> Instance:
            return Instance.from_lists(p=[(i * seed) % 17 + 1 for i in range(n)],
                                       s=[(i + seed) % 13 + 1 for i in range(n)], m=4)

        async def scenario():
            async with SolverService(workers=1, cache=LRUCache()) as svc:
                tier = svc.response_tier
                tier.max_tasks = 100
                for seed, n in enumerate([40, 60, 30, 101, 90, 20, 100], start=1):
                    request = solve_request(sized(n, seed), "lpt")
                    for _ in range(3):
                        response = await svc.handle(request)
                        assert response["ok"]
                        assert tier.tasks <= 100
                    in_tier = tier.get(request_key(request)) is not None
                    assert in_tier == (n <= 100)
                assert svc.stats().lost == 0

        run(scenario())

    def test_no_cache_means_no_tier_and_no_cache_marker(self, inst):
        async def scenario():
            async with SolverService(workers=1, cache=False) as svc:
                assert svc.response_tier is None
                async with Wire(svc) as wire:
                    for rid in range(3):
                        response = await wire.call(solve_request(inst, "lpt", request_id=rid))
                        assert response["ok"]
                        assert "cache" not in response["result"]["provenance"]
                assert svc.stats().cache_hits == 0

        run(scenario())

    def test_closed_service_does_not_serve_from_the_tier(self, inst):
        async def scenario():
            svc = SolverService(workers=1, cache=LRUCache())
            async with svc:
                request = solve_request(inst, "lpt", request_id=1)
                for _ in range(2):
                    await svc.handle(request)
            assert svc.response_tier is None
            response = await svc.handle(request)
            assert response["error"]["type"] == "ServiceClosedError"

        run(scenario())


class TestRouterTier:
    def test_router_serves_repeats_from_its_tier(self, inst):
        from repro.cluster import ClusterConfig, ClusterRouter

        config = ClusterConfig(shards=2, min_shards=1, max_shards=2, backend="inproc",
                               workers=1, cache=False, session_ttl=None, router_cache=2)
        others = [Instance.from_lists(p=[k + 1, 2, 3], s=[3, 2, k + 1], m=2) for k in range(2)]

        async def scenario():
            async with ClusterRouter(config) as router:
                first = await router.handle(solve_request(inst, "lpt", request_id=1))
                again = await router.handle(solve_request(inst, "lpt", request_id=2))
                assert "cache" not in first["result"]["provenance"]
                assert again["id"] == 2 and again["result"]["provenance"]["cache"] == "hit"
                assert {**again["result"], "provenance": first["result"]["provenance"]} == first["result"]
                counters = router.router_counters()
                assert counters["routed"] == 1
                assert counters["router_cache_hits"] == 1 and counters["router_cache_misses"] == 1
                for other in others:  # two newer entries evict the first
                    await router.handle(solve_request(other, "lpt"))
                await router.handle(solve_request(inst, "lpt"))
                assert router.router_counters()["routed"] == 4

        run(scenario())


    def test_a_tier_hit_takes_no_admission_slot(self, inst):
        """With QoS on and the one admission slot held by a slow solve, a
        repeat is answered from the router's tier at once and ledgered like
        a service's cache hit."""
        tenants = TenantRegistry([TenantConfig("t")], default="t")
        config = ClusterConfig(shards=1, min_shards=1, max_shards=1, backend="inproc",
                               workers=1, max_pending=1, cache=False, session_ttl=None,
                               router_cache=8, tenants=tenants)

        async def scenario():
            with registered(make_sleepy_entry()):
                async with ClusterRouter(config) as router:
                    assert (await router.handle(solve_request(inst, "lpt", request_id=0)))["ok"]
                    slow = asyncio.ensure_future(router.handle(
                        solve_request(inst, "sleepy(seconds=1.0)", request_id=1)))
                    while router._qos.slots_free > 0:
                        await asyncio.sleep(0.005)
                    hit = await asyncio.wait_for(
                        router.handle(solve_request(inst, "lpt", request_id=2)), 30)
                    assert not slow.done()  # answered while the slot is held
                    assert hit["ok"] and hit["result"]["provenance"]["cache"] == "hit"
                    assert (await slow)["ok"]
                    return (await router.stats()).tenants["t"]

        ledger = run(scenario())
        assert ledger["cache_hits"] == 1 and ledger["completed"] == 2
        assert ledger["admitted"] == 3 and ledger["rejected"] == 0
        assert ledger["admitted"] + ledger["rejected"] == ledger["submitted"]

    def test_shard_tier_hits_pass_through_a_router_without_a_tier(self, inst, tmp_path):
        from repro.cluster import ClusterConfig, ClusterRouter

        config = ClusterConfig(shards=1, min_shards=1, max_shards=1, backend="inproc",
                               workers=1, cache=str(tmp_path), session_ttl=None,
                               router_cache=0)

        async def scenario():
            async with ClusterRouter(config) as router:
                lines = []
                for rid in range(4):  # a miss, a disk hit, then shard tier hits
                    response = await router.handle(solve_request(inst, "lpt", request_id=rid))
                    assert type(response) is dict and response["id"] == rid
                    lines.append(encode_message({**response, "id": 0}))
                svc = router.shard(router.shard_names()[0]).service
                assert len(svc.response_tier) == 1 and svc.stats().cache_hits == 3
                assert lines[1] == lines[2] == lines[3] != lines[0]
                assert (await router.solve(inst, "lpt"))["provenance"]["cache"] == "hit"

        run(scenario())


# --------------------------------------------------------------------------- #
# strict integer m
# --------------------------------------------------------------------------- #
BAD_M = [2.5, True, "2", 4.0]


def _instance_payloads():
    independent = Instance.from_lists(p=[3, 2, 1], s=[1, 2, 3], m=2)
    dag = DAGInstance(independent.tasks, m=2, edges=[(0, 1)])
    uniform = UniformInstance(independent.tasks, speeds=[1.0, 2.0])
    periodic = PeriodicInstance.from_dict({
        "kind": "periodic", "m": 2,
        "tasks": [{"id": 0, "wcet": 1.0, "s": 1.0, "period": 4.0}],
    })
    return {"independent": independent.to_dict(), "dag": dag.to_dict(),
            "uniform": uniform.to_dict(), "periodic": periodic.to_dict()}


class TestStrictM:
    @pytest.mark.parametrize("bad", BAD_M, ids=repr)
    @pytest.mark.parametrize("kind", ["independent", "dag", "uniform", "periodic"])
    def test_from_payload_rejects_non_int_m(self, kind, bad):
        data = {**_instance_payloads()[kind], "m": bad}
        with pytest.raises(ProtocolError, match="m"):
            instance_from_payload(data)

    @pytest.mark.parametrize("bad", BAD_M, ids=repr)
    def test_periodic_rejects_non_int_unroll_budget(self, bad):
        data = {**_instance_payloads()["periodic"], "unroll_budget": bad}
        with pytest.raises(ProtocolError, match="unroll_budget must be an int"):
            instance_from_payload(data)

    @pytest.mark.parametrize("bad", BAD_M, ids=repr)
    def test_arrival_trace_rejects_non_int_m(self, bad):
        data = {"kind": "arrival_trace", "m": bad,
                "events": [{"time": 0.0, "id": 0, "p": 1.0, "s": 1.0}]}
        with pytest.raises(TypeError, match="m must be an int"):
            ArrivalTrace.from_dict(data)

    def test_valid_m_still_parses(self):
        for kind, data in _instance_payloads().items():
            assert instance_from_payload(data).m == 2, kind

    def test_rejected_over_tcp_without_cache_or_tier_entries(self, inst):
        cache = LRUCache()

        async def scenario():
            async with SolverService(workers=1, cache=cache) as svc:
                async with Wire(svc) as wire:
                    for rid, bad in enumerate(BAD_M * 2):
                        request = solve_request(inst, "lpt", request_id=rid)
                        request["instance"]["m"] = bad
                        response = await wire.call(request)
                        assert response["ok"] is False
                        assert response["error"]["type"] == "ProtocolError", response
                        assert "m" in response["error"]["message"]
                    assert len(cache) == 0 and len(svc.response_tier) == 0
                    assert svc.stats().submitted == 0

        run(scenario())


# --------------------------------------------------------------------------- #
# strict timeout
# --------------------------------------------------------------------------- #
BAD_TIMEOUT = [True, False, math.nan, math.inf, -math.inf, 0, 0.0, -1, "5", [1],
               10 ** 400]  # an integer no float can hold


def _timeout_id(value) -> str:
    text = repr(value)
    return text if len(text) < 20 else "huge-int"


def _assert_timeout_rejected(response: dict) -> None:
    assert response["ok"] is False
    assert response["error"]["type"] == "ProtocolError", response
    assert "'timeout'" in response["error"]["message"]


class TestStrictTimeout:
    @pytest.mark.parametrize("bad", BAD_TIMEOUT, ids=_timeout_id)
    def test_server_rejects_bad_timeout(self, inst, bad):
        other = Instance.from_lists(p=[2, 1], s=[1, 2], m=2)

        async def scenario():
            async with SolverService(workers=1, cache=LRUCache()) as svc:
                good = solve_request(inst, "lpt")
                for _ in range(2):  # a miss, then a cache hit the tier admits
                    assert (await svc.handle(good))["ok"]
                assert len(svc.response_tier) == 1
                before = svc.stats()
                # A tier hit, the full solve path, and drain.
                for request in ({**good, "timeout": bad},
                                {**solve_request(other, "lpt"), "timeout": bad},
                                {"op": "drain", "timeout": bad}):
                    _assert_timeout_rejected(await svc.handle(request))
                after = svc.stats()
                assert after.submitted == before.submitted
                assert after.lost == 0

        run(scenario())

    @pytest.mark.parametrize("bad", BAD_TIMEOUT, ids=_timeout_id)
    def test_router_rejects_bad_timeout(self, inst, bad):
        from repro.cluster import ClusterConfig, ClusterRouter

        config = ClusterConfig(shards=2, min_shards=1, max_shards=2, backend="inproc",
                               workers=1, cache=False, session_ttl=None, router_cache=8)

        async def scenario():
            async with ClusterRouter(config) as router:
                good = solve_request(inst, "lpt")
                for _ in range(2):  # routed once, then answered by the router tier
                    assert (await router.handle(good))["ok"]
                routed = router.router_counters()["routed"]
                for request in ({**good, "timeout": bad}, {"op": "drain", "timeout": bad}):
                    _assert_timeout_rejected(await router.handle(request))
                assert router.router_counters()["routed"] == routed
                stats = await router.stats()
                assert stats.lost == 0 and stats.router["lost"] == 0
                assert stats.totals["submitted"] == 1

        run(scenario())

    def test_valid_timeouts_still_accepted(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                for timeout in (None, 5, 2.5):
                    request = {**solve_request(inst, "lpt"), "timeout": timeout}
                    assert (await svc.handle(request))["ok"]
                drained = await svc.handle({"op": "drain", "timeout": 1})
                assert drained["ok"] and drained["drained"]

        run(scenario())


# --------------------------------------------------------------------------- #
# aliases: repeat lines answered from their raw bytes
# --------------------------------------------------------------------------- #
def _body(inst, **fields) -> bytes:
    """A solve line without an id, as loadgen and clients write it."""
    return encode_message({"op": "solve", "instance": inst.to_dict(), "spec": "lpt", **fields})


def _leading(body: bytes, rid: object) -> bytes:
    return b'{"id":' + str(rid).encode() + b"," + body[1:]


def _trailing(body: bytes, rid: str) -> bytes:
    return body[:-2] + b',"id":' + rid.encode() + b"}\n"


class TestSplitId:
    @pytest.mark.parametrize("line, expected", [
        (b'{"id":0,"a":1}', (b'{"a":1}', 0)),
        (b'{"id":7,"a":1}', (b'{"a":1}', 7)),
        (b'{"id":123456789012345678,"a":1}', (b'{"a":1}', 123456789012345678)),
    ])
    def test_a_leading_integer_id(self, line, expected):
        assert split_id(line) == expected

    @pytest.mark.parametrize("line", [
        b'{"id":05,"a":1}', b'{"id":00,"a":1}', b'{"id":1234567890123456789,"a":1}',
        b'{"id":-5,"a":1}', b'{"id":5.0,"a":1}', b'{"id":1e3,"a":1}', b'{"id":true,"a":1}',
        b'{"id": 5,"a":1}', b'{"id":5 ,"a":1}', b'{"id":5}', b'{"id":null,"a":1}',
        b'{"a":1,"id":"a\\"b"}', b'{"a":1,"id":"a\\\\b"}', b'{"a":1,"id":"\\u00e9"}',
        '{"a":1,"id":"é"}'.encode(), b'{"a":1,"id":"a\tb"}', b'{"a":1,"id":"x"} ',
        b'{"a":1,"id":5}', b'{"a":1, "id":"x"}', b'{"id":"x"}', b'["id",5]',
        b'{"a":1,"id":"}', b'{"a":1,"id":"c17"}', b'{"id":"c17","a":1}',
    ])
    def test_any_other_line_is_not_split(self, line):
        assert split_id(line) is None


class TestAliasBookkeeping:
    PAYLOAD = {"assignment": [[0, 0]], "provenance": {"cache": "hit"}}

    def _aliased(self, tier: ResponseTier, key: str, rid: int) -> bytes:
        line = b'{"id":%d,"k":"%s"}' % (rid, key.encode())
        tier.alias(line, {"id": rid, "k": key}, key, None, None)
        return line

    def test_an_alias_hit_is_most_recently_used(self):
        tier = ResponseTier(max_entries=2)
        tier.put("k1", self.PAYLOAD)
        tier.put("k2", self.PAYLOAD)
        self._aliased(tier, "k1", 1)
        rid, entry, timeout, tenant = tier.match(b'{"id":9,"k":"k1"}')
        assert (rid, timeout, tenant) == (9, None, None)
        assert entry is tier._entries["k1"]
        tier.put("k3", self.PAYLOAD)  # evicts k2, the least recently used
        assert tier.get("k2") is None and tier.get("k1") is not None

    def test_aliases_are_bounded_and_evicted_with_the_entries(self):
        tier = ResponseTier(max_entries=2)
        for key in ("k1", "k2"):
            tier.put(key, self.PAYLOAD)
            for rid in range(3):  # the same line under three ids: one alias
                self._aliased(tier, key, rid)
        assert len(tier._aliases) == 2
        tier.put("k3", self.PAYLOAD)  # evicts k1 and its alias
        assert tier.match(b'{"id":5,"k":"k1"}') is None
        assert tier.match(b'{"id":5,"k":"k2"}') is not None
        assert len(tier._aliases) == 1

    def test_an_entry_keeps_its_first_alias(self, monkeypatch):
        decodes = []
        monkeypatch.setattr(tier_module, "decode_json",
                            lambda raw: decodes.append(raw) or decode_json(raw))
        tier = ResponseTier()
        tier.put("k1", self.PAYLOAD)
        tier.alias(b'{"id":1,"k":"k1","tenant":"a"}', {"id": 1}, "k1", None, "a")
        assert len(decodes) == 1
        tier.alias(b'{"id":2,"k":"k1","tenant":"b"}', {"id": 2}, "k1", None, "b")
        assert len(decodes) == 1  # no second decode, digest or replacement
        assert tier.match(b'{"id":3,"k":"k1","tenant":"a"}')[3] == "a"
        assert tier.match(b'{"id":4,"k":"k1","tenant":"b"}') is None

    def test_an_alias_needs_a_stored_entry_and_a_matching_id(self):
        tier = ResponseTier()
        tier.alias(b'{"id":1,"k":"k1"}', {"id": 1, "k": "k1"}, "k1", None, None)
        tier.put("k1", self.PAYLOAD)
        tier.alias(b'{"id":1,"k":"k1"}', {"id": True, "k": "k1"}, "k1", None, None)
        tier.alias(b'{"id":1,"k":"k1"}', {"id": 1.0, "k": "k1"}, "k1", None, None)
        tier.alias(b'{"id":1,"k":"k1"}', {"id": "1", "k": "k1"}, "k1", None, None)
        tier.alias(b'{"id":1,"k":"k1"}', {"id": 1, "k": "k1", "trace": None}, "k1", None, None)
        assert tier.match(b'{"id":2,"k":"k1"}') is None


class TestAliasOverTcp:
    """Lines an alias must not answer take the decoding path, and answer as it does."""

    async def _line(self, wire: Wire, line: bytes) -> dict:
        wire.writer.write(line)
        await wire.writer.drain()
        return json.loads(await asyncio.wait_for(wire.reader.readline(), 60))

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return decode_message(raw)

        monkeypatch.setattr(server, "decode_message", counting)
        return calls

    def _scenario(self, inst, check, config=None):
        async def scenario():
            async with SolverService(config or ServiceConfig(workers=1, cache=LRUCache())) as svc:
                async with Wire(svc) as wire:
                    await check(svc, wire)

        run(scenario())

    def test_a_repeat_is_answered_without_a_decode(self, inst, decodes):
        body = _body(inst)

        async def check(svc, wire):
            for rid in (1, 2, 3):  # a miss, a cache hit the tier admits, a tier hit
                assert (await self._line(wire, _leading(body, rid)))["ok"]
            assert len(decodes) == 3
            via_leading = await wire.raw(json.loads(_leading(body, 4)))
            assert len(decodes) == 3  # answered by the alias
            via_string = await self._line(wire, _trailing(body, '"c9"'))
            assert len(decodes) == 4 and via_string["id"] == "c9"  # a string id decodes
            assert json.loads(via_leading) == {**via_string, "id": 4}
            assert svc.stats().cache_hits == 4 and svc.stats().lost == 0

        self._scenario(inst, check)

    @pytest.mark.parametrize("rid", [b"05", b"1234567890123456789", b"-5", b"5.0", b"true"])
    def test_ids_outside_the_leading_form(self, inst, decodes, rid):
        body = _body(inst)

        async def check(svc, wire):
            for k in (1, 2, 3):
                assert (await self._line(wire, _leading(body, k)))["ok"]
            line = b'{"id":' + rid + b"," + body[1:]
            before = len(decodes)
            response = await self._line(wire, line)
            assert len(decodes) == before + 1
            if rid == b"05":  # not JSON: the decoding path's error, not the cached answer
                assert response["ok"] is False and response["id"] is None
            else:
                assert response["ok"] and response["id"] == json.loads(rid)
                assert type(response["id"]) is type(json.loads(rid))

        self._scenario(inst, check)

    @pytest.mark.parametrize("rid", ['"c9"', '""', '"a\\"b"', '"a\\\\b"', '"\\u00e9"', '"é"',
                                     '"a\\tb"'])
    def test_string_ids_decode(self, inst, decodes, rid):
        body = _body(inst)

        async def check(svc, wire):
            for k in range(3):
                assert (await self._line(wire, _leading(body, k)))["ok"]
            before = len(decodes)
            response = await self._line(wire, _trailing(body, rid))
            assert len(decodes) == before + 1
            assert response["ok"] and response["id"] == json.loads(rid)

        self._scenario(inst, check)

    def test_a_second_id_key_is_never_cut(self, inst, decodes):
        body = _body(inst)

        def doubled(rid: int, last: int) -> bytes:
            return b'{"id":%d,' % rid + body[1:-2] + b',"id":%d}\n' % last

        async def check(svc, wire):
            for _ in range(4):
                assert (await self._line(wire, doubled(5, 5)))["id"] == 5
            before = len(decodes)
            response = await self._line(wire, doubled(6, 5))
            assert len(decodes) == before + 1
            assert response["ok"] and response["id"] == 5  # the last id wins, as decoded

        self._scenario(inst, check)

    def test_trace_lines_and_whitespace_variants_decode(self, inst, decodes):
        traced = _body(inst, trace={"id": "t1", "span": "s1"})
        spaced = _body(inst).replace(b'"op":"solve"', b'"op": "solve"')

        async def check(svc, wire):
            for k in range(3):
                assert (await self._line(wire, _leading(_body(inst), k)))["ok"]
            for k in range(4):
                before = len(decodes)
                assert (await self._line(wire, _leading(traced, 10 + k)))["id"] == 10 + k
                assert len(decodes) == before + 1
            before = len(decodes)
            assert (await self._line(wire, _leading(spaced, 20)))["id"] == 20
            assert len(decodes) == before + 1

        self._scenario(inst, check)

    def test_two_versions_of_a_request_decode_once_a_line(self, inst, decodes, monkeypatch):
        """Two tenants alternate on one request: the first version to reach
        the tier keeps the alias, the other decodes once a line."""
        cut_decodes = []
        monkeypatch.setattr(tier_module, "decode_json",
                            lambda raw: cut_decodes.append(raw) or decode_json(raw))
        tenants = TenantRegistry([TenantConfig("a"), TenantConfig("b")], default="a")
        lines = [_leading(_body(inst, tenant=t), k) for k, t in enumerate("ab" * 8)]

        async def check(svc, wire):
            for line in lines[:3]:  # a miss, a cache hit the tier admits, a tier hit
                assert (await self._line(wire, line))["ok"]
            assert len(cut_decodes) == 1  # tenant "a" aliased
            for k, line in enumerate(lines[3:], start=3):
                before = len(decodes)
                assert (await self._line(wire, line))["id"] == k
                assert len(decodes) - before == k % 2  # only tenant "b" decodes
            assert len(cut_decodes) == 1
            assert svc.stats().tenants["b"]["cache_hits"] == 8

        self._scenario(inst, check, ServiceConfig(workers=1, cache=LRUCache(),
                                                  tenants=tenants))

    def _served(self, inst, monkeypatch, tenants, lines, burst=(), front="service") -> tuple:
        """The answers to ``lines`` sent one at a time and then ``burst`` in
        one write (sorted by id), and the per-tenant ledgers; asserted equal
        to a run whose tier answers no line from its raw bytes.  ``front``
        serves them: a service, or a router over one inproc shard."""

        def served(match) -> tuple:
            monkeypatch.setattr(ResponseTier, "match", match)
            answers = []

            async def check(wire):
                for line in lines:
                    wire.writer.write(line)
                    await wire.writer.drain()
                    answers.append(await asyncio.wait_for(wire.reader.readline(), 60))
                wire.writer.write(b"".join(burst))
                await wire.writer.drain()
                answers.extend(sorted(
                    [await asyncio.wait_for(wire.reader.readline(), 60) for _ in burst],
                    key=lambda line: json.loads(line)["id"]))
                stats = (await wire.front.handle({"op": "stats"}))["stats"]
                assert (stats["totals"] if stats.get("cluster") else stats)["lost"] == 0
                ledgers.update({name: (
                    {key: snap[key] for key in ("submitted", "admitted", "rejected",
                                                "cache_hits", "lost")},
                    snap["rejected_by"]) for name, snap in stats["tenants"].items()})

            async def scenario():
                if front == "service":
                    serving = SolverService(ServiceConfig(workers=1, cache=LRUCache(),
                                                          tenants=tenants))
                else:
                    serving = ClusterRouter(ClusterConfig(
                        shards=1, min_shards=1, max_shards=1, backend="inproc", workers=1,
                        cache=False, session_ttl=None, router_cache=8, tenants=tenants))
                async with serving, Wire(serving) as wire:
                    await check(wire)

            ledgers: dict = {}
            run(scenario())
            return [_without_wall_time(a) for a in answers], ledgers

        aliased = served(ResponseTier.match)
        assert aliased == served(lambda tier, line: None)
        return aliased

    @staticmethod
    def _hostile(inst) -> tuple:
        """Tenants, and lines of a rate-limited tenant, unknown tenants and
        bad timeouts around aliased lines."""
        tenants = TenantRegistry([TenantConfig("t", rate=0.001, burst=6), TenantConfig("u")],
                                 default="u")
        lines = [_leading(_body(inst, tenant="t"), k) for k in range(8)]
        for tenant in ("nobody", ""):
            lines += [_leading(_body(inst, tenant=tenant), k) for k in range(2)]
        for timeout in (-1, 0, "soon", True, 5.0):
            lines += [_leading(_body(inst, tenant="u", timeout=timeout), k) for k in range(4)]
        lines += [_trailing(_body(inst, tenant="t"), f'"r{k}"') for k in range(2)]
        return tenants, lines

    def test_qos_and_timeout_errors_match_the_decoding_path(self, inst, monkeypatch):
        """With QoS on, aliased lines and their hostile variants give the decoding path's
        error lines and per-tenant ledgers."""
        answers, ledgers = self._served(inst, monkeypatch, *self._hostile(inst))
        assert sum(b'"rate_limited"' in a for a in answers) == 4
        assert ledgers["t"][0]["rejected"] == 4

    def test_router_qos_and_timeout_errors_match_the_decoding_path(self, inst, monkeypatch,
                                                                   decodes):
        """The same lines served by ``serve_tcp(router)``: the router's tier
        answers repeats from their bytes, with the decoding path's lines and
        ledgers."""
        tenants, lines = self._hostile(inst)
        answers, ledgers = self._served(inst, monkeypatch, tenants, lines, front="router")
        assert sum(b'"rate_limited"' in a for a in answers) == 4
        assert sum(b'"unknown_tenant"' in a for a in answers) == 2
        assert ledgers["t"][0]["rejected"] == 4
        assert ledgers["t"][0]["cache_hits"] == 5  # the first line was routed
        # Both runs decoded every line but those the alias answered: lines 2-7
        # of tenant "t", four hits and two rate-limited.
        assert len(decodes) == 2 * len(lines) - 6

    def test_pipelined_lines_are_charged_in_line_order(self, inst, monkeypatch):
        """A burst in one write under a token bucket: a miss ahead of aliased
        lines takes its token first, as on the decoding path."""
        tenants = TenantRegistry([TenantConfig("t", rate=0.001, burst=6)], default="t")
        other = Instance.from_lists(p=[2.5, 1, 3], s=[1, 1.5, 2], m=2)
        lines = [_leading(_body(inst, tenant="t"), k) for k in range(3)]  # aliases inst
        burst = [_leading(_body(other, tenant="t"), 10)]
        burst += [_leading(_body(inst, tenant="t"), k) for k in range(11, 16)]
        answers, ledgers = self._served(inst, monkeypatch, tenants, lines, burst)
        assert json.loads(answers[3])["ok"]  # the miss, first in line
        assert [b'"rate_limited"' in a for a in answers[4:]] == [False] * 2 + [True] * 3
        assert ledgers["t"][0]["rejected"] == 3


def _without_wall_time(line: bytes) -> bytes:
    """A response line with its (miss-dependent) wall time blanked."""
    return re.sub(rb'"wall_time":[^,}]*', b'"wall_time":0', line)
