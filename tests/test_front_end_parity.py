"""Differential and fuzz net over the two wire front ends.

``repro serve`` (:func:`repro.service.server.handle_request` over a
:class:`~repro.service.SolverService`) and ``repro cluster``
(:meth:`repro.cluster.ClusterRouter.handle` over inproc shards) speak one
protocol, so the same request sequence must get the same answers from
both:

* **one response** — every acknowledged request gets exactly one
  response, and an unacknowledged ``session_submit`` gets none, on both;
* **same answers** — successful solves return equal results (up to the
  wall time and the cache provenance, which depend on where the answer
  was found), session placements are equal, and errors carry the same
  ``type`` and ``code``, except for the routing-only errors a healthy
  cluster never produces;
* **ledgers** — afterwards ``lost == 0`` on both, and the router keeps
  ``routed == completed + retried + lost``;
* **hostile fields** — arbitrary JSON values for ``op``, ``session``,
  ``timeout``, ``tenant``, ``ack``, ``format``, ``clear`` and
  ``export``, with QoS off and on;
* **regressions** — the tenant check on a warm router tier, the unknown
  op, the missing ``session`` and the never-opened session, each one
  typed error on both front ends.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.instance import DAGInstance, Instance
from repro.extensions.uniform_machines import UniformInstance
from repro.qos.tenants import TenantConfig, TenantRegistry
from repro.service import SolverService
from repro.service.protocol import encode_message, solve_request
from repro.service.server import handle_request
from repro.solvers import LRUCache

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


INSTANCES = [
    Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2),
    Instance.from_lists(p=[9, 8, 7, 6, 5, 4, 3], s=[2, 6, 1, 9, 4, 3, 8], m=3),
    DAGInstance.from_lists(p=[2, 3, 4, 1], s=[5, 2, 3, 4], m=2, ids=["a", "b", "c", "d"],
                           edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    UniformInstance.from_lists(p=[5, 3, 2, 4], s=[1, 2, 3, 1], speeds=[1.0, 2.0]),
]
SPECS = ["lpt", "sbo(delta=1.0)", "rls(delta=2.0)", "trio(delta=3.0)", "spt"]
ONLINE_SPECS = ["online_greedy", "online_sbo(delta=1.0)"]

#: Errors only a router can raise; a healthy cluster raises none of them.
ROUTING_ONLY = {"NoShardAvailableError", "SessionLostError"}

TENANTS = TenantRegistry([TenantConfig("a"), TenantConfig("b")], default="a")

scalars = (st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)
#: A hostile ``session`` value never names a real session on either side.
hostile_sessions = json_values.filter(lambda v: not (isinstance(v, str) and "sess-" in v))
request_ids = st.none() | st.integers(min_value=-5, max_value=2**64) | st.text(max_size=4)

#: Field values a step may carry: absent (the sentinel), valid, or hostile.
ABSENT = object()


def field(valid):
    return st.one_of(st.just(ABSENT), st.just(ABSENT), valid, json_values)


#: A session slot (one of the sessions this front end opened; a session
#: no one opened while there are none), mostly, or a hostile ``session``.
session_refs = st.one_of(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                         hostile_sessions.map(lambda v: ("raw", v)))

solves = st.tuples(st.just("solve"), st.integers(0, len(INSTANCES) - 1),
                   st.sampled_from(SPECS), request_ids,
                   field(st.just(30.0)), field(st.sampled_from(["a", "b"])))
submits = st.tuples(st.just("session_submit"), session_refs, st.integers(1, 3),
                    field(st.booleans()), st.booleans())
opens = st.tuples(st.just("session_open"), st.sampled_from(ONLINE_SPECS), st.integers(2, 3),
                  field(st.sampled_from(["a", "b"])))
steps = st.one_of(
    solves,
    solves,
    opens,
    opens,
    submits,
    submits,
    submits,
    st.tuples(st.sampled_from(["session_result", "session_close", "session_export"]),
              session_refs),
    st.tuples(st.just("session_restore"),
              st.integers(0, 2).map(lambda k: ("export", k)) | json_values),
    st.tuples(st.just("metrics"), field(st.sampled_from(["text", "dict"]))),
    st.tuples(st.just("trace"), field(st.booleans()), field(st.text(max_size=4))),
    st.tuples(st.just("drain"), field(st.just(30.0))),
    st.tuples(st.sampled_from(["stats", "ping", "shutdown"])),
    st.tuples(st.just("op"), json_values.filter(lambda v: v != "session_handoff")),
)


class FrontEnd:
    """One front end plus the session ids and exports it handed out."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.sessions: list = []
        self.exports: list = []
        self.next_task = 0

    def session(self, ref):
        if isinstance(ref, tuple):
            return ref[1]
        return self.sessions[ref % len(self.sessions)] if self.sessions else "never-opened"

    def request(self, step) -> dict:
        """The wire request of ``step`` on this front end."""
        kind = step[0]
        request: dict = {"id": 7}
        if kind == "solve":
            _, index, spec, rid, timeout, tenant = step
            request = solve_request(INSTANCES[index], spec, request_id=rid)
            fields = {"timeout": timeout, "tenant": tenant}
        elif kind == "session_open":
            _, spec, m, tenant = step
            request.update(op=kind, spec=spec, m=m)
            fields = {"tenant": tenant}
        elif kind == "session_submit":
            _, ref, count, ack, batch = step
            tasks = [{"id": f"t{self.next_task + k}", "p": 1.0 + k % 3, "s": 2.0 - k % 2}
                     for k in range(count)]
            self.next_task += count
            request.update(op=kind, session=self.session(ref))
            if batch:
                request["tasks"] = tasks
            elif tasks:
                request["task"] = tasks[0]
            fields = {"ack": ack}
        elif kind in ("session_result", "session_close", "session_export"):
            request.update(op=kind, session=self.session(step[1]))
            fields = {}
        elif kind == "session_restore":
            ref = step[1]
            if isinstance(ref, tuple):
                ref = self.exports[ref[1]] if ref[1] < len(self.exports) else None
            request.update(op=kind, export=ref)
            fields = {}
        elif kind == "metrics":
            request["op"] = kind
            fields = {"format": step[1]}
        elif kind == "trace":
            request["op"] = kind
            fields = {"clear": step[1], "trace_id": step[2]}
        elif kind == "drain":
            request["op"] = kind
            fields = {"timeout": step[1]}
        elif kind == "op":
            request["op"] = step[1]
            fields = {}
        else:
            request["op"] = kind
            fields = {}
        request.update((name, value) for name, value in fields.items() if value is not ABSENT)
        return request

    async def apply(self, step):
        request = self.request(step)
        response = await self.handle(request)
        if response is not None and response.get("ok"):
            if request.get("op") in ("session_open", "session_restore"):
                self.sessions.append(response["session"])
            elif request.get("op") == "session_export":
                self.exports.append(response["export"])
        return request, response


def comparable_result(result: dict) -> dict:
    """A solve result without what depends on where it was found."""
    provenance = {k: v for k, v in result["provenance"].items() if k != "cache"}
    return {**result, "wall_time": None, "provenance": provenance}


def assert_same_answer(step, request, served, routed) -> None:
    unacked = request.get("op") == "session_submit" and request.get("ack") is False
    if unacked:
        assert served is None and routed is None, step
        return
    assert served is not None and routed is not None, step
    assert served["id"] == routed["id"] == request.get("id")
    if not routed["ok"] and routed["error"]["type"] in ROUTING_ONLY:
        return
    assert served["ok"] == routed["ok"], (step, served, routed)
    if not served["ok"]:
        assert served["error"]["type"] == routed["error"]["type"], (step, served, routed)
        assert served["error"].get("code") == routed["error"].get("code"), (step, served, routed)
        return
    op = request.get("op", "solve")
    if op in ("solve", "session_result"):
        assert comparable_result(served["result"]) == comparable_result(routed["result"])
    elif op == "session_submit":
        for key in ("placements", "cmax", "mmax", "n"):
            assert served[key] == routed[key], (step, key)
    elif op == "session_close":
        assert ("window_error" in served) == ("window_error" in routed)


async def drive(step_list, qos: bool):
    tenants = TENANTS if qos else None
    config = ClusterConfig(shards=2, min_shards=1, max_shards=2, backend="inproc", workers=1,
                           cache=LRUCache(), session_ttl=None, tenants=tenants)
    async with SolverService(workers=1, cache=LRUCache(), tenants=tenants) as svc:
        async with ClusterRouter(config) as router:
            service = FrontEnd(lambda request: handle_request(svc, request))
            cluster = FrontEnd(router.handle)
            for step in step_list:
                request, served = await service.apply(step)
                _, routed = await cluster.apply(step)
                assert_same_answer(step, request, served, routed)
            stats = await router.stats()
            counters = router.router_counters()
            lost = svc.stats().lost
    assert lost == 0
    assert stats.lost == 0
    assert counters["routed"] == counters["completed"] + counters["retried"] + counters["lost"]


class TestDifferential:
    @pytest.mark.parametrize("qos", [False, True], ids=["qos-off", "qos-on"])
    @settings(max_examples=60, deadline=None)
    @given(step_list=st.lists(steps, min_size=1, max_size=20))
    def test_same_requests_same_answers(self, qos, step_list):
        # One session is open from the start, so submits reach a live one.
        run(drive([("session_open", "online_greedy", 3, ABSENT)] + step_list, qos))

    @pytest.mark.parametrize("qos", [False, True], ids=["qos-off", "qos-on"])
    def test_repeated_solves_and_a_session(self, qos):
        # A fixed sequence that reaches both warm tiers and a full session.
        script = [
            ("solve", 0, "lpt", 1, ABSENT, ABSENT),
            ("solve", 0, "lpt", 2, ABSENT, ABSENT),
            ("solve", 0, "lpt", 3, ABSENT, ABSENT),
            ("solve", 2, "rls(delta=2.0)", 4, 30.0, "b"),
            ("solve", 2, "sbo(delta=1.0)", 5, ABSENT, ABSENT),  # capability error
            ("session_open", "online_greedy", 3, ABSENT),
            ("session_submit", 0, 2, False, True),
            ("session_submit", 0, 1, True, False),
            ("session_export", 0),
            ("session_restore", ("export", 0)),
            ("session_result", 0),
            ("session_submit", 0, 1, ABSENT, False),  # sealed
            ("session_close", 0),
            ("session_result", 0),  # closed
        ]
        run(drive(script, qos))


# --------------------------------------------------------------------------- #
# regressions: each of these once differed between the two front ends
# --------------------------------------------------------------------------- #
BAD_TENANTS = [5, "", [], {"a": 1}, True]


async def both(requests, qos: bool = False, warm=()):
    """Answers of a service and of a router to ``requests``, after ``warm``."""
    tenants = TENANTS if qos else None
    config = ClusterConfig(shards=1, min_shards=1, max_shards=1, backend="inproc", workers=1,
                           cache=LRUCache(), session_ttl=None, tenants=tenants)
    answers = []
    async with SolverService(workers=1, cache=LRUCache(), tenants=tenants) as svc:
        async with ClusterRouter(config) as router:
            for handle in (lambda request: handle_request(svc, request), router.handle):
                for request in warm:
                    assert (await handle(dict(request)))["ok"]
                answers.append([await handle(dict(request)) for request in requests])
    return answers


class TestRegressions:
    @pytest.mark.parametrize("qos", [False, True], ids=["qos-off", "qos-on"])
    def test_warm_tier_still_checks_the_tenant(self, qos):
        request = solve_request(INSTANCES[0], "lpt", request_id=1)
        bad = [{**request, "tenant": tenant} for tenant in BAD_TENANTS]
        served, routed = run(both(bad, qos=qos, warm=[request] * 3))
        for response in served:
            assert response["error"] == {
                "type": "ProtocolError",
                "message": "'tenant' must be a non-empty tenant name string"}
        assert list(map(encode_message, served)) == list(map(encode_message, routed))

    @pytest.mark.parametrize("op", ["frobnicate", None, [], {"a": 1}, 3, "session_handoff"])
    def test_unknown_op_is_one_protocol_error(self, op):
        (served,), (routed,) = run(both([{"id": 1, "op": op}]))
        assert served["error"]["type"] == "ProtocolError"
        assert served["error"]["message"].startswith(f"unknown op {op!r}; expected solve, ")
        if op == "session_handoff":  # a router-only op
            assert routed["error"]["type"] == "ProtocolError"
            return
        assert routed["error"]["type"] == "ProtocolError"
        assert routed["error"]["message"].startswith(f"unknown op {op!r}; expected solve, ")
        assert "session_handoff" in routed["error"]["message"]
        assert "session_handoff" not in served["error"]["message"]

    @pytest.mark.parametrize("op", ["session_submit", "session_result",
                                    "session_close", "session_export"])
    @pytest.mark.parametrize("session", [ABSENT, None, "", 5, ["s"]])
    def test_malformed_session_is_a_protocol_error(self, op, session):
        request = {"id": 1, "op": op, "task": {"id": 0, "p": 1, "s": 1}}
        if session is not ABSENT:
            request["session"] = session
        (served,), (routed,) = run(both([request]))
        assert served["error"] == {"type": "ProtocolError",
                                   "message": "'session' must be a non-empty session id string"}
        assert encode_message(served) == encode_message(routed)

    @pytest.mark.parametrize("op", ["session_submit", "session_result",
                                    "session_close", "session_export"])
    def test_never_opened_session_is_unknown(self, op):
        request = {"id": 1, "op": op, "session": "never-opened",
                   "task": {"id": 0, "p": 1, "s": 1}}
        (served,), (routed,) = run(both([request]))
        for response in (served, routed):
            assert response["error"]["type"] == "UnknownSessionError"
            assert "unknown session 'never-opened'" in response["error"]["message"]

    def test_bad_ack_is_checked_before_the_session(self):
        request = {"id": 1, "op": "session_submit", "session": "never-opened", "ack": 0,
                   "task": {"id": 0, "p": 1, "s": 1}}
        (served,), (routed,) = run(both([request]))
        for response in (served, routed):
            assert response["error"]["type"] == "ProtocolError"


class TestRouterOnlyOps:
    def run_router(self, scenario):
        config = ClusterConfig(shards=2, min_shards=1, max_shards=2, backend="inproc",
                               workers=1, cache=LRUCache(), session_ttl=None)

        async def main():
            async with ClusterRouter(config) as router:
                return await scenario(router)

        return run(main())

    @pytest.mark.parametrize("fields,error", [
        ({}, "ProtocolError"),
        ({"session": 3}, "ProtocolError"),
        ({"session": "csess-404"}, "UnknownSessionError"),
        ({"session": "csess-1", "target": 7}, "ProtocolError"),
    ])
    def test_handoff_field_errors(self, fields, error):
        async def scenario(router):
            opened = await router.handle({"op": "session_open", "spec": "online_greedy",
                                          "m": 2})
            assert opened["session"] == "csess-1"
            return await router.handle({"id": 9, "op": "session_handoff", **fields})

        response = self.run_router(scenario)
        assert response["id"] == 9 and not response["ok"]
        assert response["error"]["type"] == error

    def test_handoff_of_a_session_lost_while_queued_keeps_its_code(self):
        async def scenario(router):
            opened = await router.handle({"op": "session_open", "spec": "online_greedy",
                                          "m": 2})
            sid = opened["session"]
            async with router._session_locks[sid]:
                queued = asyncio.create_task(
                    router.handle({"id": 3, "op": "session_handoff", "session": sid}))
                await asyncio.sleep(0)  # the handoff now waits for the lock
                router._lose_session(sid, "lost in a test")
            return await queued

        response = self.run_router(scenario)
        assert response["id"] == 3
        assert response["error"]["type"] == "SessionLostError"
        assert response["error"]["code"] == "session_lost"

    def test_handoff_success_echoes_the_id(self):
        async def scenario(router):
            opened = await router.handle({"op": "session_open", "spec": "online_greedy",
                                          "m": 2})
            return opened, await router.handle({"id": "h", "op": "session_handoff",
                                                "session": opened["session"]})

        opened, response = self.run_router(scenario)
        assert response["id"] == "h" and response["ok"]
        assert response["from"] == opened["shard"] != response["shard"]

