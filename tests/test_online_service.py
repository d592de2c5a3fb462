"""Streaming sessions through the service, the wire protocol, and live serve.

Covers the :class:`~repro.service.sessions.SessionManager` (admission
bounds, idle expiry, isolation), the ``session_*`` protocol ops through
:meth:`~repro.service.SolverService.handle`, the async
:class:`~repro.service.client.ServiceClient`, per-solver-family latency
stats, and the acceptance-criterion end-to-end test: a streaming session
against a live ``repro serve`` subprocess whose finalized schedule is
bit-identical to running the same online spec in-process.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.instance import Instance
from repro.core.task import Task
from repro.extensions.uniform_machines import UniformInstance
from repro.online import create_online, stochastic_trace
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceProtocolError,
    SessionLimitError,
    SessionManager,
    SolverService,
    UnknownSessionError,
)
from repro.service.server import serve_tcp
from repro.solvers import SpecError, solve

from make_golden import golden_instances

pytestmark = pytest.mark.online


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def trace():
    return stochastic_trace(n=50, m=4, seed=0)


# --------------------------------------------------------------------------- #
# SessionManager
# --------------------------------------------------------------------------- #
class TestSessionManager:
    def test_open_submit_result_close(self, trace):
        manager = SessionManager()
        session = manager.open("online_sbo(delta=1.0)", m=4)
        for event in trace:
            ack = manager.submit(session.id, event.task)
        assert ack["n"] == 50
        result = manager.result(session.id)
        assert result.provenance["n_submitted"] == 50
        summary = manager.close(session.id)
        assert summary["n"] == 50
        with pytest.raises(UnknownSessionError):
            manager.submit(session.id, Task(id="late", p=1, s=1))

    def test_unknown_session(self):
        manager = SessionManager()
        with pytest.raises(UnknownSessionError):
            manager.describe("sess-404")

    def test_session_limit(self):
        manager = SessionManager(max_sessions=2)
        manager.open("online_greedy", m=2)
        keep = manager.open("online_greedy", m=2)
        with pytest.raises(SessionLimitError):
            manager.open("online_greedy", m=2)
        manager.close(keep.id)
        manager.open("online_greedy", m=2)  # slot freed
        assert manager.counters["sessions_rejected"] == 1

    def test_task_bound(self):
        manager = SessionManager(max_session_tasks=2)
        session = manager.open("online_greedy", m=2)
        manager.submit(session.id, Task(id=0, p=1, s=1))
        manager.submit(session.id, Task(id=1, p=1, s=1))
        with pytest.raises(SessionLimitError):
            manager.submit(session.id, Task(id=2, p=1, s=1))

    def test_idle_expiry_is_lazy_and_counted(self):
        clock = [0.0]
        manager = SessionManager(ttl=10.0, clock=lambda: clock[0])
        session = manager.open("online_greedy", m=2)
        clock[0] = 5.0
        manager.submit(session.id, Task(id=0, p=1, s=1))  # touches last_active
        clock[0] = 14.0
        assert len(manager) == 1  # 9s idle, still alive
        clock[0] = 15.1
        with pytest.raises(UnknownSessionError):
            manager.describe(session.id)
        assert manager.counters["sessions_expired"] == 1
        assert len(manager) == 0

    def test_activity_keeps_session_alive(self):
        clock = [0.0]
        manager = SessionManager(ttl=10.0, clock=lambda: clock[0])
        session = manager.open("online_greedy", m=2)
        for step in range(1, 10):
            clock[0] = step * 8.0
            manager.submit(session.id, Task(id=step, p=1, s=1))
        assert manager.counters["sessions_expired"] == 0

    def test_bad_spec_rejected_without_slot_leak(self):
        manager = SessionManager(max_sessions=1)
        with pytest.raises(SpecError):
            manager.open("online_nope", m=2)
        manager.open("online_greedy", m=2)  # the slot was not consumed

    def test_interleaved_sessions_stay_isolated(self, trace):
        manager = SessionManager()
        a = manager.open("online_sbo(delta=1.0)", m=4)
        b = manager.open("online_sbo(delta=1.0)", m=4)
        solo = create_online("online_sbo(delta=1.0)", m=4)
        # Interleave: a gets every task, b gets every other task (fresh ids).
        for i, event in enumerate(trace):
            manager.submit(a.id, event.task)
            if i % 2 == 0:
                manager.submit(b.id, event.task)
            solo.submit(event.task)
        result_a = manager.result(a.id)
        expected = solo.finalize()
        assert result_a.cmax == expected.cmax
        assert result_a.schedule.assignment == expected.schedule.assignment
        result_b = manager.result(b.id)
        assert result_b.provenance["n_submitted"] == 25

    def test_batch_with_duplicate_tail_places_nothing(self):
        from repro.service import SessionError

        manager = SessionManager()
        session = manager.open("online_greedy", m=2)
        batch = [Task(id=0, p=1, s=1), Task(id=1, p=1, s=1), Task(id=0, p=2, s=2)]
        with pytest.raises(SessionError, match="rejected whole"):
            manager.submit_many(session.id, batch)
        assert manager.describe(session.id)["n"] == 0  # truly all-or-nothing

    def test_batch_crossing_task_bound_places_nothing(self):
        manager = SessionManager(max_session_tasks=3)
        session = manager.open("online_greedy", m=2)
        manager.submit(session.id, Task(id="a", p=1, s=1))
        with pytest.raises(SessionLimitError, match="nothing was placed"):
            manager.submit_many(session.id, [Task(id=i, p=1, s=1) for i in range(3)])
        assert manager.describe(session.id)["n"] == 1

    def test_batch_against_finalized_session_places_nothing(self):
        from repro.service import SessionError

        manager = SessionManager()
        session = manager.open("online_greedy", m=2)
        manager.result(session.id)
        with pytest.raises(SessionError, match="rejected whole"):
            manager.submit_many(session.id, [Task(id=0, p=1, s=1)])

    def test_validation_counters(self):
        manager = SessionManager()
        session = manager.open("online_greedy", m=2)
        manager.submit(session.id, Task(id=0, p=1, s=1))
        stats = manager.stats()
        assert stats["sessions_open"] == 1
        assert stats["sessions_opened"] == 1
        assert stats["session_tasks"] == 1


# --------------------------------------------------------------------------- #
# the service facade + protocol ops
# --------------------------------------------------------------------------- #
class TestServiceSessions:
    def test_session_api_requires_running_service(self):
        svc = SolverService(workers=1)
        from repro.service import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            svc.session_open("online_greedy", m=2)

    def test_handle_request_session_flow(self, trace):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_sbo(delta=1.0)", "m": 4}
                )
                assert opened["ok"], opened
                sid = opened["session"]
                for event in trace:
                    ack = await svc.handle({
                        "op": "session_submit", "session": sid,
                        "task": {"id": event.task.id, "p": event.task.p, "s": event.task.s},
                    })
                    assert ack["ok"] and len(ack["placements"]) == 1
                final = await svc.handle({"op": "session_result", "session": sid})
                closed = await svc.handle({"op": "session_close", "session": sid})
                stats = await svc.handle({"op": "stats"})
                return final, closed, stats

        final, closed, stats = run(scenario())
        local = create_online("online_sbo(delta=1.0)", m=4)
        for event in stochastic_trace(n=50, m=4, seed=0):
            local.submit(event.task)
        expected = local.finalize()
        assert final["result"]["cmax"] == expected.cmax
        assert final["result"]["mmax"] == expected.mmax
        assert dict(map(tuple, final["result"]["assignment"])) == expected.schedule.assignment
        assert closed["closed"] and closed["n"] == 50
        assert stats["stats"]["sessions_opened"] == 1
        assert stats["stats"]["session_tasks"] == 50

    def test_batch_submit_matches_sequential(self, trace):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 4}
                )
                sid = opened["session"]
                tasks = [
                    {"id": e.task.id, "p": e.task.p, "s": e.task.s} for e in trace
                ]
                ack = await svc.handle(
                    {"op": "session_submit", "session": sid, "tasks": tasks}
                )
                return ack

        ack = run(scenario())
        assert ack["ok"] and len(ack["placements"]) == 50
        local = create_online("online_greedy", m=4)
        placements = [[e.task.id, local.submit(e.task)] for e in trace]
        assert ack["placements"] == placements

    @pytest.mark.parametrize("request_payload,fragment", [
        ({"op": "session_open", "m": 4}, "spec"),
        ({"op": "session_open", "spec": "online_greedy"}, "'m'"),
        ({"op": "session_open", "spec": "online_greedy", "m": 0}, "'m'"),
        ({"op": "session_submit", "session": "sess-1"}, "task"),
        ({"op": "session_submit"}, "session"),
        ({"op": "session_result"}, "session"),
        ({"op": "session_close", "session": ""}, "session"),
    ])
    def test_malformed_session_requests(self, request_payload, fragment):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                return await svc.handle(request_payload)

        response = run(scenario())
        assert not response["ok"]
        assert fragment in response["error"]["message"]

    def test_wire_batch_with_bad_tail_is_atomic(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                bad = await svc.handle({
                    "op": "session_submit", "session": sid,
                    "tasks": [{"id": 0, "p": 1, "s": 1}, {"id": 0, "p": 2, "s": 2}],
                })
                state = svc.session_describe(sid)
                return bad, state

        bad, state = run(scenario())
        assert not bad["ok"] and "rejected whole" in bad["error"]["message"]
        assert state["n"] == 0

    def test_unknown_session_is_an_error_response(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                return await svc.handle(
                    {"op": "session_result", "session": "sess-404"}
                )

        response = run(scenario())
        assert not response["ok"]
        assert response["error"]["type"] == "UnknownSessionError"

    def test_submit_after_result_rejected(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                await svc.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 0, "p": 1, "s": 1},
                })
                await svc.handle({"op": "session_result", "session": sid})
                return await svc.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 1, "p": 1, "s": 1},
                })

        response = run(scenario())
        assert not response["ok"]
        assert "finalized" in response["error"]["message"]

    def test_concurrent_session_results_share_one_finalization(self):
        async def scenario():
            trace = stochastic_trace(n=25, m=3, seed=9)
            async with SolverService(ServiceConfig(workers=1)) as svc:
                session = svc.session_open("online_hindsight(inner='lpt')", m=3)
                for event in trace:
                    svc.session_submit(session.id, event.task)
                first, second = await asyncio.gather(
                    svc.session_result(session.id),
                    svc.session_result(session.id),
                )
                third = await svc.session_result(session.id)
                return first, second, third

        first, second, third = run(scenario())
        # One finalization, fanned out: all waiters get the same object.
        assert first is second is third

    def test_sessions_cleared_on_close(self):
        async def scenario():
            svc = SolverService(ServiceConfig(workers=1))
            await svc.start()
            svc.session_open("online_greedy", m=2)
            await svc.close()
            return svc.stats()

        stats = run(scenario())
        assert stats.sessions_open == 0
        assert stats.sessions_closed == 1


# --------------------------------------------------------------------------- #
# two interleaved sessions over one live TCP connection
# --------------------------------------------------------------------------- #
class TestWireSessions:
    def test_two_interleaved_wire_sessions_stay_isolated(self):
        async def scenario():
            trace_a = stochastic_trace(n=30, m=3, seed=1)
            trace_b = stochastic_trace(n=30, m=2, seed=2)
            async with SolverService(ServiceConfig(workers=1)) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client_a = await ServiceClient.connect(port=port)
                client_b = await ServiceClient.connect(port=port)
                try:
                    sess_a = await client_a.session_open("online_sbo(delta=0.5)", m=3)
                    sess_b = await client_b.session_open("online_greedy(objective=memory)", m=2)
                    for ev_a, ev_b in zip(trace_a, trace_b):
                        await sess_a.submit(ev_a.task)
                        await sess_b.submit(ev_b.task)
                    wire_a = await sess_a.result()
                    wire_b = await sess_b.result()
                    await sess_a.close()
                    await sess_b.close()
                finally:
                    await client_a.close()
                    await client_b.close()
                    server.close()
                    await server.wait_closed()
            return trace_a, trace_b, wire_a, wire_b

        trace_a, trace_b, wire_a, wire_b = run(scenario())
        for trace, spec, wire in (
            (trace_a, "online_sbo(delta=0.5)", wire_a),
            (trace_b, "online_greedy(objective=memory)", wire_b),
        ):
            local = create_online(spec, m=trace.m)
            for event in trace:
                local.submit(event.task)
            expected = local.finalize()
            assert wire["cmax"] == expected.cmax
            assert wire["mmax"] == expected.mmax
            assert dict(map(tuple, wire["assignment"])) == expected.schedule.assignment

    def test_session_context_manager_closes_server_side(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    async with client.session("online_greedy", m=2) as session:
                        await session.submit(Task(id=0, p=1, s=1))
                    stats = await client.stats()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return stats

        stats = run(scenario())
        assert stats["sessions_opened"] == 1
        assert stats["sessions_closed"] == 1
        assert stats["sessions_open"] == 0

    def test_timed_out_request_does_not_leak_pending_entry(self):
        async def scenario():
            async def mute_server(reader, writer):
                await reader.read()  # swallow everything, never respond

            server = await asyncio.start_server(mute_server, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(port=port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.request({"op": "ping"}), timeout=0.2)
                return dict(client._pending)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert run(scenario()) == {}

    def test_wire_error_surfaces_remote_type(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    with pytest.raises(ServiceProtocolError) as excinfo:
                        await client.session_open("online_nope", m=2)
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return excinfo.value

        error = run(scenario())
        assert error.error_type == "SpecError"
        assert "online_nope" in error.remote_message


# --------------------------------------------------------------------------- #
# uniform instances over the wire (ROADMAP satellite)
# --------------------------------------------------------------------------- #
class TestUniformOverWire:
    def test_golden_uniform_round_trip(self):
        uni = golden_instances()["uniform-3speeds"]
        payload = uni.to_dict()
        assert payload["kind"] == "uniform"
        restored = UniformInstance.from_dict(json.loads(json.dumps(payload)))
        assert restored.content_hash() == uni.content_hash()
        assert restored.speeds == uni.speeds
        assert restored == uni

    def test_mismatched_m_rejected(self):
        uni = golden_instances()["uniform-3speeds"]
        payload = uni.to_dict()
        payload["m"] = 5
        with pytest.raises(ValueError, match="speeds"):
            UniformInstance.from_dict(payload)

    def test_uniform_solve_over_wire_matches_direct(self):
        uni = golden_instances()["uniform-3speeds"]
        direct = solve(uni, "uniform_rls(delta=2.5)", cache=False)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                return await svc.handle({
                    "op": "solve", "instance": uni.to_dict(),
                    "spec": "uniform_rls(delta=2.5)",
                })

        response = run(scenario())
        assert response["ok"], response
        result = response["result"]
        assert result["cmax"] == direct.cmax
        assert result["mmax"] == direct.mmax
        assert dict(map(tuple, result["assignment"])) == direct.schedule.assignment

    def test_plain_instance_still_defaults_independent(self):
        inst = Instance.from_lists(p=[1, 2], s=[3, 4], m=2)
        payload = inst.to_dict()
        assert payload["kind"] == "independent"


# --------------------------------------------------------------------------- #
# per-family latency stats (ROADMAP satellite)
# --------------------------------------------------------------------------- #
class TestFamilyLatency:
    def test_families_tracked_per_registry_entry(self):
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                await svc.solve(inst, "lpt")
                await svc.solve(inst, "sbo(delta=0.5)")
                await svc.solve(inst, "sbo(delta=1.0)")
                return svc.stats()

        stats = run(scenario())
        assert set(stats.families) == {"lpt", "sbo"}
        assert stats.families["sbo"]["count"] == 2
        assert stats.families["lpt"]["count"] == 1
        for family in stats.families.values():
            assert family["p50"] <= family["p99"]
            assert family["max"] >= family["p99"]

    def test_cache_hits_count_into_family_latency(self):
        inst = Instance.from_lists(p=[4, 3, 2], s=[1, 5, 2], m=2)

        async def scenario():
            from repro.solvers import LRUCache

            async with SolverService(ServiceConfig(workers=1, cache=LRUCache())) as svc:
                await svc.solve(inst, "lpt")
                await svc.solve(inst, "lpt")  # cache hit
                return svc.stats()

        stats = run(scenario())
        assert stats.cache_hits == 1
        assert stats.families["lpt"]["count"] == 2

    def test_families_surface_in_stats_op(self):
        inst = Instance.from_lists(p=[2, 1], s=[1, 2], m=2)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                await svc.solve(inst, "lpt")
                return await svc.handle({"op": "stats"})

        response = run(scenario())
        assert response["ok"]
        assert "lpt" in response["stats"]["families"]
        assert response["stats"]["families"]["lpt"]["count"] == 1


# --------------------------------------------------------------------------- #
# acceptance: streaming session against a live `repro serve` subprocess
# --------------------------------------------------------------------------- #
class TestLiveServeEndToEnd:
    SPEC = "online_sbo(delta=1.0)"

    def test_live_session_bit_identical_to_inprocess(self, trace):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        try:
            banner = proc.stderr.readline().decode()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            port = int(match.group(1))

            async def scenario():
                client = await ServiceClient.connect(port=port)
                try:
                    session = await client.session_open(self.SPEC, m=trace.m)
                    placements = []
                    for event in trace:  # a 50-task arrival trace, streamed
                        ack = await session.submit(event.task)
                        placements.append(tuple(ack["placements"][0]))
                    wire_result = await session.result()
                    await session.close()
                    stats = await client.stats()
                    await client.shutdown()
                finally:
                    await client.close()
                return placements, wire_result, stats

            placements, wire_result, stats = run(scenario())

            # The same online spec in-process.
            local = create_online(self.SPEC, m=trace.m)
            local_placements = [(e.task.id, local.submit(e.task)) for e in trace]
            expected = local.finalize()

            # Bit-identical: every placement, the objectives, the guarantee,
            # the canonical spec, and the full finalized assignment.
            assert placements == local_placements
            assert wire_result["cmax"] == expected.cmax
            assert wire_result["mmax"] == expected.mmax
            assert wire_result["sum_ci"] == expected.sum_ci
            assert wire_result["guarantee"] == list(expected.guarantee)
            assert wire_result["spec"] == expected.spec
            assert dict(map(tuple, wire_result["assignment"])) == expected.schedule.assignment
            assert stats["session_tasks"] == len(trace)

            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - only on test failure
                proc.kill()
                proc.wait(timeout=10)


# --------------------------------------------------------------------------- #
# sustained pipelined submissions (ordering under concurrency)
# --------------------------------------------------------------------------- #
class TestPipelinedSubmissions:
    def test_pipelined_submits_apply_in_line_order(self):
        """Fire all submits without awaiting acks; order must be preserved."""
        trace = stochastic_trace(n=100, m=4, seed=3)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    session = await client.session_open("online_sbo(delta=1.0)", m=4)
                    pending = [
                        asyncio.ensure_future(session.submit(event.task))
                        for event in trace
                    ]
                    await asyncio.gather(*pending)
                    wire = await session.result()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return wire

        wire = run(scenario())
        local = create_online("online_sbo(delta=1.0)", m=4)
        for event in trace:
            local.submit(event.task)
        expected = local.finalize()
        assert wire["cmax"] == expected.cmax
        assert dict(map(tuple, wire["assignment"])) == expected.schedule.assignment

    def test_sustained_submission_rate_floor(self):
        """A very conservative smoke floor so the hot path cannot quietly rot."""
        trace = stochastic_trace(n=200, m=4, seed=4)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                session = svc.session_open("online_sbo(delta=1.0)", m=4)
                start = time.perf_counter()
                for event in trace:
                    svc.session_submit(session.id, event.task)
                elapsed = time.perf_counter() - start
                svc.session_close(session.id)
                return elapsed

        elapsed = run(scenario())
        rate = len(trace) / elapsed
        assert rate >= 1000.0, f"in-service submission rate collapsed to {rate:.0f}/s"


# --------------------------------------------------------------------------- #
# windowed acknowledgements (ack: false) and ledger export/restore ops
# --------------------------------------------------------------------------- #
class TestWindowedAcks:
    SPEC = "online_sbo(delta=1.0)"

    async def _server(self, svc):
        shutdown = asyncio.Event()
        server = await serve_tcp(svc, port=0, shutdown=shutdown)
        return server, server.sockets[0].getsockname()[1]

    def test_windowed_placements_match_single_ack(self, trace):
        tasks = [event.task for event in trace]

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                server, port = await self._server(svc)
                client = await ServiceClient.connect(port=port)
                try:
                    session = await client.session_open(self.SPEC, m=trace.m)
                    placements = await session.submit_windowed(tasks, ack_every=8)
                    result = await session.result()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
            return placements, result

        placements, result = run(scenario())
        local = create_online(self.SPEC, m=trace.m)
        expected = [(t.id, local.submit(t)) for t in tasks]
        final = local.finalize()
        assert [tuple(p) for p in placements] == expected
        assert result["cmax"] == final.cmax
        assert dict(map(tuple, result["assignment"])) == final.schedule.assignment

    def test_ack_counts_one_response_per_window(self, trace):
        """ack_every=K costs ceil(n/K) responses, placements complete anyway."""
        tasks = [event.task for event in trace][:20]

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": self.SPEC, "m": trace.m}
                )
                sid = opened["session"]
                responses = 0
                placements = []
                for index, task in enumerate(tasks):
                    payload = {"op": "session_submit", "session": sid,
                               "task": {"id": task.id, "p": task.p, "s": task.s}}
                    if (index + 1) % 5 and index + 1 < len(tasks):
                        payload["ack"] = False
                        assert await svc.handle(payload) is None
                    else:
                        response = await svc.handle(payload)
                        responses += 1
                        assert response["ok"]
                        placements.extend(map(tuple, response["placements"]))
                        assert response["n"] == index + 1
            return responses, placements

        responses, placements = run(scenario())
        assert responses == 4  # 20 submissions, one ack per 5
        local = create_online(self.SPEC, m=trace.m)
        assert placements == [(t.id, local.submit(t)) for t in tasks]

    def test_window_failure_surfaces_on_next_ack(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                ok = await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                dup = await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 2.0, "s": 2.0}})
                # Later unacked submissions are refused while poisoned.
                skipped = await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 1, "p": 1.0, "s": 1.0}})
                error = await svc.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 2, "p": 1.0, "s": 1.0}})
                # The error cleared the window: the session is usable again.
                recovered = await svc.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 3, "p": 1.0, "s": 1.0}})
                described = await svc.handle({"op": "stats"})
            return ok, dup, skipped, error, recovered, described

        ok, dup, skipped, error, recovered, described = run(scenario())
        assert ok is None and dup is None and skipped is None
        assert not error["ok"]
        assert "unacknowledged submission failed" in error["error"]["message"]
        assert "already submitted" in error["error"]["message"]
        assert recovered["ok"]
        # Only tasks 0 and 3 were placed (1 was refused, 2 rejected with the
        # error): the session holds exactly two tasks.
        assert recovered["n"] == 2

    def test_window_failure_surfaces_on_session_result(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})  # duplicate
                error = await svc.handle({"op": "session_result",
                                                   "session": sid})
                retry = await svc.handle({"op": "session_result",
                                                   "session": sid})
            return error, retry

        error, retry = run(scenario())
        assert not error["ok"]
        assert "unacknowledged submission failed" in error["error"]["message"]
        assert retry["ok"]  # the reported error cleared the window
        assert retry["result"]["extras"]["n_submitted"] == 1

    def test_invalid_ack_value_rejected(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                return await svc.handle({
                    "op": "session_submit", "session": opened["session"],
                    "ack": "maybe", "task": {"id": 0, "p": 1.0, "s": 1.0}})

        response = run(scenario())
        assert not response["ok"]
        assert "'ack' must be a JSON boolean" in response["error"]["message"]


class TestSessionExportRestoreOps:
    def test_export_restore_round_trip_over_wire(self, trace):
        tasks = [event.task for event in trace][:30]

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    session = await client.session_open(
                        "online_sbo(delta=1.0)", m=trace.m
                    )
                    await session.submit_many(tasks[:20])
                    exported = await client.request(
                        {"op": "session_export", "session": session.id}
                    )
                    restored = await client.request(
                        {"op": "session_restore", "export": exported["export"]}
                    )
                    # Continue on the restored copy only.
                    new_sid = restored["session"]
                    assert new_sid != session.id
                    for task in tasks[20:]:
                        await client.request({
                            "op": "session_submit", "session": new_sid,
                            "task": {"id": task.id, "p": task.p, "s": task.s}})
                    result = await client.request(
                        {"op": "session_result", "session": new_sid}
                    )
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
            return restored, result

        restored, result = run(scenario())
        assert restored["n"] == 20
        local = create_online("online_sbo(delta=1.0)", m=trace.m)
        for task in tasks:
            local.submit(task)
        expected = local.finalize()
        assert result["result"]["cmax"] == expected.cmax
        assert dict(map(tuple, result["result"]["assignment"])) \
            == expected.schedule.assignment

    def test_restore_respects_admission_bounds(self):
        async def scenario():
            config = ServiceConfig(workers=1, max_sessions=1)
            async with SolverService(config) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                exported = await svc.handle(
                    {"op": "session_export", "session": opened["session"]}
                )
                denied = await svc.handle(
                    {"op": "session_restore", "export": exported["export"]}
                )
            return denied

        denied = run(scenario())
        assert not denied["ok"]
        assert denied["error"]["type"] == "SessionLimitError"

    def test_restore_refuses_corrupt_export(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                for i in range(4):
                    await svc.handle({
                        "op": "session_submit", "session": sid,
                        "task": {"id": i, "p": float(i + 1), "s": 1.0}})
                exported = await svc.handle(
                    {"op": "session_export", "session": sid}
                )
                export = exported["export"]
                export["state"]["placements"] = [
                    (p + 1) % 2 for p in export["state"]["placements"]
                ]
                refused = await svc.handle(
                    {"op": "session_restore", "export": export}
                )
                malformed = await svc.handle(
                    {"op": "session_restore", "export": {"submitted": 1}}
                )
            return refused, malformed

        refused, malformed = run(scenario())
        assert not refused["ok"]
        assert "diverged" in refused["error"]["message"]
        assert not malformed["ok"]
        assert "state" in malformed["error"]["message"]

    def test_export_carries_windowed_buffer(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                for i in range(3):
                    await svc.handle({
                        "op": "session_submit", "session": sid, "ack": False,
                        "task": {"id": i, "p": float(i + 1), "s": 1.0}})
                exported = await svc.handle(
                    {"op": "session_export", "session": sid}
                )
                restored = await svc.handle(
                    {"op": "session_restore", "export": exported["export"]}
                )
                ack = await svc.handle({
                    "op": "session_submit", "session": restored["session"],
                    "task": {"id": 3, "p": 4.0, "s": 1.0}})
            return exported, ack

        exported, ack = run(scenario())
        assert len(exported["export"]["window"]) == 3
        assert ack["ok"]
        local = create_online("online_greedy", m=2)
        expected = [(i, local.submit(Task(id=i, p=float(i + 1), s=1.0)))
                    for i in range(4)]
        assert [tuple(p) for p in ack["placements"]] == expected


class TestDrainOp:
    def test_drain_waits_for_pending_and_reports(self):
        from _service_helpers import make_sleepy_entry, registered

        inst = Instance.from_lists(p=[2, 1], s=[1, 1], m=1)

        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(ServiceConfig(workers=1)) as svc:
                    await svc.solve(inst, "lpt")  # warm the pool
                    job = asyncio.create_task(
                        svc.solve(inst, "sleepy(seconds=0.4)")
                    )
                    await asyncio.sleep(0.1)
                    quick = await svc.handle(
                        {"op": "drain", "timeout": 0.05}
                    )
                    full = await svc.handle({"op": "drain", "timeout": 30})
                    await job
            return quick, full

        quick, full = run(scenario())
        assert quick["ok"] and quick["drained"] is False and quick["pending"] >= 1
        assert full["ok"] and full["drained"] is True and full["pending"] == 0

    def test_drain_requires_numeric_timeout(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                return await svc.handle({"op": "drain", "timeout": "x"})

        response = run(scenario())
        assert not response["ok"]
        assert "'timeout' must be a number" in response["error"]["message"]


class TestUnackedContract:
    """Review fixes: an unacknowledged line never produces a response."""

    def test_unknown_session_noack_is_dropped(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                dropped = await svc.handle({
                    "op": "session_submit", "session": "sess-404", "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                bad_field = await svc.handle({
                    "op": "session_submit", "session": 7, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
            return dropped, bad_field

        dropped, bad_field = run(scenario())
        assert dropped is None
        assert bad_field is None

    def test_malformed_noack_task_poisons_window(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                malformed = await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0}})  # missing p/s
                error = await svc.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 1, "p": 1.0, "s": 1.0}})
            return malformed, error

        malformed, error = run(scenario())
        assert malformed is None  # no response line, the failure buffered
        assert not error["ok"]
        assert "unacknowledged submission failed" in error["error"]["message"]
        assert "missing" in error["error"]["message"]

    def test_close_reports_window_error(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                sid = opened["session"]
                await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                await svc.handle({
                    "op": "session_submit", "session": sid, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})  # duplicate: poisons
                closed = await svc.handle({"op": "session_close",
                                                    "session": sid})
                clean = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                clean_close = await svc.handle({"op": "session_close",
                                                         "session": clean["session"]})
            return closed, clean_close

        closed, clean_close = run(scenario())
        assert closed["ok"] and closed["closed"]
        assert "already submitted" in closed["window_error"]
        assert clean_close["ok"] and "window_error" not in clean_close


class TestReplayStateMalformedRecords:
    def test_restore_rejects_truncated_task_record_cleanly(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                return await svc.handle({
                    "op": "session_restore",
                    "export": {"state": {"spec": "online_greedy", "m": 2,
                                         "tasks": [["x"]], "placements": [0]},
                               "submitted": 1}})

        response = run(scenario())
        assert not response["ok"]
        # The wire reports the session-layer refusal, not a raw IndexError.
        assert response["error"]["type"] == "SessionError"
        assert "malformed" in response["error"]["message"]
