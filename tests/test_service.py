"""Concurrency tests for the async serving layer (repro.service).

Five behaviour families, each exercised against a real process pool:

* **parity** — service results are field-by-field identical to direct
  ``solve()`` calls, including on the full golden corpus;
* **coalescing** — identical concurrent requests trigger exactly one
  underlying execution and every waiter receives the same result fields;
* **backpressure** — the bounded queue actually bounds, ``"reject"``
  fails fast and observably, ``"wait"`` parks submitters without loss;
* **timeouts & cancellation** — waiter-scoped deadlines fire, abandoned
  jobs drain fully (no zombies), and the service keeps serving;
* **transports** — the line-delimited JSON protocol over TCP and the
  ``repro serve`` stdio loop round-trip real requests.

The long-running many-client stress runs live in
``tests/test_service_soak.py`` behind the ``soak`` marker.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.instance import DAGInstance, Instance
from repro.service import (
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceTimeoutError,
    SolverService,
)
from repro.service.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    instance_from_payload,
    result_to_payload,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.obs.metrics import Histogram
from repro.solvers import LRUCache, SpecError, solve
from repro.solvers.registry import SolverCapabilityError

from _service_helpers import count_executions, make_sleepy_entry, registered
from make_golden import GOLDEN_PATH, golden_instances


def run(coro):
    return asyncio.run(coro)


async def drain(svc: SolverService, deadline: float = 30.0) -> None:
    """Wait until no job is pending or occupying a worker (no zombies)."""
    for _ in range(int(deadline / 0.05)):
        stats = svc.stats()
        if stats.pending == 0 and stats.in_flight == 0 and stats.queue_depth == 0:
            return
        await asyncio.sleep(0.05)
    raise AssertionError(f"service did not drain: {svc.stats()}")


@pytest.fixture
def inst() -> Instance:
    return Instance.from_lists(p=[4, 3, 2, 2, 1, 6, 5], s=[1, 5, 2, 4, 3, 2, 6], m=3)


@pytest.fixture
def distinct_instances():
    def make(count: int, n: int = 6):
        return [
            Instance.from_lists(
                p=[float(1 + j + i) for j in range(n)],
                s=[float(1 + (j * 7 + i) % 5) for j in range(n)],
                m=2,
            )
            for i in range(count)
        ]

    return make


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.workers >= 1 and config.backpressure == "wait"

    @pytest.mark.parametrize("overrides", [
        {"workers": 0},
        {"max_pending": 0},
        {"backpressure": "drop"},
        {"default_timeout": 0.0},
        {"default_timeout": -1.0},
        {"slow_request_threshold": 0.0},
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(**overrides)

    def test_with_overrides_revalidates(self):
        config = ServiceConfig(workers=2)
        assert config.with_overrides(workers=4).workers == 4
        with pytest.raises(ValueError):
            config.with_overrides(workers=0)

    def test_constructor_shorthand(self):
        svc = SolverService(workers=3, backpressure="reject")
        assert svc.config.workers == 3 and svc.config.backpressure == "reject"


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_solve_requires_running_service(self, inst):
        async def scenario():
            svc = SolverService(workers=1)
            with pytest.raises(ServiceClosedError):
                await svc.solve(inst, "lpt")

        run(scenario())

    def test_context_manager_starts_and_closes(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                assert svc.is_running
                result = await svc.solve(inst, "lpt")
                assert result.feasible
            assert not svc.is_running
            with pytest.raises(ServiceClosedError):
                await svc.solve(inst, "lpt")
            await svc.close()  # idempotent
            with pytest.raises(ServiceClosedError):
                await svc.start()  # a closed service cannot be reopened

        run(scenario())

    def test_close_drains_running_jobs(self, distinct_instances):
        async def scenario():
            with registered(make_sleepy_entry()):
                svc = await SolverService(workers=2).start()
                tasks = [
                    asyncio.create_task(svc.solve(i, "sleepy(seconds=0.2)"))
                    for i in distinct_instances(3)
                ]
                await asyncio.sleep(0.05)
                await svc.close(drain=True)
                results = await asyncio.gather(*tasks)
                assert all(r.feasible for r in results)
                assert svc.stats().completed == 3

        run(scenario())


# --------------------------------------------------------------------------- #
# parity with direct solve()
# --------------------------------------------------------------------------- #
def assert_same_result(served, direct, *, check_provenance: bool = True):
    """Field-by-field equality, ignoring wall time (measured, not derived)."""
    assert served.feasible == direct.feasible
    assert served.objectives == direct.objectives
    assert served.guarantee == direct.guarantee
    assert served.solver == direct.solver
    assert served.spec == direct.spec
    if direct.feasible:
        assert served.schedule.assignment == direct.schedule.assignment
    if check_provenance:
        skip = {"cache"}
        assert {k: v for k, v in served.provenance.items() if k not in skip} == \
            {k: v for k, v in direct.provenance.items() if k not in skip}


class TestSolveParity:
    SPECS = [
        "lpt",
        "sbo(delta=0.5)",
        "sbo(delta=2.0, inner=multifit)",
        "rls(delta=2.5)",
        "trio(delta=2.5)",
        "pareto_approx(epsilon=0.5)",
        "constrained(budget=9)",
    ]

    def test_results_identical_to_direct_solve(self, inst):
        async def scenario():
            async with SolverService(workers=2) as svc:
                for spec in self.SPECS:
                    served = await svc.solve(inst, spec)
                    direct = solve(inst, spec, cache=False)
                    assert_same_result(served, direct)

        run(scenario())

    def test_spec_param_overrides(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                served = await svc.solve(inst, "sbo", delta=0.25)
                direct = solve(inst, "sbo", delta=0.25, cache=False)
                assert_same_result(served, direct)
                assert served.provenance["params"]["delta"] == 0.25

        run(scenario())

    def test_infeasible_constrained(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                served = await svc.solve(inst, "constrained(budget=0.5)")
                assert not served.feasible
                assert math.isinf(served.cmax)

        run(scenario())

    def test_validation_errors_raise_without_queueing(self, inst):
        dag = DAGInstance.from_lists(
            p=[2, 3], s=[1, 1], m=2, edges=[(0, 1)]
        )

        async def scenario():
            async with SolverService(workers=1) as svc:
                with pytest.raises(SpecError):
                    await svc.solve(inst, "no_such_solver")
                with pytest.raises(SpecError):
                    await svc.solve(inst, "sbo(delta=-1)")
                with pytest.raises(SolverCapabilityError):
                    await svc.solve(dag, "spt")
                stats = svc.stats()
                assert stats.submitted == 0 and stats.pending == 0

        run(scenario())

    def test_solver_failure_propagates_and_service_survives(self, inst):
        big = Instance.from_lists(p=[1.0] * 40, s=[1.0] * 40, m=4)

        async def scenario():
            async with SolverService(workers=1) as svc:
                with pytest.raises(ValueError):
                    await svc.solve(big, "exact")  # branch-and-bound size cap
                assert svc.stats().failed == 1
                result = await svc.solve(inst, "lpt")  # still serving
                assert result.feasible
                assert svc.stats().lost == 0

        run(scenario())


class TestGoldenCorpusParity:
    def test_service_matches_every_golden_case(self):
        fixture = json.loads(GOLDEN_PATH.read_text())
        instances = golden_instances()

        async def scenario():
            async with SolverService(workers=2, max_pending=128) as svc:
                tasks = [
                    (case, asyncio.create_task(
                        svc.solve(instances[case["instance"]], case["spec"])))
                    for case in fixture["cases"]
                ]
                for case, task in tasks:
                    result = await task
                    context = f"{case['instance']} / {case['spec']} via service"
                    assert result.solver == case["solver"], context
                    assert result.spec == case["canonical_spec"], context
                    assert result.feasible == case["feasible"], context
                    assert result.cmax == case["cmax"], context
                    assert result.mmax == case["mmax"], context
                    assert result.sum_ci == case["sum_ci"], context
                    assert list(result.guarantee) == case["guarantee"], context
                stats = svc.stats()
                assert stats.lost == 0
                assert stats.submitted == len(fixture["cases"])

        run(scenario())


# --------------------------------------------------------------------------- #
# cache read-through
# --------------------------------------------------------------------------- #
class TestCacheReadThrough:
    def test_miss_then_hit(self, inst):
        async def scenario():
            cache = LRUCache()
            async with SolverService(workers=1, cache=cache) as svc:
                cold = await svc.solve(inst, "sbo(delta=1.0)")
                warm = await svc.solve(inst, "sbo(delta=1.0)")
                assert cold.provenance["cache"] == "miss"
                assert warm.provenance["cache"] == "hit"
                assert_same_result(warm, cold)
                stats = svc.stats()
                assert stats.cache_hits == 1 and stats.cache_misses == 1
                assert stats.completed == 1  # the hit never reached the pool

        run(scenario())

    def test_cache_shared_with_direct_solve(self, inst):
        async def scenario():
            cache = LRUCache()
            direct = solve(inst, "rls(delta=2.5)", cache=cache)
            async with SolverService(workers=1, cache=cache) as svc:
                served = await svc.solve(inst, "rls(delta=2.5)")
                assert served.provenance["cache"] == "hit"
                assert_same_result(served, direct)

        run(scenario())

    def test_custom_solver_not_cached_but_served(self, inst, tmp_path):
        async def scenario():
            cache = LRUCache()
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1, cache=cache) as svc:
                    token = tmp_path / "runs.log"
                    spec = f"sleepy(seconds=0.0, token='{token}')"
                    await svc.solve(inst, spec)
                    await svc.solve(inst, spec)
                    assert len(cache) == 0
                    assert count_executions(token) == 2  # sequential: no coalesce
                    stats = svc.stats()
                    assert stats.cache_hits == 0 and stats.cache_misses == 0

        run(scenario())

    def test_disk_cache_round_trip(self, inst, tmp_path):
        async def scenario():
            async with SolverService(workers=1, cache=str(tmp_path / "c")) as svc:
                cold = await svc.solve(inst, "multifit")
                assert cold.provenance["cache"] == "miss"
            async with SolverService(workers=1, cache=str(tmp_path / "c")) as svc:
                warm = await svc.solve(inst, "multifit")
                assert warm.provenance["cache"] == "hit"
                assert_same_result(warm, cold)

        run(scenario())


# --------------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------------- #
class TestCoalescing:
    def test_identical_concurrent_requests_run_once(self, inst, tmp_path):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=2) as svc:
                    token = tmp_path / "runs.log"
                    spec = f"sleepy(seconds=0.25, token='{token}')"
                    results = await asyncio.gather(
                        *(svc.solve(inst, spec) for _ in range(8))
                    )
                    assert count_executions(token) == 1
                    first = results[0]
                    for other in results[1:]:
                        assert_same_result(other, first)
                        assert other.wall_time == first.wall_time  # same object fields
                    stats = svc.stats()
                    assert stats.submitted == 8
                    assert stats.coalesced == 7
                    assert stats.completed == 1
                    assert stats.lost == 0

        run(scenario())

    def test_different_specs_not_coalesced(self, inst, tmp_path):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=2) as svc:
                    t1, t2 = tmp_path / "a.log", tmp_path / "b.log"
                    await asyncio.gather(
                        svc.solve(inst, f"sleepy(seconds=0.05, token='{t1}')"),
                        svc.solve(inst, f"sleepy(seconds=0.06, token='{t2}')"),
                    )
                    assert count_executions(t1) == 1 and count_executions(t2) == 1
                    assert svc.stats().coalesced == 0

        run(scenario())

    def test_builtin_results_coalesce_bit_identically(self, inst):
        async def scenario():
            async with SolverService(workers=2) as svc:
                results = await asyncio.gather(
                    *(svc.solve(inst, "pareto_approx(epsilon=0.25)") for _ in range(5))
                )
                direct = solve(inst, "pareto_approx(epsilon=0.25)", cache=False)
                for served in results:
                    assert_same_result(served, direct)

        run(scenario())


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
class TestBackpressure:
    def test_reject_policy_fails_fast_and_is_observable(self, distinct_instances):
        async def scenario():
            with registered(make_sleepy_entry()):
                config = ServiceConfig(workers=1, max_pending=2, backpressure="reject")
                async with SolverService(config) as svc:
                    instances = distinct_instances(5)
                    tasks = [
                        asyncio.create_task(svc.solve(i, "sleepy(seconds=0.3)"))
                        for i in instances
                    ]
                    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                    rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
                    served = [o for o in outcomes if not isinstance(o, Exception)]
                    assert len(rejected) == 3 and len(served) == 2
                    stats = svc.stats()
                    assert stats.rejected == 3
                    assert stats.completed == 2
                    assert stats.lost == 0
                    # After the burst the service accepts requests again.
                    late = await svc.solve(instances[0], "sleepy(seconds=0.0)")
                    assert late.feasible

        run(scenario())

    def test_wait_policy_bounds_pending_without_loss(self, distinct_instances):
        async def scenario():
            with registered(make_sleepy_entry()):
                config = ServiceConfig(workers=1, max_pending=2, backpressure="wait")
                async with SolverService(config) as svc:
                    instances = distinct_instances(6)
                    tasks = [
                        asyncio.create_task(svc.solve(i, "sleepy(seconds=0.05)"))
                        for i in instances
                    ]
                    max_pending_seen = 0
                    while not all(t.done() for t in tasks):
                        stats = svc.stats()
                        max_pending_seen = max(max_pending_seen, stats.pending)
                        assert stats.pending <= config.max_pending, (
                            f"bound violated: {stats}"
                        )
                        await asyncio.sleep(0.01)
                    results = await asyncio.gather(*tasks)
                    assert len(results) == 6 and all(r.feasible for r in results)
                    assert max_pending_seen == config.max_pending  # bound was reached
                    stats = svc.stats()
                    assert stats.completed == 6
                    assert stats.rejected == 0
                    assert stats.lost == 0

        run(scenario())

    def test_queue_depth_gauge_reflects_waiting_jobs(self, distinct_instances):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1, max_pending=8) as svc:
                    tasks = [
                        asyncio.create_task(svc.solve(i, "sleepy(seconds=0.2)"))
                        for i in distinct_instances(3)
                    ]
                    await asyncio.sleep(0.1)
                    stats = svc.stats()
                    assert stats.in_flight == 1  # one worker
                    assert stats.queue_depth == 2  # the rest wait for a slot
                    await asyncio.gather(*tasks)
                    await drain(svc)

        run(scenario())


# --------------------------------------------------------------------------- #
# timeouts and cancellation
# --------------------------------------------------------------------------- #
class TestTimeouts:
    def test_request_timeout_raises_and_leaves_no_zombies(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    with pytest.raises(ServiceTimeoutError):
                        await svc.solve(inst, "sleepy(seconds=2.0)", timeout=0.05)
                    stats = svc.stats()
                    assert stats.timed_out == 1
                    await drain(svc)  # worker finishes, gauges return to zero
                    assert svc.stats().abandoned == 1
                    # The fleet is healthy and immediately serves new work.
                    result = await svc.solve(inst, "sleepy(seconds=0.0)")
                    assert result.feasible
                    assert svc.stats().lost == 0

        run(scenario())

    def test_default_timeout_from_config(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                config = ServiceConfig(workers=1, default_timeout=0.05)
                async with SolverService(config) as svc:
                    with pytest.raises(ServiceTimeoutError):
                        await svc.solve(inst, "sleepy(seconds=2.0)")
                    # An explicit timeout overrides the configured default ...
                    result = await svc.solve(inst, "sleepy(seconds=0.1)", timeout=None)
                    assert result.feasible
                    await drain(svc)

        run(scenario())

    def test_timed_out_waiter_does_not_kill_coalesced_job(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    spec = "sleepy(seconds=0.4)"
                    patient = asyncio.create_task(svc.solve(inst, spec))
                    await asyncio.sleep(0.05)
                    with pytest.raises(ServiceTimeoutError):
                        await svc.solve(inst, spec, timeout=0.05)
                    result = await patient
                    assert result.feasible
                    stats = svc.stats()
                    assert stats.timed_out == 1 and stats.completed == 1
                    assert stats.abandoned == 0  # a waiter remained
                    assert stats.lost == 0

        run(scenario())

    def test_abandoned_builtin_result_still_lands_in_cache(self):
        # Paid-for work is salvaged: when every waiter times out, the pool
        # job keeps running and its result is stored for future requests.
        big = Instance.from_lists(
            p=[float(3 + (i % 11)) for i in range(90)],
            s=[float(1 + (i % 7)) for i in range(90)],
            m=8,
        )

        async def scenario():
            cache = LRUCache()
            async with SolverService(workers=1, cache=cache) as svc:
                with pytest.raises(ServiceTimeoutError):
                    await svc.solve(big, "pareto_approx(epsilon=0.05)", timeout=0.005)
                await drain(svc)
                if len(cache) == 1:  # job was already running when abandoned
                    warm = await svc.solve(big, "pareto_approx(epsilon=0.05)")
                    assert warm.provenance["cache"] == "hit"
                assert svc.stats().lost == 0

        run(scenario())

    def test_invalid_timeout_rejected(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                with pytest.raises(ValueError):
                    await svc.solve(inst, "lpt", timeout=-1.0)
                # The refused request must not unbalance the stats ledger.
                stats = svc.stats()
                assert stats.submitted == 0 and stats.lost == 0

        run(scenario())


class TestCancellation:
    def test_cancelled_waiter_abandons_job_cleanly(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    task = asyncio.create_task(svc.solve(inst, "sleepy(seconds=2.0)"))
                    await asyncio.sleep(0.1)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    stats = svc.stats()
                    assert stats.cancelled == 1
                    await drain(svc)
                    assert svc.stats().abandoned == 1
                    result = await svc.solve(inst, "sleepy(seconds=0.0)")
                    assert result.feasible
                    assert svc.stats().lost == 0

        run(scenario())

    def test_cancelling_one_of_many_waiters_keeps_the_job(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    spec = "sleepy(seconds=0.3)"
                    keeper = asyncio.create_task(svc.solve(inst, spec))
                    victim = asyncio.create_task(svc.solve(inst, spec))
                    await asyncio.sleep(0.05)
                    victim.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await victim
                    result = await keeper
                    assert result.feasible
                    assert svc.stats().completed == 1
                    assert svc.stats().abandoned == 0

        run(scenario())


# --------------------------------------------------------------------------- #
# stats plumbing
# --------------------------------------------------------------------------- #
class TestStats:
    def test_latency_summary_percentiles(self):
        histogram = Histogram("lat", labelnames=("family",))
        for ms in range(1, 101):  # 1..100 ms
            histogram.observe(ms / 1000.0, "lpt")
        snap = histogram.summary("lpt")
        # Upper bound of the covering bucket: the 50th sample (50 ms) sits
        # exactly on the 0.05 boundary, the 99th in the (0.05, 0.1] bucket.
        assert snap["p50"] == pytest.approx(0.050)
        assert snap["p99"] == pytest.approx(0.100)
        assert snap["count"] == 100
        assert snap["max"] == pytest.approx(0.100)
        assert snap["mean"] == pytest.approx(snap["sum"] / 100)
        assert sum(snap["buckets"]) == 100
        assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]

    def test_latency_summary_empty(self):
        snap = Histogram("lat", labelnames=("family",)).summary("lpt")
        assert snap["count"] == 0 and snap["sum"] == 0.0
        for key in ("p50", "p90", "p99", "mean", "max"):
            assert math.isnan(snap[key])

    def test_latency_summary_is_lifetime_and_clamped_to_max(self):
        histogram = Histogram("lat", labelnames=("family",))
        for value in (1.0, 1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.2):
            histogram.observe(value, "lpt")
        snap = histogram.summary("lpt")
        assert snap["count"] == 8  # every sample, no sliding window
        assert snap["p50"] == 1.0
        # (1.0, 2.5] covers the tail; the estimate is clamped to the max.
        assert snap["p99"] == snap["max"] == 1.2

    def test_stats_snapshot_serializes(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                await svc.solve(inst, "lpt")
                payload = svc.stats().to_dict()
                json.dumps(payload)  # JSON-safe for the stats op
                assert payload["submitted"] == 1
                assert payload["lost"] == 0
                assert payload["latency_count"] == 1

        run(scenario())


# --------------------------------------------------------------------------- #
# protocol + transports
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_message_round_trip(self, inst):
        payload = solve_request(inst, "sbo(delta=1.0)", request_id=7, timeout=2.5)
        decoded = decode_message(encode_message(payload))
        assert decoded["id"] == 7 and decoded["spec"] == "sbo(delta=1.0)"
        rebuilt = instance_from_payload(decoded["instance"])
        assert rebuilt.content_hash() == inst.content_hash()

    def test_dag_instance_round_trip(self):
        dag = DAGInstance.from_lists(
            p=[2, 3, 1], s=[1, 2, 1], m=2, edges=[(0, 1), (1, 2)]
        )
        rebuilt = instance_from_payload(json.loads(json.dumps(dag.to_dict())))
        assert isinstance(rebuilt, DAGInstance)
        assert rebuilt.content_hash() == dag.content_hash()

    @pytest.mark.parametrize("line", ["", "not json", "[1, 2]", b"\xff\xfe"])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_malformed_instance_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            instance_from_payload("nope")
        with pytest.raises(ProtocolError):
            instance_from_payload({"kind": "uniform"})
        with pytest.raises(ProtocolError):
            instance_from_payload({"kind": "independent"})  # no tasks/m

    def test_result_payload_covers_fields(self, inst):
        result = solve(inst, "rls(delta=2.5)", cache=False)
        payload = result_to_payload(result)
        assert payload["solver"] == "rls"
        assert payload["feasible"] is True
        assert payload["cmax"] == result.cmax
        assert dict(payload["assignment"]) == result.schedule.assignment
        json.dumps(payload)  # inf guarantees serialize via the json extension

    def test_infeasible_result_payload(self, inst):
        result = solve(inst, "constrained(budget=0.5)", cache=False)
        payload = result_to_payload(result)
        assert payload["feasible"] is False and payload["assignment"] is None


class TestTCPServer:
    def test_many_clients_share_one_service(self, distinct_instances):
        async def scenario():
            async with SolverService(workers=2, max_pending=32) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                instances = distinct_instances(4)

                async def client(idx: int):
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    expected = {}
                    for req, spec in enumerate(["lpt", "sbo(delta=1.0)", "rls(delta=2.5)"]):
                        rid = f"{idx}:{req}"
                        writer.write(encode_message(
                            solve_request(instances[idx], spec, request_id=rid)))
                        expected[rid] = solve(instances[idx], spec, cache=False)
                    await writer.drain()
                    seen = {}
                    while len(seen) < len(expected):
                        msg = json.loads(await asyncio.wait_for(reader.readline(), 30))
                        seen[msg["id"]] = msg
                    writer.close()
                    for rid, msg in seen.items():
                        assert msg["ok"], msg
                        direct = expected[rid]
                        assert msg["result"]["cmax"] == direct.cmax
                        assert msg["result"]["mmax"] == direct.mmax
                        assert msg["result"]["sum_ci"] == direct.sum_ci
                        assert msg["result"]["guarantee"] == list(direct.guarantee)
                    return len(seen)

                counts = await asyncio.gather(*(client(i) for i in range(4)))
                assert counts == [3, 3, 3, 3]  # no lost or duplicated responses
                stats = svc.stats()
                assert stats.submitted == 12 and stats.lost == 0
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_request_errors_are_responses_not_disconnects(self, inst):
        async def scenario():
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"garbage\n")
                writer.write(encode_message({"id": 1, "op": "warp"}))
                writer.write(encode_message(
                    {"id": 2, "op": "solve", "instance": inst.to_dict(),
                     "spec": "no_such_solver"}))
                writer.write(encode_message(solve_request(inst, "lpt", request_id=3)))
                await writer.drain()
                seen = {}
                while len(seen) < 4:
                    msg = json.loads(await asyncio.wait_for(reader.readline(), 30))
                    seen[msg["id"]] = msg
                assert seen[None]["error"]["type"] == "ProtocolError"
                assert seen[1]["error"]["type"] == "ProtocolError"
                assert seen[2]["error"]["type"] == "SpecError"
                assert seen[3]["ok"] is True
                writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_rude_disconnect_does_not_break_the_server(self, inst):
        # A client that aborts (RST) mid-conversation must not affect other
        # clients or future connections.
        async def scenario():
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message(solve_request(inst, "lpt", request_id=1)))
                await writer.drain()
                writer.transport.abort()  # RST without reading the response
                await asyncio.sleep(0.2)
                # The server still serves a fresh connection normally.
                reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
                writer2.write(encode_message(solve_request(inst, "lpt", request_id=2)))
                await writer2.drain()
                msg = json.loads(await asyncio.wait_for(reader2.readline(), 30))
                assert msg["ok"] is True
                writer2.close()
                server.close()
                await server.wait_closed()
                assert svc.stats().lost == 0

        run(scenario())

    def test_large_instance_payload_round_trips(self):
        # A few thousand tasks serialize to a JSON line far beyond asyncio's
        # default 64 KiB reader limit; the server must still frame it.
        big = Instance.from_lists(
            p=[float(1 + i % 97) for i in range(4000)],
            s=[float(1 + i % 53) for i in range(4000)],
            m=8,
        )

        async def scenario():
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=32 * 1024 * 1024
                )
                request = encode_message(solve_request(big, "lpt", request_id=1))
                assert len(request) > 64 * 1024
                writer.write(request)
                await writer.drain()
                msg = json.loads(await asyncio.wait_for(reader.readline(), 60))
                assert msg["ok"], msg
                assert msg["result"]["cmax"] == solve(big, "lpt", cache=False).cmax
                writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_shutdown_with_connection_held_open(self, inst):
        # A client that sends {"op": "shutdown"} but never closes its end
        # must not park the server in readline() forever: the server closes
        # the connection itself after acknowledging.
        async def scenario():
            shutdown = asyncio.Event()
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message({"id": 1, "op": "shutdown"}))
                await writer.drain()  # connection intentionally left open
                ack = json.loads(await asyncio.wait_for(reader.readline(), 30))
                assert ack["shutdown"] is True
                assert await asyncio.wait_for(reader.read(), 30) == b""  # server hung up
                assert shutdown.is_set()
                writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_stats_ping_shutdown_ops(self, inst):
        async def scenario():
            shutdown = asyncio.Event()
            async with SolverService(workers=1) as svc:
                server = await serve_tcp(svc, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message(solve_request(inst, "lpt", request_id=1)))
                await writer.drain()
                json.loads(await asyncio.wait_for(reader.readline(), 30))
                for op in ("ping", "stats", "shutdown"):
                    writer.write(encode_message({"id": op, "op": op}))
                await writer.drain()
                seen = {}
                for _ in range(3):
                    msg = json.loads(await asyncio.wait_for(reader.readline(), 30))
                    seen[msg["id"]] = msg
                assert seen["ping"]["pong"] is True
                assert seen["stats"]["stats"]["submitted"] == 1
                assert seen["shutdown"]["shutdown"] is True
                assert shutdown.is_set()
                writer.close()
                server.close()
                await server.wait_closed()

        run(scenario())


class TestServeCLI:
    def test_stdio_round_trip(self, tmp_path):
        instance = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
        requests = b"".join([
            encode_message(solve_request(instance, "sbo(delta=1.0)", request_id=1)),
            encode_message({"id": 2, "op": "stats"}),
            encode_message({"id": 3, "op": "shutdown"}),
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio", "--workers", "1"],
            input=requests, capture_output=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert b"repro service on stdio" in proc.stderr
        responses = {
            msg["id"]: msg
            for msg in (json.loads(line) for line in proc.stdout.splitlines() if line.strip())
        }
        direct = solve(instance, "sbo(delta=1.0)", cache=False)
        assert responses[1]["ok"] and responses[1]["result"]["cmax"] == direct.cmax
        assert responses[2]["stats"]["submitted"] == 1
        assert responses[3]["shutdown"] is True

    def test_mutually_exclusive_transports(self, capsys):
        from repro.cli import main

        assert main(["serve", "--stdio", "--port", "1234"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_invalid_config_rejected(self, capsys):
        from repro.cli import main

        assert main(["serve", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# latency-derived timeouts (ServiceConfig.auto_timeouts)
# --------------------------------------------------------------------------- #
class TestAutoTimeouts:
    @pytest.fixture(autouse=True)
    def tuning(self, monkeypatch):
        """Scale the derivation constants down to test-sized histories."""
        import repro.service.service as service_module

        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_MULTIPLIER", 10.0)
        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_FLOOR", 0.5)
        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_CEILING", 60.0)
        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_MIN_SAMPLES", 5)
        return monkeypatch, service_module

    def _config(self, **overrides) -> ServiceConfig:
        return ServiceConfig(**{"workers": 1, "auto_timeouts": True, **overrides})

    def test_derivation_floor_ceiling_and_min_samples(self):
        from repro.service.service import _UNSET

        async def scenario():
            async with SolverService(self._config()) as svc:
                # Below min_samples: no derived timeout.
                for _ in range(4):
                    svc._latency.observe(0.01, "sbo")
                assert svc._effective_timeout(_UNSET, "sbo") is None
                # Enough history: multiplier x p99 clamped by the floor.
                svc._latency.observe(0.01, "sbo")
                assert svc._effective_timeout(_UNSET, "sbo") == 0.5
                # A slow family derives multiplier x p99 directly.
                for _ in range(5):
                    svc._latency.observe(2.0, "pareto_approx")
                assert svc._effective_timeout(_UNSET, "pareto_approx") == 20.0
                # A pathologically slow family hits the ceiling.
                for _ in range(5):
                    svc._latency.observe(1000.0, "exact")
                assert svc._effective_timeout(_UNSET, "exact") == 60.0
                # Unseen families fall back to the default (None here).
                assert svc._effective_timeout(_UNSET, "lpt") is None

        run(scenario())

    def test_explicit_timeout_wins_over_derived(self):
        from repro.service.service import _UNSET

        async def scenario():
            config = self._config(default_timeout=9.0)
            async with SolverService(config) as svc:
                for _ in range(10):
                    svc._latency.observe(0.01, "sbo")
                assert svc._effective_timeout(3.0, "sbo") == 3.0      # explicit
                assert svc._effective_timeout(None, "sbo") is None    # explicit off
                assert svc._effective_timeout(_UNSET, "sbo") == 0.5   # derived
                assert svc._effective_timeout(_UNSET, "rls") == 9.0   # default

        run(scenario())

    def test_pathological_request_bounded_healthy_untouched(self, inst, tuning):
        """The ROADMAP scenario: a family's own history bounds its outliers."""
        monkeypatch, service_module = tuning
        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_FLOOR", 0.3)
        monkeypatch.setattr(service_module, "AUTO_TIMEOUT_MULTIPLIER", 5.0)

        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(self._config()) as svc:
                    # Build healthy history for the sleepy family (~20ms).
                    for i in range(6):
                        await svc.solve(inst, "sleepy(seconds=0.01)",
                                        seconds=0.01 + i * 1e-6)
                    # A pathological spec of the same family is bounded by
                    # the derived timeout (0.3s floor), not left hanging.
                    start = time.perf_counter()
                    with pytest.raises(ServiceTimeoutError):
                        await svc.solve(inst, "sleepy(seconds=2)")
                    elapsed = time.perf_counter() - start
                    assert elapsed < 1.5  # bounded by ~0.3s derived timeout
                    # Healthy specs (other families, no history) are untouched.
                    result = await svc.solve(inst, "lpt")
                    assert result.feasible
                    await drain(svc)
                    stats = svc.stats()
            return stats

        stats = run(scenario())
        assert stats.timed_out == 1
        assert stats.lost == 0

    def test_off_by_default(self):
        from repro.service.service import _UNSET

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                for _ in range(50):
                    svc._latency.observe(0.01, "sbo")
                assert svc._effective_timeout(_UNSET, "sbo") is None

        run(scenario())
