"""Dispatch by cost: cheap cold misses are solved on the service's loop.

``SolverService`` runs a cold miss's kernel on its event loop when one
solve it already ran for the (canonical spec, instance type) key took
less than ``INLINE_BUDGET_S`` on an instance with at least the job's
``n``, ``m`` and edge count; everything else goes to the worker pool.  These tests pin:

* **parity** — for every registry entry, the inline, pool and direct
  ``solve()`` payloads are equal (up to ``wall_time`` and
  ``provenance.cache``);
* **routing** — first-seen keys, instances no single cheap solve covers,
  exponential-time solvers (and specs binding one as ``inner``),
  periodic instances and non-stock entries go to the pool, read from the
  ``inline`` counter rather than from timing;
* **independence** — an inline miss completes while the only worker
  slot is held by a slow pool job;
* **the ledger** — ``lost == 0`` through timeouts, cancellation and
  ``close(drain=False)`` with inline jobs in the mix.

Routing tests raise the budget so that only the eligibility rules, not
the machine's speed, decide where a job runs.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import repro.service.service as service_module
from repro.core.instance import DAGInstance, Instance
from repro.extensions.uniform_machines import UniformInstance
from repro.obs.trace import RECORDER
from repro.periodic.model import PeriodicInstance, PeriodicTask
from repro.service import ServiceTimeoutError, SolverService
from repro.service.protocol import result_to_payload
from repro.solvers import DiskCache, LRUCache, available_solvers, solve

from _service_helpers import make_sleepy_entry, registered


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def generous_budget(monkeypatch):
    """Every eligible, already-seen key predicts under the budget."""
    monkeypatch.setattr(service_module, "INLINE_BUDGET_S", 10.0)


def independent(n: int = 8, m: int = 3, seed: int = 0) -> Instance:
    rng = random.Random(seed)
    return Instance.from_lists(
        p=[rng.randint(1, 20) for _ in range(n)],
        s=[rng.randint(1, 20) for _ in range(n)],
        m=m,
    )


def periodic() -> PeriodicInstance:
    return PeriodicInstance(
        [
            PeriodicTask(id="a", wcet=1.0, s=2.0, period=2.0),
            PeriodicTask(id="b", wcet=1.0, s=1.0, period=4.0),
            PeriodicTask(id="c", wcet=0.5, s=3.0, period=4.0),
        ],
        m=2,
    )


def case_for(name: str):
    """A small (instance, spec) pair of a kind the entry supports."""
    if name.startswith("periodic_"):
        return periodic(), name
    if name.startswith("uniform_"):
        return UniformInstance.from_lists(
            p=[4, 3, 2, 2, 1, 5], s=[1, 5, 2, 4, 3, 2], speeds=[1.0, 2.0]
        ), name
    if name == "constrained":
        return independent(), "constrained(budget=60)"
    return independent(), name


def payload(result) -> dict:
    out = result_to_payload(result)
    out.pop("wall_time")
    out["provenance"].pop("cache", None)
    return out


def never_inline(name: str) -> bool:
    return name in ("exact", "ptas", "ptas-fine") or name.startswith("periodic_")


class TestParity:
    @pytest.mark.parametrize("name", available_solvers())
    def test_inline_pool_and_direct_payloads_agree(self, name, generous_budget):
        instance, spec = case_for(name)

        async def scenario():
            async with SolverService(workers=1) as svc:
                pooled = await svc.solve(instance, spec)
                assert svc.stats().inline == 0  # a first-seen key uses the pool
                again = await svc.solve(instance, spec)
                return pooled, again, svc.stats()

        pooled, again, stats = run(scenario())
        direct = solve(instance, spec, cache=False)
        assert stats.inline == (0 if never_inline(name) else 1)
        assert stats.lost == 0
        assert payload(pooled) == payload(direct)
        assert payload(again) == payload(direct)

    def test_cached_inline_miss_matches_a_direct_cached_solve(self, generous_budget, tmp_path):
        async def scenario():
            async with SolverService(workers=1, cache=DiskCache(tmp_path)) as svc:
                await svc.solve(independent(seed=1), "sbo(delta=1.0)")
                miss = await svc.solve(independent(seed=2), "sbo(delta=1.0)")
                hit = await svc.solve(independent(seed=2), "sbo(delta=1.0)")
                return miss, hit, svc.stats()

        miss, hit, stats = run(scenario())
        assert stats.inline == 1 and stats.cache_hits == 1 and stats.lost == 0
        assert miss.provenance["cache"] == "miss" and hit.provenance["cache"] == "hit"
        assert payload(miss) == payload(hit) == payload(
            solve(independent(seed=2), "sbo(delta=1.0)", cache=False)
        )


class TestRouting:
    async def _inline_after(self, svc, requests):
        for instance, spec in requests:
            await svc.solve(instance, spec)
        return svc.stats().inline

    def test_a_first_seen_key_goes_to_the_pool(self, generous_budget):
        async def scenario():
            async with SolverService(workers=1) as svc:
                # Same instance, four keys: a spec parameter, the canonical
                # spec and the instance type each start a new key.
                return await self._inline_after(svc, [
                    (independent(), "lpt"),
                    (independent(), "sbo(delta=1.0)"),
                    (independent(), "sbo(delta=2.0)"),
                    (DAGInstance.from_lists(p=[1, 2], s=[1, 1], m=3), "lpt"),
                ])

        assert run(scenario()) == 0

    def test_larger_n_m_or_edge_count_goes_to_the_pool(self, generous_budget):
        def chain(edges: int) -> DAGInstance:
            return DAGInstance.from_lists(
                p=[1] * 6, s=[1] * 6, m=2, edges=[(i, i + 1) for i in range(edges)]
            )

        async def scenario():
            async with SolverService(workers=1) as svc:
                counts = [await self._inline_after(svc, [(independent(n=10, m=3), "lpt")])]
                counts.append(await self._inline_after(svc, [(independent(n=11, m=3), "lpt")]))
                counts.append(await self._inline_after(svc, [(independent(n=11, m=4), "lpt")]))
                counts.append(await self._inline_after(svc, [(chain(2), "rls(delta=3.0)")]))
                counts.append(await self._inline_after(svc, [(chain(3), "rls(delta=3.0)")]))
                # Covered now: smaller n, m and edge counts.
                counts.append(await self._inline_after(svc, [(independent(n=5, m=2), "lpt")]))
                counts.append(await self._inline_after(svc, [(chain(1), "rls(delta=3.0)")]))
                return counts

        assert run(scenario()) == [0, 0, 0, 0, 0, 1, 2]

    @pytest.mark.parametrize("spec", [
        "exact", "ptas", "ptas-fine", "sbo(delta=1.0, inner=exact)",
        "sbo(delta=1.0, inner_mmax=ptas)", "pareto_approx(inner=exact)",
        "constrained(budget=60, inner=ptas)",
    ])
    def test_exponential_time_solvers_go_to_the_pool(self, spec, generous_budget):
        async def scenario():
            async with SolverService(workers=1) as svc:
                return await self._inline_after(svc, [(independent(), spec)] * 3)

        assert run(scenario()) == 0

    def test_periodic_instances_go_to_the_pool(self, generous_budget):
        async def scenario():
            async with SolverService(workers=1) as svc:
                return await self._inline_after(svc, [(periodic(), "lpt")] * 3)

        assert run(scenario()) == 0

    def test_non_stock_entries_go_to_the_pool(self, generous_budget):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    return await self._inline_after(
                        svc, [(independent(), "sleepy(seconds=0)")] * 3
                    )

        assert run(scenario()) == 0

    def test_a_kernel_over_the_budget_goes_to_the_pool(self, monkeypatch):
        monkeypatch.setattr(service_module, "INLINE_BUDGET_S", 0.0)

        async def scenario():
            async with SolverService(workers=1) as svc:
                return await self._inline_after(svc, [(independent(), "lpt")] * 3)

        assert run(scenario()) == 0

    def test_shapes_seen_apart_do_not_cover_their_union(self, generous_budget):
        # A solved (large n, small m) and a solved (small n, large m) do
        # not make (large n, large m) cheap: rls on a DAG costs about
        # n * m log m, so only one sample covering all three counts.
        def dag(n: int, m: int) -> DAGInstance:
            return DAGInstance.from_lists(
                p=[1] * n, s=[1] * n, m=m, edges=[(i, i + 1) for i in range(n - 1)]
            )

        async def scenario():
            async with SolverService(workers=1) as svc:
                counts = []
                for n, m in ((12, 2), (3, 40), (12, 40), (12, 40), (3, 2)):
                    counts.append(await self._inline_after(svc, [(dag(n, m), "rls(delta=3.0)")]))
                return counts

        assert run(scenario()) == [0, 0, 0, 1, 2]

    def test_the_cost_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_COST_KEYS", 4)
        table = service_module._CostTable()
        for k in range(10):
            table.learn((f"sbo(delta={k})", Instance), (10, 2, 0), 1e-4)
        assert len(table._rows) == 4
        assert not table.cheap(("sbo(delta=0)", Instance), (10, 2, 0))
        assert table.cheap(("sbo(delta=9)", Instance), (10, 2, 0))
        # Each key keeps at most SHAPES maximal shapes, the oldest dropped.
        key = ("lpt", Instance)
        for k in range(1, 12):
            table.learn(key, (k, 12 - k, 0), 1e-4)
        assert len(table._rows[key]) == table.SHAPES
        assert not table.cheap(key, (1, 11, 0))
        assert table.cheap(key, (11, 1, 0))
        # A covered shape adds nothing; a covering one replaces what it covers.
        table.learn(key, (2, 2, 0), 1e-4)
        table.learn(key, (20, 20, 0), 1e-4)
        assert table._rows[key] == [(20, 20, 0)]

    def test_a_solve_over_the_budget_withdraws_the_shapes_covering_it(self):
        table = service_module._CostTable()
        key = ("lpt", Instance)
        table.learn(key, (10, 2, 0), 1e-4)
        table.learn(key, (4, 8, 0), 1e-4)
        assert table.cheap(key, (5, 2, 0))
        table.learn(key, (5, 2, 0), 2 * service_module.INLINE_BUDGET_S)
        assert not table.cheap(key, (5, 2, 0)) and not table.cheap(key, (10, 2, 0))
        assert table.cheap(key, (4, 8, 0))


class TestIndependence:
    def test_inline_miss_completes_while_the_worker_slot_is_held(self, generous_budget):
        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1) as svc:
                    await svc.solve(independent(seed=1), "lpt")  # learn lpt
                    slow = asyncio.create_task(
                        svc.solve(independent(seed=2), "sleepy(seconds=1.5)")
                    )
                    while svc.stats().in_flight == 0:
                        await asyncio.sleep(0.01)
                    result = await svc.solve(independent(seed=3), "lpt", timeout=1.0)
                    assert not slow.done()
                    stats = svc.stats()
                    await slow
                    return result, stats

        result, stats = run(scenario())
        assert result.feasible
        assert stats.inline == 1 and stats.in_flight == 1
        # Phase samples still count every unique job, inline ones included.
        assert stats.phases["queue_wait"]["lpt"]["count"] == 2
        assert stats.phases["exec"]["lpt"]["count"] == 2


class TestTracing:
    def test_kernel_span_says_where_the_kernel_ran(self, generous_budget):
        async def scenario():
            async with SolverService(workers=1, trace=True) as svc:
                for trace_id in ("pool-run", "loop-run"):
                    await svc.solve(independent(), "lpt", trace={"id": trace_id, "span": "root"})

        was_enabled = RECORDER.enabled
        try:
            run(scenario())
            spans = {
                trace_id: {s["name"]: s for s in RECORDER.snapshot(trace_id)}
                for trace_id in ("pool-run", "loop-run")
            }
        finally:
            RECORDER.enabled = was_enabled
        assert spans["pool-run"]["kernel"]["inline"] is False
        assert spans["loop-run"]["kernel"]["inline"] is True
        # Both runs keep one queue_wait and one kernel span under the dispatch.
        for by_name in spans.values():
            assert by_name["kernel"]["parent"] == by_name["dispatch"]["span"]
            assert by_name["queue_wait"]["parent"] == by_name["dispatch"]["span"]
        assert spans["loop-run"]["queue_wait"]["dur"] == 0.0


class TestLedger:
    def test_lost_stays_zero_through_timeouts_and_cancellation(self, generous_budget, tmp_path):
        # A bounded disk cache stores off-loop, so inline jobs can be timed
        # out or cancelled while their result is being stored.
        cache = DiskCache(tmp_path, max_bytes=1 << 30)

        async def scenario():
            with registered(make_sleepy_entry()):
                async with SolverService(workers=1, cache=cache, max_pending=8) as svc:
                    await svc.solve(independent(seed=0), "lpt")
                    rng = random.Random(7)
                    tasks = []
                    for k in range(60):
                        spec = "sleepy(seconds=0.05)" if k % 10 == 0 else "lpt"
                        tasks.append(asyncio.create_task(svc.solve(
                            independent(seed=k % 25), spec,
                            timeout=rng.choice([None, 1e-4, 0.01, 5.0]),
                        )))
                    await asyncio.sleep(0)
                    for task in tasks[::7]:
                        task.cancel()
                    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                    assert await svc.drain(timeout=10.0)
                    return outcomes, svc.stats()

        outcomes, stats = run(scenario())
        assert stats.inline > 0
        assert any(isinstance(o, ServiceTimeoutError) for o in outcomes)
        assert any(isinstance(o, asyncio.CancelledError) for o in outcomes)
        assert stats.lost == 0 and stats.pending == 0

    @pytest.mark.parametrize("settle", [0, 1, 3])
    def test_lost_stays_zero_through_close_without_drain(self, settle, generous_budget):
        async def scenario():
            svc = await SolverService(workers=1, cache=LRUCache()).start()
            await svc.solve(independent(seed=0), "lpt")
            tasks = [
                asyncio.create_task(svc.solve(independent(seed=k), "lpt"))
                for k in range(1, 20)
            ]
            for _ in range(settle):
                await asyncio.sleep(0)
            await svc.close(drain=False)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 10.0
            )
            return outcomes, svc.stats()

        outcomes, stats = run(scenario())
        assert stats.lost == 0 and stats.pending == 0
        for outcome in outcomes:
            assert not isinstance(outcome, BaseException) or isinstance(
                outcome, (asyncio.CancelledError, service_module.ServiceClosedError)
            )
