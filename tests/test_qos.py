"""Tests of the multi-tenant admission/QoS subsystem (repro.qos).

Covers the layer bottom-up, then threaded through the serving stack:

* **tenant model** — config validation, registry resolution/defaulting,
  the ``tenants.json`` loader and the config normalizer;
* **token bucket** — deterministic refill against an injected clock;
* **fair share** — the transposed list-scheduling ledger: weighted
  grant proportions, no catch-up burst after idleness, FIFO baseline;
* **admission queue** — strict priority-class dequeue, per-tenant FIFO,
  weighted fairness under contention, cancellation safety, capacity
  retargeting;
* **properties** (the ISSUE's named invariants) — interactive is never
  starved by batch backlog, weighted shares converge to within one
  grant, and per-tenant counters balance (``admitted + rejected ==
  submitted``, ``lost == 0``) through load, cancellation, and a shard
  kill;
* **service / wire / cluster integration** — flat behavior preserved
  with no tenants, structured ``error.code`` rejections and their typed
  client exceptions, per-tenant stats slices, phase-split percentiles,
  the router's cluster-wide controller, and the QoS-weighted autoscaler
  signal.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.core.instance import Instance
from repro.qos import (
    AdmissionController,
    AdmissionQueue,
    BackpressureError,
    FairShareLedger,
    OverQuotaError,
    RateLimitedError,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    UnknownTenantError,
    load_tenants,
    merge_tenant_snapshots,
)
from repro.obs.metrics import Histogram
from repro.service import ServiceConfig, SolverService
from repro.service.client import (
    OverQuotaRejection,
    RateLimitedRejection,
    ServiceClient,
    UnknownTenantRejection,
)
from repro.service.protocol import error_code_for, solve_request
from repro.service.server import serve_tcp
from repro.solvers import solve

from _service_helpers import make_sleepy_entry, registered

pytestmark = pytest.mark.qos


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inst() -> Instance:
    return Instance.from_lists(p=[4, 3, 2, 2, 1, 6, 5], s=[1, 5, 2, 4, 3, 2, 6], m=3)


def distinct_instances(count: int, n: int = 6):
    return [
        Instance.from_lists(
            p=[float(1 + j + i) for j in range(n)],
            s=[float(1 + (j * 7 + i) % 5) for j in range(n)],
            m=2,
        )
        for i in range(count)
    ]


def registry(*tenants: TenantConfig, default=None) -> TenantRegistry:
    return TenantRegistry(tenants, default=default)


def balanced(snap) -> bool:
    return (
        snap["admitted"] + snap["rejected"] == snap["submitted"]
        and snap["lost"] == 0
    )


# --------------------------------------------------------------------------- #
# tenant model
# --------------------------------------------------------------------------- #
class TestTenantModel:
    def test_defaults_validate(self):
        cfg = TenantConfig("alice")
        assert cfg.quota is None and cfg.rate is None
        assert cfg.weight == 1.0 and cfg.priority == "batch"

    @pytest.mark.parametrize("fields", [
        dict(name=""),
        dict(name="a", quota=0),
        dict(name="a", quota=True),
        dict(name="a", rate=0.0),
        dict(name="a", rate=-1.0),
        dict(name="a", burst=2.0),          # burst without rate
        dict(name="a", rate=1.0, burst=0.5),
        dict(name="a", weight=0.0),
        dict(name="a", priority="urgent"),
    ])
    def test_invalid_configs_rejected(self, fields):
        with pytest.raises(ValueError):
            TenantConfig(**fields)

    def test_from_dict_coerces_and_rejects_unknown_keys(self):
        cfg = TenantConfig.from_dict("a", {"quota": "4", "rate": 2, "weight": 3})
        assert (cfg.quota, cfg.rate, cfg.weight) == (4, 2.0, 3.0)
        with pytest.raises(ValueError, match="unknown keys"):
            TenantConfig.from_dict("a", {"quotas": 4})

    def test_registry_resolution_and_default(self):
        reg = registry(TenantConfig("a"), TenantConfig("b"), default="b")
        assert reg.resolve("a").name == "a"
        assert reg.resolve(None).name == "b"
        with pytest.raises(UnknownTenantError):
            reg.resolve("nobody")
        with pytest.raises(UnknownTenantError):
            registry(TenantConfig("a")).resolve(None)

    def test_registry_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            registry(TenantConfig("a"), TenantConfig("a"))
        with pytest.raises(ValueError, match="at least one"):
            TenantRegistry([])
        with pytest.raises(ValueError, match="not in the registry"):
            registry(TenantConfig("a"), default="b")

    def test_payload_forms_and_file_loading(self, tmp_path):
        listed = TenantRegistry.from_payload({
            "default": "b",
            "tenants": [{"name": "a", "priority": "interactive"},
                        {"name": "b", "weight": 2.0}],
        })
        assert listed.names() == ["a", "b"] and listed.default == "b"
        mapped = TenantRegistry.from_payload({"a": {}, "b": {"quota": 3}})
        assert mapped.names() == ["a", "b"] and mapped.default is None

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [{"name": "x", "rate": 5}]}))
        loaded = TenantRegistry.load(path, default="x")
        assert loaded.resolve(None).rate == 5.0
        with pytest.raises(ValueError, match="cannot load"):
            TenantRegistry.load(tmp_path / "missing.json")

    def test_load_tenants_normalizer(self, tmp_path):
        assert load_tenants(None) is None
        assert load_tenants(False) is None
        reg = registry(TenantConfig("a"))
        assert load_tenants(reg) is reg
        assert load_tenants(reg, default="a").default == "a"
        assert load_tenants({"a": {}}).names() == ["a"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"a": {}}))
        assert load_tenants(str(path)).names() == ["a"]
        with pytest.raises(ValueError, match="default_tenant"):
            load_tenants(None, default="a")
        with pytest.raises(TypeError):
            load_tenants(42)


# --------------------------------------------------------------------------- #
# token bucket
# --------------------------------------------------------------------------- #
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.take() for _ in range(4)] == [True, True, True, False]
        now[0] = 1.0  # 2 tokens refilled
        assert bucket.take() and bucket.take() and not bucket.take()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: now[0])
        now[0] = 100.0
        assert bucket.available() == 2.0

    def test_default_burst_never_below_one(self):
        assert TokenBucket(rate=0.1).burst == 1.0
        assert TokenBucket(rate=50.0).burst == 50.0

    def test_unlimited(self):
        bucket = TokenBucket(rate=None)
        assert bucket.unlimited
        assert all(bucket.take() for _ in range(1000))
        assert bucket.available() == math.inf


# --------------------------------------------------------------------------- #
# fair-share ledger
# --------------------------------------------------------------------------- #
class TestFairShare:
    def test_ledger_tracks_weight_proportions(self):
        """Both backlogged throughout: grants split 2:1 within one grant."""
        ledger = FairShareLedger()
        weights = {"heavy": 2.0, "light": 1.0}
        grants = {"heavy": 0, "light": 0}
        for _ in range(30):
            name = ledger.pick(weights)
            ledger.charge(name, weights[name])
            grants[name] += 1
        assert grants["heavy"] == 20 and grants["light"] == 10

    def test_activation_floor_prevents_catchup_burst(self):
        ledger = FairShareLedger()
        for _ in range(10):
            ledger.charge("busy", 1.0)
        ledger.activate("idler", 1.0)  # re-joins at the floor, not at 0
        assert ledger.served("idler") == ledger.served("busy")

    def test_deterministic_tie_break(self):
        assert FairShareLedger().pick({"b": 1.0, "a": 1.0}) == "a"


# --------------------------------------------------------------------------- #
# admission queue
# --------------------------------------------------------------------------- #
INTERACTIVE = TenantConfig("vip", priority="interactive")
HEAVY = TenantConfig("heavy", weight=2.0)
LIGHT = TenantConfig("light", weight=1.0)


class TestAdmissionQueue:
    def test_fast_path_when_uncontended(self):
        async def scenario():
            queue = AdmissionQueue(2)
            waited = await queue.acquire(LIGHT)
            assert waited is False and queue.granted == 1
            queue.release()
            assert queue.granted == 0

        run(scenario())

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionQueue(1).release()

    def test_interactive_preempts_batch_in_queue(self):
        """Queue-level preemption: the freed slot goes to interactive."""
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(LIGHT)  # hold the only slot
            order = []

            async def wait(cfg):
                await queue.acquire(cfg)
                order.append(cfg.name)
                queue.release()

            batch = [asyncio.create_task(wait(LIGHT)) for _ in range(5)]
            await asyncio.sleep(0)
            vip = asyncio.create_task(wait(INTERACTIVE))
            await asyncio.sleep(0)
            queue.release()
            await asyncio.gather(vip, *batch)
            # Interactive overtook every batch waiter queued before it.
            assert order[0] == "vip"

        run(scenario())

    def test_weighted_fair_grants_converge(self):
        """While both backlogged, grants track weights within one grant."""
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(TenantConfig("holder"))
            order = []

            async def wait(cfg):
                await queue.acquire(cfg)
                order.append(cfg.name)
                queue.release()

            tasks = [asyncio.create_task(wait(HEAVY)) for _ in range(30)]
            tasks += [asyncio.create_task(wait(LIGHT)) for _ in range(30)]
            await asyncio.sleep(0)
            queue.release()
            await asyncio.gather(*tasks)
            return order

        order = run(scenario())
        first = order[:30]  # both tenants backlogged throughout this prefix
        heavy = first.count("heavy")
        assert abs(heavy - 20) <= 1, f"expected ~20 heavy of 30, got {heavy}"

    def test_per_tenant_fifo_preserved(self):
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(TenantConfig("holder"))
            order = []

            async def wait(tag):
                await queue.acquire(LIGHT)
                order.append(tag)
                queue.release()

            tasks = [asyncio.create_task(wait(i)) for i in range(10)]
            await asyncio.sleep(0)
            queue.release()
            await asyncio.gather(*tasks)
            assert order == sorted(order)

        run(scenario())

    def test_cancelled_waiter_never_granted(self):
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(LIGHT)
            victim = asyncio.create_task(queue.acquire(LIGHT))
            survivor_granted = asyncio.Event()

            async def survivor():
                await queue.acquire(HEAVY)
                survivor_granted.set()

            keeper = asyncio.create_task(survivor())
            await asyncio.sleep(0)
            victim.cancel()
            with pytest.raises(asyncio.CancelledError):
                await victim
            queue.release()
            await asyncio.wait_for(survivor_granted.wait(), 5)
            assert queue.granted == 1 and queue.depth() == 0
            queue.release()

        run(scenario())

    def test_set_capacity_grow_dispatches_shrink_drains(self):
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(LIGHT)
            waiters = [asyncio.create_task(queue.acquire(LIGHT)) for _ in range(2)]
            await asyncio.sleep(0)
            assert queue.depth() == 2
            queue.set_capacity(3)  # grow: both waiters granted immediately
            await asyncio.gather(*waiters)
            assert queue.granted == 3 and queue.free == 0
            queue.set_capacity(1)  # shrink: nothing revoked, surplus drains
            assert queue.granted == 3
            for _ in range(3):
                queue.release()
            assert queue.granted == 0 and queue.free == 1

        run(scenario())


# --------------------------------------------------------------------------- #
# admission controller
# --------------------------------------------------------------------------- #
def controller(*tenants, capacity=4, default=None, clock=None, **kwargs):
    reg = registry(*tenants, default=default)
    if clock is not None:
        kwargs["clock"] = clock
    return AdmissionController(reg, capacity=capacity, **kwargs)


class TestAdmissionController:
    def test_unknown_tenant_counted_separately(self):
        ctrl = controller(TenantConfig("a"))
        with pytest.raises(UnknownTenantError):
            ctrl.begin("nobody")
        with pytest.raises(UnknownTenantError):
            ctrl.begin(None)  # no default configured
        assert ctrl.unknown_rejected == 2
        assert ctrl.snapshot()["a"]["submitted"] == 0

    def test_rate_limit_is_a_ledgered_rejection(self):
        now = [0.0]
        ctrl = controller(TenantConfig("a", rate=1.0, burst=1.0),
                          clock=lambda: now[0])
        assert ctrl.begin("a").name == "a"
        with pytest.raises(RateLimitedError) as excinfo:
            ctrl.begin("a")
        assert error_code_for(excinfo.value) == "rate_limited"
        now[0] = 1.0
        ctrl.begin("a")  # refilled
        snap = ctrl.snapshot()["a"]
        assert snap["submitted"] == 3 and snap["rejected"] == 1
        assert snap["rejected_by"] == {"rate_limited": 1}

    def test_quota_enforced_and_released(self):
        async def scenario():
            ctrl = controller(TenantConfig("a", quota=1))
            cfg = ctrl.begin("a")
            await ctrl.acquire_slot(cfg, reject_on_full=False)
            ctrl.begin("a")
            with pytest.raises(OverQuotaError):
                await ctrl.acquire_slot(cfg, reject_on_full=False)
            ctrl.release_slot(cfg)
            ctrl.begin("a")
            await ctrl.acquire_slot(cfg, reject_on_full=False)  # freed
            ctrl.release_slot(cfg)
            snap = ctrl.snapshot()["a"]
            assert snap["rejected_by"] == {"over_quota": 1}

        run(scenario())

    def test_backpressure_reject_on_full(self):
        async def scenario():
            ctrl = controller(TenantConfig("a"), capacity=1)
            cfg = ctrl.begin("a")
            await ctrl.acquire_slot(cfg, reject_on_full=True)
            ctrl.begin("a")
            with pytest.raises(BackpressureError):
                await ctrl.acquire_slot(cfg, reject_on_full=True)
            ctrl.release_slot(cfg)

        run(scenario())

    def test_lifecycle_counters_balance(self):
        async def scenario():
            ctrl = controller(TenantConfig("a"), default="a")
            for outcome in ("completed", "failed", "abandoned"):
                cfg = ctrl.begin(None)
                await ctrl.acquire_slot(cfg, reject_on_full=False)
                ctrl.job_admitted(cfg)
                ctrl.charge_usage(cfg, 0.25)
                ctrl.release_slot(cfg)
                ctrl.finish(cfg, outcome)
            cfg = ctrl.begin(None)
            ctrl.admit_fast(cfg, "cache_hits")
            snap = ctrl.snapshot()["a"]
            assert balanced(snap)
            assert snap["completed"] == snap["failed"] == snap["abandoned"] == 1
            assert snap["cache_hits"] == 1 and snap["busy_s"] == 0.75
            assert snap["config"]["weight"] == 1.0

        run(scenario())

    def test_class_signals(self):
        async def scenario():
            ctrl = controller(
                TenantConfig("vip", priority="interactive"), TenantConfig("bulk"),
                capacity=1,
            )
            vip, bulk = ctrl.begin("vip"), ctrl.begin("bulk")
            await ctrl.acquire_slot(bulk, reject_on_full=False)
            assert ctrl.in_use_by_class() == {"batch": 1}
            waiter = asyncio.create_task(ctrl.acquire_slot(vip, reject_on_full=False))
            await asyncio.sleep(0)
            assert ctrl.backlog_by_class()["interactive"] == 1
            assert ctrl.weighted_backlog() == 1.0  # one interactive waiter
            ctrl.release_slot(bulk)
            await waiter
            assert ctrl.in_use_by_class() == {"interactive": 1}
            ctrl.release_slot(vip)

        run(scenario())

    def test_cancellation_in_queue_is_a_rejection(self):
        async def scenario():
            ctrl = controller(TenantConfig("a"), capacity=1)
            cfg = ctrl.begin("a")
            await ctrl.acquire_slot(cfg, reject_on_full=False)
            ctrl.job_admitted(cfg)
            ctrl.begin("a")
            waiter = asyncio.create_task(ctrl.acquire_slot(cfg, reject_on_full=False))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            ctrl.release_slot(cfg)
            snap = ctrl.snapshot()["a"]
            assert balanced(snap) and snap["rejected_by"] == {"cancelled": 1}

        run(scenario())

    def test_snapshot_merge_across_slices(self):
        def waits(*values):
            histogram = Histogram("wait", labelnames=("tenant",))
            for value in values:
                histogram.observe(value, "a")
            return histogram.summary("a")

        slices = [
            {"a": {"submitted": 3, "admitted": 2, "rejected": 1, "in_use": 1,
                   "busy_s": 1.0, "rejected_by": {"over_quota": 1},
                   "queue_wait": waits(1.0, 1.0),
                   "config": {"quota": None, "rate": None, "weight": 1.0,
                              "priority": "batch"}}},
            {"a": {"submitted": 1, "admitted": 1, "rejected": 0, "in_use": 0,
                   "busy_s": 0.5, "rejected_by": {},
                   "queue_wait": waits(3.0, 3.0)}},
        ]
        merged = merge_tenant_snapshots(slices)["a"]
        assert merged["submitted"] == 4 and merged["in_use"] == 1
        assert merged["busy_s"] == 1.5 and merged["lost"] == 0
        assert merged["queue_wait"] == waits(1.0, 1.0, 3.0, 3.0)  # exact merge
        assert merged["queue_wait"]["mean"] == 2.0
        assert merged["queue_wait"]["max"] == 3.0
        assert merged["config"]["priority"] == "batch"


# --------------------------------------------------------------------------- #
# the ISSUE's named properties
# --------------------------------------------------------------------------- #
class TestProperties:
    def test_interactive_never_starved(self):
        """However deep the batch backlog, every freed slot goes to any
        queued interactive request first — across repeated rounds."""
        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(LIGHT)
            order = []

            async def wait(cfg, tag):
                await queue.acquire(cfg)
                order.append(tag)
                queue.release()

            tasks = [asyncio.create_task(wait(LIGHT, "batch")) for _ in range(40)]
            await asyncio.sleep(0)
            tasks += [asyncio.create_task(wait(INTERACTIVE, "vip"))
                      for _ in range(10)]
            await asyncio.sleep(0)
            queue.release()
            await asyncio.gather(*tasks)
            return order

        order = run(scenario())
        # All 10 interactive grants precede every one of the 40 batch grants.
        assert order[:10] == ["vip"] * 10

    def test_weighted_shares_converge_three_tenants(self):
        weights = {"a": 4.0, "b": 2.0, "c": 1.0}

        async def scenario():
            queue = AdmissionQueue(1)
            await queue.acquire(TenantConfig("holder"))
            order = []

            async def wait(cfg):
                await queue.acquire(cfg)
                order.append(cfg.name)
                queue.release()

            tasks = []
            for name, weight in weights.items():
                tasks += [
                    asyncio.create_task(wait(TenantConfig(name, weight=weight)))
                    for _ in range(70)
                ]
            await asyncio.sleep(0)
            queue.release()
            await asyncio.gather(*tasks)
            return order

        order = run(scenario())
        first = order[:70]  # all three backlogged throughout this prefix
        total_weight = sum(weights.values())
        for name, weight in weights.items():
            expected = 70 * weight / total_weight
            assert abs(first.count(name) - expected) <= 2, (name, first.count(name))

    def test_per_tenant_counters_balance_under_load_and_cancellation(self):
        """submitted == admitted + rejected and lost == 0, per tenant,
        through saturation, quota rejections, and mid-queue cancellation."""
        instances = distinct_instances(12)

        async def scenario():
            config = ServiceConfig(
                workers=1, max_pending=2, cache=False,
                tenants={"tenants": [
                    {"name": "vip", "priority": "interactive", "quota": 2},
                    {"name": "bulk", "weight": 1.0},
                ]},
            )
            with registered(make_sleepy_entry()):
                async with SolverService(config) as svc:
                    spec = "sleepy(seconds=0.15)"
                    jobs = [
                        asyncio.create_task(svc.solve(
                            instance, spec,
                            tenant="vip" if i % 3 == 0 else "bulk",
                        ))
                        for i, instance in enumerate(instances)
                    ]
                    await asyncio.sleep(0.05)
                    victims = jobs[8:10]
                    for victim in victims:
                        victim.cancel()
                    results = await asyncio.gather(*jobs, return_exceptions=True)
                    # Over-quota attempts on top of the saturated queue.
                    rejections = 0
                    for _ in range(3):
                        try:
                            await asyncio.wait_for(
                                svc.solve(instances[0], spec, tenant="vip"),
                                timeout=0.01,
                            )
                        except (OverQuotaError, asyncio.TimeoutError):
                            rejections += 1
                    stats = svc.stats()
            return results, stats

        results, stats = run(scenario())
        solved = [r for r in results if not isinstance(r, BaseException)]
        assert len(solved) >= len(instances) - 2
        tenants = stats.tenants
        assert set(tenants) == {"vip", "bulk"}
        for snap in tenants.values():
            assert balanced(snap), snap
        assert stats.lost == 0

    def test_counters_balance_through_shard_kill(self):
        """The cluster property: a shard dying mid-batch never unbalances
        the per-tenant ledgers (retries are transparent to the QoS view)."""
        from repro.cluster import ClusterConfig, ClusterRouter
        from repro.solvers import LRUCache

        instances = distinct_instances(8)

        async def scenario():
            config = ClusterConfig(
                shards=2, min_shards=1, max_shards=4, backend="inproc",
                workers=1, cache=LRUCache(), session_ttl=None,
                tenants={"default": "bulk", "tenants": [
                    {"name": "vip", "priority": "interactive"},
                    {"name": "bulk", "weight": 2.0},
                ]},
            )
            with registered(make_sleepy_entry()):
                async with ClusterRouter(config) as router:
                    spec = "sleepy(seconds=0.4)"
                    jobs = [
                        asyncio.create_task(router.solve(
                            instance, spec,
                            tenant="vip" if i % 2 else "bulk",
                        ))
                        for i, instance in enumerate(instances)
                    ]
                    await asyncio.sleep(0.2)
                    victim = router.shard_names()[0]
                    await router.shard(victim).kill()
                    payloads = await asyncio.gather(*jobs)
                    stats = await router.stats()
            return payloads, stats

        payloads, stats = run(scenario())
        assert len(payloads) == len(instances)
        for instance, payload in zip(instances, payloads):
            direct = solve(instance, "lpt", cache=False)  # sleepy solves via LPT
            assert payload["cmax"] == direct.schedule.cmax
        assert stats.router["shards_lost"] == 1
        assert set(stats.tenants) == {"bulk", "vip"}
        for snap in stats.tenants.values():
            assert balanced(snap), snap
            assert snap["completed"] == snap["admitted"]
        assert stats.lost == 0


# --------------------------------------------------------------------------- #
# service integration
# --------------------------------------------------------------------------- #
class TestServiceQos:
    def test_config_normalizes_tenants(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"a": {"rate": 5}}))
        config = ServiceConfig(tenants=str(path), default_tenant="a")
        assert isinstance(config.tenants, TenantRegistry)
        assert config.default_tenant == "a"
        with pytest.raises(ValueError, match="default_tenant"):
            ServiceConfig(default_tenant="a")

    def test_flat_path_unchanged_without_tenants(self, inst):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1, cache=False)) as svc:
                served = await svc.solve(inst, "sbo(delta=1.0)")
                ignored = await svc.solve(inst, "sbo(delta=1.0)", tenant="nobody")
                assert served.schedule.cmax == ignored.schedule.cmax
                stats = svc.stats()
                assert stats.tenants == {}
                assert svc._qos is None
            return served

        served = run(scenario())
        direct = solve(inst, "sbo(delta=1.0)", cache=False)
        assert served.schedule.cmax == direct.schedule.cmax

    def test_results_identical_with_and_without_qos(self, inst):
        async def scenario():
            flat_cfg = ServiceConfig(workers=1, cache=False)
            qos_cfg = ServiceConfig(
                workers=1, cache=False,
                tenants={"default": "a", "tenants": [{"name": "a"}]},
            )
            async with SolverService(flat_cfg) as svc:
                flat = await svc.solve(inst, "sbo(delta=1.0)")
            async with SolverService(qos_cfg) as svc:
                gated = await svc.solve(inst, "sbo(delta=1.0)", tenant="a")
            return flat, gated

        flat, gated = run(scenario())
        assert flat.objectives == gated.objectives
        assert flat.guarantee == gated.guarantee
        assert flat.schedule.assignment == gated.schedule.assignment

    def test_cache_hits_and_coalesces_charged_to_tenant(self, inst):
        async def scenario():
            from repro.solvers import LRUCache

            config = ServiceConfig(
                workers=1, cache=LRUCache(),
                tenants={"default": "a", "tenants": [{"name": "a"}]},
            )
            with registered(make_sleepy_entry()):
                async with SolverService(config) as svc:
                    spec = "sleepy(seconds=0.2)"
                    first, second = await asyncio.gather(
                        svc.solve(inst, spec), svc.solve(inst, spec),
                    )
                    assert first.schedule.cmax == second.schedule.cmax
                    # Custom solvers bypass the cache; use a built-in for
                    # the miss-then-hit pair.
                    await svc.solve(inst, "sbo(delta=1.0)")
                    await svc.solve(inst, "sbo(delta=1.0)")
                    return svc.stats().tenants["a"]

        snap = run(scenario())
        assert balanced(snap)
        assert snap["submitted"] == 4 and snap["admitted"] == 4
        assert snap["coalesced"] == 1 and snap["cache_hits"] == 1

    def test_session_opens_rate_limited_not_quota_bound(self, inst):
        async def scenario():
            config = ServiceConfig(
                workers=1, cache=False,
                tenants={"default": "a",
                         "tenants": [{"name": "a", "rate": 1.0, "burst": 2.0,
                                      "quota": 1}]},
            )
            async with SolverService(config) as svc:
                svc.session_open("online_greedy", m=2)
                svc.session_open("online_greedy", m=2)  # burst of 2 allowed
                with pytest.raises(RateLimitedError):
                    svc.session_open("online_greedy", m=2)
                snap = svc.stats().tenants["a"]
                assert balanced(snap)
                # Sessions are slot-free: quota gauge untouched.
                assert snap["in_use"] == 0

        run(scenario())

    def test_phase_split_percentiles(self, inst):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1, cache=False)) as svc:
                await svc.solve(inst, "sbo(delta=1.0)")
                return svc.stats()

        stats = run(scenario())
        assert set(stats.phases) == {"queue_wait", "exec"}
        exec_snap = stats.phases["exec"]["sbo"]
        wait_snap = stats.phases["queue_wait"]["sbo"]
        assert exec_snap["count"] == 1 and wait_snap["count"] == 1
        assert exec_snap["mean"] > 0
        payload = stats.to_dict() if hasattr(stats, "to_dict") else None
        if payload is not None:
            assert "phases" in payload


# --------------------------------------------------------------------------- #
# wire integration
# --------------------------------------------------------------------------- #
class TestWireQos:
    def test_typed_rejections_over_tcp(self, inst):
        async def scenario():
            config = ServiceConfig(
                workers=1, cache=False, backpressure="reject",
                tenants={"default": "a",
                         "tenants": [{"name": "a", "rate": 1.0, "burst": 1.0},
                                     {"name": "b", "quota": 1}]},
            )
            async with SolverService(config) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    payload = await client.solve(inst, "sbo(delta=1.0)", tenant="a")
                    assert payload["cmax"] > 0
                    with pytest.raises(UnknownTenantRejection) as unknown:
                        await client.solve(inst, "sbo(delta=1.0)", tenant="zz")
                    assert unknown.value.code == "unknown_tenant"
                    with pytest.raises(RateLimitedRejection) as limited:
                        await client.solve(inst, "sbo(delta=1.0)", tenant="a")
                    assert limited.value.code == "rate_limited"
                    stats = await client.stats()
                    assert stats["tenants"]["a"]["rejected_by"] == {
                        "rate_limited": 1
                    }
                    assert {"queue_wait", "exec"} <= set(stats["phases"])
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        run(scenario())

    def test_quota_rejection_over_tcp(self):
        # Distinct instances: an identical request would coalesce into the
        # in-flight job (slot-free admission) instead of hitting the quota.
        first_inst, second_inst = distinct_instances(2)

        async def scenario():
            config = ServiceConfig(
                workers=1, cache=False,
                tenants={"tenants": [{"name": "b", "quota": 1}]},
            )
            with registered(make_sleepy_entry()):
                async with SolverService(config) as svc:
                    server = await serve_tcp(svc, "127.0.0.1", 0)
                    port = server.sockets[0].getsockname()[1]
                    client = await ServiceClient.connect("127.0.0.1", port)
                    try:
                        slow = asyncio.create_task(client.solve(
                            first_inst, "sleepy(seconds=0.5)", tenant="b"
                        ))
                        await asyncio.sleep(0.1)
                        with pytest.raises(OverQuotaRejection):
                            await client.solve(second_inst, "sleepy(seconds=0.5)",
                                               tenant="b")
                        await slow
                    finally:
                        await client.close()
                        server.close()
                        await server.wait_closed()

        run(scenario())

    def test_tenant_field_validated(self, inst):
        async def scenario():
            config = ServiceConfig(
                workers=1, cache=False,
                tenants={"default": "a", "tenants": [{"name": "a"}]},
            )
            async with SolverService(config) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    request = solve_request(inst, "sbo(delta=1.0)")
                    request["tenant"] = 42
                    response = await client.request_raw(request)
                    assert response["ok"] is False
                    assert "tenant" in response["error"]["message"]
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        run(scenario())

    def test_solve_request_tenant_field_optional(self, inst):
        bare = solve_request(inst, "lpt")
        assert "tenant" not in bare
        tagged = solve_request(inst, "lpt", tenant="a")
        assert tagged["tenant"] == "a"


# --------------------------------------------------------------------------- #
# cluster integration
# --------------------------------------------------------------------------- #
class TestClusterQos:
    @staticmethod
    def config(**overrides):
        from repro.cluster import ClusterConfig
        from repro.solvers import LRUCache

        defaults = dict(
            shards=2, min_shards=1, max_shards=4, backend="inproc",
            workers=1, cache=LRUCache(), session_ttl=None,
            tenants={"default": "bulk", "tenants": [
                {"name": "vip", "priority": "interactive", "weight": 2.0},
                {"name": "bulk"},
            ]},
        )
        defaults.update(overrides)
        return ClusterConfig(**defaults)

    def test_router_capacity_tracks_shard_churn(self):
        from repro.cluster import ClusterRouter

        async def scenario():
            async with ClusterRouter(self.config(max_pending=8)) as router:
                assert router._qos.capacity == 16
                await router.add_shard()
                assert router._qos.capacity == 24
                victim = router.shard_names()[0]
                await router.remove_shard(victim)
                assert router._qos.capacity == 16

        run(scenario())

    def test_scaling_signal_flat_and_weighted(self):
        from repro.cluster import ClusterRouter
        from repro.solvers import LRUCache

        async def scenario():
            flat_cfg = self.config(tenants=None)
            async with ClusterRouter(flat_cfg) as router:
                assert router.scaling_signal(7) == 7.0  # passthrough
            async with ClusterRouter(self.config()) as router:
                # Nothing admitted/queued: urgency defaults to 1.0.
                assert router.scaling_signal(4) == 4.0

        run(scenario())

    def test_cluster_stats_carry_tenant_slices(self, inst):
        from repro.cluster import ClusterRouter

        async def scenario():
            async with ClusterRouter(self.config()) as router:
                await router.solve(inst, "sbo(delta=1.0)", tenant="vip")
                # default: bulk; a repeat the router's tier answers slot-free
                await router.solve(inst, "sbo(delta=1.0)")
                stats = await router.stats()
            return stats

        stats = run(scenario())
        tenants = stats.tenants
        assert tenants["vip"]["completed"] == 1
        assert tenants["bulk"]["completed"] == 0
        assert tenants["bulk"]["cache_hits"] == tenants["bulk"]["admitted"] == 1
        for snap in tenants.values():
            assert balanced(snap)
        payload = stats.to_dict()
        assert set(payload["tenants"]) == {"bulk", "vip"}
        assert "phases" in payload

    def test_router_rejections_carry_codes(self, inst):
        from repro.cluster import ClusterRouter

        async def scenario():
            config = self.config(tenants={"tenants": [
                {"name": "a", "rate": 1.0, "burst": 1.0}]})
            async with ClusterRouter(config) as router:
                request = {"op": "solve", "id": "r1", "tenant": "a",
                           "instance": inst.to_dict(), "spec": "sbo(delta=1.0)"}
                ok = await router.handle(request)
                assert ok["ok"] is True
                limited = await router.handle({**request, "id": "r2"})
                assert limited["ok"] is False
                assert limited["error"]["code"] == "rate_limited"
                unknown = await router.handle(
                    {**request, "id": "r3", "tenant": "zz"})
                assert unknown["error"]["code"] == "unknown_tenant"
                untagged = await router.handle(
                    {k: v for k, v in request.items() if k != "tenant"})
                assert untagged["error"]["code"] == "unknown_tenant"

        run(scenario())

    def test_flat_cluster_unchanged(self, inst):
        from repro.cluster import ClusterRouter

        async def scenario():
            async with ClusterRouter(self.config(tenants=None)) as router:
                payload = await router.solve(inst, "sbo(delta=1.0)")
                stats = await router.stats()
            return payload, stats

        payload, stats = run(scenario())
        direct = solve(inst, "sbo(delta=1.0)", cache=False)
        assert payload["cmax"] == direct.schedule.cmax
        assert stats.tenants == {}


# --------------------------------------------------------------------------- #
# CLI flags
# --------------------------------------------------------------------------- #
class TestCliQos:
    def test_parser_accepts_tenant_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--port", "0", "--tenants", "tenants.json",
            "--default-tenant", "a",
        ])
        assert args.tenants == "tenants.json" and args.default_tenant == "a"
        args = parser.parse_args([
            "cluster", "--tenants", "tenants.json", "--default-tenant", "b",
        ])
        assert args.tenants == "tenants.json" and args.default_tenant == "b"

    def test_serve_rejects_bad_tenants_file(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        code = main(["serve", "--port", "0", "--tenants", str(missing)])
        assert code == 2
        assert "cannot load tenants" in capsys.readouterr().err
