"""Tests for the sharded cluster layer (repro.cluster).

Coverage map:

* **routing** — content-addressed request keys (field-order and id
  independent), rendezvous ownership (deterministic, minimal remapping
  when the shard set changes);
* **policy** — the autoscaler hysteresis state machine, pure;
* **router over inproc shards** — solve parity with direct ``solve()``,
  cluster-wide coalescing of identical requests, error relaying,
  session pinning/isolation, bit-identical cross-shard handoff
  (property-tested over schedulers x seeds, with and without a
  windowed-ack buffer in flight), shard-kill recovery mid-batch with no
  lost or duplicated results, graceful drain on scale-down, autoscaler
  scale-up/down/supervision, merged stats;
* **process shards end-to-end** — the acceptance scenario: a real
  4-shard ``repro serve`` subprocess cluster behind a TCP front end
  under mixed solve + streaming-session load, bit-identical to
  single-process results, surviving one shard kill and one session
  handoff with a balanced ledger.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerPolicy,
    ClusterConfig,
    ClusterError,
    ClusterRouter,
    request_key,
    rank,
    route,
)
from repro.cluster.stats import merge_shard_stats
from repro.core.instance import Instance
from repro.core.task import Task
from repro.obs.metrics import Histogram
from repro.online import create_online, stochastic_trace
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ERROR_CODES,
    MAX_PROCESSORS,
    instance_from_payload,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.solvers import LRUCache, solve
from repro.workloads.independent import workload_suite

from _service_helpers import count_executions, make_sleepy_entry, registered

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inst() -> Instance:
    return Instance.from_lists(p=[4, 3, 2, 2, 1, 6, 5], s=[1, 5, 2, 4, 3, 2, 6], m=3)


def inproc_config(**overrides) -> ClusterConfig:
    defaults = dict(shards=2, min_shards=1, max_shards=4, backend="inproc",
                    workers=1, cache=LRUCache(), session_ttl=None)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# --------------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------------- #
class TestRouting:
    def test_request_key_ignores_id_and_field_order(self, inst):
        a = solve_request(inst, "sbo(delta=1.0)", request_id=1)
        b = {"spec": "sbo(delta=1.0)", "instance": inst.to_dict(), "op": "solve",
             "id": "zz"}
        assert request_key(a) == request_key(b)

    def test_request_key_separates_content(self, inst):
        base = solve_request(inst, "sbo(delta=1.0)")
        other_spec = solve_request(inst, "sbo(delta=2.0)")
        other_inst = solve_request(
            Instance.from_lists(p=[1, 2], s=[1, 2], m=2), "sbo(delta=1.0)"
        )
        assert request_key(base) != request_key(other_spec)
        assert request_key(base) != request_key(other_inst)
        params = solve_request(inst, "sbo(delta=1.0)", params={"delta": 2.0})
        assert request_key(base) != request_key(params)

    def test_route_deterministic_and_total(self):
        shards = [f"shard-{i}" for i in range(1, 6)]
        keys = [f"key-{i}" for i in range(200)]
        first = [route(k, shards) for k in keys]
        assert first == [route(k, shards) for k in keys]
        assert all(owner in shards for owner in first)
        # Every shard owns a reasonable slice of the keyspace.
        counts = {s: first.count(s) for s in shards}
        assert all(counts[s] > 0 for s in shards), counts

    def test_route_empty_and_rank_order(self):
        assert route("key", []) is None
        shards = ["a", "b", "c"]
        order = rank("key", shards)
        assert sorted(order) == sorted(shards)
        assert order[0] == route("key", shards)

    def test_minimal_remapping_on_scale(self):
        """Removing one shard only remaps the keys that shard owned."""
        shards = [f"shard-{i}" for i in range(1, 5)]
        keys = [f"key-{i}" for i in range(300)]
        before = {k: route(k, shards) for k in keys}
        removed = "shard-2"
        survivors = [s for s in shards if s != removed]
        after = {k: route(k, survivors) for k in keys}
        for key in keys:
            if before[key] != removed:
                assert after[key] == before[key], key
        # And adding it back restores the original ownership exactly.
        assert {k: route(k, shards) for k in keys} == before


# --------------------------------------------------------------------------- #
# config + policy
# --------------------------------------------------------------------------- #
class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="min_shards"):
            ClusterConfig(min_shards=0)
        with pytest.raises(ValueError, match="max_shards"):
            ClusterConfig(min_shards=3, max_shards=2)
        with pytest.raises(ValueError, match="shards"):
            ClusterConfig(shards=9, max_shards=4)
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(backend="thread")
        with pytest.raises(ValueError, match="scale_up_at"):
            ClusterConfig(scale_up_at=1.0, scale_down_at=1.0)
        with pytest.raises(ValueError, match="hysteresis"):
            ClusterConfig(hysteresis=0)

    @pytest.mark.parametrize("overrides", [
        {"max_pending": 0},
        {"backpressure": "bogus"},
        {"session_ttl": -1},
        {"default_timeout": -5},
        {"max_sessions": 0},
    ])
    def test_shard_settings_checked_at_construction(self, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            ClusterConfig(**overrides)

    def test_cli_rejects_a_bad_shard_setting_before_spawning(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.cluster.backend import ProcessShard

        async def no_spawn(self):
            raise AssertionError("a shard was spawned")

        monkeypatch.setattr(ProcessShard, "start", no_spawn)
        assert main(["cluster", "--port", "0", "--shards", "1",
                     "--max-pending", "0", "--no-autoscale"]) == 2
        assert "max_pending" in capsys.readouterr().err

    @pytest.mark.parametrize("session_ttl", [12.5, None])
    def test_process_shard_argv_round_trips_the_shard_config(self, session_ttl):
        """``repro serve`` parses a process shard's argv back into its config."""
        from dataclasses import fields

        from repro.cli import _serve_config, build_parser
        from repro.cluster.backend import ProcessShard
        from repro.service import ServiceConfig

        # The shard settings: what ClusterConfig shares with ServiceConfig,
        # minus QoS, which the router enforces itself.
        forwarded = ({f.name for f in fields(ClusterConfig)}
                     & {f.name for f in fields(ServiceConfig)}) - {"tenants", "default_tenant"}
        config = ServiceConfig(
            workers=3, max_pending=7, backpressure="reject", default_timeout=4.5,
            cache="shard-cache", auto_timeouts=True, max_sessions=5,
            session_ttl=session_ttl, trace=True,
        )
        default = ServiceConfig()
        assert all(getattr(config, name) != getattr(default, name) for name in forwarded)
        argv = ProcessShard("s", config)._argv
        assert argv[1:4] == ["-m", "repro", "serve"]
        served = _serve_config(build_parser().parse_args(argv[3:]))
        for name in sorted(forwarded):
            assert getattr(served, name) == getattr(config, name), name

    def test_cluster_mix_shard_argv(self, tmp_path):
        """The exact argv behind ``repro cluster --workers 1 --cache DIR``."""
        import sys

        from repro.cli import _cluster_config, build_parser

        args = build_parser().parse_args([
            "cluster", "--port", "0", "--workers", "1", "--cache", str(tmp_path),
            "--shards", "2", "--no-autoscale",
        ])
        shard = ClusterRouter(_cluster_config(args))._make_shard("shard-1")
        assert shard._argv == [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", "1", "--max-pending", "64", "--policy", "wait",
            "--max-sessions", "64", "--session-ttl", "300.0",
            "--cache", str(tmp_path / "shard-1"),
        ]

    def test_shard_service_config_carries_knobs(self):
        config = ClusterConfig(workers=3, max_pending=7, backpressure="reject",
                               auto_timeouts=True, session_ttl=None)
        svc_config = config.shard_service_config()
        assert svc_config.workers == 3
        assert svc_config.max_pending == 7
        assert svc_config.backpressure == "reject"
        assert svc_config.auto_timeouts is True
        assert svc_config.session_ttl is None

    def test_process_backend_rejects_object_cache(self):
        config = ClusterConfig(backend="process", cache=LRUCache())
        with pytest.raises(TypeError, match="directory"):
            run(ClusterRouter(config).start())

    def test_an_empty_cache_object_still_reaches_the_shards(self, inst):
        # An empty LRUCache is falsy (it has a length); the shards must
        # get it anyway, with the response tier it enables.
        cache = LRUCache()
        assert not cache
        assert inproc_config(cache=cache).shard_service_config().cache is cache
        assert inproc_config(cache=None).shard_service_config().cache is False

        async def scenario():
            async with ClusterRouter(inproc_config(shards=1, cache=cache,
                                                   router_cache=0)) as router:
                svc = router.shard(router.shard_names()[0]).service
                assert svc.response_tier is not None
                for _ in range(3):  # a miss, a cache hit the tier admits, a tier hit
                    assert (await router.solve(inst, "lpt"))["feasible"]
                return len(cache), len(svc.response_tier), svc.stats().cache_hits

        assert run(scenario()) == (1, 1, 2)


class TestAutoscalerPolicy:
    def test_hysteresis_sequences(self):
        policy = AutoscalerPolicy(scale_up_at=8, scale_down_at=1, hysteresis=2)
        readings = (9, 0.5, 9, 9, 9, 9, 4, 0.5, 0.5)
        verdicts = [policy.observe(x) for x in readings]
        assert verdicts == [None, None, None, "up", None, "up", None, None, "down"]

    def test_mid_band_resets_streaks(self):
        policy = AutoscalerPolicy(scale_up_at=8, scale_down_at=1, hysteresis=2)
        assert policy.observe(9) is None
        assert policy.observe(5) is None  # mid-band: reset
        assert policy.observe(9) is None
        assert policy.observe(9) == "up"

    def test_hysteresis_one_acts_immediately(self):
        policy = AutoscalerPolicy(scale_up_at=2, scale_down_at=0.5, hysteresis=1)
        assert policy.observe(3) == "up"
        assert policy.observe(0) == "down"

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_up_at=1, scale_down_at=1, hysteresis=1)
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_up_at=2, scale_down_at=1, hysteresis=0)


# --------------------------------------------------------------------------- #
# the router over inproc shards
# --------------------------------------------------------------------------- #
class TestClusterSolve:
    SPECS = ["lpt", "multifit", "sbo(delta=1.0)", "rls(delta=2.5)"]

    def test_parity_across_shard_counts(self):
        instances = list(workload_suite(30, 3, seed=0).values())[:3]

        async def scenario(shards: int):
            async with ClusterRouter(inproc_config(shards=shards)) as router:
                results = {}
                for i, instance in enumerate(instances):
                    for spec in self.SPECS:
                        results[(i, spec)] = await router.solve(instance, spec)
                stats = await router.stats()
            return results, stats

        one, stats_one = run(scenario(1))
        three, stats_three = run(scenario(3))
        for (i, spec), payload in one.items():
            direct = solve(instances[i], spec, cache=False)
            for label, got in (("1-shard", payload), ("3-shard", three[(i, spec)])):
                assert got["cmax"] == direct.cmax, (label, spec)
                assert got["mmax"] == direct.mmax
                assert got["guarantee"] == list(direct.guarantee)
                assert got["spec"] == direct.spec
                assert dict(map(tuple, got["assignment"])) == direct.schedule.assignment
        assert stats_one.lost == 0 and stats_three.lost == 0

    def test_identical_requests_share_one_shard_and_execution(self, tmp_path, inst):
        """Cluster-wide coalescing: N racing identical requests, one compute."""
        token = tmp_path / "token"

        async def scenario():
            with registered(make_sleepy_entry()):
                async with ClusterRouter(inproc_config(shards=3, cache=False)) as router:
                    spec = f"sleepy(seconds=0.3, token='{token}')"
                    payloads = await asyncio.gather(
                        *(router.solve(inst, spec) for _ in range(8))
                    )
                    stats = await router.stats()
            return payloads, stats

        payloads, stats = run(scenario())
        assert count_executions(token) == 1
        assert stats.totals["coalesced"] == 7
        assert len({p["cmax"] for p in payloads}) == 1
        assert stats.lost == 0

    def test_error_responses_relay_remote_type(self, inst):
        async def scenario():
            async with ClusterRouter(inproc_config()) as router:
                response = await router.handle(
                    {"op": "solve", "instance": inst.to_dict(), "spec": "nope()",
                     "id": 7}
                )
                with pytest.raises(ClusterError, match="SpecError"):
                    await router.solve(inst, "nope()")
            return response

        response = run(scenario())
        assert response["id"] == 7 and not response["ok"]
        assert response["error"]["type"] == "SpecError"

    def test_solve_retries_on_killed_shard(self, tmp_path, inst):
        """Kill the owning shard mid-execution: retried elsewhere, one response."""
        token = tmp_path / "token"

        async def scenario():
            with registered(make_sleepy_entry()):
                config = inproc_config(shards=2, cache=False)
                async with ClusterRouter(config) as router:
                    # Warm both worker pools so the sleep dominates timing.
                    for name in router.shard_names():
                        await router.shard(name).request(
                            {"op": "solve", "instance": inst.to_dict(), "spec": "lpt"}
                        )
                    spec = f"sleepy(seconds=1.0, token='{token}')"
                    victim = route(
                        request_key(solve_request(inst, spec)), router.shard_names()
                    )
                    job = asyncio.create_task(router.solve(inst, spec))
                    await asyncio.sleep(0.3)  # the job is executing on ``victim``
                    await router.shard(victim).kill()
                    payload = await job
                    stats = await router.stats()
            return payload, stats, victim

        payload, stats, victim = run(scenario())
        direct = solve(inst, "lpt", cache=False)  # sleepy schedules via LPT
        assert payload["cmax"] == direct.schedule.cmax
        assert dict(map(tuple, payload["assignment"])) == direct.schedule.assignment
        assert stats.router["retried"] == 1
        assert stats.router["shards_lost"] == 1
        assert victim not in stats.shards
        assert stats.lost == 0  # the surviving shard's ledger balances

    def test_kill_mid_batch_no_lost_no_duplicates(self, tmp_path):
        """The satellite scenario: one shard dies under a concurrent batch."""
        instances = [
            Instance.from_lists(
                p=[float(1 + j + i) for j in range(6)],
                s=[float(1 + (j * 7 + i) % 5) for j in range(6)],
                m=3,
            )
            for i in range(8)
        ]
        cache = LRUCache()

        async def scenario():
            with registered(make_sleepy_entry()):
                config = inproc_config(shards=2, cache=cache)
                async with ClusterRouter(config) as router:
                    for name in router.shard_names():
                        await router.shard(name).request(
                            {"op": "solve", "instance": instances[0].to_dict(),
                             "spec": "lpt"}
                        )
                    specs = [
                        f"sleepy(seconds=0.4, token='{tmp_path / f'tok{i}'}')"
                        for i in range(len(instances))
                    ]
                    jobs = [
                        asyncio.create_task(router.solve(instance, spec))
                        for instance, spec in zip(instances, specs)
                    ]
                    await asyncio.sleep(0.2)
                    victim = router.shard_names()[0]
                    await router.shard(victim).kill()
                    payloads = await asyncio.gather(*jobs)
                    stats = await router.stats()
            return payloads, stats

        payloads, stats = run(scenario())
        # Exactly one response per request, bit-identical to direct solve.
        assert len(payloads) == len(instances)
        for instance, payload in zip(instances, payloads):
            direct = solve(instance, "lpt", cache=False)
            assert payload["cmax"] == direct.schedule.cmax
            assert dict(map(tuple, payload["assignment"])) == direct.schedule.assignment
        assert stats.lost == 0
        assert stats.router["shards_lost"] == 1
        # Cache-consistent: every shard's own ledger balances too — nothing
        # was double-answered or silently dropped by the retry.
        for shard_stats in stats.shards.values():
            assert shard_stats["lost"] == 0


class TestClusterSessions:
    def test_pinning_isolation_and_close(self):
        trace = stochastic_trace(n=24, m=3, seed=3)

        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                a = await router.handle({"op": "session_open", "spec": "online_greedy",
                                         "m": 3})
                b = await router.handle({"op": "session_open",
                                         "spec": "online_sbo(delta=1.0)", "m": 3})
                assert a["ok"] and b["ok"]
                # Least-loaded placement spreads the two sessions apart.
                assert a["shard"] != b["shard"]
                for event in trace:
                    ra = await router.handle({
                        "op": "session_submit", "session": a["session"],
                        "task": {"id": event.task.id, "p": event.task.p,
                                 "s": event.task.s}})
                    rb = await router.handle({
                        "op": "session_submit", "session": b["session"],
                        "task": {"id": event.task.id, "p": event.task.p,
                                 "s": event.task.s}})
                    assert ra["ok"] and rb["ok"]
                result_a = await router.handle({"op": "session_result",
                                                "session": a["session"]})
                closed = await router.handle({"op": "session_close",
                                              "session": a["session"]})
                after = await router.handle({"op": "session_submit",
                                             "session": a["session"],
                                             "task": {"id": "x", "p": 1, "s": 1}})
                stats = await router.stats()
            return result_a, closed, after, stats

        result_a, closed, after, stats = run(scenario())
        local = create_online("online_greedy", m=3)
        for event in trace:
            local.submit(event.task)
        expected = local.finalize()
        assert result_a["result"]["cmax"] == expected.cmax
        assert dict(map(tuple, result_a["result"]["assignment"])) \
            == expected.schedule.assignment
        assert closed["ok"] and closed["closed"]
        assert not after["ok"] and "unknown session" in after["error"]["message"]
        assert stats.router["sessions_pinned"] == 1  # b still open
        assert stats.lost == 0

    def test_unknown_session_and_lost_shard_session(self):
        # A crash with no survivor to replay onto loses the session, with
        # the stable ``session_lost`` error code.
        async def scenario():
            async with ClusterRouter(inproc_config(shards=1)) as router:
                unknown = await router.handle({"op": "session_result",
                                               "session": "csess-99"})
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                await router.shard(opened["shard"]).kill()
                lost = await router.handle({"op": "session_submit",
                                            "session": opened["session"],
                                            "task": {"id": 0, "p": 1, "s": 1}})
                stats = await router.stats()
            return unknown, lost, stats

        unknown, lost, stats = run(scenario())
        assert not unknown["ok"] and "unknown session" in unknown["error"]["message"]
        assert not lost["ok"] and "lost with" in lost["error"]["message"]
        assert lost["error"]["type"] == "SessionLostError"
        assert lost["error"]["code"] == "session_lost"
        assert stats.router["sessions_lost"] == 1
        assert stats.router["sessions_replayed"] == 0

    @pytest.mark.parametrize("spec", [
        "online_greedy",
        "online_greedy(objective=memory)",
        "online_sbo(delta=0.5)",
        "online_sbo(delta=2.0)",
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_handoff_bit_identical_placements(self, spec, seed):
        """Property: handoff mid-stream never changes a single placement."""
        trace = stochastic_trace(n=40, m=4, seed=seed)
        events = list(trace)
        cut = len(events) // 2

        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open", "spec": spec,
                                              "m": 4})
                placements = []
                for event in events[:cut]:
                    ack = await router.handle({
                        "op": "session_submit", "session": opened["session"],
                        "task": {"id": event.task.id, "p": event.task.p,
                                 "s": event.task.s}})
                    placements.extend(map(tuple, ack["placements"]))
                outcome = await router.session_handoff(opened["session"])
                assert outcome["ok"], outcome
                assert outcome["from"] == opened["shard"]
                assert outcome["shard"] != opened["shard"]
                assert outcome["n"] == cut
                for event in events[cut:]:
                    ack = await router.handle({
                        "op": "session_submit", "session": opened["session"],
                        "task": {"id": event.task.id, "p": event.task.p,
                                 "s": event.task.s}})
                    placements.extend(map(tuple, ack["placements"]))
                result = await router.handle({"op": "session_result",
                                              "session": opened["session"]})
                stats = await router.stats()
            return placements, result, stats

        placements, result, stats = run(scenario())
        local = create_online(spec, m=4)
        expected_placements = [(e.task.id, local.submit(e.task)) for e in events]
        expected = local.finalize()
        assert placements == expected_placements
        assert result["result"]["cmax"] == expected.cmax
        assert result["result"]["mmax"] == expected.mmax
        assert result["result"]["guarantee"] == list(expected.guarantee)
        assert dict(map(tuple, result["result"]["assignment"])) \
            == expected.schedule.assignment
        assert stats.router["handoffs"] == 1
        assert stats.totals["sessions_restored"] == 1

    def test_handoff_carries_windowed_ack_buffer(self):
        """Unacknowledged placements migrate with the session."""
        tasks = [Task(id=i, p=float(i % 5 + 1), s=float(i % 3 + 1)) for i in range(12)]

        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 3})
                sid = opened["session"]
                for task in tasks[:5]:
                    ack = await router.handle({
                        "op": "session_submit", "session": sid, "ack": False,
                        "task": {"id": task.id, "p": task.p, "s": task.s}})
                    assert ack is None
                outcome = await router.session_handoff(sid)
                assert outcome["ok"], outcome
                final = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": tasks[5].id, "p": tasks[5].p, "s": tasks[5].s}})
            return final

        final = run(scenario())
        assert final["ok"]
        local = create_online("online_greedy", m=3)
        expected = [(t.id, local.submit(t)) for t in tasks[:6]]
        assert [tuple(p) for p in final["placements"]] == expected

    def test_handoff_to_explicit_and_missing_target(self):
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                other = next(n for n in router.shard_names()
                             if n != opened["shard"])
                ok = await router.handle({"op": "session_handoff",
                                          "session": opened["session"],
                                          "target": other})
                bad = await router.handle({"op": "session_handoff",
                                           "session": opened["session"],
                                           "target": "shard-404"})
                unknown = await router.handle({"op": "session_handoff",
                                               "session": "csess-404"})
            return ok, bad, unknown

        ok, bad, unknown = run(scenario())
        assert ok["ok"] and ok["shard"] != ok["from"]
        assert not bad["ok"] and "NoShardAvailable" in bad["error"]["type"]
        assert not unknown["ok"]


class TestScaleDownDrain:
    def test_remove_shard_migrates_sessions_and_finishes_jobs(self, tmp_path):
        token = tmp_path / "token"
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)

        async def scenario():
            with registered(make_sleepy_entry()):
                async with ClusterRouter(inproc_config(shards=2, cache=False)) as router:
                    for name in router.shard_names():
                        await router.shard(name).request(
                            {"op": "solve", "instance": inst.to_dict(), "spec": "lpt"}
                        )
                    opened = await router.handle({"op": "session_open",
                                                  "spec": "online_greedy", "m": 2})
                    victim = opened["shard"]
                    for i in range(6):
                        await router.handle({
                            "op": "session_submit", "session": opened["session"],
                            "task": {"id": i, "p": float(i + 1), "s": 1.0}})
                    # Put an in-flight job on the victim so drain has work.
                    spec = f"sleepy(seconds=0.5, token='{token}')"
                    request = solve_request(inst, spec)
                    owner = route(request_key(request), router.shard_names())
                    job = None
                    if owner == victim:
                        job = asyncio.create_task(router.solve(inst, spec))
                        await asyncio.sleep(0.1)
                    await router.remove_shard(victim)
                    if job is not None:
                        await job
                    # The session survived the retirement, on another shard.
                    ack = await router.handle({
                        "op": "session_submit", "session": opened["session"],
                        "task": {"id": 6, "p": 7.0, "s": 1.0}})
                    stats = await router.stats()
            return victim, ack, stats

        victim, ack, stats = run(scenario())
        assert ack["ok"] and ack["shard"] != victim
        assert ack["n"] == 7
        assert stats.router["shards_retired"] == 1
        assert stats.router["handoffs"] == 1
        assert stats.lost == 0

    def test_cannot_retire_last_shard(self):
        async def scenario():
            async with ClusterRouter(inproc_config(shards=1)) as router:
                with pytest.raises(ClusterError, match="last routable"):
                    await router.remove_shard(router.shard_names()[0])

        run(scenario())


class TestAutoscaler:
    def test_supervision_replaces_dead_shard(self):
        async def scenario():
            config = inproc_config(shards=2, min_shards=2, max_shards=4)
            async with ClusterRouter(config) as router:
                scaler = Autoscaler(router)
                victim = router.shard_names()[0]
                await router.shard(victim).kill()
                action = await scaler.tick()
                names = router.shard_names()
            return action, victim, names

        action, victim, names = run(scenario())
        assert action == "replace"
        assert len(names) == 2 and victim not in names

    def test_scale_up_under_queue_pressure_and_down_when_idle(self, tmp_path):
        async def scenario():
            with registered(make_sleepy_entry()):
                config = inproc_config(
                    shards=2, min_shards=2, max_shards=3, cache=False,
                    scale_up_at=1.0, scale_down_at=0.25, hysteresis=1,
                )
                async with ClusterRouter(config) as router:
                    scaler = Autoscaler(router)
                    inst = Instance.from_lists(p=[2, 1], s=[1, 1], m=1)
                    for name in router.shard_names():
                        await router.shard(name).request(
                            {"op": "solve", "instance": inst.to_dict(), "spec": "lpt"}
                        )
                    jobs = [
                        asyncio.create_task(router.solve(
                            inst,
                            f"sleepy(seconds=0.8, token='{tmp_path / f't{i}'}')",
                        ))
                        for i in range(8)
                    ]
                    await asyncio.sleep(0.2)  # queues build behind 1 worker/shard
                    up = await scaler.tick()
                    await asyncio.gather(*jobs)
                    down = None
                    for _ in range(4):  # idle now: average queue depth is 0
                        down = await scaler.tick()
                        if down == "down":
                            break
                    names = router.shard_names()
                    stats = await router.stats()
            return up, down, names, stats

        up, down, names, stats = run(scenario())
        assert up == "up"
        assert down == "down"
        assert len(names) == 2  # back at min_shards
        assert stats.router["shards_started"] == 3
        assert stats.router["shards_retired"] == 1
        assert stats.lost == 0

    def test_pick_victim_prefers_unpinned_newest(self):
        async def scenario():
            config = inproc_config(shards=3, min_shards=1, max_shards=4)
            async with ClusterRouter(config) as router:
                scaler = Autoscaler(router)
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                victim = scaler.pick_victim()
                assert victim != opened["shard"]
                # Among unpinned shards, the newest goes first.
                unpinned = [n for n in router.shard_names()
                            if n != opened["shard"]]
                assert victim == max(
                    unpinned, key=lambda n: int(n.rsplit("-", 1)[-1])
                )

        run(scenario())


class TestClusterStatsMerge:
    def test_families_and_totals_merge(self, inst):
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                for spec in ("lpt", "multifit", "sbo(delta=1.0)", "sbo(delta=2.0)"):
                    await router.solve(inst, spec)
                stats = await router.stats()
            return stats

        stats = run(scenario())
        assert stats.totals["submitted"] == 4
        assert stats.lost == 0
        assert set(stats.families) >= {"lpt", "multifit", "sbo"}
        assert stats.families["sbo"]["count"] == 2
        assert stats.families["sbo"]["p50"] > 0
        payload = stats.to_dict()
        assert payload["cluster"] is True
        assert payload["router"]["routed"] == 4

    def test_metrics_histogram_count_matches_stats(self):
        """The cluster `metrics` histograms count each solve exactly once."""
        instances = [Instance.from_lists(p=[k + 1, 2, 3], s=[3, 2, k + 1], m=2)
                     for k in range(6)]

        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                for instance in instances:
                    await router.solve(instance, "lpt")
                metrics = await router.handle({"op": "metrics", "format": "dict", "id": 1})
                return metrics, await router.stats()

        metrics, stats = run(scenario())
        assert metrics["ok"], metrics
        registry = metrics["metrics"]
        series = registry["repro_request_latency_seconds"]["series"]
        assert sum(s["count"] for s in series.values()) \
            == stats.totals["latency_count"] == len(instances)
        phases = registry["repro_phase_latency_seconds"]["series"]
        assert phases["exec\tlpt"]["count"] == phases["queue_wait\tlpt"]["count"] == len(instances)
        assert registry["repro_submitted_total"]["series"][""] == len(instances)
        # Cluster summaries are the exact bucket sum of the shard series.
        shard_buckets = [shard["families"]["lpt"]["buckets"]
                         for shard in stats.shards.values() if shard["families"]]
        assert stats.families["lpt"]["buckets"] == [sum(b) for b in zip(*shard_buckets)]
        assert series["lpt"]["buckets"] == stats.families["lpt"]["buckets"]

    def test_merge_families_exact(self):
        """Shard summaries merge into the summary of the concatenated samples."""
        samples = {
            "shard-0": {"lpt": [0.002], "sbo": [0.001, 0.003, 0.004, 0.02]},
            "shard-1": {"sbo": [0.3, 0.0004, 0.07], "rls": [1.5, 4.0]},
        }
        everything = Histogram("lat", labelnames=("family",))
        payloads = {}
        for shard, families in samples.items():
            own = Histogram("lat", labelnames=("family",))
            for family, values in families.items():
                for value in values:
                    own.observe(value, family)
                    everything.observe(value, family)
            summaries = {key[0]: summary for key, summary in own.summaries().items()}
            payloads[shard] = {"families": summaries,
                               "phases": {"exec": summaries}}

        merged = merge_shard_stats(payloads, router={})
        assert list(merged.families) == ["lpt", "rls", "sbo"]
        for family in ("lpt", "rls", "sbo"):
            want = everything.summary(family)
            assert merged.families[family] == want
            assert merged.phases["exec"][family] == want
        shared = merged.families["sbo"]
        shard_buckets = [payloads[s]["families"]["sbo"]["buckets"] for s in payloads]
        assert shared["buckets"] == [a + b for a, b in zip(*shard_buckets)]
        assert shared["count"] == 7
        assert shared["max"] == 0.3  # the true max, not an average
        assert shared["mean"] == pytest.approx(shared["sum"] / 7)
        assert shared["sum"] == pytest.approx(sum(samples["shard-0"]["sbo"])
                                              + sum(samples["shard-1"]["sbo"]))
        assert shared["p99"] == everything.quantile(0.99, "sbo")


# --------------------------------------------------------------------------- #
# acceptance: real subprocess shards behind a TCP front end
# --------------------------------------------------------------------------- #
class TestProcessClusterEndToEnd:
    SPECS = ["lpt", "multifit", "sbo(delta=1.0)", "rls(delta=2.5)", "trio(delta=2.5)"]

    def test_four_shard_mixed_load_kill_and_handoff(self, tmp_path):
        instances = list(workload_suite(30, 3, seed=0).values())[:4]
        trace = stochastic_trace(n=40, m=4, seed=0)
        tasks = [event.task for event in trace]

        async def scenario():
            config = ClusterConfig(
                shards=4, min_shards=1, max_shards=4, backend="process",
                workers=1, cache=str(tmp_path / "cache"),
            )
            async with ClusterRouter(config) as router:
                shutdown = asyncio.Event()
                server = await serve_tcp(router, port=0, shutdown=shutdown)
                port = server.sockets[0].getsockname()[1]
                client = await ServiceClient.connect(port=port)
                try:
                    # Streaming session with windowed acks, opened first so a
                    # pinned shard exists before the kill.
                    session = await client.session_open("online_sbo(delta=1.0)", m=4)
                    placements = await session.submit_windowed(tasks[:20], ack_every=8)

                    # Mixed solve load.
                    solves = await asyncio.gather(*(
                        client.solve(instances[i % len(instances)],
                                     self.SPECS[i % len(self.SPECS)])
                        for i in range(15)
                    ))

                    # Kill one shard that hosts no session, mid-life.
                    pinned = {pin for pin, _ in router._sessions.values()}
                    victim = next(n for n in router.shard_names()
                                  if n not in pinned)
                    await router.shard(victim).kill()

                    # Handoff the session and keep streaming.
                    handoff = await client.request(
                        {"op": "session_handoff", "session": session.id}
                    )
                    placements += await session.submit_windowed(
                        tasks[20:], ack_every=8
                    )
                    wire_result = await session.result()
                    await session.close()

                    # More solves after the kill — the cluster keeps serving.
                    solves += await asyncio.gather(*(
                        client.solve(instances[i % len(instances)],
                                     self.SPECS[(i + 2) % len(self.SPECS)])
                        for i in range(10)
                    ))
                    stats = await client.stats()
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
            return placements, wire_result, handoff, solves, stats, victim

        (placements, wire_result, handoff, solves,
         stats, victim) = run(scenario())

        # Session: bit-identical to the in-process scheduler, through a
        # subprocess cluster, a kill, and a handoff.
        local = create_online("online_sbo(delta=1.0)", m=4)
        expected_placements = [(t.id, local.submit(t)) for t in tasks]
        expected = local.finalize()
        assert [tuple(p) for p in placements] == expected_placements
        assert handoff["ok"] and handoff["shard"] != handoff["from"]
        assert wire_result["cmax"] == expected.cmax
        assert wire_result["mmax"] == expected.mmax
        assert wire_result["guarantee"] == list(expected.guarantee)
        assert wire_result["spec"] == expected.spec
        assert dict(map(tuple, wire_result["assignment"])) \
            == expected.schedule.assignment

        # Solves: every response bit-identical to direct solve().
        for i, payload in enumerate(solves):
            spec = self.SPECS[i % len(self.SPECS)] if i < 15 \
                else self.SPECS[(i - 15 + 2) % len(self.SPECS)]
            direct = solve(instances[i % len(instances)] if i < 15
                           else instances[(i - 15) % len(instances)],
                           spec, cache=False)
            assert payload["cmax"] == direct.cmax, (i, spec)
            assert payload["mmax"] == direct.mmax
            assert payload["guarantee"] == list(direct.guarantee)
            assert dict(map(tuple, payload["assignment"])) \
                == direct.schedule.assignment

        # Ledgers: nothing lost anywhere, the kill and handoff are recorded.
        assert stats["cluster"] is True
        assert stats["totals"]["lost"] == 0
        assert stats["router"]["shards_lost"] == 1
        assert stats["router"]["handoffs"] == 1
        assert victim not in stats["shards"]


# --------------------------------------------------------------------------- #
# the `repro cluster` CLI
# --------------------------------------------------------------------------- #
class TestClusterCLI:
    def test_invalid_config_rejected(self, capsys):
        from repro.cli import main

        assert main(["cluster", "--shards", "0"]) == 2
        assert "shards" in capsys.readouterr().err
        assert main(["cluster", "--min-shards", "3", "--max-shards", "2"]) == 2
        assert "max_shards" in capsys.readouterr().err

    def test_live_cluster_cli_serves_and_shuts_down(self, inst):
        import re
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "--port", "0",
             "--shards", "2", "--backend", "inproc", "--no-autoscale"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        try:
            banner = proc.stderr.readline().decode()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            assert "2 inproc shards" in banner
            port = int(match.group(1))

            async def scenario():
                client = await ServiceClient.connect(port=port)
                try:
                    pong = await client.ping()
                    payload = await client.solve(inst, "sbo(delta=1.0)")
                    stats = await client.stats()
                    await client.shutdown()
                finally:
                    await client.close()
                return pong, payload, stats

            pong, payload, stats = run(scenario())
            assert pong["cluster"] is True and pong["shards"] == 2
            direct = solve(inst, "sbo(delta=1.0)", cache=False)
            assert payload["cmax"] == direct.cmax
            assert dict(map(tuple, payload["assignment"])) \
                == direct.schedule.assignment
            assert stats["cluster"] is True and stats["totals"]["lost"] == 0
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - only on test failure
                proc.kill()
                proc.wait(timeout=10)


class TestReviewRegressions:
    """Fixes from the PR review: mid-request shard loss, noack contract,
    and the autoscaler's draining-shard average."""

    def test_session_op_on_shard_dying_mid_request_reports_loss(self):
        # No survivor: a mid-request crash loses the session with the typed
        # ``session_lost`` code, and later ops on the id stay typed too
        # (tombstone) instead of degrading to "unknown session".
        async def scenario():
            async with ClusterRouter(inproc_config(shards=1)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                sid = opened["session"]
                shard = router.shard(opened["shard"])

                async def dying_request(payload):
                    raise ConnectionError("shard fell over mid-request")

                shard.request = dying_request  # the op is already in flight
                lost = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                again = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 1, "p": 1.0, "s": 1.0}})
                counters = router.router_counters()
            return lost, again, counters, opened["shard"]

        lost, again, counters, victim = run(scenario())
        assert not lost["ok"]
        assert "lost with shard" in lost["error"]["message"]
        assert lost["error"]["type"] == "SessionLostError"
        assert lost["error"]["code"] == "session_lost"
        assert not again["ok"]
        assert again["error"]["type"] == "SessionLostError"
        assert again["error"]["code"] == "session_lost"
        assert counters["sessions_lost"] == 1
        assert counters["shards_lost"] == 1
        assert counters["sessions_pinned"] == 0

    def test_session_op_on_shard_dying_mid_request_replays_with_journal(self):
        # With a survivor, the same crash is a transparent failover —
        # the op retries on the survivor and the placements stay bit-identical.
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                sid = opened["session"]
                first = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 0, "p": 3.0, "s": 1.0}})
                shard = router.shard(opened["shard"])

                async def dying_request(payload):
                    raise ConnectionError("shard fell over mid-request")

                shard.request = dying_request  # the op is already in flight
                survived = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 1, "p": 1.0, "s": 1.0}})
                counters = router.router_counters()
            return opened, first, survived, counters

        opened, first, survived, counters = run(scenario())
        assert first["ok"] and first["placements"] == [[0, 0]]
        assert survived["ok"]
        assert survived["shard"] != opened["shard"]
        assert survived["placements"] == [[1, 1]]  # least-loaded proc, as ever
        assert counters["sessions_replayed"] == 1
        assert counters["sessions_lost"] == 0
        assert counters["replays_failed"] == 0
        assert counters["sessions_pinned"] == 1

    def test_noack_line_never_produces_a_response(self):
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                unknown = await router.handle({
                    "op": "session_submit", "session": "csess-404", "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                bad_field = await router.handle({
                    "op": "session_submit", "session": 7, "ack": False,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                # A shard dying under an unacked line is also silent.
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                shard = router.shard(opened["shard"])

                async def dying_send(payload):
                    raise ConnectionError("gone")

                shard.send = dying_send
                dying = await router.handle({
                    "op": "session_submit", "session": opened["session"],
                    "ack": False, "task": {"id": 0, "p": 1.0, "s": 1.0}})
            return unknown, bad_field, dying

        unknown, bad_field, dying = run(scenario())
        assert unknown is None
        assert bad_field is None
        assert dying is None

    def test_autoscaler_average_ignores_draining_backlog(self):
        async def scenario():
            config = inproc_config(shards=3, min_shards=1, max_shards=3,
                                   scale_up_at=2.0, scale_down_at=0.5,
                                   hysteresis=1)
            async with ClusterRouter(config) as router:
                scaler = Autoscaler(router)
                draining = router.shard_names()[0]
                router.shard(draining).draining = True
                # Fake a big backlog on the draining shard only: the stats
                # fan-out reads per-shard payloads, so patch its stats op.
                shard = router.shard(draining)
                real_request = shard.request

                async def inflated(payload):
                    response = await real_request(payload)
                    if payload.get("op") == "stats" and response.get("ok"):
                        response["stats"] = {**response["stats"], "queue_depth": 50}
                    return response

                shard.request = inflated
                verdict = await scaler.tick()
                streaks = (scaler.policy.up_streak, scaler.policy.down_streak)
            return verdict, streaks

        verdict, streaks = run(scenario())
        # 50 queued on the draining shard must not read as cluster pressure:
        # the routable average is 0, which votes *down*, not up.
        assert verdict == "down"
        assert streaks == (0, 0)


class TestReviewRegressionsRoundTwo:
    def test_integer_ack_rejected_not_treated_as_acked(self):
        """`0 == False` must not let a non-bool ack slip through."""
        from repro.service import ServiceConfig, SolverService

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                opened = await svc.handle(
                    {"op": "session_open", "spec": "online_greedy", "m": 2}
                )
                return await svc.handle({
                    "op": "session_submit", "session": opened["session"],
                    "ack": 0, "task": {"id": 0, "p": 1.0, "s": 1.0}})

        response = run(scenario())
        assert not response["ok"]
        assert "'ack' must be a JSON boolean" in response["error"]["message"]

    def test_expired_backend_session_frees_router_pin(self):
        """A TTL-expired session must not leak its pin forever."""
        async def scenario():
            config = inproc_config(shards=2, session_ttl=0.05)
            async with ClusterRouter(config) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                sid = opened["session"]
                await asyncio.sleep(0.15)  # backend TTL sweep expires it
                touched = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                pinned_after_touch = router.router_counters()["sessions_pinned"]

                # The lazy sweep also reaps pins nobody ever touches again.
                abandoned = await router.handle({"op": "session_open",
                                                 "spec": "online_greedy", "m": 2})
                router._session_touch[abandoned["session"]] -= 10.0
                swept = router.router_counters()["sessions_pinned"]
            return touched, pinned_after_touch, swept

        touched, pinned_after_touch, swept = run(scenario())
        assert not touched["ok"]  # the expiry is reported to the client...
        assert pinned_after_touch == 0  # ...and the ghost pin is gone
        assert swept == 0

    def test_cluster_drain_op_protocol_parity(self, inst):
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                await router.solve(inst, "lpt")
                response = await router.handle({"op": "drain", "timeout": 10})
                bad = await router.handle({"op": "drain", "timeout": "x"})
            return response, bad

        response, bad = run(scenario())
        assert response["ok"] and response["drained"] is True
        assert response["pending"] == 0
        assert not bad["ok"] and "'timeout'" in bad["error"]["message"]


class TestProcessorCap:
    """A hostile ``m`` is one typed ``too_large`` response, not an allocation.

    The cases sit just above the cap: were the cap ever lost, they would
    still allocate only megabytes.
    """

    HOSTILE = [
        {"op": "solve", "spec": "lpt",
         "instance": {"kind": "independent", "m": MAX_PROCESSORS + 1,
                      "tasks": [{"id": 0, "p": 1, "s": 1}]}},
        {"op": "solve", "spec": "rls(delta=3.0)",
         "instance": {"kind": "dag", "m": MAX_PROCESSORS + 1,
                      "tasks": [{"id": 0, "p": 1, "s": 1}], "edges": []}},
        {"op": "solve", "spec": "uniform_list",
         "instance": {"kind": "uniform", "speeds": [1.0] * (MAX_PROCESSORS + 1),
                      "tasks": [{"id": 0, "p": 1, "s": 1}]}},
        {"op": "session_open", "spec": "online_greedy", "m": MAX_PROCESSORS + 1},
        {"op": "session_restore", "export": {
            "state": {"spec": "online_greedy", "name": "online_greedy", "m": MAX_PROCESSORS + 1,
                      "params": {}, "tasks": [], "placements": [], "sealed": False},
            "submitted": 0}},
    ]

    def assert_too_large(self, responses, elapsed):
        assert elapsed < 1.0, elapsed
        for response in responses:
            assert not response["ok"], response
            assert response["error"]["code"] == "too_large", response
            assert response["error"]["type"] == "ProtocolError"
            assert str(MAX_PROCESSORS) in response["error"]["message"]

    def test_service_rejects_before_building(self):
        from repro.service import ServiceConfig, SolverService

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                start = time.perf_counter()
                responses = [await svc.handle(dict(r)) for r in self.HOSTILE]
                elapsed = time.perf_counter() - start
                # The cap is exactly MAX_PROCESSORS: the largest allowed m still works.
                edge = await svc.handle({
                    "op": "session_open", "spec": "online_greedy", "m": MAX_PROCESSORS})
                return responses, elapsed, edge

        responses, elapsed, edge = run(scenario())
        self.assert_too_large(responses, elapsed)
        assert edge["ok"] and edge["m"] == MAX_PROCESSORS

    def test_router_passes_the_typed_rejection_through(self):
        async def scenario():
            async with ClusterRouter(inproc_config()) as router:
                start = time.perf_counter()
                responses = [await router.handle(dict(r)) for r in self.HOSTILE]
                return responses, time.perf_counter() - start

        responses, elapsed = run(scenario())
        self.assert_too_large(responses, elapsed)

    def test_code_is_registered(self):
        assert "too_large" in ERROR_CODES
        assert instance_from_payload({"m": MAX_PROCESSORS, "tasks": []}).m == MAX_PROCESSORS
