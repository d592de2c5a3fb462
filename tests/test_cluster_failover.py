"""Failure-path tests for the cluster layer (PR 8).

Coverage map:

* **orphan-pin reaping** — ``remove_shard`` with a failed session handoff
  must not leave a pin pointing at the retired shard: the session
  replays onto a survivor, or, when the survivor refuses the replay, it
  is an *accounted* loss with the stable ``session_lost`` error code;
* **drain-timeout threading** — ``ProcessShard.stop`` honours
  ``ClusterConfig.drain_timeout`` instead of a hardcoded 10 s;
* **counter balance** — property test over randomized kill/attach/solve
  sequences: ``routed == completed + retried + lost`` at every quiescent
  point, and every request receives exactly one response;
* **remove_shard vs supervision race** — a shard dying *while* its
  graceful retirement awaits the drain is reaped once (no double-counted
  loss, no dropped replacement);
* **RemoteShard** — attach an already-running ``repro serve`` by
  address, probe health over the wire, reap on consecutive probe
  failures with journal replay of its pinned sessions, sever-not-shutdown
  on detach;
* **acceptance** — a 3-shard cluster (2 local + 1 attached over real
  TCP) survives a SIGKILL of the remote holding a mid-stream windowed
  session: the journal replays it onto a survivor bit-identically to an
  uninterrupted run, with zero lost requests;
* **crash invisibility** — property test over session op sequences
  (acked and unacked batches, duplicate ids, unparseable tasks, result,
  export, handoff): killing the pinned shard before any step changes no
  response.

Tests that need a live TCP remote carry the ``remote`` marker on top of
the package-wide ``cluster`` one (deselect with ``-m 'not remote'``).
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ClusterError,
    ClusterRouter,
    ProcessShard,
    RemoteShard,
)
from repro.core.instance import Instance
from repro.obs.logging import CapturedEvents
from repro.online import create_online, stochastic_trace
from repro.service import ServiceConfig, SolverService
from repro.service.client import ServiceClient
from repro.service.server import serve_tcp
from repro.solvers import LRUCache, solve

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


def inproc_config(**overrides) -> ClusterConfig:
    defaults = dict(shards=2, min_shards=1, max_shards=4, backend="inproc",
                    workers=1, cache=LRUCache(), session_ttl=None)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def task_payload(task) -> dict:
    return {"id": task.id, "p": task.p, "s": task.s}


def wedge_export(shard):
    """Make a shard's ``session_export`` op fail (everything else passes)."""
    real_request = shard.request

    async def wedged(payload):
        if payload.get("op") == "session_export":
            return {"ok": False, "error": {"type": "RuntimeError",
                                           "message": "export wedged"}}
        return await real_request(payload)

    shard.request = wedged


# --------------------------------------------------------------------------- #
# satellite: remove_shard must never orphan a pin on a failed handoff
# --------------------------------------------------------------------------- #
class TestOrphanPinReap:
    def test_failed_handoff_on_retire_is_accounted_loss_when_replay_is_refused(self):
        # Regression: a handoff failure during remove_shard used to leave
        # the pin pointing at the popped shard — the next op hit an unknown
        # shard instead of a typed error, and the loss was never counted.
        # The survivor holds its one allowed session, so it also refuses
        # the journal's replay.
        async def scenario():
            config = inproc_config(shards=2, max_sessions=1)
            async with ClusterRouter(config) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                sid, pin = opened["session"], opened["shard"]
                other = await router.handle({"op": "session_open",
                                             "spec": "online_greedy", "m": 2})
                assert other["shard"] != pin
                wedge_export(router.shard(pin))
                await router.remove_shard(pin)
                closed = await router.handle({"op": "session_close",
                                              "session": other["session"]})
                assert closed["ok"]
                counters = router.router_counters()
                after = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 0, "p": 1.0, "s": 1.0}})
                names = router.shard_names()
            return pin, counters, after, names

        pin, counters, after, names = run(scenario())
        assert pin not in names
        assert counters["handoff_failures"] == 1
        assert counters["sessions_lost"] == 1
        assert counters["sessions_replayed"] == 0
        assert counters["replays_failed"] == 1
        assert counters["sessions_pinned"] == 0  # the pin was reaped, not leaked
        assert counters["shards_retired"] == 1
        assert not after["ok"]
        assert after["error"]["type"] == "SessionLostError"
        assert after["error"]["code"] == "session_lost"
        assert "reopen and resubmit" in after["error"]["message"]

    def test_failed_handoff_on_retire_replays_from_journal(self):
        trace = stochastic_trace(n=10, m=3, seed=5)
        events = list(trace)

        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 3})
                sid, pin = opened["session"], opened["shard"]
                placements = []
                for event in events[:5]:
                    ack = await router.handle({
                        "op": "session_submit", "session": sid,
                        "task": task_payload(event.task)})
                    placements.extend(map(tuple, ack["placements"]))
                wedge_export(router.shard(pin))
                await router.remove_shard(pin)
                mid = router.router_counters()
                for event in events[5:]:
                    ack = await router.handle({
                        "op": "session_submit", "session": sid,
                        "task": task_payload(event.task)})
                    assert ack["ok"] and ack["shard"] != pin
                    placements.extend(map(tuple, ack["placements"]))
                result = await router.handle({"op": "session_result",
                                              "session": sid})
            return placements, result, mid

        placements, result, mid = run(scenario())
        assert mid["handoff_failures"] == 1
        assert mid["sessions_replayed"] == 1
        assert mid["sessions_lost"] == 0
        assert mid["sessions_pinned"] == 1  # survived the retirement
        local = create_online("online_greedy", m=3)
        expected_placements = [(e.task.id, local.submit(e.task)) for e in events]
        expected = local.finalize()
        assert placements == expected_placements
        assert result["result"]["cmax"] == expected.cmax
        assert dict(map(tuple, result["result"]["assignment"])) \
            == expected.schedule.assignment


# --------------------------------------------------------------------------- #
# satellite: ProcessShard.stop honours ClusterConfig.drain_timeout
# --------------------------------------------------------------------------- #
class TestDrainTimeoutThreading:
    def test_process_shard_stop_timeout_parameter(self):
        config = ServiceConfig()
        assert ProcessShard("s", config)._stop_timeout == 10.0  # standalone default
        assert ProcessShard("s", config, stop_timeout=3.5)._stop_timeout == 3.5

    def test_router_threads_drain_timeout_to_spawned_shards(self, tmp_path):
        config = ClusterConfig(
            shards=1, min_shards=1, max_shards=4, backend="process",
            cache=str(tmp_path / "cache"), drain_timeout=7.25,
        )
        shard = ClusterRouter(config)._make_shard("shard-1")
        assert isinstance(shard, ProcessShard)
        assert shard._stop_timeout == 7.25


# --------------------------------------------------------------------------- #
# satellite: per-counter balance under randomized failure sequences
# --------------------------------------------------------------------------- #
class TestCounterBalance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routed_equals_completed_plus_retried_plus_lost(self, seed):
        """Property: every routing decision ends in exactly one outcome."""
        instances = [
            Instance.from_lists(p=[4, 3, 2, 2, 1, i + 1], s=[1, 5, 2, 4, 3, 2], m=3)
            for i in range(6)
        ]
        specs = ["lpt", "multifit", "sbo(delta=1.0)"]

        async def scenario():
            rng = random.Random(seed)
            config = inproc_config(shards=3, min_shards=1, max_shards=6,
                                   router_cache=0)
            async with ClusterRouter(config) as router:
                wounded = set()

                def wound(name):
                    # The shard stays routable but dies under the request —
                    # the path that exercises retried (and, once nothing is
                    # left, lost).
                    async def dying(payload):
                        raise ConnectionError(f"{name} died mid-request")
                    router.shard(name).request = dying
                    wounded.add(name)

                responses = []
                for step in range(24):
                    healthy = [n for n in router.shard_names()
                               if n not in wounded]
                    if healthy and rng.random() < 0.25:
                        wound(rng.choice(healthy))
                    if rng.random() < 0.2:
                        try:
                            await router.add_shard()
                        except ClusterError:
                            pass  # at max_shards
                    responses.append(await router.handle({
                        "op": "solve",
                        "instance": instances[step % len(instances)].to_dict(),
                        "spec": specs[step % len(specs)]}))
                # Terminal stage: every survivor dies → the lost path.
                for name in router.shard_names():
                    if name not in wounded:
                        wound(name)
                responses.append(await router.handle({
                    "op": "solve", "instance": instances[0].to_dict(),
                    "spec": "lpt"}))
                counters = router.router_counters()
            return responses, counters

        responses, counters = run(scenario())
        # Exactly one response per request, and the ledger balances.
        assert all(isinstance(r, dict) for r in responses)
        assert counters["routed"] == (counters["completed"]
                                      + counters["retried"]
                                      + counters["lost"])
        assert counters["completed"] == sum(bool(r["ok"]) for r in responses)
        assert counters["lost"] == sum(not r["ok"] for r in responses)
        assert counters["lost"] >= 1  # the terminal stage really was terminal
        for r in responses:
            if not r["ok"]:
                assert r["error"]["type"] == "NoShardAvailableError"


# --------------------------------------------------------------------------- #
# satellite: remove_shard racing the autoscaler's supervision
# --------------------------------------------------------------------------- #
class TestRemoveShardSupervisionRace:
    def test_shard_dying_during_graceful_retire_is_reaped_once(self):
        # remove_shard parks in the drain await; the shard dies there; the
        # autoscaler's supervision tick reaps it and spawns a replacement
        # *before* remove_shard resumes.  The identity-checked pop must not
        # double-count the loss or disturb the replacement.
        async def scenario():
            config = inproc_config(shards=2, min_shards=2, max_shards=4)
            async with ClusterRouter(config) as router:
                scaler = Autoscaler(router)
                name = router.shard_names()[0]
                victim = router.shard(name)
                release = asyncio.Event()
                real_request = victim.request

                async def slow_drain(payload):
                    if payload.get("op") == "drain":
                        await release.wait()
                        raise ConnectionError("died during drain")
                    return await real_request(payload)

                victim.request = slow_drain
                retire = asyncio.create_task(router.remove_shard(name))
                await asyncio.sleep(0.01)  # retire is parked in the drain
                await victim.kill()        # ...and the backend dies under it
                action = await scaler.tick()
                release.set()
                await retire
                counters = router.router_counters()
                names = router.shard_names()
            return action, counters, names, name

        action, counters, names, victim = run(scenario())
        assert action == "replace"
        assert counters["shards_lost"] == 1      # not 2: reaped exactly once
        assert counters["shards_retired"] == 0
        assert counters["shards_started"] == 3   # 2 initial + the replacement
        assert counters["shards_alive"] == 2
        assert victim not in names and len(names) == 2


# --------------------------------------------------------------------------- #
# RemoteShard: attach, probe, reap, sever-not-shutdown
# --------------------------------------------------------------------------- #
class TestRemoteShardAttach:
    def test_parse_and_config_validation(self):
        with pytest.raises(ValueError, match="expected host:port"):
            RemoteShard.parse("remote-1", "no-port-here")
        with pytest.raises(ValueError, match="expected host:port"):
            RemoteShard.parse("remote-1", ":8373")
        shard = RemoteShard.parse("remote-1", "solver-02:8373")
        assert (shard.host, shard.port) == ("solver-02", 8373)
        assert shard.spawned is False and shard.address == "solver-02:8373"
        # shards=0 is only meaningful when remotes supply the capacity.
        config = ClusterConfig(shards=0, min_shards=1, max_shards=2,
                               attach="127.0.0.1:8373")
        assert config.attach == ("127.0.0.1:8373",)
        with pytest.raises(ValueError, match="attached remote"):
            ClusterConfig(shards=0, min_shards=1, max_shards=2)
        with pytest.raises(ValueError, match="not a host:port address"):
            ClusterConfig(shards=1, attach=["nope"])

    def test_attach_respects_max_shards(self):
        async def scenario():
            config = inproc_config(shards=1, min_shards=1, max_shards=1)
            async with ClusterRouter(config) as router:
                with pytest.raises(ClusterError, match="max_shards"):
                    await router.attach_shard("127.0.0.1:8373")

        run(scenario())

    @pytest.mark.remote
    def test_attach_probe_route_and_sever_on_detach(self):
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as service:
                server = await serve_tcp(service, port=0,
                                         shutdown=asyncio.Event())
                port = server.sockets[0].getsockname()[1]
                try:
                    config = inproc_config(shards=1)
                    async with ClusterRouter(config) as router:
                        remote = await router.attach_shard(f"127.0.0.1:{port}")
                        pong = await remote.probe(timeout=5.0)
                        names = router.shard_names()
                        payload = await router.solve(inst, "sbo(delta=1.0)")
                        counters = router.router_counters()
                    # Detach severed only the connection: the remote —
                    # somebody else's process — must still be serving.
                    after = await ServiceClient.connect(port=port)
                    try:
                        still_up = await after.ping()
                    finally:
                        await after.close()
                finally:
                    server.close()
                    await server.wait_closed()
            return remote, pong, names, payload, counters, still_up

        remote, pong, names, payload, counters, still_up = run(scenario())
        assert remote.name in names and remote.name.startswith("remote-")
        assert pong["pong"] is True
        assert set(pong["load"]) == {"queue_depth", "in_flight", "pending",
                                     "sessions_open"}
        assert remote.last_load == pong["load"]
        assert counters["shards_attached"] == 1 and counters["shards_alive"] == 2
        direct = solve(inst, "sbo(delta=1.0)", cache=False)
        assert payload["cmax"] == direct.cmax
        assert still_up["pong"] is True

    @pytest.mark.remote
    def test_probe_failure_streak_reaps_remote_and_replays_session(self):
        trace = stochastic_trace(n=8, m=2, seed=7)
        events = list(trace)

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as service:
                server = await serve_tcp(service, port=0,
                                         shutdown=asyncio.Event())
                port = server.sockets[0].getsockname()[1]
                try:
                    config = inproc_config(shards=1, probe_failures=2,
                                           probe_interval=60.0)
                    async with ClusterRouter(config) as router:
                        remote = await router.attach_shard(f"127.0.0.1:{port}")
                        opened = await router.handle({
                            "op": "session_open", "spec": "online_greedy",
                            "m": 2})
                        sid = opened["session"]
                        # Ties in pin count break by name: remote-N < shard-N.
                        assert opened["shard"] == remote.name
                        placements = []
                        for event in events[:4]:
                            ack = await router.handle({
                                "op": "session_submit", "session": sid,
                                "task": task_payload(event.task)})
                            placements.extend(map(tuple, ack["placements"]))

                        async def dead(payload):
                            raise ConnectionError("link down")

                        remote.request = dead  # the wire goes dark
                        first = await router.probe_remotes()
                        attached_after_first = remote.name in router.shard_names()
                        second = await router.probe_remotes()
                        counters = router.router_counters()
                        for event in events[4:]:
                            ack = await router.handle({
                                "op": "session_submit", "session": sid,
                                "task": task_payload(event.task)})
                            assert ack["ok"] and ack["shard"] == "shard-1"
                            placements.extend(map(tuple, ack["placements"]))
                        result = await router.handle({"op": "session_result",
                                                      "session": sid})
                        names = router.shard_names()
                finally:
                    server.close()
                    await server.wait_closed()
            return (first, attached_after_first, second, counters, placements,
                    result, names, remote.name)

        (first, attached_after_first, second, counters, placements,
         result, names, remote_name) = run(scenario())
        assert first == 1 and attached_after_first  # one strike: still in
        assert second == 1 and remote_name not in names  # two strikes: reaped
        assert counters["probes"] == 2
        assert counters["probe_failures"] == 2
        assert counters["shards_lost"] == 1
        assert counters["sessions_replayed"] == 1  # reaping replayed its pin
        assert counters["sessions_lost"] == 0
        local = create_online("online_greedy", m=2)
        expected_placements = [(e.task.id, local.submit(e.task)) for e in events]
        expected = local.finalize()
        assert placements == expected_placements
        assert result["result"]["cmax"] == expected.cmax

    @pytest.mark.remote
    def test_stats_survives_remote_dying_between_probe_rounds(self):
        """A dead-but-not-yet-reaped remote must fail requests fast.

        ``ClusterRouter.stats`` fans ``{"op": "stats"}`` out to every
        shard with no timeout.  Once the client's reader hits EOF it
        fails the futures pending *at that moment* — but a request
        issued afterwards used to park a fresh future that no reader
        would ever resolve, hanging the whole stats op until the probe
        loop happened to reap the remote (or forever, with a long
        ``probe_interval``).  The client now latches a dead state at
        EOF and raises ``ConnectionError`` immediately.
        """

        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as service:
                server = await serve_tcp(service, port=0,
                                         shutdown=asyncio.Event())
                port = server.sockets[0].getsockname()[1]
                try:
                    # probe_interval=60: no probe round will reap the
                    # remote before stats() fans out — the exact window
                    # the hang lived in.
                    config = inproc_config(shards=1, probe_interval=60.0)
                    async with ClusterRouter(config) as router:
                        remote = await router.attach_shard(
                            f"127.0.0.1:{port}")
                        client = remote._client
                        # Drop the transport under the handle and wait
                        # for the reader to see it die.
                        client._writer.close()
                        await client._reader_task
                        with pytest.raises(ConnectionError):
                            await asyncio.wait_for(
                                remote.request({"op": "ping"}), timeout=2.0)
                        stats = await asyncio.wait_for(router.stats(),
                                                       timeout=5.0)
                        counters = router.router_counters()
                        return remote.alive, remote.name, stats, counters
                finally:
                    server.close()
                    await server.wait_closed()

        alive, remote_name, stats, counters = run(scenario())
        assert alive is False  # stats' ConnectionError marked it dead
        assert counters["shards_lost"] == 1
        assert counters["shards_alive"] == 1  # the local shard carries on


# --------------------------------------------------------------------------- #
# acceptance: SIGKILL of a remote holding a mid-stream session
# --------------------------------------------------------------------------- #
class TestRemoteFailoverEndToEnd:
    @pytest.mark.remote
    def test_three_shard_cluster_survives_sigkill_of_pinned_remote(self, tmp_path):
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        trace = stochastic_trace(n=30, m=3, seed=11)
        events = list(trace)
        cut = len(events) // 2

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache", str(tmp_path / "remote-cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        try:
            banner = proc.stderr.readline().decode()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            port = int(match.group(1))

            async def submit(router, sid, event, acked):
                request = {"op": "session_submit", "session": sid,
                           "task": task_payload(event.task)}
                if not acked:
                    request["ack"] = False
                return await router.handle(request)

            async def scenario():
                config = inproc_config(
                    shards=2, attach=f"127.0.0.1:{port}",
                    probe_interval=0.2, probe_failures=1,
                )
                async with ClusterRouter(config) as router:
                    opened = await router.handle({
                        "op": "session_open", "spec": "online_sbo(delta=1.0)",
                        "m": 3})
                    sid = opened["session"]
                    # 3 routable shards, and the session pins to the remote.
                    assert len(router.shard_names()) == 3
                    assert opened["shard"].startswith("remote-")
                    placements = []
                    # Every 4th line unacked — including the *last* one
                    # before the kill, so a windowed batch is in flight.
                    for i, event in enumerate(events[:cut]):
                        ack = await submit(router, sid, event,
                                           acked=i % 4 != 2)
                        if ack is not None:
                            placements.extend(map(tuple, ack["placements"]))

                    # The remote host dies hard, windowed batch in flight.
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait(timeout=10)

                    for i, event in enumerate(events[cut:]):
                        ack = await submit(router, sid, event,
                                           acked=i % 4 != 1)
                        if ack is not None:
                            assert ack["ok"], ack
                            assert not ack["shard"].startswith("remote-")
                            placements.extend(map(tuple, ack["placements"]))
                    result = await router.handle({"op": "session_result",
                                                  "session": sid})
                    stats = await router.stats()
                return opened, placements, result, stats

            opened, placements, result, stats = run(scenario())
        finally:
            if proc.poll() is None:  # pragma: no cover - only on test failure
                import os
                import signal

                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)

        # Bit-identical to the uninterrupted single-scheduler run: every
        # placement (including the unacked lines in flight at the kill,
        # flushed by later acks) and the final objectives.
        local = create_online("online_sbo(delta=1.0)", m=3)
        expected_placements = [(e.task.id, local.submit(e.task)) for e in events]
        expected = local.finalize()
        assert placements == expected_placements
        assert result["ok"]
        assert result["result"]["cmax"] == expected.cmax
        assert result["result"]["mmax"] == expected.mmax
        assert dict(map(tuple, result["result"]["assignment"])) \
            == expected.schedule.assignment

        # Ledgers: the crash is a replay, not a loss, and nothing leaks.
        assert stats.lost == 0
        assert stats.router["sessions_replayed"] == 1
        assert stats.router["sessions_lost"] == 0
        assert stats.router["replays_failed"] == 0
        assert stats.router["shards_attached"] == 1
        assert stats.router["shards_lost"] == 1
        assert stats.router["sessions_pinned"] == 1


# --------------------------------------------------------------------------- #
# property: a pinned-shard crash is invisible in every session response
# --------------------------------------------------------------------------- #
def _task_item(task_id, p, s, drop):
    item = {"id": task_id, "p": p, "s": s}
    if drop is not None:
        del item[drop]  # a payload missing 'p' or 's' fails parsing
    return item


_task_items = st.builds(
    _task_item,
    st.integers(0, 7),  # a small id pool, so duplicates are common
    st.sampled_from([0.5, 1, 2.0, 3, 5.5]),
    st.sampled_from([0.25, 1, 2, 4.0]),
    st.sampled_from([None] * 4 + ["p", "s"]),
)
_session_steps = st.one_of(
    st.tuples(st.just("submit"), st.booleans(),
              st.lists(_task_items, min_size=1, max_size=3)),
    st.tuples(st.just("submit_one"), st.booleans(), _task_items),
    st.tuples(st.just("session_result")),
    st.tuples(st.just("session_export")),
    st.tuples(st.just("session_handoff")),
)


def _step_request(step, sid):
    kind = step[0]
    if kind == "submit":
        request = {"op": "session_submit", "session": sid, "tasks": step[2]}
    elif kind == "submit_one":
        request = {"op": "session_submit", "session": sid, "task": step[2]}
    else:
        return {"op": kind, "session": sid}
    if not step[1]:
        request["ack"] = False
    return request


def _without_shards(response):
    """A response minus the fields that name shards (and solve timing)."""
    if response is None:
        return None
    response = {key: value for key, value in response.items()
                if key not in ("shard", "from")}
    if isinstance(response.get("result"), dict):
        response["result"] = {key: value for key, value in response["result"].items()
                              if key != "wall_time"}
    return response


async def _session_run(spec, steps, kill_before=None, reap=True):
    """Drive one session through ``steps`` on a 2-shard router.

    With ``kill_before=k`` the shard the session is pinned to is killed
    just before step ``k`` and a replacement shard joins, so a handoff
    still has a target.  ``reap`` lets the dead-shard reaper replay the
    session at once; otherwise the next session op finds the dead pin.
    """
    async with ClusterRouter(inproc_config(shards=2)) as router:
        opened = await router.handle({"op": "session_open", "spec": spec, "m": 3})
        sid = opened["session"]
        steps = steps + [("session_result",), ("session_export",), ("session_close",)]
        responses = []
        for index, step in enumerate(steps):
            if index == kill_before:
                pin = router._sessions[sid][0]
                await router.shard(pin).kill()
                await router.add_shard()
                if reap:
                    await router.reap_dead()
            responses.append(_without_shards(await router.handle(_step_request(step, sid))))
        counters = router.router_counters()
    return responses, counters


class TestCrashInvisibility:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(["online_greedy", "online_sbo(delta=1.0)"]),
        steps=st.lists(_session_steps, max_size=12),
        kill=st.data(),
        reap=st.booleans(),
    )
    def test_killing_the_pinned_shard_changes_no_response(self, spec, steps, kill, reap):
        # The three closing steps (result, export, close) are kill points too.
        kill_before = kill.draw(st.integers(0, len(steps) + 2), label="kill_before")
        if not reap and kill_before < len(steps):
            # A handoff that finds its source dead answers with the replay's
            # own fields; only the reaper path keeps that response identical.
            assume(steps[kill_before][0] != "session_handoff")
        clean, _ = run(_session_run(spec, steps))
        crashed, counters = run(_session_run(spec, steps, kill_before, reap))
        assert crashed == clean
        assert counters["sessions_replayed"] == 1
        assert counters["sessions_lost"] == 0
        assert counters["replays_failed"] == 0

    @pytest.mark.parametrize("kill_before", range(6))
    def test_acked_parse_failure_keeps_a_poisoned_window_across_a_crash(self, kill_before):
        # A shard parses an acked batch before it surfaces a poisoned window,
        # so an unparseable acked batch leaves the poison in place.  A journal
        # that cleared it there replayed a clean window, and the next acked
        # submit succeeded after a crash where it failed without one.
        steps = [
            ("submit_one", False, {"id": 2, "s": 1}),
            ("submit_one", True, {"id": 3, "s": 1}),
            ("submit_one", True, {"id": 4, "p": 1, "s": 1}),
        ]
        clean, _ = run(_session_run("online_greedy", steps))
        crashed, counters = run(_session_run("online_greedy", steps, kill_before))
        assert "unacknowledged submission failed" in clean[2]["error"]["message"]
        assert crashed == clean
        assert counters["sessions_replayed"] == 1

    def test_a_response_the_shadow_disagrees_with_disables_replay(self):
        # A backend answer the journal's shadow does not reproduce means the
        # shadow is not the backend's session: a crash must lose the session
        # rather than replay a wrong one.
        async def scenario():
            async with ClusterRouter(inproc_config(shards=2)) as router:
                opened = await router.handle({"op": "session_open",
                                              "spec": "online_greedy", "m": 2})
                sid, pin = opened["session"], opened["shard"]
                shard = router.shard(pin)
                real_request = shard.request

                async def tampered(payload):
                    response = await real_request(payload)
                    if payload.get("op") == "session_submit":
                        response = {**response, "placements": [[0, 1]]}
                    return response

                shard.request = tampered
                with CapturedEvents() as events:
                    ack = await router.handle({
                        "op": "session_submit", "session": sid,
                        "task": {"id": 0, "p": 1.0, "s": 1.0}})
                await shard.kill()
                after = await router.handle({
                    "op": "session_submit", "session": sid,
                    "task": {"id": 1, "p": 1.0, "s": 1.0}})
                counters = router.router_counters()
            return sid, ack, events.of("session_diverged"), after, counters

        sid, ack, diverged, after, counters = run(scenario())
        assert ack["ok"] and ack["placements"] == [[0, 1]]
        assert [event["session"] for event in diverged] == [sid]
        assert after["error"]["code"] == "session_lost"
        assert counters["sessions_replayed"] == 0
        assert counters["replays_failed"] == 1
        assert counters["sessions_lost"] == 1
