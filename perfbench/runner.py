"""One benchmark run: launches, measured phases, checks and metrics."""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from loadgen import Connection, PhaseResult, Sent
from layers import Recorder, kernel_probe, replay, replay_one, service_hits
from servers import Server, peak_rss_mb
from workloads import SPECS, Streams, Workload

from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.service.protocol import (
    decode_message,
    encode_message,
    instance_from_payload,
    result_to_payload,
)
from repro.solvers import solve
from repro.solvers.cache import DiskCache

#: Server launches per untraced run.  Every launch runs the same rounds;
#: the timing figures take each round from one launch (``Bench.measured``).
LAUNCHES = 2
#: Alternating closed/open segment pairs per launch.
ROUNDS = 4
#: Extra spawn-to-ping measurements per untraced run, on top of the
#: launches, so the ``setup_s`` median rests on five samples.
EXTRA_SETUPS = 3
WARMUP_BLOCKS = 1
#: Depth-1 TCP warm hits timed in the traced run.
SERIAL_HITS = 100
#: Distinct instances each solver family solves in the traced run's kernel probe.
KERNEL_PROBES = 3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _strip(result: Dict[str, object]) -> Dict[str, object]:
    """A result payload without the fields allowed to differ."""
    out = {k: v for k, v in result.items() if k != "wall_time"}
    provenance = out.get("provenance")
    if isinstance(provenance, dict):
        out["provenance"] = {k: v for k, v in provenance.items() if k != "cache"}
    return out


@dataclass
class Launch:
    index: int
    server: Server
    phases: List[PhaseResult] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    rss_mb: float = 0.0
    survivors: List[int] = field(default_factory=list)
    transport_error: str = ""

    @property
    def setup_s(self) -> float:
        return self.server.setup_s

    def of(self, name: str) -> List[PhaseResult]:
        return [p for p in self.phases if p.phase == name]

    def sends(self, name: str) -> List[Sent]:
        return [x for p in self.of(name) for x in p.sends]


class Bench:
    def __init__(self, workload: Workload, seed: int, root: Path, workdir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.streams = Streams(workload, seed)
        self.notes: List[str] = []
        self.orphans = 0
        self.setups: List[float] = []
        #: Servers started and not yet stopped, for cleanup on a signal.
        self.live: List[Server] = []
        #: Per-layer metrics the traced run took from a probe (see layers.py).
        self.probed: List[str] = []

    # ------------------------------------------------------------------ #
    # inputs, prepared before the clock
    # ------------------------------------------------------------------ #
    def body(self, pid: int) -> bytes:
        pair = self.streams.pairs[pid]
        if not pair.body:
            pair.body = encode_message(
                {"op": "solve", "instance": pair.instance, "spec": pair.spec})[1:]
        return pair.body

    def expected(self, pid: int) -> Dict[str, object]:
        """The direct ``solve()`` payload, in its wire round-trip form."""
        pair = self.streams.pairs[pid]
        if pair.expected is None:
            instance = instance_from_payload(pair.instance)
            result = solve(instance, pair.spec, cache=False)
            pair.expected = _strip(decode_message(encode_message(result_to_payload(result))))
            pair.cmax_lb = cmax_lower_bound(instance)
            pair.mmax_lb = mmax_lower_bound(instance)
        return pair.expected

    def prepare(self, closed_s: float, open_s: float, rounds: int) -> None:
        """Encode every request line before the clock.

        ``closed_s`` and ``open_s`` are the seconds of one round's closed
        and open segment; a launch runs ``rounds`` of each, alternating.
        A closed segment issues at most ``closed_limit`` requests, so its
        whole stream is encoded here.  Expected payloads are computed here
        for every pair known to be sent; a closed segment's pairs beyond
        the quality set get theirs after the clock, only if they were sent.
        """
        w, s = self.w, self.streams
        self.schedules = [s.open_schedule(r, open_s) for r in range(rounds)]
        n_open = sum(map(len, self.schedules))
        self.closed_limit = math.ceil(closed_s * w.closed_cap / w.block_len) * w.block_len
        pids = set(s.warm_ids) | set(s.quality_ids())
        for stream, count in (("warmup", WARMUP_BLOCKS * w.block_len), ("open", n_open)):
            pids.update(s.at(stream, k) for k in range(count))
        for pid in sorted(pids):
            self.expected(pid)
        for pid in pids.union(s.at("closed", k) for k in range(rounds * self.closed_limit)):
            self.body(pid)

    # ------------------------------------------------------------------ #
    # one server launch
    # ------------------------------------------------------------------ #
    async def launch(self, index: int, closed_s: float, serial: bool = False) -> Launch:
        w = self.w
        home = self.workdir / f"launch-{index}"
        server = Server(w.server, self.root, home, home / "cache")
        launch = Launch(index, server)
        self.live.append(server)
        try:
            server.start()
            conn = await Connection(self.body).open(server.port)
            try:
                await self._drive(launch, conn, closed_s, serial)
                launch.stats = server.stats()
                launch.rss_mb = peak_rss_mb(server.tree())
            except ConnectionError as exc:
                launch.transport_error = str(exc)
            finally:
                await conn.close()
            if conn.stray:
                launch.transport_error = (f"{len(conn.stray)} responses matched no "
                                          f"request, e.g. {conn.stray[0][:120]!r}")
        finally:
            launch.survivors = server.stop()
            self.live.remove(server)
        if launch.survivors:
            self.notes.append(f"launch {index}: {len(launch.survivors)} server "
                              f"processes outlived shutdown and were killed")
        return launch

    def setup_only(self, index: int) -> float:
        """Spawn a server on a fresh cache, time it to its first ping, stop it."""
        home = self.workdir / f"setup-{index}"
        server = Server(self.w.server, self.root, home, home / "cache")
        self.live.append(server)
        try:
            server.start()
        finally:
            survivors = server.stop()
            self.live.remove(server)
        if survivors:
            self.notes.append(f"setup spawn {index}: {len(survivors)} server "
                              f"processes outlived shutdown and were killed")
            self.orphans += len(survivors)
        return server.setup_s

    async def _drive(self, launch: Launch, conn: Connection, closed_s: float,
                     serial: bool) -> None:
        w, s, phases = self.w, self.streams, launch.phases
        if s.warm_ids:
            warm = s.warm_ids
            phases.append(await conn.closed_loop(
                lambda k: warm[k], "prefill", w.window, math.inf,
                len(warm), limit=len(warm)))
        phases.append(await conn.closed_loop(
            lambda k: s.at("warmup", k), "warmup", w.window, math.inf,
            w.block_len, limit=WARMUP_BLOCKS * w.block_len))
        closed_base = open_base = 0
        for offsets in self.schedules:
            # Alternating segments spread both measurements over the
            # launch, so a burst of host noise hits both alike.
            base = closed_base
            phases.append(await conn.closed_loop(
                lambda k: s.at("closed", base + k), "closed", w.window,
                closed_s, w.block_len, limit=self.closed_limit))
            closed_base += len(phases[-1].sends)
            if closed_base - base >= self.closed_limit:
                self.notes.append(
                    f"launch {launch.index}: a closed segment used all {self.closed_limit} "
                    f"prepared requests before its {closed_s:.2f} s; raise closed_cap "
                    f"of {w.name} so throughput_rps is not capped")
            phases.append(await conn.open_loop(
                [s.at("open", open_base + k) for k in range(len(offsets))], offsets, "open"))
            open_base += len(offsets)
        if serial:
            seen = list(dict.fromkeys(x.pid for p in launch.of("closed") for x in p.sends))
            phases.append(await conn.serial(seen[:SERIAL_HITS], "serial"))

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def verify(self, launches: Sequence[Launch]) -> Tuple[int, int]:
        """Check every response against the direct solve: (attempted, failed)."""
        attempted = failed = 0
        for launch in launches:
            for phase in launch.phases:
                for sent in phase.sends:
                    attempted += 1
                    reason = self._check(sent)
                    if reason:
                        failed += 1
                        if failed <= 5:
                            self.notes.append(f"request {sent.rid} ({phase.phase}, "
                                              f"pair {sent.pid}): {reason}")
        return attempted, failed

    def _check(self, sent: Sent) -> str:
        if not sent.raw:
            return "no response (transport failure)"
        response = decode_message(sent.raw)
        if not response.get("ok"):
            return f"error response {response.get('error')}"
        if _strip(response["result"]) != self.expected(sent.pid):
            return "response differs from the direct solve"
        return ""

    def ledger_lost(self, launches: Sequence[Launch]) -> Tuple[int, int]:
        """(service lost, router lost) summed over launches."""
        service = router = 0
        for launch in launches:
            stats = launch.stats
            body = stats.get("totals", stats) if stats.get("cluster") else stats
            service += int(body.get("lost", 0) or 0)
            router += int((stats.get("router") or {}).get("lost", 0) or 0)
        return service, router

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def _ok(self, sent: Sent) -> bool:
        return bool(sent.raw) and b'"ok":true' in sent.raw[:40]

    def measured(self, launches: Sequence[Launch], name: str) -> List[PhaseResult]:
        """Each round's ``name`` segment, from the launch it ran quieter in.

        Every launch runs the same rounds: the same request streams and
        arrival schedules.  CPU the hypervisor takes from this VM slows
        whatever runs then, by far more than its share, so each round is
        taken from the launch with the least host CPU steal measured over
        that segment (never by the figure itself).  The figures therefore
        always cover the same requests and arrivals, once each.
        """
        rounds = zip(*(launch.of(name) for launch in launches))
        return [min(copies, key=lambda p: p.steal) for copies in rounds]

    def quality(self) -> Tuple[float, float]:
        pairs = [self.streams.pairs[pid] for pid in self.streams.quality_ids()]
        for pair in pairs:
            self.expected(pair.pid)
        return (geomean([p.expected["cmax"] / p.cmax_lb for p in pairs]),
                geomean([p.expected["mmax"] / p.mmax_lb for p in pairs]))

    def end_to_end(self, launches: Sequence[Launch], attempted: int, failed: int) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics, each timing pooled over measured segments.

        Throughput is the successful responses of the measured closed-loop
        segments over their seconds; the latency percentiles are taken over
        the samples of the measured open-loop segments together, each timed
        from its scheduled send.
        """
        pooled = [(x.done - x.due) * 1e3 for p in self.measured(launches, "open")
                  for x in p.sends if self._ok(x)]
        if not pooled:
            raise RuntimeError("no open-loop request succeeded; nothing to measure")
        closed = self.measured(launches, "closed")
        self.tail_pct = self.w.tail_pct
        self.latency_samples = len(pooled)
        beyond = len(pooled) - math.ceil(self.tail_pct / 100.0 * len(pooled))
        if beyond < 10:
            self.notes.append(f"only {beyond} samples beyond p{self.tail_pct:g}: "
                              f"latency_tail_ms is not a valid tail at this run length")
        cmax, mmax = self.quality()
        return {
            "throughput_rps": (sum(sum(map(self._ok, p.sends)) for p in closed)
                               / sum(p.wall_s for p in closed), "req/s"),
            "latency_p50_ms": (percentile(pooled, 50.0), "ms"),
            "latency_tail_ms": (percentile(pooled, self.tail_pct), "ms"),
            "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
            "setup_s": (statistics.median([x.setup_s for x in launches] + self.setups), "s"),
            "server_rss_mb": (statistics.median(x.rss_mb for x in launches), "MB"),
            "cmax_over_lb": (cmax, "ratio"),
            "mmax_over_lb": (mmax, "ratio"),
        }

    def loadgen_lag_p99_ms(self, launches: Sequence[Launch]) -> float:
        lags = [(x.sent - x.due) * 1e3 for launch in launches for x in launch.sends("open")]
        return percentile(lags, 99.0) if lags else 0.0

    def per_layer(self, launch: Launch, replay_info: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
        measured = launch.of("closed") + launch.of("open")
        sends = [x for phase in measured for x in phase.sends]
        # Kernel wall per family comes from every miss of the launch (a
        # warm set's pre-fill included); busy share from measured ones.
        kernel: Dict[str, List[float]] = {}
        busy = 0.0
        for phase in launch.phases:
            for sent in phase.sends:
                if not self._ok(sent):
                    continue
                result = decode_message(sent.raw)["result"]
                if result["provenance"].get("cache") == "miss":
                    kernel.setdefault(result["solver"], []).append(result["wall_time"])
                    if any(phase is m for m in measured):
                        busy += result["wall_time"]
        workers = 2 if self.w.server == "cluster" else 1
        wall = sum(p.wall_s for p in measured)
        stats = launch.stats
        body = stats.get("totals", {}) if stats.get("cluster") else stats
        phases = stats.get("phases") or {}
        queue_wait = _weighted_p50_ms(phases.get("queue_wait") or {})
        exec_ms = _weighted_p50_ms(phases.get("exec") or {})
        hits, misses = int(body.get("cache_hits", 0)), int(body.get("cache_misses", 0))
        router = stats.get("router") or {}
        r_hits = int(router.get("router_cache_hits", 0))
        r_misses = int(router.get("router_cache_misses", 0))
        shard_done = [int(v.get("completed", 0)) for v in (stats.get("shards") or {}).values()]
        serial = launch.sends("serial")
        serial_us = statistics.median(x.done - x.sent for x in serial) * 1e6 if serial else 0.0
        hit_us = float(replay_info.get("service_hit_us", 0.0))
        out: Dict[str, Tuple[float, str]] = {
            "loadgen.lag_p99_ms": (self.loadgen_lag_p99_ms([launch]), "ms"),
            "loadgen.cpu_s": (sum(p.cpu_s for p in measured), "s"),
            "wire.request_kb": (statistics.median(x.nbytes for x in sends) / 1024, "kB"),
            "wire.response_kb": (statistics.median(len(x.raw) for x in sends if x.raw) / 1024, "kB"),
        }
        out.update(replay_info["layers"])
        for family in SPECS:
            values = kernel.get(family)
            if not values:
                values = replay_info["kernel_probe"][family]
                self.probed.append(f"kernel.ms.{family}")
            out[f"kernel.ms.{family}"] = (statistics.median(values) * 1e3, "ms")
        out.update({
            "kernel.busy_share": (busy / (workers * wall) if wall else 0.0, "ratio"),
            "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "service.hit_us": (hit_us, "us"),
            "service.queue_wait_ms": (queue_wait, "ms"),
            "service.exec_ms": (exec_ms, "ms"),
            "service.dispatch_ms": (_dispatch_ms(phases.get("exec") or {}, kernel), "ms"),
            "service.pool_jobs": (float(_phase_count(phases.get("exec") or {})), "count"),
            "service.coalesced": (float(body.get("coalesced", 0)), "count"),
            "service.lost": (float(body.get("lost", 0)), "count"),
            "transport.serial_hit_us": (serial_us, "us"),
            "transport.tcp_over_inproc": (serial_us / hit_us if hit_us else 0.0, "ratio"),
            "router.cache_hit_ratio": (r_hits / (r_hits + r_misses) if r_hits + r_misses else 0.0, "ratio"),
            "router.routed": (float(router.get("routed", 0)), "count"),
            "router.retried": (float(router.get("retried", 0)), "count"),
            "router.lost": (float(router.get("lost", 0)), "count"),
            "router.shard_skew": (max(shard_done) / statistics.mean(shard_done)
                                  if shard_done and sum(shard_done) else 0.0, "ratio"),
        })
        return out

    # ------------------------------------------------------------------ #
    # the traced in-process replay
    # ------------------------------------------------------------------ #
    async def traced_replay(self, launch: Launch, budget_s: float) -> Dict[str, object]:
        s = self.streams
        routed = self.w.server == "cluster"
        warm_cache = self.workdir / "replay-warm"
        # Pre-fill with the warm set only, as the server's cache was; its
        # puts are the probe for cache.put when the replay below only hits.
        fill = Recorder(True)
        replay([self.body_line(pid) for pid in s.warm_ids], DiskCache(warm_cache),
               fill, routed=False)
        open_pids = [x.pid for x in launch.sends("open")]
        lines, started = [], time.perf_counter()
        untraced_dir = self.workdir / "replay-untraced"
        shutil.copytree(warm_cache, untraced_dir)
        untraced: List[float] = []
        cache = DiskCache(untraced_dir)
        for pid in open_pids:
            lines.append(self.body_line(pid))
            untraced.append(replay_one(lines[-1], len(lines), cache, Recorder(False), routed))
            if time.perf_counter() - started > budget_s:
                break
        traced_dir = self.workdir / "replay-traced"
        shutil.copytree(warm_cache, traced_dir)
        self.recorder = Recorder(True)
        traced = replay(lines, DiskCache(traced_dir), self.recorder, routed)
        # Probes: the same lines again, routed, on the cache the traced pass
        # left behind (so every get hits), and each solver family's kernel
        # on a few of their instances.
        again = Recorder(True)
        replay(lines, DiskCache(traced_dir), again, routed=True)
        kernels = kernel_probe(list(dict.fromkeys(lines))[:KERNEL_PROBES], SPECS)

        hit_pids = [x.pid for x in launch.sends("serial")]
        requests = [{"instance": s.pairs[pid].instance, "spec": s.pairs[pid].spec}
                    for pid in hit_pids]
        hits = await service_hits(requests, launch.server.cache_dir) if requests else []

        self_times = self.recorder.self_times()
        gets = [sp for sp in self.recorder.spans if sp.name == "cache.get" and sp.hit]
        hit_parents = {sp.parent for sp in gets}
        hit_paths = [sp.duration for sp in self.recorder.spans if sp.sid in hit_parents]
        # Own figures first; a probe fills a layer the traced pass never
        # called.  cache.get counts hits only.
        sources = [{**rec.self_times(),
                    "cache.get": [sp.duration for sp in rec.spans if sp.name == "cache.get" and sp.hit]}
                   for rec in (self.recorder, fill, again)]

        def us(name: str) -> Tuple[float, str]:
            for k, source in enumerate(sources):
                if source.get(name):
                    if k:
                        self.probed.append(name)
                    return (statistics.median(source[name]) * 1e6, "us")
            raise RuntimeError(f"no {name} span was recorded")

        layers = {
            "wire.decode_us": us("wire.decode"),
            "wire.rebuild_us": us("wire.rebuild"),
            "wire.result_payload_us": us("wire.result_payload"),
            "wire.encode_us": us("wire.encode"),
            "facade.prepare_us": us("facade.prepare"),
            "facade.hash_us": us("facade.hash"),
            "cache.get_us": us("cache.get"),
            "cache.put_us": us("cache.put"),
            "router.key_us": us("router.key"),
            "router.rank_us": us("router.rank"),
            # Both replays ran the same lines on identical caches, so the
            # per-request differences pair up.
            "trace.overhead_us": (statistics.median(
                a - b for a, b in zip(traced, untraced)) * 1e6, "us"),
        }
        return {
            "layers": layers,
            "kernel_probe": kernels,
            "service_hit_us": statistics.median(hits) * 1e6 if hits else 0.0,
            "hit_path_us": statistics.median(hit_paths) * 1e6 if hit_paths else 0.0,
            "self_times": self_times,
            "replayed": len(lines),
            "untraced_us": statistics.median(untraced) * 1e6,
            "traced_us": statistics.median(traced) * 1e6,
        }

    def body_line(self, pid: int) -> bytes:
        return b'{"id":0,' + self.body(pid)


def _weighted_p50_ms(families: Dict[str, Dict[str, object]]) -> float:
    """Count-weighted mean of per-family p50s (stats report seconds)."""
    total = weight = 0.0
    for snap in families.values():
        count, p50 = snap.get("count") or 0, snap.get("p50")
        if count and isinstance(p50, (int, float)):
            total += count * p50
            weight += count
    return total / weight * 1e3 if weight else 0.0


def _dispatch_ms(exec_phase: Dict[str, Dict[str, object]],
                 kernel: Dict[str, List[float]]) -> float:
    """Pool exec p50 minus kernel wall p50, per family, count-weighted.

    What a pool job costs beyond its kernel: the round trip, pickling
    the request and the result, and the worker's own overhead.
    """
    total = weight = 0.0
    for family, snap in exec_phase.items():
        count, p50 = snap.get("count") or 0, snap.get("p50")
        if count and isinstance(p50, (int, float)) and kernel.get(family):
            total += count * (p50 - statistics.median(kernel[family]))
            weight += count
    return max(total / weight * 1e3, 0.0) if weight else 0.0


def _phase_count(families: Dict[str, Dict[str, object]]) -> int:
    return sum(int(snap.get("count") or 0) for snap in families.values())
