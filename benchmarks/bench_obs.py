"""Observability overhead benchmark: the disabled default must be free.

The `repro.obs` layer threads tracing and profiling guards through the
service hot path; the service's latency histograms always record (they
are its only latency record).  This benchmark pins the contract that
optional instrumentation is **zero-cost when disabled** and cheap when
enabled:

1. **Disabled floor** — the warm-path throughput of a cached service
   (the same access pattern as ``bench_service.py``) with tracing and
   profiling off, and the latency histograms recording as always, must
   still clear the service benchmark's warm floor
   (:data:`bench_service.MIN_WARM_RPS`): shipping the guards does not
   move the serving floors.
2. **Guard cost ≤ 2 %** — the measured per-call cost of a disabled
   guard (an ``enabled`` attribute check on the recorder / profiler —
   the only thing the hot path executes when they are off), multiplied
   by a deliberately pessimistic per-request site count, must stay
   under :data:`MAX_DISABLED_OVERHEAD` of the measured warm request
   time.  The disabled ``ProfileScope`` enter/exit cost is reported
   alongside for reference.
3. **Enabled overhead bounded** — with tracing on, warm throughput
   stays within :data:`MAX_ENABLED_OVERHEAD` of the disabled passes
   (interleaved off/on/off/on, best-of-each, so machine noise hits both
   sides).
4. **Span-ring throughput** — raw ``SpanRecorder.record`` sustains at
   least :data:`MIN_RING_RPS` spans/s (the ring must never be the
   bottleneck of a traced service).

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_obs.py``,
``--smoke`` for the CI-sized profile) or under pytest.  Standalone runs
write the machine-readable summary to ``benchmarks/BENCH_obs.json``
(``--json PATH`` overrides).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import time
from pathlib import Path

from repro.obs.profile import PROFILER, ProfileScope, disable_profiling
from repro.obs.trace import RECORDER, SpanRecorder, disable_tracing, enable_tracing
from repro.service import ServiceConfig, SolverService
from repro.solvers import LRUCache

from bench_service import MIN_WARM_RPS, build_requests, run_pass

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_obs.json"

TOTAL_REQUESTS = 200
SMOKE_REQUESTS = 80

#: Disabled-guard budget: the summed per-request cost of every disabled
#: observability check must stay under 2 % of the warm request time.
MAX_DISABLED_OVERHEAD = 0.02

#: Pessimistic count of disabled ``enabled``-attribute checks one warm
#: request crosses (recorder, profiler, slow-request guards;
#: the real path has fewer — the facade and service skip scope/span
#: construction entirely when the flags are off).
GUARD_SITES_PER_REQUEST = 16

#: Enabled tracing may cost at most this fraction of warm throughput
#: (span records are dict-append-under-lock).  Generous for noisy CI
#: boxes.
MAX_ENABLED_OVERHEAD = 0.50

#: Raw span-ring floor: a traced service recording a handful of spans
#: per request must never bottleneck on the ring itself.
MIN_RING_RPS = 150_000.0


def _all_disabled() -> None:
    disable_tracing(clear=True)
    disable_profiling(reset=True)


def measure_guard_ns(iterations: int = 200_000) -> dict:
    """Per-call cost (ns) of each disabled guard primitive."""
    _all_disabled()

    start = time.perf_counter()
    for _ in range(iterations):
        with ProfileScope("bench", "kernel"):
            pass
    scope_ns = (time.perf_counter() - start) / iterations * 1e9

    recorder = RECORDER
    start = time.perf_counter()
    hits = 0
    for _ in range(iterations):
        if recorder.enabled:
            hits += 1
        if PROFILER.enabled:
            hits += 1
    check_ns = (time.perf_counter() - start) / (2 * iterations) * 1e9
    assert hits == 0
    return {"profile_scope_ns": scope_ns, "enabled_check_ns": check_ns}


def measure_ring_rps(spans: int = 200_000) -> float:
    """Raw ``SpanRecorder.record`` throughput (spans/s) on a private ring."""
    ring = SpanRecorder(capacity=4096)
    ring.enabled = True
    start = time.perf_counter()
    for _ in range(spans):
        ring.record("kernel", "service", "bench-trace", "spanspan",
                    "parentid", 0.0, 0.001, family="lpt")
    elapsed = time.perf_counter() - start
    assert len(ring) == ring.capacity  # bounded, as advertised
    return spans / elapsed


async def _warm_service_pass(requests, instances, enabled: bool) -> float:
    """One fully-warm pass; returns requests/s.  Restores disabled state."""
    if enabled:
        enable_tracing(capacity=SpanRecorder.DEFAULT_CAPACITY)
    else:
        _all_disabled()
    try:
        config = ServiceConfig(
            workers=2, max_pending=64, backpressure="wait",
            cache=LRUCache(maxsize=4096),
        )
        async with SolverService(config) as svc:
            await run_pass(svc, requests, instances)          # fill the cache
            _, counts, elapsed = await run_pass(svc, requests, instances)
        assert sum(counts) == len(requests)
        return len(requests) / elapsed
    finally:
        _all_disabled()


def run_obs_benchmark(total_requests: int = TOTAL_REQUESTS) -> dict:
    requests, instances = build_requests(total_requests)

    async def scenario():
        # Interleave off/on passes so drift (thermal, co-tenants) lands on
        # both sides; keep the best of each.
        off_a = await _warm_service_pass(requests, instances, enabled=False)
        on_a = await _warm_service_pass(requests, instances, enabled=True)
        off_b = await _warm_service_pass(requests, instances, enabled=False)
        on_b = await _warm_service_pass(requests, instances, enabled=True)
        return max(off_a, off_b), max(on_a, on_b)

    off_rps, on_rps = asyncio.run(scenario())
    guards = measure_guard_ns()
    ring_rps = measure_ring_rps()

    request_ns = 1e9 / off_rps
    guard_budget_ns = GUARD_SITES_PER_REQUEST * guards["enabled_check_ns"]
    disabled_overhead = guard_budget_ns / request_ns
    enabled_overhead = max(0.0, 1.0 - on_rps / off_rps)

    return {
        "benchmark": "obs",
        "requests": total_requests,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "warm_rps_disabled": off_rps,
        "warm_rps_enabled": on_rps,
        "enabled_overhead": enabled_overhead,
        "disabled_overhead_bound": disabled_overhead,
        "guard_sites_assumed": GUARD_SITES_PER_REQUEST,
        "profile_scope_ns": guards["profile_scope_ns"],
        "enabled_check_ns": guards["enabled_check_ns"],
        "ring_rps": ring_rps,
    }


def _print_report(report: dict) -> None:
    print(f"warm pass, obs disabled : {report['warm_rps_disabled']:10.1f} req/s")
    print(f"warm pass, obs enabled  : {report['warm_rps_enabled']:10.1f} req/s "
          f"({report['enabled_overhead'] * 100:.1f}% overhead)")
    print(f"disabled guard bound    : {report['disabled_overhead_bound'] * 100:10.3f} % "
          f"({report['guard_sites_assumed']} sites x "
          f"{report['enabled_check_ns']:.1f} ns/check; "
          f"idle ProfileScope {report['profile_scope_ns']:.0f} ns)")
    print(f"span ring               : {report['ring_rps']:10.0f} spans/s")


def _assert_criteria(report: dict) -> None:
    assert report["warm_rps_disabled"] >= MIN_WARM_RPS, (
        f"disabled warm pass only {report['warm_rps_disabled']:.0f} req/s — "
        f"the obs guards moved the service floor (>= {MIN_WARM_RPS:.0f} required)"
    )
    assert report["disabled_overhead_bound"] <= MAX_DISABLED_OVERHEAD, (
        f"disabled guards cost {report['disabled_overhead_bound'] * 100:.2f}% "
        f"of a warm request (budget {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
    assert report["enabled_overhead"] <= MAX_ENABLED_OVERHEAD, (
        f"tracing cost {report['enabled_overhead'] * 100:.1f}% of warm "
        f"throughput (budget {MAX_ENABLED_OVERHEAD * 100:.0f}%)"
    )
    assert report["ring_rps"] >= MIN_RING_RPS, (
        f"span ring only {report['ring_rps']:.0f} spans/s "
        f"(floor {MIN_RING_RPS:.0f})"
    )


def test_bench_obs():
    report = run_obs_benchmark(total_requests=SMOKE_REQUESTS)
    print()
    _print_report(report)
    _assert_criteria(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer requests, same criteria)")
    parser.add_argument("--json", default=str(DEFAULT_JSON), metavar="PATH",
                        help="write the machine-readable summary here ('-' disables)")
    args = parser.parse_args()
    report = run_obs_benchmark(
        total_requests=SMOKE_REQUESTS if args.smoke else TOTAL_REQUESTS
    )
    _print_report(report)
    _assert_criteria(report)
    if args.json != "-":
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {args.json}")
    print("acceptance criteria (service floor with guards disabled, "
          f"<= {MAX_DISABLED_OVERHEAD * 100:.0f}% disabled guard cost, "
          f"<= {MAX_ENABLED_OVERHEAD * 100:.0f}% enabled overhead, "
          f">= {MIN_RING_RPS:.0f} spans/s ring): PASS")
