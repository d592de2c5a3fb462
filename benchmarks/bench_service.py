"""Service benchmark: 32 concurrent clients over a 200-request workload.

Drives a live :class:`~repro.service.SolverService` with a mixed-spec
request stream fanned out over 32 async clients:

1. one **cold** pass against an empty read-through cache (duplicate
   requests coalesce; each spec's first misses compute in the worker
   pool, and later misses whose learned kernel cost is under the
   service's inline budget are solved on its event loop), then
2. :data:`WARM_PASSES` **warm** passes replaying the same 200 requests
   (served entirely from the cache).  The warm time is their median: a
   single warm pass of 200 cache hits takes ~10-16 ms and swings by half
   from run to run on a shared host, which a ratio against one pass
   would report as the service's speed.

Asserts the acceptance criteria: **zero lost requests** (every client
receives exactly one response per request and the service ledger
balances), every response **bit-identical to a direct ``solve()``** on
the same (instance, spec) pair, median warm throughput at least
:data:`MIN_SPEEDUP` x cold, and the absolute :data:`MIN_WARM_RPS` /
:data:`MIN_COLD_RPS` floors.  Runnable standalone
(``PYTHONPATH=src python benchmarks/bench_service.py``, ``--smoke`` for
the CI-sized profile) or under pytest.  Standalone runs write the machine-readable summary to
``benchmarks/BENCH_service.json`` (``--json PATH`` overrides) so the
perf trajectory is tracked across PRs instead of only asserted as a
floor.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.service import ServiceConfig, SolverService
from repro.solvers import LRUCache, solve
from repro.workloads.independent import workload_suite

DEFAULT_JSON = Path(__file__).resolve().parent / "BENCH_service.json"

CLIENTS = 32
TOTAL_REQUESTS = 200
SMOKE_REQUESTS = 100
#: Warm passes after the cold one; the warm time is their median.
WARM_PASSES = 5

#: Warm-path floors, raised after the kernel fast-path PR (heap-based
#: placement kernels, memoized content hashes, batched cache lookups):
#: the warm pass previously recorded ~9.1k req/s at 7.9x; it now runs
#: ~12-21k req/s at 9-14x on the same reference box.  The cold floor is
#: deliberately slack — the cold pass holds the worker pool's startup and
#: first jobs, which the service must run there to learn each spec's
#: kernel cost, plus raw solve compute; both are noisy across machines.
#: Solving cheap misses inline makes the cold pass faster and so lowers
#: the warm/cold ratio, which still clears ``MIN_SPEEDUP``.
MIN_SPEEDUP = 8.0
MIN_WARM_RPS = 9500.0
MIN_COLD_RPS = 700.0

#: Mixed paper-style specs: cheap single-objective runs next to heavier
#: bi-objective sweeps, so the stream is realistically lumpy.
SPECS = [
    "lpt",
    "multifit",
    "sbo(delta=0.5)",
    "sbo(delta=1.0)",
    "sbo(delta=2.0, inner=multifit)",
    "rls(delta=2.5)",
    "trio(delta=2.5)",
    "pareto_approx(epsilon=0.5)",
]


def build_requests(total: int = TOTAL_REQUESTS):
    """A deterministic mixed workload with natural repeats."""
    instances = list(workload_suite(60, 4, seed=0).values()) + \
        list(workload_suite(40, 3, seed=1).values())
    return [
        (i % len(instances), SPECS[(i * 3) % len(SPECS)])
        for i in range(total)
    ], instances


async def run_pass(svc: SolverService, requests, instances):
    """Fan the request list out over CLIENTS concurrent clients."""
    responses: dict = {}

    async def client(client_id: int):
        count = 0
        for req_idx in range(client_id, len(requests), CLIENTS):
            inst_idx, spec = requests[req_idx]
            result = await svc.solve(instances[inst_idx], spec)
            responses[req_idx] = result
            count += 1
        return count

    start = time.perf_counter()
    counts = await asyncio.gather(*(client(c) for c in range(CLIENTS)))
    elapsed = time.perf_counter() - start
    return responses, counts, elapsed


def run_service_benchmark(total_requests: int = TOTAL_REQUESTS) -> dict:
    requests, instances = build_requests(total_requests)

    # Ground truth: one direct solve per unique (instance, spec) pair.
    truth = {
        pair: solve(instances[pair[0]], pair[1], cache=False)
        for pair in sorted(set(requests))
    }

    async def scenario() -> dict:
        config = ServiceConfig(
            workers=4, max_pending=64, backpressure="wait", cache=LRUCache(maxsize=4096)
        )
        async with SolverService(config) as svc:
            passes = {"cold": await run_pass(svc, requests, instances)}
            for k in range(1, WARM_PASSES + 1):
                passes[f"warm {k}"] = await run_pass(svc, requests, instances)
            return passes, svc.stats()

    passes, stats = asyncio.run(scenario())

    for label, (responses, counts, _) in passes.items():
        # Zero lost requests: every request slot answered exactly once.
        assert sum(counts) == total_requests, f"{label}: lost requests"
        assert sorted(responses) == list(range(total_requests)), f"{label}: missing responses"
        # Bit-identical to direct solve().
        for req_idx, result in responses.items():
            direct = truth[requests[req_idx]]
            assert result.objectives == direct.objectives, f"{label}: objectives diverged"
            assert result.guarantee == direct.guarantee
            assert result.spec == direct.spec
            assert result.schedule.assignment == direct.schedule.assignment

    assert stats.lost == 0, f"service ledger does not balance: {stats}"
    assert stats.submitted == (1 + WARM_PASSES) * total_requests

    cold_s = passes["cold"][2]
    warm_passes_s = [seconds for label, (_, _, seconds) in passes.items() if label != "cold"]
    warm_s = statistics.median(warm_passes_s)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "benchmark": "service",
        "requests": total_requests,
        "clients": CLIENTS,
        "unique_jobs": len(truth),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_passes_s": warm_passes_s,
        "speedup": speedup,
        "cold_rps": total_requests / cold_s,
        "warm_rps": total_requests / warm_s,
        "stats": stats.to_dict(),
    }


def _print_report(report: dict) -> None:
    stats = report["stats"]
    print(f"clients              : {report['clients']}")
    print(f"requests per pass    : {report['requests']} ({report['unique_jobs']} unique jobs)")
    print(f"cold pass            : {report['cold_s'] * 1e3:8.1f} ms ({report['cold_rps']:8.1f} req/s)")
    for k, seconds in enumerate(report["warm_passes_s"], 1):
        print(f"warm pass {k}          : {seconds * 1e3:8.1f} ms "
              f"({report['requests'] / seconds:8.1f} req/s)")
    print(f"warm median          : {report['warm_s'] * 1e3:8.1f} ms ({report['warm_rps']:8.1f} req/s)")
    print(f"warm speedup         : {report['speedup']:8.1f}x")
    print(f"cache hits / misses  : {stats['cache_hits']} / {stats['cache_misses']}")
    print(f"coalesced            : {stats['coalesced']}")
    print(f"completed (unique)   : {stats['completed']} ({stats['inline']} inline)")
    print(f"lost                 : {stats['lost']}")


def _assert_criteria(report: dict) -> None:
    assert report["stats"]["lost"] == 0
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"median warm pass only {report['speedup']:.1f}x faster than cold "
        f"(acceptance criterion is >= {MIN_SPEEDUP}x)"
    )
    assert report["warm_rps"] >= MIN_WARM_RPS, (
        f"median warm pass only {report['warm_rps']:.0f} req/s "
        f"(acceptance criterion is >= {MIN_WARM_RPS:.0f} req/s)"
    )
    assert report["cold_rps"] >= MIN_COLD_RPS, (
        f"cold pass only {report['cold_rps']:.0f} req/s "
        f"(acceptance criterion is >= {MIN_COLD_RPS:.0f} req/s)"
    )


def test_bench_service():
    report = run_service_benchmark()
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
    report = run_service_benchmark(
        total_requests=SMOKE_REQUESTS if args.smoke else TOTAL_REQUESTS
    )
    _print_report(report)
    _assert_criteria(report)
    if args.json != "-":
        # Latency percentiles per solver family ride along in stats.families,
        # so the JSON tracks tails as well as throughput across PRs.
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {args.json}")
    print("acceptance criteria (zero lost, bit-identical, "
          f">= {MIN_SPEEDUP}x warm speedup, >= {MIN_WARM_RPS:.0f} warm req/s): PASS")
