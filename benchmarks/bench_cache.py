"""Cache benchmark: a paper-style sweep run twice through ``solve_many``.

Runs the same (instance × spec) grid three ways:

1. an **uncached serial loop** (the pre-cache baseline, ground truth),
2. a **cold** ``solve_many`` run filling a persistent ``DiskCache``,
3. a **warm** ``solve_many`` run served entirely from that cache.

Asserts objective values bit-identical across all three runs, and the
warm run at least 5x faster than the cold one.  A full garbage
collection runs before each timed phase, so the collection of an earlier
phase's garbage is not billed to the next one (the warm run is ~15 ms of
cache hits, shorter than one such collection).  Runnable standalone
(``PYTHONPATH=src python benchmarks/bench_cache.py``) or under pytest.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from pathlib import Path

from repro.solvers import DiskCache, solve, solve_many
from repro.workloads.independent import workload_suite

#: A paper-style spec grid: the Δ sweeps of the ratio studies plus the
#: heavier tri-objective and Pareto-sweep configurations.
SPECS = [
    "sbo(delta=0.25)",
    "sbo(delta=1.0)",
    "sbo(delta=4.0)",
    "sbo(delta=1.0, inner=multifit)",
    "rls(delta=2.2)",
    "rls(delta=3.0)",
    "trio(delta=2.5)",
    "pareto_approx(epsilon=0.5)",
    "multifit",
]


def sweep_instances(n: int = 120):
    """The five standard workload families at two processor counts."""
    return list(workload_suite(n, 4, seed=0).values()) + \
        list(workload_suite(n, 8, seed=1).values())


def _values(results):
    return [(r.spec, r.cmax, r.mmax, r.sum_ci) for r in results]


def run_cache_benchmark(cache_dir: Path, n: int = 120) -> dict:
    instances = sweep_instances(n)

    gc.collect()
    start = time.perf_counter()
    baseline = [solve(inst, spec, cache=False) for inst in instances for spec in SPECS]
    baseline_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    cold = solve_many(instances, SPECS, cache=DiskCache(cache_dir))
    cold_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    warm = solve_many(instances, SPECS, cache=DiskCache(cache_dir))
    warm_s = time.perf_counter() - start

    assert _values(cold) == _values(baseline), "cold cached run diverged from serial loop"
    assert _values(warm) == _values(baseline), "warm cached run diverged from serial loop"
    assert all(r.provenance["cache"] == "hit" for r in warm)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "jobs": len(baseline),
        "baseline_s": baseline_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "stats": warm[0].provenance["batch"],
    }


def test_bench_cache_speedup(tmp_path):
    report = run_cache_benchmark(tmp_path / "cache")
    print()
    print(f"jobs                 : {report['jobs']}")
    print(f"uncached serial loop : {report['baseline_s'] * 1e3:8.1f} ms")
    print(f"cold run (fill cache): {report['cold_s'] * 1e3:8.1f} ms")
    print(f"warm run (all hits)  : {report['warm_s'] * 1e3:8.1f} ms")
    print(f"warm speedup         : {report['speedup']:8.1f}x")
    print(f"batch stats          : {report['stats']}")
    assert report["stats"]["cache_hits"] == report["stats"]["unique"]
    assert report["speedup"] >= 5.0, (
        f"warm run only {report['speedup']:.1f}x faster than cold "
        f"(acceptance criterion is >= 5x)"
    )


if __name__ == "__main__":
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        report = run_cache_benchmark(cache_dir / "cache")
        print(f"jobs                 : {report['jobs']}")
        print(f"uncached serial loop : {report['baseline_s'] * 1e3:8.1f} ms")
        print(f"cold run (fill cache): {report['cold_s'] * 1e3:8.1f} ms")
        print(f"warm run (all hits)  : {report['warm_s'] * 1e3:8.1f} ms")
        print(f"warm speedup         : {report['speedup']:8.1f}x")
        print(f"batch stats          : {report['stats']}")
        assert report["speedup"] >= 5.0
        print("acceptance criterion (>= 5x warm speedup): PASS")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
