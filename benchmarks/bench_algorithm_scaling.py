"""Runtime scaling of the core algorithms (not tied to a paper figure).

Times the kernels themselves (SBO_delta, RLS_delta, the tri-objective
variant, the Pareto sweep, the single-objective sub-solvers and the
simulator) at realistic instance sizes, and gates how RLS_delta and the
tri-objective variant grow with the instance.

SBO is dominated by its sub-solvers.  RLS_delta on a DAG rescans the ready
set at every step, O(n^2 m) in the worst case; on independent tasks it runs
through a size-ordered index: O(n log n) plus, per step, a walk over the
machines it skips for memory and the machines tied at the earliest start.  The gate times ``rls`` and ``trio`` on
independent tasks at (n=500, m=16) and (n=2000, m=64) and fails when the
larger time exceeds ``MAX_RATIO`` times the smaller: an O(n^2 m) loop gives
a ratio of 16 or more from n alone.  A ratio of two timings on the same
host holds up on shared runners where an absolute time would not.

Run ``PYTHONPATH=src python benchmarks/bench_algorithm_scaling.py``;
``--smoke`` runs the scaling gate only.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict

from repro.algorithms.lpt import lpt_schedule
from repro.algorithms.multifit import multifit_schedule
from repro.algorithms.ptas import ptas_schedule
from repro.core.pareto_approx import approximate_pareto_set
from repro.core.rls import rls
from repro.core.sbo import sbo
from repro.core.trio import tri_objective_schedule
from repro.dag.generators import layered_dag
from repro.simulator.executor import simulate_schedule
from repro.workloads.independent import uniform_instance

SMALL = (500, 16)
LARGE = (2000, 64)
MAX_RATIO = 8.0
DELTA = 3.0
# Runs per timing; the fastest counts.
REPEATS = 3


def best_of(fn: Callable[[], object]) -> float:
    """Fastest of ``REPEATS`` wall-clock runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scaling_gate() -> Dict[str, Dict[str, float]]:
    """Time rls and trio at both sizes; return seconds and the large/small ratio."""
    small = uniform_instance(*SMALL, seed=0)
    large = uniform_instance(*LARGE, seed=0)
    kernels = {
        "rls": lambda inst: rls(inst, DELTA),
        "trio": lambda inst: tri_objective_schedule(inst, DELTA),
    }
    report = {}
    for name, kernel in kernels.items():
        t_small = best_of(lambda: kernel(small))
        t_large = best_of(lambda: kernel(large))
        report[name] = {"small_s": t_small, "large_s": t_large, "ratio": t_large / t_small}
    return report


def kernel_timings() -> Dict[str, float]:
    """Seconds per call of each kernel at a fixed realistic size."""
    inst = uniform_instance(300, 8, seed=0)
    small = uniform_instance(100, 8, seed=1)
    dag = layered_dag(12, 8, m=8, seed=0)
    schedule = sbo(inst, delta=1.0).schedule
    calls = {
        "lpt (n=300, m=8)": lambda: lpt_schedule(inst),
        "multifit (n=300, m=8)": lambda: multifit_schedule(inst),
        "ptas eps=0.2 (n=100, m=8)": lambda: ptas_schedule(small, epsilon=0.2),
        "sbo (n=300, m=8)": lambda: sbo(inst, delta=1.0),
        "rls independent (n=300, m=8)": lambda: rls(inst, DELTA),
        "rls dag (layered 12x8, m=8)": lambda: rls(dag, DELTA, order="bottom-level"),
        "trio (n=300, m=8)": lambda: tri_objective_schedule(inst, DELTA),
        "pareto_approx (n=300, m=8)": lambda: approximate_pareto_set(inst),
        "simulator (n=300, m=8)": lambda: simulate_schedule(schedule),
    }
    return {name: best_of(fn) for name, fn in calls.items()}


def check_gate(report: Dict[str, Dict[str, float]]) -> None:
    for name, row in report.items():
        assert row["ratio"] <= MAX_RATIO, (
            f"{name}: n={LARGE[0]}, m={LARGE[1]} took {row['ratio']:.1f}x the "
            f"n={SMALL[0]}, m={SMALL[1]} time (limit {MAX_RATIO:g}x): the kernel "
            f"has fallen back to a quadratic loop"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the rls/trio scaling gate")
    args = parser.parse_args()

    if not args.smoke:
        for name, seconds in kernel_timings().items():
            print(f"{name:32s} {seconds * 1e3:9.2f} ms")
        print()
    report = scaling_gate()
    for name, row in report.items():
        print(f"{name:5s} n={SMALL[0]}, m={SMALL[1]}: {row['small_s'] * 1e3:8.2f} ms   "
              f"n={LARGE[0]}, m={LARGE[1]}: {row['large_s'] * 1e3:8.2f} ms   "
              f"ratio {row['ratio']:5.2f} (limit {MAX_RATIO:g})")
    check_gate(report)
    print("scaling gate: PASS")


if __name__ == "__main__":
    main()
