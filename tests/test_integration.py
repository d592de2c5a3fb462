"""End-to-end integration tests: workloads -> algorithms -> validation -> simulation."""

from __future__ import annotations

import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    Instance,
    evaluate,
    rls,
    sbo,
    simulate_schedule,
    solve_constrained,
    tri_objective_schedule,
)
from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.core.validation import validate_schedule
from repro.dag.generators import random_dag_suite
from repro.workloads.adversarial import (
    few_big_many_small_instance,
    high_variance_instance,
    memory_hostile_instance,
)
from repro.workloads.independent import workload_suite

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestEndToEndIndependent:
    @pytest.mark.parametrize("family", ["uniform", "correlated", "anti-correlated", "bimodal", "heavy-tailed"])
    def test_full_pipeline_per_family(self, family):
        inst = workload_suite(60, 4, seed=13)[family]
        lb_c, lb_m = cmax_lower_bound(inst), mmax_lower_bound(inst)

        for delta in (0.5, 1.0, 2.0):
            result = sbo(inst, delta)
            assert validate_schedule(result.schedule).ok
            report = simulate_schedule(result.schedule)
            assert report.ok
            assert math.isclose(report.cmax, result.cmax, rel_tol=1e-9)

        trio = tri_objective_schedule(inst, delta=3.0)
        assert trio.mmax <= 3.0 * lb_m + 1e-9
        assert simulate_schedule(trio.schedule).ok

        constrained = solve_constrained(inst, memory_capacity=2.5 * lb_m)
        assert constrained.feasible
        assert validate_schedule(constrained.schedule, memory_capacity=2.5 * lb_m).ok

    def test_adversarial_workloads(self):
        for inst in (
            memory_hostile_instance(4, seed=1),
            high_variance_instance(40, 4, seed=1),
            few_big_many_small_instance(4, k=2, small_per_big=3, seed=1),
        ):
            result = rls(inst, delta=2.5)
            assert result.mmax <= 2.5 * mmax_lower_bound(inst) + 1e-9
            assert simulate_schedule(result.schedule).ok
            balanced = sbo(inst, delta=1.0)
            assert validate_schedule(balanced.schedule).ok

    def test_objective_record_consistency(self):
        inst = workload_suite(30, 3, seed=21)["uniform"]
        result = sbo(inst, delta=1.0)
        values = evaluate(result.schedule)
        report = simulate_schedule(result.schedule)
        assert math.isclose(values.cmax, report.cmax, rel_tol=1e-9)
        assert math.isclose(values.mmax, report.mmax, rel_tol=1e-9)
        assert math.isclose(values.sum_ci, report.sum_ci, rel_tol=1e-9)


class TestEndToEndDAG:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_dag_suite_rls_pipeline(self, m):
        for name, dag in random_dag_suite(m, seed=5).items():
            result = rls(dag, delta=3.0, order="bottom-level")
            assert validate_schedule(result.schedule).ok, name
            assert result.mmax <= 3.0 * mmax_lower_bound(dag) + 1e-9, name
            guarantee = result.cmax_guarantee
            assert result.cmax <= guarantee * cmax_lower_bound(dag) * (1 + 1e-9), name
            report = simulate_schedule(result.schedule, memory_capacity=result.memory_budget)
            assert report.ok, (name, report.violations)

    def test_constrained_on_dags(self):
        dag = random_dag_suite(4, seed=2)["gaussian-elimination"]
        lb = mmax_lower_bound(dag)
        outcome = solve_constrained(dag, memory_capacity=2.2 * lb)
        assert outcome.feasible
        assert validate_schedule(outcome.schedule, memory_capacity=2.2 * lb).ok


class TestPublicAPI:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")],
    )
    def test_star_import(self, module):
        # Every name a module lists in __all__ must exist.
        exec(f"from {module} import *", {})

    def test_version(self):
        assert repro.__version__

    def test_readme_quickstart_snippet(self):
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
        result = sbo(inst, delta=1.0)
        assert result.schedule.cmax > 0
        assert result.schedule.mmax > 0


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "embedded_soc_pipeline.py",
        "grid_batch_scheduling.py",
        "constrained_capacity_planning.py",
        "pareto_explorer.py",
    ],
)
def test_examples_run(script):
    """Every example under examples/ must run to completion."""
    path = EXAMPLES_DIR / script
    assert path.exists()
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
