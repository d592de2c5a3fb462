"""Unit tests for repro.algorithms.baselines and the single-objective solver table."""

from __future__ import annotations

import pytest

from repro.algorithms.baselines import (
    makespan_oblivious_schedule,
    memory_oblivious_schedule,
    random_schedule,
    round_robin_schedule,
)
from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.core.validation import validate_schedule
from repro.solvers.single import (
    available_single_objective_solvers,
    get_single_objective_solver,
)
from repro.workloads.independent import uniform_instance


class TestBaselines:
    def test_memory_oblivious_good_on_cmax(self):
        inst = uniform_instance(30, 4, seed=0)
        sched = memory_oblivious_schedule(inst)
        assert sched.cmax <= (4 / 3) * cmax_lower_bound(inst) * (1 + 1e-9)
        assert validate_schedule(sched).ok

    def test_makespan_oblivious_good_on_mmax(self):
        inst = uniform_instance(30, 4, seed=0)
        sched = makespan_oblivious_schedule(inst)
        assert sched.mmax <= (4 / 3) * mmax_lower_bound(inst) * (1 + 1e-9)

    def test_round_robin_cyclic(self, small_instance):
        sched = round_robin_schedule(small_instance)
        assert sched.processor_of(0) == 0
        assert sched.processor_of(1) == 1
        assert sched.processor_of(2) == 0

    def test_random_schedule_reproducible(self, medium_instance):
        a = random_schedule(medium_instance, seed=5)
        b = random_schedule(medium_instance, seed=5)
        c = random_schedule(medium_instance, seed=6)
        assert a.assignment == b.assignment
        assert validate_schedule(c).ok

    def test_random_schedule_covers_all_tasks(self, medium_instance):
        sched = random_schedule(medium_instance, seed=1)
        assert set(sched.assignment) == set(medium_instance.tasks.ids)


class TestRegistry:
    def test_available_solvers(self):
        assert available_single_objective_solvers() == sorted(
            ["list", "lpt", "multifit", "ptas", "ptas-fine", "exact"]
        )

    def test_unknown_solver(self):
        with pytest.raises(KeyError, match="unknown solver"):
            get_single_objective_solver("quantum")

    @pytest.mark.parametrize("name", ["list", "lpt", "multifit", "ptas"])
    def test_solver_contract(self, name, medium_instance):
        solver = get_single_objective_solver(name)
        schedule, rho = solver(medium_instance, "time")
        assert rho >= 1.0
        assert validate_schedule(schedule).ok
        assert schedule.cmax <= rho * cmax_lower_bound(medium_instance) * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["list", "lpt", "multifit", "ptas"])
    def test_solver_contract_memory(self, name, medium_instance):
        solver = get_single_objective_solver(name)
        schedule, rho = solver(medium_instance, "memory")
        assert schedule.mmax <= rho * mmax_lower_bound(medium_instance) * (1 + 1e-9)

    def test_exact_solver_rho_one(self, medium_instance):
        schedule, rho = get_single_objective_solver("exact")(medium_instance, "time")
        assert rho == 1.0
        from repro.algorithms.exact import exact_cmax

        assert schedule.cmax == pytest.approx(exact_cmax(medium_instance))

    def test_guarantee_ordering(self, medium_instance):
        # Certified guarantees: exact (1) <= multifit (13/11) <= ptas (1.2)
        # <= lpt (4/3 - 1/(3m)) <= list (2 - 1/m) for m = 3.
        rhos = {}
        for name in ("exact", "ptas", "multifit", "lpt", "list"):
            _, rho = get_single_objective_solver(name)(medium_instance, "time")
            rhos[name] = rho
        assert rhos["exact"] <= rhos["multifit"] <= rhos["ptas"] <= rhos["lpt"] <= rhos["list"]
