"""Additional property-based tests: monotonicity, symmetry and substrate invariants.

These complement ``test_properties.py`` with properties of the higher-level
machinery: the constrained solver, the Δ-sweep Pareto approximation, the
online extension, MULTIFIT/FFD, and the simulator on timed DAG schedules.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.exact import exact_cmax
from repro.algorithms.multifit import ffd_pack, multifit_schedule
from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.core.constrained import solve_constrained
from repro.core.instance import DAGInstance, Instance
from repro.core.pareto import dominates
from repro.core.pareto_approx import approximate_pareto_set
from repro.core.rls import rls
from repro.core.task import Task
from repro.core.validation import validate_schedule
from repro.online import OnlineBiObjectiveScheduler
from repro.simulator.executor import simulate_schedule

costs = st.integers(min_value=0, max_value=40)


@st.composite
def instances(draw, min_tasks=1, max_tasks=10, max_m=4):
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    m = draw(st.integers(min_value=1, max_value=max_m))
    p = draw(st.lists(costs, min_size=n, max_size=n))
    s = draw(st.lists(costs, min_size=n, max_size=n))
    return Instance.from_lists(p=p, s=s, m=m)


@st.composite
def dag_instances(draw, max_tasks=8, max_m=3):
    """Random small DAGs: edges only from lower to higher indices."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    m = draw(st.integers(min_value=1, max_value=max_m))
    p = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    s = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return DAGInstance.from_lists(p=p, s=s, m=m, edges=edges)


common_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestConstrainedProperties:
    @given(inst=instances(max_tasks=9), factor=st.floats(min_value=2.0, max_value=6.0))
    @common_settings
    def test_feasible_and_capacity_respected_at_factor_two_plus(self, inst, factor):
        lb = mmax_lower_bound(inst)
        capacity = factor * lb if lb > 0 else 1.0
        outcome = solve_constrained(inst, capacity)
        assert outcome.feasible
        assert outcome.mmax <= capacity + 1e-9
        assert validate_schedule(outcome.schedule, memory_capacity=capacity).ok

    @given(inst=instances(max_tasks=9))
    @common_settings
    def test_infeasibility_only_claimed_when_certified(self, inst):
        lb = mmax_lower_bound(inst)
        assume(lb > 0)
        outcome = solve_constrained(inst, 0.5 * inst.tasks.max_s if inst.tasks.max_s > 0 else 0.0)
        if outcome.certified_infeasible:
            # Certified means a single task exceeds the capacity: verify it.
            assert inst.tasks.max_s > 0.5 * inst.tasks.max_s - 1e-12


class TestDAGProperties:
    @given(dag=dag_instances(), delta=st.floats(min_value=2.0, max_value=6.0))
    @common_settings
    def test_rls_on_random_dags_is_feasible_and_valid(self, dag, delta):
        result = rls(dag, delta, order="bottom-level")
        assert validate_schedule(result.schedule).ok
        assert result.mmax <= delta * mmax_lower_bound(dag) + 1e-9
        report = simulate_schedule(result.schedule, memory_capacity=result.memory_budget)
        assert report.ok
        assert math.isclose(report.cmax, result.cmax, rel_tol=1e-9, abs_tol=1e-9)

    @given(dag=dag_instances(max_tasks=7))
    @common_settings
    def test_rls_cmax_at_least_critical_path(self, dag):
        result = rls(dag, delta=3.0)
        assert result.cmax >= cmax_lower_bound(dag) - 1e-9


class TestMultifitProperties:
    @given(inst=instances(min_tasks=1, max_tasks=9))
    @common_settings
    def test_multifit_never_worse_than_twice_optimum(self, inst):
        sched = multifit_schedule(inst)
        assert validate_schedule(sched).ok
        opt = exact_cmax(inst)
        if opt > 0:
            assert sched.cmax <= 2.0 * opt + 1e-9

    @given(
        inst=instances(min_tasks=1, max_tasks=10),
        slack=st.floats(min_value=1.0, max_value=3.0),
    )
    @common_settings
    def test_ffd_respects_capacity(self, inst, slack):
        capacity = slack * max(cmax_lower_bound(inst), 1e-9)
        packed = ffd_pack(inst.tasks.tasks, inst.m, capacity)
        if packed is not None:
            loads = [sum(inst.task(tid).p for tid in bin_) for bin_ in packed]
            assert max(loads, default=0.0) <= capacity + 1e-6
            assert sorted(tid for bin_ in packed for tid in bin_) == sorted(inst.tasks.ids)


class TestParetoApproxProperties:
    @given(inst=instances(min_tasks=2, max_tasks=8, max_m=3))
    @common_settings
    def test_sweep_front_is_mutually_nondominated(self, inst):
        approx = approximate_pareto_set(inst, epsilon=0.5, delta_min=0.25, delta_max=4.0)
        points = approx.points
        for a in points:
            assert not any(dominates(b, a) for b in points if b != a)
        for schedule in approx.schedules():
            assert validate_schedule(schedule).ok


class TestOnlineProperties:
    @given(
        tasks=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=40
        ),
        m=st.integers(min_value=1, max_value=5),
        delta=st.floats(min_value=0.1, max_value=10.0),
    )
    @common_settings
    def test_online_snapshot_is_always_a_valid_schedule(self, tasks, m, delta):
        scheduler = OnlineBiObjectiveScheduler(m=m, delta=delta)
        for idx, (p, s) in enumerate(tasks):
            scheduler.submit(Task(id=idx, p=p, s=s))
        snapshot = scheduler.current_schedule()
        assert validate_schedule(snapshot).ok
        assert math.isclose(snapshot.cmax, scheduler.cmax, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(snapshot.mmax, scheduler.mmax, rel_tol=1e-9, abs_tol=1e-9)
        # Conservation: totals match regardless of routing decisions.
        assert math.isclose(sum(snapshot.loads), sum(p for p, _ in tasks), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(sum(snapshot.memories), sum(s for _, s in tasks), rel_tol=1e-9, abs_tol=1e-9)
