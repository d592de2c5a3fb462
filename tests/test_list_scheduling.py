"""Unit tests for repro.algorithms.list_scheduling, lpt and spt."""

from __future__ import annotations

import pytest

from repro.algorithms.list_scheduling import _order_positions, graham_dag_schedule, list_schedule
from repro.algorithms.lpt import lpt_guarantee, lpt_schedule
from repro.algorithms.spt import optimal_sum_ci, spt_schedule
from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.core.instance import DAGInstance, Instance
from repro.core.validation import validate_schedule
from repro.workloads.independent import uniform_instance


class TestResolveOrder:
    """``_order_positions``; the ids of ``small_instance`` are its positions."""

    def test_named_orders(self, small_instance):
        assert _order_positions(small_instance, "spt") == [4, 2, 3, 1, 0]
        assert _order_positions(small_instance, "lpt") == [0, 1, 2, 3, 4]
        assert _order_positions(small_instance, "lms")[0] == 1
        assert _order_positions(small_instance, None) == [0, 1, 2, 3, 4]

    def test_explicit_order(self, small_instance):
        assert _order_positions(small_instance, [4, 3, 2, 1, 0]) == [4, 3, 2, 1, 0]
        reordered = Instance.from_lists(p=[1, 2, 3], s=[1, 1, 1], m=2, ids=["x", "y", "z"])
        assert _order_positions(reordered, ["z", "x", "y"]) == [2, 0, 1]

    def test_explicit_order_incomplete(self, small_instance):
        with pytest.raises(ValueError, match="every task"):
            _order_positions(small_instance, [0, 1])

    def test_unknown_name(self, small_instance):
        with pytest.raises(ValueError, match="unknown order"):
            _order_positions(small_instance, "zigzag")


class TestListSchedule:
    def test_greedy_time(self):
        inst = Instance.from_lists(p=[3, 3, 3, 3], s=[1, 1, 1, 1], m=2)
        sched = list_schedule(inst)
        assert sched.cmax == 6.0

    def test_greedy_memory(self):
        inst = Instance.from_lists(p=[1, 1, 1, 1], s=[4, 4, 4, 4], m=2)
        sched = list_schedule(inst, objective="memory")
        assert sched.mmax == 8.0

    def test_unknown_objective(self, small_instance):
        with pytest.raises(ValueError, match="objective"):
            list_schedule(small_instance, objective="energy")

    def test_schedule_is_valid(self, medium_instance):
        assert validate_schedule(list_schedule(medium_instance)).ok

    def test_graham_guarantee_on_random_instances(self):
        for seed in range(5):
            inst = uniform_instance(25, 4, seed=seed)
            sched = list_schedule(inst)
            assert sched.cmax <= (2 - 1 / inst.m) * cmax_lower_bound(inst) * (1 + 1e-9)

    def test_all_tasks_assigned(self, medium_instance):
        sched = list_schedule(medium_instance, order="lpt")
        assert set(sched.assignment.keys()) == set(medium_instance.tasks.ids)

    def test_single_processor(self):
        inst = Instance.from_lists(p=[1, 2, 3], s=[1, 1, 1], m=1)
        sched = list_schedule(inst)
        assert sched.cmax == 6.0

    def test_more_processors_than_tasks(self):
        inst = Instance.from_lists(p=[5, 3], s=[1, 1], m=8)
        sched = list_schedule(inst)
        assert sched.cmax == 5.0

    def test_empty_instance(self):
        inst = Instance.from_lists(p=[], s=[], m=2)
        sched = list_schedule(inst)
        assert sched.cmax == 0.0


class TestLPT:
    def test_lpt_guarantee_value(self):
        assert lpt_guarantee(1) == pytest.approx(1.0)
        assert lpt_guarantee(2) == pytest.approx(4 / 3 - 1 / 6)
        with pytest.raises(ValueError):
            lpt_guarantee(0)

    def test_lpt_beats_guarantee_on_random(self):
        for seed in range(5):
            inst = uniform_instance(30, 4, seed=seed)
            sched = lpt_schedule(inst)
            assert sched.cmax <= lpt_guarantee(4) * cmax_lower_bound(inst) * (1 + 1e-9)

    def test_lpt_memory_objective(self):
        for seed in range(3):
            inst = uniform_instance(30, 4, seed=seed)
            sched = lpt_schedule(inst, objective="memory")
            assert sched.mmax <= lpt_guarantee(4) * mmax_lower_bound(inst) * (1 + 1e-9)

    def test_lpt_classic_worst_case_example(self):
        # Classic LPT worst case on 2 processors: p = 5,4,3,3,3 has optimum 9
        # but LPT yields 10 (still within the 4/3 - 1/(3m) = 7/6 factor).
        inst = Instance.from_lists(p=[5, 4, 3, 3, 3], s=[0] * 5, m=2)
        assert lpt_schedule(inst).cmax == 10.0
        assert 10.0 <= lpt_guarantee(2) * 9.0


class TestSPT:
    def test_spt_sum_ci_optimal_single_proc(self):
        inst = Instance.from_lists(p=[3, 1, 2], s=[0, 0, 0], m=1)
        assert spt_schedule(inst).sum_ci == 10.0
        assert optimal_sum_ci(inst) == 10.0

    def test_spt_never_worse_than_lpt_on_sum_ci(self):
        for seed in range(5):
            inst = uniform_instance(20, 3, seed=seed)
            assert spt_schedule(inst).sum_ci <= lpt_schedule(inst).sum_ci + 1e-9

    def test_spt_valid(self, medium_instance):
        assert validate_schedule(spt_schedule(medium_instance)).ok


class TestGrahamDAGSchedule:
    def test_respects_precedence(self, diamond_dag):
        sched = graham_dag_schedule(diamond_dag)
        assert validate_schedule(sched).ok
        assert sched.start_of("d") >= max(sched.completion_of("b"), sched.completion_of("c"))

    def test_chain_runs_sequentially(self, chain_instance):
        sched = graham_dag_schedule(chain_instance)
        assert sched.cmax == 9.0  # sum of the chain

    def test_graham_bound_on_dag(self, diamond_dag):
        sched = graham_dag_schedule(diamond_dag)
        assert sched.cmax <= (2 - 1 / diamond_dag.m) * cmax_lower_bound(diamond_dag) + 1e-9

    def test_no_unnecessary_idle(self):
        # Two independent tasks on two processors must run in parallel.
        inst = DAGInstance.from_lists(p=[5, 5], s=[1, 1], m=2)
        sched = graham_dag_schedule(inst)
        assert sched.cmax == 5.0

    def test_independent_instance_lifted(self, small_instance):
        sched = graham_dag_schedule(small_instance)
        assert validate_schedule(sched).ok
        assert set(sched.assignment.keys()) == set(small_instance.tasks.ids)

    def test_priority_affects_ties_not_validity(self, diamond_dag):
        for priority in ("arbitrary", "spt", "lpt"):
            sched = graham_dag_schedule(diamond_dag, priority=priority)
            assert validate_schedule(sched).ok
