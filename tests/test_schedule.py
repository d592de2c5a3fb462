"""Unit tests for repro.core.schedule."""

from __future__ import annotations

import pytest

from repro.core.instance import DAGInstance, Instance
from repro.core.schedule import Schedule


class TestSchedule:
    def test_basic_objectives(self, small_instance):
        # tasks: p=[4,3,2,2,1], s=[1,5,2,4,3]
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        assert sched.loads == [7, 5]
        assert sched.memories == [6, 9]
        assert sched.cmax == 7
        assert sched.mmax == 9

    def test_missing_task_rejected(self, small_instance):
        with pytest.raises(ValueError, match="missing"):
            Schedule(small_instance, {0: 0, 1: 0})

    def test_unknown_task_rejected(self, small_instance):
        assignment = {t.id: 0 for t in small_instance.tasks}
        assignment["ghost"] = 0
        with pytest.raises(ValueError, match="unknown"):
            Schedule(small_instance, assignment)

    def test_invalid_processor_rejected(self, small_instance):
        assignment = {t.id: 0 for t in small_instance.tasks}
        assignment[0] = 5
        with pytest.raises(ValueError, match="invalid processor"):
            Schedule(small_instance, assignment)

    def test_bool_processor_rejected(self, small_instance):
        assignment = {t.id: 0 for t in small_instance.tasks}
        assignment[0] = True
        with pytest.raises(ValueError, match="invalid processor"):
            Schedule(small_instance, assignment)

    def test_from_processor_lists(self, small_instance):
        sched = Schedule.from_processor_lists(small_instance, [[0, 2, 4], [1, 3]])
        assert sched.processor_of(0) == 0
        assert sched.processor_of(3) == 1
        assert sched.tasks_on(0) == [0, 2, 4]

    def test_from_processor_lists_duplicate(self, small_instance):
        with pytest.raises(ValueError, match="more than one"):
            Schedule.from_processor_lists(small_instance, [[0, 1, 2, 3, 4], [0]])

    def test_from_processor_lists_too_many_lists(self, small_instance):
        with pytest.raises(ValueError, match="processor lists"):
            Schedule.from_processor_lists(small_instance, [[0], [1], [2, 3, 4]])

    def test_completion_times_follow_order(self, small_instance):
        sched = Schedule.from_processor_lists(small_instance, [[2, 0], [1, 3, 4]])
        completion = sched.completion_times()
        assert completion[2] == 2
        assert completion[0] == 6
        assert completion[1] == 3
        assert completion[3] == 5
        assert completion[4] == 6

    def test_sum_ci(self, small_instance):
        sched = Schedule.from_processor_lists(small_instance, [[0], [1, 2, 3, 4]])
        # processor 1 runs p=3,2,2,1 back to back: completions 3,5,7,8
        assert sched.sum_ci == 4 + 3 + 5 + 7 + 8

    def test_order_validation_wrong_processor(self, small_instance):
        with pytest.raises(ValueError, match="assigned to"):
            Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, order={0: [1]})

    def test_order_validation_duplicate(self, small_instance):
        with pytest.raises(ValueError, match="twice"):
            Schedule(small_instance, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, order={0: [0, 0]})

    def test_order_partial_order_appends_rest(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, order={0: [4]})
        assert sched.tasks_on(0)[0] == 4
        assert set(sched.tasks_on(0)) == {0, 1, 2, 3, 4}

    def test_objective_tuple(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        assert sched.objective_tuple() == (sched.cmax, sched.mmax)

    def test_start_times_lift_to_a_timed_schedule(self, small_instance):
        sched = Schedule.from_processor_lists(small_instance, [[0, 2], [1, 3, 4]])
        assert not sched.timed
        assert sched.start_of(2) == 4  # after task 0 (p=4)
        timed = Schedule(small_instance, sched.assignment, start_times=sched.start_times)
        assert timed.timed and timed != sched
        assert timed.cmax == sched.cmax
        assert timed.mmax == sched.mmax
        assert timed.sum_ci == sched.sum_ci
        assert timed.completion_times() == sched.completion_times()
        assert [timed.tasks_on(q) for q in range(2)] == [sched.tasks_on(q) for q in range(2)]

    def test_order_and_start_times_are_exclusive(self, small_instance):
        with pytest.raises(ValueError, match="either order or start_times"):
            Schedule(small_instance, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, order={0: [4]},
                     start_times={i: 0.0 for i in range(5)})

    def test_equality(self, small_instance):
        a = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        b = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        c = Schedule(small_instance, {0: 1, 1: 1, 2: 0, 3: 1, 4: 0})
        assert a == b and a != c

    def test_empty_instance_schedule(self):
        inst = Instance.from_lists(p=[], s=[], m=2)
        sched = Schedule(inst, {})
        assert sched.cmax == 0 and sched.mmax == 0 and sched.sum_ci == 0

    def test_tasks_on_invalid_processor(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        with pytest.raises(ValueError):
            sched.tasks_on(9)


class TestDAGSchedule:
    def _schedule(self, diamond_dag) -> Schedule:
        # a(p=2) on P0 at 0; b(p=3) on P0 at 2; c(p=4) on P1 at 2; d(p=1) on P0 at 6
        return Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 2.0, "c": 2.0, "d": 6.0},
        )

    def test_objectives(self, diamond_dag):
        sched = self._schedule(diamond_dag)
        assert sched.cmax == 7.0
        # memories: P0 gets s(a)+s(b)+s(d)=5+2+4=11, P1 gets 3
        assert sched.mmax == 11.0
        assert sched.completion_of("c") == 6.0
        assert sched.sum_ci == 2 + 5 + 6 + 7

    def test_missing_start_time_rejected(self, diamond_dag):
        with pytest.raises(ValueError, match="start_times"):
            Schedule(diamond_dag, {"a": 0, "b": 0, "c": 1, "d": 0}, start_times={"a": 0.0})

    def test_negative_start_rejected(self, diamond_dag):
        with pytest.raises(ValueError, match="negative"):
            Schedule(
                diamond_dag,
                {"a": 0, "b": 0, "c": 1, "d": 0},
                start_times={"a": -1.0, "b": 2.0, "c": 2.0, "d": 6.0},
            )

    def test_invalid_processor_rejected(self, diamond_dag):
        with pytest.raises(ValueError, match="invalid processor"):
            Schedule(
                diamond_dag,
                {"a": 0, "b": 0, "c": 5, "d": 0},
                start_times={"a": 0.0, "b": 2.0, "c": 2.0, "d": 6.0},
            )

    def test_tasks_on_sorted_by_start(self, diamond_dag):
        sched = self._schedule(diamond_dag)
        assert sched.tasks_on(0) == ["a", "b", "d"]
        assert sched.tasks_on(1) == ["c"]

    def test_loads_and_idle_time(self, diamond_dag):
        sched = self._schedule(diamond_dag)
        assert sched.loads == [6.0, 4.0]
        assert sched.idle_time() == pytest.approx(2 * 7.0 - 10.0)

    def test_equality(self, diamond_dag):
        a = self._schedule(diamond_dag)
        b = self._schedule(diamond_dag)
        assert a == b

    def test_empty_dag_schedule(self):
        inst = DAGInstance.from_lists(p=[], s=[], m=1)
        sched = Schedule(inst, {}, start_times={})
        assert sched.cmax == 0.0 and sched.mmax == 0.0
