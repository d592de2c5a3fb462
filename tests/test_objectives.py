"""Unit tests for repro.core.objectives."""

from __future__ import annotations

import math


from repro.core.objectives import ObjectiveValues, evaluate, ratio_to
from repro.core.schedule import Schedule


class TestObjectiveValues:
    def test_as_pair_and_triple(self):
        v = ObjectiveValues(cmax=3, mmax=4, sum_ci=10)
        assert v.as_pair() == (3, 4)
        assert v.as_triple() == (3, 4, 10)

    def test_weak_dominance(self):
        a = ObjectiveValues(1, 2, 3)
        b = ObjectiveValues(2, 2, 3)
        assert a.weakly_dominates(b)
        assert not b.weakly_dominates(a)
        assert a.weakly_dominates(a)

    def test_strict_dominance(self):
        a = ObjectiveValues(1, 2, 3)
        b = ObjectiveValues(2, 3, 3)
        assert a.dominates(b)
        assert not a.dominates(a)

    def test_dominance_with_sum_ci(self):
        a = ObjectiveValues(1, 1, 5)
        b = ObjectiveValues(1, 1, 4)
        assert not a.dominates(b, include_sum_ci=True)
        assert b.dominates(a, include_sum_ci=True)
        # Without sum_ci they are equal pairs => no strict dominance.
        assert not b.dominates(a, include_sum_ci=False)

    def test_isclose(self):
        a = ObjectiveValues(1.0, 2.0, 3.0)
        b = ObjectiveValues(1.0 + 1e-12, 2.0, 3.0)
        assert a.isclose(b)
        assert not a.isclose(ObjectiveValues(1.1, 2.0, 3.0))


class TestEvaluate:
    def test_evaluate_schedule(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        v = evaluate(sched)
        assert v.cmax == sched.cmax
        assert v.mmax == sched.mmax
        assert v.sum_ci == sched.sum_ci

    def test_evaluate_dag_schedule(self, diamond_dag):
        from repro.core.schedule import Schedule

        sched = Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 2.0, "c": 2.0, "d": 6.0},
        )
        v = evaluate(sched)
        assert v.cmax == 7.0 and v.mmax == 11.0


class TestRatioTo:
    def test_simple_ratios(self):
        v = ObjectiveValues(4, 6, 20)
        rc, rm, rs = ratio_to(v, cmax_ref=2, mmax_ref=3, sum_ci_ref=10)
        assert rc == 2 and rm == 2 and rs == 2

    def test_sum_ci_ref_optional(self):
        v = ObjectiveValues(4, 6, 20)
        rc, rm, rs = ratio_to(v, cmax_ref=4, mmax_ref=6)
        assert rc == 1 and rm == 1 and rs is None

    def test_zero_reference_zero_value(self):
        v = ObjectiveValues(0, 0, 0)
        rc, rm, _ = ratio_to(v, cmax_ref=0, mmax_ref=0)
        assert rc == 1 and rm == 1

    def test_zero_reference_positive_value(self):
        v = ObjectiveValues(1, 0, 0)
        rc, _, _ = ratio_to(v, cmax_ref=0, mmax_ref=1)
        assert math.isinf(rc)
