"""Unit tests for repro.extensions (uniform machines).

The online scheduler moved to :mod:`repro.online`; its tests live in
``tests/test_online.py``.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import mmax_lower_bound
from repro.core.rls import InfeasibleDeltaError
from repro.core.validation import validate_schedule
from repro.extensions.uniform_machines import (
    UniformInstance,
    uniform_cmax_lower_bound,
    uniform_list_schedule,
    uniform_rls,
)
from repro.workloads.independent import uniform_instance


class TestUniformInstance:
    def test_construction(self):
        inst = UniformInstance.from_lists(p=[4, 2], s=[1, 1], speeds=[1.0, 2.0])
        assert inst.m == 2
        assert inst.execution_time(0, 0) == 4.0
        assert inst.execution_time(0, 1) == 2.0

    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            UniformInstance.from_lists(p=[1], s=[1], speeds=[])
        with pytest.raises(ValueError):
            UniformInstance.from_lists(p=[1], s=[1], speeds=[0.0])
        with pytest.raises(ValueError):
            UniformInstance.from_lists(p=[1], s=[1], speeds=[-1.0, 1.0])

    def test_as_identical(self):
        inst = UniformInstance.from_lists(p=[1, 2], s=[3, 4], speeds=[1.0, 3.0])
        identical = inst.as_identical()
        assert identical.m == 2 and not isinstance(identical, UniformInstance)

    def test_lower_bound(self):
        inst = UniformInstance.from_lists(p=[6, 6], s=[1, 1], speeds=[1.0, 2.0])
        # fluid bound: 12 / 3 = 4; max task on fastest: 6 / 2 = 3.
        assert uniform_cmax_lower_bound(inst) == 4.0

    def test_lower_bound_large_task(self):
        inst = UniformInstance.from_lists(p=[10, 1], s=[1, 1], speeds=[1.0, 1.0])
        assert uniform_cmax_lower_bound(inst) == 10.0


class TestUniformListSchedule:
    def test_faster_machine_preferred(self):
        inst = UniformInstance.from_lists(p=[4], s=[1], speeds=[1.0, 4.0])
        result = uniform_list_schedule(inst)
        assert result.cmax == 1.0  # runs on the fast machine

    def test_valid_and_reasonable(self):
        base = uniform_instance(30, 4, seed=0)
        inst = UniformInstance(base.tasks, speeds=[1.0, 1.0, 2.0, 4.0])
        result = uniform_list_schedule(inst)
        assert validate_schedule(result.schedule).ok
        lb = uniform_cmax_lower_bound(inst)
        assert result.cmax <= 2.5 * lb  # ECT heuristic stays near the fluid bound

    def test_equal_speeds_matches_identical_quality(self):
        base = uniform_instance(20, 3, seed=1)
        inst = UniformInstance(base.tasks, speeds=[1.0, 1.0, 1.0])
        result = uniform_list_schedule(inst)
        from repro.algorithms.lpt import lpt_schedule

        assert result.cmax == pytest.approx(lpt_schedule(base).cmax)

    def test_empty(self):
        inst = UniformInstance.from_lists(p=[], s=[], speeds=[1.0, 2.0])
        result = uniform_list_schedule(inst)
        assert result.cmax == 0.0 and result.mmax == 0.0


class TestUniformRLS:
    def test_memory_budget_respected(self):
        base = uniform_instance(30, 4, seed=2)
        inst = UniformInstance(base.tasks, speeds=[1.0, 2.0, 2.0, 4.0])
        for delta in (2.0, 3.0):
            result = uniform_rls(inst, delta=delta)
            assert result.mmax <= delta * mmax_lower_bound(inst) + 1e-9
            assert result.memory_budget == pytest.approx(delta * mmax_lower_bound(inst))
            assert validate_schedule(result.schedule).ok

    def test_infeasible_small_delta(self):
        inst = UniformInstance.from_lists(p=[1, 1, 1], s=[10, 10, 10], speeds=[1.0, 1.0])
        with pytest.raises(InfeasibleDeltaError):
            uniform_rls(inst, delta=1.05)

    def test_invalid_delta(self):
        inst = UniformInstance.from_lists(p=[1], s=[1], speeds=[1.0])
        with pytest.raises(ValueError):
            uniform_rls(inst, delta=0.0)

    def test_memory_budget_costs_makespan(self):
        # With a tight budget the fast machine cannot absorb everything.
        base = uniform_instance(30, 3, seed=5)
        inst = UniformInstance(base.tasks, speeds=[4.0, 1.0, 1.0])
        loose = uniform_rls(inst, delta=50.0)
        tight = uniform_rls(inst, delta=2.0)
        assert tight.mmax <= loose.mmax + 1e-9 or tight.cmax >= loose.cmax - 1e-9
