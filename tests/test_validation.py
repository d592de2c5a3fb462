"""Unit tests for repro.core.validation."""

from __future__ import annotations

import pytest

from repro.core.schedule import Schedule
from repro.core.validation import ValidationError, check_schedule, validate_schedule


class TestIndependentValidation:
    def test_valid_schedule(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        report = validate_schedule(sched)
        assert report.ok and not report.violations
        assert bool(report) is True

    def test_capacity_violation(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0})
        report = validate_schedule(sched, memory_capacity=10.0)
        assert not report.ok
        assert any("capacity" in v or "exceeding" in v for v in report.violations)

    def test_capacity_satisfied(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        assert validate_schedule(sched, memory_capacity=9.0).ok

    def test_check_schedule_raises(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0})
        with pytest.raises(ValidationError):
            check_schedule(sched, memory_capacity=1.0)

    def test_check_schedule_passes(self, small_instance):
        sched = Schedule(small_instance, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
        check_schedule(sched)  # does not raise


class TestDAGValidation:
    def _valid(self, diamond_dag) -> Schedule:
        return Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 2.0, "c": 2.0, "d": 6.0},
        )

    def test_valid_dag_schedule(self, diamond_dag):
        assert validate_schedule(self._valid(diamond_dag)).ok

    def test_overlap_detected(self, diamond_dag):
        sched = Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 1.0, "c": 2.0, "d": 6.0},  # b overlaps a on P0
        )
        report = validate_schedule(sched)
        assert not report.ok
        assert any("overlap" in v for v in report.violations)

    def test_precedence_violation_detected(self, diamond_dag):
        sched = Schedule(
            diamond_dag,
            {"a": 0, "b": 1, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 1.0, "c": 4.0, "d": 8.0},  # b starts before a completes
        )
        report = validate_schedule(sched)
        assert not report.ok
        assert any("precedence" in v for v in report.violations)

    def test_multiple_violations_all_reported(self, diamond_dag):
        sched = Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 0, "d": 0},
            start_times={"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0},
        )
        report = validate_schedule(sched)
        assert not report.ok
        assert len(report.violations) >= 2

    def test_zero_length_tasks_no_false_overlap(self, zero_memory_instance):
        dag = zero_memory_instance.as_dag()
        sched = Schedule(
            dag,
            {t.id: 0 for t in dag.tasks},
            start_times={0: 0.0, 1: 3.0, 2: 5.0, 3: 6.0},
        )
        assert validate_schedule(sched).ok

    def test_raise_if_invalid_message(self, diamond_dag):
        sched = Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 0.5, "c": 2.0, "d": 6.0},
        )
        report = validate_schedule(sched)
        with pytest.raises(ValidationError):
            report.raise_if_invalid()
