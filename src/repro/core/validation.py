"""Feasibility checking of schedules.

All algorithms in the library return schedules that are validated by the
functions here (and the test suite re-validates them).  Three kinds of
constraints are checked:

* assignment completeness — every task is on exactly one processor;
* machine exclusivity — tasks on the same processor never overlap in time
  (timed schedules only);
* precedence — no task starts before all of its predecessors completed
  (timed schedules on DAG instances only);
* optional memory capacity — ``Mmax <= capacity`` when a capacity is given,
  which is the original strictly-constrained problem of §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.instance import DAGInstance
from repro.core.schedule import Schedule

__all__ = ["ValidationError", "ValidationReport", "validate_schedule", "check_schedule"]

_EPS = 1e-9


class ValidationError(Exception):
    """Raised by :func:`check_schedule` when a schedule is infeasible."""


@dataclass
class ValidationReport:
    """Outcome of schedule validation.

    ``ok`` is ``True`` when no violation was found; ``violations`` lists
    human-readable descriptions of every violated constraint.
    """

    ok: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_invalid(self) -> None:
        """Raise :class:`ValidationError` when the schedule is infeasible."""
        if not self.ok:
            raise ValidationError("; ".join(self.violations))


def _validate_assignment(schedule: Schedule, violations: List[str]) -> None:
    instance = schedule.instance
    assignment = schedule.assignment
    for task in instance.tasks:
        if task.id not in assignment:
            violations.append(f"task {task.id!r} is not assigned")
            continue
        proc = assignment[task.id]
        if not (0 <= proc < instance.m):
            violations.append(f"task {task.id!r} assigned to invalid processor {proc!r}")


def _validate_overlap(schedule: Schedule, violations: List[str], eps: float) -> None:
    instance = schedule.instance
    for proc in range(instance.m):
        intervals = [
            (schedule.start_of(tid), schedule.completion_of(tid), tid)
            for tid in schedule.tasks_on(proc)
        ]
        intervals.sort(key=lambda x: (x[0], x[1]))
        for (s1, c1, t1), (s2, c2, t2) in zip(intervals, intervals[1:]):
            if s2 < c1 - eps:
                violations.append(
                    f"tasks {t1!r} and {t2!r} overlap on processor {proc}: "
                    f"[{s1:g}, {c1:g}) and [{s2:g}, {c2:g})"
                )


def _validate_precedence(schedule: Schedule, violations: List[str], eps: float) -> None:
    instance = schedule.instance
    if not isinstance(instance, DAGInstance):
        return
    for u, v in instance.graph.edges():
        if schedule.start_of(v) < schedule.completion_of(u) - eps:
            violations.append(
                f"precedence violated: task {v!r} starts at {schedule.start_of(v):g} "
                f"before predecessor {u!r} completes at {schedule.completion_of(u):g}"
            )


def _validate_capacity(
    schedule: Schedule, capacity: float, violations: List[str], eps: float
) -> None:
    for proc, mem in enumerate(schedule.memories):
        if mem > capacity + eps:
            violations.append(
                f"processor {proc} uses {mem:g} memory units, exceeding the capacity {capacity:g}"
            )


def validate_schedule(
    schedule: Schedule,
    memory_capacity: Optional[float] = None,
    eps: float = _EPS,
) -> ValidationReport:
    """Validate a schedule and return a :class:`ValidationReport`.

    Parameters
    ----------
    schedule:
        The schedule to check.
    memory_capacity:
        Optional per-processor memory capacity ``M``; when given, the
        strictly-constrained feasibility ``Mmax <= M`` of §2.2 is checked
        as well.
    eps:
        Numerical tolerance used for all floating-point comparisons.
    """
    violations: List[str] = []
    _validate_assignment(schedule, violations)
    if schedule.timed:
        _validate_overlap(schedule, violations, eps)
        _validate_precedence(schedule, violations, eps)
    if memory_capacity is not None:
        _validate_capacity(schedule, memory_capacity, violations, eps)
    return ValidationReport(ok=not violations, violations=violations)


def check_schedule(
    schedule: Schedule,
    memory_capacity: Optional[float] = None,
    eps: float = _EPS,
) -> None:
    """Validate a schedule, raising :class:`ValidationError` on any violation."""
    validate_schedule(schedule, memory_capacity=memory_capacity, eps=eps).raise_if_invalid()
