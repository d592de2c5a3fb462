"""Extension: uniform (related) machines — ``Q | p_j, s_j | Cmax, Mmax``.

The paper's future work mentions non-identical processors.  This module
prototypes the natural generalisation where processor ``q`` has speed
``v_q`` (a task of work ``p_i`` takes ``p_i / v_q`` time on it) while the
storage model is unchanged (code size does not depend on speed).

Two heuristics are provided, with the honest caveat that they carry the
classical uniform-machines guarantees only on the makespan side:

* :func:`uniform_list_schedule` — earliest-completion-time list scheduling,
  the standard 2-approximation-style heuristic for ``Q || Cmax``;
* :func:`uniform_rls` — the RLS_Δ recipe transplanted: a per-processor
  memory budget ``Δ · LB`` (the memory lower bound is speed-independent)
  and earliest-completion-time placement among processors with remaining
  budget.  Memory satisfies ``Mmax ≤ Δ · LB`` by construction whenever the
  run completes; the makespan bound is heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import mmax_lower_bound
from repro.core.instance import DAGInstance, Instance, _check_m
from repro.core.rls import InfeasibleDeltaError
from repro.core.schedule import Schedule
from repro.core.task import TaskSet

__all__ = ["UniformInstance", "uniform_list_schedule", "uniform_rls", "uniform_cmax_lower_bound"]


class UniformInstance(Instance):
    """An instance on uniform (related) machines.

    Parameters
    ----------
    tasks:
        The tasks (work ``p`` and storage ``s``).
    speeds:
        Per-processor speeds ``v_q > 0``; ``m`` is implied by their number.
        A task of work ``p_i`` runs for ``p_i / v_q`` time units on
        processor ``q``.
    """

    __slots__ = ("speeds",)

    def __init__(self, tasks, speeds: Sequence[float], name: Optional[str] = None) -> None:
        speeds = [float(v) for v in speeds]
        if not speeds:
            raise ValueError("at least one processor speed is required")
        if any(v <= 0 or not math.isfinite(v) for v in speeds):
            raise ValueError(f"all speeds must be finite and > 0, got {speeds}")
        super().__init__(tasks, m=len(speeds), name=name)
        self.speeds: List[float] = speeds

    @classmethod
    def from_lists(  # type: ignore[override]
        cls,
        p: Sequence[float],
        s: Sequence[float],
        speeds: Sequence[float],
        ids: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ) -> "UniformInstance":
        """Build a uniform-machines instance from parallel lists."""
        return cls(TaskSet.from_lists(p, s, ids=ids), speeds=speeds, name=name)

    def _extra_state(self) -> object:
        return self.speeds

    def _restore_extra(self, extra: object) -> None:
        self.speeds = extra  # type: ignore[assignment]

    def _fingerprint_parts(self) -> List[str]:
        parts = super()._fingerprint_parts()
        parts[0] = "kind=uniform"
        parts.extend(f"speed={v!r}" for v in self.speeds)
        return parts

    def execution_time(self, task_id: object, processor: int) -> float:
        """Running time of a task on a given processor (``p_i / v_q``)."""
        return self.task(task_id).p / self.speeds[processor]

    def as_identical(self) -> Instance:
        """Drop the speeds (treat every processor as speed 1)."""
        return Instance(self.tasks, m=self.m, name=self.name)

    # ------------------------------------------------------------------ #
    # (de)serialisation — the ``"uniform"`` wire kind
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON form with ``kind="uniform"`` (``m`` is implied by speeds)."""
        data = super().to_dict()
        data["kind"] = "uniform"
        data["speeds"] = list(self.speeds)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "UniformInstance":
        """Inverse of :meth:`to_dict`; validates ``m`` against the speeds."""
        speeds = [float(v) for v in data["speeds"]]  # type: ignore[union-attr]
        declared_m = data.get("m")
        if declared_m is not None and _check_m(declared_m) != len(speeds):  # type: ignore[arg-type]
            raise ValueError(
                f"uniform payload declares m={declared_m} but carries "
                f"{len(speeds)} speeds"
            )
        tasks = TaskSet.from_records(data["tasks"])  # type: ignore[arg-type]
        return cls(tasks, speeds=speeds, name=data.get("name"))  # type: ignore[arg-type]


def uniform_cmax_lower_bound(instance: UniformInstance) -> float:
    """Lower bound on ``C*max`` for uniform machines.

    ``max(total work / total speed, max_i p_i / v_max)`` — the fluid bound
    and the largest-task-on-the-fastest-machine bound.
    """
    total_speed = sum(instance.speeds)
    v_max = max(instance.speeds)
    total_work = instance.tasks.total_p
    max_task = instance.tasks.max_p
    if total_speed == 0:
        return 0.0
    return max(total_work / total_speed, max_task / v_max if v_max > 0 else 0.0)


@dataclass(frozen=True)
class UniformScheduleResult:
    """Outcome of the uniform-machines heuristics."""

    schedule: Schedule
    cmax: float
    mmax: float
    memory_budget: Optional[float]


def _build_schedule(
    instance: UniformInstance,
    assignment: Dict[object, int],
    starts: Dict[object, float],
    finishes: Dict[object, float],
) -> Schedule:
    # A timed schedule computes completion as start + p, which is wrong under
    # speeds; we therefore store *stretched* start times so that the
    # intervals [start, start + p/v] map onto an identical-machines timeline
    # only for reporting purposes.  To keep objective values exact we build
    # the schedule on a speed-scaled clone of the tasks.
    scaled_tasks = TaskSet(
        t.scaled(p_factor=1.0 / instance.speeds[assignment[t.id]]) for t in instance.tasks
    )
    scaled_instance = DAGInstance(scaled_tasks, m=instance.m, name=instance.name)
    return Schedule(scaled_instance, assignment, start_times=starts)


def uniform_list_schedule(
    instance: UniformInstance,
    order: str = "lpt",
) -> UniformScheduleResult:
    """Earliest-completion-time list scheduling on uniform machines.

    Tasks are considered in the given order (LPT by default) and each is
    placed on the processor where it would *complete* first, accounting for
    speeds.
    """
    ranked = instance.tasks.sorted_by("p", reverse=(order == "lpt")) if order in ("lpt", "spt") else instance.tasks.tasks
    ready_time = [0.0] * instance.m
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    finishes: Dict[object, float] = {}
    for task in ranked:
        best_q = min(
            range(instance.m),
            key=lambda q: (ready_time[q] + task.p / instance.speeds[q], q),
        )
        starts[task.id] = ready_time[best_q]
        finishes[task.id] = ready_time[best_q] + task.p / instance.speeds[best_q]
        ready_time[best_q] = finishes[task.id]
        assignment[task.id] = best_q
    schedule = _build_schedule(instance, assignment, starts, finishes)
    memories = [0.0] * instance.m
    for task in instance.tasks:
        memories[assignment[task.id]] += task.s
    return UniformScheduleResult(
        schedule=schedule,
        cmax=max(finishes.values(), default=0.0),
        mmax=max(memories, default=0.0),
        memory_budget=None,
    )


def uniform_rls(
    instance: UniformInstance,
    delta: float,
    order: str = "lpt",
) -> UniformScheduleResult:
    """Memory-budgeted earliest-completion-time scheduling on uniform machines.

    The RLS_Δ recipe with speeds: the Graham memory bound ``LB`` is
    speed-independent, every processor's cumulative storage is capped at
    ``Δ · LB``, and each task goes to the feasible processor where it
    completes first.  ``Δ >= 2`` is always feasible by the same argument as
    in the identical-machines case.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    lb = mmax_lower_bound(instance)
    budget = delta * lb
    eps = 1e-12 * max(1.0, budget)
    ranked = instance.tasks.sorted_by("p", reverse=(order == "lpt")) if order in ("lpt", "spt") else instance.tasks.tasks
    ready_time = [0.0] * instance.m
    memories = [0.0] * instance.m
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    finishes: Dict[object, float] = {}
    for task in ranked:
        feasible = [q for q in range(instance.m) if memories[q] + task.s <= budget + eps]
        if not feasible:
            raise InfeasibleDeltaError(task.id, delta, budget)
        best_q = min(feasible, key=lambda q: (ready_time[q] + task.p / instance.speeds[q], q))
        starts[task.id] = ready_time[best_q]
        finishes[task.id] = ready_time[best_q] + task.p / instance.speeds[best_q]
        ready_time[best_q] = finishes[task.id]
        memories[best_q] += task.s
        assignment[task.id] = best_q
    schedule = _build_schedule(instance, assignment, starts, finishes)
    return UniformScheduleResult(
        schedule=schedule,
        cmax=max(finishes.values(), default=0.0),
        mmax=max(memories, default=0.0),
        memory_budget=budget,
    )
