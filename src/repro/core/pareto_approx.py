"""Approximate Pareto-set generation by sweeping the Δ parameter.

Section 6 of the paper contrasts absolute approximation (one solution
approximating all objectives — the route the paper takes) with *Pareto set
approximation* (return a set of solutions such that every feasible point is
within ``(1+ε)`` of some returned point, in the sense of Papadimitriou &
Yannakakis).  The paper notes that all of its algorithms "can be tuned using
the Δ parameter", which is exactly what is needed to build such a set:

* for independent tasks, sweep ``SBO_Δ`` over a geometric grid of Δ values —
  the guarantee ``((1+Δ)ρ, (1+1/Δ)ρ)`` of adjacent grid points differs by at
  most the grid step, so the returned set is an ``(1+ε)``-cover of the
  guarantee curve;
* for DAGs, sweep ``RLS_Δ`` over Δ > 2.

The returned set is filtered to its non-dominated subset and each point
carries the schedule achieving it, so a decision maker (or the constrained
solver) can pick a trade-off after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.instance import DAGInstance, Instance
from repro.core.pareto import ParetoFront
from repro.core.rls import InfeasibleDeltaError, rls
from repro.core.sbo import combine_schedules
from repro.core.schedule import Schedule
from repro.solvers.single import get_single_objective_solver

__all__ = [
    "ApproximateParetoSet",
    "delta_grid",
    "approximate_pareto_set",
    "approximate_pareto_set_dag",
]

@dataclass(frozen=True)
class ApproximateParetoSet:
    """An approximate Pareto set of schedules for one instance.

    Attributes
    ----------
    front:
        The non-dominated ``(Cmax, Mmax)`` points with their schedules.
    deltas:
        The Δ grid that was swept.
    epsilon:
        The grid ratio: adjacent Δ values differ by a factor ``1 + epsilon``.
    algorithm:
        ``"sbo"`` or ``"rls"``.
    """

    front: ParetoFront[Schedule]
    deltas: Tuple[float, ...]
    epsilon: float
    algorithm: str

    @property
    def points(self) -> List[Tuple[float, float]]:
        """The non-dominated objective vectors, sorted by increasing ``Cmax``."""
        return [(v[0], v[1]) for v in self.front.values()]

    def schedules(self) -> List[Schedule]:
        """Schedules achieving the front points (same order as :attr:`points`)."""
        return [p for p in self.front.payloads() if p is not None]

    def best_under_memory(self, capacity: float) -> Optional[Schedule]:
        """The best-makespan schedule of the set whose ``Mmax`` fits ``capacity``."""
        best: Optional[Schedule] = None
        for point in self.front.points():
            if point.values[1] <= capacity + 1e-9 and point.payload is not None:
                if best is None or point.payload.cmax < best.cmax:
                    best = point.payload
        return best

    def best_under_makespan(self, deadline: float) -> Optional[Schedule]:
        """The lowest-memory schedule of the set whose ``Cmax`` fits ``deadline``."""
        best: Optional[Schedule] = None
        for point in self.front.points():
            if point.values[0] <= deadline + 1e-9 and point.payload is not None:
                if best is None or point.payload.mmax < best.mmax:
                    best = point.payload
        return best

    def __len__(self) -> int:
        return len(self.front)


def delta_grid(
    epsilon: float,
    delta_min: float,
    delta_max: float,
) -> List[float]:
    """Geometric grid of Δ values with ratio ``1 + epsilon`` covering ``[delta_min, delta_max]``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not (0 < delta_min <= delta_max):
        raise ValueError(f"need 0 < delta_min <= delta_max, got {delta_min}, {delta_max}")
    grid = [delta_min]
    while grid[-1] < delta_max:
        grid.append(min(grid[-1] * (1.0 + epsilon), delta_max))
        if len(grid) > 10_000:  # pragma: no cover - guards absurd inputs
            break
    return grid


def approximate_pareto_set(
    instance: Union[Instance, DAGInstance],
    epsilon: float = 0.25,
    solver: str = "lpt",
    delta_min: float = 1.0 / 16.0,
    delta_max: float = 16.0,
) -> ApproximateParetoSet:
    """Approximate Pareto set for independent tasks by sweeping ``SBO_Δ``.

    The grid covers ``[delta_min, delta_max]`` with ratio ``1 + epsilon``;
    because the SBO guarantee pair moves continuously (and monotonically in
    each coordinate) with Δ, the guarantee curve is covered within a factor
    ``1 + epsilon`` in each objective by the returned set.
    """
    base = instance.as_independent() if isinstance(instance, DAGInstance) else instance
    grid = delta_grid(epsilon, delta_min, delta_max)
    front: ParetoFront[Schedule] = ParetoFront(dim=2)
    # π1 and π2 do not depend on Δ: solve them once, combine per grid point.
    solve_single = get_single_objective_solver(solver)
    pi1, _ = solve_single(base, "time")
    pi2, _ = solve_single(base, "memory")
    for delta in grid:
        schedule, _ = combine_schedules(base, delta, pi1, pi2)
        front.add((schedule.cmax, schedule.mmax), schedule)
    return ApproximateParetoSet(
        front=front, deltas=tuple(grid), epsilon=epsilon, algorithm="sbo"
    )


def approximate_pareto_set_dag(
    instance: Union[Instance, DAGInstance],
    epsilon: float = 0.25,
    order: str = "bottom-level",
    delta_min: float = 2.0,
    delta_max: float = 16.0,
) -> ApproximateParetoSet:
    """Approximate Pareto set for DAG instances by sweeping ``RLS_Δ`` over ``Δ >= 2``.

    Values of Δ below 2 are attempted too (down to the smallest feasible
    budget) but silently skipped when infeasible, so the returned set always
    contains at least the guaranteed Δ ∈ [2, delta_max] sweep.
    """
    if delta_min <= 0:
        raise ValueError(f"delta_min must be > 0, got {delta_min}")
    dag = instance if isinstance(instance, DAGInstance) else instance.as_dag()
    grid = delta_grid(epsilon, delta_min, delta_max)
    front: ParetoFront[Schedule] = ParetoFront(dim=2)
    swept: List[float] = []
    for delta in grid:
        try:
            schedule = rls(dag, delta, order=order).schedule
        except InfeasibleDeltaError:
            continue
        swept.append(delta)
        front.add((schedule.cmax, schedule.mmax), schedule)
    return ApproximateParetoSet(
        front=front, deltas=tuple(swept), epsilon=epsilon, algorithm="rls"
    )
