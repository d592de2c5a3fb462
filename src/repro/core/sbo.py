"""``SBO_Δ`` — the Symmetric Bi-Objective algorithm (Algorithm 1, §3).

The algorithm runs two single-objective solvers on *all* the tasks:

* ``π1`` — a ``ρ1``-approximation on the makespan (ignoring memory),
* ``π2`` — a ``ρ2``-approximation on the memory consumption (ignoring time),

and then picks, task by task, which of the two allocations to follow.  The
choice thresholds the time-per-memory ratio: task ``i`` follows the
memory-oriented allocation ``π2`` when ``p_i / C < Δ · s_i / M`` (it is
memory-dominated at scale Δ) and the makespan-oriented allocation ``π1``
otherwise, where ``C = Cmax(π1)`` and ``M = Mmax(π2)``.

Guarantees (Properties 1 and 2):

* ``Cmax(π_Δ) <= (1 + Δ) · ρ1 · C*max``,
* ``Mmax(π_Δ) <= (1 + 1/Δ) · ρ2 · M*max``.

With the PTAS as sub-solver (``ρ1 = ρ2 = 1 + ε``) this yields Corollary 1's
``(1 + Δ + ε, 1 + 1/Δ + ε)`` family, and ``Δ = 1`` gives the balanced
``(2 + ε, 2 + ε)`` point.

The algorithm only works for independent tasks: feeding it a
:class:`~repro.core.instance.DAGInstance` with precedence edges raises
``ValueError`` (use :func:`repro.core.rls.rls` instead, §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import List, Sequence, Tuple, Union

from repro.solvers.single import SolverFn, get_single_objective_solver
from repro.core.instance import DAGInstance, Instance
from repro.core.schedule import Schedule

__all__ = [
    "SBOResult", "sbo", "sbo_guarantee", "sbo_tradeoff_curve", "combine_schedules",
]


@dataclass(frozen=True)
class SBOResult:
    """Outcome of :func:`sbo`.

    Attributes
    ----------
    schedule:
        The combined schedule ``π_Δ``.
    delta:
        The trade-off parameter Δ used.
    pi1, pi2:
        The two single-objective schedules that were combined.
    reference_cmax:
        ``C`` — the makespan of ``π1`` used in the threshold test.
    reference_mmax:
        ``M`` — the memory consumption of ``π2`` used in the threshold test.
    rho1, rho2:
        Approximation ratios guaranteed by the two sub-solvers.
    cmax_guarantee, mmax_guarantee:
        The resulting guarantees ``(1 + Δ)ρ1`` and ``(1 + 1/Δ)ρ2``.
    memory_driven_tasks:
        Ids of tasks that followed the memory-oriented allocation ``π2``
        (the set ``S2`` of the proofs).
    """

    schedule: Schedule
    delta: float
    pi1: Schedule
    pi2: Schedule
    reference_cmax: float
    reference_mmax: float
    rho1: float
    rho2: float
    cmax_guarantee: float
    mmax_guarantee: float
    memory_driven_tasks: Tuple[object, ...]

    @property
    def cmax(self) -> float:
        """Makespan of the combined schedule."""
        return self.schedule.cmax

    @property
    def mmax(self) -> float:
        """Maximum memory consumption of the combined schedule."""
        return self.schedule.mmax


def sbo_guarantee(delta: float, rho1: float = 1.0, rho2: float = 1.0) -> Tuple[float, float]:
    """The ``((1 + Δ)ρ1, (1 + 1/Δ)ρ2)`` guarantee pair of Properties 1–2."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return ((1.0 + delta) * rho1, (1.0 + 1.0 / delta) * rho2)


def sbo_tradeoff_curve(
    deltas: Sequence[float], rho1: float = 1.0, rho2: float = 1.0
) -> List[Tuple[float, float, float]]:
    """Theoretical trade-off curve ``Δ -> ((1+Δ)ρ1, (1+1/Δ)ρ2)``.

    This is the dashed curve of Figure 3 (with ``ρ1 = ρ2 = 1``, i.e. the
    PTAS limit ``ε -> 0``).  Returns ``(delta, cmax_ratio, mmax_ratio)``
    triples.
    """
    return [(d, *sbo_guarantee(d, rho1, rho2)) for d in deltas]


def _as_independent(instance: Union[Instance, DAGInstance]) -> Instance:
    if isinstance(instance, DAGInstance):
        if not instance.is_independent():
            raise ValueError(
                "SBO_delta only handles independent tasks (the paper's Section 3); "
                "use repro.core.rls.rls for precedence-constrained instances"
            )
        return instance.as_independent()
    return instance


def _on(instance: Instance, schedule: Schedule) -> Schedule:
    """``schedule`` with its processor vector aligned to ``instance``'s task positions."""
    if schedule.instance.tasks.columns[0] == instance.tasks.columns[0]:
        return schedule
    return Schedule(instance, schedule.assignment)


def _follow(instance: Instance, schedule: Schedule) -> Schedule:
    """``schedule``'s assignment on ``instance``, run in instance order."""
    return Schedule._trusted(instance, list(schedule._procs), None, schedule._seq)


def combine_schedules(
    instance: Instance, delta: float, pi1: Schedule, pi2: Schedule
) -> Tuple[Schedule, List[int]]:
    """Algorithm 1's per-task choice between ``π1`` and ``π2`` at one ``Δ``.

    Returns the combined schedule and the task positions that followed
    ``π2`` (the set ``S2``).  ``π1``/``π2`` do not depend on ``Δ``, so a Δ
    sweep solves them once and calls this per grid point.  The choice runs
    over the processor vectors, so no mapping is built per point.
    """
    reference_cmax = pi1.cmax
    reference_mmax = pi2.mmax
    pi1, pi2 = _on(instance, pi1), _on(instance, pi2)
    # The zero-reference degenerate cases are loop-invariant, so the
    # per-task work reduces to the cross-multiplied threshold test of
    # Algorithm 1 (p_i / C < delta * s_i / M, robust to C or M being 0).
    # A degenerate case copies one schedule whole, keeping its key order.
    if reference_cmax == 0.0:
        if reference_mmax == 0.0:
            return _follow(instance, pi1), []
        # Every task has zero processing time; memory is the only concern.
        return _follow(instance, pi2), list(range(instance.n))
    if reference_mmax == 0.0:
        # Every task has zero storage; makespan is the only concern.
        return _follow(instance, pi1), []
    _, p, s = instance.tasks.columns
    follow2 = [
        pi * reference_mmax < delta * si * reference_cmax for pi, si in zip(p, s)
    ]
    procs = [
        q2 if second else q1 for second, q1, q2 in zip(follow2, pi1._procs, pi2._procs)
    ]
    return Schedule._trusted(instance, procs), list(compress(range(len(procs)), follow2))


def sbo(
    instance: Union[Instance, DAGInstance],
    delta: float,
    cmax_solver: Union[str, SolverFn] = "lpt",
    mmax_solver: Union[str, SolverFn, None] = None,
) -> SBOResult:
    """Run ``SBO_Δ`` (Algorithm 1) on an independent-task instance.

    Parameters
    ----------
    instance:
        The instance to schedule.  Precedence constraints are rejected.
    delta:
        Trade-off parameter ``Δ > 0``.  Small Δ favours the makespan
        (few tasks follow the memory schedule); large Δ favours memory.
    cmax_solver:
        Name of a registered solver (see
        :func:`repro.solvers.available_single_objective_solvers`) or a callable
        ``(instance, objective) -> (schedule, rho)`` used to build ``π1``.
    mmax_solver:
        Solver used to build ``π2``; defaults to the same solver as
        ``cmax_solver`` (exploiting the symmetry of the two objectives).
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    inst = _as_independent(instance)

    solver1 = (
        get_single_objective_solver(cmax_solver) if isinstance(cmax_solver, str) else cmax_solver
    )
    if mmax_solver is None:
        solver2 = solver1
    else:
        solver2 = (
            get_single_objective_solver(mmax_solver) if isinstance(mmax_solver, str) else mmax_solver
        )

    pi1, rho1 = solver1(inst, "time")
    pi2, rho2 = solver2(inst, "memory")
    reference_cmax = pi1.cmax
    reference_mmax = pi2.mmax

    schedule, memory_driven = combine_schedules(inst, delta, pi1, pi2)
    ids = inst.tasks.columns[0]
    cmax_guarantee, mmax_guarantee = sbo_guarantee(delta, rho1, rho2)
    return SBOResult(
        schedule=schedule,
        delta=delta,
        pi1=pi1,
        pi2=pi2,
        reference_cmax=reference_cmax,
        reference_mmax=reference_mmax,
        rho1=rho1,
        rho2=rho2,
        cmax_guarantee=cmax_guarantee,
        mmax_guarantee=mmax_guarantee,
        memory_driven_tasks=tuple(ids[i] for i in memory_driven),
    )
