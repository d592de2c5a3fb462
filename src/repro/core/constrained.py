"""Resolving the original storage-constrained problem (§2.2 and §7).

The industrially-relevant problem is: *minimize ``Cmax`` subject to
``Mmax <= M``* for a given per-processor capacity ``M``.  Section 2.2 shows
this cannot be approximated (deciding feasibility is already strongly
NP-complete), which is why the paper turns the constraint into an
objective.  Section 7 then explains how the bi-objective machinery resolves
the constrained problem in practice:

* compute the Graham lower bound ``LB`` on ``M*max``; if ``M < LB`` the
  instance is certainly infeasible;
* otherwise set ``Δ = M / LB``: when ``Δ >= 2``, ``RLS_Δ`` is guaranteed to
  return a schedule with ``Mmax <= Δ·LB = M``, with the makespan guarantee
  of Corollary 3 read off at that ``Δ``;
* for independent tasks, the solution can be tentatively improved by a
  binary search on the parameter (here: on SBO's ``Δ`` and on RLS's ``Δ``),
  keeping the best feasible schedule found;
* when ``Δ < 2`` ("it is difficult to fit the tasks due to the memory
  constraint") no guarantee is possible; the solver still tries RLS at the
  given budget and reports failure honestly if nothing feasible is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.bounds import mmax_lower_bound
from repro.core.instance import DAGInstance, Instance
from repro.core.rls import InfeasibleDeltaError, rls, rls_guarantee
from repro.core.sbo import sbo
from repro.core.schedule import Schedule

__all__ = ["ConstrainedResult", "solve_constrained"]

@dataclass(frozen=True)
class ConstrainedResult:
    """Outcome of :func:`solve_constrained`.

    Attributes
    ----------
    feasible:
        ``True`` when a schedule respecting the memory capacity was found.
    certified_infeasible:
        ``True`` when the instance is provably infeasible
        (``capacity < max_i s_i``, a single task does not fit anywhere).
    schedule:
        The best feasible schedule found (``None`` when ``feasible`` is
        ``False``).
    cmax:
        Its makespan (``inf`` when infeasible).
    mmax:
        Its memory consumption.
    delta:
        The effective ``Δ = capacity / LB`` implied by the capacity.
    cmax_guarantee:
        The Corollary 3 makespan guarantee available at that ``Δ``
        (``inf`` when ``Δ <= 2``).
    strategy:
        Which method produced the returned schedule (``"rls"``,
        ``"rls-binary-search"``, ``"sbo-binary-search"``).
    """

    feasible: bool
    certified_infeasible: bool
    schedule: Optional[Schedule]
    cmax: float
    mmax: float
    delta: float
    cmax_guarantee: float
    strategy: Optional[str]


def _try_rls(
    instance: Union[Instance, DAGInstance], delta: float, order: str
) -> Optional[Schedule]:
    try:
        return rls(instance, delta, order=order).schedule
    except InfeasibleDeltaError:
        return None


def solve_constrained(
    instance: Union[Instance, DAGInstance],
    memory_capacity: float,
    order: str = "arbitrary",
    refine_iterations: int = 20,
    sbo_solver: str = "lpt",
) -> ConstrainedResult:
    """Best-effort resolution of ``min Cmax s.t. Mmax <= memory_capacity``.

    Parameters
    ----------
    instance:
        Independent-task or DAG instance.
    memory_capacity:
        Per-processor memory capacity ``M``.
    order:
        Tie-breaking order passed to ``RLS_Δ``.
    refine_iterations:
        Number of binary-search refinement steps on the ``Δ`` parameters.
    sbo_solver:
        Single-objective sub-solver used by the SBO refinement on
        independent tasks.
    """
    if memory_capacity < 0:
        raise ValueError(f"memory_capacity must be >= 0, got {memory_capacity}")
    lb = mmax_lower_bound(instance)
    max_task = max((t.s for t in instance.tasks), default=0.0)
    eps = 1e-9 * max(1.0, memory_capacity)

    # A task larger than the capacity fits nowhere: provably infeasible.
    if max_task > memory_capacity + eps:
        return ConstrainedResult(
            feasible=False,
            certified_infeasible=True,
            schedule=None,
            cmax=math.inf,
            mmax=math.inf,
            delta=memory_capacity / lb if lb > 0 else math.inf,
            cmax_guarantee=math.inf,
            strategy=None,
        )

    if lb == 0:
        # No memory demand at all: the constraint is vacuous; return the
        # memory-budget-free RLS schedule (plain list scheduling).
        schedule = rls(instance, delta=2.0, order=order).schedule
        return ConstrainedResult(
            feasible=True,
            certified_infeasible=False,
            schedule=schedule,
            cmax=schedule.cmax,
            mmax=schedule.mmax,
            delta=math.inf,
            cmax_guarantee=rls_guarantee(3.0, instance.m)[0],
            strategy="rls",
        )

    delta_cap = memory_capacity / lb
    candidates: List[Tuple[str, Schedule]] = []

    # 1. Direct RLS at the capacity-implied delta (the §7 recipe).
    direct = _try_rls(instance, delta_cap, order)
    if direct is not None and direct.mmax <= memory_capacity + eps:
        candidates.append(("rls", direct))

    # 2. Binary search on the RLS delta: a smaller delta keeps memory further
    #    below the capacity (slack for later tasks) but may lengthen the
    #    schedule or become infeasible; scan a few values and keep the best.
    lo = max_task / lb if lb > 0 else 0.0
    hi = delta_cap
    if hi > lo:
        for _ in range(refine_iterations):
            mid = 0.5 * (lo + hi)
            trial = _try_rls(instance, mid, order)
            if trial is not None and trial.mmax <= memory_capacity + eps:
                candidates.append(("rls-binary-search", trial))
                hi = mid
            else:
                lo = mid

    # 3. On independent tasks, also binary-search the SBO parameter: the
    #    smallest delta whose schedule still fits the capacity gives the best
    #    makespan among SBO solutions (Section 7's suggestion).
    is_independent = not isinstance(instance, DAGInstance) or instance.is_independent()
    if is_independent:
        base = instance.as_independent() if isinstance(instance, DAGInstance) else instance
        lo_d, hi_d = 1e-3, 64.0
        best_sbo: Optional[Schedule] = None
        hi_result = sbo(base, hi_d, cmax_solver=sbo_solver)
        if hi_result.schedule.mmax <= memory_capacity + eps:
            best_sbo = hi_result.schedule
            for _ in range(refine_iterations):
                mid = math.sqrt(lo_d * hi_d)
                trial = sbo(base, mid, cmax_solver=sbo_solver).schedule
                if trial.mmax <= memory_capacity + eps:
                    best_sbo = trial if trial.cmax < best_sbo.cmax else best_sbo
                    hi_d = mid
                else:
                    lo_d = mid
        if best_sbo is not None:
            candidates.append(("sbo-binary-search", best_sbo))

    if not candidates:
        return ConstrainedResult(
            feasible=False,
            certified_infeasible=False,
            schedule=None,
            cmax=math.inf,
            mmax=math.inf,
            delta=delta_cap,
            cmax_guarantee=rls_guarantee(delta_cap, instance.m)[0],
            strategy=None,
        )

    strategy, best = min(candidates, key=lambda item: (item[1].cmax, item[1].mmax))
    return ConstrainedResult(
        feasible=True,
        certified_infeasible=False,
        schedule=best,
        cmax=best.cmax,
        mmax=best.mmax,
        delta=delta_cap,
        cmax_guarantee=rls_guarantee(delta_cap, instance.m)[0],
        strategy=strategy,
    )
