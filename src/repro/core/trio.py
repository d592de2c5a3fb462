"""Tri-objective extension of ``RLS_Δ`` on independent tasks (§5.2).

Running ``RLS_Δ`` with the SPT order as the tie-breaking total order keeps
the bi-objective guarantees of Corollary 3 *and* adds a guarantee on the
sum of completion times.  The argument (Lemma 6) is that forbidding a
fraction of the processors degrades an SPT schedule's ``sum Ci`` by at most
``(1/ρ + 1)`` where ``ρ`` is the fraction of processors kept; since RLS_Δ
always keeps ``m (Δ-2)/(Δ-1)`` processors unconstrained, Corollary 4 gives

    ``(Cmax, Mmax, sum Ci)``-ratios of
    ``(2 + 1/(Δ-2) - (Δ-1)/(m(Δ-2)),  Δ,  2 + 1/(Δ-2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from repro.core.bounds import sum_ci_lower_bound
from repro.core.instance import DAGInstance, Instance
from repro.core.rls import RLSResult, rls, rls_guarantee
from repro.core.schedule import Schedule

__all__ = ["TriObjectiveResult", "tri_objective_schedule", "tri_objective_guarantee"]


@dataclass(frozen=True)
class TriObjectiveResult:
    """Outcome of :func:`tri_objective_schedule`.

    Wraps the underlying :class:`~repro.core.rls.RLSResult` and adds the
    ``sum Ci`` reference value (the SPT optimum) and guarantee.
    """

    rls_result: RLSResult
    sum_ci_optimal: float
    sum_ci_guarantee: float

    @property
    def schedule(self) -> Schedule:
        """The produced schedule."""
        return self.rls_result.schedule

    @property
    def cmax(self) -> float:
        return self.rls_result.cmax

    @property
    def mmax(self) -> float:
        return self.rls_result.mmax

    @property
    def sum_ci(self) -> float:
        return self.rls_result.sum_ci

    @property
    def guarantees(self) -> Tuple[float, float, float]:
        """``(Cmax, Mmax, sum Ci)`` guarantee triple of Corollary 4."""
        return (
            self.rls_result.cmax_guarantee,
            self.rls_result.mmax_guarantee,
            self.sum_ci_guarantee,
        )


def tri_objective_guarantee(delta: float, m: int) -> Tuple[float, float, float]:
    """The ``(2 + 1/(Δ-2) - (Δ-1)/(m(Δ-2)), Δ, 2 + 1/(Δ-2))`` triple of Corollary 4."""
    cmax_g, mmax_g = rls_guarantee(delta, m)
    sum_ci_g = math.inf if delta <= 2.0 else 2.0 + 1.0 / (delta - 2.0)
    return (cmax_g, mmax_g, sum_ci_g)


def tri_objective_schedule(
    instance: Union[Instance, DAGInstance],
    delta: float,
) -> TriObjectiveResult:
    """Run ``RLS_Δ`` with SPT tie-breaking on an independent-task instance.

    Precedence-constrained instances are rejected: the ``sum Ci`` guarantee
    of Corollary 4 only holds for independent tasks (SPT is only optimal
    there).
    """
    if isinstance(instance, DAGInstance) and not instance.is_independent():
        raise ValueError(
            "the tri-objective guarantee of Corollary 4 only holds for independent tasks"
        )
    base = instance.as_independent() if isinstance(instance, DAGInstance) else instance
    result = rls(base, delta, order="spt")
    optimal = sum_ci_lower_bound(base)
    _, _, sum_ci_g = tri_objective_guarantee(delta, base.m)
    return TriObjectiveResult(
        rls_result=result,
        sum_ci_optimal=optimal,
        sum_ci_guarantee=sum_ci_g,
    )
