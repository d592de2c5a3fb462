"""Single-objective sub-solvers used inside ``SBO_Δ`` and the facade.

``SBO_Δ`` (Algorithm 1) combines two single-objective schedules; this
module names the available sub-solvers (``"list"``, ``"lpt"``,
``"multifit"``, ``"ptas"``, ``"ptas-fine"``, ``"exact"``).  Each solver is
a callable ``solver(instance, objective) -> (Schedule, rho)`` where
``rho`` is the approximation ratio certified on the chosen objective for
the instance's processor count; the guarantee is what Property 1/2
multiply by ``(1 + Δ)`` and ``(1 + 1/Δ)``.

This module supersedes the string-keyed registry that used to live in
``repro.algorithms.registry``; the unified capability-aware registry of
:mod:`repro.solvers.registry` builds on it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.algorithms.exact import exact_schedule
from repro.algorithms.list_scheduling import list_guarantee, list_schedule
from repro.algorithms.lpt import lpt_guarantee, lpt_schedule
from repro.algorithms.multifit import multifit_guarantee, multifit_schedule
from repro.algorithms.ptas import ptas_schedule
from repro.core.instance import Instance
from repro.core.schedule import Schedule

__all__ = [
    "SolverFn",
    "PTAS_EPSILONS",
    "get_single_objective_solver",
    "available_single_objective_solvers",
    "make_ptas_solver",
]

#: Default accuracy of the registered PTAS variants (single source of truth
#: for both this registry and the unified registry's entries/guarantees).
PTAS_EPSILONS = {"ptas": 0.2, "ptas-fine": 0.1}

#: Signature of a sub-solver: (instance, objective) -> (schedule, guaranteed ratio).
SolverFn = Callable[[Instance, str], Tuple[Schedule, float]]


def _list_solver(instance: Instance, objective: str) -> Tuple[Schedule, float]:
    schedule = list_schedule(instance, order="arbitrary", objective=objective)
    return schedule, list_guarantee(instance.m)


def _lpt_solver(instance: Instance, objective: str) -> Tuple[Schedule, float]:
    schedule = lpt_schedule(instance, objective=objective)
    return schedule, lpt_guarantee(instance.m)


def _multifit_solver(instance: Instance, objective: str) -> Tuple[Schedule, float]:
    schedule = multifit_schedule(instance, objective=objective)
    return schedule, multifit_guarantee()


def make_ptas_solver(epsilon: float) -> SolverFn:
    """A PTAS sub-solver at accuracy ``epsilon`` (ratio ``1 + ε`` when exact)."""

    def solver(instance: Instance, objective: str) -> Tuple[Schedule, float]:
        result = ptas_schedule(instance, epsilon=epsilon, objective=objective)
        return result.schedule, result.guarantee

    return solver


def _exact_solver(instance: Instance, objective: str) -> Tuple[Schedule, float]:
    return exact_schedule(instance, objective=objective), 1.0


_SINGLE_OBJECTIVE: Dict[str, SolverFn] = {
    "list": _list_solver,
    "lpt": _lpt_solver,
    "multifit": _multifit_solver,
    "ptas": make_ptas_solver(epsilon=PTAS_EPSILONS["ptas"]),
    "ptas-fine": make_ptas_solver(epsilon=PTAS_EPSILONS["ptas-fine"]),
    "exact": _exact_solver,
}


def available_single_objective_solvers() -> List[str]:
    """Names of the registered single-objective sub-solvers."""
    return sorted(_SINGLE_OBJECTIVE)


def get_single_objective_solver(name: str) -> SolverFn:
    """Look up a sub-solver by name; raises :class:`KeyError` with the valid names."""
    try:
        return _SINGLE_OBJECTIVE[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; available solvers: "
            f"{', '.join(available_single_objective_solvers())}"
        ) from None
