"""The common result protocol returned by :func:`repro.solvers.solve`.

Every algorithm in the package — ``SBO_Δ``, ``RLS_Δ``, the tri-objective
variant, the budget-constrained solver, and the single-objective
sub-solvers — adapts its bespoke result object (``SBOResult``,
``RLSResult``, ``TriObjectiveResult``, ``ConstrainedResult``, or a plain
``Schedule``) into a :class:`SolveResult` without losing anything: the
original object stays reachable through :attr:`SolveResult.raw`.

A :class:`SolveResult` carries:

* the produced :attr:`schedule` (``None`` only for an infeasible
  budget-constrained call),
* the measured :attr:`objectives` (:class:`~repro.core.objectives.ObjectiveValues`),
* the a-priori :attr:`guarantee` tuple ``(Cmax ratio, Mmax ratio[, sum Ci
  ratio])`` — ``inf`` marks an objective the solver does not guarantee,
* the measured :attr:`wall_time` in seconds (useful for throughput
  studies via :func:`repro.solvers.solve_many`),
* a :attr:`provenance` dict recording exactly which solver ran with which
  fully-bound parameters (``{"solver", "spec", "params", "version"}``),
  so results stay attributable long after the call site is gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.objectives import ObjectiveValues
from repro.core.schedule import Schedule

__all__ = ["SolveResult"]

@dataclass(frozen=True)
class SolveResult:
    """Uniform outcome of a :func:`repro.solvers.solve` call.

    Attributes
    ----------
    schedule:
        The produced schedule; ``None`` only when a budget-constrained
        solve found the instance infeasible (check :attr:`feasible`).
    objectives:
        Measured ``(Cmax, Mmax, sum Ci)`` record; all ``inf`` when
        infeasible.
    guarantee:
        A-priori approximation-ratio tuple ``(Cmax, Mmax)`` or
        ``(Cmax, Mmax, sum Ci)``; ``inf`` entries mark objectives the
        solver does not bound.
    wall_time:
        Wall-clock seconds spent inside the solver call.
    provenance:
        ``{"solver": name, "spec": canonical bound spec string,
        "params": fully-bound parameter dict, "version": repro version}``
        plus solver-specific extras (e.g. the constrained solver's
        ``strategy``).
    raw:
        The solver's native result object (``SBOResult``, ``RLSResult``,
        ``TriObjectiveResult``, ``ConstrainedResult``, ``PTASResult``) or
        ``None`` for solvers that return a bare schedule.
    """

    schedule: Optional[Schedule]
    objectives: ObjectiveValues
    guarantee: Tuple[float, ...]
    wall_time: float
    provenance: Dict[str, object] = field(default_factory=dict)
    raw: object = None

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def feasible(self) -> bool:
        """True when a schedule was produced."""
        return self.schedule is not None

    @property
    def cmax(self) -> float:
        return self.objectives.cmax

    @property
    def mmax(self) -> float:
        return self.objectives.mmax

    @property
    def sum_ci(self) -> float:
        return self.objectives.sum_ci

    @property
    def solver(self) -> str:
        """Name of the registry entry that produced this result."""
        return str(self.provenance.get("solver", "?"))

    @property
    def spec(self) -> str:
        """Canonical, fully-bound spec string (reproduces this call)."""
        return str(self.provenance.get("spec", self.solver))

    def guarantee_pair(self) -> Tuple[float, float]:
        """``(Cmax, Mmax)`` guarantee pair (padded with ``inf``)."""
        g = tuple(self.guarantee) + (math.inf, math.inf)
        return (g[0], g[1])

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not self.feasible:
            return f"{self.spec}: infeasible ({self.wall_time * 1e3:.2f} ms)"
        g = ", ".join("inf" if math.isinf(v) else f"{v:.3f}" for v in self.guarantee)
        return (
            f"{self.spec}: Cmax={self.cmax:g} Mmax={self.mmax:g} sumCi={self.sum_ci:g} "
            f"guarantee=({g}) ({self.wall_time * 1e3:.2f} ms)"
        )
