"""repro — a reproduction of *Scheduling with Storage Constraints* (IPDPS 2008).

This package implements the bi-objective scheduling framework of
Saule, Dutot and Mounié: scheduling tasks on identical processors while
simultaneously minimizing the makespan ``Cmax`` and the maximum cumulative
memory occupation ``Mmax`` of any processor.

Top-level convenience re-exports cover the public API most users need:

* the problem model (:class:`~repro.core.task.Task`,
  :class:`~repro.core.instance.Instance`,
  :class:`~repro.core.instance.DAGInstance`,
  :class:`~repro.core.schedule.Schedule`),
* the paper's algorithms (:func:`~repro.core.sbo.sbo`,
  :func:`~repro.core.rls.rls`, :func:`~repro.core.trio.tri_objective_schedule`,
  :func:`~repro.core.constrained.solve_constrained`),
* the single-objective sub-solvers (``repro.algorithms``),
* lower bounds and Pareto utilities,
* the inapproximability constructions of Section 4
  (``repro.core.impossibility``),
* DAG generators, workload generators, and the discrete-event simulator.

Every algorithm is also reachable through the unified solver facade
(:mod:`repro.solvers`): :func:`solve` executes a spec string like
``"sbo(delta=1.0, inner=lpt)"`` against the capability-aware registry and
returns a uniform :class:`~repro.solvers.result.SolveResult`;
:func:`solve_many` batches (instance × spec) jobs over a process pool.

Quick start::

    from repro import Instance, solve

    inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
    result = solve(inst, "sbo(delta=1.0)")
    print(result.cmax, result.mmax, result.guarantee)
"""

from __future__ import annotations

from repro.core.task import Task, TaskSet
from repro.core.instance import Instance, DAGInstance
from repro.core.schedule import Schedule
from repro.core.objectives import evaluate, ObjectiveValues
from repro.core.bounds import (
    cmax_lower_bound,
    mmax_lower_bound,
    graham_memory_lower_bound,
    critical_path_lower_bound,
    sum_ci_lower_bound,
)
from repro.core.pareto import ParetoFront, dominates, pareto_filter
from repro.core.sbo import sbo, SBOResult, sbo_tradeoff_curve
from repro.core.rls import rls, RLSResult, minimum_feasible_delta
from repro.core.trio import tri_objective_schedule, TriObjectiveResult
from repro.core.constrained import solve_constrained, ConstrainedResult
from repro.core.pareto_approx import (
    ApproximateParetoSet,
    approximate_pareto_set,
    approximate_pareto_set_dag,
)
from repro.core import impossibility
from repro.periodic import HyperperiodBudgetError, PeriodicInstance, PeriodicTask
from repro.simulator import simulate_schedule, SimulationReport
from repro.solvers import (
    DiskCache,
    LRUCache,
    SolveResult,
    SolverCapabilityError,
    SolverSpec,
    SpecError,
    available_solvers,
    configure_cache,
    default_cache,
    solve,
    solve_many,
)

__version__ = "1.2.0"

__all__ = [
    "Task",
    "TaskSet",
    "Instance",
    "DAGInstance",
    "Schedule",
    "ObjectiveValues",
    "evaluate",
    "cmax_lower_bound",
    "mmax_lower_bound",
    "graham_memory_lower_bound",
    "critical_path_lower_bound",
    "sum_ci_lower_bound",
    "ParetoFront",
    "dominates",
    "pareto_filter",
    "sbo",
    "SBOResult",
    "sbo_tradeoff_curve",
    "rls",
    "RLSResult",
    "minimum_feasible_delta",
    "tri_objective_schedule",
    "TriObjectiveResult",
    "solve_constrained",
    "ConstrainedResult",
    "ApproximateParetoSet",
    "approximate_pareto_set",
    "approximate_pareto_set_dag",
    "impossibility",
    "PeriodicTask",
    "PeriodicInstance",
    "HyperperiodBudgetError",
    "simulate_schedule",
    "SimulationReport",
    "solve",
    "solve_many",
    "SolverSpec",
    "SolveResult",
    "SpecError",
    "SolverCapabilityError",
    "available_solvers",
    "configure_cache",
    "default_cache",
    "LRUCache",
    "DiskCache",
    "__version__",
]
