"""Lower bounds on the optimal objective values.

The paper's analyses rest on a small set of classical lower bounds:

* the *area* (or average-load) bound ``sum_i p_i / m`` and the
  *largest-task* bound ``max_i p_i`` on ``C*max`` — together they form the
  Graham lower bound;
* the symmetric bound ``max(max_i s_i, sum_i s_i / m)`` on ``M*max`` — this
  is the ``LB`` computed by Algorithm 2 (RLS_Δ);
* the *critical path* bound on ``C*max`` for DAG instances (§5.1 uses
  ``|CP| <= C*max``);
* the SPT bound on ``sum Ci`` for independent tasks (SPT list scheduling is
  optimal on ``sum Ci``, §5.2).

These bounds are used both inside the algorithms (RLS_Δ caps per-processor
memory at ``Δ · LB``) and by the experiment harness to measure empirical
approximation ratios when exact optima are out of reach.
"""

from __future__ import annotations

import heapq
from typing import Union

import networkx as nx

from repro.core.instance import DAGInstance, Instance

__all__ = [
    "cmax_lower_bound",
    "mmax_lower_bound",
    "graham_memory_lower_bound",
    "critical_path_lower_bound",
    "critical_path_length",
    "sum_ci_lower_bound",
]


def _area_and_max(values, m: int) -> float:
    values = list(values)
    if not values:
        return 0.0
    return max(max(values), sum(values) / m)


def mmax_lower_bound(instance: Instance) -> float:
    """Graham lower bound on ``M*max``: ``max(max_i s_i, sum_i s_i / m)``.

    This is the ``LB`` of Algorithm 2 and is valid for independent tasks
    and DAG instances alike (precedence constraints cannot reduce the
    memory footprint of an assignment).
    """
    return _area_and_max(instance.tasks.columns[2], instance.m)


#: Alias matching the paper's terminology for the bound used by RLS_Δ.
graham_memory_lower_bound = mmax_lower_bound


def critical_path_length(instance: Union[Instance, DAGInstance]) -> float:
    """Length of the longest chain of the precedence graph (in processing time).

    For independent tasks the critical path degenerates to the longest
    single task.  The chain length includes the processing times of both
    endpoints.
    """
    if not isinstance(instance, DAGInstance) or instance.is_independent():
        return instance.tasks.max_p
    graph = instance.graph
    p = instance.tasks.processing_times()
    longest: dict = {}
    for node in nx.topological_sort(graph):
        best_pred = max((longest[u] for u in graph.predecessors(node)), default=0.0)
        longest[node] = best_pred + p[node]
    return max(longest.values(), default=0.0)


def critical_path_lower_bound(instance: Union[Instance, DAGInstance]) -> float:
    """Critical-path lower bound on ``C*max`` (``|CP| <= C*max``, §5.1)."""
    return critical_path_length(instance)


def cmax_lower_bound(instance: Union[Instance, DAGInstance]) -> float:
    """Graham lower bound on ``C*max``.

    ``max(max_i p_i, sum_i p_i / m)`` for independent tasks, additionally
    combined with the critical-path length for DAG instances.
    """
    area = _area_and_max(instance.tasks.columns[1], instance.m)
    return max(area, critical_path_length(instance))


def sum_ci_lower_bound(instance: Instance) -> float:
    """Optimal ``sum Ci`` for independent tasks (SPT list scheduling value).

    SPT list scheduling is optimal for ``P || sum Ci`` (§5.2 recalls this),
    so the value it achieves *is* the optimum and serves as an exact
    reference for the tri-objective experiments.  For DAG instances this is
    only a lower bound (the same relaxation ignoring precedence).
    """
    ids, p, _ = instance.tasks.columns
    spt = sorted(zip(p, map(str, ids)))
    # A (load, index) heap keeps the least-loaded, lowest-index tie-break of
    # a linear min scan, so the sum is bit-identical to it.
    loads = [(0.0, j) for j in range(instance.m)]
    total = 0.0
    for pi, _ in spt:
        load, q = loads[0]
        load += pi
        total += load
        heapq.heapreplace(loads, (load, q))
    return total
