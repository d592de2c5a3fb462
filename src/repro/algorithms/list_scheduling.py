"""Graham List Scheduling for independent tasks and DAGs.

List Scheduling [Graham 1969] considers the tasks in a given priority order
and greedily assigns each one to the processor on which it can start the
earliest.  For independent tasks this is the classic ``2 - 1/m``
approximation of ``P || Cmax``; the same guarantee extends to precedence
constraints.  The paper uses it both as the single-objective sub-solver of
``SBO_Δ`` (§3) and as the template that ``RLS_Δ`` restricts (§5.1).

Two entry points are provided:

* :func:`list_schedule` — assignment-only schedules for independent tasks,
  with the objective switchable between processing time and memory;
* :func:`graham_dag_schedule` — timed list schedules for DAG instances
  (memory-oblivious; the memory-aware variant is
  :func:`repro.core.rls.rls`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Union

from repro.core.instance import DAGInstance, Instance
from repro.core.schedule import Schedule

__all__ = ["list_schedule", "list_guarantee", "graham_dag_schedule"]

#: Named priority orders accepted by the list-scheduling entry points.
_ORDERS = ("arbitrary", "spt", "lpt", "sms", "lms", "density")


#: Named orders as ``(column, reverse)`` arguments of ``TaskSet.order_by``.
_NAMED = {
    "spt": ("p", False), "lpt": ("p", True), "sms": ("s", False),
    "lms": ("s", True), "density": ("density", False),
}


def _order_positions(
    instance: Instance,
    order: Union[str, Sequence[object], None],
) -> List[int]:
    """Resolve a priority-order specification into task positions.

    ``order`` may be a named policy (``"arbitrary"`` — instance order,
    ``"spt"``, ``"lpt"``, ``"sms"`` — smallest memory size first, ``"lms"``
    — largest memory size first, ``"density"`` — increasing ``p/s``), an
    explicit sequence of task ids, or ``None`` (instance order).  Ties
    keep instance order.
    """
    if order is None or order == "arbitrary":
        return list(range(instance.n))
    if isinstance(order, str):
        if order in _NAMED:
            return instance.tasks.order_by(*_NAMED[order])
        raise ValueError(f"unknown order {order!r}; expected one of {_ORDERS} or a task-id sequence")
    positions = [instance.tasks.position(tid) for tid in order]
    if len(positions) != instance.n or len(set(positions)) != instance.n:
        raise ValueError("explicit order must list every task id exactly once")
    return positions


def list_guarantee(m: int) -> float:
    """Graham's ``2 - 1/m`` approximation ratio for arbitrary-order list scheduling."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 2.0 - 1.0 / m


def list_schedule(
    instance: Instance,
    order: Union[str, Sequence[object], None] = None,
    objective: str = "time",
) -> Schedule:
    """Graham list scheduling of independent tasks.

    Tasks are taken in the given priority order and each is placed on the
    processor with the smallest accumulated weight, where the weight is the
    processing time when ``objective="time"`` (minimizing ``Cmax``) or the
    storage size when ``objective="memory"`` (minimizing ``Mmax``, the
    symmetric problem of §2.1).

    Guarantee: ``2 - 1/m`` on the chosen objective [Graham 1969]; ``4/3 -
    1/(3m)`` when combined with the LPT/LMS order.
    """
    positions = _order_positions(instance, order)
    _, p, s = instance.tasks.columns
    if objective == "time":
        weights = p
    elif objective == "memory":
        weights = s
    else:
        raise ValueError(f"unknown objective {objective!r}; expected 'time' or 'memory'")
    procs = [0] * instance.n
    per_proc: List[List[int]] = [[] for _ in range(instance.m)]
    # Machine ledger as a min-heap of (load, q): the root is exactly the
    # ``min(range(m), key=(load, q))`` machine of the naive scan — tuple
    # comparison breaks load ties by processor index — and each machine
    # always has exactly one live entry (pop root, push it back updated),
    # so placement is O(log m) instead of O(m) with no stale entries.
    # Loads accumulate the same floats in the same per-machine order as
    # the scan, hence assignments are bit-identical.
    ledger = [(0.0, q) for q in range(instance.m)]
    heapreplace = heapq.heapreplace
    for i in positions:
        load, q = ledger[0]
        procs[i] = q
        per_proc[q].append(i)
        heapreplace(ledger, (load + weights[i], q))
    seq = None if order is None or order == "arbitrary" else positions
    return Schedule._trusted(instance, procs, per_proc, seq)


def graham_dag_schedule(
    instance: Union[Instance, DAGInstance],
    priority: Union[str, Sequence[object], None] = None,
) -> Schedule:
    """Memory-oblivious Graham list scheduling of a DAG instance.

    At every step the ready task that can start the earliest is placed on
    the least-loaded processor; ties between tasks are broken by the given
    priority order (the "arbitrary total ordering" of §5.1).  The resulting
    schedule has no idle time while a task is ready, which yields the
    classical ``2 - 1/m`` guarantee on ``Cmax`` under precedence
    constraints.

    This is exactly ``RLS_Δ`` with the memory restriction removed
    (``Δ = ∞``); it serves as the makespan-oriented baseline of the
    DAG experiments.
    """
    if not isinstance(instance, DAGInstance):
        instance = instance.as_dag()
    ids = instance.tasks.columns[0]
    rank = {ids[i]: idx for idx, i in enumerate(_order_positions(instance, priority))}
    graph = instance.graph
    p = instance.tasks.processing_times()

    # The target machine is the least-loaded processor — it does not depend
    # on which ready task is being considered, so it is chosen once per
    # step (the seed implementation re-evaluated a ``min`` over machines
    # inside the ready-task scan, making each step O(|ready| * m)).  The
    # machine ledger is a min-heap of (load, q) with one live entry per
    # machine; tuple order reproduces the scan's (load, index) tie-break.
    ledger = [(0.0, q) for q in range(instance.m)]
    remaining_preds = {tid: graph.in_degree(tid) for tid in instance.tasks.ids}
    completion: Dict[object, float] = {}
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}

    # Ready tasks, keyed for the (start, rank) selection where
    # ``start = max(release, load_q)`` and ``load_q`` is the root load of
    # the machine ledger.  ``load_q`` never decreases (only the committed
    # machine's load grows each step), so the ready set splits into
    #   * ``avail``  — release <= load_q: start == load_q for all of them,
    #     the winner is simply the smallest rank;
    #   * ``future`` — release > load_q: start == release, the winner is
    #     the smallest (release, rank);
    # and tasks migrate monotonically from ``future`` to ``avail`` as
    # ``load_q`` advances.  Ranks are a permutation (unique), so each
    # selection has a unique winner — identical to the seed's full scan.
    avail: List[tuple] = []  # (rank, tid)
    future: List[tuple] = []  # (release, rank, tid)
    for tid, deg in remaining_preds.items():
        if deg == 0:
            future.append((0.0, rank[tid], tid))
    heapq.heapify(future)

    heappush, heappop = heapq.heappush, heapq.heappop
    for _ in range(instance.n):
        load_q, q = ledger[0]
        while future and future[0][0] <= load_q:
            release, r, tid = heappop(future)
            heappush(avail, (r, tid))
        if avail:
            r, tid = heappop(avail)
            start = load_q
        else:
            assert future, "DAG has unscheduled tasks but none ready"
            release, r, tid = heappop(future)
            start = release
        assignment[tid] = q
        starts[tid] = start
        done = start + p[tid]
        completion[tid] = done
        heapq.heapreplace(ledger, (done, q))
        for succ in graph.successors(tid):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                rel = max((completion[u] for u in graph.predecessors(succ)), default=0.0)
                heappush(future, (rel, rank[succ], succ))

    return Schedule._from_placement(instance, assignment, starts)
