"""``RLS_Δ`` — Restricted List Scheduling (Algorithm 2, §5.1).

``RLS_Δ`` extends Graham's list scheduling to the bi-objective problem with
precedence constraints.  It first computes the Graham lower bound on the
optimal memory consumption,

    ``LB = max(max_i s_i, sum_i s_i / m)``,

and then never lets any processor exceed the memory budget ``Δ · LB``.
Scheduling proceeds greedily: among the *ready* tasks (all predecessors
scheduled), each is tentatively placed on the least-loaded processor that
still has memory budget for it, and the task that can start the soonest is
committed (ties broken by a caller-chosen total order on tasks — the SPT
order yields the tri-objective guarantee of §5.2).

Guarantees (Corollaries 2 and 3), for ``Δ > 2``:

* ``Mmax <= Δ · LB <= Δ · M*max``,
* ``Cmax <= (2 + 1/(Δ-2) - (Δ-1)/(m(Δ-2))) · C*max``.

For ``Δ < 2`` a ready task may not fit on any processor; the implementation
then raises :class:`InfeasibleDeltaError` (Lemma 4 explains why values of
``Δ <= 2`` cannot be guaranteed).  ``Δ = 2`` is always feasible (the
least-full processor holds at most ``LB`` and every task has ``s_i <= LB``)
but carries no makespan guarantee.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from repro.core.bounds import mmax_lower_bound
from repro.core.instance import DAGInstance, Instance
from repro.core.schedule import Schedule

__all__ = [
    "InfeasibleDeltaError",
    "RLSResult",
    "rls",
    "rls_guarantee",
    "minimum_feasible_delta",
]


class InfeasibleDeltaError(RuntimeError):
    """Raised when some task cannot fit on any processor under the ``Δ·LB`` budget.

    ``task_id`` names a task that fits on no processor at the failing step.
    On independent tasks it is the largest remaining task, ties broken by
    the priority rank: the first task to stop fitting.  On a DAG it is some
    ready task that fits nowhere.
    """

    def __init__(self, task_id: object, delta: float, budget: float) -> None:
        super().__init__(
            f"task {task_id!r} does not fit on any processor under the memory budget "
            f"delta*LB = {budget:g} (delta = {delta:g}); values of delta >= 2 are always feasible"
        )
        self.task_id = task_id
        self.delta = delta
        self.budget = budget


@dataclass(frozen=True)
class RLSResult:
    """Outcome of :func:`rls`.

    ``marked_processors`` is the analysis quantity of Lemma 4: processors
    that were at least once skipped because their memory budget could not
    accommodate the task under consideration.  Lemma 4 proves there are at
    most ``floor(m / (Δ - 1))`` of them.
    """

    schedule: Schedule
    delta: float
    memory_lower_bound: float
    memory_budget: float
    cmax_guarantee: float
    mmax_guarantee: float
    marked_processors: Tuple[int, ...]
    order: str

    @property
    def cmax(self) -> float:
        """Makespan of the schedule."""
        return self.schedule.cmax

    @property
    def mmax(self) -> float:
        """Maximum memory consumption of the schedule."""
        return self.schedule.mmax

    @property
    def sum_ci(self) -> float:
        """Sum of completion times (relevant for the §5.2 extension)."""
        return self.schedule.sum_ci


def rls_guarantee(delta: float, m: int) -> Tuple[float, float]:
    """``(Cmax, Mmax)`` guarantee pair of Corollary 3 for ``RLS_Δ``.

    Returns ``(inf, inf)`` when ``Δ < 2`` (no guarantee), ``(inf, Δ)`` when
    ``Δ == 2`` (memory guaranteed, makespan not).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if delta < 2.0:
        return (math.inf, math.inf)
    if delta == 2.0:
        return (math.inf, float(delta))
    cmax_ratio = 2.0 + 1.0 / (delta - 2.0) - (delta - 1.0) / (m * (delta - 2.0))
    return (cmax_ratio, float(delta))


def _priority_rank(instance: DAGInstance, order: Union[str, Sequence[object]]) -> Dict[object, int]:
    """Total order on tasks used to break ties (smaller rank = higher priority)."""
    ids, p, _ = instance.tasks.columns
    if not isinstance(order, str):
        explicit = list(order)
        if set(explicit) != set(ids) or len(explicit) != instance.n:
            raise ValueError("explicit order must list every task id exactly once")
        return {tid: i for i, tid in enumerate(explicit)}
    if order == "arbitrary":
        return dict(zip(ids, range(len(ids))))
    if order == "spt":
        key = [(pi, str(tid)) for tid, pi in zip(ids, p)]
    elif order == "lpt":
        key = [(-pi, str(tid)) for tid, pi in zip(ids, p)]
    elif order == "bottom-level":
        # Longest path (in processing time) from the task to any sink,
        # including the task itself — the classic critical-path priority.
        levels: Dict[object, float] = {}
        p_of = instance.tasks.processing_times()
        for node in reversed(list(nx.topological_sort(instance.graph))):
            succ_best = max((levels[v] for v in instance.graph.successors(node)), default=0.0)
            levels[node] = p_of[node] + succ_best
        key = [(-levels[tid], str(tid)) for tid in ids]
    else:
        raise ValueError(
            f"unknown order {order!r}; expected 'arbitrary', 'spt', 'lpt', 'bottom-level' "
            "or an explicit task-id sequence"
        )
    ranked = sorted(range(len(ids)), key=key.__getitem__)
    return {ids[i]: r for r, i in enumerate(ranked)}


_Placement = Tuple[Dict[object, int], Dict[object, float], Set[int]]


def _first_fit(keys: List[Tuple[float, int]], memsize: List[float], size: float,
               budget_eps: float) -> int:
    """Position in ``keys`` of the first machine with memory room for ``size``, or -1."""
    for i, (_, j) in enumerate(keys):
        if memsize[j] + size <= budget_eps:
            return i
    return -1


class _RankTree:
    """Min-rank segment tree over size positions; a removed position holds ``n``."""

    __slots__ = ("width", "tree", "empty")

    def __init__(self, ranks: List[int]) -> None:
        self.empty = len(ranks)
        width = 1
        while width < len(ranks):
            width *= 2
        tree = [self.empty] * (2 * width)
        tree[width:width + len(ranks)] = ranks
        for i in range(width - 1, 0, -1):
            a, b = tree[2 * i], tree[2 * i + 1]
            tree[i] = a if a < b else b
        self.width = width
        self.tree = tree

    def best(self) -> int:
        """Smallest live rank overall."""
        return self.tree[1]

    def live(self, pos: int) -> bool:
        return self.tree[pos + self.width] != self.empty

    def min(self, lo: int, hi: int) -> int:
        """Smallest live rank over positions ``lo..hi`` (inclusive)."""
        tree = self.tree
        best = self.empty
        left, right = lo + self.width, hi + self.width + 1
        while left < right:
            if left & 1:
                if tree[left] < best:
                    best = tree[left]
                left += 1
            if right & 1:
                right -= 1
                if tree[right] < best:
                    best = tree[right]
            left >>= 1
            right >>= 1
        return best

    def remove(self, pos: int) -> None:
        tree = self.tree
        i = pos + self.width
        tree[i] = self.empty
        i >>= 1
        while i:
            a, b = tree[2 * i], tree[2 * i + 1]
            tree[i] = a if a < b else b
            i >>= 1


def _place_by_size(
    dag: DAGInstance, rank: Dict[object, int], delta: float, budget: float, eps: float
) -> _Placement:
    """The RLS_Δ placement loop on an edgeless graph, through a size-ordered index.

    Every release is 0, so a task starts at the load of its first-fit
    machine in (load, index) order.  That start is non-decreasing in the
    task's size: ``memsize[j] + s`` is monotone in ``s``, so a larger task
    fits a subset of the machines a smaller one fits.  Hence each step only
    needs the two ends of the size order:

    * the largest remaining task is the first to fit nowhere and sits on
      the most loaded machine of all, so infeasibility and the Lemma 4
      marks of the whole ready set come from it alone;
    * the smallest remaining task fixes the earliest start ``L*``; the tasks
      starting at ``L*`` are those fitting some machine loaded exactly
      ``L*``, a prefix of the size order found by binary search, and the
      one to place is the prefix's minimum rank.

    Placements, starts and marks are bit-identical to :func:`_place_ready_set`.
    """
    m = dag.m
    p = dag.tasks.processing_times()
    s = dag.tasks.storage_sizes()
    budget_eps = budget + eps

    # Equal sizes sort by falling rank, so the last live position is the
    # largest task with the best rank among its ties.
    by_size = sorted(dag.tasks.ids, key=lambda t: (s[t], -rank[t]))
    sizes = [s[t] for t in by_size]
    ranks = [rank[t] for t in by_size]
    position = [0] * len(ranks)
    for i, r in enumerate(ranks):
        position[r] = i
    index = _RankTree(ranks)

    load = [0.0] * m
    memsize = [0.0] * m
    # Machines in (load, index) order, kept sorted across steps.
    keys = [(0.0, j) for j in range(m)]
    marked: Set[int] = set()
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    lo, hi = 0, len(ranks) - 1

    while lo <= hi:
        big = _first_fit(keys, memsize, sizes[hi], budget_eps)
        if big < 0:
            raise InfeasibleDeltaError(by_size[hi], delta, budget)
        # Lemma 4: machines strictly less loaded than the chosen one, all
        # in the prefix of ``keys`` that the first-fit scan just passed.
        threshold = keys[big][0] - eps
        for load_j, j in keys:
            if load_j >= threshold:
                break
            marked.add(j)

        if big == 0:
            # Every task fits the least-loaded machine: all start there.
            pos, i = position[index.best()], 0
        else:
            small = _first_fit(keys, memsize, sizes[lo], budget_eps)
            earliest = keys[small][0]
            # A machine loaded L* ahead of `small` lacks room even for the
            # smallest task, so the least full one is in the run after it.
            room = memsize[keys[small][1]]
            k = small + 1
            while k < m and keys[k][0] == earliest:
                if memsize[keys[k][1]] < room:
                    room = memsize[keys[k][1]]
                k += 1
            a, b = lo, hi
            while a < b:
                mid = (a + b + 1) // 2
                if room + sizes[mid] <= budget_eps:
                    a = mid
                else:
                    b = mid - 1
            pos = position[index.min(lo, a)]
            i = _first_fit(keys, memsize, sizes[pos], budget_eps)

        tid = by_size[pos]
        start, proc = keys.pop(i)
        assignment[tid] = proc
        starts[tid] = start
        load[proc] = start + p[tid]
        memsize[proc] += s[tid]
        bisect.insort(keys, (load[proc], proc))

        index.remove(pos)
        while lo <= hi and not index.live(lo):
            lo += 1
        while hi >= lo and not index.live(hi):
            hi -= 1

    return assignment, starts, marked


def _place_ready_set(
    dag: DAGInstance, rank: Dict[object, int], delta: float, budget: float, eps: float
) -> _Placement:
    """The RLS_Δ placement loop of Algorithm 2 over the ready set of a DAG."""
    graph = dag.graph
    m = dag.m
    p = dag.tasks.processing_times()
    s = dag.tasks.storage_sizes()
    budget_eps = budget + eps

    load = [0.0] * m
    memsize = [0.0] * m
    marked: Set[int] = set()
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    completion: Dict[object, float] = {}

    remaining_preds = {tid: graph.in_degree(tid) for tid in dag.tasks.ids}
    ready: Set[object] = {tid for tid, deg in remaining_preds.items() if deg == 0}
    # A task's release time is fixed the moment it becomes ready (every
    # predecessor has completed), so it is computed once on entry to the
    # ready set instead of once per ready task per step.
    release_of: Dict[object, float] = {tid: 0.0 for tid in ready}
    n_scheduled = 0

    while n_scheduled < dag.n:
        # The (load, index) machine ordering is the same for every ready
        # task in this step — loads only change when a task commits — so
        # sort it once per step, not once per ready task.
        machine_order = sorted(range(m), key=lambda q: (load[q], q))
        min_load = load[machine_order[0]]
        best: Optional[Tuple[float, int, object, int]] = None  # (ready time, rank, task, proc)
        for tid in ready:
            # Least-loaded processor that still has memory budget for the task.
            proc: Optional[int] = None
            s_tid = s[tid]
            for j in machine_order:
                if memsize[j] + s_tid <= budget_eps:
                    proc = j
                    break
            if proc is None:
                raise InfeasibleDeltaError(tid, delta, budget)
            # Analysis bookkeeping of Lemma 4: processors strictly less loaded
            # than the chosen one were skipped because of their memory budget.
            # (No machine qualifies unless even the least-loaded one does.)
            if min_load < load[proc] - eps:
                for j in range(m):
                    if load[j] < load[proc] - eps:
                        marked.add(j)
            release = release_of[tid]
            start = release if release > load[proc] else load[proc]
            key = (start, rank[tid], tid, proc)
            if best is None or (key[0], key[1]) < (best[0], best[1]):
                best = key
        assert best is not None
        start, _, tid, proc = best
        assignment[tid] = proc
        starts[tid] = start
        completion[tid] = start + p[tid]
        load[proc] = completion[tid]
        memsize[proc] += s[tid]
        ready.discard(tid)
        n_scheduled += 1
        for succ in graph.successors(tid):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.add(succ)
                release_of[succ] = max(
                    (completion[u] for u in graph.predecessors(succ)), default=0.0
                )

    return assignment, starts, marked


def rls(
    instance: Union[Instance, DAGInstance],
    delta: float,
    order: Union[str, Sequence[object]] = "arbitrary",
) -> RLSResult:
    """Run ``RLS_Δ`` (Algorithm 2) on an instance (independent tasks or DAG).

    Parameters
    ----------
    instance:
        The instance to schedule; independent-task instances are treated as
        DAGs with no edges.
    delta:
        Memory degradation budget ``Δ``.  Values ``>= 2`` are always
        feasible; the makespan guarantee requires ``Δ > 2``.
    order:
        Tie-breaking total order: ``"arbitrary"`` (instance order),
        ``"spt"`` (yields Corollary 4 on independent tasks), ``"lpt"``,
        ``"bottom-level"``, or an explicit sequence of task ids.

    Raises
    ------
    InfeasibleDeltaError
        When ``Δ < 2`` and some ready task fits on no processor.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    dag = instance if isinstance(instance, DAGInstance) else instance.as_dag()
    rank = _priority_rank(dag, order)
    lb = mmax_lower_bound(dag)
    budget = delta * lb
    eps = 1e-12 * max(1.0, budget)
    place = _place_by_size if dag.is_independent() else _place_ready_set
    assignment, starts, marked = place(dag, rank, delta, budget, eps)

    schedule = Schedule._from_placement(dag, assignment, starts)
    cmax_g, mmax_g = rls_guarantee(delta, dag.m)
    order_name = order if isinstance(order, str) else "explicit"
    return RLSResult(
        schedule=schedule,
        delta=delta,
        memory_lower_bound=lb,
        memory_budget=budget,
        cmax_guarantee=cmax_g,
        mmax_guarantee=mmax_g,
        marked_processors=tuple(sorted(marked)),
        order=order_name,
    )


def minimum_feasible_delta(
    instance: Union[Instance, DAGInstance],
    order: Union[str, Sequence[object]] = "arbitrary",
    tolerance: float = 1e-3,
) -> float:
    """Smallest ``Δ`` (up to ``tolerance``) for which ``RLS_Δ`` completes.

    Section 7 observes that the Graham lower bound lets one compute which
    parameter is usable; ``Δ = 2`` always works, and smaller values may
    work when the tasks happen to pack well.  This helper binary-searches
    the smallest feasible value, assuming feasibility is monotone in ``Δ``
    (true for the thresholding scheme: enlarging every processor's budget
    can only keep previously-feasible placements feasible).
    """
    lb = mmax_lower_bound(instance)
    if lb == 0:
        return 0.0
    # The largest single task must fit: delta >= max_i s_i / LB.
    lo = instance.tasks.max_s / lb
    hi = 2.0

    def feasible(d: float) -> bool:
        try:
            rls(instance, d, order=order)
            return True
        except InfeasibleDeltaError:
            return False

    if feasible(lo):
        return lo
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
