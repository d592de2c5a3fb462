"""Byte-identity of the heap-based placement kernels vs the seed kernels.

The kernel fast-path rewrite replaced the O(n*m) ``min(range(m), ...)``
scans of ``list_schedule`` / ``graham_dag_schedule`` / the SPT ``sum Ci``
bound, the per-probe FFD re-sort of MULTIFIT, the per-ready-task machine
sort of ``RLS_delta`` (and, on independent tasks, the whole ready-set
rescan, now a size-ordered index), the per-task degenerate-branch checks
of ``SBO_delta`` and the per-Δ sub-solves of the SBO Pareto sweep with
array/heap-backed ledgers and hoisted loop invariants.  Every one of
those rewrites claims *bit-identical* output — same assignments, same
processor orders, same start times, same tie-breaks, same floats.  So
does the columnar layout, which computes the schedule objectives
(loads, memories, completion times, ``Cmax``/``Mmax``/``sum Ci``), the
SBO threshold choice and the Pareto Δ sweep over processor vectors
instead of per-task id lookups.

This module pins that claim property-style: the **seed implementations
are copied here verbatim** (naive scans and all) and both versions run
over a grid of seeds x processor counts x priority orders x objectives,
asserting exact equality — ``==`` on floats, not ``approx``.  Instances
deliberately contain duplicate weights and zero-weight tasks so the
(load, index) and (start, rank) tie-breaks are actually exercised.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.list_scheduling import (
    _order_positions,
    graham_dag_schedule,
    list_schedule,
)
from repro.algorithms.multifit import ffd_pack, multifit_schedule
from repro.core.bounds import mmax_lower_bound, sum_ci_lower_bound
from repro.core.instance import DAGInstance, Instance
from repro.core.pareto import ParetoFront
from repro.core.pareto_approx import approximate_pareto_set, delta_grid
from repro.solvers.single import get_single_objective_solver
from repro.core.rls import InfeasibleDeltaError, _priority_rank, rls
from repro.core.sbo import combine_schedules, sbo
from repro.core.schedule import Schedule
from repro.core.task import Task
from repro.core.trio import tri_objective_schedule

SEEDS = (0, 1, 2, 3, 4)
MS = (1, 2, 3, 7)
ORDERS = ("arbitrary", "spt", "lpt", "sms", "lms", "density")
OBJECTIVES = ("time", "memory")


def make_instance(seed: int, n: int = 24, m: int = 3) -> Instance:
    """Random instance with forced ties and zero weights."""
    rng = random.Random(seed)
    # A small value pool guarantees duplicate p's and s's (tie-break food);
    # the explicit zeros exercise the degenerate branches.
    pool = [0.0, 1.0, 1.0, 2.0, 2.5, 4.0, rng.uniform(0.1, 8.0)]
    tasks = [
        Task(id=i, p=rng.choice(pool), s=rng.choice(pool))
        for i in range(n)
    ]
    return Instance(tasks, m=m, name=f"parity-{seed}")


def make_dag(seed: int, n: int = 20, m: int = 3) -> DAGInstance:
    rng = random.Random(1000 + seed)
    pool = [0.0, 1.0, 1.0, 2.0, 3.5, rng.uniform(0.1, 6.0)]
    tasks = [Task(id=i, p=rng.choice(pool), s=rng.choice(pool)) for i in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.12
    ]
    return DAGInstance(tasks, m=m, edges=edges, name=f"parity-dag-{seed}")


# --------------------------------------------------------------------------- #
# seed reference implementations (copied from the pre-rewrite kernels)
# --------------------------------------------------------------------------- #
def _weight(task: Task, objective: str) -> float:
    return task.p if objective == "time" else task.s


def resolve_order(instance, order, objective="time"):
    """The id-keyed priority order the seed kernels read: tasks, not positions."""
    tasks = instance.tasks.tasks
    return [tasks[i] for i in _order_positions(instance, order)]


def seed_list_schedule(instance, order, objective):
    """The seed list_schedule placement loop: naive (load, index) scan."""
    tasks = resolve_order(instance, order, objective=objective)
    loads = [0.0] * instance.m
    assignment: Dict[object, int] = {}
    per_proc: Dict[int, List[object]] = {q: [] for q in range(instance.m)}
    for task in tasks:
        q = min(range(instance.m), key=lambda j: (loads[j], j))
        assignment[task.id] = q
        per_proc[q].append(task.id)
        loads[q] += _weight(task, objective)
    return assignment, per_proc


def seed_graham(instance, priority):
    """The seed graham_dag_schedule loop: per-ready-task min scan."""
    rank = {t.id: idx for idx, t in enumerate(resolve_order(instance, priority))}
    graph = instance.graph
    p = instance.tasks.processing_times()
    load = [0.0] * instance.m
    remaining_preds = {tid: graph.in_degree(tid) for tid in instance.tasks.ids}
    completion: Dict[object, float] = {}
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    ready = {tid for tid, deg in remaining_preds.items() if deg == 0}
    scheduled = 0
    while scheduled < instance.n:
        best_task = None
        best_key = None
        for tid in ready:
            release = max((completion[u] for u in graph.predecessors(tid)), default=0.0)
            q = min(range(instance.m), key=lambda j: (load[j], j))
            start = max(release, load[q])
            key = (start, rank[tid])
            if best_key is None or key < best_key:
                best_key = key
                best_task = (tid, q, start)
        tid, q, start = best_task
        ready.discard(tid)
        assignment[tid] = q
        starts[tid] = start
        completion[tid] = start + p[tid]
        load[q] = completion[tid]
        scheduled += 1
        for succ in graph.successors(tid):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.add(succ)
    return assignment, starts


def seed_ffd_pack(tasks, m, capacity, objective):
    """The seed ffd_pack: re-sorts the tasks on every call."""
    bins = [0.0] * m
    contents: List[List[object]] = [[] for _ in range(m)]
    eps = 1e-12 * max(1.0, capacity)
    for task in sorted(tasks, key=lambda t: -_weight(t, objective)):
        w = _weight(task, objective)
        placed = False
        for j in range(m):
            if bins[j] + w <= capacity + eps:
                bins[j] += w
                contents[j].append(task.id)
                placed = True
                break
        if not placed:
            return None
    return contents


def seed_multifit(instance, objective, iterations=40):
    """The seed multifit_schedule binary search (re-sorting per probe)."""
    tasks = instance.tasks.tasks
    m = instance.m
    weights = [_weight(t, objective) for t in tasks]
    if not tasks:
        return [[] for _ in range(m)]
    total = sum(weights)
    lower = max(total / m, max(weights))
    upper = max(2.0 * total / m, max(weights))
    best = seed_ffd_pack(tasks, m, upper, objective)
    for _ in range(iterations):
        mid = 0.5 * (lower + upper)
        packed = seed_ffd_pack(tasks, m, mid, objective)
        if packed is None:
            lower = mid
        else:
            best = packed
            upper = mid
    return best


def seed_rls(dag, delta, rank):
    """The seed RLS placement loop (per-ready-task machine sort, verbatim)."""
    graph = dag.graph
    m = dag.m
    p = dag.tasks.processing_times()
    s = dag.tasks.storage_sizes()
    lb = mmax_lower_bound(dag)
    budget = delta * lb
    eps = 1e-12 * max(1.0, budget)
    load = [0.0] * m
    memsize = [0.0] * m
    marked = set()
    assignment: Dict[object, int] = {}
    starts: Dict[object, float] = {}
    completion: Dict[object, float] = {}
    remaining_preds = {tid: graph.in_degree(tid) for tid in dag.tasks.ids}
    ready = {tid for tid, deg in remaining_preds.items() if deg == 0}
    n_scheduled = 0
    while n_scheduled < dag.n:
        best: Optional[Tuple[float, int, object, int]] = None
        for tid in ready:
            proc = None
            for j in sorted(range(m), key=lambda q: (load[q], q)):
                if memsize[j] + s[tid] <= budget + eps:
                    proc = j
                    break
            if proc is None:
                raise InfeasibleDeltaError(tid, delta, budget)
            for j in range(m):
                if load[j] < load[proc] - eps:
                    marked.add(j)
            release = max((completion[u] for u in graph.predecessors(tid)), default=0.0)
            start = max(release, load[proc])
            key = (start, rank[tid], tid, proc)
            if best is None or (key[0], key[1]) < (best[0], best[1]):
                best = key
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
    return assignment, starts, marked


def seed_sum_ci(instance):
    """The seed SPT ``sum Ci`` bound: naive least-loaded scan per task."""
    tasks = sorted(instance.tasks, key=lambda t: (t.p, str(t.id)))
    m = instance.m
    loads = [0.0] * m
    total = 0.0
    for task in tasks:
        q = min(range(m), key=lambda j: loads[j])
        loads[q] += task.p
        total += loads[q]
    return total


def seed_sbo_combine(inst, delta, pi1, pi2):
    """The seed SBO threshold loop (per-task degenerate-branch checks)."""
    reference_cmax = pi1.cmax
    reference_mmax = pi2.mmax
    assignment: Dict[object, int] = {}
    memory_driven: List[object] = []
    for task in inst.tasks:
        lhs = task.p * (reference_mmax if reference_mmax > 0 else 0.0)
        rhs = delta * task.s * (reference_cmax if reference_cmax > 0 else 0.0)
        if reference_cmax == 0.0 and reference_mmax == 0.0:
            follow_memory = False
        elif reference_cmax == 0.0:
            follow_memory = True
        elif reference_mmax == 0.0:
            follow_memory = False
        else:
            follow_memory = lhs < rhs
        if follow_memory:
            assignment[task.id] = pi2.processor_of(task.id)
            memory_driven.append(task.id)
        else:
            assignment[task.id] = pi1.processor_of(task.id)
    return assignment, memory_driven


# --------------------------------------------------------------------------- #
# parity properties
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_list_schedule_parity(seed, m):
    instance = make_instance(seed, m=m)
    for order in ORDERS:
        for objective in OBJECTIVES:
            expected_assignment, expected_order = seed_list_schedule(
                instance, order, objective
            )
            got = list_schedule(instance, order=order, objective=objective)
            assert got.assignment == expected_assignment, (seed, m, order, objective)
            for q in range(m):
                assert got.tasks_on(q) == expected_order[q], (seed, m, order, objective)
            # Loads are recomputed by Schedule in instance order (never taken
            # from the kernel's heap), so they are bit-equal by construction —
            # assert anyway to pin the contract.
            naive = [0.0] * m
            for t in instance.tasks:
                naive[expected_assignment[t.id]] += _weight(t, objective)
            assert got.loads == naive if objective == "time" else True


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_graham_dag_parity(seed, m):
    dag = make_dag(seed, m=m)
    for priority in ("arbitrary", "spt", "lpt"):
        expected_assignment, expected_starts = seed_graham(dag, priority)
        got = graham_dag_schedule(dag, priority=priority)
        assert got.assignment == expected_assignment, (seed, m, priority)
        assert got.start_times == expected_starts, (seed, m, priority)


def test_graham_hoist_regression():
    """Satellite fix: the machine scan is loop-invariant across ready tasks.

    A diamond DAG with an idle gap (every ready task's release exceeds the
    min machine load) plus rank ties is exactly the shape where a wrongly
    hoisted scan would diverge; the schedule must equal the seed loop's.
    """
    dag = DAGInstance(
        [Task(id=i, p=w, s=1.0) for i, w in enumerate([3.0, 1.0, 1.0, 1.0, 2.0])],
        m=2,
        edges=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    )
    expected_assignment, expected_starts = seed_graham(dag, None)
    got = graham_dag_schedule(dag)
    assert got.assignment == expected_assignment
    assert got.start_times == expected_starts
    # The sink must wait for the slowest middle task (released, not load-bound).
    assert got.start_times[4] == max(got.start_times[i] + dag.tasks[i].p for i in (1, 2, 3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_multifit_parity(seed, m):
    instance = make_instance(seed, m=m)
    for objective in OBJECTIVES:
        expected = seed_multifit(instance, objective)
        got = multifit_schedule(instance, objective=objective)
        for q in range(m):
            assert got.tasks_on(q) == expected[q], (seed, m, objective)
        # ffd_pack keeps the seed's exact First Fit semantics at any capacity.
        for capacity in (0.0, 1.0, 2.5, 7.0):
            assert ffd_pack(instance.tasks.tasks, m, capacity, objective) == \
                seed_ffd_pack(instance.tasks.tasks, m, capacity, objective)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("delta", (2.0, 2.5, 4.0))
def test_rls_parity(seed, delta):
    dag = make_dag(seed, m=3)
    for order in ("arbitrary", "spt", "lpt", "bottom-level"):
        got = rls(dag, delta, order=order)
        rank = _priority_rank(dag, order)
        expected_assignment, expected_starts, expected_marked = seed_rls(
            dag, delta, rank
        )
        assert got.schedule.assignment == expected_assignment, (seed, delta, order)
        assert got.schedule.start_times == expected_starts, (seed, delta, order)
        assert got.marked_processors == tuple(sorted(expected_marked)), (seed, delta, order)


def assert_rls_matches_seed(instance, delta, order, got=None):
    """Run ``rls`` and the verbatim seed loop; both raise or agree bit for bit.

    ``got`` is a thunk returning an :class:`RLSResult` for the same
    (instance, Δ, order); it defaults to ``rls`` itself.
    """
    dag = instance.as_dag()
    rank = _priority_rank(dag, order)
    try:
        expected = seed_rls(dag, delta, rank)
    except InfeasibleDeltaError:
        expected = None
    run = got or (lambda: rls(instance, delta, order=order))
    if expected is None:
        with pytest.raises(InfeasibleDeltaError):
            run()
        return False
    result = run()
    expected_assignment, expected_starts, expected_marked = expected
    assert result.schedule.assignment == expected_assignment
    assert result.schedule.start_times == expected_starts
    # Same placement order, not only the same placements.
    assert list(result.schedule.start_times) == list(expected_starts)
    assert result.marked_processors == tuple(sorted(expected_marked))
    return True


INDEPENDENT_MS = (1, 2, 3, 7, 16, 32)
INDEPENDENT_DELTAS = (0.8, 1.05, 1.5, 2.0, 2.5, 4.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", INDEPENDENT_MS)
def test_rls_independent_parity(seed, m):
    """The size-ordered index on edgeless input vs the seed ready-set loop."""
    instance = make_instance(seed, m=m)
    explicit = [t.id for t in instance.tasks]
    random.Random(seed).shuffle(explicit)
    feasible = 0
    for delta in INDEPENDENT_DELTAS:
        for order in ("arbitrary", "spt", "lpt", "bottom-level", explicit):
            feasible += assert_rls_matches_seed(instance, delta, order)
        # The tri-objective variant is RLS_delta under the SPT order.
        feasible += assert_rls_matches_seed(
            instance, delta, "spt",
            got=lambda: tri_objective_schedule(instance, delta).rls_result,
        )
    assert feasible, "every case was infeasible: the grid checks nothing"


@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=14),
    m=st.integers(min_value=1, max_value=6),
    delta=st.sampled_from(INDEPENDENT_DELTAS),
    order=st.sampled_from(("arbitrary", "spt", "lpt", "bottom-level")),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rls_independent_parity_property(data, n, m, delta, order):
    weight = st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, 3.0)) | st.floats(0.0, 8.0)
    p = data.draw(st.lists(weight, min_size=n, max_size=n))
    s = data.draw(st.lists(weight, min_size=n, max_size=n))
    assert_rls_matches_seed(Instance.from_lists(p=p, s=s, m=m), delta, order)


def replay_until_infeasible(instance, delta, rank):
    """Seed-order RLS replay on independent tasks, stopping at the first
    step where some remaining task fits nowhere: ``(memsize, remaining)``."""
    s = instance.tasks.storage_sizes()
    p = instance.tasks.processing_times()
    budget = delta * mmax_lower_bound(instance)
    eps = 1e-12 * max(1.0, budget)
    load = [0.0] * instance.m
    memsize = [0.0] * instance.m
    remaining = set(instance.tasks.ids)
    while remaining:
        order = sorted(range(instance.m), key=lambda q: (load[q], q))
        best = None
        for tid in remaining:
            fits = [j for j in order if memsize[j] + s[tid] <= budget + eps]
            if not fits:
                return memsize, remaining, budget + eps
            key = (load[fits[0]], rank[tid], tid, fits[0])
            best = key if best is None or key[:2] < best[:2] else best
        _, _, tid, proc = best
        load[proc] += p[tid]
        memsize[proc] += s[tid]
        remaining.discard(tid)
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_rls_infeasible_reports_largest_task(seed):
    """The reported task fits on no processor, and it is the largest
    remaining task, ties broken by rank."""
    checked = 0
    for m in (2, 3, 7):
        instance = make_instance(seed, m=m)
        s = instance.tasks.storage_sizes()
        for delta in (0.8, 1.05, 1.5):
            for order in ("arbitrary", "spt", "lpt"):
                rank = _priority_rank(instance.as_dag(), order)
                state = replay_until_infeasible(instance, delta, rank)
                if state is None:
                    rls(instance, delta, order=order)
                    continue
                memsize, remaining, limit = state
                with pytest.raises(InfeasibleDeltaError) as exc:
                    rls(instance, delta, order=order)
                tid = exc.value.task_id
                assert tid in remaining
                assert all(used + s[tid] > limit for used in memsize)
                largest = max(s[t] for t in remaining)
                assert s[tid] == largest
                assert rank[tid] == min(rank[t] for t in remaining if s[t] == largest)
                assert exc.value.delta == delta
                checked += 1
    assert checked, "no infeasible case was exercised"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", INDEPENDENT_MS)
def test_sum_ci_bound_parity(seed, m):
    instance = make_instance(seed, n=40, m=m)
    assert sum_ci_lower_bound(instance) == seed_sum_ci(instance)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("inner", ("lpt", "multifit"))
def test_pareto_sweep_parity(seed, inner):
    """Solving pi1/pi2 once gives the front of one full sbo() per grid point."""
    instance = make_instance(seed, m=3)
    got = approximate_pareto_set(instance, epsilon=0.5, solver=inner)
    grid = delta_grid(0.5, 1.0 / 16.0, 16.0)
    assert got.deltas == tuple(grid)
    expected = [sbo(instance, delta, cmax_solver=inner).schedule for delta in grid]
    front = ParetoFront(dim=2)
    for schedule in expected:
        front.add((schedule.cmax, schedule.mmax), schedule)
    assert got.points == [(v[0], v[1]) for v in front.values()]
    assert [x.assignment for x in got.schedules()] == [
        x.assignment for x in front.payloads() if x is not None
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("delta", (0.5, 1.0, 2.0))
def test_sbo_parity(seed, delta):
    for inner in ("lpt", "list", "multifit"):
        instance = make_instance(seed, m=3)
        got = sbo(instance, delta, cmax_solver=inner)
        expected_assignment, expected_driven = seed_sbo_combine(
            instance, delta, got.pi1, got.pi2
        )
        assert got.schedule.assignment == expected_assignment, (seed, delta, inner)
        assert got.memory_driven_tasks == tuple(expected_driven), (seed, delta, inner)


def test_sbo_parity_degenerate():
    """Zero-reference branches: all-zero p, all-zero s, and all-zero both."""
    for p, s in ((0.0, 2.0), (2.0, 0.0), (0.0, 0.0)):
        instance = Instance([Task(id=i, p=p, s=s) for i in range(6)], m=2)
        got = sbo(instance, 1.0)
        expected_assignment, expected_driven = seed_sbo_combine(
            instance, 1.0, got.pi1, got.pi2
        )
        assert got.schedule.assignment == expected_assignment, (p, s)
        assert got.memory_driven_tasks == tuple(expected_driven), (p, s)


def test_list_schedule_rejects_bad_objective():
    instance = make_instance(0, n=3, m=2)
    with pytest.raises(ValueError, match="unknown objective"):
        list_schedule(instance, objective="latency")


# --------------------------------------------------------------------------- #
# columnar schedules vs the per-task seed objectives
# --------------------------------------------------------------------------- #
def seed_loads(instance, assignment):
    """The seed ``Schedule.loads`` (and ``DAGSchedule.loads``): per-task lookups."""
    loads = [0.0] * instance.m
    for task in instance.tasks:
        loads[assignment[task.id]] += task.p
    return loads


def seed_memories(instance, assignment):
    """The seed ``Schedule.memories`` / ``DAGSchedule.memories``."""
    mems = [0.0] * instance.m
    for task in instance.tasks:
        mems[assignment[task.id]] += task.s
    return mems


def seed_completion_times(instance, order):
    """The seed ``Schedule.completion_times`` over a per-processor id order."""
    completion: Dict[object, float] = {}
    for proc in range(instance.m):
        clock = 0.0
        for tid in order[proc]:
            clock += instance.task(tid).p
            completion[tid] = clock
    return completion


def seed_default_order(instance, assignment):
    """The seed ``_normalise_order(None)``: instance order on each processor."""
    per_proc: Dict[int, List[object]] = {q: [] for q in range(instance.m)}
    for task in instance.tasks:
        per_proc[assignment[task.id]].append(task.id)
    return per_proc


def seed_dag_objectives(instance, assignment, starts):
    """The seed ``DAGSchedule`` objectives: one lookup per task per call."""
    def completion_of(tid):
        return starts[tid] + instance.task(tid).p

    completion = {t.id: completion_of(t.id) for t in instance.tasks}
    cmax = 0.0 if instance.n == 0 else max(completion_of(t.id) for t in instance.tasks)
    memories = seed_memories(instance, assignment)
    tasks_on = {
        proc: sorted(
            [t.id for t in instance.tasks if assignment[t.id] == proc],
            key=lambda tid: (starts[tid], str(tid)),
        )
        for proc in range(instance.m)
    }
    return {
        "cmax": cmax,
        "mmax": max(memories) if instance.m else 0.0,
        "sum_ci": sum(completion.values()),
        "loads": seed_loads(instance, assignment),
        "memories": memories,
        "completion": completion,
        "tasks_on": tasks_on,
        "idle": instance.m * cmax - sum(t.p for t in instance.tasks),
    }


def seed_threshold_combine(instance, delta, pi1, pi2):
    """The per-Task ``threshold_combine`` the vector version replaced (verbatim)."""
    reference_cmax = pi1.cmax
    reference_mmax = pi2.mmax
    assign1 = pi1.assignment
    assign2 = pi2.assignment
    if reference_cmax == 0.0:
        if reference_mmax == 0.0:
            return dict(assign1), []
        return dict(assign2), [t.id for t in instance.tasks]
    if reference_mmax == 0.0:
        return dict(assign1), []
    assignment: Dict[object, int] = {}
    memory_driven: List[object] = []
    for task in instance.tasks:
        tid = task.id
        if task.p * reference_mmax < delta * task.s * reference_cmax:
            assignment[tid] = assign2[tid]
            memory_driven.append(tid)
        else:
            assignment[tid] = assign1[tid]
    return assignment, memory_driven


def seed_approximate_pareto_set(instance, epsilon, solver, delta_min=1.0 / 16.0,
                                delta_max=16.0):
    """The per-Task SBO Δ sweep, with seed objectives per grid point."""
    base = instance.as_independent() if isinstance(instance, DAGInstance) else instance
    grid = delta_grid(epsilon, delta_min, delta_max)
    front = ParetoFront(dim=2)
    solve_single = get_single_objective_solver(solver)
    pi1, _ = solve_single(base, "time")
    pi2, _ = solve_single(base, "memory")
    for delta in grid:
        assignment, _ = seed_threshold_combine(base, delta, pi1, pi2)
        cmax = max(seed_loads(base, assignment)) if base.m else 0.0
        mmax = max(seed_memories(base, assignment)) if base.m else 0.0
        front.add((cmax, mmax), assignment)
    return front


def assert_schedule_matches_seed(schedule, instance, assignment, order):
    loads = seed_loads(instance, assignment)
    memories = seed_memories(instance, assignment)
    completion = seed_completion_times(instance, order)
    assert schedule.loads == loads
    assert schedule.memories == memories
    assert schedule.cmax == max(loads)
    assert schedule.mmax == max(memories)
    assert list(schedule.completion_times().items()) == list(completion.items())
    assert schedule.sum_ci == sum(completion.values())
    assert list(schedule.assignment.items()) == list(assignment.items())
    assert [schedule.tasks_on(q) for q in range(instance.m)] == [order[q] for q in range(instance.m)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_schedule_objectives_parity(seed, m):
    instance = make_instance(seed, m=m)
    for order in ORDERS:
        for objective in OBJECTIVES:
            assignment, per_proc = seed_list_schedule(instance, order, objective)
            got = list_schedule(instance, order=order, objective=objective)
            assert_schedule_matches_seed(got, instance, assignment, per_proc)
            # The public constructor: default (instance) order and an explicit one.
            public = Schedule(instance, assignment)
            assert_schedule_matches_seed(
                public, instance, assignment, seed_default_order(instance, assignment))
            explicit = Schedule(instance, assignment, order=per_proc)
            assert_schedule_matches_seed(explicit, instance, assignment, per_proc)
            assert explicit == got


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_dag_schedule_objectives_parity(seed, m):
    checked = 0
    for instance in (make_dag(seed, m=m), make_instance(seed, m=m).as_dag()):
        for order in ("arbitrary", "spt", "bottom-level"):
            for delta in (2.0, 3.0):
                rank = _priority_rank(instance, order)
                assignment, starts, _ = seed_rls(instance, delta, rank)
                expected = seed_dag_objectives(instance, assignment, starts)
                for schedule in (rls(instance, delta, order=order).schedule,
                                 Schedule(instance, assignment, start_times=starts)):
                    assert schedule.cmax == expected["cmax"]
                    assert schedule.mmax == expected["mmax"]
                    assert schedule.sum_ci == expected["sum_ci"]
                    assert schedule.loads == expected["loads"]
                    assert schedule.memories == expected["memories"]
                    assert list(schedule.completion_times().items()) == list(
                        expected["completion"].items())
                    assert {q: schedule.tasks_on(q) for q in range(m)} == expected["tasks_on"]
                    assert schedule.idle_time() == expected["idle"]
                    assert list(schedule.assignment.items()) == list(assignment.items())
                    assert schedule.start_times == starts
                    checked += 1
    assert checked


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_threshold_combine_parity(seed, m):
    instance = make_instance(seed, m=m)
    zero_p = Instance([Task(id=i, p=0.0, s=t.s) for i, t in enumerate(instance.tasks)], m=m)
    zero_s = Instance([Task(id=i, p=t.p, s=0.0) for i, t in enumerate(instance.tasks)], m=m)
    for inst in (instance, zero_p, zero_s):
        for inner in ("lpt", "list", "multifit"):
            solve_single = get_single_objective_solver(inner)
            pi1, _ = solve_single(inst, "time")
            pi2, _ = solve_single(inst, "memory")
            for delta in (1.0 / 16.0, 0.5, 1.0, 2.0, 16.0):
                got, got_driven = combine_schedules(inst, delta, pi1, pi2)
                want_assignment, want_driven = seed_threshold_combine(inst, delta, pi1, pi2)
                assert list(got.assignment.items()) == list(want_assignment.items())
                assert [inst.tasks.columns[0][i] for i in got_driven] == want_driven


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_pareto_approx_columnar_parity(seed, m):
    for inner in ("lpt", "multifit"):
        instance = make_instance(seed, m=m)
        got = approximate_pareto_set(instance, epsilon=0.25, solver=inner)
        want = seed_approximate_pareto_set(instance, 0.25, inner)
        assert got.points == [(v[0], v[1]) for v in want.values()]
        assert [list(x.assignment.items()) for x in got.schedules()] == [
            list(x.items()) for x in want.payloads() if x is not None
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_combine_parity_across_task_orders(seed):
    """π1/π2 built on the same tasks in another order still combine by id."""
    instance = make_instance(seed, m=3)
    reordered = Instance(list(reversed(instance.tasks.tasks)), m=3)
    solve_single = get_single_objective_solver("lpt")
    pi1, _ = solve_single(reordered, "time")
    pi2, _ = solve_single(reordered, "memory")
    ids = instance.tasks.columns[0]
    for delta in (0.5, 1.0, 2.0):
        got, driven = combine_schedules(instance, delta, pi1, pi2)
        want_assignment, want_driven = seed_threshold_combine(instance, delta, pi1, pi2)
        assert list(got.assignment.items()) == list(want_assignment.items())
        assert [ids[i] for i in driven] == want_driven
