"""The simulator reads the single schedule class as it read the two.

Untimed and timed schedules used to be two classes, and the trace and the
executor each had one loop per class: a timed schedule gave each task's
``start_of``/``completion_of``, an untimed one its back-to-back completion
``C`` and the start ``C - p``.  The reference functions below are those
loops copied verbatim, with the ``isinstance(..., DAGSchedule)`` test
written as ``schedule.timed``.  They are compared with exact ``==``
against the merged code on untimed schedules (``lpt``, ``sbo``, an
explicit ``order=``) and timed ones (``rls``, ``graham_dag_schedule``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest

from repro.algorithms.list_scheduling import graham_dag_schedule
from repro.algorithms.lpt import lpt_schedule
from repro.core.instance import DAGInstance, Instance
from repro.core.rls import rls
from repro.core.sbo import sbo
from repro.core.schedule import Schedule
from repro.core.task import Task
from repro.simulator.engine import SimulationEngine
from repro.simulator.executor import SimulationReport, simulate_schedule
from repro.simulator.machine import MemoryOverflowError
from repro.simulator.trace import TraceRecord, _records_from_schedule

SEEDS = (0, 1, 2, 3, 4)
MS = (1, 2, 3, 7)


def make_instance(seed: int, n: int = 24, m: int = 3) -> Instance:
    """Random instance with repeated and zero processing times."""
    rng = random.Random(seed)
    pool = [0.0, 1.0, 1.0, 2.0, 2.5, 4.0, rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)]
    return Instance([Task(id=i, p=rng.choice(pool), s=rng.choice(pool)) for i in range(n)], m=m)


def make_dag(seed: int, n: int = 20, m: int = 3) -> DAGInstance:
    rng = random.Random(1000 + seed)
    pool = [0.0, 1.0, 1.0, 2.0, 3.5, rng.uniform(0.1, 6.0), rng.uniform(0.1, 6.0)]
    tasks = [Task(id=f"t{i}", p=rng.choice(pool), s=rng.choice(pool)) for i in range(n)]
    edges = [(f"t{i}", f"t{j}") for i in range(n) for j in range(i + 1, n) if rng.random() < 0.12]
    return DAGInstance(tasks, m=m, edges=edges)


# --------------------------------------------------------------------------- #
# the two-branch reference loops (verbatim but for the class test)
# --------------------------------------------------------------------------- #
def seed_records_from_schedule(schedule) -> List[TraceRecord]:
    records: List[TraceRecord] = []
    if schedule.timed:
        for task in schedule.instance.tasks:
            records.append(
                TraceRecord(
                    task_id=task.id,
                    processor=schedule.processor_of(task.id),
                    start=schedule.start_of(task.id),
                    finish=schedule.completion_of(task.id),
                    storage=task.s,
                )
            )
    else:
        completion = schedule.completion_times()
        for task in schedule.instance.tasks:
            finish = completion[task.id]
            records.append(
                TraceRecord(
                    task_id=task.id,
                    processor=schedule.processor_of(task.id),
                    start=finish - task.p,
                    finish=finish,
                    storage=task.s,
                )
            )
    return sorted(records, key=lambda r: (r.processor, r.start, str(r.task_id)))


def seed_simulate_schedule(
    schedule,
    memory_capacity: Optional[float] = None,
    check_precedence: bool = True,
) -> SimulationReport:
    instance = schedule.instance
    engine = SimulationEngine(m=instance.m, memory_capacity=memory_capacity, strict=True)
    violations: List[str] = []

    if schedule.timed:
        submissions = [
            (schedule.start_of(t.id), t.id, schedule.processor_of(t.id), t.p, t.s)
            for t in instance.tasks
        ]
    else:
        submissions = []
        completion = schedule.completion_times()
        for t in instance.tasks:
            finish = completion[t.id]
            submissions.append((finish - t.p, t.id, schedule.processor_of(t.id), t.p, t.s))

    try:
        for start, tid, proc, duration, storage in sorted(submissions, key=lambda x: (x[0], str(x[1]))):
            engine.submit_task(tid, proc, start, duration, storage)
        engine.run()
    except (MemoryOverflowError, RuntimeError) as exc:
        violations.append(str(exc))

    completion_times: Dict[object, float] = dict(engine.completion_times)
    for t in instance.tasks:
        if t.id not in completion_times:
            violations.append(f"task {t.id!r} never completed in the simulation")

    if check_precedence and isinstance(instance, DAGInstance):
        for u, v in instance.graph.edges():
            if u in completion_times and v in completion_times:
                start_v = completion_times[v] - instance.task(v).p
                if start_v < completion_times[u] - 1e-9:
                    violations.append(
                        f"precedence violated in simulation: {v!r} started at {start_v:g} "
                        f"before {u!r} completed at {completion_times[u]:g}"
                    )

    cmax = max(completion_times.values(), default=0.0)
    memory = engine.memory_per_processor
    loads = [proc.busy_time for proc in engine.processors]
    sum_ci = sum(completion_times.values())
    return SimulationReport(
        ok=not violations,
        cmax=cmax,
        mmax=max(memory, default=0.0),
        sum_ci=sum_ci,
        completion_times=completion_times,
        memory_per_processor=memory,
        load_per_processor=loads,
        utilisation=[proc.utilisation(cmax) for proc in engine.processors],
        trace=list(engine.trace),
        violations=violations,
    )


def assert_simulator_parity(schedule: Schedule, capacity: Optional[float] = None) -> None:
    assert _records_from_schedule(schedule) == seed_records_from_schedule(schedule)
    got = simulate_schedule(schedule, memory_capacity=capacity)
    want = seed_simulate_schedule(schedule, memory_capacity=capacity)
    assert got == want
    assert list(got.completion_times.items()) == list(want.completion_times.items())


def untimed_schedules(instance: Instance):
    yield lpt_schedule(instance, "time")
    yield sbo(instance, 1.0).schedule
    rng = random.Random(instance.n)
    shuffled = list(instance.tasks.ids)
    rng.shuffle(shuffled)
    assignment = {tid: rng.randrange(instance.m) for tid in shuffled}
    order = {q: [tid for tid in shuffled if assignment[tid] == q] for q in range(instance.m)}
    yield Schedule(instance, assignment, order=order)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_untimed_schedules_simulate_as_before(seed, m):
    instance = make_instance(seed, m=m)
    for schedule in untimed_schedules(instance):
        assert not schedule.timed
        assert_simulator_parity(schedule)
        assert_simulator_parity(schedule, capacity=schedule.mmax / 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", MS)
def test_timed_schedules_simulate_as_before(seed, m):
    for instance in (make_dag(seed, m=m), make_instance(seed, m=m).as_dag()):
        for schedule in (rls(instance, 3.0, order="bottom-level").schedule,
                         rls(instance, 2.0).schedule,
                         graham_dag_schedule(instance, "spt")):
            assert schedule.timed
            assert_simulator_parity(schedule)
            assert_simulator_parity(schedule, capacity=schedule.mmax / 2)
