"""Replaying schedules in the simulator and reporting the outcome.

Every task is submitted at its start time: ``σ(i)`` on a timed schedule,
its back-to-back start on an untimed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.instance import DAGInstance
from repro.core.schedule import Schedule
from repro.simulator.engine import SimulationEngine
from repro.simulator.machine import MemoryOverflowError
from repro.simulator.trace import TraceRecord, render_gantt

__all__ = ["SimulationReport", "simulate_schedule"]

@dataclass(frozen=True)
class SimulationReport:
    """Result of replaying a schedule in the discrete-event simulator.

    ``ok`` is ``True`` when the replay completed without violating machine
    exclusivity, precedence, or the optional memory capacity; otherwise
    ``violations`` describes what went wrong.  ``cmax``/``mmax``/``sum_ci``
    are the values *measured by the simulator*, which the integration tests
    compare against the analytical values of the schedule object.
    """

    ok: bool
    cmax: float
    mmax: float
    sum_ci: float
    completion_times: Dict[object, float]
    memory_per_processor: List[float]
    load_per_processor: List[float]
    utilisation: List[float]
    trace: List[TraceRecord]
    violations: List[str] = field(default_factory=list)

    def gantt(self, width: int = 60) -> str:
        """ASCII Gantt chart of the simulated execution."""
        return render_gantt(self.trace, width=width)


def simulate_schedule(
    schedule: Schedule,
    memory_capacity: Optional[float] = None,
    check_precedence: bool = True,
) -> SimulationReport:
    """Replay a schedule on the simulated platform and measure its objectives.

    Parameters
    ----------
    schedule:
        A :class:`~repro.core.schedule.Schedule`: an untimed one runs its
        tasks back to back in their per-processor order, a timed one starts
        each task exactly at its ``σ(i)``.
    memory_capacity:
        Optional hard per-processor capacity; overflowing it is recorded as
        a violation rather than raising.
    check_precedence:
        When the schedule's instance is a DAG, verify from the simulated
        completion times that every precedence constraint was respected.
    """
    instance = schedule.instance
    engine = SimulationEngine(m=instance.m, memory_capacity=memory_capacity, strict=True)
    violations: List[str] = []

    starts = schedule.start_times
    submissions = [
        (starts[t.id], t.id, schedule.processor_of(t.id), t.p, t.s) for t in instance.tasks
    ]

    try:
        for start, tid, proc, duration, storage in sorted(submissions, key=lambda x: (x[0], str(x[1]))):
            engine.submit_task(tid, proc, start, duration, storage)
        engine.run()
    except (MemoryOverflowError, RuntimeError) as exc:
        violations.append(str(exc))

    completion_times = dict(engine.completion_times)
    # Tasks that never completed (because the replay aborted) are violations.
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
