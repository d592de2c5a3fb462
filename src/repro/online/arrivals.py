"""Arrival models: how tasks are revealed to an online scheduler.

Three model families produce the same serialisable artifact — an
:class:`ArrivalTrace`, an ordered sequence of ``(time, task)`` events:

* :func:`stochastic_trace` — Poisson-style arrivals with processing times
  and storage sizes drawn from :mod:`repro.workloads.distributions`
  samplers (reproducible from a seed);
* :func:`adversarial_trace` — a hostile permutation of an existing
  offline instance's tasks (decreasing work first, memory spikes first,
  alternating extremes), the classical way to probe online lower bounds;
* :func:`trace_from_instance` — replay of an offline instance in
  insertion order (or with explicit arrival times), turning any workload
  or recorded job log into a stream.

:func:`replay_trace` drives a trace through an
:class:`~repro.online.base.OnlineScheduler` *and* the discrete-event
simulator (:mod:`repro.simulator.engine`), honouring release dates: a
task placed on a busy processor waits for it, a task arriving after the
processor idles starts at its arrival time.  The replay records the
prefix-wise objective values the competitive-ratio experiments and the
``repro online`` CLI report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.instance import Instance, _check_m
from repro.core.task import Task, TaskSet
from repro.online.base import OnlineScheduler
from repro.solvers.result import SolveResult
from repro.workloads.distributions import Sampler, uniform_sampler

__all__ = [
    "ArrivalEvent",
    "ArrivalTrace",
    "stochastic_trace",
    "adversarial_trace",
    "trace_from_instance",
    "replay_trace",
    "OnlineRunReport",
    "ADVERSARIAL_MODES",
]

#: Supported hostile permutations of :func:`adversarial_trace`.
ADVERSARIAL_MODES = ("lpt_first", "memory_first", "alternating", "density_waves")


@dataclass(frozen=True)
class ArrivalEvent:
    """One arrival: a task revealed at an absolute time."""

    time: float
    task: Task

    def __post_init__(self) -> None:
        if not (self.time >= 0.0):
            raise ValueError(f"arrival time must be >= 0, got {self.time!r}")


class ArrivalTrace:
    """An ordered, serialisable arrival sequence for ``m`` processors.

    Events must be supplied in non-decreasing time order (the order *is*
    the adversary's choice for ties, so it is preserved verbatim).
    """

    __slots__ = ("events", "m", "name")

    def __init__(
        self,
        events: Iterable[ArrivalEvent],
        m: int,
        name: Optional[str] = None,
    ) -> None:
        events = list(events)
        for prev, nxt in zip(events, events[1:]):
            if nxt.time < prev.time:
                raise ValueError(
                    f"arrival times must be non-decreasing; "
                    f"{nxt.task.id!r}@{nxt.time:g} after {prev.task.id!r}@{prev.time:g}"
                )
        seen = set()
        for event in events:
            if event.task.id in seen:
                raise ValueError(f"duplicate task id {event.task.id!r} in trace")
            seen.add(event.task.id)
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.events: List[ArrivalEvent] = events
        self.m = int(m)
        self.name = name

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def tasks(self) -> List[Task]:
        """The tasks in arrival order."""
        return [event.task for event in self.events]

    def prefix(self, k: int) -> "ArrivalTrace":
        """The first ``k`` arrivals as a trace."""
        return ArrivalTrace(self.events[:k], m=self.m, name=self.name)

    def instance(self) -> Instance:
        """The full revealed workload as an offline :class:`Instance`."""
        return Instance(TaskSet(self.tasks), m=self.m, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return f"ArrivalTrace({name} n={len(self)}, m={self.m})"

    # ------------------------------------------------------------------ #
    # (de)serialisation — the ``repro online --trace`` file format
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "arrival_trace",
            "name": self.name,
            "m": self.m,
            "events": [
                {"time": e.time, "id": e.task.id, "p": e.task.p, "s": e.task.s,
                 **({"label": e.task.label} if e.task.label else {})}
                for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalTrace":
        if data.get("kind", "arrival_trace") != "arrival_trace":
            raise ValueError(f"not an arrival trace payload: kind={data.get('kind')!r}")
        events = [
            ArrivalEvent(
                time=float(rec["time"]),  # type: ignore[index]
                task=Task(id=rec["id"], p=rec["p"], s=rec["s"], label=rec.get("label")),  # type: ignore[index]
            )
            for rec in data["events"]  # type: ignore[index]
        ]
        return cls(events, m=_check_m(data["m"]), name=data.get("name"))  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ArrivalTrace":
        return cls.from_json(Path(path).read_text())


# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #
def stochastic_trace(
    n: int,
    m: int,
    rate: float = 1.0,
    p_sampler: Optional[Sampler] = None,
    s_sampler: Optional[Sampler] = None,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> ArrivalTrace:
    """Poisson-style stream: exponential inter-arrival times, sampled tasks.

    ``rate`` is the mean number of arrivals per time unit; ``p_sampler``
    and ``s_sampler`` default to ``uniform_sampler(1, 10)``.  Fully
    deterministic given ``seed``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = np.random.default_rng(seed)
    p_sampler = p_sampler or uniform_sampler(1.0, 10.0)
    s_sampler = s_sampler or uniform_sampler(1.0, 10.0)
    gaps = rng.exponential(scale=1.0 / rate, size=n)
    times = np.cumsum(gaps)
    p = p_sampler(rng, n)
    s = s_sampler(rng, n)
    events = [
        ArrivalEvent(time=float(times[i]), task=Task(id=i, p=float(p[i]), s=float(s[i])))
        for i in range(n)
    ]
    return ArrivalTrace(events, m=m, name=name or f"stochastic(n={n},m={m},seed={seed})")


def adversarial_trace(
    instance: Instance,
    mode: str = "alternating",
    name: Optional[str] = None,
) -> ArrivalTrace:
    """A hostile permutation of an offline instance, revealed at unit ticks.

    Modes (``ADVERSARIAL_MODES``):

    * ``lpt_first`` — longest tasks first, so greedy commits big work
      before the small equalizers arrive (the classical Graham adversary
      reversed);
    * ``memory_first`` — heaviest storage first, stressing memory routing;
    * ``alternating`` — strict big/small alternation on processing time,
      maximizing the regret of every irrevocable placement;
    * ``density_waves`` — waves sorted by time-per-memory density, so the
      running averages a threshold scheduler adapts to keep shifting.
    """
    if mode not in ADVERSARIAL_MODES:
        raise ValueError(
            f"unknown adversarial mode {mode!r}; expected one of {', '.join(ADVERSARIAL_MODES)}"
        )
    tasks = list(instance.tasks)
    if mode == "lpt_first":
        ranked = sorted(tasks, key=lambda t: (-t.p, str(t.id)))
    elif mode == "memory_first":
        ranked = sorted(tasks, key=lambda t: (-t.s, str(t.id)))
    elif mode == "alternating":
        by_p = sorted(tasks, key=lambda t: (-t.p, str(t.id)))
        ranked = []
        lo, hi = 0, len(by_p) - 1
        while lo <= hi:
            ranked.append(by_p[lo])
            if lo != hi:
                ranked.append(by_p[hi])
            lo += 1
            hi -= 1
    else:  # density_waves
        by_density = sorted(tasks, key=lambda t: (t.density, str(t.id)))
        wave = max(1, len(by_density) // 4)
        ranked = []
        for start in range(0, len(by_density), wave):
            chunk = by_density[start:start + wave]
            ranked.extend(reversed(chunk) if (start // wave) % 2 else chunk)
    events = [ArrivalEvent(time=float(i), task=t) for i, t in enumerate(ranked)]
    base = instance.name or "instance"
    return ArrivalTrace(events, m=instance.m, name=name or f"adversarial({mode},{base})")


def trace_from_instance(
    instance: Instance,
    times: Optional[Sequence[float]] = None,
    name: Optional[str] = None,
) -> ArrivalTrace:
    """Reveal an offline instance in insertion order (optionally timed)."""
    tasks = list(instance.tasks)
    if times is None:
        times = [float(i) for i in range(len(tasks))]
    if len(times) != len(tasks):
        raise ValueError(f"got {len(times)} arrival times for {len(tasks)} tasks")
    events = [ArrivalEvent(time=float(t), task=task) for t, task in zip(times, tasks)]
    return ArrivalTrace(events, m=instance.m, name=name or instance.name)


# --------------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------------- #
@dataclass
class OnlineRunReport:
    """Outcome of replaying one trace through one online scheduler.

    Attributes
    ----------
    spec:
        Canonical spec of the scheduler that ran.
    trace_name:
        Name of the replayed trace.
    m:
        Processor count.
    placements:
        ``(task id, processor)`` in arrival order.
    prefix_rows:
        One row per arrival: ``(k, cmax, mmax)`` — the objective values
        after the first ``k`` placements (load-based, release dates
        ignored, matching the classical list-scheduling analysis).
    result:
        The finalized :class:`~repro.solvers.result.SolveResult`.
    sim_makespan:
        Arrival-aware makespan measured by replaying the placements
        through the discrete-event simulator with release dates honoured
        (``>=`` the load-based ``cmax`` by construction).
    sim_completions:
        Per-task completion times from the same simulator replay (empty
        when ``simulate=False``).  Deadline-aware callers — e.g. the
        periodic cross-check in
        :func:`repro.workloads.periodic.trace_from_periodic` tests — feed
        this straight into
        :func:`repro.core.objectives.deadline_metrics`.
    """

    spec: str
    trace_name: Optional[str]
    m: int
    placements: List[Tuple[object, int]] = field(default_factory=list)
    prefix_rows: List[Tuple[int, float, float]] = field(default_factory=list)
    result: Optional[SolveResult] = None
    sim_makespan: float = 0.0
    sim_completions: Dict[object, float] = field(default_factory=dict)


def replay_trace(
    trace: ArrivalTrace,
    scheduler: OnlineScheduler,
    simulate: bool = True,
) -> OnlineRunReport:
    """Drive every arrival of ``trace`` through ``scheduler`` and finalize.

    The scheduler must be fresh (no prior submissions) and sized for the
    trace (``scheduler.m == trace.m``).  When ``simulate`` is true the
    resulting placements are additionally replayed through
    :class:`~repro.simulator.engine.SimulationEngine` with release dates:
    a task starts at ``max(arrival time, processor ready time)``, and the
    engine independently re-measures the memory per processor (a
    cross-check the tests assert).
    """
    if scheduler.m != trace.m:
        raise ValueError(
            f"scheduler has m={scheduler.m} but the trace was recorded for m={trace.m}"
        )
    if scheduler.n_submitted:
        raise ValueError(
            f"scheduler already holds {scheduler.n_submitted} tasks; replay needs a fresh one"
        )
    report = OnlineRunReport(spec=scheduler.spec, trace_name=trace.name, m=trace.m)
    ready = [0.0] * trace.m
    starts: List[Tuple[object, int, float, Task]] = []
    for event in trace.events:
        proc = scheduler.submit(event.task)
        report.placements.append((event.task.id, proc))
        report.prefix_rows.append((scheduler.n_submitted, scheduler.cmax, scheduler.mmax))
        start = max(event.time, ready[proc])
        ready[proc] = start + event.task.p
        starts.append((event.task.id, proc, start, event.task))
    report.result = scheduler.finalize()

    if simulate and starts:
        from repro.simulator.engine import SimulationEngine

        engine = SimulationEngine(m=trace.m, strict=True)
        for task_id, proc, start, task in starts:
            engine.submit_task(task_id, proc, start=start, duration=task.p, storage=task.s)
        report.sim_makespan = engine.run()
        report.sim_completions = dict(engine.completion_times)
        measured = engine.memory_per_processor
        expected_mmax = max(measured) if measured else 0.0
        # Cross-check against the *streaming* placements (scheduler.mmax),
        # not the finalized result: a hindsight oracle re-solves offline and
        # legitimately reports a different assignment.
        if abs(expected_mmax - scheduler.mmax) > 1e-9 * max(1.0, expected_mmax):
            raise RuntimeError(
                f"simulator memory check failed: engine measured Mmax={expected_mmax!r}, "
                f"scheduler reported {scheduler.mmax!r}"
            )
    return report
