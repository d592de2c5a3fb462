"""Schedules and their objective values.

Two schedule classes mirror the two problem variants of the paper:

* :class:`Schedule` — an *assignment* ``π : T → Q`` of tasks to processors,
  which is all that matters for independent tasks (§2.1).  Each processor
  executes its tasks back to back; an optional per-processor order fixes the
  sequencing (needed for the ``sum Ci`` objective of §5.2).
* :class:`DAGSchedule` — an assignment plus explicit start times ``σ(i)``,
  as required once precedence constraints are present (§5).

Both classes are immutable once built and expose ``cmax``, ``mmax``,
``sum_ci``, per-processor loads/memory, and per-task completion times.

Both are columnar: the assignment is a processor vector aligned with the
instance's task positions (:class:`~repro.core.task.TaskSet` columns),
start times are a float vector on the same positions, and the
per-processor orders are lists of positions.  The objectives are folds
over those vectors, in the same order as a per-task loop.  The mappings
of the public API (``assignment``, ``start_times``, ...) are built on
demand and keep the key order the schedule was given in.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add, itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.instance import DAGInstance, Instance

__all__ = ["Schedule", "DAGSchedule"]


def _sequence(instance: Instance, keys) -> Optional[List[int]]:
    """Positions of ``keys`` (ids in mapping order); ``None`` when that is instance order."""
    seq = list(map(instance.tasks.positions.__getitem__, keys))
    return None if seq == list(range(len(seq))) else seq


def _gather(values: Sequence[object], positions: List[int]) -> Sequence[object]:
    """``values`` at ``positions``, in that order (one C-level pass)."""
    if len(positions) > 1:
        return itemgetter(*positions)(values)
    return [values[i] for i in positions]


def _fold(procs: List[int], weights: List[float], m: int) -> List[float]:
    """Per-processor sums of ``weights``, added in task-position order."""
    totals = [0.0] * m
    for q, w in zip(procs, weights):
        totals[q] += w
    return totals


def _items(instance: Instance, values: List[object], seq: Optional[List[int]]):
    """``(id, value)`` pairs in ``seq`` order (instance order when ``None``)."""
    ids = instance.tasks.columns[0]
    if seq is None:
        return zip(ids, values)
    return zip(_gather(ids, seq), _gather(values, seq))


def _restore_schedule(cls, instance, procs, seq, order):
    return cls._trusted(instance, procs, order, seq)


def _restore_dag_schedule(cls, instance, procs, starts, seq):
    return cls._trusted(instance, procs, starts, seq)


class Schedule:
    """An assignment of independent tasks to processors.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    assignment:
        Mapping ``task id -> processor index`` in ``range(instance.m)``.
        Every task of the instance must be assigned.
    order:
        Optional explicit execution order per processor, as a mapping
        ``processor index -> sequence of task ids``.  When omitted, each
        processor executes its tasks in instance (insertion) order.  The
        order only affects per-task completion times (hence ``sum Ci``);
        ``Cmax`` and ``Mmax`` are order-independent for independent tasks.
    """

    __slots__ = ("instance", "_procs", "_seq", "_order", "_lanes", "_loads",
                 "_memories", "_clocks")

    def __init__(
        self,
        instance: Instance,
        assignment: Mapping[object, int],
        order: Optional[Mapping[int, Sequence[object]]] = None,
    ) -> None:
        self.instance = instance
        assignment = dict(assignment)
        self._check_assignment(assignment)
        self._procs: List[int] = list(map(assignment.__getitem__, instance.tasks.columns[0]))
        self._seq: Optional[List[int]] = _sequence(instance, assignment)
        self._order: Optional[List[List[int]]] = self._normalise_order(order)
        self._lanes: Optional[List[List[int]]] = self._order
        self._loads: Optional[List[float]] = None
        self._memories: Optional[List[float]] = None
        self._clocks: Optional[List[List[float]]] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _check_assignment(self, assignment: Dict[object, int]) -> None:
        """The per-task assignment checks, raising the first failure."""
        instance = self.instance
        missing = [tid for tid in instance.tasks.columns[0] if tid not in assignment]
        if missing:
            raise ValueError(f"assignment is missing tasks: {missing[:5]!r}{'...' if len(missing) > 5 else ''}")
        positions = instance.tasks.positions
        extra = [tid for tid in assignment if tid not in positions]
        if extra:
            raise ValueError(f"assignment references unknown tasks: {extra[:5]!r}")
        for tid, proc in assignment.items():
            if not isinstance(proc, int) or isinstance(proc, bool) or not (0 <= proc < instance.m):
                raise ValueError(
                    f"task {tid!r} assigned to invalid processor {proc!r} (m={instance.m})"
                )

    def _normalise_order(
        self, order: Optional[Mapping[int, Sequence[object]]]
    ) -> Optional[List[List[int]]]:
        if order is None:
            return None
        pos = self.instance.tasks.positions
        procs = self._procs
        per_proc: Dict[int, List[int]] = {q: [] for q in range(self.instance.m)}
        seen = set()
        for proc, ids in order.items():
            if proc not in per_proc:
                raise ValueError(f"order references invalid processor {proc!r}")
            for tid in ids:
                if tid not in pos:
                    raise ValueError(f"order references unknown task {tid!r}")
                i = pos[tid]
                if procs[i] != proc:
                    raise ValueError(
                        f"order places task {tid!r} on processor {proc} but it is assigned to "
                        f"processor {procs[i]}"
                    )
                if i in seen:
                    raise ValueError(f"task {tid!r} appears twice in the order")
                seen.add(i)
                per_proc[proc].append(i)
        # Any task not mentioned in the explicit order is appended in
        # instance order after the ordered prefix of its processor.
        if len(seen) < len(procs):
            for i, q in enumerate(procs):
                if i not in seen:
                    per_proc[q].append(i)
        return [per_proc[q] for q in range(self.instance.m)]

    @classmethod
    def _trusted(
        cls,
        instance: Instance,
        procs: List[int],
        order: Optional[List[List[int]]] = None,
        seq: Optional[List[int]] = None,
    ) -> "Schedule":
        """Kernel-internal constructor that skips validation.

        The placement kernels build complete, valid vectors by
        construction; paying the public constructor's O(n) re-validation
        per solve is pure overhead on the serving hot path.  ``procs`` is
        the processor of each task position; ``order``, when given, lists
        each processor's positions in execution order (one list per
        processor, ``None`` meaning instance order); ``seq`` is the
        position order the assignment was made in (``None`` meaning
        instance order), which fixes the key order of :attr:`assignment`.
        Ownership of the lists transfers to the schedule (no copies).
        """
        self = object.__new__(cls)
        self.instance = instance
        self._procs = procs
        self._seq = seq
        self._order = order
        self._lanes = order
        self._loads = None
        self._memories = None
        self._clocks = None
        return self

    def __reduce__(self):
        return (_restore_schedule, (type(self), self.instance, self._procs, self._seq, self._order))

    @classmethod
    def from_processor_lists(
        cls, instance: Instance, processors: Sequence[Sequence[object]]
    ) -> "Schedule":
        """Build a schedule from an explicit list of task ids per processor."""
        if len(processors) > instance.m:
            raise ValueError(
                f"got {len(processors)} processor lists for an instance with m={instance.m}"
            )
        assignment: Dict[object, int] = {}
        order: Dict[int, List[object]] = {}
        for q, ids in enumerate(processors):
            order[q] = list(ids)
            for tid in ids:
                if tid in assignment:
                    raise ValueError(f"task {tid!r} appears on more than one processor")
                assignment[tid] = q
        return cls(instance, assignment, order=order)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def assignment(self) -> Dict[object, int]:
        """Copy of the task → processor mapping."""
        return dict(_items(self.instance, self._procs, self._seq))

    def assignment_items(self) -> Iterable[Tuple[object, int]]:
        """``assignment.items()`` in the same order, without building the mapping."""
        return _items(self.instance, self._procs, self._seq)

    def processor_of(self, task_id: object) -> int:
        """Processor index the task is assigned to."""
        return self._procs[self.instance.tasks.position(task_id)]

    def _per_proc(self) -> List[List[int]]:
        """Each processor's task positions in execution order."""
        lanes = self._lanes
        if lanes is None:
            lanes = [[] for _ in range(self.instance.m)]
            for i, q in enumerate(self._procs):
                lanes[q].append(i)
            self._lanes = lanes
        return lanes

    def tasks_on(self, proc: int) -> List[object]:
        """Task ids executed by ``proc`` in execution order."""
        if not (0 <= proc < self.instance.m):
            raise ValueError(f"invalid processor index {proc}")
        ids = self.instance.tasks.columns[0]
        return [ids[i] for i in self._per_proc()[proc]]

    # ------------------------------------------------------------------ #
    # objective values
    # ------------------------------------------------------------------ #
    @property
    def loads(self) -> List[float]:
        """Per-processor total processing time."""
        if self._loads is None:
            self._loads = _fold(self._procs, self.instance.tasks.columns[1], self.instance.m)
        return list(self._loads)

    @property
    def memories(self) -> List[float]:
        """Per-processor cumulative memory occupation."""
        if self._memories is None:
            self._memories = _fold(self._procs, self.instance.tasks.columns[2], self.instance.m)
        return list(self._memories)

    @property
    def cmax(self) -> float:
        """Makespan: the largest per-processor load."""
        return max(self.loads) if self.instance.m else 0.0

    @property
    def mmax(self) -> float:
        """Maximum cumulative memory occupation over processors."""
        return max(self.memories) if self.instance.m else 0.0

    def _lane_clocks(self) -> List[List[float]]:
        """Completion times along each processor's lane (back to back from 0.0)."""
        if self._clocks is None:
            p = self.instance.tasks.columns[1]
            self._clocks = [
                list(accumulate(_gather(p, lane), initial=0.0))[1:]
                for lane in self._per_proc()
            ]
        return self._clocks

    def completion_times(self) -> Dict[object, float]:
        """Per-task completion time under back-to-back execution in order."""
        ids = self.instance.tasks.columns[0]
        completion: Dict[object, float] = {}
        for lane, clocks in zip(self._per_proc(), self._lane_clocks()):
            completion.update(zip(map(ids.__getitem__, lane), clocks))
        return completion

    @property
    def sum_ci(self) -> float:
        """Sum of completion times (the third objective of §5.2)."""
        return sum(chain.from_iterable(self._lane_clocks()))

    # ------------------------------------------------------------------ #
    # conversions & misc
    # ------------------------------------------------------------------ #
    def objective_tuple(self) -> Tuple[float, float]:
        """``(Cmax, Mmax)`` pair for Pareto reasoning."""
        return (self.cmax, self.mmax)

    def as_dag_schedule(self, dag_instance: Optional[DAGInstance] = None) -> "DAGSchedule":
        """Lift to a timed :class:`DAGSchedule` (back-to-back start times)."""
        instance = dag_instance if dag_instance is not None else self.instance.as_dag() if not isinstance(self.instance, DAGInstance) else self.instance
        p = self.instance.tasks.columns[1]
        starts = [0.0] * len(p)
        for lane in self._per_proc():
            clock = 0.0
            for i in lane:
                starts[i] = clock
                clock += p[i]
        if instance.tasks.columns[0] == self.instance.tasks.columns[0]:
            return DAGSchedule._trusted(instance, list(self._procs), starts, self._seq)
        ids = self.instance.tasks.columns[0]
        return DAGSchedule(instance, self.assignment, dict(zip(ids, starts)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(n={self.instance.n}, m={self.instance.m}, cmax={self.cmax:g}, mmax={self.mmax:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.instance == other.instance
            and self._procs == other._procs
            and self._per_proc() == other._per_proc()
        )


class DAGSchedule:
    """A timed schedule (assignment + start times) for a DAG instance.

    Parameters
    ----------
    instance:
        The (possibly precedence-constrained) instance.
    assignment:
        Mapping ``task id -> processor index``.
    start_times:
        Mapping ``task id -> start time σ(i) >= 0``.
    """

    __slots__ = ("instance", "_procs", "_starts", "_seq", "_memories")

    def __init__(
        self,
        instance: Instance,
        assignment: Mapping[object, int],
        start_times: Mapping[object, float],
    ) -> None:
        self.instance = instance
        assignment = dict(assignment)
        starts = {tid: float(t) for tid, t in start_times.items()}
        self._check(assignment, starts)
        ids = instance.tasks.columns[0]
        self._procs: List[int] = list(map(assignment.__getitem__, ids))
        self._starts: List[float] = list(map(starts.__getitem__, ids))
        self._seq: Optional[List[int]] = _sequence(instance, assignment)
        self._memories: Optional[List[float]] = None

    def _check(self, assignment: Dict[object, int], starts: Dict[object, float]) -> None:
        """The per-task checks, raising the first failure."""
        instance = self.instance
        for tid in instance.tasks.columns[0]:
            if tid not in assignment:
                raise ValueError(f"assignment is missing task {tid!r}")
            if tid not in starts:
                raise ValueError(f"start_times is missing task {tid!r}")
            if starts[tid] < 0:
                raise ValueError(f"task {tid!r} has a negative start time {starts[tid]!r}")
            proc = assignment[tid]
            if not isinstance(proc, int) or isinstance(proc, bool) or not (0 <= proc < instance.m):
                raise ValueError(f"task {tid!r} assigned to invalid processor {proc!r}")
        positions = instance.tasks.positions
        extra = [tid for tid in assignment if tid not in positions]
        if extra:
            raise ValueError(f"assignment references unknown tasks: {extra[:5]!r}")

    @classmethod
    def _trusted(
        cls,
        instance: Instance,
        procs: List[int],
        starts: List[float],
        seq: Optional[List[int]] = None,
    ) -> "DAGSchedule":
        """Kernel-internal constructor that skips validation.

        ``procs`` and ``starts`` are aligned with the instance's task
        positions; ``seq`` is the position order the tasks were placed in
        (``None`` meaning instance order).  No copies are made.
        """
        self = object.__new__(cls)
        self.instance = instance
        self._procs = procs
        self._starts = starts
        self._seq = seq
        self._memories = None
        return self

    @classmethod
    def _from_placement(
        cls,
        instance: Instance,
        assignment: Dict[object, int],
        starts: Dict[object, float],
    ) -> "DAGSchedule":
        """Adopt a kernel's complete id-keyed placement (keys in placement order)."""
        ids = instance.tasks.columns[0]
        return cls._trusted(
            instance,
            list(map(assignment.__getitem__, ids)),
            list(map(starts.__getitem__, ids)),
            _sequence(instance, assignment),
        )

    def __reduce__(self):
        return (_restore_dag_schedule, (type(self), self.instance, self._procs, self._starts, self._seq))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def assignment(self) -> Dict[object, int]:
        """Copy of the task → processor mapping."""
        return dict(_items(self.instance, self._procs, self._seq))

    @property
    def start_times(self) -> Dict[object, float]:
        """Copy of the task → start time mapping."""
        return dict(_items(self.instance, self._starts, self._seq))

    def assignment_items(self) -> Iterable[Tuple[object, int]]:
        """``assignment.items()`` in the same order, without building the mapping."""
        return _items(self.instance, self._procs, self._seq)

    def processor_of(self, task_id: object) -> int:
        """Processor executing the task."""
        return self._procs[self.instance.tasks.position(task_id)]

    def start_of(self, task_id: object) -> float:
        """Start time ``σ(i)``."""
        return self._starts[self.instance.tasks.position(task_id)]

    def completion_of(self, task_id: object) -> float:
        """Completion time ``C_i = σ(i) + p_i``."""
        i = self.instance.tasks.position(task_id)
        return self._starts[i] + self.instance.tasks.columns[1][i]

    def completion_times(self) -> Dict[object, float]:
        """All task completion times."""
        ids, p, _ = self.instance.tasks.columns
        return dict(zip(ids, map(add, self._starts, p)))

    def tasks_on(self, proc: int) -> List[object]:
        """Task ids run by ``proc``, sorted by start time."""
        ids, starts = self.instance.tasks.columns[0], self._starts
        lane = [i for i, q in enumerate(self._procs) if q == proc]
        lane.sort(key=lambda i: (starts[i], str(ids[i])))
        return [ids[i] for i in lane]

    # ------------------------------------------------------------------ #
    # objective values
    # ------------------------------------------------------------------ #
    @property
    def cmax(self) -> float:
        """Makespan ``max_i C_i`` (0 for an empty instance)."""
        if self.instance.n == 0:
            return 0.0
        return max(map(add, self._starts, self.instance.tasks.columns[1]))

    @property
    def memories(self) -> List[float]:
        """Per-processor cumulative memory occupation."""
        if self._memories is None:
            self._memories = _fold(self._procs, self.instance.tasks.columns[2], self.instance.m)
        return list(self._memories)

    @property
    def loads(self) -> List[float]:
        """Per-processor busy time (sum of processing times of assigned tasks)."""
        return _fold(self._procs, self.instance.tasks.columns[1], self.instance.m)

    @property
    def mmax(self) -> float:
        """Maximum cumulative memory occupation over processors."""
        return max(self.memories) if self.instance.m else 0.0

    @property
    def sum_ci(self) -> float:
        """Sum of completion times."""
        return sum(map(add, self._starts, self.instance.tasks.columns[1]))

    def objective_tuple(self) -> Tuple[float, float]:
        """``(Cmax, Mmax)`` pair for Pareto reasoning."""
        return (self.cmax, self.mmax)

    # ------------------------------------------------------------------ #
    # conversions & misc
    # ------------------------------------------------------------------ #
    def as_assignment_schedule(self) -> Schedule:
        """Project onto an (order-preserving) assignment-only :class:`Schedule`."""
        base = self.instance.as_independent() if isinstance(self.instance, DAGInstance) else self.instance
        ids, starts = self.instance.tasks.columns[0], self._starts
        lanes: List[List[int]] = [[] for _ in range(self.instance.m)]
        for i, q in enumerate(self._procs):
            lanes[q].append(i)
        for lane in lanes:
            lane.sort(key=lambda i: (starts[i], str(ids[i])))
        return Schedule._trusted(base, list(self._procs), lanes, self._seq)

    def idle_time(self) -> float:
        """Total idle processor time before the makespan."""
        return self.instance.m * self.cmax - sum(self.instance.tasks.columns[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DAGSchedule(n={self.instance.n}, m={self.instance.m}, "
            f"cmax={self.cmax:g}, mmax={self.mmax:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAGSchedule):
            return NotImplemented
        return (
            self.instance == other.instance
            and self._procs == other._procs
            and self._starts == other._starts
        )
