"""Schedules and their objective values.

A :class:`Schedule` is an *assignment* ``π : T → Q`` of tasks to
processors (§2.1), optionally with a start time ``σ(i)`` per task (§5):

* an *untimed* schedule — all that matters for independent tasks — runs
  each processor's tasks back to back from time 0, in instance order or
  in an explicit per-processor order (which fixes ``sum Ci``, §5.2);
* a *timed* schedule carries the start times that precedence constraints
  require (§5); each processor runs its tasks by start time.

Schedules are immutable once built and expose ``cmax``, ``mmax``,
``sum_ci``, per-processor loads/memory, and per-task start and completion
times.

They are columnar: the assignment is a processor vector aligned with the
instance's task positions (:class:`~repro.core.task.TaskSet` columns),
start times are a float vector on the same positions, and the
per-processor lanes are lists of positions.  The objectives are folds
over those vectors, in the same order as a per-task loop.  The mappings
of the public API (``assignment``, ``start_times``, ...) are built on
demand and keep the key order the schedule was given in.
"""

from __future__ import annotations

from itertools import chain
from operator import add, itemgetter, sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.instance import Instance

__all__ = ["Schedule"]


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


def _restore_schedule(cls, instance, procs, seq, order, starts):
    return cls._trusted(instance, procs, order, seq, starts)


class Schedule:
    """An assignment of tasks to processors, optionally with start times.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    assignment:
        Mapping ``task id -> processor index`` in ``range(instance.m)``.
        Every task of the instance must be assigned.
    order:
        Optional explicit execution order per processor of an untimed
        schedule, as a mapping ``processor index -> sequence of task ids``.
        When omitted, each processor executes its tasks in instance
        (insertion) order.  The order only affects per-task completion
        times (hence ``sum Ci``); ``Cmax`` and ``Mmax`` are
        order-independent for independent tasks.
    start_times:
        Optional mapping ``task id -> start time σ(i) >= 0`` covering every
        task.  A schedule built with start times is *timed*: task ``i``
        runs over ``[σ(i), σ(i) + p_i)`` and each processor runs its tasks
        by start time, so ``order`` cannot be given with it.
    """

    __slots__ = ("instance", "_procs", "_seq", "_order", "_starts", "_lanes", "_loads",
                 "_memories", "_ends")

    def __init__(
        self,
        instance: Instance,
        assignment: Mapping[object, int],
        order: Optional[Mapping[int, Sequence[object]]] = None,
        start_times: Optional[Mapping[object, float]] = None,
    ) -> None:
        if order is not None and start_times is not None:
            raise ValueError("a timed schedule runs each processor's tasks by start time; "
                             "give either order or start_times")
        self.instance = instance
        assignment = dict(assignment)
        self._check_assignment(assignment)
        self._procs: List[int] = list(map(assignment.__getitem__, instance.tasks.columns[0]))
        self._seq: Optional[List[int]] = _sequence(instance, assignment)
        self._order: Optional[List[List[int]]] = self._normalise_order(order)
        self._starts: Optional[List[float]] = (
            None if start_times is None else self._start_vector(start_times)
        )
        self._lanes: Optional[List[List[int]]] = self._order
        self._loads: Optional[List[float]] = None
        self._memories: Optional[List[float]] = None
        self._ends: Optional[List[float]] = None

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

    def _start_vector(self, start_times: Mapping[object, float]) -> List[float]:
        """The start times on the task positions, checked task by task."""
        starts = {tid: float(t) for tid, t in start_times.items()}
        vector: List[float] = []
        for tid in self.instance.tasks.columns[0]:
            if tid not in starts:
                raise ValueError(f"start_times is missing task {tid!r}")
            if starts[tid] < 0:
                raise ValueError(f"task {tid!r} has a negative start time {starts[tid]!r}")
            vector.append(starts[tid])
        return vector

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
        starts: Optional[List[float]] = None,
    ) -> "Schedule":
        """Kernel-internal constructor that skips validation.

        The placement kernels build complete, valid vectors by
        construction; paying the public constructor's O(n) re-validation
        per solve is pure overhead on the serving hot path.  ``procs`` is
        the processor of each task position; ``order``, when given, lists
        each processor's positions in execution order (one list per
        processor, ``None`` meaning instance order); ``seq`` is the
        position order the assignment was made in (``None`` meaning
        instance order), which fixes the key order of :attr:`assignment`;
        ``starts``, when given, is the start time of each task position
        and makes the schedule timed.  Ownership of the lists transfers to
        the schedule (no copies).
        """
        self = object.__new__(cls)
        self.instance = instance
        self._procs = procs
        self._seq = seq
        self._order = order
        self._starts = starts
        self._lanes = order
        self._loads = None
        self._memories = None
        self._ends = None
        return self

    @classmethod
    def _from_placement(
        cls,
        instance: Instance,
        assignment: Dict[object, int],
        starts: Dict[object, float],
    ) -> "Schedule":
        """Adopt a kernel's complete id-keyed timed placement (keys in placement order)."""
        ids = instance.tasks.columns[0]
        return cls._trusted(
            instance,
            list(map(assignment.__getitem__, ids)),
            seq=_sequence(instance, assignment),
            starts=list(map(starts.__getitem__, ids)),
        )

    def __reduce__(self):
        return (_restore_schedule, (type(self), self.instance, self._procs, self._seq,
                                    self._order, self._starts))

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
    def timed(self) -> bool:
        """True when the schedule carries explicit start times."""
        return self._starts is not None

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
            starts = self._starts
            if starts is not None:
                ids = self.instance.tasks.columns[0]
                for lane in lanes:
                    lane.sort(key=lambda i: (starts[i], str(ids[i])))
            self._lanes = lanes
        return lanes

    def tasks_on(self, proc: int) -> List[object]:
        """Task ids executed by ``proc`` in execution order."""
        if not (0 <= proc < self.instance.m):
            raise ValueError(f"invalid processor index {proc}")
        ids = self.instance.tasks.columns[0]
        return [ids[i] for i in self._per_proc()[proc]]

    # ------------------------------------------------------------------ #
    # start and completion times
    # ------------------------------------------------------------------ #
    def _completions(self) -> List[float]:
        """Each task position's completion time: ``σ(i) + p_i``, or its lane clock when untimed."""
        if self._ends is None:
            p = self.instance.tasks.columns[1]
            if self._starts is not None:
                self._ends = list(map(add, self._starts, p))
            else:
                ends = [0.0] * len(p)
                for lane in self._per_proc():
                    clock = 0.0
                    for i in lane:
                        clock += p[i]
                        ends[i] = clock
                self._ends = ends
        return self._ends

    def _finish_order(self) -> Iterable[int]:
        """Positions as :meth:`completion_times` lists them: instance order when timed, lane by lane when not."""
        if self._starts is not None:
            return range(len(self._procs))
        return chain.from_iterable(self._per_proc())

    @property
    def start_times(self) -> Dict[object, float]:
        """Copy of the task → start time mapping (completion minus ``p`` when untimed)."""
        starts = self._starts
        if starts is None:
            starts = list(map(sub, self._completions(), self.instance.tasks.columns[1]))
        return dict(_items(self.instance, starts, self._seq))

    def start_of(self, task_id: object) -> float:
        """Start time ``σ(i)``."""
        i = self.instance.tasks.position(task_id)
        if self._starts is not None:
            return self._starts[i]
        return self._completions()[i] - self.instance.tasks.columns[1][i]

    def completion_of(self, task_id: object) -> float:
        """Completion time ``C_i``."""
        return self._completions()[self.instance.tasks.position(task_id)]

    def completion_times(self) -> Dict[object, float]:
        """All task completion times."""
        ids, ends = self.instance.tasks.columns[0], self._completions()
        return {ids[i]: ends[i] for i in self._finish_order()}

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
        """Makespan: the largest load, or ``max_i C_i`` when timed (0 when empty)."""
        if self._starts is not None:
            return max(self._completions(), default=0.0)
        return max(self.loads) if self.instance.m else 0.0

    @property
    def mmax(self) -> float:
        """Maximum cumulative memory occupation over processors."""
        return max(self.memories) if self.instance.m else 0.0

    @property
    def sum_ci(self) -> float:
        """Sum of completion times (the third objective of §5.2)."""
        return sum(map(self._completions().__getitem__, self._finish_order()))

    def objective_tuple(self) -> Tuple[float, float]:
        """``(Cmax, Mmax)`` pair for Pareto reasoning."""
        return (self.cmax, self.mmax)

    def idle_time(self) -> float:
        """Total idle processor time before the makespan."""
        return self.instance.m * self.cmax - sum(self.instance.tasks.columns[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(n={self.instance.n}, m={self.instance.m}, cmax={self.cmax:g}, "
            f"mmax={self.mmax:g}{', timed' if self.timed else ''})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.instance == other.instance
            and self._procs == other._procs
            and self._starts == other._starts
            and (self._starts is not None or self._per_proc() == other._per_proc())
        )
