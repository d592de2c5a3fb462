"""Task model: processing time and cumulative storage requirement.

The paper's model (§2.1): a task ``i`` takes ``p_i`` time units to execute
and occupies ``s_i`` memory units on the processor it is assigned to for the
whole lifetime of the application (code storage in a multi-SoC, or result
storage in scientific computing).  Memory is *cumulative per processor*:
a processor that executes tasks ``A`` and ``B`` permanently holds
``s_A + s_B`` memory units.

Processing time and memory requirement are unrelated quantities — this is
exactly what makes the bi-objective problem non-trivial.

A :class:`TaskSet` stores the tasks as flat columns (ids, ``p``, ``s``,
labels) validated in one pass; :class:`Task` objects are views built on
first use.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


__all__ = ["Task", "TaskSet"]


def _check_finite_nonnegative(value: float, what: str, task_id: object) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} of task {task_id!r} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} of task {task_id!r} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Task:
    """A single task of the scheduling instance.

    Parameters
    ----------
    id:
        Hashable identifier, unique within an instance.  Generators use
        consecutive integers but any hashable value (e.g. a string name)
        is accepted.
    p:
        Processing time ``p_i >= 0``.
    s:
        Storage (memory) requirement ``s_i >= 0``.
    label:
        Optional human readable label used in traces and Gantt charts.
    """

    id: object
    p: float
    s: float
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_finite_nonnegative(self.p, "processing time", self.id))
        object.__setattr__(self, "s", _check_finite_nonnegative(self.s, "storage size", self.id))

    @property
    def density(self) -> float:
        """Time-per-memory density ``p_i / s_i``.

        This is the quantity SBO_Δ thresholds on (tasks with a small
        density are memory-dominated and follow the memory-oriented
        schedule).  Returns ``inf`` for tasks with zero storage and
        ``0`` for zero-length tasks with positive storage; a task with
        both ``p == 0`` and ``s == 0`` has density ``0`` by convention
        (it is irrelevant to both objectives).
        """
        if self.s == 0:
            return math.inf if self.p > 0 else 0.0
        return self.p / self.s

    def with_id(self, new_id: object) -> "Task":
        """Return a copy of this task carrying a different identifier."""
        return Task(id=new_id, p=self.p, s=self.s, label=self.label)

    def scaled(self, p_factor: float = 1.0, s_factor: float = 1.0) -> "Task":
        """Return a copy with processing time and storage scaled."""
        return Task(id=self.id, p=self.p * p_factor, s=self.s * s_factor, label=self.label)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lbl = f", label={self.label!r}" if self.label else ""
        return f"Task(id={self.id!r}, p={self.p:g}, s={self.s:g}{lbl})"




def _view(task_id: object, p: float, s: float, label: Optional[str]) -> Task:
    """A :class:`Task` over already-validated column values (no re-check)."""
    task = object.__new__(Task)
    task.__dict__.update(id=task_id, p=p, s=s, label=label)
    return task


def _clean(column: List[float]) -> bool:
    """True when every value is finite and ``>= 0``.

    A NaN or infinity makes the sum non-finite; a finite sum can still
    overflow, which only sends valid input to the exact per-task check.
    """
    if not column:
        return True
    total = sum(column)
    return total - total == 0.0 and min(column) >= 0.0


def _restore(ids: list, p: list, s: list, labels: Optional[list]) -> "TaskSet":
    return TaskSet._trusted(ids, p, s, labels)


class TaskSet:
    """An ordered, id-indexed collection of tasks, stored as columns.

    The container preserves insertion order (which matters for algorithms
    that use "an arbitrary total ordering of tasks to break ties", §5.1)
    and provides O(1) lookup by task id.  ``ids``, ``p``, ``s`` and the
    labels are parallel lists; position ``i`` of each describes the
    ``i``-th task.  Kernels read them through :attr:`columns`.
    :class:`Task` objects are views, built once on the first iteration or
    lookup; tasks handed in as :class:`Task` objects are kept as given.
    """

    __slots__ = ("_ids", "_p", "_s", "_labels", "_pos", "_tasks")

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        tasks = list(tasks)
        pos: Dict[object, int] = {}
        for i, task in enumerate(tasks):
            if not isinstance(task, Task):
                raise TypeError(f"expected Task, got {type(task).__name__}")
            if task.id in pos:
                raise ValueError(f"duplicate task id {task.id!r}")
            pos[task.id] = i
        labels = [t.label for t in tasks]
        self._ids: List[object] = [t.id for t in tasks]
        self._p: List[float] = [t.p for t in tasks]
        self._s: List[float] = [t.s for t in tasks]
        self._labels: Optional[List[Optional[str]]] = labels if any(
            label is not None for label in labels) else None
        self._pos: Optional[Dict[object, int]] = pos
        self._tasks: Optional[List[Task]] = tasks

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(
        cls,
        ids: List[object],
        p: List[float],
        s: List[float],
        labels: Optional[List[Optional[str]]] = None,
        pos: Optional[Dict[object, int]] = None,
    ) -> "TaskSet":
        """Adopt already-validated columns (no copies, no checks)."""
        self = object.__new__(cls)
        self._ids, self._p, self._s = ids, p, s
        self._labels = labels if labels is not None and any(
            label is not None for label in labels) else None
        self._pos = pos
        self._tasks = None
        return self

    @classmethod
    def _validated(
        cls,
        ids: Sequence[object],
        p: Sequence[object],
        s: Sequence[object],
        labels: Optional[Sequence[Optional[str]]],
    ) -> Optional["TaskSet"]:
        """One-pass columns with every :class:`Task` check, or ``None``.

        ``None`` means some value failed a check (or could not be read);
        the caller then re-runs the per-task constructor, which raises the
        error the first offending task raises.
        """
        try:
            ids = list(ids)
            pf = list(map(float, p))
            sf = list(map(float, s))
            pos = dict(zip(ids, range(len(ids))))
        except Exception:
            # Reported by the caller's per-task pass, in task order.
            return None
        if len(pos) != len(ids) or not (_clean(pf) and _clean(sf)):
            return None
        return cls._trusted(ids, pf, sf, None if labels is None else list(labels), pos)

    @classmethod
    def from_lists(
        cls,
        p: Sequence[float],
        s: Sequence[float],
        ids: Optional[Sequence[object]] = None,
    ) -> "TaskSet":
        """Build a task set from parallel lists of processing times and sizes."""
        if len(p) != len(s):
            raise ValueError(f"p and s must have the same length, got {len(p)} and {len(s)}")
        if ids is None:
            ids = list(range(len(p)))
        elif len(ids) != len(p):
            raise ValueError("ids must have the same length as p and s")
        built = cls._validated(ids, p, s, None)
        if built is None:
            built = cls(Task(id=i, p=pi, s=si) for i, pi, si in zip(ids, p, s))
        return built

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, object]]) -> "TaskSet":
        """Build a task set from ``{"id", "p", "s"[, "label"]}`` records.

        This is the ``tasks`` list of the ``Instance.to_dict()`` form.  The
        columns are read and checked in one pass; a record that fails is
        reported exactly as building its :class:`Task` would report it.
        """
        try:
            records = list(records)
            built = cls._validated(
                [rec["id"] for rec in records],
                [rec["p"] for rec in records],
                [rec["s"] for rec in records],
                [rec.get("label") for rec in records],
            )
        except Exception:
            # Whatever a record raised, the per-task pass below raises the
            # first record's error in record order.
            built = None
        if built is None:
            built = cls(
                Task(id=rec["id"], p=rec["p"], s=rec["s"], label=rec.get("label"))
                for rec in records
            )
        return built

    def __reduce__(self):
        return (_restore, (self._ids, self._p, self._s, self._labels))

    def __setstate__(self, state: object) -> None:
        # New pickles rebuild through ``__reduce__``; only the state of the
        # pre-columnar layout (a list of Task objects plus an id map) gets
        # here, and it cannot be adopted.
        raise pickle.UnpicklingError("TaskSet pickled in the pre-columnar layout")

    def add(self, task: Task) -> None:
        """Append a task; raises :class:`ValueError` on duplicate ids."""
        if not isinstance(task, Task):
            raise TypeError(f"expected Task, got {type(task).__name__}")
        pos = self.positions
        if task.id in pos:
            raise ValueError(f"duplicate task id {task.id!r}")
        if self._labels is None and task.label is not None:
            self._labels = [None] * len(self._ids)
        pos[task.id] = len(self._ids)
        self._ids.append(task.id)
        self._p.append(task.p)
        self._s.append(task.s)
        if self._labels is not None:
            self._labels.append(task.label)
        if self._tasks is not None:
            self._tasks.append(task)

    # ------------------------------------------------------------------ #
    # columns
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> Tuple[List[object], List[float], List[float]]:
        """The ``(ids, p, s)`` columns themselves (read-only; not copies)."""
        return self._ids, self._p, self._s

    @property
    def labels(self) -> List[Optional[str]]:
        """Task labels in insertion order (``None`` where unset)."""
        if self._labels is None:
            return [None] * len(self._ids)
        return list(self._labels)

    @property
    def positions(self) -> Dict[object, int]:
        """Mapping task id -> position in the columns (read-only; shared)."""
        pos = self._pos
        if pos is None:
            pos = self._pos = dict(zip(self._ids, range(len(self._ids))))
        return pos

    def position(self, task_id: object) -> int:
        """Position of a task in the columns; :class:`KeyError` if unknown."""
        try:
            return self.positions[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id!r}") from None

    def _views(self) -> List[Task]:
        tasks = self._tasks
        if tasks is None:
            labels = self._labels if self._labels is not None else repeat(None)
            tasks = self._tasks = list(map(_view, self._ids, self._p, self._s, labels))
        return tasks

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._views())

    def __contains__(self, task_id: object) -> bool:
        return task_id in self.positions

    def __getitem__(self, task_id: object) -> Task:
        return self._views()[self.position(task_id)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._p == other._p
            and self._s == other._s
            and self.labels == other.labels
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSet(n={len(self)}, total_p={self.total_p:g}, total_s={self.total_s:g})"

    # ------------------------------------------------------------------ #
    # views and aggregates
    # ------------------------------------------------------------------ #
    @property
    def ids(self) -> List[object]:
        """Task identifiers in insertion order."""
        return list(self._ids)

    @property
    def tasks(self) -> List[Task]:
        """Tasks in insertion order (a copy; mutating it does not affect the set)."""
        return list(self._views())

    @property
    def total_p(self) -> float:
        """Total processing requirement ``sum_i p_i``."""
        return sum(self._p)

    @property
    def total_s(self) -> float:
        """Total storage requirement ``sum_i s_i``."""
        return sum(self._s)

    @property
    def max_p(self) -> float:
        """Largest processing time, ``0`` for an empty set."""
        return max(self._p, default=0.0)

    @property
    def max_s(self) -> float:
        """Largest storage requirement, ``0`` for an empty set."""
        return max(self._s, default=0.0)

    def processing_times(self) -> Dict[object, float]:
        """Mapping task id -> ``p_i``."""
        return dict(zip(self._ids, self._p))

    def storage_sizes(self) -> Dict[object, float]:
        """Mapping task id -> ``s_i``."""
        return dict(zip(self._ids, self._s))

    # ------------------------------------------------------------------ #
    # orderings used by the algorithms
    # ------------------------------------------------------------------ #
    def order_by(self, key: str, reverse: bool = False) -> List[int]:
        """Positions sorted by ``"p"``, ``"s"`` or ``"density"``.

        Ties are broken by insertion order (Python's sort is stable), which
        is the "arbitrary total ordering" of the paper.
        """
        if key == "p":
            values = self._p
        elif key == "s":
            values = self._s
        elif key == "density":
            values = [
                (math.inf if p > 0 else 0.0) if s == 0 else p / s
                for p, s in zip(self._p, self._s)
            ]
        else:
            raise ValueError(f"unknown sort key {key!r}; expected 'p', 's' or 'density'")
        return sorted(range(len(values)), key=values.__getitem__, reverse=reverse)

    def sorted_by(self, key: str, reverse: bool = False) -> List[Task]:
        """Return tasks sorted by ``"p"``, ``"s"`` or ``"density"`` (see :meth:`order_by`)."""
        order = self.order_by(key, reverse=reverse)
        tasks = self._views()
        return [tasks[i] for i in order]

    def spt_order(self) -> List[Task]:
        """Shortest Processing Time first (optimal order for ``sum Ci``)."""
        return self.sorted_by("p")

    def lpt_order(self) -> List[Task]:
        """Longest Processing Time first (Graham's 4/3-approximation order)."""
        return self.sorted_by("p", reverse=True)

    def lms_order(self) -> List[Task]:
        """Largest Memory Size first — the storage analogue of LPT."""
        return self.sorted_by("s", reverse=True)

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def swapped(self) -> "TaskSet":
        """Return a task set with ``p`` and ``s`` exchanged.

        With independent tasks the two objectives are symmetric (§2.1), so
        swapping the two vectors turns an ``Mmax`` question into a ``Cmax``
        question.  The algorithms exploit this symmetry.
        """
        labels = None if self._labels is None else list(self._labels)
        return TaskSet._trusted(list(self._ids), list(self._s), list(self._p), labels)

    def subset(self, ids: Iterable[object]) -> "TaskSet":
        """Return the sub-task-set restricted to ``ids`` (in this set's order)."""
        wanted = set(ids)
        missing = wanted - set(self.positions)
        if missing:
            raise KeyError(f"unknown task ids: {sorted(map(repr, missing))}")
        keep = [i for i, tid in enumerate(self._ids) if tid in wanted]
        labels = None if self._labels is None else [self._labels[i] for i in keep]
        return TaskSet._trusted(
            [self._ids[i] for i in keep], [self._p[i] for i in keep],
            [self._s[i] for i in keep], labels,
        )

    def as_tuples(self) -> List[Tuple[object, float, float]]:
        """Return ``(id, p, s)`` triples in insertion order."""
        return list(zip(self._ids, self._p, self._s))
