"""Scheduling instances: independent tasks and precedence-constrained DAGs.

Two instance classes mirror the two problems of the paper:

* :class:`Instance` — ``P | p_j, s_j | Cmax, Mmax`` (independent tasks, §2–4),
* :class:`DAGInstance` — ``P | p_j, s_j, prec | Cmax, Mmax`` (§5).

A :class:`DAGInstance` with no edges behaves exactly like an
:class:`Instance`; :meth:`DAGInstance.as_independent` and
:meth:`Instance.as_dag` convert between the two (sharing one
:class:`~repro.core.task.TaskSet`).

Instances pickle as their flat task columns plus ``m``, the name, the
memoized content hash and — for subclasses — the precedence edges or the
processor speeds, so shipping one to a worker process or a disk cache
costs about as much as its numbers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.task import Task, TaskSet

__all__ = ["Instance", "DAGInstance"]


def _restore(cls, tasks: TaskSet, m: int, name: Optional[str], digest: Optional[str], extra):
    """Unpickle an instance from :meth:`Instance.__reduce__` state (no re-validation)."""
    self = object.__new__(cls)
    self.tasks = tasks
    self.m = m
    self.name = name
    self._content_hash = digest
    self._restore_extra(extra)
    return self


def _check_m(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"number of processors m must be an int, got {type(m).__name__}")
    if m < 1:
        raise ValueError(f"number of processors m must be >= 1, got {m}")
    return m


class Instance:
    """An independent-task instance of ``P | p_j, s_j | Cmax, Mmax``.

    Parameters
    ----------
    tasks:
        The tasks to schedule (a :class:`TaskSet` or any iterable of
        :class:`Task`).
    m:
        Number of identical processors.
    name:
        Optional name used in experiment reports.
    """

    __slots__ = ("tasks", "m", "name", "_content_hash")

    def __init__(self, tasks: Iterable[Task], m: int, name: Optional[str] = None) -> None:
        self.tasks: TaskSet = tasks if isinstance(tasks, TaskSet) else TaskSet(tasks)
        self.m: int = _check_m(m)
        self.name: Optional[str] = name
        self._content_hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_lists(
        cls,
        p: Sequence[float],
        s: Sequence[float],
        m: int,
        ids: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ) -> "Instance":
        """Build an instance from parallel ``p`` / ``s`` vectors."""
        return cls(TaskSet.from_lists(p, s, ids=ids), m=m, name=name)

    def __reduce__(self):
        return (_restore, (type(self), self.tasks, self.m, self.name,
                           self._content_hash, self._extra_state()))

    def _extra_state(self) -> object:
        """Subclass state pickled next to the columns (edges, speeds)."""
        return None

    def _restore_extra(self, extra: object) -> None:
        """Inverse of :meth:`_extra_state`."""

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def total_p(self) -> float:
        return self.tasks.total_p

    @property
    def total_s(self) -> float:
        return self.tasks.total_s

    def task(self, task_id: object) -> Task:
        """Lookup a task by id."""
        return self.tasks[task_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return f"Instance({name} n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance) or isinstance(other, DAGInstance) != isinstance(self, DAGInstance):
            return NotImplemented
        return self.m == other.m and self.tasks == other.tasks

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def _fingerprint_parts(self) -> List[str]:
        """Canonical lines hashed by :meth:`content_hash` (subclasses extend)."""
        parts = ["kind=independent", f"m={self.m}"]
        ids, p, s = self.tasks.columns
        parts.extend([f"task={tid!r}|{pi!r}|{si!r}" for tid, pi, si in zip(ids, p, s)])
        return parts

    def content_hash(self) -> str:
        """SHA-256 hex digest of the instance *content*.

        The digest covers everything a (deterministic) solver can observe:
        the processor count, the tasks — id, processing time and storage,
        in insertion order, because task order is the "arbitrary total
        ordering" solvers break ties with — and, in subclasses, precedence
        edges and processor speeds.  Cosmetic attributes (``name``, task
        ``label``) are excluded, so renaming an instance does not change
        its hash.  The digest is stable across processes and Python
        sessions, which makes ``(content_hash, canonical spec)`` a
        persistent cache key for solver results
        (:mod:`repro.solvers.cache`).
        """
        # Instances are immutable after construction, so the digest is
        # computed once and memoized (and pickled with the instance).
        # ``getattr`` guards objects whose slot was never set.
        cached = getattr(self, "_content_hash", None)
        if cached is not None:
            return cached
        payload = "\n".join(self._fingerprint_parts())
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._content_hash = digest
        return digest

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def swapped(self) -> "Instance":
        """Exchange the roles of ``p`` and ``s`` (objective symmetry, §2.1)."""
        return Instance(self.tasks.swapped(), m=self.m, name=self.name)

    def with_m(self, m: int) -> "Instance":
        """Return a copy of the instance with a different processor count."""
        return Instance(self.tasks, m=m, name=self.name)

    def as_dag(self) -> "DAGInstance":
        """Lift to a :class:`DAGInstance` with an empty precedence relation."""
        return DAGInstance(self.tasks, m=self.m, edges=(), name=self.name)

    # ------------------------------------------------------------------ #
    # (de)serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dictionary representation."""
        ids, p, s = self.tasks.columns
        return {
            "kind": "independent",
            "name": self.name,
            "m": self.m,
            "tasks": [
                {"id": tid, "p": pi, "s": si, "label": label}
                for tid, pi, si, label in zip(ids, p, s, self.tasks.labels)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Instance":
        """Inverse of :meth:`to_dict` (the task records are read in one pass)."""
        tasks = TaskSet.from_records(data["tasks"])  # type: ignore[arg-type]
        return cls(tasks, m=data["m"], name=data.get("name"))  # type: ignore[arg-type]

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


class DAGInstance(Instance):
    """A precedence-constrained instance of ``P | p_j, s_j, prec | Cmax, Mmax``.

    Precedence constraints are stored as a directed acyclic graph on task
    ids; an edge ``(u, v)`` means task ``v`` cannot start before task ``u``
    completes.  The graph is validated at construction time (all endpoints
    must be known task ids, no self loops, no cycles).  An edgeless
    instance (and an unpickled one) builds its ``networkx`` graph on first
    use of :attr:`graph`; the independent-task kernels never need it.
    """

    __slots__ = ("_graph", "_edges")

    def __init__(
        self,
        tasks: Iterable[Task],
        m: int,
        edges: Iterable[Tuple[object, object]] = (),
        name: Optional[str] = None,
    ) -> None:
        super().__init__(tasks, m=m, name=name)
        edges = list(edges)
        self._edges: List[Tuple[object, object]] = []
        self._graph: Optional[nx.DiGraph] = None
        if not edges:
            return
        graph = nx.DiGraph()
        graph.add_nodes_from(self.tasks.columns[0])
        known = self.tasks.positions
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"precedence edge ({u!r}, {v!r}) references an unknown task id")
            if u == v:
                raise ValueError(f"self-loop on task {u!r} is not allowed")
            graph.add_edge(u, v)
        # An edgeless graph cannot have a cycle; skip the O(n) check for it.
        if graph.number_of_edges() and not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise ValueError(f"precedence constraints contain a cycle: {cycle}")
        self._graph = graph

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_lists(
        cls,
        p: Sequence[float],
        s: Sequence[float],
        m: int,
        edges: Iterable[Tuple[object, object]] = (),
        ids: Optional[Sequence[object]] = None,
        name: Optional[str] = None,
    ) -> "DAGInstance":
        """Build a DAG instance from parallel ``p`` / ``s`` vectors and an edge list."""
        return cls(TaskSet.from_lists(p, s, ids=ids), m=m, edges=edges, name=name)

    @classmethod
    def from_networkx(
        cls,
        graph: nx.DiGraph,
        m: int,
        p_attr: str = "p",
        s_attr: str = "s",
        name: Optional[str] = None,
    ) -> "DAGInstance":
        """Build a DAG instance from a ``networkx`` graph with node attributes.

        Node attributes ``p_attr`` and ``s_attr`` give processing time and
        storage requirement; missing attributes default to ``0``.
        """
        tasks = TaskSet(
            Task(id=node, p=float(data.get(p_attr, 0.0)), s=float(data.get(s_attr, 0.0)))
            for node, data in graph.nodes(data=True)
        )
        return cls(tasks, m=m, edges=graph.edges(), name=name)

    def _extra_state(self) -> object:
        return self._edges if self._graph is None else list(self._graph.edges())

    def _restore_extra(self, extra: object) -> None:
        self._edges = extra  # type: ignore[assignment]
        self._graph = None

    @property
    def graph(self) -> nx.DiGraph:
        """The precedence DAG on task ids (built on first use)."""
        graph = self._graph
        if graph is None:
            graph = nx.DiGraph()
            graph.add_nodes_from(self.tasks.columns[0])
            graph.add_edges_from(self._edges)
            self._graph = graph
        return graph

    # ------------------------------------------------------------------ #
    # precedence accessors (the paper's pred()/succ())
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of precedence edges."""
        return len(self._edges) if self._graph is None else self._graph.number_of_edges()

    def predecessors(self, task_id: object) -> List[object]:
        """``pred(i)`` — direct predecessors of a task."""
        return list(self.graph.predecessors(task_id))

    def successors(self, task_id: object) -> List[object]:
        """``succ(i)`` — direct successors of a task."""
        return list(self.graph.successors(task_id))

    def sources(self) -> List[object]:
        """Tasks with no predecessor (ready at time 0)."""
        return [v for v in self.graph.nodes if self.graph.in_degree(v) == 0]

    def sinks(self) -> List[object]:
        """Tasks with no successor."""
        return [v for v in self.graph.nodes if self.graph.out_degree(v) == 0]

    def topological_order(self) -> List[object]:
        """A topological order of the task ids (deterministic for a given instance)."""
        return list(nx.lexicographical_topological_sort(self.graph, key=lambda x: str(x)))

    def is_independent(self) -> bool:
        """True when there are no precedence constraints."""
        return self.n_edges == 0

    def as_independent(self) -> Instance:
        """Drop the precedence constraints (only meaningful when independent)."""
        return Instance(self.tasks, m=self.m, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return f"DAGInstance({name} n={self.n}, m={self.m}, edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAGInstance):
            return NotImplemented
        return (
            self.m == other.m
            and self.tasks == other.tasks
            and set(self.graph.edges()) == set(other.graph.edges())
        )

    def _fingerprint_parts(self) -> List[str]:
        parts = super()._fingerprint_parts()
        parts[0] = "kind=dag"
        parts.extend(
            f"edge={u}|{v}"
            for u, v in sorted((repr(u), repr(v)) for u, v in self.graph.edges())
        )
        return parts

    # ------------------------------------------------------------------ #
    # transforms & serialisation
    # ------------------------------------------------------------------ #
    def swapped(self) -> "DAGInstance":
        """Exchange ``p`` and ``s`` while keeping the precedence relation."""
        return DAGInstance(self.tasks.swapped(), m=self.m, edges=self.graph.edges(), name=self.name)

    def with_m(self, m: int) -> "DAGInstance":
        """Return a copy of the instance with a different processor count."""
        return DAGInstance(self.tasks, m=m, edges=self.graph.edges(), name=self.name)

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["kind"] = "dag"
        data["edges"] = [[u, v] for u, v in self.graph.edges()]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DAGInstance":
        tasks = TaskSet.from_records(data["tasks"])  # type: ignore[arg-type]
        edges = [tuple(e) for e in data.get("edges", [])]  # type: ignore[union-attr]
        return cls(tasks, m=data["m"], edges=edges, name=data.get("name"))  # type: ignore[arg-type]
