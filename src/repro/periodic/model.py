"""Periodic real-time task model: periods, phases, deadlines, WCETs.

The classical periodic task model layered over the paper's
``(p_j, s_j)`` tasks: a :class:`PeriodicTask` releases a *job* every
``period`` time units starting at ``phase``; each job needs ``wcet``
processing time, occupies ``s`` memory units on its processor (the
paper's cumulative code-storage model — a task's code is resident once
per processor, regardless of how many of its jobs run there), and must
complete within ``deadline`` time units of its release (implicit
deadlines — ``deadline = period`` — by default).

A :class:`PeriodicInstance` is the periodic analogue of
:class:`~repro.core.instance.Instance`: it serialises over the wire as
``kind: "periodic"``, is content-addressable via :meth:`content_hash`,
and expands into concrete dated jobs over one *hyperperiod* (the LCM of
the periods, computed exactly over rationals so dyadic float periods
never drift).  Because co-prime periods make the hyperperiod — and hence
the unrolled job count — blow up combinatorially, every expansion is
bounded by an explicit ``unroll_budget``: exceeding it raises the typed
:class:`HyperperiodBudgetError` *before* any job list is materialised,
so an adversarial period set can never hang or exhaust memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.instance import _check_m

__all__ = [
    "PeriodicTask",
    "PeriodicJob",
    "PeriodicInstance",
    "HyperperiodBudgetError",
    "DEFAULT_UNROLL_BUDGET",
]

#: Default cap on the number of jobs any hyperperiod unroll may produce.
DEFAULT_UNROLL_BUDGET = 20_000


class HyperperiodBudgetError(ValueError):
    """Unrolling this periodic instance would exceed its job budget.

    Raised *before* materialising any job (the count is computed with
    exact integer arithmetic), so an adversarial co-prime period set
    fails fast instead of hanging or exhausting memory.  Carries
    ``job_count`` (the number of jobs the unroll would produce) and
    ``budget`` (the instance's ``unroll_budget``).
    """

    def __init__(self, job_count: int, budget: int, horizon: object) -> None:
        self.job_count = job_count
        self.budget = budget
        super().__init__(
            f"unrolling over horizon {horizon} would produce {job_count} jobs, "
            f"exceeding the unroll budget of {budget}; raise unroll_budget "
            f"explicitly, shorten the horizon, or use harmonic periods "
            f"(whose hyperperiod stays small)"
        )


def _check_finite(value: float, what: str, task_id: object, *, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} of periodic task {task_id!r} must be finite, got {value!r}")
    if positive:
        if value <= 0:
            raise ValueError(f"{what} of periodic task {task_id!r} must be > 0, got {value!r}")
    elif value < 0:
        raise ValueError(f"{what} of periodic task {task_id!r} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PeriodicTask:
    """One periodic task: a job every ``period`` units from ``phase`` on.

    Parameters
    ----------
    id:
        Hashable identifier, unique within an instance.
    wcet:
        Worst-case execution time of each job (``>= 0``).
    s:
        Storage requirement of the task's code (``>= 0``), charged once
        per processor the task runs on.
    period:
        Release interval (``> 0``).
    phase:
        Release offset of the first job (``>= 0``, default 0 —
        synchronous release).
    deadline:
        *Relative* deadline of each job (``> 0``); ``None`` (default)
        means the implicit deadline ``period``.
    label:
        Optional human-readable label (excluded from content hashing).
    """

    id: object
    wcet: float
    s: float
    period: float
    phase: float = 0.0
    deadline: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "wcet", _check_finite(self.wcet, "wcet", self.id))
        object.__setattr__(self, "s", _check_finite(self.s, "storage size", self.id))
        object.__setattr__(self, "period", _check_finite(self.period, "period", self.id, positive=True))
        object.__setattr__(self, "phase", _check_finite(self.phase, "phase", self.id))
        resolved = self.period if self.deadline is None else self.deadline
        object.__setattr__(self, "deadline", _check_finite(resolved, "deadline", self.id, positive=True))

    @property
    def utilization(self) -> float:
        """Long-run processor demand ``wcet / period``."""
        return self.wcet / self.period

    def job(self, index: int) -> "PeriodicJob":
        """The ``index``-th job (0-based) of this task."""
        release = self.phase + index * self.period
        return PeriodicJob(
            job_id=f"{self.id}#{index}",
            task_id=self.id,
            index=index,
            release=release,
            deadline=release + self.deadline,  # type: ignore[operator]
            wcet=self.wcet,
            s=self.s,
        )


@dataclass(frozen=True)
class PeriodicJob:
    """One concrete dated job of a periodic task.

    ``release`` and ``deadline`` are absolute times; ``job_id`` is the
    synthetic ``"{task_id}#{index}"`` identifier jobs carry through
    unrolled instances, schedules, and traces.
    """

    job_id: str
    task_id: object
    index: int
    release: float
    deadline: float
    wcet: float
    s: float


def _lcm_fractions(values: Iterable[Fraction]) -> Fraction:
    """Exact least common multiple of positive rationals.

    ``lcm(a/b, c/d) = lcm(a, c) / gcd(b, d)`` — the smallest rational
    that is an integer multiple of both.  Exact over arbitrarily large
    integers, so it never overflows (only the float view can).
    """
    result = Fraction(0)
    for value in values:
        if result == 0:
            result = value
            continue
        result = Fraction(
            math.lcm(result.numerator, value.numerator),
            math.gcd(result.denominator, value.denominator),
        )
    return result


class PeriodicInstance:
    """A periodic workload on ``m`` identical processors.

    Parameters
    ----------
    tasks:
        The periodic tasks (any iterable of :class:`PeriodicTask`), ids
        unique.
    m:
        Number of identical processors.
    horizon:
        Optional explicit study window ``[0, horizon)`` for job
        expansion; ``None`` (default) means one hyperperiod.
    unroll_budget:
        Hard cap on the number of jobs :meth:`jobs` may materialise;
        exceeding it raises :class:`HyperperiodBudgetError`.
    name:
        Optional name used in reports (excluded from content hashing).
    """

    kind = "periodic"

    __slots__ = ("tasks", "m", "name", "horizon", "unroll_budget", "_by_id", "_content_hash")

    def __init__(
        self,
        tasks: Iterable[PeriodicTask],
        m: int,
        horizon: Optional[float] = None,
        unroll_budget: int = DEFAULT_UNROLL_BUDGET,
        name: Optional[str] = None,
    ) -> None:
        tasks = tuple(tasks)
        by_id: Dict[object, PeriodicTask] = {}
        for task in tasks:
            if not isinstance(task, PeriodicTask):
                raise TypeError(f"expected PeriodicTask, got {type(task).__name__}")
            if task.id in by_id:
                raise ValueError(f"duplicate periodic task id {task.id!r}")
            by_id[task.id] = task
        _check_m(m)
        if horizon is not None:
            horizon = float(horizon)
            if not (math.isfinite(horizon) and horizon > 0):
                raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
        if not isinstance(unroll_budget, int) or isinstance(unroll_budget, bool) or unroll_budget < 1:
            raise ValueError(f"unroll_budget must be an int >= 1, got {unroll_budget!r}")
        self.tasks: Tuple[PeriodicTask, ...] = tasks
        self.m: int = m
        self.name: Optional[str] = name
        self.horizon: Optional[float] = horizon
        self.unroll_budget: int = unroll_budget
        self._by_id: Dict[object, PeriodicTask] = by_id
        self._content_hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of periodic tasks (not jobs)."""
        return len(self.tasks)

    def task(self, task_id: object) -> PeriodicTask:
        """Lookup a periodic task by id."""
        return self._by_id[task_id]

    @property
    def utilization(self) -> float:
        """Total long-run demand ``sum(wcet_i / period_i)``."""
        return sum(task.utilization for task in self.tasks)

    @property
    def hyperperiod_exact(self) -> Fraction:
        """Exact hyperperiod: LCM of the periods over rationals.

        ``Fraction(float)`` is the exact binary value of each period, so
        dyadic period families (1, 2, 4, 8, ... or 0.5, 1.0, ...) give
        exactly the expected LCM.  Arbitrary-precision integers mean the
        computation itself never overflows — only the unrolled job count
        can, and that is gated by ``unroll_budget``.
        """
        if not self.tasks:
            return Fraction(0)
        return _lcm_fractions(Fraction(task.period) for task in self.tasks)

    @property
    def hyperperiod(self) -> float:
        """The hyperperiod as a float (``inf`` when it exceeds float range)."""
        try:
            return float(self.hyperperiod_exact)
        except OverflowError:
            return math.inf

    def _horizon_exact(self, horizon: Optional[float] = None) -> Fraction:
        if horizon is not None:
            return Fraction(float(horizon))
        if self.horizon is not None:
            return Fraction(self.horizon)
        return self.hyperperiod_exact

    def effective_horizon(self, horizon: Optional[float] = None) -> float:
        """The study window actually used by :meth:`jobs` (float view)."""
        try:
            return float(self._horizon_exact(horizon))
        except OverflowError:
            return math.inf

    def job_count(self, horizon: Optional[float] = None) -> int:
        """Exact number of jobs released in ``[0, horizon)``.

        Pure integer/rational arithmetic — safe to call on adversarial
        co-prime period sets whose hyperperiod is astronomically large.
        """
        H = self._horizon_exact(horizon)
        count = 0
        for task in self.tasks:
            quota = (H - Fraction(task.phase)) / Fraction(task.period)
            if quota > 0:
                count += math.ceil(quota)
        return count

    def check_budget(self, horizon: Optional[float] = None) -> int:
        """Job count for the horizon; raises :class:`HyperperiodBudgetError` over budget."""
        count = self.job_count(horizon)
        if count > self.unroll_budget:
            raise HyperperiodBudgetError(count, self.unroll_budget, self.effective_horizon(horizon))
        return count

    def jobs(self, horizon: Optional[float] = None) -> List[PeriodicJob]:
        """All jobs released in ``[0, horizon)``, budget-checked first.

        Deterministic order: by ``(release, absolute deadline, task
        position, job index)`` — the "arbitrary total ordering" solvers
        break ties with, mirroring task insertion order on one-shot
        instances.
        """
        self.check_budget(horizon)
        H = float(self._horizon_exact(horizon))
        task_pos = {task.id: pos for pos, task in enumerate(self.tasks)}
        out: List[PeriodicJob] = []
        for task in self.tasks:
            k = 0
            while True:
                release = task.phase + k * task.period
                if release >= H:
                    break
                out.append(task.job(k))
                k += 1
        out.sort(key=lambda j: (j.release, j.deadline, task_pos[j.task_id], j.index))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = f" {self.name!r}" if self.name else ""
        return f"PeriodicInstance({name} n={self.n}, m={self.m}, U={self.utilization:.3f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicInstance):
            return NotImplemented
        return (
            self.m == other.m
            and self.tasks == other.tasks
            and self.horizon == other.horizon
        )

    def __hash__(self) -> int:
        return hash((self.tasks, self.m, self.horizon))

    # ------------------------------------------------------------------ #
    # content addressing (mirrors Instance.content_hash)
    # ------------------------------------------------------------------ #
    def _fingerprint_parts(self) -> List[str]:
        parts = ["kind=periodic", f"m={self.m}", f"horizon={self.horizon!r}"]
        parts.extend(
            f"ptask={t.id!r}|{t.wcet!r}|{t.s!r}|{t.period!r}|{t.phase!r}|{t.deadline!r}"
            for t in self.tasks
        )
        return parts

    def content_hash(self) -> str:
        """SHA-256 digest of everything a deterministic solver can observe.

        Covers ``m``, the explicit horizon, and each task's id, wcet,
        storage, period, phase and (resolved) relative deadline, in
        insertion order.  ``name``, ``label`` and ``unroll_budget`` are
        excluded — the budget only gates *whether* an unroll runs, never
        what it produces — so the digest composes with the solver result
        cache exactly like :meth:`Instance.content_hash`.
        """
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
    def with_m(self, m: int) -> "PeriodicInstance":
        """Copy with a different processor count."""
        return PeriodicInstance(
            self.tasks, m=m, horizon=self.horizon,
            unroll_budget=self.unroll_budget, name=self.name,
        )

    def with_horizon(self, horizon: Optional[float]) -> "PeriodicInstance":
        """Copy with a different explicit study window."""
        return PeriodicInstance(
            self.tasks, m=self.m, horizon=horizon,
            unroll_budget=self.unroll_budget, name=self.name,
        )

    # ------------------------------------------------------------------ #
    # (de)serialisation — the ``kind: "periodic"`` wire form
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dictionary representation."""
        return {
            "kind": "periodic",
            "name": self.name,
            "m": self.m,
            "horizon": self.horizon,
            "unroll_budget": self.unroll_budget,
            "tasks": [
                {
                    "id": t.id, "wcet": t.wcet, "s": t.s, "period": t.period,
                    "phase": t.phase, "deadline": t.deadline, "label": t.label,
                }
                for t in self.tasks
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PeriodicInstance":
        """Inverse of :meth:`to_dict`."""
        tasks = [
            PeriodicTask(
                id=rec["id"], wcet=rec["wcet"], s=rec["s"], period=rec["period"],
                phase=rec.get("phase", 0.0), deadline=rec.get("deadline"),
                label=rec.get("label"),
            )
            for rec in data["tasks"]  # type: ignore[index]
        ]
        horizon = data.get("horizon")
        return cls(
            tasks, m=data["m"],  # type: ignore[arg-type]
            horizon=None if horizon is None else float(horizon),  # type: ignore[arg-type]
            unroll_budget=data.get("unroll_budget", DEFAULT_UNROLL_BUDGET),  # type: ignore[arg-type]
            name=data.get("name"),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PeriodicInstance":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # pickle support for __slots__ without __dict__ (ships to solve_many
    # workers and in/out of the result cache exactly like Instance).
    def __getstate__(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
