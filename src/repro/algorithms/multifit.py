"""MULTIFIT: makespan minimization through bin-packing duality.

MULTIFIT [Coffman, Garey, Johnson 1978] binary-searches a capacity ``C`` and
asks whether First Fit Decreasing (FFD) packs all tasks into ``m`` bins of
capacity ``C``.  The smallest capacity for which FFD succeeds is at most
``13/11`` times the optimal makespan (after enough iterations), which makes
MULTIFIT a tighter drop-in replacement for LPT inside ``SBO_Δ`` when a
better ``ρ1``/``ρ2`` is wanted without paying for the PTAS.

As everywhere in the library, the ``objective`` switch selects whether the
packed weight is the processing time (``Cmax``) or the storage size
(``Mmax``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.core.task import Task

__all__ = ["multifit_schedule", "ffd_pack", "multifit_guarantee"]

#: Worst-case ratio of MULTIFIT with a sufficient number of iterations.
_MULTIFIT_RATIO = 13.0 / 11.0


def _weight(task: Task, objective: str) -> float:
    if objective == "time":
        return task.p
    if objective == "memory":
        return task.s
    raise ValueError(f"unknown objective {objective!r}; expected 'time' or 'memory'")


def _ffd_pack_sorted(
    ordered: List[tuple], m: int, capacity: float
) -> Optional[List[List[object]]]:
    """FFD core over presorted ``(weight, task_id)`` pairs.

    Split out so :func:`multifit_schedule` sorts the tasks *once* instead
    of once per binary-search probe (the sort dominated the kernel's
    profile).  Semantics are exactly first-fit: each item goes to the
    lowest-indexed bin it fits in.
    """
    bins: List[float] = [0.0] * m
    contents: List[List[object]] = [[] for _ in range(m)]
    eps = 1e-12 * max(1.0, capacity)
    limit = capacity + eps
    for w, tid in ordered:
        for j in range(m):
            if bins[j] + w <= limit:
                bins[j] += w
                contents[j].append(tid)
                break
        else:
            return None
    return contents


def _sorted_weights(tasks: List[Task], objective: str) -> List[tuple]:
    """``(weight, task_id)`` pairs in decreasing-weight order.

    The sort is stable, so ties keep instance order — the same
    deterministic tie-break the seed implementation had.
    """
    if objective == "time":
        pairs = [(t.p, t.id) for t in tasks]
    elif objective == "memory":
        pairs = [(t.s, t.id) for t in tasks]
    else:
        raise ValueError(f"unknown objective {objective!r}; expected 'time' or 'memory'")
    pairs.sort(key=lambda pair: -pair[0])
    return pairs


def ffd_pack(
    tasks: List[Task], m: int, capacity: float, objective: str = "time"
) -> Optional[List[List[object]]]:
    """First Fit Decreasing packing of ``tasks`` into ``m`` bins of ``capacity``.

    Returns the per-bin lists of task ids on success and ``None`` when some
    task does not fit.  Ties in the decreasing-weight order are broken by
    instance order to keep the algorithm deterministic.
    """
    return _ffd_pack_sorted(_sorted_weights(tasks, objective), m, capacity)


def multifit_schedule(
    instance: Instance,
    objective: str = "time",
    iterations: int = 40,
) -> Schedule:
    """MULTIFIT schedule of an independent-task instance.

    Parameters
    ----------
    instance:
        The instance to schedule.
    objective:
        ``"time"`` to minimize ``Cmax`` or ``"memory"`` to minimize ``Mmax``.
    iterations:
        Number of binary-search iterations on the capacity; the classical
        analysis needs only ``O(log(1/ε))`` iterations and 40 reaches
        floating-point resolution.
    """
    tasks = instance.tasks.tasks
    m = instance.m
    weights = [_weight(t, objective) for t in tasks]
    if not tasks:
        return Schedule(instance, {}, order={q: [] for q in range(m)})
    total = sum(weights)
    ordered = _sorted_weights(tasks, objective)
    # Classical MULTIFIT bracket: CL <= OPT <= CU and FFD always succeeds at CU.
    lower = max(total / m, max(weights))
    upper = max(2.0 * total / m, max(weights))
    best: Optional[List[List[object]]] = _ffd_pack_sorted(ordered, m, upper)
    if best is None:  # pragma: no cover - the bracket guarantees success
        upper = total + max(weights)
        best = _ffd_pack_sorted(ordered, m, upper)
        assert best is not None
    for _ in range(iterations):
        mid = 0.5 * (lower + upper)
        packed = _ffd_pack_sorted(ordered, m, mid)
        if packed is None:
            lower = mid
        else:
            best = packed
            upper = mid
    pos = instance.tasks.positions
    lanes = [[pos[tid] for tid in ids] for ids in best]
    procs = [0] * instance.n
    for q, lane in enumerate(lanes):
        for i in lane:
            procs[i] = q
    return Schedule._trusted(instance, procs, lanes, [i for lane in lanes for i in lane])


def multifit_guarantee(iterations: int = 40) -> float:
    """Approximation ratio guaranteed by MULTIFIT after ``iterations`` halvings.

    The limit ratio is ``13/11``; finitely many iterations add ``2^-k`` of
    the initial bracket, which we fold into the returned value the standard
    way (``13/11 + 2^-k``).
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    return _MULTIFIT_RATIO + 2.0 ** (-iterations)
