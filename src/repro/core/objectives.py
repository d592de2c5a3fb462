"""Objective evaluation: ``Cmax``, ``Mmax``, ``sum Ci`` — and deadlines.

This module evaluates any :class:`~repro.core.schedule.Schedule`, timed
or not, and packages the three objective values of the paper in a single
comparable record.

For the periodic real-time extension (:mod:`repro.periodic`) it adds the
deadline-aware objective family of the ``R | r_j, d_j | sum w^f F_j +
sum w^e E_j`` problem shape: deadline-miss count and ratio, maximum
lateness ``max_j (C_j - d_j)``, and (optionally weighted) earliness
``sum_j w_j * max(0, d_j - C_j)`` and flow time ``sum_j w_j * (C_j -
r_j)``.  :func:`deadline_metrics` computes them from plain completion /
deadline / release tables, so they apply to any timed execution — a
native periodic schedule, a simulator replay, or an unrolled one-shot
schedule with a release side table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.schedule import Schedule

__all__ = [
    "ObjectiveValues",
    "evaluate",
    "ratio_to",
    "DeadlineMetrics",
    "deadline_metrics",
]

@dataclass(frozen=True)
class ObjectiveValues:
    """The three objective values of a schedule.

    ``cmax`` and ``mmax`` are the paper's primary bi-objective pair;
    ``sum_ci`` is the third objective of §5.2.
    """

    cmax: float
    mmax: float
    sum_ci: float

    def as_pair(self) -> Tuple[float, float]:
        """``(Cmax, Mmax)`` pair used for Pareto dominance."""
        return (self.cmax, self.mmax)

    def as_triple(self) -> Tuple[float, float, float]:
        """``(Cmax, Mmax, sum Ci)`` triple."""
        return (self.cmax, self.mmax, self.sum_ci)

    def weakly_dominates(self, other: "ObjectiveValues", include_sum_ci: bool = False) -> bool:
        """True when this point is no worse than ``other`` on every objective."""
        ok = self.cmax <= other.cmax and self.mmax <= other.mmax
        if include_sum_ci:
            ok = ok and self.sum_ci <= other.sum_ci
        return ok

    def dominates(self, other: "ObjectiveValues", include_sum_ci: bool = False) -> bool:
        """Strict Pareto dominance (no worse everywhere, better somewhere)."""
        if not self.weakly_dominates(other, include_sum_ci=include_sum_ci):
            return False
        if include_sum_ci:
            return (self.cmax, self.mmax, self.sum_ci) != (other.cmax, other.mmax, other.sum_ci)
        return (self.cmax, self.mmax) != (other.cmax, other.mmax)

    def isclose(self, other: "ObjectiveValues", rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        """Component-wise ``math.isclose`` comparison."""
        return (
            math.isclose(self.cmax, other.cmax, rel_tol=rel_tol, abs_tol=abs_tol)
            and math.isclose(self.mmax, other.mmax, rel_tol=rel_tol, abs_tol=abs_tol)
            and math.isclose(self.sum_ci, other.sum_ci, rel_tol=rel_tol, abs_tol=abs_tol)
        )


def evaluate(schedule: Schedule) -> ObjectiveValues:
    """Evaluate the three objectives of a schedule.

    Completion times follow from back-to-back execution on an untimed
    schedule and from the start times on a timed one.
    """
    return ObjectiveValues(cmax=schedule.cmax, mmax=schedule.mmax, sum_ci=schedule.sum_ci)


def ratio_to(
    values: ObjectiveValues,
    cmax_ref: float,
    mmax_ref: float,
    sum_ci_ref: Optional[float] = None,
) -> Tuple[float, float, Optional[float]]:
    """Performance ratios of ``values`` against reference (optimal or lower-bound) values.

    A reference of ``0`` with a matching achieved value of ``0`` yields a
    ratio of ``1`` (the schedule is trivially optimal on that objective);
    a positive achieved value against a zero reference yields ``inf``.
    """

    def _ratio(achieved: float, ref: float) -> float:
        if ref > 0:
            return achieved / ref
        return 1.0 if achieved <= 0 else math.inf

    r_c = _ratio(values.cmax, cmax_ref)
    r_m = _ratio(values.mmax, mmax_ref)
    r_s = None if sum_ci_ref is None else _ratio(values.sum_ci, sum_ci_ref)
    return (r_c, r_m, r_s)


# --------------------------------------------------------------------------- #
# deadline-aware objectives (periodic / real-time extension)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeadlineMetrics:
    """Deadline-aware objective values of one timed execution.

    Attributes
    ----------
    n_jobs:
        Number of jobs evaluated.
    misses:
        Jobs completing after their absolute deadline (beyond tolerance).
    miss_ratio:
        ``misses / n_jobs`` (``0.0`` for an empty job set).
    max_lateness:
        ``max_j (C_j - d_j)`` — negative when every job finishes early;
        ``0.0`` for an empty job set.
    total_tardiness:
        ``sum_j max(0, C_j - d_j)``.
    total_earliness / weighted_earliness:
        ``sum_j [w_j *] max(0, d_j - C_j)``.
    total_flow / weighted_flow:
        ``sum_j [w_j *] (C_j - r_j)`` (releases default to 0).
    """

    n_jobs: int
    misses: int
    miss_ratio: float
    max_lateness: float
    total_tardiness: float
    total_earliness: float
    weighted_earliness: float
    total_flow: float
    weighted_flow: float


def deadline_metrics(
    completions: Mapping[object, float],
    deadlines: Mapping[object, float],
    releases: Optional[Mapping[object, float]] = None,
    weights: Optional[Mapping[object, float]] = None,
    tolerance: float = 1e-9,
) -> DeadlineMetrics:
    """Evaluate the deadline objective family from plain time tables.

    ``completions`` drives the evaluation: every completed job must have
    an entry in ``deadlines``; ``releases`` and ``weights`` default to
    ``0`` and ``1`` per job.  A job *misses* when ``C_j > d_j +
    tolerance`` — the tolerance absorbs float drift from long preemptive
    timelines without hiding real misses.
    """
    misses = 0
    max_lateness = 0.0
    total_tardiness = 0.0
    total_earliness = 0.0
    weighted_earliness = 0.0
    total_flow = 0.0
    weighted_flow = 0.0
    first = True
    for job_id, completion in completions.items():
        try:
            deadline = deadlines[job_id]
        except KeyError:
            raise KeyError(f"no deadline recorded for job {job_id!r}") from None
        release = 0.0 if releases is None else releases.get(job_id, 0.0)
        weight = 1.0 if weights is None else weights.get(job_id, 1.0)
        lateness = completion - deadline
        if lateness > tolerance:
            misses += 1
            total_tardiness += lateness
        if first or lateness > max_lateness:
            max_lateness = lateness
            first = False
        earliness = max(0.0, deadline - completion)
        flow = completion - release
        total_earliness += earliness
        weighted_earliness += weight * earliness
        total_flow += flow
        weighted_flow += weight * flow
    n_jobs = len(completions)
    return DeadlineMetrics(
        n_jobs=n_jobs,
        misses=misses,
        miss_ratio=(misses / n_jobs) if n_jobs else 0.0,
        max_lateness=max_lateness if n_jobs else 0.0,
        total_tardiness=total_tardiness,
        total_earliness=total_earliness,
        weighted_earliness=weighted_earliness,
        total_flow=total_flow,
        weighted_flow=weighted_flow,
    )
