"""Core problem model and the paper's algorithms.

Sub-modules
-----------

``task``
    The :class:`Task` record (processing time ``p``, storage size ``s``)
    and the :class:`TaskSet` container.
``instance``
    Independent-task instances (:class:`Instance`) and precedence
    constrained instances (:class:`DAGInstance`).
``schedule``
    The :class:`Schedule` class: an assignment of tasks to processors, for
    independent tasks, optionally with the start times DAGs need.
``objectives``
    Evaluation of ``Cmax``, ``Mmax`` and ``sum Ci``.
``validation``
    Feasibility checking of schedules.
``bounds``
    Lower bounds used throughout the paper (Graham area bounds, critical
    path, ``LB`` of Algorithm 2).
``pareto``
    Pareto dominance and front maintenance.
``sbo``
    Algorithm 1 — the Symmetric Bi-Objective algorithm ``SBO_Δ`` (§3).
``rls``
    Algorithm 2 — Restricted List Scheduling ``RLS_Δ`` (§5.1).
``trio``
    The tri-objective extension on independent tasks (§5.2).
``constrained``
    Resolution of the original storage-constrained problem (§7).
``impossibility``
    The inapproximability constructions and bounds of §4.
"""

from __future__ import annotations

__all__ = [
    "task",
    "instance",
    "schedule",
    "objectives",
    "validation",
    "bounds",
    "pareto",
    "sbo",
    "rls",
    "trio",
    "constrained",
    "impossibility",
]
