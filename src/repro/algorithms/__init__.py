"""Single-objective sub-solvers and baselines.

``SBO_Δ`` (Algorithm 1) combines two single-objective schedules; the paper
instantiates it with Graham's List Scheduling (ratio ``2 - 1/m``) or with
the Hochbaum–Shmoys PTAS (ratio ``1 + ε``).  This package provides those
solvers plus the classical heuristics used as baselines and inside the
experiment harness:

* :mod:`~repro.algorithms.list_scheduling` — Graham list scheduling for
  independent tasks and DAGs;
* :mod:`~repro.algorithms.lpt` — Longest Processing Time first;
* :mod:`~repro.algorithms.spt` — Shortest Processing Time first (optimal on
  ``sum Ci``);
* :mod:`~repro.algorithms.multifit` — MULTIFIT (FFD + binary search);
* :mod:`~repro.algorithms.ptas` — Hochbaum–Shmoys dual-approximation scheme;
* :mod:`~repro.algorithms.exact` — exact solvers (branch and bound) and
  exact Pareto-front enumeration for small instances;
* :mod:`~repro.algorithms.baselines` — memory-oblivious / makespan-oblivious
  corner-point baselines and simple heuristics.

All independent-task solvers accept an ``objective`` argument (``"time"``
or ``"memory"``) and exploit the symmetry of §2.1: optimizing memory is the
same problem with ``p`` and ``s`` exchanged.
"""

from __future__ import annotations

from repro.algorithms.list_scheduling import (
    list_schedule,
    graham_dag_schedule,
)
from repro.algorithms.lpt import lpt_schedule
from repro.algorithms.spt import spt_schedule
from repro.algorithms.multifit import multifit_schedule
from repro.algorithms.ptas import ptas_schedule
from repro.algorithms.exact import (
    exact_cmax,
    exact_mmax,
    exact_schedule,
    pareto_front_exact,
)
from repro.algorithms.baselines import (
    memory_oblivious_schedule,
    makespan_oblivious_schedule,
    round_robin_schedule,
    random_schedule,
)

__all__ = [
    "list_schedule",
    "graham_dag_schedule",
    "lpt_schedule",
    "spt_schedule",
    "multifit_schedule",
    "ptas_schedule",
    "exact_cmax",
    "exact_mmax",
    "exact_schedule",
    "pareto_front_exact",
    "memory_oblivious_schedule",
    "makespan_oblivious_schedule",
    "round_robin_schedule",
    "random_schedule",
]
