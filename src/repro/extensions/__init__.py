"""Model extensions beyond the paper's core results.

The paper's concluding remarks (§7) call for "more realistic model
extensions [...] such as conditional task graphs or non identical
processors".  This package prototypes one of those directions, clearly
labelled as an extension (heuristic or weaker guarantees, not the
paper's theorems):

* :mod:`~repro.extensions.uniform_machines` — processors with different
  speeds (``Q | p_j, s_j | Cmax, Mmax``): speed-aware list scheduling and a
  memory-budgeted RLS analogue.

The online scheduler that used to live here graduated into the
first-class streaming subsystem :mod:`repro.online`.
"""

from __future__ import annotations

from repro.extensions.uniform_machines import (
    UniformInstance,
    uniform_list_schedule,
    uniform_rls,
)

__all__ = [
    "UniformInstance",
    "uniform_list_schedule",
    "uniform_rls",
]

