"""Weighted-fair dequeue built on the repo's own list-scheduling ledger.

The serving stack schedules *tenants onto worker capacity* with exactly
the machinery the paper's solvers use to schedule *tasks onto machines*.
:func:`repro.algorithms.list_scheduling.list_schedule` keeps one
accumulated-load ledger per machine and places each task on the machine
of least load (``min(range(m), key=lambda j: (loads[j], j))``).
:class:`FairShareLedger` transposes that step: each **tenant** is a
machine, each admission grant is a unit task whose "processing time" is
``cost / weight`` (normalized service), and dequeueing picks the tenant
with the least accumulated normalized service.  Graham's argument that
no machine ledger can run ahead of another by more than one task weight
becomes the weighted-fairness bound: over any interval in which a set of
tenants stays backlogged, their grant counts track ``weight``
proportions to within one grant per tenant — which is why the shares
converge (property-tested in ``tests/test_qos.py``).

:class:`~repro.qos.queue.AdmissionQueue` keeps one ledger per priority
class; this weighted-fair pick is the one dequeue discipline.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["FairShareLedger"]


class FairShareLedger:
    """Per-tenant normalized-service ledger (the Graham ledger transposed)."""

    def __init__(self) -> None:
        self._served: Dict[str, float] = {}

    def activate(self, name: str, weight: float) -> None:
        """Join (or re-join) the backlogged set without a catch-up advantage.

        A tenant idle for a while has a stale, low ledger; letting it keep
        that value would hand it an unbounded burst of back-to-back grants
        ("catch-up") that starves the tenants that kept the workers busy.
        The standard virtual-time fix: on re-activation the ledger jumps
        to at least the *minimum ledger of the currently tracked tenants*
        — fairness is measured over backlogged intervals only.
        """
        floor = min(self._served.values()) if self._served else 0.0
        self._served[name] = max(self._served.get(name, 0.0), floor)

    def pick(self, eligible: Mapping[str, float]) -> str:
        """The eligible tenant of least normalized service (ties by name).

        The exact shape of list scheduling's placement step — argmin over
        ledgers with a deterministic index tie-break — with tenants in
        the machine role.
        """
        if not eligible:
            raise ValueError("pick() needs at least one eligible tenant")
        return min(eligible, key=lambda name: (self._served.get(name, 0.0), name))

    def charge(self, name: str, weight: float, cost: float = 1.0) -> None:
        self._served[name] = self._served.get(name, 0.0) + cost / weight

    def served(self, name: str) -> float:
        """Accumulated normalized service of one tenant (0.0 when unseen)."""
        return self._served.get(name, 0.0)
