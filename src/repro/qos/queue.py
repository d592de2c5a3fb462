"""The weighted-fair admission queue: who gets the next free slot.

:class:`AdmissionQueue` guards a fixed number of *admission slots* (the
QoS replacement for the service's flat ``max_pending`` semaphore).  When
every slot is taken, requests wait in per-tenant FIFO queues, and each
freed slot is granted by a two-level decision:

1. **Priority class first** — any queued ``interactive`` request is
   granted before any ``batch`` request, always.  This is queue-level
   preemption only: a running job is never revoked, so an interactive
   burst overtakes the *backlog*, not the workers.
2. **Weighted-fair within the class** — among backlogged tenants of the
   chosen class, that class's :class:`~repro.qos.fairshare.FairShareLedger`
   (one per class, so ledgers never mix classes) picks the tenant with the
   least normalized service, exactly like list scheduling picks the
   least-loaded machine.

Per-tenant FIFO order is preserved: fairness is decided *between*
tenants, never by reordering one tenant's own requests.

Everything here runs on the service's event loop (no locks needed); the
waiters are plain futures, and a waiter cancelled while queued is
dropped without charging the ledger or leaking a slot.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional

from .fairshare import FairShareLedger
from .tenants import PRIORITY_CLASSES, TenantConfig

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Priority-class / weighted-fair gate over ``capacity`` admission slots."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._granted = 0
        # One ledger per priority class: the strict class ordering already
        # decides *between* classes, so fair shares are tracked within one.
        self._ledgers: Dict[str, FairShareLedger] = {
            cls: FairShareLedger() for cls in PRIORITY_CLASSES
        }
        self._waiting: Dict[str, Dict[str, Deque["_Waiter"]]] = {
            cls: {} for cls in PRIORITY_CLASSES
        }
        self._weights: Dict[str, float] = {}

    # -- introspection -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def granted(self) -> int:
        """Slots currently held (the QoS analogue of ``pending``)."""
        return self._granted

    @property
    def free(self) -> int:
        return max(0, self._capacity - self._granted)

    def depth(self) -> int:
        """Total requests waiting for a slot."""
        return sum(self.depth_by_class().values())

    def depth_by_class(self) -> Dict[str, int]:
        """Waiting requests per priority class (the autoscaler's signal)."""
        return {
            cls: sum(len(q) for q in queues.values())
            for cls, queues in self._waiting.items()
        }

    def set_capacity(self, capacity: int) -> None:
        """Retarget the slot count (cluster capacity follows shard churn).

        Growing dispatches newly-free slots immediately; shrinking never
        revokes held slots — the surplus drains as they are released.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._dispatch()

    # -- the gate ------------------------------------------------------

    async def acquire(self, tenant: TenantConfig) -> bool:
        """Wait for (and take) one admission slot for ``tenant``.

        Returns ``True`` when the request had to queue, ``False`` when a
        slot was free immediately (the caller records queue wait either
        way; this mirrors the flat path's ``waited`` flag that re-checks
        the cache after a queue wait).  Cancellation while queued cleanly
        removes the waiter; cancellation in the hand-off instant returns
        the already-granted slot.
        """
        self._weights[tenant.name] = tenant.weight
        queues = self._waiting[tenant.priority]
        if self._granted < self._capacity and not any(queues.values()):
            # Fast path: a free slot and nobody of this class queued ahead.
            # (A queued *lower* class never blocks this: strict priority.)
            if tenant.priority == PRIORITY_CLASSES[0] or not self._any_waiting():
                self._granted += 1
                self._ledgers[tenant.priority].charge(tenant.name, tenant.weight)
                return False
        waiter = _Waiter(tenant)
        bucket = queues.get(tenant.name)
        if bucket is None:
            bucket = queues[tenant.name] = deque()
        if not bucket:
            self._ledgers[tenant.priority].activate(tenant.name, tenant.weight)
        bucket.append(waiter)
        self._dispatch()
        try:
            await waiter.future
        except asyncio.CancelledError:
            if waiter.future.cancelled() or not waiter.future.done():
                # Still queued: unlink so it can never be granted.
                try:
                    bucket.remove(waiter)
                except ValueError:
                    pass
            else:
                # Granted in the same instant we were cancelled: the slot
                # is ours and must go back.
                self.release()
            raise
        return True

    def release(self) -> None:
        """Return one slot and hand it to the best waiter, if any."""
        if self._granted <= 0:
            raise RuntimeError("release() without a matching acquire()")
        self._granted -= 1
        self._dispatch()

    # -- internals -----------------------------------------------------

    def _any_waiting(self) -> bool:
        return any(
            bucket for queues in self._waiting.values() for bucket in queues.values()
        )

    def _dispatch(self) -> None:
        while self._granted < self._capacity:
            waiter = self._pop_next()
            if waiter is None:
                return
            self._granted += 1
            waiter.future.set_result(None)

    def _pop_next(self) -> Optional["_Waiter"]:
        """The next grant: strict class order, then the fair-share pick."""
        for cls in PRIORITY_CLASSES:
            queues = self._waiting[cls]
            while True:
                eligible = {
                    name: self._weights.get(name, 1.0)
                    for name, bucket in queues.items()
                    if bucket
                }
                if not eligible:
                    break
                name = self._ledgers[cls].pick(eligible)
                bucket = queues[name]
                while bucket:
                    waiter = bucket.popleft()
                    if waiter.future.done():
                        continue  # cancelled while queued; skip, charge nothing
                    self._ledgers[cls].charge(name, self._weights.get(name, 1.0))
                    return waiter
                # Tenant's queue held only cancelled waiters; re-pick.
        return None


class _Waiter:
    __slots__ = ("tenant", "future")

    def __init__(self, tenant: TenantConfig) -> None:
        self.tenant = tenant
        self.future: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
