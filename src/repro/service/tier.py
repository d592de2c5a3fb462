"""The response tier: solve responses keyed by request digest.

A bounded LRU from a request digest (:func:`repro.service.protocol.request_key`)
to the encoded ``result`` of a solve response.  The solvers are
deterministic, so a repeated (instance, spec, params) request has exactly
one right answer and the tier can give it back from the decoded request
alone — no instance rebuild, no content hash, no cache read.

An entry holds bytes, not a payload dict: :meth:`ResponseTier.put`
encodes the result once, at admission, under the encoder rule of
:func:`~repro.service.protocol.encode_message`, and a hit splices those
bytes behind the request's id (:func:`~repro.service.protocol.result_response`),
so serving a repeat builds no dict and runs no encoder.

Two owners, one class, different admission rules (the owner decides what
to :meth:`ResponseTier.put`):

* :class:`~repro.service.service.SolverService` admits only responses the
  result cache served (``provenance.cache == "hit"``), so one-off misses
  cost no memory; the tier is off when no cache is configured;
* :class:`~repro.cluster.router.ClusterRouter` admits every ``ok`` solve
  response, bounded by ``ClusterConfig.router_cache`` entries.

Stored results are stamped ``provenance.cache = "hit"``: whatever the
original computation said, a response served from here came from a cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional

from repro.service.protocol import encode_json

__all__ = ["ResponseTier", "TierEntry", "TIER_ENTRIES", "TIER_TASKS"]

#: Most entries the service's response tier holds.
TIER_ENTRIES = 1024

#: Most assignment pairs the tier holds, summed over its entries.  A
#: result's size is dominated by its ``[task_id, processor]`` list, so
#: this bounds the tier's memory however large the instances of a hot
#: stream are: stored as encoded bytes, an entry costs 11-21 bytes a pair
#: (tracemalloc, n = 60-400), so ~2 MB at this bound.
TIER_TASKS = 100_000


class TierEntry(NamedTuple):
    """One stored response: its solver family, encoded result and size."""

    family: Optional[str]
    body: bytes
    size: int


def _stamp_hit(payload: Dict[str, object]) -> Dict[str, object]:
    provenance = payload.get("provenance")
    if isinstance(provenance, dict) and provenance.get("cache") != "hit":
        return {**payload, "provenance": {**provenance, "cache": "hit"}}
    return payload


class ResponseTier:
    """LRU of encoded results bounded by entry count and summed size."""

    def __init__(self, max_entries: int = TIER_ENTRIES, max_tasks: int = TIER_TASKS) -> None:
        self.max_entries = max_entries
        self.max_tasks = max_tasks
        #: Summed size of the stored entries (assignment pairs).
        self.tasks = 0
        self._entries: "OrderedDict[str, TierEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[TierEntry]:
        """The entry stored under ``key`` (marked most recently used), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, payload: Dict[str, object], family: Optional[str] = None) -> None:
        """Store ``payload``, stamped and encoded, under ``key``.

        Nothing is stored when the payload alone exceeds the budget.  Least
        recently used entries are evicted until both bounds hold.
        """
        size = len(payload.get("assignment") or ())
        if size > self.max_tasks:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.tasks -= old.size
        self._entries[key] = TierEntry(family, encode_json(_stamp_hit(payload)), size)
        self.tasks += size
        while len(self._entries) > self.max_entries or self.tasks > self.max_tasks:
            _, evicted = self._entries.popitem(last=False)
            self.tasks -= evicted.size
