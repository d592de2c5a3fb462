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
to :meth:`ResponseTier.put`); both are served by the same code, the
tier stage :func:`repro.service.server.tier_stage` and the connection
loop's raw-byte path:

* :class:`~repro.service.service.SolverService` admits only responses the
  result cache served (``provenance.cache == "hit"``), so one-off misses
  cost no memory; the tier is off when no cache is configured;
* :class:`~repro.cluster.router.ClusterRouter` admits every ``ok`` solve
  response, bounded by ``ClusterConfig.router_cache`` entries.

Stored results are stamped ``provenance.cache = "hit"``: whatever the
original computation said, a response served from here came from a cache.

**Aliases: repeat lines by their raw bytes.**  Clients repeat a request
line byte for byte but for its id, so either owner's tier also keeps,
per entry, at most one *alias*: the SHA-256 of a served line with its id
member cut out (:func:`split_id`), mapped to the entry's key and the
line's validated ``timeout`` and ``tenant``.  :meth:`ResponseTier.match`
finds the entry of a line from its bytes alone, before any decode or
digest.  Only the id form the load generator writes is cut: a leading
``{"id":<int>,`` (at most 18 digits, no leading zero).  The cut line is
the JSON text of the request without its id, so two lines with the same
cut bytes decode to the same request up to the id, and the id is
exactly the one framed.  :meth:`ResponseTier.alias` admits a line only
when its decoded id is the framed one and the cut line holds no other
top-level ``id``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from repro.service.protocol import ProtocolError, decode_json, encode_json

__all__ = ["ResponseTier", "TierEntry", "TIER_ENTRIES", "TIER_TASKS", "split_id"]

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


def split_id(line: bytes) -> Optional[Tuple[bytes, int]]:
    """``(line without its id member, id)`` for a line that opens ``{"id":<int>,``.

    ``line`` is one request line without its ``\\n``; the id has at most
    18 digits and no leading zero.  ``None`` for any other line, which
    then takes the decoding path.
    """
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        digits = line[6:end]
        if 6 < end <= 24 and digits.isdigit() and (end == 7 or digits[:1] != b"0"):
            return b"{" + line[end + 1:], int(digits)
    return None


class _Alias(NamedTuple):
    key: str
    timeout: Optional[float]
    tenant: Optional[str]


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
        #: Alias digest -> entry key and the line's checked fields, and
        #: entry key -> its one alias digest (see :meth:`alias`).
        self._aliases: Dict[bytes, _Alias] = {}
        self._alias_of: Dict[str, bytes] = {}

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
            evicted_key, evicted = self._entries.popitem(last=False)
            self.tasks -= evicted.size
            self._aliases.pop(self._alias_of.pop(evicted_key, b""), None)

    def alias(
        self,
        line: bytes,
        request: Dict[str, object],
        key: str,
        timeout: Optional[float],
        tenant: Optional[str],
    ) -> None:
        """Make ``line`` (decoded: ``request``) an alias of the entry under ``key``.

        Called after the tier served ``request`` on the full path, with
        its validated ``timeout`` and ``tenant``.  Nothing is admitted
        unless the line frames its id (:func:`split_id`), the decoded id
        is that id, the line without it holds no other top-level ``id``,
        and the request has no ``trace`` field.  An entry keeps its
        first alias, so the aliases never outnumber the entries, and a
        second version of an aliased request (another tenant or
        ``timeout``) costs one lookup here.
        """
        if key in self._alias_of or key not in self._entries or "trace" in request:
            return
        split = split_id(line)
        if split is None:
            return
        cut, request_id = split
        decoded_id = request.get("id")
        if type(decoded_id) is not int or decoded_id != request_id:
            return
        try:
            rest = decode_json(cut)
        except ProtocolError:
            return
        if not isinstance(rest, dict) or "id" in rest:
            return
        digest = hashlib.sha256(cut).digest()
        self._aliases[digest] = _Alias(key, timeout, tenant)
        self._alias_of[key] = digest

    def match(
        self, line: bytes
    ) -> Optional[Tuple[int, TierEntry, Optional[float], Optional[str]]]:
        """``(id, entry, timeout, tenant)`` for a line that repeats an alias, else ``None``.

        The entry is marked most recently used, as by :meth:`get`.
        """
        if not self._aliases:
            return None
        split = split_id(line)
        if split is None:
            return None
        cut, request_id = split
        alias = self._aliases.get(hashlib.sha256(cut).digest())
        if alias is None:
            return None
        entry = self.get(alias.key)
        if entry is None:
            return None
        return request_id, entry, alias.timeout, alias.tenant
