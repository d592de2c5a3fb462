"""Content-hash request routing: which shard owns which request.

Two pieces:

* :func:`request_key` — the *routing key* of a solve request, the one
  request digest of :func:`repro.service.protocol.request_key`
  (re-exported here): a SHA-256 over the canonical form of the routed
  fields (instance dict, spec string, params).  The service's response
  tier is keyed by the same function.  Identical requests — same
  instance content in the same decoded form, same spec — always
  produce the same key, so they always land on the same shard, which is
  what lets one shard's in-flight coalescing keep working cluster-wide:
  N clients racing the same job still cost one pool execution.  (Two
  *logically* identical instances serialized differently may key
  apart; each shard still coalesces its own stream, and the shard's
  read-through cache — keyed on the true ``instance.content_hash()`` —
  deduplicates the compute, so correctness and most of the savings
  survive.)  The canonical form is orjson's when orjson is installed
  and the request survives it losslessly, and the stdlib JSON form
  otherwise, behind distinct tags: routers with and without orjson key
  the same request differently, so routing is deterministic per
  environment, not across mixed ones.

* :func:`route` — rendezvous (highest-random-weight) hashing of a key
  over the live shard names.  Unlike ``hash(key) % n``, adding or
  removing one shard only remaps the keys that touched that shard
  (~1/n of the keyspace), so autoscaling reshuffles as little routing
  state — and as few warm coalescing/cache locality sets — as possible.
  Deterministic across processes (no seed, no salt), so a restarted
  router routes identically.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

from repro.service.protocol import request_key

__all__ = ["request_key", "route", "rank"]


def _score(key: str, shard: str) -> int:
    """The rendezvous weight of ``(key, shard)`` — deterministic, unseeded."""
    digest = hashlib.blake2b(
        f"{key}|{shard}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def route(key: str, shards: Sequence[str]) -> Optional[str]:
    """The shard owning ``key`` among ``shards`` (``None`` when empty).

    Highest-random-weight hashing: every shard gets a deterministic
    pseudo-random score against the key; the highest score wins.  Ties
    (astronomically unlikely) break on the shard name so the choice is
    still total-ordered and deterministic.
    """
    if not shards:
        return None
    return max(shards, key=lambda shard: (_score(key, shard), shard))


def rank(key: str, shards: Sequence[str]) -> List[str]:
    """All ``shards`` ordered by preference for ``key`` (best first).

    The retry order of a solve request: when the owner dies mid-request,
    the next-ranked surviving shard takes over — the same order every
    router instance would compute.
    """
    return sorted(shards, key=lambda shard: (_score(key, shard), shard), reverse=True)
