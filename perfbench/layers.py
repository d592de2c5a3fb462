"""Per-layer spans, recorded from the benchmark's own code.

The program under test is not instrumented.  Instead the traced replay
feeds each request line through the public functions of every layer in
the order ``repro serve`` calls them (``repro cluster`` adds the routing
key and rank first), and times each call as a span:

    wire.decode -> [router.key -> router.rank] -> wire.rebuild
    -> facade.prepare -> facade.hash -> cache.get
    -> [kernel -> cache.put] -> wire.result_payload -> wire.encode

A span has a name, start, end, parent and request id; spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its children cover.

A layer call the workload's own path never makes (a cache put when every
request hits, routing on ``repro serve``, a solver family absent from the
mix) is timed on a probe over the same lines instead, so every per-layer
figure is measured on every workload.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cluster.routing import rank, request_key
from repro.service import ServiceConfig, SolverService
from repro.service.protocol import (
    decode_message,
    encode_message,
    instance_from_payload,
    result_to_payload,
)
from repro.solvers import solve
from repro.solvers.api import prepare
from repro.solvers.cache import DiskCache, cache_key

#: Shard names a two-shard cluster ranks over.
CLUSTER_SHARDS = ("shard-1", "shard-2")


@dataclass
class Span:
    name: str
    rid: int
    sid: int
    parent: int
    start: float
    end: float = 0.0
    hit: Optional[bool] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, rid: int, parent: int = 0) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        record = Span(name, rid, len(self.spans) + 1, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def self_times(self) -> Dict[str, List[float]]:
        """Seconds of self time per span name (duration minus children)."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.duration - covered.get(span.sid, 0.0))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "rid": s.rid, "span": s.sid,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "hit": s.hit}) + "\n")


def replay_one(line: bytes, rid: int, cache: DiskCache, rec: Recorder,
               routed: bool) -> float:
    """One request line through every layer; returns its wall seconds."""
    start = time.perf_counter()
    with rec.span("request", rid) as root:
        parent = root.sid if root is not None else 0
        with rec.span("wire.decode", rid, parent):
            request = decode_message(line)
        if routed:
            with rec.span("router.key", rid, parent):
                key = request_key(request)
            with rec.span("router.rank", rid, parent):
                rank(key, CLUSTER_SHARDS)
        with rec.span("wire.rebuild", rid, parent):
            instance = instance_from_payload(request["instance"])
        spec = request["spec"]
        with rec.span("facade.prepare", rid, parent):
            prepared = prepare(instance, spec)
        with rec.span("facade.hash", rid, parent):
            key = cache_key(instance.content_hash(), prepared.canonical)
        with rec.span("cache.get", rid, parent) as get:
            hit = cache.get(key)
        if get is not None:
            get.hit = hit is not None
        if hit is None:
            with rec.span("kernel", rid, parent):
                result = solve(instance, spec, cache=False)
            with rec.span("cache.put", rid, parent):
                cache.put(key, result)
            result = replace(result, provenance={**result.provenance, "cache": "miss"})
        else:
            result = replace(hit, provenance={**hit.provenance, "cache": "hit"})
        with rec.span("wire.result_payload", rid, parent):
            payload = result_to_payload(result)
        with rec.span("wire.encode", rid, parent):
            encode_message({"id": rid, "ok": True, "result": payload})
    return time.perf_counter() - start


def replay(lines: Sequence[bytes], cache: DiskCache, rec: Recorder, routed: bool) -> List[float]:
    return [replay_one(line, rid, cache, rec, routed) for rid, line in enumerate(lines, 1)]


def kernel_probe(lines: Sequence[bytes], specs: Dict[str, str]) -> Dict[str, List[float]]:
    """Kernel seconds per solver family on the instances of ``lines``.

    Every family in ``specs`` solves every instance; this stands in for
    the kernel figure of a family the workload's own traffic never asks for.
    """
    instances = [instance_from_payload(decode_message(line)["instance"]) for line in lines]
    return {family: [solve(inst, spec, cache=False).wall_time for inst in instances]
            for family, spec in specs.items()}


async def service_hits(requests: Sequence[Dict[str, object]], cache_dir: Path) -> List[float]:
    """Seconds per in-process ``SolverService.solve`` on a warm cache hit.

    The caller holds a built instance, as a library user would: one
    untimed call memoizes its content hash, the timed second call is the
    service layer alone (prepare, cache key, disk-cache read), with no
    wire decode or instance rebuild.
    """
    config = ServiceConfig(workers=1, cache=str(cache_dir))
    timings = []
    async with SolverService(config) as service:
        for request in requests:
            instance = instance_from_payload(request["instance"])
            await service.solve(instance, request["spec"])
            start = time.perf_counter()
            result = await service.solve(instance, request["spec"])
            timings.append(time.perf_counter() - start)
            if result.provenance.get("cache") != "hit":
                raise RuntimeError("service pass expected a warm cache hit")
    return timings
