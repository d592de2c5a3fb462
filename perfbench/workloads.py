"""Request streams of the three workloads, generated from the seed.

Every stream is built from *blocks*: a block has a fixed composition of
request shapes (family, n, m), and only the task values and the order
inside the block come from the seed.  The mean cost of a block therefore
barely moves from seed to seed, which is what lets one run of a few
seconds read the same as the next.  Closed loops stop issuing at a block
boundary, so every measured window holds whole blocks.

The servers only ever see the generated request lines.  Instances are
written in the ``Instance.to_dict()`` wire form by this module itself,
so a change to the program's own generators cannot change the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Spec string of every solver family the workloads use.
SPECS = {
    "lpt": "lpt",
    "multifit": "multifit",
    "sbo": "sbo(delta=1.0)",
    "pareto_approx": "pareto_approx",
    "rls": "rls(delta=3.0)",
    "trio": "trio(delta=3.0)",
}


@dataclass
class Pair:
    """One distinct (instance, spec) pair and its pre-encoded request body."""

    pid: int
    spec: str
    instance: Dict[str, object]
    #: The request line without its leading ``{"id":N,`` — set by the runner.
    body: bytes = b""
    #: ``result_to_payload(solve(inst, spec, cache=False))`` round-tripped
    #: through the wire codec; filled before the clock (or lazily after it).
    expected: Optional[Dict[str, object]] = None
    cmax_lb: float = 0.0
    mmax_lb: float = 0.0


Shape = Tuple[str, Tuple[int, int], Tuple[int, ...]]  # family, n range, m choices


@dataclass(frozen=True)
class Workload:
    """A traffic mix and how it is driven.  See ``WORKLOADS`` below.

    Why each workload was chosen, which layer it isolates and which
    change it should and should not show is recorded once, in the
    workload's ``why`` in BENCHMARK.json, which also states the offered
    rate, window and tail percentile set here (``run.py`` checks that).
    """

    name: str
    #: ``serve`` or ``cluster``: the shipped entry point under test.
    server: str
    #: In-flight window of the closed loop (one connection).
    window: int
    #: Offered rate of the open loop (Poisson arrivals), requests/s.
    rate: float
    #: Percentile ``latency_tail_ms`` reports; at the benchmark's run
    #: length at least 10 measured samples lie beyond it.
    tail_pct: float
    #: Closed-loop rate (requests/s) the pre-encoded closed prefix covers;
    #: a segment that reaches it stops early and the run says so.
    closed_cap: float
    #: Fresh request shapes of one block (never repeated).
    fresh: Tuple[Shape, ...] = ()
    #: Shapes of the warm set, replayed from a pre-filled cache.
    warm: Tuple[Shape, ...] = ()
    #: Warm-set size in blocks (each block holds every ``warm`` shape once).
    warm_blocks: int = 0
    #: Leading closed-loop blocks whose pairs, with the warm set, form the
    #: Cmax/LB and Mmax/LB metrics: a fixed set, so those never move with speed.
    quality_blocks: int = 4
    #: Share of a launch's measured time given to the closed loop.
    closed_share: float = 0.4

    @property
    def block_len(self) -> int:
        return len(self.fresh) + len(self.warm)


def _small(family: str) -> Shape:
    return (family, (60, 61), (4, 8, 16))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="warm_hits",
            server="serve", window=8, rate=80.0, tail_pct=90.0, closed_cap=2000.0,
            warm=(_small("lpt"), _small("multifit"), _small("sbo"),
                  _small("lpt"), _small("multifit"), _small("sbo"),
                  ("lpt", (400, 401), (8, 16)), ("sbo", (400, 401), (8, 16))),
            warm_blocks=24, quality_blocks=24,
        ),
        Workload(
            name="heavy_kernel",
            server="serve", window=4, rate=8.0, tail_pct=75.0, closed_cap=100.0,
            # n is kept within 400-500 so every heavy request costs about
            # the same (30-75 ms here): the latency median then sits on one
            # cost level instead of hopping between sizes that differ
            # tenfold.  pareto_approx is here so that every kernel family
            # is measured on some workload.  Every request misses, so this
            # workload also carries the cold path: admission, pool
            # dispatch and cache writes.
            fresh=tuple(
                (family, n_range, m)
                for family in ("rls", "trio", "pareto_approx", "lpt")
                for n_range, m in (((400, 401), (32,)), ((450, 451), (16,)),
                                   ((500, 501), (8,)))
            ),
            # Heavy requests are few per second: a larger open-loop share
            # keeps enough latency samples beyond the tail percentile.
            quality_blocks=4, closed_share=0.3,
        ),
        Workload(
            name="cluster_mix",
            server="cluster", window=8, rate=120.0, tail_pct=90.0, closed_cap=3000.0,
            warm=(_small("lpt"), _small("sbo"), _small("multifit"),
                  _small("lpt"), _small("sbo"), _small("multifit")),
            fresh=(("lpt", (60, 201), (4, 8)), ("sbo", (60, 201), (4, 8))),
            warm_blocks=16, quality_blocks=16,
        ),
    )
}


def make_instance(rng: random.Random, n: int, m: int) -> Dict[str, object]:
    """An independent-task instance in the ``Instance.to_dict()`` wire form.

    Processing times and storage sizes are uniform on [1, 100] with three
    decimals, independent of each other.
    """
    return {
        "kind": "independent", "name": None, "m": m,
        "tasks": [
            {"id": i, "p": round(rng.uniform(1.0, 100.0), 3),
             "s": round(rng.uniform(1.0, 100.0), 3), "label": None}
            for i in range(n)
        ],
    }


@dataclass
class Streams:
    """The pairs and request orders of one workload at one seed.

    The seed draws the task values only.  The traffic's structure -- each
    request's n and m, the order of shapes in a block, which warm pair a
    warm slot repeats, and the arrival times -- is fixed per workload, so
    runs at different seeds differ in data, not in burst pattern.

    ``closed``, ``warmup`` and ``open`` are lazily extended sequences of
    pair ids.  Fresh pairs are never repeated within a launch; each launch
    replays the same sequences against a fresh cache directory.
    """

    workload: Workload
    seed: int
    pairs: List[Pair] = field(default_factory=list)
    warm_ids: List[int] = field(default_factory=list)
    _rngs: Dict[str, Tuple[random.Random, random.Random]] = field(default_factory=dict)
    _seqs: Dict[str, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values, shapes = self._rng("warm")
        for _ in range(self.workload.warm_blocks):
            for shape in self.workload.warm:
                self.warm_ids.append(self._new_pair(values, shapes, shape).pid)

    def _rng(self, stream: str) -> Tuple[random.Random, random.Random]:
        """(seeded value generator, fixed structure generator) of ``stream``."""
        name = self.workload.name
        return self._rngs.setdefault(stream, (
            random.Random(f"{name}/{self.seed}/{stream}"),
            random.Random(f"{name}/{stream}")))

    def _new_pair(self, values: random.Random, shapes: random.Random, shape: Shape) -> Pair:
        family, (lo, hi), ms = shape
        n, m = shapes.randrange(lo, hi), shapes.choice(ms)
        pair = Pair(len(self.pairs), SPECS[family], make_instance(values, n, m))
        self.pairs.append(pair)
        return pair

    def _block(self, stream: str) -> List[int]:
        """One block of ``stream``: every fresh shape and warm slot once."""
        values, shapes = self._rng(stream)
        ids = [self._new_pair(values, shapes, shape).pid for shape in self.workload.fresh]
        if self.warm_ids:
            # Warm slots keep the block's shape mix exact: slot k repeats a
            # warm pair built from warm shape k.
            width = len(self.workload.warm)
            for k in range(width):
                ids.append(self.warm_ids[k + width * shapes.randrange(self.workload.warm_blocks)])
        shapes.shuffle(ids)
        return ids

    def at(self, stream: str, k: int) -> int:
        """The ``k``-th pair id of ``stream`` (extended block by block)."""
        seq = self._seqs.setdefault(stream, [])
        while len(seq) <= k:
            seq.extend(self._block(stream))
        return seq[k]

    def open_schedule(self, segment: int, seconds: float) -> List[float]:
        """Poisson send offsets (s) of one open-loop segment (seed-independent)."""
        rng = random.Random(f"{self.workload.name}/arrivals/{segment}")
        times, t = [], rng.expovariate(self.workload.rate)
        while t < seconds:
            times.append(t)
            t += rng.expovariate(self.workload.rate)
        return times

    def quality_ids(self) -> List[int]:
        """The fixed pair set the Cmax/LB and Mmax/LB metrics cover."""
        count = self.workload.quality_blocks * self.workload.block_len
        return sorted({self.at("closed", k) for k in range(count)} | set(self.warm_ids))
