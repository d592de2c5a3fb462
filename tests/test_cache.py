"""Tests for the content-addressed result cache (repro.solvers.cache).

Three property families, exercised with seeded-random instances:

* ``content_hash`` is **stable** — the same content always hashes the
  same, across construction paths, cosmetic renames, JSON round-trips,
  and process restarts (a pinned literal digest guards the format);
* ``content_hash`` is **collision-distinct** — any semantic perturbation
  (p, s, m, task order, edges, speeds) changes the digest;
* cached and uncached ``solve()`` results agree **field by field**.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.instance import DAGInstance, Instance
from repro.core.task import Task, TaskSet
from repro.extensions.uniform_machines import UniformInstance
from repro.solvers import (
    DiskCache,
    LRUCache,
    cache_key,
    configure_cache,
    default_cache,
    solve,
)

# A fixed reference instance and the pinned *literal* digest of its content.
# If the pin fails, the hash format changed: every persistent cache in the
# wild is silently invalidated, so bump this constant *consciously*.
REFERENCE = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
REFERENCE_HASH = "3d7197ccfe57dd3fce443c9de431e8480cf115e5903bb8623adb3c1f16558b72"


def random_instance(rng: random.Random, n: int = 8, m: int = 3) -> Instance:
    p = [round(rng.uniform(1, 50), 3) for _ in range(n)]
    s = [round(rng.uniform(1, 50), 3) for _ in range(n)]
    return Instance.from_lists(p=p, s=s, m=m)


class TestContentHashStability:
    def test_pinned_reference_digest(self):
        # REFERENCE_HASH is a hard-coded literal, so this really detects a
        # fingerprint-format change (unlike comparing the function to itself).
        assert REFERENCE.content_hash() == REFERENCE_HASH

    def test_identity_invariance_across_construction_paths(self):
        via_lists = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)
        via_tasks = Instance(
            TaskSet(Task(id=i, p=p, s=s) for i, (p, s) in
                    enumerate(zip([4, 3, 2, 2, 1], [1, 5, 2, 4, 3]))),
            m=2,
        )
        via_json = Instance.from_json(via_lists.to_json())
        assert via_lists.content_hash() == via_tasks.content_hash() == via_json.content_hash()
        assert via_lists.content_hash() == REFERENCE_HASH

    def test_name_and_label_are_cosmetic(self):
        renamed = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2, name="zzz")
        assert renamed.content_hash() == REFERENCE_HASH
        labelled = Instance(
            TaskSet(Task(id=i, p=t.p, s=t.s, label=f"task-{i}")
                    for i, t in enumerate(REFERENCE.tasks)),
            m=2,
        )
        assert labelled.content_hash() == REFERENCE_HASH

    def test_stable_across_process_restart(self):
        code = (
            "from repro.core.instance import Instance\n"
            "inst = Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)\n"
            "print(inst.content_hash())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == REFERENCE_HASH

    def test_json_roundtrip_preserves_hash_randomized(self):
        rng = random.Random(20260728)
        for _ in range(25):
            inst = random_instance(rng, n=rng.randint(1, 12), m=rng.randint(1, 5))
            assert Instance.from_json(inst.to_json()).content_hash() == inst.content_hash()

    def test_dag_roundtrip_preserves_hash(self):
        dag = DAGInstance.from_lists(
            p=[3, 2, 1, 4], s=[1, 1, 2, 2], m=2, edges=[(0, 1), (0, 2), (2, 3)]
        )
        assert DAGInstance.from_json(dag.to_json()).content_hash() == dag.content_hash()


class TestContentHashDistinctness:
    def test_semantic_perturbations_change_hash(self):
        rng = random.Random(1234)
        for _ in range(25):
            inst = random_instance(rng)
            base = inst.content_hash()
            tasks = inst.tasks.as_tuples()
            idx = rng.randrange(len(tasks))
            perturbed_p = [(i, p + 0.5, s) if j == idx else (i, p, s)
                           for j, (i, p, s) in enumerate(tasks)]
            perturbed_s = [(i, p, s + 0.5) if j == idx else (i, p, s)
                           for j, (i, p, s) in enumerate(tasks)]
            for triples in (perturbed_p, perturbed_s):
                other = Instance.from_lists(
                    p=[p for _, p, _ in triples], s=[s for _, _, s in triples],
                    ids=[i for i, _, _ in triples], m=inst.m,
                )
                assert other.content_hash() != base
            assert inst.with_m(inst.m + 1).content_hash() != base

    def test_task_order_matters(self):
        # Task order is the tie-breaking "arbitrary total ordering" of the
        # paper, so reordering can change solver output — must change the key.
        a = Instance.from_lists(p=[1, 2], s=[2, 1], m=2, ids=["x", "y"])
        b = Instance.from_lists(p=[2, 1], s=[1, 2], m=2, ids=["y", "x"])
        assert a.content_hash() != b.content_hash()

    def test_kind_edges_and_speeds_distinguish(self):
        base = Instance.from_lists(p=[3, 2, 1], s=[1, 1, 1], m=2)
        as_dag = base.as_dag()
        with_edge = DAGInstance.from_lists(p=[3, 2, 1], s=[1, 1, 1], m=2, edges=[(0, 1)])
        reversed_edge = DAGInstance.from_lists(p=[3, 2, 1], s=[1, 1, 1], m=2, edges=[(1, 0)])
        uniform = UniformInstance.from_lists(p=[3, 2, 1], s=[1, 1, 1], speeds=[1.0, 1.0])
        faster = UniformInstance.from_lists(p=[3, 2, 1], s=[1, 1, 1], speeds=[1.0, 2.0])
        hashes = [inst.content_hash()
                  for inst in (base, as_dag, with_edge, reversed_edge, uniform, faster)]
        assert len(set(hashes)) == len(hashes)

    def test_cache_key_includes_spec(self):
        assert cache_key(REFERENCE, "lpt(objective=time)") != cache_key(
            REFERENCE, "lpt(objective=memory)"
        )
        assert cache_key(REFERENCE_HASH, "lpt") == cache_key(REFERENCE, "lpt")

    def test_cache_key_includes_version(self, monkeypatch):
        # A version bump must invalidate persistent caches: intended
        # behaviour changes ship as releases, and stale results from an
        # older solver must not be served as hits.
        import repro

        before = cache_key(REFERENCE, "lpt")
        monkeypatch.setattr(repro, "__version__", repro.__version__ + ".post-test")
        assert cache_key(REFERENCE, "lpt") != before


class TestCachedSolveEquivalence:
    SPECS = [
        "lpt", "sbo(delta=0.5)", "sbo(delta=2.0, inner=multifit)",
        "rls(delta=2.5)", "trio(delta=2.5)", "constrained(budget=9)",
        "pareto_approx(epsilon=0.5)",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_hit_matches_miss_field_by_field(self, spec):
        inst = Instance.from_lists(p=[4, 3, 2, 2, 1, 6], s=[1, 5, 2, 4, 3, 2], m=3)
        cache = LRUCache()
        cold = solve(inst, spec, cache=cache)
        warm = solve(inst, spec, cache=cache)
        assert cold.provenance["cache"] == "miss"
        assert warm.provenance["cache"] == "hit"
        assert warm.objectives == cold.objectives
        assert warm.guarantee == cold.guarantee
        assert warm.feasible == cold.feasible
        if cold.feasible:
            assert warm.schedule.assignment == cold.schedule.assignment
        # wall_time is preserved from the original computation; everything
        # else in provenance except the hit/miss marker must be identical.
        assert warm.wall_time == cold.wall_time
        cold_prov = {k: v for k, v in cold.provenance.items() if k != "cache"}
        warm_prov = {k: v for k, v in warm.provenance.items() if k != "cache"}
        assert warm_prov == cold_prov
        # ... and both match a cache-free solve on the measured objectives.
        plain = solve(inst, spec, cache=False)
        assert plain.objectives == cold.objectives
        assert "cache" not in plain.provenance

    def test_uncached_solve_untouched_by_default(self):
        result = solve(REFERENCE, "lpt")
        assert "cache" not in result.provenance


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        r = solve(REFERENCE, "lpt", cache=False)
        cache.put("a", r)
        cache.put("b", r)
        assert cache.get("a") is not None  # refresh "a": "b" becomes LRU
        cache.put("c", r)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_stats_counters(self):
        cache = LRUCache()
        solve(REFERENCE, "lpt", cache=cache)
        solve(REFERENCE, "lpt", cache=cache)
        solve(REFERENCE, "spt", cache=cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestDiskCache:
    def test_persists_across_cache_objects(self, tmp_path):
        first = DiskCache(tmp_path / "cache")
        cold = solve(REFERENCE, "rls(delta=2.5)", cache=first)
        assert cold.provenance["cache"] == "miss"
        second = DiskCache(tmp_path / "cache")  # fresh object, same directory
        warm = solve(REFERENCE, "rls(delta=2.5)", cache=second)
        assert warm.provenance["cache"] == "hit"
        assert warm.objectives == cold.objectives
        assert len(second) == 1

    def test_path_argument_builds_disk_cache(self, tmp_path):
        directory = tmp_path / "bypath"
        cold = solve(REFERENCE, "lpt", cache=str(directory))
        warm = solve(REFERENCE, "lpt", cache=str(directory))
        assert cold.provenance["cache"] == "miss"
        assert warm.provenance["cache"] == "hit"

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        solve(REFERENCE, "lpt", cache=cache)
        entry = next((tmp_path).rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        fresh = DiskCache(tmp_path)
        result = solve(REFERENCE, "lpt", cache=fresh)
        assert result.provenance["cache"] == "miss"
        assert result.feasible

    def test_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        solve(REFERENCE, "lpt", cache=cache)
        solve(REFERENCE, "spt", cache=cache)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_unpicklable_result_degrades_to_uncached(self, tmp_path):
        # Storing must never raise: a result whose native object cannot be
        # pickled is simply not written (caching is an optimization).
        from dataclasses import replace

        cache = DiskCache(tmp_path)
        result = solve(REFERENCE, "lpt", cache=False)
        poisoned = replace(result, raw=lambda: None)  # lambdas do not pickle
        cache.put("some-key", poisoned)
        assert len(cache) == 0
        assert cache.get("some-key") is None


class TestProcessDefault:
    def teardown_method(self):
        configure_cache(None)

    def test_configure_and_disable(self):
        installed = configure_cache()
        assert default_cache() is installed and isinstance(installed, LRUCache)
        first = solve(REFERENCE, "lpt")
        second = solve(REFERENCE, "lpt")
        assert first.provenance["cache"] == "miss"
        assert second.provenance["cache"] == "hit"
        # cache=False bypasses the default; the default stays warm.
        bypass = solve(REFERENCE, "lpt", cache=False)
        assert "cache" not in bypass.provenance
        configure_cache(None)
        assert default_cache() is None
        assert "cache" not in solve(REFERENCE, "lpt").provenance

    def test_configure_with_directory(self, tmp_path):
        configure_cache(tmp_path / "proc-cache")
        assert isinstance(default_cache(), DiskCache)
        solve(REFERENCE, "lpt")
        assert len(default_cache()) == 1

    def test_invalid_cache_argument(self):
        with pytest.raises(TypeError):
            solve(REFERENCE, "lpt", cache=3.14)

    def test_cache_true_requires_installed_default(self):
        # Per-call arguments must not have process-wide side effects, and a
        # call-local cache could never hit — so plain True is an error.
        configure_cache(None)
        with pytest.raises(TypeError, match="configure_cache"):
            solve(REFERENCE, "lpt", cache=True)
        assert default_cache() is None

    def test_cache_true_uses_installed_default(self):
        installed = configure_cache()
        solve(REFERENCE, "lpt", cache=True)
        assert solve(REFERENCE, "lpt", cache=True).provenance["cache"] == "hit"
        assert installed.stats.hits == 1

    def test_custom_solver_never_cached(self):
        from repro.solvers import SolverCapabilities, SolverEntry, register
        from repro.solvers.registry import _REGISTRY

        def run_custom(instance, params):
            import math
            from repro.algorithms.lpt import lpt_schedule
            return lpt_schedule(instance), (math.inf, math.inf), None, {}

        register(SolverEntry(
            name="custom_cachetest", summary="test",
            capabilities=SolverCapabilities(), params=(), run=run_custom,
        ), replace=True)
        try:
            cache = LRUCache()
            first = solve(REFERENCE, "custom_cachetest", cache=cache)
            second = solve(REFERENCE, "custom_cachetest", cache=cache)
            assert len(cache) == 0 and cache.stats.lookups == 0
            assert "cache" not in first.provenance
            assert "cache" not in second.provenance
        finally:
            _REGISTRY.pop("custom_cachetest", None)


class TestDiskCacheSharding:
    def test_entries_land_in_key_prefix_shards(self, tmp_path):
        cache = DiskCache(tmp_path)
        solve(REFERENCE, "lpt", cache=cache)
        solve(REFERENCE, "spt", cache=cache)
        files = list(tmp_path.rglob("*.pkl"))
        assert len(files) == 2
        for path in files:
            assert path.parent != tmp_path, "entry not sharded into a subdirectory"
            assert path.parent.name == path.stem[:2]

    def test_every_golden_key_round_trips(self, tmp_path):
        # Sharding must be a pure layout change: every (instance, spec) key
        # of the golden corpus stores and loads through the sharded paths.
        import json

        from make_golden import GOLDEN_PATH, golden_instances
        from repro.solvers import get_entry
        from repro.solvers.spec import SolverSpec

        cache = DiskCache(tmp_path / "golden-cache")
        payload = solve(REFERENCE, "lpt", cache=False)
        instances = golden_instances()
        keys = []
        for case in json.loads(GOLDEN_PATH.read_text())["cases"]:
            spec = SolverSpec.parse(case["spec"])
            entry = get_entry(spec.name)
            canonical = entry.canonical_spec(entry.bind(spec.params))
            keys.append(cache_key(instances[case["instance"]], canonical))
        assert len(set(keys)) == len(keys)
        for key in keys:
            cache.put(key, payload)
        assert len(cache) == len(keys)
        for key in keys:
            assert cache.get(key) is not None, f"key {key} did not round-trip"


class TestDiskCacheEviction:
    @staticmethod
    def _fill(cache, count):
        result = solve(REFERENCE, "lpt", cache=False)
        keys = [f"{i:02x}{'0' * 62}" for i in range(count)]
        for key in keys:
            cache.put(key, result)
        return keys

    @staticmethod
    def _total_bytes(directory):
        return sum(p.stat().st_size for p in directory.rglob("*.pkl"))

    def test_unbounded_by_default(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._fill(cache, 8)
        assert len(cache) == 8

    def test_trim_respects_max_bytes(self, tmp_path):
        probe = DiskCache(tmp_path / "probe")
        self._fill(probe, 1)
        entry_size = self._total_bytes(tmp_path / "probe")
        assert entry_size > 0

        bound = 3 * entry_size + entry_size // 2  # room for exactly 3 entries
        cache = DiskCache(tmp_path / "bounded", max_bytes=bound)
        self._fill(cache, 10)
        assert self._total_bytes(tmp_path / "bounded") <= bound
        assert 1 <= len(cache) <= 3
        assert cache.size_bytes() == self._total_bytes(tmp_path / "bounded")

    def test_trim_evicts_least_recently_used_first(self, tmp_path):
        import os as _os

        cache = DiskCache(tmp_path, max_bytes=10**9)
        keys = self._fill(cache, 4)
        # Pin explicit recency: keys[0] oldest ... keys[3] newest, then
        # refresh keys[0] with a hit (hits bump mtime) so keys[1] is LRU.
        for rank, key in enumerate(keys):
            _os.utime(cache._path(key), (1000.0 + rank, 1000.0 + rank))
        now = 2000.0
        _os.utime(cache._path(keys[0]), (now, now))
        entry_size = cache._path(keys[0]).stat().st_size
        cache.max_bytes = 2 * entry_size + entry_size // 2
        cache._trim()
        assert cache.get(keys[1]) is None and cache.get(keys[2]) is None
        assert cache.get(keys[0]) is not None and cache.get(keys[3]) is not None

    def test_eviction_survives_fresh_cache_object(self, tmp_path):
        # A new DiskCache on a populated directory scans sizes lazily and
        # still enforces the bound on its first store.
        seed = DiskCache(tmp_path)
        self._fill(seed, 6)
        entry_size = self._total_bytes(tmp_path) // 6
        cache = DiskCache(tmp_path, max_bytes=2 * entry_size + entry_size // 2)
        cache.put("f" * 64, solve(REFERENCE, "lpt", cache=False))
        assert self._total_bytes(tmp_path) <= cache.max_bytes

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(tmp_path, max_bytes=0)


class TestCorruptEntryAccounting:
    """The corrupt-entry bugfix: bad entries are unlinked *and* counted."""

    def test_corrupt_pickle_is_unlinked_and_counted(self, tmp_path):
        cache = DiskCache(tmp_path)
        solve(REFERENCE, "lpt", cache=cache)
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        fresh = DiskCache(tmp_path)
        key = entry.stem
        assert fresh.get(key) is None
        assert not entry.exists(), "corrupt entry must be removed from disk"
        assert fresh.stats.corrupt == 1

    def test_stale_non_result_payload_is_unlinked_and_counted(self, tmp_path):
        # A cleanly-unpickling payload that is not a SolveResult (a foreign
        # writer's leftovers) previously skipped the isinstance branch but
        # stayed on disk, re-read and re-skipped on every lookup.
        import pickle as _pickle

        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(_pickle.dumps({"stale": "payload"}))
        assert cache.get(key) is None
        assert not path.exists(), "stale entry must be removed from disk"
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_corrupt_counter_resets(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.stats.corrupt = 3
        cache.stats.reset()
        assert cache.stats.corrupt == 0

    def test_healthy_entries_unaffected(self, tmp_path):
        cache = DiskCache(tmp_path)
        miss = solve(REFERENCE, "lpt", cache=cache)
        hit = solve(REFERENCE, "lpt", cache=cache)
        assert miss.provenance["cache"] == "miss"
        assert hit.provenance["cache"] == "hit"
        assert cache.stats.corrupt == 0


class TestGetMany:
    def test_lru_get_many_matches_serial_gets(self):
        cache = LRUCache(maxsize=8)
        a = solve(REFERENCE, "lpt", cache=False)
        b = solve(REFERENCE, "spt", cache=False)
        cache.put("ka", a)
        cache.put("kb", b)
        got = cache.get_many(["ka", "missing", "kb"])
        assert got[0] is a and got[1] is None and got[2] is b
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_get_many_refreshes_lru_recency(self):
        cache = LRUCache(maxsize=2)
        a = solve(REFERENCE, "lpt", cache=False)
        b = solve(REFERENCE, "spt", cache=False)
        cache.put("ka", a)
        cache.put("kb", b)
        cache.get_many(["ka"])  # ka becomes most-recent; kb is LRU
        cache.put("kc", a)
        assert cache.get("kb") is None and cache.get("ka") is a

    def test_disk_get_many_base_loop(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = solve(REFERENCE, "lpt", cache=False)
        cache.put("k" * 64, result)
        got = cache.get_many(["k" * 64, "m" * 64])
        assert got[0] is not None and got[1] is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1


class TestContentHashMemoized:
    def test_hash_computed_once(self, monkeypatch):
        import hashlib as _hashlib

        inst = random_instance(random.Random(7))
        first = inst.content_hash()
        calls = []
        real = _hashlib.sha256

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(_hashlib, "sha256", counting)
        assert inst.content_hash() == first
        assert not calls, "memoized content_hash must not re-digest"

    def test_unpickled_pre_slot_instance_still_hashes(self):
        # Simulate an Instance unpickled from a cache written before the
        # _content_hash slot existed: the attribute is simply absent.
        import pickle as _pickle

        inst = random_instance(random.Random(8))
        expected = inst.content_hash()
        clone = _pickle.loads(_pickle.dumps(inst))
        object.__delattr__(clone, "_content_hash")
        assert clone.content_hash() == expected
