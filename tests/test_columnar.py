"""Columnar instances: what the flat layout must keep from the per-task one.

An instance stores its tasks as flat ``ids``/``p``/``s``/label columns,
validated in one pass, pickled as those columns, with :class:`Task`
objects as views built on first use.  This module pins what the layout
must not move:

* ``content_hash`` and ``cache_key`` bytes equal a verbatim copy of the
  per-task fingerprint, for every kind and every construction path
  (Task objects, ``from_lists``, ``from_dict``, unpickling);
* one-pass validation raises exactly the error building each
  :class:`Task` in order raises;
* pickles carry no :class:`Task` objects and round-trip equal;
* a :class:`DiskCache` entry pickled in the pre-columnar layout, or
  while untimed and timed schedules were two classes, is a miss that is
  removed, never a hit and never a crash;
* views are built once, and user-supplied :class:`Task` objects are kept.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import pickletools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.core.instance import DAGInstance, Instance
from repro.core.task import Task, TaskSet
from repro.extensions.uniform_machines import UniformInstance
from repro.solvers import DiskCache, solve
from repro.solvers.cache import cache_key

#: A ``SolveResult`` of ``sbo(delta=1.0)`` on :func:`_fixture_instance`,
#: pickled by repro 1.2.0 while instances were lists of Task objects.
PRECOLUMNAR = Path(__file__).parent / "golden" / "precolumnar_result.pkl"

#: ``{canonical spec: DiskCache entry bytes}`` for ``lpt`` and ``rls`` on
#: :func:`_fixture_instance`, written by a ``DiskCache`` of repro 1.2.0
#: while timed schedules had a class of their own (``DAGSchedule``).
TWO_SCHEDULE_CLASSES = pickle.loads(
    (Path(__file__).parent / "golden" / "two_schedule_classes.pkl").read_bytes())


# --------------------------------------------------------------------------- #
# the per-task fingerprint, copied verbatim from the pre-columnar layout
# --------------------------------------------------------------------------- #
def seed_fingerprint_parts(kind, tasks, m, edges=(), speeds=()):
    parts = ["kind=independent", f"m={m}"]
    parts.extend(f"task={t.id!r}|{t.p!r}|{t.s!r}" for t in tasks)
    if kind == "dag":
        parts[0] = "kind=dag"
        parts.extend(
            f"edge={u}|{v}"
            for u, v in sorted((repr(u), repr(v)) for u, v in edges)
        )
    if kind == "uniform":
        parts[0] = "kind=uniform"
        parts.extend(f"speed={v!r}" for v in speeds)
    return parts


def seed_content_hash(*args, **kwargs) -> str:
    payload = "\n".join(seed_fingerprint_parts(*args, **kwargs))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def seed_cache_key(instance_hash: str, canonical_spec: str) -> str:
    digest = hashlib.sha256()
    digest.update(instance_hash.encode("ascii"))
    digest.update(b"|")
    digest.update(canonical_spec.encode("utf-8"))
    digest.update(b"|")
    digest.update(__version__.encode("utf-8"))
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# strategies: mixed-type ids, zero and integral weights, labels, all kinds
# --------------------------------------------------------------------------- #
_ids = st.one_of(st.integers(-(10 ** 20), 10 ** 20), st.text(max_size=6))
_weights = st.one_of(
    st.just(0), st.just(0.0), st.just(-0.0),
    st.integers(0, 10 ** 6),
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
)
_labels = st.one_of(st.none(), st.text(max_size=4))


@st.composite
def cases(draw):
    ids = draw(st.lists(_ids, min_size=0, max_size=12, unique=True))
    tasks = [
        Task(id=tid, p=draw(_weights), s=draw(_weights), label=draw(_labels))
        for tid in ids
    ]
    kind = draw(st.sampled_from(["independent", "dag", "uniform"]))
    m = draw(st.integers(1, 6))
    edges = []
    speeds = []
    if kind == "dag" and len(ids) > 1:
        pairs = draw(st.lists(
            st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1)),
            max_size=10,
        ))
        edges = sorted({(ids[min(a, b)], ids[max(a, b)]) for a, b in pairs if a != b},
                       key=repr)
    if kind == "uniform":
        speeds = draw(st.lists(st.floats(0.125, 8.0), min_size=m, max_size=m))
    return kind, tasks, m, edges, speeds


def build(kind, tasks, m, edges, speeds):
    if kind == "dag":
        return DAGInstance(tasks, m=m, edges=edges, name="h")
    if kind == "uniform":
        return UniformInstance(tasks, speeds=speeds, name="h")
    return Instance(tasks, m=m, name="h")


def from_payload(kind, data):
    return {"dag": DAGInstance, "uniform": UniformInstance}.get(kind, Instance).from_dict(data)


class TestHashCompatibility:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def test_hash_and_key_match_the_per_task_fingerprint(self, case):
        kind, tasks, m, edges, speeds = case
        expected = seed_content_hash(kind, tasks, m, edges, speeds)
        inst = build(kind, tasks, m, edges, speeds)
        fresh = build(kind, tasks, m, edges, speeds)  # never hashed: pickled without a memo
        rebuilt = from_payload(kind, inst.to_dict())
        unpickled = pickle.loads(pickle.dumps(fresh))
        for candidate in (inst, rebuilt, unpickled):
            assert candidate.content_hash() == expected
        spec = "sbo(delta=1.0, inner=lpt)"
        assert cache_key(inst, spec) == seed_cache_key(expected, spec)
        assert cache_key(expected, spec) == seed_cache_key(expected, spec)
        if kind == "independent":
            lists = Instance.from_lists(
                p=[t.p for t in tasks], s=[t.s for t in tasks], m=m,
                ids=[t.id for t in tasks],
            )
            assert lists.content_hash() == expected

    def test_fixture_instance_hash_is_unchanged(self):
        # The digest the pre-columnar layout gave this instance.
        assert _fixture_instance().content_hash() == (
            "3d7197ccfe57dd3fce443c9de431e8480cf115e5903bb8623adb3c1f16558b72"
        )


# --------------------------------------------------------------------------- #
# one-pass validation raises what the per-task constructor raises
# --------------------------------------------------------------------------- #
def _per_task_error(records):
    try:
        TaskSet(
            Task(id=rec["id"], p=rec["p"], s=rec["s"], label=rec.get("label"))
            for rec in records
        )
    except Exception as exc:  # noqa: BLE001 - the error is the expectation
        return type(exc), str(exc)
    return None


HOSTILE = {
    "nan_p": [{"id": 0, "p": 1, "s": 1}, {"id": 1, "p": math.nan, "s": 1}],
    "inf_s": [{"id": 0, "p": 1, "s": math.inf}],
    "negative_s": [{"id": 0, "p": 1, "s": -2}],
    "string_p": [{"id": 0, "p": "abc", "s": 1}],
    "numeric_string_p": [{"id": 0, "p": "2.5", "s": 1}],
    "none_s": [{"id": 0, "p": 1, "s": None}],
    "duplicate_id": [{"id": 0, "p": 1, "s": 1}, {"id": 0, "p": 2, "s": 2}],
    "duplicate_before_bad_p": [
        {"id": 0, "p": 1, "s": 1}, {"id": 0, "p": 2, "s": 2}, {"id": 2, "p": -1, "s": 1},
    ],
    "bad_p_before_duplicate": [
        {"id": 0, "p": 1, "s": 1}, {"id": 1, "p": -1, "s": 1}, {"id": 0, "p": 2, "s": 2},
    ],
    "unhashable_id": [{"id": [1], "p": 1, "s": 1}],
    "missing_s_before_missing_id": [{"id": 0, "p": 1}, {"p": 1, "s": 1}],
    "record_not_object": [{"id": 0, "p": 1, "s": 1}, 7],
    "huge_but_finite": [{"id": 0, "p": 1e308, "s": 1}, {"id": 1, "p": 1e308, "s": 1}],
}


class TestOnePassValidation:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_from_dict_raises_like_per_task_construction(self, name):
        records = HOSTILE[name]
        expected = _per_task_error(records)
        try:
            inst = Instance.from_dict({"m": 2, "tasks": records})
        except Exception as exc:  # noqa: BLE001
            assert (type(exc), str(exc)) == expected
        else:
            assert expected is None
            assert inst.n == len(records)

    def test_from_lists_raises_like_per_task_construction(self):
        for p, s, ids in (([1, -1], [1, 1], None), ([1, 2], [1, math.nan], None),
                          ([1, 2], [1, 1], ["a", "a"]), ([None], [1], None)):
            try:
                TaskSet(Task(id=i, p=pi, s=si) for i, pi, si in
                        zip(ids or range(len(p)), p, s))
            except Exception as exc:  # noqa: BLE001
                expected = (type(exc), str(exc))
            with pytest.raises(expected[0]) as info:
                Instance.from_lists(p=p, s=s, m=2, ids=ids)
            assert str(info.value) == expected[1]

    def test_values_are_coerced_to_float(self):
        inst = Instance.from_dict({"m": 1, "tasks": [{"id": "a", "p": 3, "s": True}]})
        task = inst.task("a")
        assert (task.p, task.s) == (3.0, 1.0)
        assert type(task.p) is float and type(task.s) is float


# --------------------------------------------------------------------------- #
# pickles and views
# --------------------------------------------------------------------------- #
def _globals(blob: bytes):
    names = []
    strings = []
    for op, arg, _ in pickletools.genops(blob):
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
            strings.append(arg)
        if op.name == "STACK_GLOBAL":
            names.append(tuple(strings[-2:]))
        if op.name == "GLOBAL":
            names.append(tuple(arg.split(" ")))
    return names


class TestPickleLayout:
    def test_pickles_carry_columns_not_task_objects(self):
        dag = DAGInstance.from_lists(p=[1, 2, 3], s=[3, 2, 1], m=2, edges=[(0, 1), (1, 2)])
        result = solve(dag, "rls(delta=3.0)", cache=False)
        for obj in (dag, result):
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            referenced = {name for _module, name in _globals(blob)}
            assert "Task" not in referenced and "DiGraph" not in referenced
        clone = pickle.loads(pickle.dumps(result))
        assert clone.schedule == result.schedule
        assert clone.schedule.assignment == result.schedule.assignment
        assert list(clone.schedule.assignment) == list(result.schedule.assignment)
        assert clone.objectives == result.objectives
        assert set(clone.schedule.instance.graph.edges()) == {(0, 1), (1, 2)}

    def test_uniform_round_trip_keeps_speeds(self):
        inst = UniformInstance.from_lists(p=[2, 4], s=[1, 1], speeds=[1.0, 2.0])
        clone = pickle.loads(pickle.dumps(inst))
        assert clone.speeds == [1.0, 2.0] and clone.m == 2
        assert clone.content_hash() == inst.content_hash()

    def test_views_are_built_once_and_user_tasks_kept(self):
        inst = Instance.from_dict({"m": 2, "tasks": [{"id": 0, "p": 1, "s": 2},
                                                     {"id": 1, "p": 3, "s": 4, "label": "x"}]})
        first = inst.task(1)
        assert first is list(inst.tasks)[1] is inst.tasks[1]
        assert first.label == "x"
        given_tasks = [Task(id="a", p=1, s=1), Task(id="b", p=2, s=2)]
        own = Instance(given_tasks, m=1)
        assert own.task("b") is given_tasks[1]
        assert list(own.tasks)[0] is given_tasks[0]

    def test_add_keeps_columns_and_views_in_step(self):
        tasks = TaskSet.from_lists(p=[1], s=[2])
        assert [t.id for t in tasks] == [0]
        tasks.add(Task(id=1, p=3, s=4, label="new"))
        assert tasks.columns == ([0, 1], [1.0, 3.0], [2.0, 4.0])
        assert tasks.labels == [None, "new"]
        assert tasks[1].label == "new" and 1 in tasks


# --------------------------------------------------------------------------- #
# DiskCache entries of the pre-columnar layout
# --------------------------------------------------------------------------- #
def _fixture_instance() -> Instance:
    return Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2, name="precolumnar")


class TestPrecolumnarCacheEntry:
    def test_fixture_is_in_the_old_layout(self):
        with pytest.raises(pickle.UnpicklingError, match="pre-columnar"):
            pickle.loads(PRECOLUMNAR.read_bytes())

    def test_old_entry_is_a_removed_miss(self, tmp_path):
        inst = _fixture_instance()
        spec = "sbo(delta=1.0, inner=lpt)"
        cache = DiskCache(tmp_path)
        key = cache_key(inst, spec)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(PRECOLUMNAR.read_bytes())

        assert cache.get(key) is None
        assert not path.exists()
        assert (cache.stats.hits, cache.stats.misses, cache.stats.corrupt) == (0, 1, 1)

        # The solve recomputes, stores a columnar entry, and hits it next time.
        first = solve(inst, spec, cache=cache)
        assert first.provenance["cache"] == "miss"
        assert path.exists()
        again = solve(inst, spec, cache=cache)
        assert again.provenance["cache"] == "hit"
        assert again.objectives == first.objectives == solve(inst, spec, cache=False).objectives
        assert again.schedule.assignment == first.schedule.assignment


class TestTwoScheduleClassesCacheEntries:
    @pytest.mark.parametrize("spec, error", [
        # The restore function kept its name and gained an argument.
        ("lpt(objective=time)", TypeError),
        # The timed schedule's class and restore function are gone.
        ("rls(delta=3.0, order=arbitrary)", AttributeError),
    ])
    def test_fixture_no_longer_unpickles(self, spec, error):
        with pytest.raises(error):
            pickle.loads(TWO_SCHEDULE_CLASSES[spec])

    @pytest.mark.parametrize("spec", sorted(TWO_SCHEDULE_CLASSES))
    def test_old_entry_is_a_removed_miss(self, tmp_path, spec):
        inst = _fixture_instance()
        cache = DiskCache(tmp_path)
        key = cache_key(inst, spec)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(TWO_SCHEDULE_CLASSES[spec])

        assert cache.get(key) is None
        assert not path.exists()
        assert (cache.stats.hits, cache.stats.misses, cache.stats.corrupt) == (0, 1, 1)

        first = solve(inst, spec, cache=cache)
        assert first.provenance["cache"] == "miss"
        again = solve(inst, spec, cache=cache)
        assert again.provenance["cache"] == "hit"
        assert again.objectives == first.objectives
        assert again.schedule == first.schedule
