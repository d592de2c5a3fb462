"""Tests for the :mod:`repro.online` subsystem (core, not serving).

Covers the scheduler protocol and adapters, the online registry, the
arrival models and trace replay, the competitive-ratio report, the
pinned EXT-O1 golden table, the ``2 - 1/m`` prefix property tests, and
the warning-free import of the remaining ``repro.extensions`` module.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bounds import cmax_lower_bound, mmax_lower_bound
from repro.core.instance import Instance
from repro.core.task import Task, TaskSet
from repro.core.validation import validate_schedule
from repro.online import (
    ArrivalTrace,
    GreedyScheduler,
    HindsightOracle,
    OnlineBiObjectiveScheduler,
    OnlineSchedulerError,
    adversarial_trace,
    available_online_schedulers,
    competitive_report,
    create_online,
    describe_online_schedulers,
    replay_trace,
    stochastic_trace,
    trace_from_instance,
)
from repro.online.arrivals import ADVERSARIAL_MODES, ArrivalEvent
from repro.solvers import SpecError, solve
from repro.workloads.independent import uniform_instance, workload_suite

from make_online_golden import ONLINE_GOLDEN_PATH, compute_fixture

pytestmark = pytest.mark.online


# --------------------------------------------------------------------------- #
# the protocol base class
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_invalid_m(self):
        with pytest.raises(ValueError):
            GreedyScheduler(m=0)
        with pytest.raises(TypeError):
            GreedyScheduler(m=2.0)  # type: ignore[arg-type]

    def test_duplicate_submission_rejected(self):
        sched = GreedyScheduler(m=2)
        sched.submit(Task(id=0, p=1, s=1))
        with pytest.raises(OnlineSchedulerError):
            sched.submit(Task(id=0, p=2, s=2))
        # Back-compat: the shim's callers caught ValueError.
        assert issubclass(OnlineSchedulerError, ValueError)

    def test_submit_after_finalize_rejected(self):
        sched = GreedyScheduler(m=2)
        sched.submit(Task(id=0, p=1, s=1))
        sched.finalize()
        with pytest.raises(OnlineSchedulerError):
            sched.submit(Task(id=1, p=1, s=1))

    def test_finalize_idempotent_and_solve_result_shaped(self):
        sched = GreedyScheduler(m=3)
        sched.submit_many(uniform_instance(20, 3, seed=0).tasks)
        first = sched.finalize()
        assert sched.finalize() is first
        assert first.feasible
        assert first.cmax == pytest.approx(sched.cmax)
        assert first.mmax == pytest.approx(sched.mmax)
        assert first.provenance["mode"] == "online"
        assert first.provenance["n_submitted"] == 20
        assert validate_schedule(first.schedule).ok

    def test_empty_finalize(self):
        result = GreedyScheduler(m=2).finalize()
        assert result.cmax == 0.0 and result.mmax == 0.0
        assert result.provenance["n_submitted"] == 0

    def test_current_schedule_snapshot(self):
        sched = GreedyScheduler(m=2)
        sched.submit(Task(id="a", p=4, s=1))
        sched.submit(Task(id="b", p=3, s=2))
        snap = sched.current_schedule()
        assert snap.assignment == {"a": 0, "b": 1}
        assert sched.n_submitted == 2


class TestGreedyScheduler:
    def test_time_objective_packs_loads(self):
        sched = GreedyScheduler(m=2, objective="time")
        for i, p in enumerate([4, 3, 2]):
            sched.submit(Task(id=i, p=p, s=0))
        assert sched.cmax == 5.0  # 4 | 3+2

    def test_memory_objective_packs_memory(self):
        sched = GreedyScheduler(m=2, objective="memory")
        for i, s in enumerate([4, 3, 2]):
            sched.submit(Task(id=i, p=0, s=s))
        assert sched.mmax == 5.0

    def test_guarantee_tuple(self):
        assert GreedyScheduler(m=4, objective="time").guarantee() == (1.75, float("inf"))
        assert GreedyScheduler(m=4, objective="memory").guarantee() == (float("inf"), 1.75)

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            GreedyScheduler(m=2, objective="latency")


class TestOnlineBiObjective:
    """The threshold scheduler (behaviour preserved from the extension)."""

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OnlineBiObjectiveScheduler(m=0)
        with pytest.raises(ValueError):
            OnlineBiObjectiveScheduler(m=2, delta=0.0)

    def test_memory_routed_tasks_have_low_density(self):
        sched = OnlineBiObjectiveScheduler(m=2, delta=1.0)
        sched.submit(Task(id="balanced", p=5, s=5))
        sched.submit(Task(id="heavy", p=1, s=50))
        assert "heavy" in sched.memory_routed_tasks
        assert "balanced" in sched.time_routed_tasks

    def test_extreme_deltas_route_everything_one_way(self):
        inst = uniform_instance(20, 3, seed=8)
        time_only = OnlineBiObjectiveScheduler(m=3, delta=1e-9)
        time_only.submit_many(inst.tasks)
        assert not time_only.memory_routed_tasks
        memory_only = OnlineBiObjectiveScheduler(m=3, delta=1e9)
        memory_only.submit_many(inst.tasks)
        assert len(memory_only.memory_routed_tasks) == 20

    def test_zero_storage_stream(self):
        sched = OnlineBiObjectiveScheduler(m=2)
        for i in range(6):
            sched.submit(Task(id=i, p=2, s=0))
        assert sched.mmax == 0.0
        assert sched.cmax == 6.0

    def test_competitive_bounds(self):
        assert OnlineBiObjectiveScheduler(m=4).competitive_bounds() == (1.75, 1.75)

    def test_snapshot_objective_consistency(self):
        inst = uniform_instance(25, 3, seed=11)
        online = OnlineBiObjectiveScheduler(m=3, delta=2.0)
        online.submit_many(inst.tasks)
        snapshot = online.current_schedule()
        assert snapshot.cmax == pytest.approx(online.cmax)
        assert snapshot.mmax == pytest.approx(online.mmax)


class TestHindsightOracle:
    def test_finalize_resolves_offline(self):
        inst = uniform_instance(15, 3, seed=2)
        oracle = HindsightOracle(m=3, inner="lpt")
        oracle.submit_many(inst.tasks)
        result = oracle.finalize()
        direct = solve(inst.with_m(3), "lpt", cache=False)
        assert result.cmax == direct.cmax
        assert result.provenance["hindsight"] is True

    def test_oracle_never_worse_than_greedy_on_cmax(self):
        inst = uniform_instance(30, 4, seed=5)
        greedy = GreedyScheduler(m=4, objective="time")
        greedy.submit_many(inst.tasks)
        oracle = HindsightOracle(m=4, inner="lpt")
        oracle.submit_many(inst.tasks)
        assert oracle.finalize().cmax <= greedy.finalize().cmax + 1e-9

    def test_bad_inner_spec_fails_at_construction(self):
        with pytest.raises(SpecError):
            HindsightOracle(m=2, inner="not a ( spec")


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestOnlineRegistry:
    def test_families_registered(self):
        names = available_online_schedulers()
        assert {"online_greedy", "online_sbo", "online_hindsight"} <= set(names)

    def test_create_binds_and_canonicalizes(self):
        sched = create_online("online_sbo(delta=2.0)", m=4)
        assert isinstance(sched, OnlineBiObjectiveScheduler)
        assert sched.m == 4 and sched.delta == 2.0
        assert sched.spec == "online_sbo(delta=2.0)"
        assert sched.name == "online_sbo"
        assert sched.bound_params == {"delta": 2.0}

    def test_param_overrides(self):
        sched = create_online("online_sbo", m=2, delta=0.25)
        assert sched.delta == 0.25

    def test_unknown_scheduler_suggests(self):
        with pytest.raises(SpecError, match="online_sbo"):
            create_online("online_sb", m=2)

    def test_bad_params_rejected(self):
        with pytest.raises(SpecError):
            create_online("online_sbo(delta=-1)", m=2)
        with pytest.raises(SpecError):
            create_online("online_greedy(objective=latency)", m=2)
        with pytest.raises(SpecError):
            create_online("online_greedy(bogus=1)", m=2)

    def test_each_create_is_fresh(self):
        a = create_online("online_greedy", m=2)
        b = create_online("online_greedy", m=2)
        a.submit(Task(id=0, p=1, s=1))
        assert b.n_submitted == 0

    def test_describe_records(self):
        records = {rec["name"]: rec for rec in describe_online_schedulers()}
        assert "delta:float" in records["online_sbo"]["params"]


# --------------------------------------------------------------------------- #
# arrivals and replay
# --------------------------------------------------------------------------- #
class TestArrivalTrace:
    def test_stochastic_deterministic(self):
        a = stochastic_trace(n=30, m=3, seed=42)
        b = stochastic_trace(n=30, m=3, seed=42)
        assert a.to_json() == b.to_json()
        assert len(a) == 30 and a.m == 3

    def test_round_trip(self, tmp_path):
        trace = stochastic_trace(n=10, m=2, seed=1)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ArrivalTrace.load(path)
        assert loaded.to_json() == trace.to_json()
        assert loaded.instance().content_hash() == trace.instance().content_hash()

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            ArrivalTrace(
                [ArrivalEvent(2.0, Task(id=0, p=1, s=1)),
                 ArrivalEvent(1.0, Task(id=1, p=1, s=1))],
                m=2,
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ArrivalTrace(
                [ArrivalEvent(0.0, Task(id=0, p=1, s=1)),
                 ArrivalEvent(1.0, Task(id=0, p=2, s=2))],
                m=2,
            )

    def test_prefix(self):
        trace = stochastic_trace(n=10, m=2, seed=0)
        assert len(trace.prefix(4)) == 4
        assert [e.task.id for e in trace.prefix(4)] == [0, 1, 2, 3]

    def test_adversarial_modes_permute_without_loss(self):
        inst = uniform_instance(20, 3, seed=4)
        for mode in ADVERSARIAL_MODES:
            trace = adversarial_trace(inst, mode=mode)
            assert sorted(t.id for t in trace.tasks) == sorted(t.id for t in inst.tasks)
            assert trace.m == inst.m

    def test_adversarial_lpt_first_descending(self):
        inst = uniform_instance(15, 2, seed=3)
        trace = adversarial_trace(inst, mode="lpt_first")
        ps = [t.p for t in trace.tasks]
        assert ps == sorted(ps, reverse=True)

    def test_adversarial_unknown_mode(self):
        with pytest.raises(ValueError):
            adversarial_trace(uniform_instance(5, 2, seed=0), mode="chaos")

    def test_trace_from_instance_preserves_order(self):
        inst = uniform_instance(8, 2, seed=9)
        trace = trace_from_instance(inst)
        assert [t.id for t in trace.tasks] == [t.id for t in inst.tasks]


class TestReplay:
    def test_replay_matches_direct_submission(self):
        trace = stochastic_trace(n=40, m=4, seed=6)
        report = replay_trace(trace, create_online("online_sbo(delta=1.0)", m=4))
        direct = create_online("online_sbo(delta=1.0)", m=4)
        for event in trace:
            direct.submit(event.task)
        assert report.result.cmax == direct.finalize().cmax
        assert dict(report.placements) == direct.assignment()
        assert len(report.prefix_rows) == 40

    def test_sim_makespan_at_least_load_cmax(self):
        trace = stochastic_trace(n=30, m=3, seed=7)
        report = replay_trace(trace, create_online("online_greedy", m=3))
        assert report.sim_makespan >= report.result.cmax - 1e-9

    def test_m_mismatch_rejected(self):
        trace = stochastic_trace(n=5, m=3, seed=0)
        with pytest.raises(ValueError):
            replay_trace(trace, create_online("online_greedy", m=2))

    def test_used_scheduler_rejected(self):
        trace = stochastic_trace(n=5, m=2, seed=0)
        sched = create_online("online_greedy", m=2)
        sched.submit(Task(id="pre", p=1, s=1))
        with pytest.raises(ValueError):
            replay_trace(trace, sched)


# --------------------------------------------------------------------------- #
# competitive ratios
# --------------------------------------------------------------------------- #
class TestCompetitiveReport:
    def test_default_prefixes_cover_quartiles_and_full(self):
        trace = stochastic_trace(n=40, m=4, seed=0)
        report = competitive_report(trace, "online_greedy")
        assert [row.k for row in report.rows] == [10, 20, 30, 40]

    def test_greedy_time_respects_graham_on_every_prefix(self):
        trace = stochastic_trace(n=60, m=4, seed=1)
        report = competitive_report(trace, "online_greedy(objective=time)",
                                    prefixes=range(1, 61))
        bound = 2.0 - 1.0 / 4
        assert all(row.cmax_ratio <= bound + 1e-9 for row in report.rows)

    def test_oracle_reference_tighter_or_equal(self):
        trace = stochastic_trace(n=20, m=2, seed=2)
        lb = competitive_report(trace, "online_greedy", reference="lb")
        oracle = competitive_report(trace, "online_greedy", reference="oracle",
                                    oracle_inner="exact")
        # OPT >= LB, so ratios against the oracle can only shrink or hold.
        for row_lb, row_or in zip(lb.rows, oracle.rows):
            assert row_or.cmax_ratio <= row_lb.cmax_ratio + 1e-9

    def test_invalid_reference(self):
        trace = stochastic_trace(n=5, m=2, seed=0)
        with pytest.raises(ValueError):
            competitive_report(trace, "online_greedy", reference="vibes")


# --------------------------------------------------------------------------- #
# property tests: the 2 - 1/m fallback on every arrival prefix
# --------------------------------------------------------------------------- #
def _routed_subset_load_and_lb(scheduler, routed_ids, objective):
    routed = set(routed_ids)
    tasks = [t for t in scheduler._tasks if t.id in routed]
    if not tasks:
        return 0.0, 0.0
    subset = Instance(TaskSet(tasks), m=scheduler.m)
    loads = [0.0] * scheduler.m
    assignment = scheduler.assignment()
    for task in tasks:
        loads[assignment[task.id]] += task.p if objective == "time" else task.s
    lb = cmax_lower_bound(subset) if objective == "time" else mmax_lower_bound(subset)
    return max(loads), lb


class TestPrefixFallbackProperties:
    """Every arrival prefix respects the single-objective 2 - 1/m fallbacks."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_threshold_scheduler_prefix_fallbacks(self, seed, m, delta):
        trace = stochastic_trace(n=35, m=m, seed=seed)
        sched = OnlineBiObjectiveScheduler(m=m, delta=delta)
        bound = 2.0 - 1.0 / m
        for event in trace:
            sched.submit(event.task)
            # Time-routed subset: Graham bound on its makespan.
            load, lb = _routed_subset_load_and_lb(sched, sched.time_routed_tasks, "time")
            assert load <= bound * lb + 1e-9
            # Memory-routed subset: symmetric bound on its memory.
            mem, mlb = _routed_subset_load_and_lb(sched, sched.memory_routed_tasks, "memory")
            assert mem <= bound * mlb + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", ["uniform", "anti-correlated", "bimodal"])
    def test_greedy_prefix_bound_across_workloads(self, seed, family):
        inst = workload_suite(30, 3, seed=seed)[family]
        trace = trace_from_instance(inst)
        sched = GreedyScheduler(m=3, objective="time")
        bound = 2.0 - 1.0 / 3
        for event in trace:
            sched.submit(event.task)
            prefix_lb = cmax_lower_bound(sched.current_instance())
            assert sched.cmax <= bound * prefix_lb + 1e-9

    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    def test_adversarial_permutations_cannot_break_the_bound(self, mode):
        inst = workload_suite(40, 4, seed=0)["heavy-tailed"]
        trace = adversarial_trace(inst, mode=mode)
        sched = GreedyScheduler(m=4, objective="memory")
        bound = 2.0 - 1.0 / 4
        for event in trace:
            sched.submit(event.task)
            prefix_lb = mmax_lower_bound(sched.current_instance())
            assert sched.mmax <= bound * prefix_lb + 1e-9


# --------------------------------------------------------------------------- #
# the pinned EXT-O1 golden table
# --------------------------------------------------------------------------- #
class TestOnlineGoldenTable:
    REGENERATE_HINT = (
        "regenerate deliberately with "
        "`PYTHONPATH=src python tests/make_online_golden.py`"
    )

    def test_golden_table_matches(self):
        assert ONLINE_GOLDEN_PATH.exists(), (
            f"online golden fixture missing at {ONLINE_GOLDEN_PATH}; {self.REGENERATE_HINT}"
        )
        pinned = json.loads(ONLINE_GOLDEN_PATH.read_text())
        fresh = compute_fixture()
        assert fresh["headers"] == pinned["headers"], self.REGENERATE_HINT
        assert fresh["checks"] == pinned["checks"], self.REGENERATE_HINT
        assert all(pinned["checks"].values()), "pinned fixture has failing checks"
        assert len(fresh["rows"]) == len(pinned["rows"]), self.REGENERATE_HINT
        for fresh_row, pinned_row in zip(fresh["rows"], pinned["rows"]):
            assert fresh_row == pinned_row, (
                f"online golden row diverged:\n  fresh : {fresh_row}\n"
                f"  pinned: {pinned_row}\n{self.REGENERATE_HINT}"
            )


# --------------------------------------------------------------------------- #
# repro.extensions imports cleanly
# --------------------------------------------------------------------------- #
class TestExtensionShim:
    def test_uniform_machines_import_does_not_warn(self):
        import subprocess
        import sys as _sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [_sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro.extensions.uniform_machines"],
            capture_output=True, timeout=60,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestExportReplayState:
    """Ledger export + verified replay (the session-handoff substrate)."""

    SPECS = [
        "online_greedy",
        "online_greedy(objective=memory)",
        "online_sbo(delta=0.5)",
        "online_sbo(delta=1.0)",
        "online_sbo(delta=2.0)",
        "online_hindsight",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replayed_scheduler_is_bit_identical(self, spec, seed):
        """Property: export -> replay -> continue == never-exported run."""
        from repro.online import replay_state

        trace = list(stochastic_trace(n=30, m=4, seed=seed))
        cut = 17
        original = create_online(spec, m=4)
        for event in trace[:cut]:
            original.submit(event.task)

        replayed = replay_state(original.export_state())
        assert replayed.spec == original.spec
        assert replayed.m == original.m
        assert replayed.assignment() == original.assignment()
        assert replayed.cmax == original.cmax
        assert replayed.mmax == original.mmax

        # Continue both streams: every subsequent placement agrees too.
        for event in trace[cut:]:
            assert replayed.submit(event.task) == original.submit(event.task)
        expected = original.finalize()
        got = replayed.finalize()
        assert got.objectives == expected.objectives
        assert got.guarantee == expected.guarantee
        assert got.schedule.assignment == expected.schedule.assignment

    def test_export_is_json_safe_and_replay_verifies(self):
        from repro.online import replay_state

        scheduler = create_online("online_sbo(delta=1.0)", m=3)
        for i in range(10):
            scheduler.submit(Task(id=i, p=float(i + 1), s=float(i % 4)))
        state = scheduler.export_state()
        # Round-trips through JSON (the wire form used by session handoff).
        state = json.loads(json.dumps(state))
        replayed = replay_state(state)
        assert replayed.assignment() == scheduler.assignment()

    def test_sealed_flag_round_trips(self):
        from repro.online import replay_state

        scheduler = create_online("online_greedy", m=2)
        scheduler.submit(Task(id=0, p=1.0, s=1.0))
        scheduler.seal()
        replayed = replay_state(scheduler.export_state())
        assert replayed.is_sealed
        with pytest.raises(OnlineSchedulerError):
            replayed.submit(Task(id=1, p=1.0, s=1.0))

    def test_divergent_state_is_refused(self):
        from repro.online import replay_state

        scheduler = create_online("online_greedy", m=3)
        for i in range(6):
            scheduler.submit(Task(id=i, p=float(i + 1), s=1.0))
        state = scheduler.export_state()
        state["placements"] = list(reversed(state["placements"]))
        with pytest.raises(OnlineSchedulerError, match="diverged"):
            replay_state(state)

    def test_malformed_state_is_refused(self):
        from repro.online import replay_state

        with pytest.raises(OnlineSchedulerError, match="spec"):
            replay_state({"m": 2})
        with pytest.raises(OnlineSchedulerError, match="'m'"):
            replay_state({"spec": "online_greedy"})
        with pytest.raises(OnlineSchedulerError, match="inconsistent"):
            replay_state({"spec": "online_greedy", "m": 2,
                          "tasks": [[0, 1.0, 1.0]], "placements": []})
