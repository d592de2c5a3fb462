"""Periodic / real-time subsystem tests (:mod:`repro.periodic`).

Covers the full vertical:

* **model** — :class:`PeriodicTask` / :class:`PeriodicInstance`
  validation, exact ``Fraction`` hyperperiods, job enumeration, the
  ``kind: "periodic"`` wire round-trip, content hashing and pickling;
* **budget** — the hyperperiod unroll budget stays a *typed, instant*
  error (:class:`HyperperiodBudgetError`) on adversarial co-prime
  period sets, never an OOM;
* **schedulers** — preemptive EDF is schedulable exactly up to ``U = 1``
  on one machine (property-tested across seeds), RM matches on harmonic
  sets, overload always misses;
* **facade** — deadline-aware solvers via the registry (capability
  flags, spec mini-language, one-shot rejection) and transparent
  hyperperiod unrolling for every legacy solver, including the
  per-solver job caps that refuse super-polynomial solvers, and result
  caching keyed on the *periodic* content hash;
* **workloads** — harmonic / log-uniform generators, the
  release-dated :func:`trace_from_periodic` bridge through the online
  layer and :class:`SimulationEngine`, cross-checked with
  :func:`deadline_metrics`;
* **experiments** — the EXT-P1 utilization sweep replays bit-for-bit
  against ``tests/golden/periodic_study.json``;
* **service** — a periodic instance solved through a live
  ``repro serve`` subprocess is bit-identical to the in-process result;
* **engine satellites** — release-time validation and idle-gap
  accounting regressions in :class:`SimulationEngine`.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.instance import Instance
from repro.core.objectives import deadline_metrics
from repro.online import create_online, replay_trace
from repro.periodic import (
    DEFAULT_UNROLL_BUDGET,
    HyperperiodBudgetError,
    PeriodicInstance,
    PeriodicTask,
    UNROLL_JOB_CAPS,
    ensure_unrollable,
    periodic_edf,
    periodic_list,
    periodic_rm,
    unroll,
)
from repro.simulator.engine import SimulationEngine
from repro.solvers import LRUCache, solve
from repro.solvers.registry import SolverCapabilityError, available_solvers, describe_solvers
from repro.workloads.periodic import harmonic_taskset, loguniform_taskset, trace_from_periodic

from make_periodic_golden import PERIODIC_GOLDEN_PATH, compute_fixture

pytestmark = pytest.mark.periodic


def small_instance(m: int = 1) -> PeriodicInstance:
    """A dyadic 4-task set: H = 8, nine jobs, U = 1.0 on one machine."""
    return PeriodicInstance(
        [
            PeriodicTask(id="a", wcet=1.0, s=2.0, period=2.0),
            PeriodicTask(id="b", wcet=1.0, s=1.0, period=4.0),
            PeriodicTask(id="c", wcet=0.5, s=3.0, period=4.0),
            PeriodicTask(id="d", wcet=1.0, s=1.5, period=8.0),
        ],
        m=m,
        name="small",
    )


# --------------------------------------------------------------------------- #
# model
# --------------------------------------------------------------------------- #
class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="wcet"):
            PeriodicTask(id="t", wcet=-1.0, s=1.0, period=4.0)
        with pytest.raises(ValueError, match="period"):
            PeriodicTask(id="t", wcet=1.0, s=1.0, period=-2.0)
        with pytest.raises(ValueError, match="deadline"):
            PeriodicTask(id="t", wcet=1.0, s=1.0, period=4.0, deadline=0.0)
        with pytest.raises(ValueError, match="phase"):
            PeriodicTask(id="t", wcet=1.0, s=1.0, period=4.0, phase=-1.0)
        with pytest.raises(ValueError, match="finite"):
            PeriodicTask(id="t", wcet=float("nan"), s=1.0, period=4.0)
        with pytest.raises(ValueError, match="duplicate"):
            PeriodicInstance(
                [PeriodicTask(id="t", wcet=1.0, s=1.0, period=2.0)] * 2, m=1
            )
        with pytest.raises(ValueError, match="m"):
            small_instance().with_m(0)

    def test_hyperperiod_is_exact_lcm(self):
        pinst = small_instance()
        assert pinst.hyperperiod_exact == Fraction(8)
        assert pinst.hyperperiod == 8.0
        # Fractional periods: lcm(3/2, 5/2) = 15/2, no float drift.
        frac = PeriodicInstance(
            [
                PeriodicTask(id="x", wcet=0.5, s=1.0, period=1.5),
                PeriodicTask(id="y", wcet=0.5, s=1.0, period=2.5),
            ],
            m=1,
        )
        assert frac.hyperperiod_exact == Fraction(15, 2)

    def test_implicit_deadline_is_period(self):
        task = PeriodicTask(id="t", wcet=1.0, s=1.0, period=4.0, phase=1.0)
        job = task.job(2)
        assert job.release == 9.0
        assert job.deadline == 13.0
        explicit = PeriodicTask(id="t", wcet=1.0, s=1.0, period=4.0, deadline=3.0)
        assert explicit.job(0).deadline == 3.0

    def test_job_enumeration_deterministic_and_sorted(self):
        pinst = small_instance()
        jobs = pinst.jobs()
        assert len(jobs) == 9  # 4 + 2 + 2 + 1 over H = 8
        # (release, deadline) order: at t=4, a#2 (deadline 6) precedes
        # b#1 and c#1 (deadline 8).
        assert [j.job_id for j in jobs] == [
            "a#0", "b#0", "c#0", "d#0", "a#1", "a#2", "b#1", "c#1", "a#3",
        ]
        assert all(
            jobs[i].release <= jobs[i + 1].release for i in range(len(jobs) - 1)
        )

    def test_utilization(self):
        assert small_instance().utilization == pytest.approx(1.0)

    def test_wire_round_trip_and_content_hash(self):
        pinst = small_instance(m=2)
        data = pinst.to_dict()
        assert data["kind"] == "periodic"
        back = PeriodicInstance.from_dict(json.loads(json.dumps(data)))
        assert back.content_hash() == pinst.content_hash()
        assert [t.id for t in back.tasks] == [t.id for t in pinst.tasks]
        # The hash identifies the mathematical instance, not its label.
        renamed = PeriodicInstance(pinst.tasks, m=2, name="other")
        assert renamed.content_hash() == pinst.content_hash()
        assert pinst.with_m(3).content_hash() != pinst.content_hash()

    def test_pickle_round_trip(self):
        pinst = small_instance()
        clone = pickle.loads(pickle.dumps(pinst))
        assert clone.content_hash() == pinst.content_hash()
        assert clone.hyperperiod == pinst.hyperperiod


# --------------------------------------------------------------------------- #
# unroll budget: typed, instant, never OOM
# --------------------------------------------------------------------------- #
class TestUnrollBudget:
    def adversarial(self, budget: int = DEFAULT_UNROLL_BUDGET) -> PeriodicInstance:
        primes = (97.0, 89.0, 83.0, 79.0, 73.0, 71.0)
        return PeriodicInstance(
            [PeriodicTask(id=f"p{int(t)}", wcet=0.5, s=1.0, period=t) for t in primes],
            m=1,
            unroll_budget=budget,
        )

    def test_coprime_periods_raise_typed_error(self):
        pinst = self.adversarial()
        with pytest.raises(HyperperiodBudgetError) as err:
            pinst.jobs()
        assert err.value.job_count > 10**9
        assert err.value.budget == DEFAULT_UNROLL_BUDGET
        assert "unroll_budget" in str(err.value)

    def test_budget_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            self.adversarial().check_budget()

    def test_check_budget_is_arithmetic_not_materialisation(self):
        # 21.7e9 jobs: if this enumerated anything it would hang/OOM.
        import time

        start = time.perf_counter()
        with pytest.raises(HyperperiodBudgetError):
            self.adversarial().check_budget()
        assert time.perf_counter() - start < 1.0

    def test_raising_the_budget_unlocks_the_horizon(self):
        pinst = small_instance()
        horizon = 16 * pinst.hyperperiod  # 144 jobs
        with pytest.raises(HyperperiodBudgetError):
            PeriodicInstance(pinst.tasks, m=1, unroll_budget=100).jobs(horizon)
        raised = PeriodicInstance(pinst.tasks, m=1, unroll_budget=200)
        assert len(raised.jobs(horizon)) == 144


# --------------------------------------------------------------------------- #
# native schedulers: the EDF schedulability boundary
# --------------------------------------------------------------------------- #
class TestSchedulers:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("utilization", [0.6, 0.85, 1.0])
    def test_edf_m1_zero_misses_at_or_below_u1(self, seed, utilization):
        """Preemptive EDF is optimal on one machine: U <= 1 => no misses."""
        pinst = harmonic_taskset(6, utilization, m=1, seed=seed)
        result = periodic_edf(pinst)
        assert result.metrics.misses == 0, (
            f"EDF missed at U={pinst.utilization:g} seed={seed}"
        )
        assert result.metrics.max_lateness <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_overload_always_misses(self, seed):
        pinst = harmonic_taskset(6, 1.2, m=1, seed=seed)
        assert periodic_edf(pinst).metrics.misses > 0

    def test_rm_matches_edf_on_harmonic_sets(self):
        for seed in range(4):
            pinst = harmonic_taskset(6, 0.95, m=1, seed=seed)
            assert periodic_rm(pinst).metrics.misses == 0

    def test_nonpreemptive_is_never_better(self):
        pinst = harmonic_taskset(6, 0.95, m=1, seed=3)
        pre = periodic_edf(pinst, preemptive=True).metrics
        non = periodic_edf(pinst, preemptive=False).metrics
        assert non.misses >= pre.misses

    def test_partitioned_multiprocessor_keeps_tasks_whole(self):
        pinst = harmonic_taskset(8, 1.9, m=2, seed=0)
        result = periodic_edf(pinst)
        assert set(result.task_assignment) == {t.id for t in pinst.tasks}
        assert result.metrics.misses == 0
        # Task-level memory: one copy per task per processor it touches,
        # which partitioning makes exactly one — so never above job-level.
        assert result.task_mmax <= result.schedule.mmax + 1e-9

    def test_periodic_list_reports_metrics(self):
        result = periodic_list(small_instance(m=2))
        assert result.metrics.n_jobs == 9
        assert result.metrics.misses == 0
        assert result.sim_makespan <= 8.0 + 1e-9


# --------------------------------------------------------------------------- #
# facade: capability registry, spec language, transparent unrolling
# --------------------------------------------------------------------------- #
class TestFacade:
    def test_capability_registry_filters(self):
        periodic = available_solvers(supports_periodic=True)
        assert periodic == ["periodic_edf", "periodic_list", "periodic_rm"]
        assert not set(periodic) & set(available_solvers(supports_periodic=False))
        assert all("supports_periodic" in info for info in describe_solvers())

    def test_spec_mini_language(self):
        pinst = small_instance(m=2)
        result = solve(pinst, "periodic_rm(partition=first-fit, preemptive=false)")
        assert result.provenance["params"]["partition"] == "first-fit"
        assert result.provenance["params"]["preemptive"] is False
        assert result.provenance["preemptive"] is False

    def test_periodic_solver_rejects_one_shot_instance(self):
        inst = Instance.from_lists(p=[3, 2, 1], s=[1, 2, 3], m=2)
        with pytest.raises(SolverCapabilityError, match="periodic"):
            solve(inst, "periodic_edf")

    def test_native_solve_reports_deadline_extras(self):
        result = solve(small_instance(), "periodic_edf")
        for key in ("deadline_misses", "deadline_miss_ratio", "max_lateness",
                    "sim_makespan", "unrolled_jobs", "hyperperiod", "task_mmax"):
            assert key in result.provenance, key
        assert result.provenance["deadline_misses"] == 0
        assert result.provenance["unrolled_jobs"] == 9

    def test_transparent_unroll_matches_manual_unroll(self):
        pinst = small_instance(m=2)
        via_facade = solve(pinst, "lpt")
        manual = solve(unroll(pinst).instance, "lpt")
        assert via_facade.objectives == manual.objectives
        assert via_facade.provenance["periodic_unroll"] is True
        assert via_facade.provenance["unrolled_jobs"] == 9

    def test_exact_refused_beyond_its_unroll_cap(self):
        pinst = small_instance().with_horizon(16.0)  # 18 jobs > cap of 10
        with pytest.raises(SolverCapabilityError) as err:
            solve(pinst, "exact")
        message = str(err.value)
        assert str(UNROLL_JOB_CAPS["exact"]) in message
        for name in available_solvers(supports_periodic=True):
            assert name in message  # the error teaches the fix

    def test_exact_allowed_within_its_cap(self):
        result = solve(small_instance(), "exact")  # 9 jobs <= 10
        assert result.provenance["periodic_unroll"] is True
        assert result.feasible

    def test_ensure_unrollable_returns_count(self):
        assert ensure_unrollable(small_instance(), "lpt") == 9
        with pytest.raises(SolverCapabilityError):
            ensure_unrollable(small_instance().with_horizon(16.0), "exact")

    def test_cache_keys_on_the_periodic_hash(self):
        cache = LRUCache(maxsize=8)
        pinst = small_instance(m=2)
        first = solve(pinst, "lpt", cache=cache)
        again = solve(pinst, "lpt", cache=cache)
        assert first.provenance["cache"] == "miss"
        assert again.provenance["cache"] == "hit"
        assert again.objectives == first.objectives
        # A different periodic instance with the same unrolled shape must
        # not collide: the key is the periodic content hash.
        other = PeriodicInstance(pinst.tasks, m=2, name="renamed").with_m(1)
        assert solve(other, "lpt", cache=cache).provenance["cache"] == "miss"

    def test_native_periodic_results_cache_too(self):
        cache = LRUCache(maxsize=8)
        pinst = small_instance()
        assert solve(pinst, "periodic_edf", cache=cache).provenance["cache"] == "miss"
        hit = solve(pinst, "periodic_edf", cache=cache)
        assert hit.provenance["cache"] == "hit"
        assert hit.provenance["deadline_misses"] == 0


# --------------------------------------------------------------------------- #
# workloads: generators and the release-dated trace bridge
# --------------------------------------------------------------------------- #
class TestWorkloads:
    def test_harmonic_periods_divide_each_other(self):
        pinst = harmonic_taskset(8, 0.9, m=1, seed=1)
        periods = sorted({t.period for t in pinst.tasks})
        for small, large in zip(periods, periods[1:]):
            assert (large / small) == int(large / small)
        assert pinst.utilization == pytest.approx(0.9)

    def test_loguniform_hyperperiod_stays_bounded(self):
        for seed in range(6):
            pinst = loguniform_taskset(8, 0.9, m=1, seed=seed)
            assert pinst.check_budget() <= DEFAULT_UNROLL_BUDGET
            assert float(pinst.hyperperiod_exact) <= 960.0

    def test_generators_are_deterministic_per_seed(self):
        a = harmonic_taskset(6, 0.8, m=2, seed=7)
        b = harmonic_taskset(6, 0.8, m=2, seed=7)
        c = harmonic_taskset(6, 0.8, m=2, seed=8)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_trace_from_periodic_release_dates_and_deadlines(self):
        pinst = harmonic_taskset(5, 0.8, m=2, seed=0)
        unrolled = unroll(pinst)
        trace = trace_from_periodic(pinst)
        assert trace.m == 2
        assert len(trace.events) == len(unrolled.jobs)
        for event, job in zip(trace.events, unrolled.jobs):
            assert event.time == job.release
            assert event.task.id == job.job_id
            assert event.task.p == job.wcet

    def test_trace_replay_cross_checks_deadline_metrics(self):
        """An EDF-feasible set stays feasible under the online greedy
        scheduler on this workload, measured by the *simulator's* clock."""
        pinst = harmonic_taskset(4, 0.5, m=2, seed=2)
        unrolled = unroll(pinst)
        report = replay_trace(trace_from_periodic(pinst), create_online("online_greedy", m=2))
        assert set(report.sim_completions) == set(unrolled.deadlines)
        metrics = deadline_metrics(
            report.sim_completions, unrolled.deadlines, releases=unrolled.releases
        )
        assert metrics.n_jobs == len(unrolled.jobs)
        assert metrics.misses == 0
        # Flow is measured from the release dates, so it is bounded by
        # n * horizon even though absolute completions grow with time.
        assert metrics.total_flow <= metrics.n_jobs * unrolled.horizon


# --------------------------------------------------------------------------- #
# deadline objectives
# --------------------------------------------------------------------------- #
class TestDeadlineMetrics:
    def test_basic_miss_accounting(self):
        metrics = deadline_metrics(
            {"a": 3.0, "b": 5.0, "c": 7.0},
            {"a": 4.0, "b": 5.0, "c": 6.0},
        )
        assert metrics.n_jobs == 3
        assert metrics.misses == 1
        assert metrics.miss_ratio == pytest.approx(1 / 3)
        assert metrics.max_lateness == pytest.approx(1.0)
        assert metrics.total_tardiness == pytest.approx(1.0)
        assert metrics.total_earliness == pytest.approx(1.0)

    def test_max_lateness_can_be_negative(self):
        metrics = deadline_metrics({"a": 1.0}, {"a": 5.0})
        assert metrics.misses == 0
        assert metrics.max_lateness == pytest.approx(-4.0)

    def test_weights_and_releases(self):
        metrics = deadline_metrics(
            {"a": 3.0, "b": 4.0},
            {"a": 5.0, "b": 4.0},
            releases={"a": 1.0},
            weights={"a": 2.0},
        )
        assert metrics.weighted_earliness == pytest.approx(4.0)  # 2 * (5 - 3)
        assert metrics.total_flow == pytest.approx((3.0 - 1.0) + 4.0)
        assert metrics.weighted_flow == pytest.approx(2 * 2.0 + 4.0)

    def test_empty_and_missing_deadline(self):
        empty = deadline_metrics({}, {})
        assert empty.n_jobs == 0 and empty.miss_ratio == 0.0
        with pytest.raises(KeyError, match="no deadline recorded"):
            deadline_metrics({"ghost": 1.0}, {})


# --------------------------------------------------------------------------- #
# EXT-P1: the golden utilization sweep
# --------------------------------------------------------------------------- #
class TestGoldenSweep:
    def test_ext_p1_matches_golden_bit_for_bit(self):
        golden = json.loads(PERIODIC_GOLDEN_PATH.read_text())
        live = json.loads(json.dumps(compute_fixture(), sort_keys=True))
        assert live["experiment_id"] == golden["experiment_id"] == "EXT-P1"
        assert live["headers"] == golden["headers"]
        assert live["checks"] == golden["checks"]
        assert all(golden["checks"].values()), golden["checks"]
        assert live["rows"] == golden["rows"]

    def test_boundary_shape_in_the_fixture(self):
        """The fixture itself exhibits the U = 1 schedulability boundary."""
        golden = json.loads(PERIODIC_GOLDEN_PATH.read_text())
        for row in golden["rows"]:
            if (row["family"] == "harmonic" and row["m"] == 1
                    and row["solver"] == "periodic_edf"):
                if row["U/m"] <= 1.0:
                    assert row["misses"] == 0, row
                else:
                    assert row["misses"] > 0, row


# --------------------------------------------------------------------------- #
# engine satellites: release validation and idle-gap accounting
# --------------------------------------------------------------------------- #
class TestEngineSatellites:
    def test_negative_and_nan_release_rejected(self):
        engine = SimulationEngine(m=1)
        with pytest.raises(ValueError, match="start time"):
            engine.submit_task("t", 0, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="start time"):
            engine.submit_task("t", 0, float("nan"), 1.0, 1.0)

    def test_first_event_after_t0_counts_as_idle(self):
        """Regression: a leading release gap is idle time, not busy time."""
        engine = SimulationEngine(m=2)
        engine.submit_task("late", 0, 3.0, 2.0, 1.0)  # proc 0 idles [0, 3)
        engine.submit_task("later", 1, 4.0, 1.0, 1.0)  # proc 1 idles [0, 4)
        engine.run()
        assert engine.makespan == 5.0
        assert engine.busy_per_processor == [2.0, 1.0]
        assert engine.idle_per_processor == [3.0, 4.0]

    def test_busy_accounting_across_back_to_back_tasks(self):
        engine = SimulationEngine(m=1)
        engine.submit_task("a", 0, 0.0, 2.0, 1.0)
        engine.submit_task("b", 0, 2.0, 3.0, 1.0)
        engine.run()
        assert engine.busy_per_processor == [5.0]
        assert engine.idle_per_processor == [0.0]


# --------------------------------------------------------------------------- #
# live service: wire round-trip and subprocess parity
# --------------------------------------------------------------------------- #
class TestService:
    def test_wire_payload_round_trips_through_protocol(self):
        from repro.service.protocol import instance_from_payload

        pinst = small_instance(m=2)
        back = instance_from_payload(pinst.to_dict())
        assert isinstance(back, PeriodicInstance)
        assert back.content_hash() == pinst.content_hash()

    def test_live_serve_bit_identical_to_inprocess(self):
        from repro.service.protocol import encode_message, result_to_payload, solve_request

        pinst = small_instance(m=2)
        requests = b"".join([
            encode_message(solve_request(pinst, "periodic_edf", request_id=1)),
            encode_message(solve_request(pinst, "lpt", request_id=2)),
            encode_message({"id": 3, "op": "shutdown"}),
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio", "--workers", "1"],
            input=requests, capture_output=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        responses = {
            msg["id"]: msg
            for msg in (json.loads(line) for line in proc.stdout.splitlines() if line.strip())
        }

        def canonical(payload):
            # Timing and cache state are the only run-dependent fields.
            payload = json.loads(json.dumps(payload, sort_keys=True))
            payload.pop("wall_time", None)
            payload.get("provenance", {}).pop("cache", None)
            return payload

        for request_id, spec in ((1, "periodic_edf"), (2, "lpt")):
            assert responses[request_id]["ok"], responses[request_id]
            direct = json.loads(json.dumps(
                result_to_payload(solve(pinst, spec, cache=False)), sort_keys=True
            ))
            served = responses[request_id]["result"]
            assert canonical(served) == canonical(direct), spec
        assert responses[1]["result"]["extras"]["deadline_misses"] == 0
        assert responses[2]["result"]["extras"]["periodic_unroll"] is True


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_generate_solve_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ptasks.json"
        assert main([
            "periodic", "generate", "--family", "harmonic", "--n", "5",
            "--utilization", "0.9", "--seed", "0", "--output", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "periodic"
        assert main(["periodic", "solve", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deadline misses = 0" in out

    def test_solve_via_unrolling_solver(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ptasks.json"
        path.write_text(json.dumps(small_instance(m=2).to_dict()))
        assert main(["periodic", "solve", "--input", str(path), "--solver", "lpt"]) == 0
        assert "unrolled jobs = 9" in capsys.readouterr().out

    def test_solve_rejects_capability_errors_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "big.json"
        path.write_text(json.dumps(small_instance().with_horizon(16.0).to_dict()))
        assert main(["periodic", "solve", "--input", str(path), "--solver", "exact"]) == 2
        assert "periodic_edf" in capsys.readouterr().err

    def test_budget_error_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        pinst = PeriodicInstance(
            [
                PeriodicTask(id="p97", wcet=0.5, s=1.0, period=97.0),
                PeriodicTask(id="p89", wcet=0.5, s=1.0, period=89.0),
                PeriodicTask(id="p83", wcet=0.5, s=1.0, period=83.0),
            ],
            m=1,
            unroll_budget=1000,
        )
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps(pinst.to_dict()))
        assert main(["periodic", "solve", "--input", str(path)]) == 1
        assert "unroll budget" in capsys.readouterr().err

    def test_schedule_refuses_periodic_instances(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ptasks.json"
        path.write_text(json.dumps(small_instance().to_dict()))
        assert main(["schedule", "--input", str(path), "--algorithm", "lpt"]) == 2
        assert "periodic" in capsys.readouterr().err

    def test_sweep_smoke(self, capsys):
        from repro.cli import main

        assert main(["periodic", "sweep", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "EXT-P1" in out
