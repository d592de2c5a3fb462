"""Unit tests for the unified solver facade (repro.solvers).

Covers the spec mini-language (parsing, round-tripping, error messages),
the capability-aware registry, the solve() facade and its SolveResult
protocol, and the solve_many batch runner (serial/parallel parity).
"""

from __future__ import annotations

import math

import pytest

from repro import (
    DAGInstance,
    Instance,
    SolverSpec,
    SpecError,
    SolverCapabilityError,
    solve,
    solve_many,
)
from repro.core.objectives import ObjectiveValues
from repro.core.rls import rls
from repro.core.sbo import sbo
from repro.core.trio import tri_objective_schedule
from repro.core.constrained import solve_constrained
from repro.solvers import (
    available_solvers,
    describe_solvers,
    get_entry,
    solver_capabilities,
)


@pytest.fixture
def inst() -> Instance:
    return Instance.from_lists(p=[8, 7, 6, 5, 4, 4, 3, 3, 2, 1],
                               s=[1, 2, 9, 8, 2, 7, 6, 1, 5, 4], m=2)


@pytest.fixture
def dag() -> DAGInstance:
    from repro.dag.generators import random_dag_suite

    return random_dag_suite(3, seed=0)["layered"]


# --------------------------------------------------------------------------- #
# SolverSpec: parsing and round-tripping
# --------------------------------------------------------------------------- #
class TestSolverSpec:
    @pytest.mark.parametrize("text", [
        "lpt",
        "sbo(delta=0.5, inner=lpt)",
        "rls(delta=2)",
        "rls(delta=2.5, order=bottom-level)",
        "trio",
        "constrained(budget=10.5)",
        "ptas(epsilon=0.1)",
        "ptas-fine",
        "list(objective=memory)",
    ])
    def test_round_trip(self, text):
        spec = SolverSpec.parse(text)
        assert SolverSpec.parse(str(spec)) == spec
        assert SolverSpec.parse(spec.canonical()) == spec

    def test_value_types(self):
        spec = SolverSpec.parse("x(a=2, b=2.5, c=true, d=none, e=word, f='quo ted')")
        assert spec.params == {"a": 2, "b": 2.5, "c": True, "d": None,
                               "e": "word", "f": "quo ted"}
        assert isinstance(spec.params["a"], int)
        assert isinstance(spec.params["b"], float)

    def test_parse_passthrough(self):
        spec = SolverSpec("sbo", {"delta": 1.0})
        assert SolverSpec.parse(spec) is spec

    def test_hashable_and_defensively_copied(self):
        params = {"delta": 1.0, "inner": "lpt"}
        spec = SolverSpec("sbo", params)
        assert spec == SolverSpec("sbo", {"inner": "lpt", "delta": 1.0})
        assert len({spec, SolverSpec("sbo", dict(params)), SolverSpec("rls")}) == 2
        params["delta"] = 9.0  # caller's dict is decoupled from the spec
        assert spec.params["delta"] == 1.0

    def test_with_params(self):
        base = SolverSpec.parse("sbo(inner=lpt)")
        updated = base.with_params(delta=2.0)
        assert updated.params == {"inner": "lpt", "delta": 2.0}
        assert base.params == {"inner": "lpt"}  # immutable

    @pytest.mark.parametrize("bad", [
        "", "(delta=1)", "sbo(delta=1", "sbo(delta)", "sbo(delta=1, delta=2)",
        "sbo(1delta=2)", "sbo(delta=@@)", "sbo junk", "x(k='unterminated)",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecError):
            SolverSpec.parse(bad)

    @pytest.mark.parametrize("value", [
        "a'b", 'a"b', "a,b", "a\\b", "a, b 'and' c", "comma,quote'mix"
    ])
    def test_round_trip_awkward_strings(self, value):
        spec = SolverSpec("x", {"k": value})
        assert SolverSpec.parse(str(spec)).params == {"k": value}

    def test_quoted_value_with_comma_splits_correctly(self):
        spec = SolverSpec.parse("x(a='one,two', b=3)")
        assert spec.params == {"a": "one,two", "b": 3}


# --------------------------------------------------------------------------- #
# Registry: capabilities, enumeration, validation errors
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_solvers_registered(self):
        names = available_solvers()
        for expected in ("sbo", "rls", "trio", "constrained", "lpt", "spt",
                         "list", "multifit", "ptas", "ptas-fine", "exact",
                         "pareto_approx", "uniform_list", "uniform_rls"):
            assert expected in names

    def test_capability_filtering(self):
        assert available_solvers(supports_dag=True) == ["constrained", "pareto_approx", "rls"]
        assert available_solvers(supports_constraint=True) == ["constrained"]
        bi = available_solvers(is_bi_objective=True)
        assert set(bi) == {"sbo", "rls", "trio", "constrained", "pareto_approx", "uniform_rls"}
        assert "sbo" not in available_solvers(is_bi_objective=False)

    def test_solver_capabilities(self):
        caps = solver_capabilities("rls")
        assert caps.supports_dag and caps.is_bi_objective
        assert not caps.supports_constraint

    def test_unknown_solver_lists_alternatives(self, inst):
        with pytest.raises(SpecError, match="available solvers"):
            solve(inst, "quantum")

    def test_unknown_solver_suggests_close_match(self, inst):
        with pytest.raises(SpecError, match="did you mean"):
            solve(inst, "slo")

    def test_unknown_parameter_lists_valid(self, inst):
        with pytest.raises(SpecError, match="valid parameters: delta, inner, inner_mmax"):
            solve(inst, "sbo(gamma=1)")

    def test_bad_parameter_type(self, inst):
        with pytest.raises(SpecError, match="expects float"):
            solve(inst, "sbo(delta=lpt)")

    def test_bad_parameter_choice(self, inst):
        with pytest.raises(SpecError, match="must be one of"):
            solve(inst, "rls(order=zigzag)")

    def test_nonpositive_delta(self, inst):
        with pytest.raises(SpecError, match="must be > 0"):
            solve(inst, "sbo(delta=-1)")

    def test_negative_budget_is_a_spec_error(self, inst):
        # Usage error (SpecError) like every other bad parameter — not a
        # mid-run solver failure.
        with pytest.raises(SpecError, match="must be >= 0"):
            solve(inst, "constrained(budget=-5)")

    def test_missing_required_parameter(self, inst):
        with pytest.raises(SpecError, match="requires parameter 'budget'"):
            solve(inst, "constrained")

    @pytest.mark.parametrize("spec", [
        "constrained(budget=1, refine=none)",   # int param is not nullable
        "sbo(inner=none)",                       # str param with non-None default
        "rls(order=none)",
        "sbo(delta=none)",
    ])
    def test_none_rejected_for_non_nullable_params(self, inst, spec):
        with pytest.raises(SpecError, match="got none"):
            solve(inst, spec)

    def test_none_accepted_for_nullable_param(self, inst):
        # inner_mmax defaults to None, so an explicit none is valid.
        result = solve(inst, "sbo(delta=1.0, inner_mmax=none)")
        assert result.feasible

    def test_entry_guarantee_function(self):
        entry = get_entry("sbo")
        g = entry.guarantee(4, {"delta": 1.0, "inner": "exact"})
        assert g == pytest.approx((2.0, 2.0))
        rls_entry = get_entry("rls")
        assert rls_entry.guarantee(4, {"delta": 4.0})[1] == pytest.approx(4.0)

    def test_describe_solvers_records(self):
        records = {rec["name"]: rec for rec in describe_solvers()}
        assert records["constrained"]["supports_constraint"] is True
        assert "budget:float(required)" in records["constrained"]["params"]


# --------------------------------------------------------------------------- #
# solve(): the facade and SolveResult protocol
# --------------------------------------------------------------------------- #
class TestSolve:
    @pytest.mark.parametrize("spec", [
        "sbo(delta=1.0, inner=lpt)", "rls(delta=2)", "trio",
        "lpt", "spt", "list", "multifit", "ptas(epsilon=0.2)", "exact",
    ])
    def test_protocol_fields(self, inst, spec):
        result = solve(inst, spec)
        assert result.feasible and result.schedule is not None
        assert isinstance(result.objectives, ObjectiveValues)
        assert result.cmax == result.schedule.cmax
        assert result.mmax == result.schedule.mmax
        assert len(result.guarantee) in (2, 3)
        assert result.wall_time >= 0.0
        assert result.provenance["solver"] == SolverSpec.parse(spec).name
        assert result.provenance["spec"].startswith(result.provenance["solver"])
        assert "version" in result.provenance

    def test_keyword_overrides(self, inst):
        a = solve(inst, "sbo", delta=0.5, inner="lpt")
        b = solve(inst, "sbo(delta=0.5, inner=lpt)")
        assert a.schedule.assignment == b.schedule.assignment

    def test_numpy_scalar_params_produce_reparseable_provenance(self, inst):
        np = pytest.importorskip("numpy")
        result = solve(inst, "sbo", delta=np.float64(0.5))
        assert result.spec == "sbo(delta=0.5, inner=lpt)"
        replay = solve(inst, result.spec)  # provenance reproduces the call
        assert replay.schedule.assignment == result.schedule.assignment
        assert isinstance(result.provenance["params"]["delta"], float)
        # Integral numpy scalars normalize too (int param).
        budget = solve(inst, "constrained", budget=np.float64(50), refine=np.int64(5))
        assert isinstance(budget.provenance["params"]["refine"], int)

    def test_constrained_budget(self, inst):
        budget = sum(t.s for t in inst.tasks)
        result = solve(inst, "constrained", budget=budget)
        assert result.feasible
        assert result.mmax <= budget + 1e-9
        assert "strategy" in result.provenance

    def test_constrained_infeasible(self, inst):
        result = solve(inst, "constrained(budget=0.5)")
        assert not result.feasible
        assert result.schedule is None
        assert math.isinf(result.cmax)
        assert result.provenance["certified_infeasible"] is True

    def test_dag_capability_rejection(self, dag):
        for spec in ("sbo(delta=1)", "trio", "lpt"):
            with pytest.raises(SolverCapabilityError, match="DAG-capable"):
                solve(dag, spec)

    def test_dag_capable_solvers_run(self, dag):
        rls_result = solve(dag, "rls(delta=2.5, order=bottom-level)")
        assert rls_result.feasible
        con = solve(dag, "constrained", budget=10.0 * sum(t.s for t in dag.tasks))
        assert con.feasible

    def test_edge_free_dag_coerced(self, dag):
        independent = dag.as_independent().as_dag()
        assert independent.is_independent()
        result = solve(independent, "sbo(delta=1.0)")
        assert result.feasible

    def test_trio_guarantee_triple(self, inst):
        result = solve(inst, "trio(delta=4)")
        assert len(result.guarantee) == 3
        assert result.guarantee[2] == pytest.approx(2.5)


# --------------------------------------------------------------------------- #
# Facade vs direct calls: identical schedules
# --------------------------------------------------------------------------- #
class TestFacadeEquivalence:
    def test_sbo_identical(self, inst):
        direct = sbo(inst, delta=1.0, cmax_solver="lpt")
        facade = solve(inst, "sbo(delta=1.0, inner=lpt)")
        assert facade.schedule.assignment == direct.schedule.assignment
        assert facade.guarantee == (direct.cmax_guarantee, direct.mmax_guarantee)
        assert facade.raw.memory_driven_tasks == direct.memory_driven_tasks

    def test_rls_identical(self, dag):
        direct = rls(dag, delta=3.0, order="bottom-level")
        facade = solve(dag, "rls(delta=3.0, order=bottom-level)")
        assert facade.schedule.assignment == direct.schedule.assignment
        assert facade.raw.marked_processors == direct.marked_processors

    def test_trio_identical(self, inst):
        direct = tri_objective_schedule(inst, delta=3.0)
        facade = solve(inst, "trio(delta=3.0)")
        assert facade.schedule.assignment == direct.schedule.assignment
        assert facade.raw.sum_ci_optimal == direct.sum_ci_optimal

    def test_constrained_identical(self, inst):
        budget = 1.5 * max(t.s for t in inst.tasks) + 5
        direct = solve_constrained(inst, memory_capacity=budget)
        facade = solve(inst, "constrained", budget=budget)
        assert facade.feasible == direct.feasible
        if direct.feasible:
            assert facade.cmax == direct.cmax and facade.mmax == direct.mmax


# --------------------------------------------------------------------------- #
# solve_many: batch runner
# --------------------------------------------------------------------------- #
class TestSolveMany:
    def test_cross_product_order(self, inst):
        other = Instance.from_lists(p=[3, 2, 1], s=[1, 2, 3], m=2)
        results = solve_many([inst, other], ["lpt", "spt"])
        assert [r.solver for r in results] == ["lpt", "spt", "lpt", "spt"]
        assert results[0].schedule.instance.n == inst.n
        assert results[2].schedule.instance.n == other.n

    def test_single_instance_single_spec(self, inst):
        results = solve_many(inst, "sbo(delta=1.0)")
        assert len(results) == 1 and results[0].feasible

    def test_parallel_matches_serial(self, inst):
        other = Instance.from_lists(p=[5, 4, 3, 2, 1], s=[2, 2, 2, 2, 2], m=2)
        specs = ["sbo(delta=0.5)", "sbo(delta=2.0)", "rls(delta=2.5)", "trio(delta=3)"]
        serial = solve_many([inst, other], specs, workers=1)
        parallel = solve_many([inst, other], specs, workers=2)
        assert len(serial) == len(parallel) == 8
        assert [r.objectives for r in serial] == [r.objectives for r in parallel]
        assert [r.spec for r in serial] == [r.spec for r in parallel]

    def test_per_call_timing(self, inst):
        results = solve_many([inst], ["lpt", "sbo(delta=1.0)"])
        assert all(r.wall_time >= 0.0 for r in results)

    def test_invalid_spec_fails_before_dispatch(self, inst):
        with pytest.raises(SpecError):
            solve_many([inst], ["lpt", "sbo(delta=1"], workers=2)

    @pytest.mark.parametrize("bad", ["sbp(delta=1)", "sbo(delta=-1)", "sbo(gamma=2)"])
    def test_unknown_name_and_bad_params_fail_before_dispatch(self, inst, bad):
        # Full validation (name + params) happens before any pool is spawned.
        with pytest.raises(SpecError):
            solve_many([inst] * 4, bad, workers=4)

    def test_workers_validation(self, inst):
        with pytest.raises(ValueError, match="workers"):
            solve_many([inst], "lpt", workers=0)

    def test_empty(self):
        assert solve_many([], ["lpt"]) == []
