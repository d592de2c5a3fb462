"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def instance_file(tmp_path: Path) -> Path:
    path = tmp_path / "inst.json"
    code = main(["generate", "--kind", "uniform", "--n", "20", "--m", "3", "--seed", "1",
                 "--output", str(path)])
    assert code == 0
    return path


@pytest.fixture
def dag_file(tmp_path: Path) -> Path:
    path = tmp_path / "dag.json"
    code = main(["generate", "--kind", "layered", "--m", "3", "--seed", "2", "--output", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve", "--input", "x.json"])
        assert args.solver == "sbo(delta=1.0)" and not args.gantt and args.cache is None

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_serving_defaults_come_from_the_configs(self, command):
        """With no flags, each serving command builds its config's defaults."""
        from dataclasses import fields

        from repro.cli import _cluster_config, _serve_config
        from repro.cluster import ClusterConfig
        from repro.service import ServiceConfig

        build, cls = {"serve": (_serve_config, ServiceConfig),
                      "cluster": (_cluster_config, ClusterConfig)}[command]
        built, default = build(build_parser().parse_args([command])), cls()
        for field in fields(cls):
            if command == "serve" and field.name == "cache":
                continue  # the CLI disables the process-default cache
            assert getattr(built, field.name) == getattr(default, field.name), field.name

    def test_schedule_subcommand_is_gone(self):
        # ``solve`` reaches every algorithm the old flags interface had.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--input", "x.json"])


class TestGenerate:
    def test_generate_independent(self, instance_file):
        data = json.loads(instance_file.read_text())
        assert data["kind"] == "independent"
        assert len(data["tasks"]) == 20
        assert data["m"] == 3

    def test_generate_dag(self, dag_file):
        data = json.loads(dag_file.read_text())
        assert data["kind"] == "dag"
        assert data["edges"]

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--kind", "bimodal", "--n", "5", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["m"] == 2

    def test_generate_unknown_kind(self, capsys):
        assert main(["generate", "--kind", "nonsense", "--m", "2"]) == 2
        assert "unknown instance kind" in capsys.readouterr().err


class TestSchedule:
    """The algorithms of the removed ``schedule`` subcommand, through ``solve``."""

    SPECS = {"sbo": "sbo(delta=1.0, inner=lpt)", "trio": "trio(delta=3.0)",
             "lpt": "lpt", "spt": "spt"}

    @pytest.mark.parametrize("algorithm", ["sbo", "trio", "lpt", "spt"])
    def test_independent_algorithms(self, instance_file, capsys, algorithm):
        code = main(["solve", "--input", str(instance_file), "--solver", self.SPECS[algorithm]])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cmax =" in out and "Mmax =" in out and "simulation check: OK" in out

    def test_rls_on_dag(self, dag_file, capsys):
        code = main(["solve", "--input", str(dag_file),
                     "--solver", "rls(delta=3.0, order=bottom-level)", "--gantt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "guarantee = (" in out
        assert "P0 |" in out  # gantt printed

    def test_constrained_feasible(self, instance_file, capsys):
        data = json.loads(instance_file.read_text())
        total_s = sum(rec["s"] for rec in data["tasks"])  # a generous budget
        code = main(["solve", "--input", str(instance_file),
                     "--solver", f"constrained(budget={total_s})"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spec: constrained(" in out and "simulation check: OK" in out

    def test_constrained_requires_capacity(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file), "--solver", "constrained"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_constrained_infeasible(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file),
                     "--solver", "constrained(budget=0.001)"])
        assert code == 1
        assert "infeasible: certified infeasible" in capsys.readouterr().out


class TestSolve:
    def test_solve_spec(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file),
                     "--solver", "sbo(delta=1.0, inner=lpt)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spec: sbo(delta=1.0, inner=lpt)" in out
        assert "Cmax =" in out and "guarantee = (" in out
        assert "simulation check: OK" in out

    def test_solve_dag_with_gantt(self, dag_file, capsys):
        code = main(["solve", "--input", str(dag_file),
                     "--solver", "rls(delta=2.5, order=bottom-level)", "--gantt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P0 |" in out

    def test_solve_constrained_infeasible(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file),
                     "--solver", "constrained(budget=0.001)"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_solve_unknown_solver(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file), "--solver", "quantum"])
        assert code == 2
        assert "available solvers" in capsys.readouterr().err

    def test_solve_capability_error(self, dag_file, capsys):
        code = main(["solve", "--input", str(dag_file), "--solver", "sbo(delta=1.0)"])
        assert code == 2
        assert "DAG-capable" in capsys.readouterr().err

    def test_solve_requires_input(self, capsys):
        code = main(["solve", "--solver", "lpt"])
        assert code == 2
        assert "--input" in capsys.readouterr().err

    def test_solve_solver_level_failure_is_clean(self, tmp_path, capsys):
        # 30 tasks exceeds the exact solver's default cap: a clean message
        # and exit 1 (solver failure), not a traceback or usage error.
        big = tmp_path / "big.json"
        assert main(["generate", "--kind", "uniform", "--n", "30", "--m", "3",
                     "--seed", "3", "--output", str(big)]) == 0
        capsys.readouterr()
        code = main(["solve", "--input", str(big), "--solver", "exact"])
        assert code == 1
        assert "solver failed" in capsys.readouterr().err

    def test_solve_infeasible_delta_is_clean(self, instance_file, capsys):
        code = main(["solve", "--input", str(instance_file), "--solver", "rls(delta=0.1)"])
        assert code == 1
        assert "solver failed" in capsys.readouterr().err

    def test_solve_list(self, capsys):
        assert main(["solve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("sbo", "rls", "trio", "constrained"):
            assert name in out
        assert "bi-objective" in out


class TestExperimentsAndReport:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "--id", "FIG-1"]) == 0
        out = capsys.readouterr().out
        assert "FIG-1" in out and "PASS" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "--id", "FIG-99"]) == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Patch the report generator to the fast figure-only subset so the
        # CLI path is exercised without rerunning every sweep.
        import repro.experiments.report as report_mod
        from repro.experiments.figure1 import run_figure1

        monkeypatch.setattr(
            report_mod, "run_all_experiments", lambda quick=True: [run_figure1()]
        )
        out_path = tmp_path / "report.md"
        assert main(["report", "--output", str(out_path)]) == 0
        assert "FIG-1" in out_path.read_text()


class TestOnline:
    def test_online_list(self, capsys):
        assert main(["online", "--list"]) == 0
        out = capsys.readouterr().out
        assert "online_sbo" in out and "online_greedy" in out

    def test_online_stochastic_run_with_saved_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main([
            "online", "--arrival", "stochastic", "--n", "20", "--m", "3",
            "--seed", "1", "--scheduler", "online_sbo(delta=1.0)",
            "--save-trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "competitive ratios" in out and "online_sbo(delta=1.0)" in out
        assert trace_path.exists()
        # Re-run from the saved trace with explicit prefixes.
        assert main([
            "online", "--trace", str(trace_path),
            "--scheduler", "online_greedy", "--prefixes", "5,10,20",
        ]) == 0
        out = capsys.readouterr().out
        assert "prefix k" in out

    def test_online_adversarial_run(self, capsys):
        assert main([
            "online", "--arrival", "adversarial", "--mode", "memory_first",
            "--n", "15", "--m", "2", "--scheduler", "online_greedy(objective=memory)",
        ]) == 0
        assert "adversarial" in capsys.readouterr().out

    def test_online_replay_requires_input(self, capsys):
        assert main(["online", "--arrival", "replay"]) == 2
        assert "--input" in capsys.readouterr().err

    def test_online_bad_scheduler_spec(self, capsys):
        assert main(["online", "--n", "5", "--scheduler", "online_nope"]) == 2
        assert "online" in capsys.readouterr().err

    def test_online_bad_prefixes(self, capsys):
        assert main(["online", "--n", "5", "--prefixes", "a,b"]) == 2
        assert "--prefixes" in capsys.readouterr().err
