import csv
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgopt import bench
from ncgopt.bench import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultsTable,
    emit_table,
    main,
    make_oracle,
    run_experiment,
)

ROOT = Path(__file__).resolve().parents[1]

# A small experiment.
BASIC = [
    "--family", "quadratic",
    "--grid", "8,0,0",
    "--instances", "2",
    "--seed", "0",
    "--solver", "alg1,alg2",
    "--eps-g", "1e-4",
    "--format", "csv",
]
REPU_CELL = ((100, 20, 2.25),)


def test_empty_solver_list_is_config_error():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("repu", REPU_CELL, solvers=()))
    with pytest.raises(ConfigError, match="^grid must be nonempty$"):
        run_experiment(ExperimentConfig("repu", ()))


def test_unknown_family_and_solver():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("nope", REPU_CELL))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("repu", REPU_CELL, solvers=("gradient_descent",)))
    with pytest.raises(ConfigError, match="^unknown format 'xml'$"):
        run_experiment(ExperimentConfig("repu", REPU_CELL, fmt="xml"))


def test_non_integer_cell_or_seed_is_config_error():
    for family, cell, base_seed in (
        ("repu", (10.0, 3, 2.25), 0),
        ("infeasibility", (10, 3.0, 2.25), 0),
        ("infeasibility", (10, 3, 2.25), 1.5),
        ("quadratic", (8.0, 0, 0.0), 0),
        ("quadratic", (8, 0, 0.0), 1.5),
    ):
        with pytest.raises(ConfigError, match="invalid grid cell"):
            run_experiment(ExperimentConfig(family, (cell,), base_seed=base_seed))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"instances_per_cell": 0}, "^instances_per_cell must be a positive integer; got 0$"),
        ({"instances_per_cell": 2.5}, "^instances_per_cell must be a positive integer; got 2.5$"),
        ({"instances_per_cell": True}, "^instances_per_cell must be a positive integer; got True$"),
        # alg1's damping weight gamma_nu(eps_g, holder) overflows.
        ({"solvers": ("alg1",), "nu": 0.0, "h_nu": 1e200}, "^gamma_nu"),
    ],
    ids=["zero-instances", "float-instances", "bool-instances", "gamma_nu"],
)
def test_unusable_count_or_holder_is_config_error(fields, message):
    with pytest.raises(ConfigError, match=message):
        run_experiment(ExperimentConfig("repu", REPU_CELL, **fields))


def golden_table():
    return ResultsTable(
        rows=[
            ResultRow(100, 10, 2.25, "alg2", 7.1e-15, 0.01234, 10.3, 6.0, 0),
        ]
    )


def test_emit_csv_golden():
    text = emit_table(golden_table(), "csv")
    assert text == (
        "n,m,p,solver,mean_objective,mean_wall_s,mean_subproblems,mean_outer,failures\n"
        "100,10,2.25,alg2,7.1e-15,0.01,10.3,6.0,0\n"
    )


def test_emit_markdown_golden():
    text = emit_table(golden_table(), "markdown")
    assert text == (
        "| n   | m  | p    | solver | mean_objective | mean_wall_s | mean_subproblems | mean_outer | failures |\n"
        "|-----|----|------|--------|----------------|-------------|------------------|------------|----------|\n"
        "| 100 | 10 | 2.25 | alg2   | 7.100e-15      | 0.01        | 10.3             | 6.0        | 0        |\n"
    )


def failed_cell_table():
    nan = float("nan")
    return ResultsTable(
        rows=[
            ResultRow(100, 10, 2.25, "alg2", 7.1e-15, 0.01234, 10.3, 6.0, 0),
            ResultRow(100, 10, 2.5, "acrn", nan, nan, nan, nan, 10),
        ]
    )


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "csv",
            "n,m,p,solver,mean_objective,mean_wall_s,mean_subproblems,mean_outer,failures\n"
            "100,10,2.25,alg2,7.1e-15,0.01,10.3,6.0,0\n"
            "100,10,2.5,acrn,nan,nan,nan,nan,10\n",
        ),
        (
            "markdown",
            "| n   | m  | p    | solver | mean_objective | mean_wall_s | mean_subproblems | mean_outer | failures |\n"
            "|-----|----|------|--------|----------------|-------------|------------------|------------|----------|\n"
            "| 100 | 10 | 2.25 | alg2   | 7.100e-15      | 0.01        | 10.3             | 6.0        | 0        |\n"
            "| 100 | 10 | 2.5  | acrn   | nan            | nan         | nan              | nan        | 10       |\n",
        ),
    ],
)
def test_emit_golden_with_failed_cell(fmt, expected):
    # An all-failed cell has NaN means; its row must still render and align.
    assert emit_table(failed_cell_table(), fmt) == expected


def test_run_experiment_quadratic_replays_and_matches_across_solvers():
    cfg = ExperimentConfig("quadratic", ((10, 0, 0.0),), instances_per_cell=3, solvers=("alg1", "alg2"), eps_g=1e-4)
    table1 = run_experiment(cfg)
    table2 = run_experiment(cfg)
    for r1, r2 in zip(table1.rows, table2.rows):
        # Identical up to wall time.
        assert (r1.n, r1.m, r1.p, r1.solver) == (r2.n, r2.m, r2.p, r2.solver)
        assert r1.mean_objective == r2.mean_objective
        assert r1.mean_subproblems == r2.mean_subproblems
        assert r1.mean_outer == r2.mean_outer
        assert r1.failures == r2.failures == 0
    by_solver = {row.solver: row for row in table1.rows}
    # Both drivers provably land below eps_g^2 / (2 lambda_min) = 1e-10.
    assert abs(by_solver["alg1"].mean_objective - by_solver["alg2"].mean_objective) <= 1e-10


def test_counter_consistency_with_direct_runs():
    cfg = ExperimentConfig("infeasibility", ((20, 3, 2.25),), instances_per_cell=2, solvers=("alg2",), eps_g=1e-4)
    table = run_experiment(cfg)
    from ncgopt import PfParams, gen_infeasibility, pf_newton_cg_solve

    subs = []
    for idx in range(2):
        oracle = gen_infeasibility(20, 3, 2.25, seed=idx)
        res = pf_newton_cg_solve(oracle, np.zeros(20), PfParams(eps_g=1e-4, seed=idx))
        subs.append(res.counters.subproblems)
    assert table.rows[0].mean_subproblems == float(np.mean(subs))


def test_cli_success_and_output_file(tmp_path):
    out = tmp_path / "table.csv"
    code = main([*BASIC, "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {row["solver"] for row in rows} == {"alg1", "alg2"}


def test_cli_config_error_exit_code(capsys):
    # No family, the config-file flag that is gone, and a malformed cell.
    assert main([]) == 1
    assert main(["--config", "exp.cfg"]) == 1
    assert main(["--family", "quadratic", "--grid", "8,0"]) == 1
    # A cell with n < 1 is rejected for every family, the quadratic one too,
    # and the quadratic family, which ignores m and p, takes only m = p = 0.
    for family, cell in (
        ("quadratic", "0,0,0"),
        ("quadratic", "-3,0,0"),
        ("quadratic", "8,0,nan"),
        ("quadratic", "8,3,0"),
        ("repu", "0,20,2.25"),
        ("repu", "10,3,inf"),
    ):
        assert main(["--family", family, f"--grid={cell}"]) == 1
        assert "config error: invalid grid cell" in capsys.readouterr().err


def test_unwritable_out_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("run_experiment called with an unwritable --out")

    monkeypatch.setattr(bench, "run_experiment", never)
    out = tmp_path / "missing" / "out.csv"
    assert main([*BASIC, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")
    assert not out.parent.exists()


def test_cli_out_of_range_knob_is_config_error(capsys):
    flags = ["--family", "quadratic", "--solver", "alg1", "--eps-g", "1.5"]
    assert main(flags) == 1
    assert "config error: eps_g must lie in (0, 1)" in capsys.readouterr().err
    assert main(["--family", "quadratic", "--nu", "2"]) == 1
    assert "config error: nu must lie in [0, 1]" in capsys.readouterr().err


def always_fails(cfg, solver, seed):
    from ncgopt.newton_cg import Counters, SolveResult

    return lambda oracle, x0: SolveResult(
        x_final=np.asarray(x0, dtype=float),
        f_final=1.0,
        grad_norm_final=1.0,
        status="MaxIterations",
        status_detail=None,
        trace=[],
        counters=Counters(),
    )


def test_cli_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(bench, "_solver", always_fails)
    code = main([*BASIC, "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    # One line per failed run, naming its cell, solver, seed and status.
    assert "failed run: cell (8, 0, 0.0), alg2, seed 1: MaxIterations" in err
    assert len([line for line in err if line.startswith("failed run: ")]) == 4
    assert err[-1] == "4 run(s) failed"


def test_repeated_grid_cell_gets_its_own_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_solver", always_fails)
    made = []

    def counting_make_oracle(cfg, n, m, p, seed):
        made.append((n, m, p, seed))
        return make_oracle(cfg, n, m, p, seed)

    monkeypatch.setattr(bench, "make_oracle", counting_make_oracle)
    flags = [*BASIC, "--grid", "8,0,0; 8,0,0"]
    out = tmp_path / "table.csv"
    assert main([*flags, "--solver", "alg2", "--out", str(out)]) == 2
    rows = csv.DictReader(out.read_text().splitlines())
    assert [(int(row["n"]), int(row["failures"])) for row in rows] == [(8, 2), (8, 2)]
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("failed run: ")]) == 4
    assert err[-1] == "4 run(s) failed"
    # Each instance is generated once per (cell, seed), not once per solver.
    made.clear()
    assert main([*flags, "--out", str(out)]) == 2
    assert made == [(8, 0, 0.0, 0), (8, 0, 0.0, 1)] * 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("failed run: ")]) == 8
    assert err[-1] == "8 run(s) failed"


def test_raising_solver_is_a_named_failed_run(monkeypatch, capsys):
    def raises(oracle, x0):
        raise FloatingPointError("boom")

    monkeypatch.setattr(bench, "_solver", lambda cfg, solver, seed: raises)
    assert main([*BASIC, "--out", "-"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "failed run: cell (8, 0, 0.0), alg1, seed 0: error: FloatingPointError: boom" in err
    assert err[-1] == "4 run(s) failed"


def test_run_experiment_infeasibility_reference_row():
    # The full reference cell through the harness: near-zero objectives and
    # a subproblem count in the expected band.
    cfg = ExperimentConfig("infeasibility", ((100, 10, 2.25),), instances_per_cell=10, solvers=("alg2",), eps_g=1e-4)
    table = run_experiment(cfg)
    row = table.rows[0]
    assert row.failures == 0
    assert row.mean_objective <= 1e-10
    assert 4.0 <= row.mean_subproblems <= 31.0


def test_each_config_field_has_exactly_one_flag(capsys):
    dests = [action.dest for action in bench._parser()._actions if action.dest != "help"]
    assert sorted(dests) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    assert main(["--help"]) == 0
    assert "--config" not in capsys.readouterr().out


def test_module_runs_as_a_script():
    # The one path through ``__main__`` and ``cli()``; a numpy warning fails it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    flags = ["--family", "quadratic", "--grid", "8,0,0", "--instances", "1", "--solver", "alg1,alg2,acrn"]
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ncgopt.bench", *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == ",".join(bench.COLUMNS)
    assert [line.split(",")[3] for line in lines[1:]] == ["alg1", "alg2", "acrn"]


def test_readme_cli_examples_run(tmp_path):
    # Each example is a line of its own in a code block.
    examples = re.findall(r"^ncgopt-bench .*$", (ROOT / "README.md").read_text(encoding="utf-8"), re.MULTILINE)
    assert examples
    for line in examples:
        assert main([*shlex.split(line)[1:], "--instances", "1", "--out", str(tmp_path / "table")]) == 0, line
