import numpy as np
import pytest

from ncgopt import bench
from ncgopt.bench import (
    ConfigError,
    ResultRow,
    ResultsTable,
    build_config,
    emit_table,
    main,
    make_oracle,
    parse_config_file,
    parse_table_csv,
    run_experiment,
)


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


BASIC = """
# A small experiment.
config_version = 1
family = quadratic
grid = 8,0,0
instances_per_cell = 2
base_seed = 0
solvers = alg1,alg2
eps_g = 1e-4
format = csv
"""


def test_parse_config_file(tmp_path):
    values = parse_config_file(write_config(tmp_path, BASIC))
    assert values["family"] == "quadratic"
    assert values["grid"] == ((8, 0, 0.0),)
    assert values["solvers"] == ("alg1", "alg2")
    assert values["eps_g"] == 1e-4


def test_parse_config_rejects_unknown_key(tmp_path):
    # jobs and zeta are keys no longer: the runs are serial and each solver
    # runs at its params defaults.
    for line in ("bogus = 3", "jobs = 2", "zeta = 0.5"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(write_config(tmp_path, f"config_version = 1\n{line}\n"))


def test_parse_config_requires_version(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(write_config(tmp_path, "family = repu\n"))


def test_empty_solver_list_is_config_error():
    with pytest.raises(ConfigError):
        build_config({"family": "repu", "solvers": ()})


def test_unknown_family_and_solver():
    with pytest.raises(ConfigError):
        build_config({"family": "nope"})
    with pytest.raises(ConfigError):
        build_config({"family": "repu", "solvers": ("gradient_descent",)})


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


def test_csv_round_trip():
    text = emit_table(golden_table(), "csv")
    parsed = parse_table_csv(text)
    assert emit_table(parsed, "csv") == text


@pytest.mark.parametrize(
    "row",
    ["100,10,2.25,alg2,7.1e-15,0.01,10.3,6.0", "100,10,2.25,alg2,7.1e-15,0.01,10.3,6.0,0,7"],
)
def test_parse_table_csv_rejects_wrong_cell_count(row):
    text = emit_table(golden_table(), "csv") + row + "\n"
    with pytest.raises(ValueError, match="cells; the header has 9"):
        parse_table_csv(text)


def test_run_experiment_quadratic_replays_and_matches_across_solvers():
    cfg = build_config(
        {
            "family": "quadratic",
            "grid": ((10, 0, 0.0),),
            "instances_per_cell": 3,
            "solvers": ("alg1", "alg2"),
            "eps_g": 1e-4,
        }
    )
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
    cfg = build_config(
        {
            "family": "infeasibility",
            "grid": ((20, 3, 2.25),),
            "instances_per_cell": 2,
            "solvers": ("alg2",),
            "eps_g": 1e-4,
        }
    )
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
    code = main(
        [
            "--config",
            write_config(tmp_path, BASIC),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    parsed = parse_table_csv(out.read_text())
    assert {row.solver for row in parsed.rows} == {"alg1", "alg2"}


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["--config", write_config(tmp_path, "config_version = 1\n")]) == 1
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    # A cell with n < 1 is rejected for every family, the quadratic one too.
    for family, cell in (("quadratic", "0,0,0"), ("quadratic", "-3,0,0"), ("repu", "0,20,2.25"), ("repu", "10,3,inf")):
        config = write_config(tmp_path, f"config_version = 1\nfamily = {family}\ngrid = {cell}\n")
        assert main(["--config", config]) == 1
        assert "config error: invalid grid cell" in capsys.readouterr().err


def test_cli_out_of_range_knob_is_config_error(tmp_path, capsys):
    flags = ["--family", "quadratic", "--solver", "alg1", "--eps-g", "1.5"]
    assert main(flags) == 1
    assert "config error: eps_g must lie in (0, 1)" in capsys.readouterr().err
    config = write_config(tmp_path, "config_version = 1\nfamily = quadratic\nnu = 2\n")
    assert main(["--config", config]) == 1
    assert "config error: nu must lie in [0, 1]" in capsys.readouterr().err


def always_fails(cfg, solver, oracle, x0, seed):
    from ncgopt.newton_cg import Counters, SolveResult

    return SolveResult(
        x_final=np.asarray(x0, dtype=float),
        f_final=1.0,
        grad_norm_final=1.0,
        status="MaxIterations",
        status_detail=None,
        trace=[],
        counters=Counters(),
    )


def test_cli_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_solve", always_fails)
    code = main(["--config", write_config(tmp_path, BASIC), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    # One line per failed run, naming its cell, solver, seed and status.
    assert "failed run: cell (8, 0, 0.0), alg2, seed 1: MaxIterations" in err
    assert len([line for line in err if line.startswith("failed run: ")]) == 4
    assert err[-1] == "4 run(s) failed"


def test_repeated_grid_cell_gets_its_own_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_solve", always_fails)
    made = []

    def counting_make_oracle(cfg, n, m, p, seed):
        made.append((n, m, p, seed))
        return make_oracle(cfg, n, m, p, seed)

    monkeypatch.setattr(bench, "make_oracle", counting_make_oracle)
    config = write_config(tmp_path, BASIC.replace("grid = 8,0,0", "grid = 8,0,0; 8,0,0"))
    out = tmp_path / "table.csv"
    assert main(["--config", config, "--solver", "alg2", "--out", str(out)]) == 2
    rows = parse_table_csv(out.read_text()).rows
    assert [(row.n, row.failures) for row in rows] == [(8, 2), (8, 2)]
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("failed run: ")]) == 4
    assert err[-1] == "4 run(s) failed"
    # Each instance is generated once per (cell, seed), not once per solver.
    made.clear()
    assert main(["--config", config, "--out", str(out)]) == 2
    assert made == [(8, 0, 0.0, 0), (8, 0, 0.0, 1)] * 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("failed run: ")]) == 8
    assert err[-1] == "8 run(s) failed"


def test_raising_solver_is_a_named_failed_run(tmp_path, monkeypatch, capsys):
    def raises(cfg, solver, oracle, x0, seed):
        raise FloatingPointError("boom")

    monkeypatch.setattr(bench, "_solve", raises)
    assert main(["--config", write_config(tmp_path, BASIC), "--out", "-"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "failed run: cell (8, 0, 0.0), alg1, seed 0: error: FloatingPointError: boom" in err
    assert err[-1] == "4 run(s) failed"


def test_unbounded_quadratic_is_config_error(tmp_path, capsys):
    # f = x'Qx/2 with a negative eigenvalue is unbounded below.
    for line in ("quad_lambda_min = -1", "quad_lambda_max = inf", "quad_lambda_min = nan"):
        config = write_config(tmp_path, f"config_version = 1\nfamily = quadratic\n{line}\n")
        assert main(["--config", config, "--solver", "alg2"]) == 1
        name = line.split(" = ")[0]
        assert f"config error: {name} must be finite and nonnegative" in capsys.readouterr().err


def test_run_experiment_infeasibility_reference_row():
    # The full reference cell through the harness: near-zero objectives and
    # a subproblem count in the expected band.
    cfg = build_config(
        {
            "family": "infeasibility",
            "grid": ((100, 10, 2.25),),
            "instances_per_cell": 10,
            "solvers": ("alg2",),
            "eps_g": 1e-4,
        }
    )
    table = run_experiment(cfg)
    row = table.rows[0]
    assert row.failures == 0
    assert row.mean_objective <= 1e-10
    assert 4.0 <= row.mean_subproblems <= 31.0
