"""Experiment harness: seeded instance grids, solver runs, aggregated tables.

Config files are plain ``key = value`` text (``#`` starts a comment) with a
required ``config_version = 1`` line.  Recognized keys::

    config_version     1
    family             infeasibility | repu | quadratic
    grid               semicolon-separated cells "n,m,p"
    instances_per_cell positive integer (default 10)
    base_seed          integer (default 0)
    solvers            comma list from {alg1, alg2, acrn}
    eps_g, eps_h       tolerances (eps_h optional)
    out                output path ("-" = stdout)
    format             csv | markdown
    jobs               parallel worker count (default 1)
    zeta, theta, eta, delta, gamma_init, r     shared solver knobs
    h_nu, nu           smoothness data handed to alg1 (heuristic on the
                       benchmark families, exact on quadratic)
    h0                 baseline initial weight
    quad_lambda_min, quad_lambda_max           quadratic-family spectrum

Command-line flags override file values.  Start points follow the benchmark
protocol: the origin for infeasibility, (1/n, ..., 1/n) for repu, and a
scaled all-ones vector for the quadratic family.  Instance seeds are
base_seed + instance index; runs are bit-reproducible except wall time.

Exit codes: 0 success, 1 config error, 2 run failures present.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .baseline_crn import CrnParams, acrn_solve
from .newton_cg import FOSP, SOSP_CERTIFIED, NcgParams, newton_cg_solve
from .oracle import HolderClass, ProblemOracle
from .pf_newton_cg import PfParams, pf_newton_cg_solve
from .problems import gen_infeasibility, gen_quadratic, gen_repu

FAMILIES = ("infeasibility", "repu", "quadratic")
SOLVERS = ("alg1", "alg2", "acrn")

CSV_HEADER = "n,m,p,solver,mean_objective,mean_wall_s,mean_subproblems,mean_outer,failures"

_DEFAULT_GRIDS = {
    "infeasibility": [(100, 10, 2.25)],
    "repu": [(100, 20, 2.25)],
    "quadratic": [(50, 0, 0.0)],
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    grid: tuple[tuple[int, int, float], ...]
    instances_per_cell: int = 10
    base_seed: int = 0
    solvers: tuple[str, ...] = ("alg2",)
    eps_g: float = 1e-4
    eps_h: float | None = None
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    zeta: float = 0.5
    theta: float = 0.5
    eta: float = 0.01
    delta: float = 0.01
    gamma_init: float = 10.0
    r: float = 2.0
    h_nu: float = 1.0
    nu: float = 1.0
    h0: float = 10.0
    quad_lambda_min: float = 50.0
    quad_lambda_max: float = 100.0

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if not self.grid:
            raise ConfigError("grid must be nonempty")
        if not self.solvers:
            raise ConfigError("solver list must be nonempty")
        for solver in self.solvers:
            if solver not in SOLVERS:
                raise ConfigError(f"unknown solver {solver!r}")
        if self.instances_per_cell < 1:
            raise ConfigError("instances_per_cell must be at least 1")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.family != "quadratic":
            for n, m, p in self.grid:
                if n < 1 or m < 1 or not p > 2.0:
                    raise ConfigError(f"invalid grid cell ({n}, {m}, {p})")
        # The solver knobs' ranges live in the params classes.
        try:
            _pf_params(self, seed=0)
            HolderClass(nu=self.nu, h_nu=self.h_nu)
            CrnParams(h0=self.h0)
        except ValueError as err:
            raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class ResultRow:
    n: int
    m: int
    p: float
    solver: str
    mean_objective: float
    mean_wall_s: float
    mean_subproblems: float
    mean_outer: float
    failures: int


@dataclass
class ResultsTable:
    rows: list[ResultRow] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(row.failures for row in self.rows)


# ---------------------------------------------------------------------------
# Config parsing.

_INT_KEYS = {"config_version", "instances_per_cell", "base_seed", "jobs"}
_FLOAT_KEYS = {
    "eps_g",
    "eps_h",
    "zeta",
    "theta",
    "eta",
    "delta",
    "gamma_init",
    "r",
    "h_nu",
    "nu",
    "h0",
    "quad_lambda_min",
    "quad_lambda_max",
}
_STR_KEYS = {"family", "out", "format"}
_LIST_KEYS = {"grid", "solvers"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS


def parse_config_file(path: str) -> dict:
    """Parse a key = value config file into typed values."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _ALL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key in _INT_KEYS:
                    values[key] = int(value)
                elif key in _FLOAT_KEYS:
                    values[key] = float(value)
                elif key == "grid":
                    values[key] = _parse_grid(value)
                elif key == "solvers":
                    values[key] = tuple(s.strip() for s in value.split(",") if s.strip())
                else:
                    values[key] = value
            except ConfigError:
                raise
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from err
    if values.get("config_version") != 1:
        raise ConfigError(f"{path}: missing or unsupported config_version")
    values.pop("config_version")
    return values


def _parse_grid(text: str) -> tuple[tuple[int, int, float], ...]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"grid cell {chunk!r} must be 'n,m,p'")
        cells.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not cells:
        raise ConfigError("grid is empty")
    return tuple(cells)


def build_config(file_values: dict | None = None, **overrides) -> ExperimentConfig:
    """Merge file values with overrides and validate."""
    merged: dict = dict(file_values or {})
    if "format" in merged:
        merged["fmt"] = merged.pop("format")
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    family = merged.get("family")
    if family is None:
        raise ConfigError("a family is required (config file or --family)")
    merged.setdefault("grid", tuple(_DEFAULT_GRIDS.get(family, ())))
    merged["grid"] = tuple(tuple(cell) for cell in merged["grid"])
    if "solvers" in merged:
        merged["solvers"] = tuple(merged["solvers"])
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Running.


def make_oracle(cfg: ExperimentConfig, n: int, m: int, p: float, seed: int) -> ProblemOracle:
    if cfg.family == "infeasibility":
        return gen_infeasibility(n, m, p, seed)
    if cfg.family == "repu":
        return gen_repu(n, m, p, seed)
    eigenvalues = np.linspace(cfg.quad_lambda_min, cfg.quad_lambda_max, n)
    return gen_quadratic(n, eigenvalues, seed)


def start_point(family: str, n: int) -> np.ndarray:
    if family == "infeasibility":
        return np.zeros(n)
    if family == "repu":
        return np.full(n, 1.0 / n)
    return np.full(n, 10.0 / np.sqrt(n))


def _pf_params(cfg: ExperimentConfig, seed: int) -> PfParams:
    return PfParams(
        eps_g=cfg.eps_g,
        eps_H=cfg.eps_h,
        zeta=cfg.zeta,
        theta=cfg.theta,
        eta=cfg.eta,
        delta=cfg.delta,
        gamma_init=cfg.gamma_init,
        r=cfg.r,
        seed=seed,
    )


def _solve(cfg: ExperimentConfig, solver: str, oracle: ProblemOracle, x0, seed: int):
    if solver == "alg1":
        params = NcgParams(
            eps_g=cfg.eps_g,
            holder=HolderClass(nu=cfg.nu, h_nu=cfg.h_nu),
            eps_H=cfg.eps_h,
            zeta=cfg.zeta,
            theta=cfg.theta,
            eta=cfg.eta,
            delta=cfg.delta,
            seed=seed,
        )
        return newton_cg_solve(oracle, x0, params)
    if solver == "alg2":
        return pf_newton_cg_solve(oracle, x0, _pf_params(cfg, seed))
    return acrn_solve(oracle, x0, cfg.eps_g, CrnParams(h0=cfg.h0, seed=seed))


def _run_one(task: tuple) -> dict:
    """Run one (cell, instance, solver) job; picklable for process pools."""
    cfg_dict, n, m, p, seed, solver = task
    cfg = ExperimentConfig(**cfg_dict)
    oracle = make_oracle(cfg, n, m, p, seed)
    x0 = start_point(cfg.family, n)
    began = time.perf_counter()
    try:
        result = _solve(cfg, solver, oracle, x0, seed)
        wall = time.perf_counter() - began
        success = result.status in (FOSP, SOSP_CERTIFIED)
        return {
            "n": n,
            "m": m,
            "p": p,
            "solver": solver,
            "seed": seed,
            "ok": success,
            "objective": result.f_final,
            "subproblems": result.counters.subproblems,
            "outer": len(result.trace),
            "wall": wall,
            "status": result.status,
        }
    except Exception as err:  # solver blew up: flag, do not kill the grid
        return {
            "n": n,
            "m": m,
            "p": p,
            "solver": solver,
            "seed": seed,
            "ok": False,
            "objective": float("nan"),
            "subproblems": 0,
            "outer": 0,
            "wall": time.perf_counter() - began,
            "status": f"error: {err}",
        }


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    """Run the full grid and aggregate per-cell, per-solver means."""
    cfg.validate()
    cfg_dict = {
        key: getattr(cfg, key)
        for key in ExperimentConfig.__dataclass_fields__
        if key not in ("out", "jobs")
    }
    cfg_dict["out"] = None
    cfg_dict["jobs"] = 1
    tasks = [
        (cfg_dict, n, m, p, cfg.base_seed + idx, solver)
        for (n, m, p) in cfg.grid
        for idx in range(cfg.instances_per_cell)
        for solver in cfg.solvers
    ]
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(task) for task in tasks]

    table = ResultsTable()
    for n, m, p in cfg.grid:
        for solver in cfg.solvers:
            runs = [
                o
                for o in outcomes
                if (o["n"], o["m"], o["p"], o["solver"]) == (n, m, p, solver)
            ]
            good = [o for o in runs if o["ok"]]
            failures = len(runs) - len(good)
            if good:
                row = ResultRow(
                    n=n,
                    m=m,
                    p=p,
                    solver=solver,
                    mean_objective=float(np.mean([o["objective"] for o in good])),
                    mean_wall_s=float(np.mean([o["wall"] for o in good])),
                    mean_subproblems=float(np.mean([o["subproblems"] for o in good])),
                    mean_outer=float(np.mean([o["outer"] for o in good])),
                    failures=failures,
                )
            else:
                row = ResultRow(n, m, p, solver, float("nan"), float("nan"), float("nan"), float("nan"), failures)
            table.rows.append(row)
    return table


# ---------------------------------------------------------------------------
# Emission.


def emit_table(table: ResultsTable, fmt: str = "csv") -> str:
    """Render a results table; wall time is reported to 0.01 s."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in table.rows:
            lines.append(
                ",".join(
                    [
                        str(row.n),
                        str(row.m),
                        repr(float(row.p)),
                        row.solver,
                        repr(float(row.mean_objective)),
                        format(row.mean_wall_s, ".2f"),
                        repr(float(row.mean_subproblems)),
                        repr(float(row.mean_outer)),
                        str(row.failures),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        header = CSV_HEADER.split(",")
        body = [
            [
                str(row.n),
                str(row.m),
                f"{row.p:g}",
                row.solver,
                f"{row.mean_objective:.3e}",
                f"{row.mean_wall_s:.2f}",
                f"{row.mean_subproblems:.1f}",
                f"{row.mean_outer:.1f}",
                str(row.failures),
            ]
            for row in table.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        def fmt_row(cells):
            return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
        lines = [fmt_row(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines.extend(fmt_row(r) for r in body)
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def parse_table_csv(text: str) -> ResultsTable:
    """Read back a CSV emitted by :func:`emit_table`."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not an ncgopt results CSV")
    table = ResultsTable()
    for line in lines[1:]:
        parts = line.split(",")
        table.rows.append(
            ResultRow(
                n=int(parts[0]),
                m=int(parts[1]),
                p=float(parts[2]),
                solver=parts[3],
                mean_objective=float(parts[4]),
                mean_wall_s=float(parts[5]),
                mean_subproblems=float(parts[6]),
                mean_outer=float(parts[7]),
                failures=int(parts[8]),
            )
        )
    return table


# ---------------------------------------------------------------------------
# CLI.


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncgopt-bench",
        description="Run seeded solver experiments and emit paper-style tables.",
    )
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--family", choices=FAMILIES)
    parser.add_argument("--solver", help="comma list from {alg1, alg2, acrn}")
    parser.add_argument("--eps-g", type=float, dest="eps_g")
    parser.add_argument("--eps-h", type=float, dest="eps_h")
    parser.add_argument("--seed", type=int, dest="base_seed")
    parser.add_argument("--out", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "markdown"), dest="fmt")
    parser.add_argument("--jobs", type=int)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; exit code 2 is reserved for run
        # failures, so remap bad flags to the config-error code.
        return 0 if err.code == 0 else 1

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        solvers = None
        if args.solver is not None:
            solvers = tuple(s.strip() for s in args.solver.split(",") if s.strip())
        cfg = build_config(
            file_values,
            family=args.family,
            solvers=solvers,
            eps_g=args.eps_g,
            eps_h=args.eps_h,
            base_seed=args.base_seed,
            out=args.out,
            fmt=args.fmt,
            jobs=args.jobs,
        )
    except (ConfigError, OSError, TypeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    table = run_experiment(cfg)
    rendered = emit_table(table, cfg.fmt)
    if cfg.out in (None, "-"):
        sys.stdout.write(rendered)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as err:
            print(f"cannot write {cfg.out}: {err}", file=sys.stderr)
            return 1
    if table.total_failures:
        print(f"{table.total_failures} run(s) failed", file=sys.stderr)
        return 2
    return 0


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
