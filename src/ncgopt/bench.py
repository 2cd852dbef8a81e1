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
    h_nu, nu           smoothness data handed to alg1 (heuristic on the
                       benchmark families, exact on quadratic)
    quad_lambda_min, quad_lambda_max           quadratic-family spectrum (finite, >= 0)

Command-line flags override file values.  Every other solver setting is
fixed: the paper's working setting, kept as module constants, and each
params class's default ``max_outer``.  Start points follow the benchmark
protocol: the origin for infeasibility, (1/n, ..., 1/n) for repu, and a
scaled all-ones vector for the quadratic family.  Instance seeds are
base_seed + instance index; each instance is generated once and run by
every solver, serially.  Runs are bit-reproducible except wall time.

Exit codes: 0 success, 1 config error, 2 run failures present.  Each failed
run is named on stderr with its cell, solver, seed and status.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .baseline_crn import CrnParams, acrn_solve
from .newton_cg import FOSP, SOSP_CERTIFIED, NcgParams, newton_cg_solve
from .oracle import HolderClass, ProblemOracle
from .pf_newton_cg import PfParams, pf_newton_cg_solve
from .problems import _require_cell, gen_infeasibility, gen_quadratic, gen_repu

FAMILIES = ("infeasibility", "repu", "quadratic")
SOLVERS = ("alg1", "alg2", "acrn")
FORMATS = ("csv", "markdown")

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
    h_nu: float = 1.0
    nu: float = 1.0
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
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}")
        for n, m, p in self.grid:
            try:
                if self.family != "quadratic":
                    _require_cell(n, m, p)
                elif n < 1:
                    raise ValueError("n must be positive")
            except ValueError as err:
                raise ConfigError(f"invalid grid cell ({n}, {m}, {p}): {err}") from err
        if self.family == "quadratic":
            # A negative eigenvalue makes f = x'Qx/2 unbounded below.
            for name in ("quad_lambda_min", "quad_lambda_max"):
                if not 0.0 <= getattr(self, name) < float("inf"):
                    raise ConfigError(f"{name} must be finite and nonnegative")
        # The tolerances' and the holder's ranges live in the params classes.
        try:
            for solver in SOLVERS:
                _params(self, solver, seed=0)
        except ValueError as err:
            raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class ResultRow:
    """The cell, the solver, one mean per run-record value over the good runs
    (see :func:`_run_one`), and the failure count; in the table's column order."""

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
    # One line per failed run: its cell, solver, seed and status.
    failed_runs: list[str] = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(row.failures for row in self.rows)


COLUMNS = tuple(column.name for column in fields(ResultRow))
CSV_HEADER = ",".join(COLUMNS)
# Every column but the cell's three, the solver and the failure count.
_MEAN_COUNT = len(COLUMNS) - 5
_CELL_TYPES = tuple(get_type_hints(ResultRow)[name] for name in COLUMNS)


def _float_repr(value) -> str:
    return repr(float(value))


# Each column's (CSV, markdown) text; the CSV round-trips all but wall time.
_CELL_TEXT = {
    "n": (str, str),
    "m": (str, str),
    "p": (_float_repr, "{:g}".format),
    "solver": (str, str),
    "mean_objective": (_float_repr, "{:.3e}".format),
    "mean_wall_s": ("{:.2f}".format, "{:.2f}".format),
    "mean_subproblems": (_float_repr, "{:.1f}".format),
    "mean_outer": (_float_repr, "{:.1f}".format),
    "failures": (str, str),
}


# ---------------------------------------------------------------------------
# Config parsing.


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


def _parse_solvers(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# Each config-file key and the parser of its value.
_KEY_PARSERS = {
    "grid": _parse_grid,
    "solvers": _parse_solvers,
    **dict.fromkeys(("config_version", "instances_per_cell", "base_seed"), int),
    **dict.fromkeys(("family", "out", "format"), str),
    **dict.fromkeys(("eps_g", "eps_h", "h_nu", "nu", "quad_lambda_min", "quad_lambda_max"), float),
}


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
            if key not in _KEY_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _KEY_PARSERS[key](value)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from err
    if values.get("config_version") != 1:
        raise ConfigError(f"{path}: missing or unsupported config_version")
    values.pop("config_version")
    return values


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


def _params(cfg: ExperimentConfig, solver: str, seed: int):
    """One solver's params: its class's defaults but for cfg's tolerances, holder and the seed."""
    if solver == "acrn":
        return CrnParams(seed=seed)
    if solver == "alg1":
        holder = HolderClass(nu=cfg.nu, h_nu=cfg.h_nu)
        return NcgParams(eps_g=cfg.eps_g, eps_H=cfg.eps_h, holder=holder, seed=seed)
    return PfParams(eps_g=cfg.eps_g, eps_H=cfg.eps_h, seed=seed)


def _solve(cfg: ExperimentConfig, solver: str, oracle: ProblemOracle, x0, seed: int):
    params = _params(cfg, solver, seed)
    if solver == "alg1":
        return newton_cg_solve(oracle, x0, params)
    if solver == "alg2":
        return pf_newton_cg_solve(oracle, x0, params)
    return acrn_solve(oracle, x0, cfg.eps_g, params)


def _run_one(cfg: ExperimentConfig, solver: str, oracle: ProblemOracle, x0, seed: int):
    """Run one solver on one instance.

    Returns (the values ResultRow averages, in its order, or None; status)."""
    began = time.perf_counter()
    try:
        result = _solve(cfg, solver, oracle, x0, seed)
    except Exception as err:  # solver blew up: flag, do not kill the grid
        return None, f"error: {type(err).__name__}: {err}"
    wall = time.perf_counter() - began
    detail = "" if result.status_detail is None else f" ({result.status_detail})"
    status = result.status + detail
    if result.status not in (FOSP, SOSP_CERTIFIED):
        return None, status
    return (result.f_final, wall, result.counters.subproblems, len(result.trace)), status


def run_experiment(cfg: ExperimentConfig) -> ResultsTable:
    """Run the grid serially, one row per grid entry and solver."""
    cfg.validate()
    table = ResultsTable()
    for n, m, p in cfg.grid:
        # The good runs' values, one list per solver entry.
        good: list[list[tuple]] = [[] for _ in cfg.solvers]
        for seed in range(cfg.base_seed, cfg.base_seed + cfg.instances_per_cell):
            oracle = make_oracle(cfg, n, m, p, seed)
            x0 = start_point(cfg.family, n)
            for solver, runs in zip(cfg.solvers, good):
                values, status = _run_one(cfg, solver, oracle, x0, seed)
                if values is None:
                    table.failed_runs.append(f"cell ({n}, {m}, {p}), {solver}, seed {seed}: {status}")
                else:
                    runs.append(values)
        for solver, runs in zip(cfg.solvers, good):
            if runs:
                # Each mean sums its values in seed order.
                means = [float(np.mean(column)) for column in zip(*runs)]
            else:
                means = [float("nan")] * _MEAN_COUNT
            table.rows.append(ResultRow(n, m, p, solver, *means, cfg.instances_per_cell - len(runs)))
    return table


# ---------------------------------------------------------------------------
# Emission.


def emit_table(table: ResultsTable, fmt: str = "csv") -> str:
    """Render a results table; wall time is reported to 0.01 s."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    which = FORMATS.index(fmt)
    body = [[_CELL_TEXT[name][which](getattr(row, name)) for name in COLUMNS] for row in table.rows]
    if fmt == "csv":
        return "".join(",".join(cells) + "\n" for cells in [COLUMNS, *body])
    widths = [max(len(text) for text in column) for column in zip(COLUMNS, *body)]
    lines = [
        "| " + " | ".join(text.ljust(w) for text, w in zip(cells, widths)) + " |"
        for cells in [COLUMNS, *body]
    ]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> ResultsTable:
    """Read back a CSV emitted by :func:`emit_table`."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not an ncgopt results CSV")
    table = ResultsTable()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"row {line!r} has {len(cells)} cells; the header has {len(COLUMNS)}")
        table.rows.append(ResultRow(*(kind(cell) for kind, cell in zip(_CELL_TYPES, cells))))
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
    parser.add_argument("--format", choices=FORMATS, dest="fmt")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; exit code 2 is reserved for run
        # failures, so remap bad flags to the config-error code.
        return 0 if err.code == 0 else 1

    try:
        cfg = build_config(
            parse_config_file(args.config) if args.config else {},
            family=args.family,
            solvers=None if args.solver is None else _parse_solvers(args.solver),
            eps_g=args.eps_g,
            eps_h=args.eps_h,
            base_seed=args.base_seed,
            out=args.out,
            fmt=args.fmt,
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
        for line in table.failed_runs:
            print(f"failed run: {line}", file=sys.stderr)
        print(f"{table.total_failures} run(s) failed", file=sys.stderr)
        return 2
    return 0


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
