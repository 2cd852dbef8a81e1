"""Experiment harness: seeded instance grids, solver runs, aggregated tables.

``ncgopt-bench`` takes its settings from flags only; each sets one field of
:class:`ExperimentConfig`, and an omitted flag keeps that field's default::

    --family     infeasibility | repu | quadratic (required)
    --grid       semicolon-separated cells "n,m,p" (default: the family's
                 desk cell, 100,10,2.25 | 100,20,2.25 | 50,0,0)
    --instances  instances per cell (default 10)
    --seed       base seed (default 0)
    --solver     comma list from {alg1, alg2, acrn} (default alg2)
    --eps-g      first-order tolerance (default 1e-4)
    --eps-h      second-order tolerance (default: none, first order only)
    --h-nu, --nu smoothness data handed to alg1 (default 1, 1; heuristic on
                 the benchmark families, exact on quadratic)
    --out        output path, "-" for stdout (default stdout)
    --format     csv | markdown (default csv)

Library callers build an ``ExperimentConfig`` directly; ``run_experiment``
validates it.  Every other solver setting is fixed: the paper's working
setting, kept as module constants, and each params class's default
``max_outer``.  The quadratic family's spectrum is n evenly spaced
eigenvalues from 50 to 100, and its cells take m = p = 0.  Start points
follow the benchmark protocol: the origin for infeasibility, (1/n, ..., 1/n)
for repu, and a scaled all-ones vector for the quadratic family.  Instance
seeds are base seed + instance index; each instance is generated once and
run by every solver, serially.  Wall time aside, runs are bit-reproducible
per (instance seed, params.seed) on one numpy build and one OpenBLAS core;
across cores, statuses held and counts moved by up to 2 HVPs.

Exit codes: 0 success, 1 a bad flag, an out-of-range value or an ``--out``
path that cannot be written (checked before the first solve), 2 run failures
present.  Each failed run is named on stderr with its cell, solver, seed and
status.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .baseline_crn import CrnParams, acrn_solve
from .newton_cg import FOSP, SOSP_CERTIFIED, NcgParams, newton_cg_solve
from .oracle import HolderClass, ProblemOracle, _integer
from .pf_newton_cg import PfParams, pf_newton_cg_solve
from .problems import _require_cell, gen_infeasibility, gen_quadratic, gen_repu

FAMILIES = ("infeasibility", "repu", "quadratic")
SOLVERS = ("alg1", "alg2", "acrn")
FORMATS = ("csv", "markdown")

# Each family's grid when --grid is omitted: its desk cell.
_DEFAULT_GRIDS = {
    "infeasibility": ((100, 10, 2.25),),
    "repu": ((100, 20, 2.25),),
    "quadratic": ((50, 0, 0.0),),
}
# The quadratic family's eigenvalues run evenly from the first to the second.
_QUADRATIC_SPECTRUM = (50.0, 100.0)


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
                    _require_cell(n, m, p, self.base_seed)
                else:
                    _integer(n, "n", positive=True)
                    _integer(self.base_seed, "seed")
                    if (m, p) != (0, 0):
                        raise ValueError("the quadratic family ignores m and p, so both must be 0")
            except ValueError as err:
                raise ConfigError(f"invalid grid cell ({n}, {m}, {p}): {err}") from err
        # The tolerances' and the holder's ranges live in the params classes.
        try:
            for solver in SOLVERS:
                _solver(self, solver, seed=0)
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


COLUMNS = tuple(column.name for column in fields(ResultRow))
# Every column but the cell's three, the solver and the failure count.
_MEAN_COUNT = len(COLUMNS) - 5


def _float_repr(value) -> str:
    return repr(float(value))


# Each column's (CSV, markdown) text.
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
# Flag parsing.


def _parse_grid(text: str) -> tuple[tuple[int, int, float], ...]:
    cells = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            n, m, p = chunk.split(",")
            cells.append((int(n), int(m), float(p)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"grid cell {chunk!r} must be 'n,m,p'") from None
    return tuple(cells)


def _parse_solvers(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# ---------------------------------------------------------------------------
# Running.


def make_oracle(cfg: ExperimentConfig, n: int, m: int, p: float, seed: int) -> ProblemOracle:
    if cfg.family == "infeasibility":
        return gen_infeasibility(n, m, p, seed)
    if cfg.family == "repu":
        return gen_repu(n, m, p, seed)
    eigenvalues = np.linspace(*_QUADRATIC_SPECTRUM, n)
    return gen_quadratic(n, eigenvalues, seed)


def start_point(family: str, n: int) -> np.ndarray:
    if family == "infeasibility":
        return np.zeros(n)
    if family == "repu":
        return np.full(n, 1.0 / n)
    return np.full(n, 10.0 / np.sqrt(n))


def _solver(cfg: ExperimentConfig, solver: str, seed: int):
    """One solver as ``run(oracle, x0)``: its params class's defaults but for cfg's
    tolerances, alg1's holder and the seed.  Building the params checks their ranges."""
    if solver == "alg1":
        holder = HolderClass(nu=cfg.nu, h_nu=cfg.h_nu)
        return partial(newton_cg_solve, params=NcgParams(eps_g=cfg.eps_g, eps_H=cfg.eps_h, holder=holder, seed=seed))
    if solver == "alg2":
        return partial(pf_newton_cg_solve, params=PfParams(eps_g=cfg.eps_g, eps_H=cfg.eps_h, seed=seed))
    return partial(acrn_solve, eps_g=cfg.eps_g, params=CrnParams(seed=seed))


def _run_one(cfg: ExperimentConfig, solver: str, oracle: ProblemOracle, x0, seed: int):
    """Run one solver on one instance.

    Returns (the values ResultRow averages, in its order, or None; status)."""
    began = time.perf_counter()
    try:
        result = _solver(cfg, solver, seed)(oracle, x0)
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


# ---------------------------------------------------------------------------
# CLI.


def _cannot_write(path: str, mode: str, text: str = "") -> bool:
    """Write text to path in mode; on failure say so on stderr and return True."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"cannot write {path}: {err}", file=sys.stderr)
        return True
    return False


def _parser() -> argparse.ArgumentParser:
    """One flag per ExperimentConfig field; an omitted flag sets nothing, so its
    field keeps the dataclass default."""
    parser = argparse.ArgumentParser(
        prog="ncgopt-bench",
        description="Run seeded solver experiments and emit paper-style tables.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--grid", type=_parse_grid, help="cells 'n,m,p; n,m,p' (default: the family's desk cell)")
    parser.add_argument("--instances", type=int, dest="instances_per_cell", help="instances per cell")
    parser.add_argument("--seed", type=int, dest="base_seed", help="seed of the first instance")
    parser.add_argument("--solver", type=_parse_solvers, dest="solvers", help="comma list from {alg1, alg2, acrn}")
    parser.add_argument("--eps-g", type=float, dest="eps_g", help="first-order tolerance")
    parser.add_argument("--eps-h", type=float, dest="eps_h", help="second-order tolerance")
    parser.add_argument("--h-nu", type=float, dest="h_nu", help="alg1's Holder modulus")
    parser.add_argument("--nu", type=float, help="alg1's Holder exponent")
    parser.add_argument("--out", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=FORMATS, dest="fmt")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        values = vars(_parser().parse_args(argv))
    except SystemExit as err:
        # argparse exits 2 on usage errors; exit code 2 is reserved for run
        # failures, so remap bad flags to the config-error code.
        return 0 if err.code == 0 else 1
    cfg = ExperimentConfig(**{"grid": _DEFAULT_GRIDS[values["family"]], **values})
    try:
        cfg.validate()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    to_file = cfg.out not in (None, "-")
    # Appending nothing first fails on an unwritable path before the grid runs.
    if to_file and _cannot_write(cfg.out, "a"):
        return 1
    table = run_experiment(cfg)
    rendered = emit_table(table, cfg.fmt)
    if not to_file:
        sys.stdout.write(rendered)
    elif _cannot_write(cfg.out, "w", rendered):
        return 1
    if table.failed_runs:
        for line in table.failed_runs:
            print(f"failed run: {line}", file=sys.stderr)
        print(f"{len(table.failed_runs)} run(s) failed", file=sys.stderr)
        return 2
    return 0


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
