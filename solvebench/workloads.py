"""Workloads of the solve benchmark: seeded instance sets and solver calls.

A workload is a list of (cell, solver) pairs over a number of instances per
cell.  Instance seeds come from the workload seed, and each solve uses its
instance seed as ``params.seed``.  Solvers are reached through the public
entry points on the ``ncgopt`` package, looked up at call time so that a
tracer that patched them sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import ncgopt
from ncgopt.bench import start_point

EPS_G = 1e-4

DESK_CELLS = (("infeasibility", 100, 10, 2.25), ("repu", 100, 20, 2.25))


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[str, int, int, float], ...]
    solvers: tuple[str, ...]
    instances_per_cell: int
    eps_H: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", DESK_CELLS, ("alg1", "alg2"), instances_per_cell=200),
        Workload("infeas-400", (("infeasibility", 400, 40, 2.25),), ("alg2",), instances_per_cell=6),
        Workload("infeas-sosp", (("infeasibility", 100, 10, 2.25),), ("alg2",), instances_per_cell=18, eps_H=1e-3),
        Workload("acrn-desk", DESK_CELLS[:1], ("acrn",), instances_per_cell=22),
    )
}


@dataclass(frozen=True)
class Item:
    """One solve of the workload: an instance, a start point and a solver."""

    cell: str
    solver: str
    seed: int
    eps_H: float | None
    oracle: object
    x0: object


def generate(family: str, n: int, m: int, p: float, seed: int):
    if family == "infeasibility":
        return ncgopt.gen_infeasibility(n, m, p, seed)
    return ncgopt.gen_repu(n, m, p, seed)


def build_items(workload: Workload, seed: int, after_each=None) -> tuple[list[Item], dict[str, list[float]]]:
    """Generate the instance set; returns the items and the generation times per cell.

    ``after_each`` is called with each generation time, after it was taken.

    Items are interleaved (instance, cell, solver) so that any prefix of a
    round holds every cell and solver in equal shares.
    """
    items: list[Item] = []
    gen_s: dict[str, list[float]] = {}
    for index in range(workload.instances_per_cell):
        inst = 1000 * seed + index
        for family, n, m, p in workload.cells:
            cell = f"{family}/{n}/{m}/{p:g}"
            began = perf_counter()
            oracle = generate(family, n, m, p, inst)
            seconds = perf_counter() - began
            gen_s.setdefault(cell, []).append(seconds)
            if after_each is not None:
                after_each(seconds)
            for solver in workload.solvers:
                items.append(Item(cell, solver, inst, workload.eps_H, oracle, start_point(family, n)))
    return items, gen_s


def warm_up_items(workload: Workload) -> list[Item]:
    """Small instances that run every code path of the workload once."""
    items = []
    for family, _, _, p in workload.cells:
        oracle = generate(family, 20, 4, p, 0)
        for solver in workload.solvers:
            items.append(Item("warm-up", solver, 0, workload.eps_H, oracle, start_point(family, 20)))
    return items


def solve(item: Item, oracle=None):
    """Run the item's solver with the bench defaults on ``oracle`` (or the item's)."""
    oracle = item.oracle if oracle is None else oracle
    if item.solver == "alg1":
        params = ncgopt.NcgParams(
            eps_g=EPS_G, holder=ncgopt.HolderClass(nu=1.0, h_nu=1.0), eps_H=item.eps_H, seed=item.seed
        )
        return ncgopt.newton_cg_solve(oracle, item.x0, params)
    if item.solver == "alg2":
        params = ncgopt.PfParams(eps_g=EPS_G, eps_H=item.eps_H, seed=item.seed)
        return ncgopt.pf_newton_cg_solve(oracle, item.x0, params)
    return ncgopt.acrn_solve(oracle, item.x0, EPS_G, ncgopt.CrnParams(seed=item.seed))
