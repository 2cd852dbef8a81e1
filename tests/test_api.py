"""The package's public API: its exact export list, the params fields, the README quick start and
the module bindings that solvebench's tracer patches."""
import dataclasses
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import ncgopt
from ncgopt import bounds, capped_cg, meo, newton_cg, oracle, pf_newton_cg

PUBLIC_API = {
    # solvers and their params
    "newton_cg_solve",
    "pf_newton_cg_solve",
    "acrn_solve",
    "NcgParams",
    "PfParams",
    "CrnParams",
    # results
    "SolveResult",
    "PfSolveResult",
    "IterationRecord",
    "InnerTrialRecord",
    "Counters",
    # problems
    "ProblemOracle",
    "HolderClass",
    "gen_infeasibility",
    "gen_repu",
    "gen_quadratic",
    # statuses
    "FOSP",
    "SOSP_CERTIFIED",
    "MAX_ITERATIONS",
    "LINE_SEARCH_FAILURE",
    "NUMERICAL_FAILURE",
}

# Every settable value of the three solvers; a new knob shows up as a diff.
PARAMS_FIELDS = {
    "NcgParams": ("eps_g", "holder", "eps_H", "max_outer", "seed"),
    "PfParams": ("eps_g", "eps_H", "max_outer", "seed"),
    "CrnParams": ("max_outer", "seed"),
}

# The paper's worst-case formulas, which no solve runs, and the finite-difference checks.
BOUND_FORMULAS = (
    "taylor_error_modulus", "c_sol", "c_nc", "c_meo", "complexity_bounds", "c_sol_hat", "pf_bounds", "iteration_cap",
    "lanczos_budget",
)
FD_CHECKS = ("check_gradient_fd", "check_hvp_fd", "_fd_step", "DerivativeCheckError")

README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "solvebench" / "tracing.py"


def test_public_names_are_exactly_the_user_api():
    public = {
        name
        for name, value in vars(ncgopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_API


@pytest.mark.parametrize("name", sorted(PARAMS_FIELDS))
def test_params_fields_are_exactly_the_solver_knobs(name):
    assert tuple(f.name for f in dataclasses.fields(getattr(ncgopt, name))) == PARAMS_FIELDS[name]


def test_bounds_live_only_in_the_bounds_module():
    for module in (newton_cg, pf_newton_cg, capped_cg, meo, oracle):
        assert not [name for name in BOUND_FORMULAS + FD_CHECKS if hasattr(module, name)], module.__name__
    for name in BOUND_FORMULAS:
        assert getattr(bounds, name).__module__ == "ncgopt.bounds", name


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("FOSP ")
    assert printed[-1] == "SOSP_certified"


def test_tracer_bindings_resolve(monkeypatch):
    # solvebench's tracer times each layer by patching module bindings by
    # name, and goes on without one it cannot find; a renamed binding would
    # quietly empty its layer.  Only newton_cg's norm estimate, which moved
    # to baseline_crn, is known to be missing.  The tracer's source is read
    # and run here, not imported, so that nothing is written next to it.
    tracing = types.ModuleType("solvebench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)  # its dataclasses look their module up
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(tracing))
    missing = [
        f"{module}.{name}"
        for bindings in tracing.LAYERS.values()
        for module, name in bindings
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == ["ncgopt.newton_cg.estimate_operator_norm"]
