"""The package's public API: its exact export list, the params fields and the README quick start."""
import dataclasses
import re
import types
from pathlib import Path

import pytest

import ncgopt

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

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("FOSP ")
    assert printed[-1] == "SOSP_certified"
