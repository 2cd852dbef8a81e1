"""ncgopt: matrix-free Newton-CG solvers for nonconvex minimization.

Second-order line-search methods built on a capped conjugate-gradient inner
solver and a randomized Lanczos minimum-eigenvalue oracle, including a fully
parameter-free variant, seeded benchmark problem generators, a simple cubic
regularization baseline, and an experiment harness.

The package exports the solvers, their params and results, the problem
interface and generators, and the statuses.  Internals (capped CG, the
eigenvalue oracle, line searches, bound calculators, finite-difference
checks) are imported from the modules that define them.
"""

from .baseline_crn import CrnParams, acrn_solve
from .newton_cg import (
    FOSP,
    LINE_SEARCH_FAILURE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    SOSP_CERTIFIED,
    InnerTrialRecord,
    IterationRecord,
    NcgParams,
    PfSolveResult,
    SolveResult,
    newton_cg_solve,
)
from .oracle import Counters, HolderClass, ProblemOracle
from .pf_newton_cg import PfParams, pf_newton_cg_solve
from .problems import gen_infeasibility, gen_quadratic, gen_repu

__version__ = "0.1.0"
