"""ncgopt: matrix-free Newton-CG solvers for nonconvex minimization.

Second-order line-search methods built on a capped conjugate-gradient inner
solver and a randomized Lanczos minimum-eigenvalue oracle, including a fully
parameter-free variant, seeded benchmark problem generators, a simple cubic
regularization baseline, and an experiment harness.
"""

from .baseline_crn import CrnParams, acrn_solve, cubic_subproblem_gd
from .capped_cg import (
    NC,
    SOL,
    CapParams,
    CappedCgError,
    CgOutcome,
    capped_cg,
    iteration_cap,
    psi,
    update_cap_params,
)
from .meo import (
    CERTIFICATE,
    DIRECTION,
    MeoOutcome,
    lanczos_budget,
    minimum_eigenvalue_oracle,
)
from .newton_cg import (
    FOSP,
    LINE_SEARCH_FAILURE,
    MAX_ITERATIONS,
    MEO,
    NUMERICAL_FAILURE,
    SOSP_CERTIFIED,
    IterationRecord,
    LineSearchError,
    NcgParams,
    SolveResult,
    c_meo,
    c_nc,
    c_sol,
    complexity_bounds,
    gamma_nu,
    line_search_meo,
    line_search_nc,
    line_search_sol,
    newton_cg_solve,
    scale_meo_direction,
    scale_nc_direction,
    taylor_error_modulus,
)
from .oracle import (
    CountingOracle,
    Counters,
    DerivativeCheckError,
    HolderClass,
    ProblemOracle,
    check_gradient_fd,
    check_hvp_fd,
)
from .pf_newton_cg import (
    InnerTrialRecord,
    PfParams,
    PfSolveResult,
    bounded_line_search_nc,
    bounded_line_search_sol,
    c_sol_hat,
    pf_bounds,
    pf_newton_cg_solve,
    sigma_start,
)
from .problems import (
    InfeasibilityInstance,
    QuadraticInstance,
    RepuInstance,
    gen_infeasibility,
    gen_quadratic,
    gen_repu,
    load_instance,
    save_instance,
)

__version__ = "0.1.0"
