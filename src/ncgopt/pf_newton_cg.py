"""Parameter-free Newton-CG driver.

Runs the outer loop shared with the known-smoothness driver
(``newton_cg._drive``) and differs only in its damping policy: no knowledge
of the Hessian smoothness class is required.  Per outer iteration, trial
weights sigma_t = r^t sigma_0, t < t_max, grow geometrically from
sigma_0 = max{gamma_init, gamma_prev / r}, where gamma_prev is the weight
accepted last.  Each trial searches a bounded step-size window, and a SOL
direction too short for its weight is rejected outright; a trial whose
window holds no acceptable step moves on to the next weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capped_cg import capped_cg
from .newton_cg import (
    ETA,
    THETA,
    LineSearchOutcome,
    PfSolveResult,
    _backtrack,
    _drive,
    _validate_shared,
    c_nc,
    gamma_nu,
)
from .oracle import HolderClass, ProblemOracle

Array = np.ndarray

# The damping policy's working setting: the first trial weight, the growth
# factor between trials and the cap on trials per outer iteration.
GAMMA_INIT = 10.0
R = 2.0
T_MAX = 200


@dataclass(frozen=True)
class PfParams:
    """Inputs of the parameter-free driver: the tolerances and the work budget.

    The working setting (zeta, gamma_init, theta, r, eta) = (0.5, 10, 0.5, 2,
    0.01) is fixed: GAMMA_INIT, R and T_MAX here, the rest in ``newton_cg``.
    """

    eps_g: float
    eps_H: float | None = None
    max_outer: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_shared(self)


def sigma_start(gamma_prev: float, gamma_init: float, r: float) -> float:
    """First trial weight of an outer iteration: max{gamma_init, gamma_prev / r}."""
    return max(gamma_init, gamma_prev / r)


def bounded_line_search_sol(
    oracle,
    x: Array,
    d: Array,
    sigma_t: float,
    eps_g: float,
    theta: float,
    eta: float,
    j_max: int,
    f_x: float,
    f_full: float | None = None,
) -> LineSearchOutcome | None:
    """Search the bounded step-size window for a SOL direction.

    Scans j = 0, 1, ... while theta^j >= min{1, 2 (1-eta) theta
    (eps_g/sigma_t)^(1/4) / (3 ||d||^(1/2))} and accepts the smallest j with
    f(x + theta^j d) <= f(x) - eta (sigma_t eps_g)^(1/2) theta^(2j) ||d||^2.
    None means the window closed; hitting j_max inside the window raises.
    ``f_full`` recycles an already-computed f(x + d) as the j = 0 trial.
    """
    dn = float(np.linalg.norm(d))
    window = min(1.0, 2.0 * (1.0 - eta) * theta * (eps_g / sigma_t) ** 0.25 / (3.0 * math.sqrt(dn)))
    decrease = eta * math.sqrt(sigma_t * eps_g) * dn * dn
    message = "bounded SOL search exceeded its cap in-window"
    return _backtrack(oracle, x, d, f_x, decrease, theta, j_max, message, lower=window, f_first=f_full)


def bounded_line_search_nc(
    oracle,
    x: Array,
    d: Array,
    sigma_t: float,
    theta: float,
    eta: float,
    j_max: int,
    f_x: float,
) -> LineSearchOutcome | None:
    """Bounded-window search for a scaled negative-curvature direction.

    Window: theta^(j-1) >= min{1, 1/sigma_t}, i.e. theta^j >= theta min{1, 1/sigma_t}.
    Decrease test:
    f(x + theta^j d) <= f(x) - eta min{1, sigma_t} theta^(2j) ||d||^3 / 4.
    """
    window = theta * min(1.0, 1.0 / sigma_t)
    decrease = eta * min(1.0, sigma_t) * float(np.linalg.norm(d)) ** 3 / 4.0
    message = "bounded NC search exceeded its cap in-window"
    return _backtrack(oracle, x, d, f_x, decrease, theta, j_max, message, lower=window)


def c_sol_hat(eta: float, theta: float) -> float:
    """Per-step decrease constant for accepted SOL steps of this driver."""
    return (eta / 6.0) * min(1.0 / 6.0, (2.0 * (1.0 - eta) * theta / 3.0) ** 2)


def pf_bounds(
    params: PfParams, holder: HolderClass, f0: float, f_low: float,
    *, eta: float = ETA, theta: float = THETA, gamma_init: float = GAMMA_INIT, r: float = R,
) -> tuple[float, int, int]:
    """Test-side worst-case bounds (sigma_bar, T, K1_bar) for a known class.

    sigma_bar caps every gamma_k; T caps capped-CG calls per outer
    iteration; K1_bar caps outer iterations in first-order mode.  The solver
    itself never sees the smoothness class.  The constants default to the
    driver's.
    """
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    gamma = gamma_nu(params.eps_g, holder)
    sigma_bar = max(gamma_init, r * gamma)
    t_bound = max(math.ceil(math.log(sigma_bar / gamma_init) / math.log(r)), 0) + 2
    c1 = min(c_sol_hat(eta, theta), c_nc(eta, theta))
    k1_bar = math.ceil((f0 - f_low) / c1 * math.sqrt(sigma_bar) * params.eps_g ** (-1.5)) + 1
    return sigma_bar, t_bound, k1_bar


def pf_newton_cg_solve(
    oracle: ProblemOracle, x0: Array, params: PfParams
) -> PfSolveResult:
    """Minimize without smoothness knowledge, estimating the damping weight.

    Per outer iteration with a large gradient, damping trials sigma_t grow
    geometrically until either the full step already reaches a small
    gradient, or the bounded line search finds a step.  gamma_k records the
    accepted weight and seeds the next iteration's start value.  Statuses and
    input checks are those of ``newton_cg_solve``.
    """

    def weights(gamma_prev: float):
        sigma0 = sigma_start(gamma_prev, GAMMA_INIT, R)
        return (sigma0 * R**t for t in range(T_MAX))

    return _drive(
        oracle,
        x0,
        params,
        weights=weights,
        gamma0=GAMMA_INIT,
        cg=capped_cg,
        search_sol=bounded_line_search_sol,
        search_nc=bounded_line_search_nc,
        parameter_free=True,
    )
