"""Parameter-free Newton-CG driver.

Runs the outer loop and the damping trial of the known-smoothness driver
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
from .meo import _norm
from .newton_cg import (
    ETA,
    THETA,
    LineSearchOutcome,
    PfSolveResult,
    _backtrack,
    _cube,
    _drive,
    _newton_trial,
    _validate_shared,
)
from .oracle import ProblemOracle

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
    0.01) is fixed: GAMMA_INIT, R and T_MAX here, THETA, ETA and J_MAX in
    ``newton_cg``, ZETA in ``capped_cg``.
    """

    eps_g: float
    eps_H: float | None = None
    max_outer: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_shared(self)


def sigma_start(gamma_prev: float) -> float:
    """First trial weight of an outer iteration: max{GAMMA_INIT, gamma_prev / R}."""
    return max(GAMMA_INIT, gamma_prev / R)


def bounded_line_search_sol(
    oracle,
    x: Array,
    d: Array,
    sigma_t: float,
    eps_g: float,
    f_x: float,
    f_full: float | None = None,
) -> LineSearchOutcome | None:
    """Search the bounded step-size window for a SOL direction.

    Scans j = 0, 1, ... while THETA^j >= min{1, 2 (1-ETA) THETA
    (eps_g/sigma_t)^(1/4) / (3 ||d||^(1/2))} and accepts the smallest j with
    f(x + THETA^j d) <= f(x) - ETA (sigma_t eps_g)^(1/2) THETA^(2j) ||d||^2.
    None means the window closed; hitting J_MAX inside the window raises.
    ``f_full`` recycles an already-computed f(x + d) as the j = 0 trial.
    """
    dn = _norm(d)
    window = min(1.0, 2.0 * (1.0 - ETA) * THETA * (eps_g / sigma_t) ** 0.25 / (3.0 * math.sqrt(dn)))
    decrease = ETA * math.sqrt(sigma_t * eps_g) * dn * dn
    message = "bounded SOL search exceeded its cap in-window"
    return _backtrack(oracle, x, d, f_x, decrease, message, lower=window, f_first=f_full)


def bounded_line_search_nc(oracle, x: Array, d: Array, sigma_t: float, f_x: float) -> LineSearchOutcome | None:
    """Bounded-window search for a scaled negative-curvature direction.

    Window: THETA^(j-1) >= min{1, 1/sigma_t}, i.e. THETA^j >= THETA min{1, 1/sigma_t}.
    Decrease test:
    f(x + THETA^j d) <= f(x) - ETA min{1, sigma_t} THETA^(2j) ||d||^3 / 4.
    """
    window = THETA * min(1.0, 1.0 / sigma_t)
    decrease = ETA * min(1.0, sigma_t) * _cube(_norm(d), "bounded NC search") / 4.0
    message = "bounded NC search exceeded its cap in-window"
    return _backtrack(oracle, x, d, f_x, decrease, message, lower=window)


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
        sigma0 = sigma_start(gamma_prev)
        return (sigma0 * R**t for t in range(T_MAX))

    trial = _newton_trial(params.eps_g, capped_cg, bounded_line_search_sol, bounded_line_search_nc, parameter_free=True)
    result, trials, gamma_history = _drive(oracle, x0, params, weights=weights, gamma0=GAMMA_INIT, trial=trial)
    return PfSolveResult(**vars(result), trials=trials, gamma_history=gamma_history)
