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
from .newton_cg import (  # the trial records and result type are re-exported here
    _FALLBACK_MAX_OUTER,
    NO_VALID_J,
    SMALL_STEP,
    InnerTrialRecord,
    LineSearchOutcome,
    PfSolveResult,
    _backtrack,
    _drive,
    c_nc,
    gamma_nu,
)
from .oracle import HolderClass, ProblemOracle

Array = np.ndarray


@dataclass(frozen=True)
class PfParams:
    """Inputs of the parameter-free driver.

    Defaults follow the working setting (zeta, gamma_init, theta, r, eta) =
    (0.5, 10, 0.5, 2, 0.01).
    """

    eps_g: float
    eps_H: float | None = None
    zeta: float = 0.5
    theta: float = 0.5
    eta: float = 0.01
    delta: float = 0.01
    gamma_init: float = 10.0
    r: float = 2.0
    t_max: int = 200
    j_max: int = 60
    max_outer: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_g < 1.0:
            raise ValueError("eps_g must lie in (0, 1)")
        if self.eps_H is not None and not 0.0 < self.eps_H < 1.0:
            raise ValueError("eps_H must lie in (0, 1)")
        for name in ("zeta", "theta", "eta", "delta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not self.gamma_init > 0.0:
            raise ValueError("gamma_init must be positive")
        if not self.r > 1.0:
            raise ValueError("r must exceed 1")
        if self.t_max < 1 or self.j_max < 1:
            raise ValueError("t_max and j_max must be at least 1")


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
    params: PfParams, holder: HolderClass, f0: float, f_low: float
) -> tuple[float, int, int]:
    """Test-side worst-case bounds (sigma_bar, T, K1_bar) for a known class.

    sigma_bar caps every gamma_k; T caps capped-CG calls per outer
    iteration; K1_bar caps outer iterations in first-order mode.  The solver
    itself never sees the smoothness class.
    """
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    gamma = gamma_nu(params.eps_g, holder)
    sigma_bar = max(params.gamma_init, params.r * gamma)
    t_bound = max(math.ceil(math.log(sigma_bar / params.gamma_init) / math.log(params.r)), 0) + 2
    c1 = min(c_sol_hat(params.eta, params.theta), c_nc(params.eta, params.theta))
    k1_bar = math.ceil((f0 - f_low) / c1 * math.sqrt(sigma_bar) * params.eps_g ** (-1.5)) + 1
    return sigma_bar, t_bound, k1_bar


def pf_newton_cg_solve(
    oracle: ProblemOracle, x0: Array, params: PfParams
) -> PfSolveResult:
    """Minimize without smoothness knowledge, estimating the damping weight.

    Per outer iteration with a large gradient, damping trials sigma_t grow
    geometrically until either the full step already reaches a small
    gradient, or the bounded line search finds a step.  gamma_k records the
    accepted weight and seeds the next iteration's start value.
    """

    def weights(gamma_prev: float):
        sigma0 = sigma_start(gamma_prev, params.gamma_init, params.r)
        return (sigma0 * params.r**t for t in range(params.t_max))

    return _drive(
        oracle,
        x0,
        params,
        weights=weights,
        gamma0=params.gamma_init,
        max_outer=lambda f0: _FALLBACK_MAX_OUTER if params.max_outer is None else params.max_outer,
        cg=capped_cg,
        search_sol=bounded_line_search_sol,
        search_nc=bounded_line_search_nc,
        parameter_free=True,
    )
