"""The paper's worst-case theory, which no solve runs: K1 and K2 of the known-smoothness
method, sigma_bar, T and K1_bar of the parameter-free method, their decrease constants,
capped CG's pass count and the Kuczynski-Wozniakowski Lanczos budget.

The formulas take the working setting as parameters, so that tests can sweep it; keyword
arguments default to the solvers' constants.  What a solve runs (``gamma_nu``,
``cap_constants``, ``psi``) stays in the solver modules.
"""
from __future__ import annotations

import math

from .capped_cg import ZETA, cap_constants
from .newton_cg import ETA, THETA, NcgParams, gamma_nu
from .oracle import HolderClass, _integer
from .pf_newton_cg import GAMMA_INIT, R, PfParams


def taylor_error_modulus(delta: float, holder: HolderClass) -> float:
    """Modulus L(delta) of the delta-relaxed quadratic model error.

    The gradient of f stays within L(delta)/2 ||step||^2 + delta of its
    linearization.  The nu = 1 case uses the 0^0 = 1 convention.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    nu, h = holder.nu, holder.h_nu
    return ((1.0 - nu) / (2.0 * delta * (1.0 + nu))) ** ((1.0 - nu) / (1.0 + nu)) * h ** (2.0 / (1.0 + nu))


def c_sol(eta: float, zeta: float, theta: float) -> float:
    """Per-step decrease constant for accepted SOL steps."""
    a = (2.0 / (4.0 + zeta + math.sqrt((4.0 + zeta) ** 2 + 1.0))) ** 2
    b = (2.0 * (1.0 - eta) * theta / 3.0) ** 2 / 6.0
    return eta * min(a, b)


def c_nc(eta: float, theta: float) -> float:
    """Per-step decrease constant for negative-curvature steps."""
    return eta * theta**2 / 4.0


def c_meo(eta: float, theta: float, holder: HolderClass) -> float:
    """Per-step decrease constant for minimum-eigenvalue-oracle steps.

    Defined for nu in (0, 1] only.
    """
    nu, h = holder.nu, holder.h_nu
    if not nu > 0.0:
        raise ValueError("c_meo requires nu > 0")
    base = min(1.0, theta * ((1.0 - eta) / h) ** (1.0 / nu))
    return (eta / 2.0) * base**2 * 0.5 ** ((2.0 + nu) / nu)


def c_sol_hat(eta: float, theta: float) -> float:
    """Per-step decrease constant for accepted SOL steps of the parameter-free method."""
    return (eta / 6.0) * min(1.0 / 6.0, (2.0 * (1.0 - eta) * theta / 3.0) ** 2)


def _first_order_bound(f0: float, f_low: float, c1: float, weight: float, eps_g: float) -> int:
    """ceil((f0 - f_low) / c1 sqrt(weight) eps_g^-1.5) + 1: K1 at weight gamma_nu, K1_bar at sigma_bar."""
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    return math.ceil((f0 - f_low) / c1 * math.sqrt(weight) * eps_g ** (-1.5)) + 1


def complexity_bounds(
    params: NcgParams, f0: float, f_low: float, *, eta: float = ETA, zeta: float = ZETA, theta: float = THETA
) -> tuple[int, int | None]:
    """Worst-case outer-iteration bounds (K1, K2) of the known-smoothness method.

    K2 is None when eps_H is not requested or when nu = 0, where the
    second-order bound is undefined.  The constants default to the driver's.
    """
    gamma = gamma_nu(params.eps_g, params.holder)
    c1 = min(c_sol(eta, zeta, theta), c_nc(eta, theta))
    k1 = _first_order_bound(f0, f_low, c1, gamma, params.eps_g)
    k2: int | None = None
    if params.eps_H is not None and params.holder.nu > 0.0:
        nu = params.holder.nu
        cm = c_meo(eta, theta, params.holder)
        k2 = math.ceil((f0 - f_low) / cm * params.eps_H ** (-(2.0 + nu) / nu)) + 1
    return k1, k2


def pf_bounds(
    params: PfParams, holder: HolderClass, f0: float, f_low: float,
    *, eta: float = ETA, theta: float = THETA, gamma_init: float = GAMMA_INIT, r: float = R,
) -> tuple[float, int, int]:
    """Worst-case bounds (sigma_bar, T, K1_bar) of the parameter-free method for a known class.

    sigma_bar caps every gamma_k; T caps capped-CG calls per outer iteration; K1_bar
    caps outer iterations in first-order mode.  The solver itself never sees the
    smoothness class.  The constants default to the driver's.
    """
    gamma = gamma_nu(params.eps_g, holder)
    sigma_bar = max(gamma_init, r * gamma)
    t_bound = max(math.ceil(math.log(sigma_bar / gamma_init) / math.log(r)), 0) + 2
    c1 = min(c_sol_hat(eta, theta), c_nc(eta, theta))
    return sigma_bar, t_bound, _first_order_bound(f0, f_low, c1, sigma_bar, params.eps_g)


def iteration_cap(norm_h: float, eps: float, zeta: float, n: int) -> int:
    """Worst-case capped-CG iteration count: min{n, J}, J = ceil((sqrt(|H|/eps) + 2) psi(|H|/eps)).

    min(n, .) is the bound in exact arithmetic.  In floating point the loop
    can run past n; capped_cg raises from pass J of its running cap U <= |H| on.
    """
    return min(_integer(n, "n", positive=True), math.ceil(cap_constants(norm_h, eps, zeta)[3]))


def lanczos_budget(n: int, eps: float, delta: float, norm_h: float) -> int:
    """Lanczos iteration budget min{n, 1 + ceil(ln(2.75 n / delta^2) / 2 * sqrt(|H|/eps))}
    for an upper bound ``norm_h`` on ||H||.  An infinite bound, or one too large for the
    count to be finite, gives n: without a bound, Lanczos runs to the full dimension."""
    n = _integer(n, "n", positive=True)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not norm_h >= 0.0:
        raise ValueError(f"norm_h must be nonnegative; got {norm_h!r}")
    steps = 0.5 * math.log(2.75 * n / delta**2) * math.sqrt(norm_h / eps)
    return n if math.isinf(steps) else min(n, 1 + math.ceil(steps))
