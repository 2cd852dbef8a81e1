"""Capped conjugate gradient for damped, possibly indefinite Newton systems.

Given a symmetric operator H (as a Hessian-vector product), a right-hand
side g != 0, and a damping eps > 0, solve (H + 2 eps I) d = -g approximately
(outcome SOL) or return a direction of curvature below eps for H (outcome
NC).  The method runs plain CG on the damped system while monitoring a
running curvature cap U and a residual-growth envelope; any violation ends
the run with a negative-curvature certificate.  Each iteration takes one
Hessian-vector product, H p; the cap test's H r comes from the recurrence
p = -r + beta p_prev, as H r = beta H p_prev - H p.

Curvature and residual comparisons are strict floating-point comparisons;
tolerance slack belongs to callers and tests, not to the branch predicates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

SOL = "SOL"
NC = "NC"


class CappedCgError(RuntimeError):
    """Numerical breakdown inside capped CG; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass(frozen=True)
class CapParams:
    """Running curvature cap U and the four derived loop constants.

    kappa = (U + 2 eps) / eps, zeta_hat = zeta / (3 kappa),
    tau = sqrt(kappa) / (sqrt(kappa) + 1), T_cap = 4 kappa^4 / (1 - sqrt(tau))^2.
    All four are recomputed whenever U increases.
    """

    U: float
    eps: float
    zeta: float
    kappa: float
    zeta_hat: float
    tau: float
    T_cap: float

    @staticmethod
    def from_cap(U: float, eps: float, zeta: float) -> "CapParams":
        if U < 0.0:
            raise ValueError("curvature cap U must be nonnegative")
        kappa = (U + 2.0 * eps) / eps
        zeta_hat = zeta / (3.0 * kappa)
        tau = math.sqrt(kappa) / (math.sqrt(kappa) + 1.0)
        t_cap = 4.0 * kappa**4 / (1.0 - math.sqrt(tau)) ** 2
        return CapParams(U, eps, zeta, kappa, zeta_hat, tau, t_cap)


def update_cap_params(current: CapParams, candidate_U: float) -> CapParams:
    """Recompute the derived constants when the cap increases; no-op otherwise."""
    if candidate_U < 0.0:
        raise ValueError("candidate_U must be nonnegative")
    if candidate_U > current.U:
        return CapParams.from_cap(candidate_U, current.eps, current.zeta)
    return current


@dataclass
class CgOutcome:
    """Direction d with its type tag and run diagnostics.

    hvp_calls counts products with CG directions (one per iteration plus the
    initial one), the only products the run takes.  hvp_calls_aux is always
    0: the residual cap test takes H r^j from the recurrence, not a product.
    """

    d: Array
    d_type: str
    iterations: int
    final_params: CapParams
    hvp_calls: int
    hvp_calls_aux: int = 0


def psi(t: float, zeta: float) -> float:
    """Logarithmic factor in the capped-CG iteration bound."""
    return math.log(
        144.0 * (math.sqrt(t + 2.0) + 1.0) ** 2 * (t + 2.0) ** 6 / zeta**2
    )


def iteration_cap(norm_h: float, eps: float, zeta: float, n: int) -> int:
    """Worst-case iteration count: min{n, ceil((sqrt(|H|/eps) + 2) psi(|H|/eps))}."""
    t = norm_h / eps
    return min(n, math.ceil((math.sqrt(t) + 2.0) * psi(t, zeta)))


def capped_cg(
    hvp: Callable[[Array], Array],
    g: Array,
    eps: float,
    zeta: float,
    U: float = 0.0,
) -> CgOutcome:
    """Run capped CG on (H + 2 eps I) d = -g.

    Returns a SOL direction with relative residual below zeta_hat (which
    implies the final residual bound zeta * eps * ||d|| / 2) or an NC
    direction with d^T H d < -eps ||d||^2 and d^T g <= 0.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if not np.all(np.isfinite(g)):
        raise ValueError("g must be finite")
    if float(np.linalg.norm(g)) == 0.0:
        raise ValueError("g must be nonzero")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")

    params = CapParams.from_cap(U, eps, zeta)
    two_eps = 2.0 * eps

    y = np.zeros(n)
    r = g.copy()
    p = -g

    hp = np.asarray(hvp(p), dtype=float)
    hvp_calls = 1
    hbar_p = hp + two_eps * p

    # Norms are sqrt(v @ v), bit-identical to np.linalg.norm of a real vector.
    pp = float(p @ p)
    p_hbar_p = float(p @ hbar_p)
    # A NaN p^T H p fails every comparison below, so it is named here; one
    # that only overflowed, from a finite H p, goes on to the tests.
    if not math.isfinite(p_hbar_p) and not np.all(np.isfinite(hp)):
        raise CappedCgError("non-finite Hessian-vector product", 0)
    if p_hbar_p < eps * pp:
        return CgOutcome(p, NC, 0, params, hvp_calls)
    norm_hp = math.sqrt(float(hp @ hp))
    norm_p = math.sqrt(pp)
    if norm_hp > params.U * norm_p:
        params = update_cap_params(params, norm_hp / norm_p)

    hy = np.zeros(n)  # H y^j, maintained by the exact recurrence
    ys = [y]
    hys = [hy]
    rr = float(r @ r)
    r0_norm = math.sqrt(rr)
    j = 0

    while True:
        if not p_hbar_p > 0.0:
            # The curvature tests below keep this positive in exact
            # arithmetic; reaching here means float breakdown.
            raise CappedCgError("loss of positive curvature along p", j)
        alpha = rr / p_hbar_p
        y = y + alpha * p
        hy = hy + alpha * hp
        r = r + alpha * hbar_p
        rr_new = float(r @ r)
        beta = rr_new / rr
        p = -r + beta * p
        rr = rr_new
        j += 1
        ys.append(y)
        hys.append(hy)

        hp_prev = hp
        hp = np.asarray(hvp(p), dtype=float)
        hvp_calls += 1
        hbar_p = hp + two_eps * p

        # A NaN or inf entry of p reaches p @ p; so does an overflow of ||p||^2.
        pp = float(p @ p)
        if not (math.isfinite(rr) and math.isfinite(pp)):
            raise CappedCgError("non-finite CG iterate", j)
        p_hbar_p = float(p @ hbar_p)
        if not math.isfinite(p_hbar_p) and not np.all(np.isfinite(hp)):
            raise CappedCgError("non-finite Hessian-vector product", j)

        # Cap updates, in the printed order: p, then y, then r.
        norm_p = math.sqrt(pp)
        norm_hp = math.sqrt(float(hp @ hp))
        if norm_hp > params.U * norm_p:
            params = update_cap_params(params, norm_hp / norm_p)
        yy = float(y @ y)
        norm_y = math.sqrt(yy)
        norm_hy = math.sqrt(float(hy @ hy))
        if norm_y > 0.0 and norm_hy > params.U * norm_y:
            params = update_cap_params(params, norm_hy / norm_y)
        norm_r = math.sqrt(rr)
        if norm_r > 0.0:
            hr = beta * hp_prev - hp
            norm_hr = math.sqrt(float(hr @ hr))
            if norm_hr > params.U * norm_r:
                params = update_cap_params(params, norm_hr / norm_r)

        if float(y @ hy) + two_eps * yy < eps * yy:
            return CgOutcome(y, NC, j, params, hvp_calls)
        if norm_r <= params.zeta_hat * r0_norm:
            return CgOutcome(y, SOL, j, params, hvp_calls)
        if p_hbar_p < eps * (norm_p * norm_p):
            return CgOutcome(p, NC, j, params, hvp_calls)
        if norm_r > math.sqrt(params.T_cap) * params.tau ** (j / 2.0) * r0_norm:
            # Residual growth exceeds the convergence envelope: some pair of
            # iterates must reveal curvature below eps.
            alpha_b = rr / p_hbar_p
            y_next = y + alpha_b * p
            hy_next = hy + alpha_b * hp
            for i in range(j):
                dy = y_next - ys[i]
                dd = float(dy @ dy)
                curv = float(dy @ (hy_next - hys[i])) + two_eps * dd
                if curv < eps * dd:
                    return CgOutcome(dy, NC, j, params, hvp_calls)
            raise CappedCgError(
                "residual blow-up without a negative-curvature pair", j
            )
        if j > n + 5:
            raise CappedCgError(
                "failed to terminate within the dimension bound", j
            )
