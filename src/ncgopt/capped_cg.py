"""Capped conjugate gradient for damped, possibly indefinite Newton systems.

Given a symmetric operator H (as a Hessian-vector product), a right-hand
side g != 0, and a damping eps > 0, solve (H + 2 eps I) d = -g approximately
(outcome SOL) or return a direction of curvature below eps for H (outcome
NC).  The method runs plain CG on the damped system while keeping a running
curvature cap U, the largest ||H v|| / ||v|| seen over the directions p,
iterates y and residuals r.  Each pass takes one Hessian-vector product,
H p; the cap test's H r comes from the recurrence p = -r + beta p_prev, as
H r = beta H p_prev - H p.  The loop ends by its own tests: the SOL
test, the curvature tests on y and p, and the residual envelope
||r_j|| <= sqrt(T_cap) tau^(j/2) ||r_0||, whose violation yields a pair of
iterates with curvature below eps; the pair search replays the run rather
than store it, so a run on its own needs O(n) memory.  A run keeps its
vectors in one 7 x n workspace, updated in place, and takes its squared
norms in one ``meo._squared_norm`` call over its rows; a square that is not
finite raises CappedCgError before any test reads it.  The HVP gets a fresh
copy of p and the returned d is a copy.  In exact arithmetic the envelope
ends the loop by pass J(U) (``bounds.iteration_cap`` without its min(n, .)).
Rounding can keep it going (tau rounds to 1 once kappa passes about 8e31),
so a pass j >= J(U) that no test ends raises CappedCgError.

Damping trials at one point share H and g, and the shifted systems share
one Krylov space: the CG residuals of (H + 2 eps I) and (H + 2 eps_0 I) are
collinear, r^eps_j = zeta_j r_j (Jegerlehner 1996, *Krylov space solvers for
shifted linear systems*).  A run handed an empty ``KrylovRecord`` records
its first min(passes, n) passes, each pass's r_j, H r_j, ||r_j||^2 and
p_j'(H + 2 eps_0 I) p_j: at most 2 n^2 floats.  A run at eps > eps_0 handed
that record replays it: while the record lasts, it takes r_j and H r_j from
it, scaled by zeta_j, and H p_j = beta H p_(j-1) - H r_j, with zeta, alpha
and beta from Jegerlehner's scalar recurrences, and calls no HVP; its pair
search replays the record too.  Its loop,
tests, cap U, envelope and J(U) are those of a plain run, and past the
record it goes on as one, with real products, from its current state.

Curvature and residual comparisons are strict floating-point comparisons;
tolerance slack belongs to callers and tests, not to the branch predicates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice
from operator import length_hint
from typing import Callable

import numpy as np

from .meo import _norm, _squared_norm
from .oracle import _require_shape

Array = np.ndarray

SOL = "SOL"
NC = "NC"

# The residual tolerance of the paper's working setting, in (0, 1).
ZETA = 0.5


class CappedCgError(RuntimeError):
    """Numerical breakdown inside capped CG; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


def cap_constants(U: float, eps: float, zeta: float) -> tuple[float, float, float, float]:
    """Loop constants (zeta_hat, tau, sqrt(T_cap), J) of the running cap U.

    kappa = (U + 2 eps) / eps, zeta_hat = zeta / (3 kappa),
    tau = sqrt(kappa) / (sqrt(kappa) + 1), T_cap = 4 kappa^4 / (1 - sqrt(tau))^2.
    1 - sqrt(tau) is taken as 1 / ((sqrt(kappa) + 1) (1 + sqrt(tau))): the
    difference rounds to 0 once kappa passes about 1e31.  By pass
    j >= J = (sqrt(U/eps) + 2) psi(U/eps), sqrt(T_cap) tau^(j/2) <= zeta_hat
    in exact arithmetic.  Overflow gives inf, not an exception.
    """
    kappa = (U + 2.0 * eps) / eps
    root_kappa = math.sqrt(kappa)
    tau = root_kappa / (root_kappa + 1.0)
    sqrt_t_cap = 2.0 * kappa * kappa * (root_kappa + 1.0) * (1.0 + math.sqrt(tau))
    t = U / eps
    return zeta / (3.0 * kappa), tau, sqrt_t_cap, (math.sqrt(t) + 2.0) * psi(t, zeta)


@dataclass
class CgOutcome:
    """Direction d with its type tag, its curvature and run diagnostics.

    curvature is d^T H d, read off products the run already took: H p for a
    CG direction p, the recurrence's H y for an iterate y, or their
    difference for a pair of iterates.  iterations is the index j of the
    pass that returned; a run without a record to replay took
    iterations + 1 products with CG directions, and a pair return
    iterations more to replay the run; a replayed pass takes none.  cap is
    the final running curvature cap U.
    """

    d: Array
    d_type: str
    curvature: float
    iterations: int
    cap: float


@dataclass
class KrylovRecord:
    """The first min(passes, n) passes of one run at 2 eps_0 = ``two_eps``.

    Pass j keeps (r_j, H r_j, ||r_j||^2, p_j'(H + 2 eps_0 I) p_j).  Empty
    until a run records into it; a record replays only for the H and g it
    was made with, which the caller keeps, and only at a larger eps.
    """

    two_eps: float = math.nan
    passes: list[tuple[Array, Array, float, float]] = field(default_factory=list)


def psi(t: float, zeta: float) -> float:
    """log(144 (sqrt(t + 2) + 1)^2 (t + 2)^6 / zeta^2), summed in logs so it is finite for finite t."""
    return 2.0 * (math.log(12.0 * (math.sqrt(t + 2.0) + 1.0)) - math.log(zeta)) + 6.0 * math.log(t + 2.0)


def _shifted_scalars(passes, delta: float):
    """Jegerlehner's recurrences for the shift H-bar = H-bar_0 + delta I.

    For each recorded pass j + 1, yields (zeta_(j+1), alpha_j, beta_j): the
    residual factor r_(j+1) = zeta_(j+1) r^0_(j+1), the step
    y_(j+1) = y_j + alpha_j p_j and p_(j+1) = -r_(j+1) + beta_j p_j, all from
    the record's alpha^0_j = ||r^0_j||^2 / p^0_j' H-bar_0 p^0_j and
    beta^0_j = ||r^0_(j+1)||^2 / ||r^0_j||^2, with zeta_(-1) = zeta_0 = 1.
    A recorded pass that a later one follows has p' H-bar_0 p >= eps_0 ||p||^2
    > 0, so for delta > 0 every zeta lies in (0, 1].
    """
    z_prev = z = a_prev = 1.0
    b_prev = 0.0
    for (_, _, rr, p_hbar_p), (_, _, rr_next, _) in zip(passes, passes[1:]):
        a, b = rr / p_hbar_p, rr_next / rr
        z_next = z * z_prev * a_prev / (a * b_prev * (z_prev - z) + z_prev * a_prev * (1.0 + a * delta))
        ratio = z_next / z
        yield z_next, a * ratio, ratio * ratio * b
        z_prev, z, a_prev, b_prev = z, z_next, a, b


def _cg_passes(
    hvp: Callable[[Array], Array],
    g: Array,
    two_eps: float,
    record: KrylovRecord | None = None,
    replay: KrylovRecord | None = None,
):
    """Plain CG on (H + 2 eps I) d = -g from d = 0, one product H p per pass.

    Pass j yields y^j, H y^j (by the exact recurrence), ||r^j||^2, p^j and
    ||p^j||^2, H p^j and ||H p^j||^2, ||y^j||^2, ||H y^j||^2,
    ||H r^j||^2 with H r^j = beta H p^(j-1) - H p^j, and
    p^j' (H + 2 eps I) p^j; resuming takes the step alpha = rr / p_hbar_p.
    The vectors live in one 7 x n workspace, so a yielded vector is valid
    only until the pass resumes.  A second run replays the first bit for bit.
    Passes j < n append themselves to ``record``.  With ``replay``, a record
    made at a smaller eps, pass j < len(replay.passes) takes r^j and H r^j
    from it scaled by zeta_j, and H p^j = beta H p^(j-1) - H r^j, instead of
    calling ``hvp``.
    """
    n = g.shape[0]
    work = np.zeros((7, n))
    steps, iterates = work[:3], work[3:6]  # r, y and H y move along H-bar p, p and H p
    hbar_p, p, hp, r, y, hy, hr = work
    np.negative(g, out=p)
    r[:] = g
    beta = 0.0
    replayed = len(replay.passes) if replay is not None else 0
    if replayed:
        shifted = _shifted_scalars(replay.passes, two_eps - replay.two_eps)
        zeta = 1.0
    for j in count():
        if j < replayed:  # H r^j = zeta_j H r^0_j, then H p^j = beta H p^(j-1) - H r^j
            np.multiply(replay.passes[j][1], zeta, out=hr)
            hp *= beta
            hp -= hr
        else:
            hp_new = hvp(p.copy())
            np.multiply(hp, beta, out=hr)  # beta H p^(j-1), before H p^j overwrites it
            hp[:] = hp_new
            hr -= hp
        # A NaN or inf entry of a vector, or a square that overflows, raises
        # here, before it enters p' H p or a test.
        pp, hp_hp, rr, yy, hy_hy, hr_hr = _squared_norm(work[1:]).tolist()
        if not (math.isfinite(rr) and math.isfinite(pp)):
            raise CappedCgError("non-finite CG iterate", j)
        if not math.isfinite(hp_hp):
            # A finite H p with an infinite squared norm makes the cap U infinite.
            finite = np.all(np.isfinite(hp))
            raise CappedCgError("curvature ratio overflow" if finite else "non-finite Hessian-vector product", j)
        if not (math.isfinite(yy) and math.isfinite(hy_hy) and math.isfinite(hr_hr)):
            raise CappedCgError("non-finite ||y||^2, ||H y||^2 or ||H r||^2", j)
        np.multiply(p, two_eps, out=hbar_p)
        hbar_p += hp
        p_hbar_p = float(p.dot(hbar_p))
        if record is not None and j < n:
            record.passes.append((r.copy(), hr.copy(), rr, p_hbar_p))
        yield y, hy, rr, p, pp, hp, hp_hp, yy, hy_hy, hr_hr, p_hbar_p
        if j + 1 < replayed:
            zeta, alpha, beta = next(shifted)
            iterates[1:] += steps[1:] * alpha  # y and H y; r^(j+1) = zeta_(j+1) r^0_(j+1)
            np.multiply(replay.passes[j + 1][0], zeta, out=r)
        else:
            iterates += steps * (rr / p_hbar_p)
            beta = float(_squared_norm(r)) / rr
        p *= beta
        p -= r


def capped_cg(
    hvp: Callable[[Array], Array], g: Array, eps: float, record: KrylovRecord | None = None
) -> CgOutcome:
    """Run capped CG on (H + 2 eps I) d = -g.

    Returns a SOL direction with relative residual below zeta_hat (which
    implies the final residual bound ZETA * eps * ||d|| / 2) or an NC
    direction with d^T H d < -eps ||d||^2 and d^T g <= 0.  An empty
    ``record`` receives the run's first min(passes, n) passes; a filled one,
    made by a run on the same H and g at a smaller eps, is replayed.  Raises
    ``ValueError`` before any product unless g is a vector of real numbers
    (see ``oracle._require_shape``), finite and nonzero, eps
    lies in (0, inf) with 2 eps finite, and a filled record starts from this
    g at a smaller eps.
    """
    g = _require_shape("g must be", g, (length_hint(g, 1),))  # len(g), or 1: only the reader hands g to numpy
    if not np.all(np.isfinite(g)):
        raise ValueError("g must be finite")
    r0_norm = _norm(g)
    if r0_norm == 0.0:
        raise ValueError("g must be nonzero")
    two_eps = 2.0 * eps
    if not (0.0 < eps and math.isfinite(two_eps)):
        raise ValueError(f"eps must lie in (0, inf) with 2 eps finite; got {eps!r}")
    replay = None
    if record is not None and record.passes:
        if not (two_eps > record.two_eps and np.array_equal(record.passes[0][0], g)):
            raise ValueError("a record replays only for its own g and a larger eps")
        replay, record = record, None
    elif record is not None:
        record.two_eps = two_eps

    U = 0.0
    zeta_hat, tau, sqrt_t_cap, j_end = cap_constants(U, eps, ZETA)

    for j, (y, hy, rr, p, pp, hp, hp_hp, yy, hy_hy, hr_hr, p_hbar_p) in enumerate(
        _cg_passes(hvp, g, two_eps, record, replay)
    ):
        # Cap updates, in the printed order: p, then y, then r.
        norm_r = math.sqrt(rr)
        grown = U
        for norm_v, hv_hv in ((math.sqrt(pp), hp_hp), (math.sqrt(yy), hy_hy), (norm_r, hr_hr)):
            norm_hv = math.sqrt(hv_hv)
            if norm_v > 0.0 and norm_hv > U * norm_v:
                U = max(U, norm_hv / norm_v)
        if U > grown:
            zeta_hat, tau, sqrt_t_cap, j_end = cap_constants(U, eps, ZETA)

        y_hy = float(y.dot(hy))
        if y_hy + two_eps * yy < eps * yy:
            return CgOutcome(y.copy(), NC, y_hy, j, U)
        if norm_r <= zeta_hat * r0_norm:
            return CgOutcome(y.copy(), SOL, y_hy, j, U)
        if p_hbar_p < eps * pp:
            return CgOutcome(p.copy(), NC, float(p.dot(hp)), j, U)

        if math.isinf(U / eps):
            raise CappedCgError("curvature ratio overflow", j)
        if not p_hbar_p > 0.0:
            # The curvature tests above keep this positive in exact
            # arithmetic; reaching here means float breakdown.
            raise CappedCgError("loss of positive curvature along p", j)
        if j > 0 and norm_r > sqrt_t_cap * tau ** (j / 2.0) * r0_norm:
            # Residual growth exceeds the convergence envelope: some pair of
            # iterates (y^(j+1), y^i), i < j, must reveal curvature below eps.
            alpha = rr / p_hbar_p
            y_next = y + alpha * p
            hy_next = hy + alpha * hp
            for y_i, hy_i, *_ in islice(_cg_passes(hvp, g, two_eps, replay=replay), j):
                dy = y_next - y_i
                dd = float(_squared_norm(dy))
                dy_hdy = float(dy @ (hy_next - hy_i))
                if dy_hdy + two_eps * dd < eps * dd:
                    return CgOutcome(dy, NC, dy_hdy, j, U)
            raise CappedCgError("residual blow-up without a negative-curvature pair", j)
        if j >= j_end:
            raise CappedCgError("no termination test fired by pass J(U)", j)
