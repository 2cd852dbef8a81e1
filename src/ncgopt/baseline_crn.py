"""Adaptive cubic-regularized Newton baseline.

A deliberately simple comparison method in the style of Cartis, Gould and
Toint (2011, *Adaptive cubic regularisation methods*, Part I), run on the
drivers' outer loop (``newton_cg._drive``) with its own damping trial.
Each trial minimizes the cubic model m(s) = g's + s'Hs/2 + (M/3)||s||^3 by
gradient descent from a random point on the unit sphere and accepts the
step when f(x+s) <= f(x) + m(s)/2.  The trial weights of an outer iteration
are M_t = 2^t max{H0/16, M_prev/2}, t <= MAX_WEIGHT_DOUBLINGS, where M_prev
is the weight accepted last (2 H0 before the first, so that M_0 = H0):
double on rejection, halve on acceptance, floored at H0/16.  Subproblem
tolerances follow the gradient norm down: tol_k = min(0.1, ||grad f(x_k)|| /
10).  The gradient-descent step size comes from a power-iteration estimate
of ||H||, taken once per iterate, when the loop hands the iterate to its
trials.  The loop's statuses apply: a non-finite objective, gradient norm,
estimate or model gradient ends the solve in NumericalFailure, and running
out of trial weights in LineSearchFailure (``damping trial limit t_max =
61 exhausted``).

These rules and the constants H0, MAX_SUB_ITERS and MAX_WEIGHT_DOUBLINGS
are this package's own choices; comparisons against the Newton-CG drivers
are qualitative (ordering and order of magnitude), never bit-level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .meo import NonFiniteError, _norm
from .newton_cg import NO_VALID_J, LineSearchOutcome, SolveResult, _cube, _drive, _validate_budget
from .oracle import ProblemOracle, _integer
from .pf_newton_cg import PfParams

Array = np.ndarray

CRN = "CRN"

H0 = 10.0
MAX_SUB_ITERS = 2000
MAX_WEIGHT_DOUBLINGS = 60


@dataclass(frozen=True)
class CrnParams:
    """Outer-iteration cap and sampling seed."""

    max_outer: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_budget(self)


@dataclass
class CubicSubproblemResult:
    s: Array
    model_value: float
    grad_norm: float
    iterations: int
    converged: bool


def _model_value(g: Array, hs: Array, s: Array, norm_s: float, weight: float) -> float:
    return float(g.dot(s)) + 0.5 * float(s.dot(hs)) + weight / 3.0 * _cube(norm_s, "cubic model")


def estimate_operator_norm(
    hvp: Callable[[Array], Array],
    n: int,
    seed: int = 0,
    stream: int = sampling.STREAM_NORM_EST,
    iters: int = 50,
) -> float:
    """Upper-style estimate of ||H|| by power iteration on H^2, inflated by 1.1.

    Sets the gradient-descent step size of the cubic subproblem.
    Deterministic given (seed, stream); returns the floor 1e-12 for a zero
    operator (or a start vector annihilated by H).  Raises ``NonFiniteError``
    as soon as a power step's H x or H^2 x is not finite, before it enters
    a product.  Raises ``ValueError`` before any product unless ``iters`` is a
    positive integer.
    """
    iters = _integer(iters, "iters", positive=True)
    floor = 1e-12
    x = sampling.unit_vector(seed, n, stream)
    rayleigh = 0.0
    for step in range(1, iters + 1):
        hx = np.asarray(hvp(x), dtype=float)
        if not np.all(np.isfinite(hx)):
            raise NonFiniteError(f"operator-norm estimate: power step {step} gives a non-finite H x")
        z = np.asarray(hvp(hx), dtype=float)
        nz = _norm(z)  # inf when the square of a finite H^2 x overflows
        if not math.isfinite(nz):
            raise NonFiniteError(f"operator-norm estimate: power step {step} gives ||H^2 x|| = {nz}")
        rayleigh = float(x.dot(z))  # equals ||H x||^2 for unit x, and |x'z| <= ||z||
        if nz <= floor or rayleigh <= floor**2:
            return floor
        x = z / nz
    return 1.1 * math.sqrt(rayleigh)


def cubic_subproblem_gd(
    g: Array,
    hvp: Callable[[Array], Array],
    weight: float,
    tol: float,
    s0: Array,
    max_iters: int,
    lipschitz_hint: float,
) -> CubicSubproblemResult:
    """Gradient descent on the cubic model until ||grad m(s)|| <= tol.

    Steps 1/(L + 2 M ||s||) with L = ``lipschitz_hint``, an operator-norm
    bound on H such as ``estimate_operator_norm`` gives; a persistent
    damping factor halves on model increase and recovers slowly, keeping the
    iteration monotone in m without extra Hessian products per trial.  Each
    step's scalar products are single BLAS calls (``ndarray.dot``).  Raises
    ``ValueError`` before any product unless weight and tol are positive and
    0 <= L < inf, and ``NonFiniteError`` when the model gradient is NaN or
    infinite.
    """
    if not weight > 0.0:
        raise ValueError("weight must be positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not 0.0 <= lipschitz_hint < math.inf:
        raise ValueError(f"lipschitz_hint must lie in [0, inf); got {lipschitz_hint!r}")
    g = np.asarray(g, dtype=float)
    s = np.array(s0, dtype=float)
    hs = np.asarray(hvp(s), dtype=float)
    norm_s = _norm(s)
    m_val = _model_value(g, hs, s, norm_s, weight)
    damping = 1.0
    grad_norm = math.inf
    iterations = 0
    gm, scaled = np.empty_like(s), np.empty_like(s)  # the model gradient, then a scaled vector
    add, multiply, asarray, norm, isfinite, model = np.add, np.multiply, np.asarray, _norm, math.isfinite, _model_value
    for iterations in range(1, max_iters + 1):
        add(g, hs, out=gm)
        gm += multiply(s, weight * norm_s, out=scaled)
        grad_norm = norm(gm)
        if not isfinite(grad_norm):
            raise NonFiniteError("cubic subproblem: non-finite cubic-model gradient")
        if grad_norm <= tol:
            return CubicSubproblemResult(s, m_val, grad_norm, iterations - 1, True)
        step = damping / (lipschitz_hint + 2.0 * weight * norm_s + 1e-12)
        s_try = s - multiply(gm, step, out=scaled)
        hs_try = asarray(hvp(s_try), dtype=float)
        norm_try = norm(s_try)
        m_try = model(g, hs_try, s_try, norm_try, weight)
        if m_try <= m_val:
            s, hs, norm_s, m_val = s_try, hs_try, norm_try, m_try
            damping = min(1.0, damping * 1.25)
        else:
            damping *= 0.5
    return CubicSubproblemResult(s, m_val, grad_norm, iterations, False)


def acrn_solve(
    oracle: ProblemOracle, x0: Array, eps_g: float, params: CrnParams
) -> SolveResult:
    """Adaptive cubic-regularized Newton on the drivers' outer loop.

    Per iterate, ``trials_at`` estimates ||H|| and sets the subproblem
    tolerance once; each trial then solves one cubic model.  The norm
    estimate and each model's start point draw from sampling streams
    numbered by the cubic models counted before them, as the MEO's streams
    are numbered by its calls.  Counts one subproblem per cubic model
    solved, including rejected trials.
    Ends with NumericalFailure when the objective, the gradient norm, the
    operator-norm estimate or a cubic model's gradient is not finite, and
    with LineSearchFailure when no trial weight is accepted.  Raises
    ``ValueError`` before any evaluation unless eps_g lies in (0, 1) and x0
    is a finite (dim,) vector of real numbers.
    """
    # The loop reads eps_g, eps_H, max_outer and seed off its params record.
    loop_params = PfParams(eps_g, max_outer=params.max_outer, seed=params.seed)

    def trials_at(co, hvp, x, fx, gx):
        # The cubic models counted so far number the sampling streams.
        counters = co.counters
        norm_h = estimate_operator_norm(
            hvp, co.dim, seed=params.seed, stream=sampling.STREAM_NORM_EST + counters.subproblems, iters=20
        )
        tol = min(0.1, _norm(gx) / 10.0)

        def trial(t, weight):
            s0 = sampling.unit_vector(params.seed, co.dim, stream=sampling.STREAM_CRN_SUBPROBLEM + counters.subproblems)
            sub = cubic_subproblem_gd(gx, hvp, weight, tol, s0, MAX_SUB_ITERS, lipschitz_hint=norm_h)
            counters.subproblems += 1
            f_try = co.eval_f(x + sub.s)
            # Accept only genuine model decrease; keeps f monotone.
            accepted = sub.model_value <= 0.0 and f_try <= fx + 0.5 * sub.model_value
            return CRN, sub.s, sub.iterations, LineSearchOutcome(1.0, t, f_try) if accepted else NO_VALID_J

        return trial

    # Double on rejection, halve on acceptance, floored at H0/16; starts at H0.
    weights = lambda prev: (max(H0 / 16.0, prev / 2.0) * 2.0**t for t in range(MAX_WEIGHT_DOUBLINGS + 1))
    return _drive(oracle, x0, loop_params, weights=weights, gamma0=2.0 * H0, trials_at=trials_at)[0]
