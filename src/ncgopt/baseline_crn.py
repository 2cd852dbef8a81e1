"""Adaptive cubic-regularized Newton baseline.

A deliberately simple comparison method: each outer iteration minimizes the
cubic model m(s) = g's + s'Hs/2 + (M/3)||s||^3 by gradient descent from a
random point on the unit sphere, accepts the step when f(x+s) <= f(x) +
m(s)/2, and adapts the weight M (double on rejection, halve on acceptance,
floored at H0/16).  Subproblem tolerances follow the gradient norm down:
tol_k = min(0.1, ||grad f(x_k)|| / 10).

These rules, the initial weight H0 and the caps MAX_SUB_ITERS and
MAX_WEIGHT_DOUBLINGS are fixed constants and this package's own choices;
comparisons against the Newton-CG drivers are qualitative (ordering and
order of magnitude), never bit-level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .meo import NonFiniteError
from .newton_cg import (
    FOSP,
    LINE_SEARCH_FAILURE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    IterationRecord,
    SolveResult,
)
from .oracle import CountingOracle, ProblemOracle

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
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class CubicSubproblemResult:
    s: Array
    model_value: float
    grad_norm: float
    iterations: int
    converged: bool


def _model_value(g: Array, hs: Array, s: Array, weight: float) -> float:
    return float(g @ s + 0.5 * s @ hs + weight / 3.0 * np.linalg.norm(s) ** 3)


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
    operator (or a start vector annihilated by H).
    """
    floor = 1e-12
    x = sampling.unit_vector(seed, n, stream)
    rayleigh = 0.0
    for _ in range(iters):
        hx = np.asarray(hvp(x), dtype=float)
        z = np.asarray(hvp(hx), dtype=float)
        nz = float(np.linalg.norm(z))
        rayleigh = float(x @ z)  # equals ||H x||^2 for unit x
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
    iteration monotone in m without extra Hessian products per trial.
    Raises ``NonFiniteError`` when the model gradient is NaN or infinite.
    """
    if not weight > 0.0:
        raise ValueError("weight must be positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    s = np.array(s0, dtype=float)
    hs = np.asarray(hvp(s), dtype=float)
    m_val = _model_value(g, hs, s, weight)
    damping = 1.0
    grad_norm = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        gm = g + hs + weight * float(np.linalg.norm(s)) * s
        grad_norm = float(np.linalg.norm(gm))
        if not math.isfinite(grad_norm):
            raise NonFiniteError("non-finite cubic-model gradient")
        if grad_norm <= tol:
            return CubicSubproblemResult(s, m_val, grad_norm, iterations - 1, True)
        step = damping / (lipschitz_hint + 2.0 * weight * float(np.linalg.norm(s)) + 1e-12)
        s_try = s - step * gm
        hs_try = np.asarray(hvp(s_try), dtype=float)
        m_try = _model_value(g, hs_try, s_try, weight)
        if m_try <= m_val:
            s, hs, m_val = s_try, hs_try, m_try
            damping = min(1.0, damping * 1.25)
        else:
            damping *= 0.5
    return CubicSubproblemResult(s, m_val, grad_norm, iterations, False)


def acrn_solve(
    oracle: ProblemOracle, x0: Array, eps_g: float, params: CrnParams
) -> SolveResult:
    """Adaptive cubic-regularized Newton outer loop.

    Counts one subproblem per cubic model solved, including rejected trials.
    Ends with NumericalFailure when the gradient norm or a cubic model's
    gradient is not finite.  Raises ``ValueError`` before any evaluation
    unless eps_g lies in (0, 1) and x0 is a finite (dim,) vector.
    """
    if not 0.0 < eps_g < 1.0:
        raise ValueError("eps_g must lie in (0, 1)")
    x = np.array(x0, dtype=float)
    if x.shape != (oracle.dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite with shape ({oracle.dim},); got shape {x.shape}")
    co = CountingOracle(oracle)
    fx = co.eval_f(x)
    n = co.dim

    weight = H0
    floor = H0 / 16.0
    counters = co.counters
    trace: list[IterationRecord] = []
    status = MAX_ITERATIONS
    detail: str | None = None
    gx = co.eval_grad(x)
    draw = 0

    for _ in range(params.max_outer):
        gnorm = float(np.linalg.norm(gx))
        if not math.isfinite(gnorm):
            status = NUMERICAL_FAILURE
            detail = f"gradient norm is {gnorm}"
            break
        if gnorm <= eps_g:
            status = FOSP
            break
        hvp = lambda v: co.eval_hvp(x, v)
        norm_h = estimate_operator_norm(
            hvp, n, seed=params.seed, stream=sampling.STREAM_NORM_EST + draw, iters=20
        )
        tol = min(0.1, gnorm / 10.0)
        attempts = 0
        stepped = False
        while attempts <= MAX_WEIGHT_DOUBLINGS:
            s0 = sampling.unit_vector(
                params.seed, n, stream=sampling.STREAM_CRN_SUBPROBLEM + draw
            )
            draw += 1
            try:
                sub = cubic_subproblem_gd(
                    gx, hvp, weight, tol, s0, MAX_SUB_ITERS, lipschitz_hint=norm_h
                )
            except NonFiniteError as err:
                detail = f"cubic subproblem: {err}"
                break
            counters.subproblems += 1
            f_try = co.eval_f(x + sub.s)
            # Accept only genuine model decrease; keeps f monotone.
            if sub.model_value <= 0.0 and f_try <= fx + 0.5 * sub.model_value:
                trace.append(
                    IterationRecord(
                        step_type=CRN,
                        alpha=1.0,
                        j=attempts,
                        f_before=fx,
                        f_after=f_try,
                        grad_norm=gnorm,
                        d_norm=float(np.linalg.norm(sub.s)),
                        sigma=weight,
                        inner_iterations=sub.iterations,
                        accepted_by=None,
                    )
                )
                x = x + sub.s
                fx = f_try
                weight = max(weight * 0.5, floor)
                stepped = True
                break
            weight *= 2.0
            attempts += 1
        if detail is not None:
            status = NUMERICAL_FAILURE
            break
        if not stepped:
            status = LINE_SEARCH_FAILURE
            detail = "cubic step rejected at every trial weight"
            break
        gx = co.eval_grad(x)

    return SolveResult(
        x_final=x,
        f_final=fx,
        grad_norm_final=float(np.linalg.norm(gx)),
        status=status,
        status_detail=detail,
        trace=trace,
        counters=counters,
    )
