"""Newton-CG driver for nonconvex minimization with known Hessian smoothness.

Hosts the outer loop shared by both drivers.  Each outer iteration with a
large gradient tries damping weights sigma in turn: capped CG on the damped
system (H + 2 (sigma eps_g)^(1/2) I) d = -g, then the full-step test and a
backtracking search on the SOL or scaled NC direction, until one trial
yields a step.  Once the gradient is small and a second-order tolerance
eps_H is requested, a randomized minimum-eigenvalue oracle either certifies
the point or supplies a negative-curvature step.  This module's driver tries
the single weight gamma_nu(eps_g), computed from the smoothness class
(nu, h_nu), with unbounded searches.

Also hosts the direction-scaling rules, the backtracking loop with its SOL,
NC and MEO searches, and the worst-case iteration-bound calculators, which
only tests use: the drivers' budget is the fixed ``max_outer``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import sampling
from .capped_cg import NC, CappedCgError, capped_cg
from .meo import CERTIFICATE, NonFiniteError, minimum_eigenvalue_oracle
from .oracle import CountingOracle, Counters, HolderClass, ProblemOracle

Array = np.ndarray

FOSP = "FOSP"
SOSP_CERTIFIED = "SOSP_certified"
MAX_ITERATIONS = "MaxIterations"
LINE_SEARCH_FAILURE = "LineSearchFailure"
NUMERICAL_FAILURE = "NumericalFailure"

MEO = "MEO"

FULL_STEP = "full_step"
ARMIJO = "armijo"

SMALL_STEP = "small_step"
NO_VALID_J = "no_valid_j"

# The paper's working setting for both drivers: capped CG's tolerance, the backtracking
# factor, the decrease constant, the MEO's failure probability, the backtracking cap.
ZETA = 0.5
THETA = 0.5
ETA = 0.01
DELTA = 0.01
J_MAX = 60


class LineSearchError(RuntimeError):
    """Backtracking exhausted its cap; signals numerical breakdown."""

    def __init__(self, message: str, j: int):
        super().__init__(f"{message} (j = {j})")
        self.j = j


@dataclass(frozen=True)
class NcgParams:
    """Inputs of the known-smoothness driver: tolerances, smoothness class, budget.

    The working setting is fixed as the module constants ZETA, THETA, ETA,
    DELTA and J_MAX.  ``max_outer`` is a fixed cap on outer iterations, not sized from
    ``complexity_bounds``: that bound needs a lower bound on f, and ranges
    from 10 near the optimum to beyond 1e10 at a unit gap.
    """

    eps_g: float
    holder: HolderClass
    eps_H: float | None = None
    max_outer: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_shared(self)


def _validate_shared(params) -> None:
    """Range checks on the fields NcgParams and PfParams share."""
    if not 0.0 < params.eps_g < 1.0:
        raise ValueError("eps_g must lie in (0, 1)")
    if params.eps_H is not None and not 0.0 < params.eps_H < 1.0:
        raise ValueError("eps_H must lie in (0, 1)")
    if params.max_outer < 1:
        raise ValueError("max_outer must be at least 1")


@dataclass
class IterationRecord:
    """One accepted step: type, step size, and the scalars tests replay."""

    step_type: str  # SOL | NC | MEO (drivers); baselines may use their own
    alpha: float
    j: int
    f_before: float
    f_after: float
    grad_norm: float  # gradient norm at the point the step left
    d_norm: float
    sigma: float | None
    inner_iterations: int
    accepted_by: str | None = None  # full_step | armijo for SOL steps; None otherwise


@dataclass
class InnerTrialRecord:
    """One damping trial inside an outer iteration."""

    t: int
    sigma_t: float
    d_type: str
    accepted: bool
    alpha: float | None
    reason: str | None  # small_step | no_valid_j when not accepted
    cg_iterations: int


@dataclass
class SolveResult:
    x_final: Array
    f_final: float
    grad_norm_final: float
    status: str
    status_detail: str | None
    trace: list[IterationRecord]
    counters: Counters


@dataclass
class PfSolveResult(SolveResult):
    trials: list[list[InnerTrialRecord]] = field(default_factory=list)
    gamma_history: list[float] = field(default_factory=list)


@dataclass
class LineSearchOutcome:
    alpha: float
    j: int
    f_new: float


# ---------------------------------------------------------------------------
# Smoothness-derived constants and worst-case bounds.


def gamma_nu(eps_g: float, holder: HolderClass) -> float:
    """Damping scale 4 h_nu^(2/(1+nu)) eps_g^(-(1-nu)/(1+nu)).

    Plays the role of a Hessian Lipschitz constant tuned to the target
    accuracy; equals 4 h_nu when the Hessian is Lipschitz (nu = 1).
    """
    nu, h = holder.nu, holder.h_nu
    return 4.0 * h ** (2.0 / (1.0 + nu)) * eps_g ** (-(1.0 - nu) / (1.0 + nu))


def taylor_error_modulus(delta: float, holder: HolderClass) -> float:
    """Modulus L(delta) of the delta-relaxed quadratic model error.

    The gradient of f stays within L(delta)/2 ||step||^2 + delta of its
    linearization.  The nu = 1 case uses the 0^0 = 1 convention.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    nu, h = holder.nu, holder.h_nu
    return ((1.0 - nu) / (2.0 * delta * (1.0 + nu))) ** (
        (1.0 - nu) / (1.0 + nu)
    ) * h ** (2.0 / (1.0 + nu))


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


def complexity_bounds(
    params: NcgParams, f0: float, f_low: float, *, eta: float = ETA, zeta: float = ZETA, theta: float = THETA
) -> tuple[int, int | None]:
    """Worst-case outer-iteration bounds (K1, K2).

    K2 is None when eps_H is not requested or when nu = 0, where the
    second-order bound is undefined.  The constants default to the driver's.
    """
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    gamma = gamma_nu(params.eps_g, params.holder)
    c1 = min(c_sol(eta, zeta, theta), c_nc(eta, theta))
    k1 = math.ceil((f0 - f_low) / c1 * math.sqrt(gamma) * params.eps_g ** (-1.5)) + 1
    k2: int | None = None
    if params.eps_H is not None and params.holder.nu > 0.0:
        nu = params.holder.nu
        cm = c_meo(eta, theta, params.holder)
        k2 = math.ceil((f0 - f_low) / cm * params.eps_H ** (-(2.0 + nu) / nu)) + 1
    return k1, k2


# ---------------------------------------------------------------------------
# Direction scalings.


def scale_nc_direction(d: Array, curvature: float, g: Array, sigma: float) -> Array:
    """Rescale a raw negative-curvature direction for the line search.

    Returns -sgn(d.g) max{1, 1/sigma} (|d.Hd| / ||d||^3) d, which makes the
    Rayleigh quotient equal -min{1, sigma} ||d|| and keeps d.g <= 0.
    ``curvature`` is d.Hd, which capped CG already computed to classify d.
    """
    dn = float(np.linalg.norm(d))
    if dn == 0.0:
        raise ValueError("negative-curvature direction must be nonzero")
    sign = 1.0 if float(d @ g) >= 0.0 else -1.0
    coef = max(1.0, 1.0 / sigma) * abs(curvature) / dn**3
    return (-sign * coef) * d


def scale_meo_direction(v: Array, curvature: float, g: Array) -> Array:
    """Rescale a unit eigenvalue-oracle direction: -sgn(v.g) |v.Hv| v.

    ``curvature`` is v.Hv, which the oracle already computed to verify v.
    """
    sign = 1.0 if float(v @ g) >= 0.0 else -1.0
    return (-sign * abs(curvature)) * v


# ---------------------------------------------------------------------------
# Line searches.


def _backtrack(
    oracle,
    x: Array,
    d: Array,
    f_x: float,
    decrease: float,
    theta: float,
    j_max: int,
    cap_message: str,
    lower: float = 0.0,
    f_first: float | None = None,
) -> LineSearchOutcome | None:
    """The one backtracking loop behind every search.

    Scans j = 0, 1, ... while theta^j >= lower and accepts the smallest j with
    f(x + theta^j d) <= f_x - decrease theta^(2j).  Returns None once the
    window theta^j >= lower closes; passing j_max inside it raises.
    ``f_first`` recycles an already-computed f(x + d) as the j = 0 trial.
    """
    j = 0
    while theta**j >= lower:
        if j > j_max:
            raise LineSearchError(cap_message, j)
        a = theta**j
        f_trial = f_first if j == 0 and f_first is not None else oracle.eval_f(x + a * d)
        if f_trial <= f_x - decrease * a * a:
            return LineSearchOutcome(a, j, f_trial)
        j += 1
    return None


def line_search_sol(
    oracle,
    x: Array,
    d: Array,
    sigma: float,
    eps_g: float,
    theta: float,
    eta: float,
    j_max: int,
    f_x: float,
    f_full: float | None = None,
) -> LineSearchOutcome:
    """Backtracking for approximate-solution directions.

    Accepts the smallest j with
    f(x + theta^j d) <= f(x) - eta (sigma eps_g)^(1/2) theta^(2j) ||d||^2.
    ``f_full`` recycles an already-computed f(x + d) as the j = 0 trial.
    """
    decrease = eta * math.sqrt(sigma * eps_g) * float(d @ d)
    return _backtrack(
        oracle, x, d, f_x, decrease, theta, j_max, "SOL backtracking exceeded its cap", f_first=f_full
    )


def line_search_nc(
    oracle, x: Array, d: Array, sigma: float, theta: float, eta: float, j_max: int, f_x: float
) -> LineSearchOutcome:
    """Backtracking with the cubic decrease test for negative-curvature steps."""
    decrease = eta * min(1.0, sigma) * float(np.linalg.norm(d)) ** 3 / 4.0
    return _backtrack(oracle, x, d, f_x, decrease, theta, j_max, "NC backtracking exceeded its cap")


def line_search_meo(
    oracle, x: Array, d: Array, theta: float, eta: float, j_max: int, f_x: float
) -> LineSearchOutcome:
    """Backtracking for eigenvalue-oracle steps; alpha = 1 is the j = 0 trial."""
    decrease = eta * float(np.linalg.norm(d)) ** 3 / 2.0
    return _backtrack(oracle, x, d, f_x, decrease, theta, j_max, "MEO backtracking exceeded its cap")


# ---------------------------------------------------------------------------
# Driver.


def _drive(
    oracle: ProblemOracle,
    x0: Array,
    params,
    *,
    weights: Callable[[float], Iterable[float]],
    gamma0: float,
    cg: Callable,
    search_sol: Callable,
    search_nc: Callable,
    parameter_free: bool,
) -> SolveResult:
    """The outer loop of both drivers; ``params`` is an NcgParams or a PfParams.

    ``weights(gamma_prev)`` yields the damping trials of one outer iteration,
    given the weight accepted last (``gamma0`` before the first); the first
    trial whose direction yields a step ends the iteration.  ``search_sol``
    and ``search_nc`` return None when their step-size window closes, which
    moves on to the next trial.  ``cg`` is the caller's own ``capped_cg``
    binding.  The parameter-free driver also rejects SOL directions too short
    for their weight, and gets its trials and gamma history back in a
    PfSolveResult.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (oracle.dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite with shape ({oracle.dim},); got shape {x.shape}")
    co = CountingOracle(oracle)
    counters = co.counters
    fx = co.eval_f(x)
    gx = co.eval_grad(x)
    hvp = lambda v: co.eval_hvp(x, v)

    trace: list[IterationRecord] = []
    trials: list[list[InnerTrialRecord]] = []
    gamma_history: list[float] = []
    gamma_prev = gamma0
    status = MAX_ITERATIONS
    detail: str | None = None

    try:
        for _ in range(params.max_outer):
            gnorm = float(np.linalg.norm(gx))
            if not math.isfinite(gnorm):
                status = NUMERICAL_FAILURE
                detail = f"gradient norm is {gnorm}"
                break
            if gnorm > params.eps_g:
                outer: list[InnerTrialRecord] = []
                trials.append(outer)
                for t, sigma in enumerate(weights(gamma_prev)):
                    counters.subproblems += 1  # counted even if the call breaks down
                    cg_out = cg(hvp, gx, math.sqrt(sigma * params.eps_g), ZETA)
                    reason, accepted_by, grad_new = NO_VALID_J, None, None
                    if cg_out.d_type == NC:
                        d = scale_nc_direction(cg_out.d, cg_out.curvature, gx, sigma)
                        step = search_nc(co, x, d, sigma, THETA, ETA, J_MAX, fx)
                    else:
                        d = cg_out.d
                        f_full = co.eval_f(x + d)
                        grad_full = co.eval_grad(x + d) if f_full <= fx else None
                        if grad_full is not None and float(np.linalg.norm(grad_full)) <= params.eps_g:
                            step, accepted_by = LineSearchOutcome(1.0, 0, f_full), FULL_STEP
                        elif parameter_free and 6.0 * float(np.linalg.norm(d)) < math.sqrt(params.eps_g / sigma):
                            step, reason = None, SMALL_STEP
                        else:
                            step = search_sol(co, x, d, sigma, params.eps_g, THETA, ETA, J_MAX, fx, f_full)
                            accepted_by = ARMIJO
                        if step is not None and step.j == 0:
                            grad_new = grad_full
                    if step is not None:
                        outer.append(InnerTrialRecord(t, sigma, cg_out.d_type, True, step.alpha, None, cg_out.iterations))
                        break
                    outer.append(InnerTrialRecord(t, sigma, cg_out.d_type, False, None, reason, cg_out.iterations))
                else:
                    status = LINE_SEARCH_FAILURE
                    detail = f"damping trial limit t_max = {len(outer)} exhausted"
                    break
                gamma_prev = sigma
                step_type, step_sigma, inner = cg_out.d_type, sigma, cg_out.iterations
            elif params.eps_H is None:
                status = FOSP
                break
            else:
                call = counters.meo_calls
                counters.meo_calls += 1
                meo = minimum_eigenvalue_oracle(
                    hvp,
                    co.dim,
                    params.eps_H,
                    DELTA,
                    seed=params.seed,
                    stream=sampling.STREAM_MEO_START + call,
                )
                if meo.kind == CERTIFICATE:
                    status = SOSP_CERTIFIED
                    detail = f"norm bound: {meo.bound}"
                    break
                d = scale_meo_direction(meo.v, meo.curvature, gx)
                step = line_search_meo(co, x, d, THETA, ETA, J_MAX, fx)
                trials.append([])
                step_type, step_sigma, inner, accepted_by, grad_new = MEO, None, meo.iterations, None, None
            gamma_history.append(gamma_prev)  # weight carried through MEO steps
            trace.append(
                IterationRecord(
                    step_type=step_type,
                    alpha=step.alpha,
                    j=step.j,
                    f_before=fx,
                    f_after=step.f_new,
                    grad_norm=gnorm,
                    d_norm=float(np.linalg.norm(d)),
                    sigma=step_sigma,
                    inner_iterations=inner,
                    accepted_by=accepted_by,
                )
            )
            x = x + step.alpha * d
            fx = step.f_new
            gx = grad_new if grad_new is not None else co.eval_grad(x)
    except LineSearchError as err:
        status = LINE_SEARCH_FAILURE
        detail = str(err)
    except NonFiniteError as err:
        status = NUMERICAL_FAILURE
        detail = f"eigenvalue oracle: {err}"
    except OverflowError as err:  # e.g. ||d||^3 of a runaway NC direction
        status = NUMERICAL_FAILURE
        detail = f"overflow: {err}"
    except CappedCgError as err:  # e.g. a NaN Hessian-vector product
        status = NUMERICAL_FAILURE
        detail = f"capped CG: {err}"

    result = SolveResult(x, fx, float(np.linalg.norm(gx)), status, detail, trace, counters)
    if not parameter_free:
        return result
    return PfSolveResult(**vars(result), trials=trials, gamma_history=gamma_history)


def newton_cg_solve(
    oracle: ProblemOracle, x0: Array, params: NcgParams
) -> SolveResult:
    """Minimize via damped-Newton capped-CG steps with known (nu, h_nu).

    Terminates at FOSP (gradient norm <= eps_g) when eps_H is absent, or at
    SOSP_certified once the eigenvalue oracle certifies the Hessian (with
    ``status_detail`` naming the certificate's norm bound); returns
    MaxIterations / LineSearchFailure with the full trace otherwise, and
    NumericalFailure when the gradient norm or the eigenvalue oracle's
    Lanczos data is not finite, when capped CG breaks down, or when a step
    computation overflows.  Raises ``ValueError`` before any evaluation
    unless x0 is a finite (dim,) vector.
    """
    gamma = gamma_nu(params.eps_g, params.holder)
    return _drive(
        oracle,
        x0,
        params,
        weights=lambda _: (gamma,),
        gamma0=gamma,
        cg=capped_cg,
        search_sol=line_search_sol,
        search_nc=line_search_nc,
        parameter_free=False,
    )
