"""Newton-CG driver for nonconvex minimization with known Hessian smoothness.

Hosts the one outer loop of all three solvers.  Each outer iteration with a
large gradient tries damping weights sigma in turn, one solver-specific
trial each, until one trial yields a step.  The drivers' trial runs capped
CG on the damped system (H + 2 (sigma eps_g)^(1/2) I) d = -g, then the
full-step test and a backtracking search on the SOL or scaled NC direction.
Once the gradient is small and a second-order tolerance eps_H is requested,
a randomized minimum-eigenvalue oracle either certifies the point or
supplies a negative-curvature step.  This module's driver tries the single
weight gamma_nu(eps_g), computed from the smoothness class (nu, h_nu), with
unbounded searches.

Also hosts the direction-scaling rules and the backtracking loop with its
SOL, NC and MEO searches.  The drivers' budget is the fixed ``max_outer``;
the paper's worst-case iteration bounds are in ``ncgopt.bounds``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import sampling
from .capped_cg import NC, CappedCgError, KrylovRecord, capped_cg
from .meo import CERTIFICATE, NonFiniteError, _norm, _squared_norm, minimum_eigenvalue_oracle
from .oracle import CountingOracle, Counters, HolderClass, ProblemOracle, _integer, _require_shape

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

# The line searches' working setting for both drivers: the backtracking factor, the
# decrease constant and the backtracking cap.  ZETA lives in capped_cg, DELTA in meo.
THETA = 0.5
ETA = 0.01
J_MAX = 60


class LineSearchError(RuntimeError):
    """Backtracking exhausted its cap; signals numerical breakdown."""

    def __init__(self, message: str, j: int):
        super().__init__(f"{message} (j = {j})")
        self.j = j


@dataclass(frozen=True)
class NcgParams:
    """Inputs of the known-smoothness driver: tolerances, smoothness class, budget.

    The working setting is fixed as module constants: THETA, ETA and J_MAX
    here, ``capped_cg.ZETA`` and ``meo.DELTA``.  ``max_outer`` is a fixed cap on
    outer iterations, not sized from ``bounds.complexity_bounds``: that bound needs
    a lower bound on f, and ranges from 10 near the optimum to beyond 1e10 at a unit gap.
    A ``holder`` whose damping weight gamma_nu(eps_g, holder), times eps_g, underflows
    to 0 or overflows raises ``ValueError``: capped CG could not run on it.
    """

    eps_g: float
    holder: HolderClass
    eps_H: float | None = None
    max_outer: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_shared(self)
        try:
            gamma = gamma_nu(self.eps_g, self.holder)
        except OverflowError:
            gamma = math.inf
        if not 0.0 < gamma * self.eps_g < math.inf:  # capped CG's weight is sqrt(gamma eps_g)
            raise ValueError(f"gamma_nu(eps_g, holder) times eps_g must be positive and finite; got gamma_nu {gamma!r}")


def _validate_shared(params) -> None:
    """Range checks on the fields NcgParams and PfParams share."""
    if not 0.0 < params.eps_g < 1.0:
        raise ValueError("eps_g must lie in (0, 1)")
    if params.eps_H is not None and not 0.0 < params.eps_H < 1.0:
        raise ValueError("eps_H must lie in (0, 1)")
    _validate_budget(params)


def _validate_budget(params) -> None:
    """Checks on ``max_outer`` and ``seed``, which every params record has: integers but bools, stored as ints."""
    for name in ("max_outer", "seed"):
        object.__setattr__(params, name, _integer(getattr(params, name), name))  # the records are frozen
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


@dataclass(frozen=True)
class LineSearchOutcome:
    """An accepted step size.  A damping trial adds how a SOL step was accepted."""

    alpha: float
    j: int
    f_new: float
    accepted_by: str | None = None  # full_step | armijo for SOL steps; None otherwise


def gamma_nu(eps_g: float, holder: HolderClass) -> float:
    """Damping scale 4 h_nu^(2/(1+nu)) eps_g^(-(1-nu)/(1+nu)).

    Plays the role of a Hessian Lipschitz constant tuned to the target
    accuracy; equals 4 h_nu when the Hessian is Lipschitz (nu = 1).
    """
    nu, h = holder.nu, holder.h_nu
    return 4.0 * h ** (2.0 / (1.0 + nu)) * eps_g ** (-(1.0 - nu) / (1.0 + nu))


# ---------------------------------------------------------------------------
# Direction scalings.


def _cube(norm: float, step: str) -> float:
    """norm ** 3; an overflow raises ``NonFiniteError`` naming ``step`` and the norm."""
    try:
        return norm**3
    except OverflowError:
        raise NonFiniteError(f"{step}: the cube of the norm {norm!r} overflows") from None


def scale_nc_direction(d: Array, curvature: float, g: Array, sigma: float) -> Array:
    """Rescale a raw negative-curvature direction for the line search.

    Returns -sgn(d.g) max{1, 1/sigma} (|d.Hd| / ||d||^3) d, which makes the
    Rayleigh quotient equal -min{1, sigma} ||d|| and keeps d.g <= 0.
    ``curvature`` is d.Hd, which capped CG already computed to classify d.
    """
    dn = _norm(d)
    if dn == 0.0:
        raise ValueError("negative-curvature direction must be nonzero")
    sign = 1.0 if float(d @ g) >= 0.0 else -1.0
    coef = max(1.0, 1.0 / sigma) * abs(curvature) / _cube(dn, "NC direction scaling")
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
    oracle, x: Array, d: Array, f_x: float, decrease: float, cap_message: str, lower: float = 0.0
) -> LineSearchOutcome | None:
    """The one backtracking loop behind every search.

    Scans j = 0, 1, ... while THETA^j >= lower and accepts the smallest j with
    f(x + THETA^j d) <= f_x - decrease THETA^(2j).  Returns None once the
    window THETA^j >= lower closes; passing J_MAX inside it raises.
    """
    j = 0
    while THETA**j >= lower:
        if j > J_MAX:
            raise LineSearchError(cap_message, j)
        a = THETA**j
        f_trial = oracle.eval_f(x + a * d)
        if f_trial <= f_x - decrease * a * a:
            return LineSearchOutcome(a, j, f_trial)
        j += 1
    return None


def line_search_sol(oracle, x: Array, d: Array, sigma: float, eps_g: float, f_x: float) -> LineSearchOutcome:
    """Backtracking for approximate-solution directions.

    Accepts the smallest j with
    f(x + THETA^j d) <= f(x) - ETA (sigma eps_g)^(1/2) THETA^(2j) ||d||^2.
    """
    decrease = ETA * math.sqrt(sigma * eps_g) * float(_squared_norm(d))
    return _backtrack(oracle, x, d, f_x, decrease, "SOL backtracking exceeded its cap")


def line_search_nc(oracle, x: Array, d: Array, sigma: float, f_x: float) -> LineSearchOutcome:
    """Backtracking with the cubic decrease test for negative-curvature steps."""
    decrease = ETA * min(1.0, sigma) * _cube(_norm(d), "NC search") / 4.0
    return _backtrack(oracle, x, d, f_x, decrease, "NC backtracking exceeded its cap")


def line_search_meo(oracle, x: Array, d: Array, f_x: float) -> LineSearchOutcome:
    """Backtracking for eigenvalue-oracle steps; alpha = 1 is the j = 0 trial."""
    decrease = ETA * _cube(_norm(d), "MEO search") / 2.0
    return _backtrack(oracle, x, d, f_x, decrease, "MEO backtracking exceeded its cap")


# ---------------------------------------------------------------------------
# Driver.


def _newton_trial(eps_g: float, cg: Callable, search_sol: Callable, search_nc: Callable, parameter_free: bool):
    """The damping trials of both drivers, as ``_drive``'s ``trials_at``.

    Each trial runs ``cg``, the caller's own ``capped_cg`` binding, on the
    damped system; then ``search_nc`` on the scaled NC direction, or the
    full-step test and ``search_sol`` on a SOL direction.  The
    parameter-free driver's trials reject SOL directions too short for their
    weight.  That driver also tries growing weights at one point, so
    ``trials_at`` gives the point one ``KrylovRecord``: its first trial
    records the capped-CG passes and the later ones replay them.
    """

    def trials_at(co, hvp, x, fx, gx):
        record = KrylovRecord() if parameter_free else None

        def trial(t, sigma):
            co.counters.subproblems += 1  # counted even if the call breaks down
            cg_out = cg(hvp, gx, math.sqrt(sigma * eps_g), record)
            d = scale_nc_direction(cg_out.d, cg_out.curvature, gx, sigma) if cg_out.d_type == NC else cg_out.d
            if cg_out.d_type == NC:
                step = search_nc(co, x, d, sigma, fx)
            else:
                f_full = co.eval_f(x + d)
                if f_full <= fx and _norm(co.eval_grad(x + d)) <= eps_g:
                    step = LineSearchOutcome(1.0, 0, f_full, FULL_STEP)
                elif parameter_free and 6.0 * _norm(d) < math.sqrt(eps_g / sigma):
                    step = SMALL_STEP
                else:
                    step = search_sol(co, x, d, sigma, eps_g, fx)
                    if step is not None:
                        step = LineSearchOutcome(step.alpha, step.j, step.f_new, ARMIJO)
            return cg_out.d_type, d, cg_out.iterations, NO_VALID_J if step is None else step

        return trial

    return trials_at


@np.errstate(over="ignore")
def _drive(
    oracle: ProblemOracle,
    x0: Array,
    params,
    *,
    weights: Callable[[float], Iterable[float]],
    gamma0: float,
    trials_at: Callable,
) -> tuple[SolveResult, list[list[InnerTrialRecord]], list[float]]:
    """The one outer loop of all three solvers; ``params`` is an NcgParams or a PfParams.

    ``weights(gamma_prev)`` yields the damping weights of one outer
    iteration, given the weight accepted last (``gamma0`` before the first).
    Before an iteration's trials the loop binds ``hvp = co.hvp_at(x)`` and
    hands the point to ``trials_at(co, hvp, x, fx, gx)`` once, with x's value
    fx and gradient gx; whatever a solver keeps per point, it sets up there.
    The ``trial`` it returns is then called as ``trial(t, sigma)`` for the
    t-th weight sigma, takes every product at x through ``hvp`` and counts
    its own subproblem.  It returns four values: the step type, the
    direction d, the inner iteration count and the step.  The step is a
    LineSearchOutcome, which carries ``accepted_by``, or the rejection
    reason (``small_step`` or ``no_valid_j``) to move on to the next weight.
    The first trial with a step ends the iteration; running out of weights
    ends the solve in LineSearchFailure.  Each iteration starts a fresh memo
    of f and gradient values (``co.new_iterate``), so its trials evaluate
    each point once, and the gradient read at the accepted point is a hit
    when the full-step test took it.  Returns the result, the trials of
    every outer iteration and the weight carried out of each.  An overflow
    during the solve gives inf quietly, whatever numpy's settings, and the
    loop's finiteness tests turn it into NumericalFailure: one errstate per
    solve, not one per norm.

    The loop binds ``co.hvp_at`` only where it takes products: before
    damping trials and for each eigenvalue-oracle call.  A generated oracle
    computes x's Hessian when it is bound, so an iterate at which the solve
    stops builds none.  The evaluations at x0 run inside the loop's
    exception handling, so an exception there also ends the solve in a
    status.  f_final and grad_norm_final are those of x_final, NaN when they
    were never computed (as when the gradient at a new iterate raises).
    """
    x = _require_shape("x0 must be", x0, (oracle.dim,)).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    co = CountingOracle(oracle)
    counters = co.counters
    fx, gx = math.nan, None  # until they are evaluated at x0

    trace: list[IterationRecord] = []
    trials: list[list[InnerTrialRecord]] = []
    gamma_history: list[float] = []
    gamma_prev = gamma0
    status = MAX_ITERATIONS
    detail: str | None = None

    try:
        fx = co.eval_f(x)
        gx = co.eval_grad(x)
        for _ in range(params.max_outer):
            co.new_iterate()
            gnorm = _norm(gx)
            if not (math.isfinite(fx) and math.isfinite(gnorm)):
                status = NUMERICAL_FAILURE
                detail = f"objective is {fx}" if not math.isfinite(fx) else f"gradient norm is {gnorm}"
                break
            if gnorm > params.eps_g:
                outer: list[InnerTrialRecord] = []
                trials.append(outer)
                trial = trials_at(co, co.hvp_at(x), x, fx, gx)
                for t, sigma in enumerate(weights(gamma_prev)):
                    step_type, d, inner, step = trial(t, sigma)
                    if isinstance(step, LineSearchOutcome):
                        outer.append(InnerTrialRecord(t, sigma, step_type, True, step.alpha, None, inner))
                        break
                    outer.append(InnerTrialRecord(t, sigma, step_type, False, None, step, inner))
                else:
                    status = LINE_SEARCH_FAILURE
                    detail = f"damping trial limit t_max = {len(outer)} exhausted"
                    break
                gamma_prev = step_sigma = sigma
            elif params.eps_H is None:
                status = FOSP
                break
            else:
                call = counters.meo_calls
                counters.meo_calls += 1
                meo = minimum_eigenvalue_oracle(
                    co.hvp_at(x), co.dim, params.eps_H, seed=params.seed, stream=sampling.STREAM_MEO_START + call
                )
                if meo.kind == CERTIFICATE:
                    status = SOSP_CERTIFIED
                    detail = f"Lanczos: k = {meo.iterations} of n = {co.dim}"
                    break
                d = scale_meo_direction(meo.v, meo.curvature, gx)
                step = line_search_meo(co, x, d, fx)
                trials.append([])
                step_type, step_sigma, inner = MEO, None, meo.iterations
            gamma_history.append(gamma_prev)  # weight carried through MEO steps
            trace.append(
                IterationRecord(
                    step_type=step_type,
                    alpha=step.alpha,
                    j=step.j,
                    f_before=fx,
                    f_after=step.f_new,
                    grad_norm=gnorm,
                    d_norm=_norm(d),
                    sigma=step_sigma,
                    inner_iterations=inner,
                    accepted_by=step.accepted_by,
                )
            )
            x = x + step.alpha * d
            fx, gx = step.f_new, None  # no stale gradient if the next read raises
            gx = co.eval_grad(x)
    except LineSearchError as err:
        status = LINE_SEARCH_FAILURE
        detail = str(err)
    except NonFiniteError as err:  # its message names its source
        status = NUMERICAL_FAILURE
        detail = str(err)
    except OverflowError as err:  # e.g. a Python float power in an oracle callback
        status = NUMERICAL_FAILURE
        detail = f"overflow: {err}"
    except CappedCgError as err:  # e.g. a NaN Hessian-vector product
        status = NUMERICAL_FAILURE
        detail = f"capped CG: {err}"

    grad_norm = math.nan if gx is None else _norm(gx)
    return SolveResult(x, fx, grad_norm, status, detail, trace, counters), trials, gamma_history


def newton_cg_solve(
    oracle: ProblemOracle, x0: Array, params: NcgParams
) -> SolveResult:
    """Minimize via damped-Newton capped-CG steps with known (nu, h_nu).

    Terminates at FOSP (gradient norm <= eps_g) when eps_H is absent, or at
    SOSP_certified once the eigenvalue oracle certifies the Hessian from a
    Lanczos run to an exactly invariant subspace or to k = n (with
    ``status_detail`` ``Lanczos: k = <k> of n = <n>``); returns
    MaxIterations / LineSearchFailure with the full trace otherwise, and
    NumericalFailure when the objective, the gradient norm or the
    eigenvalue oracle's Lanczos data is not finite, when capped CG breaks
    down, or when a step computation overflows.  Raises ``ValueError`` before
    any evaluation unless x0 is a finite (dim,) vector of real numbers
    (integer or floating-point dtype).
    """
    gamma = gamma_nu(params.eps_g, params.holder)
    trials_at = _newton_trial(params.eps_g, capped_cg, line_search_sol, line_search_nc, parameter_free=False)
    return _drive(oracle, x0, params, weights=lambda _: (gamma,), gamma0=gamma, trials_at=trials_at)[0]
