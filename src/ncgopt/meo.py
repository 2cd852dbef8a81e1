"""Randomized Lanczos minimum-eigenvalue oracle.

Runs Lanczos from a random unit start.  Either a unit direction v with
v^T H v <= -eps/2 turns up (outcome ``direction``) or the run certifies
lambda_min(H) >= -eps with probability at least 1 - delta (outcome
``certificate``), where delta is the paper's working setting ``DELTA``.

The iteration budget is the bound of Kuczynski and Wozniakowski (1992),
min{n, 1 + ceil(ln(2.75 n / delta^2) / 2 * sqrt(M / eps))}, for an upper
bound M on ||H||.  It is monotone in M, and the run sizes it itself at no
extra Hessian-vector product.  Every step already computes H q_k, so
L = max_j ||H q_j|| is a lower bound on ||H||, and the budget is raised to
the bound's value at L whenever L grows.  Once that value is n, the budget
is proven (``bound = saturated``).  Below n, when step k reaches the budget,
one eigensolve of T_k gives the estimate max(L, |theta_1|, |theta_k|) +
beta_k of ||H|| from above (Zhou and Li 2011, *Bounding the spectrum of
large Hermitian matrices*); the budget is raised from it, and the run stops
only when k reaches the result (``bound = lanczos``: an estimate, not a
proof).

Each step asks whether the tridiagonal T_k has a Ritz value at or below
s = -eps/2 with an inertia count (Sylvester's law): the pivots of the
LDL^T factorization of T_k - s I are nested, so step k adds one pivot
d_k = (alpha_k - s) - beta_{k-1}^2 / d_{k-1}, and the number of negative
pivots is the number of Ritz values below s.  An exactly zero pivot is
replaced by -tiny, so a Ritz value equal to s counts.  The test costs O(1)
per step; the dense k x k eigensolve runs only once the count is positive.

Directions are never returned on trust: the candidate Ritz vector is checked
against an actual Hessian-vector product before it is returned, so a
positive semidefinite operator can never produce a direction, regardless of
rounding.  A non-finite Lanczos coefficient raises ``NonFiniteError``
instead of ending in a certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling

Array = np.ndarray

CERTIFICATE = "certificate"
DIRECTION = "direction"

# The certificate's failure probability in the paper's working setting.
DELTA = 0.01

# Where the Lanczos budget's norm bound came from (MeoOutcome.bound).
SATURATED = "saturated"
LANCZOS = "lanczos"

_TINY = float(np.finfo(float).tiny)


class NonFiniteError(FloatingPointError):
    """A NaN or infinite value inside a building block; the message names the block."""


@dataclass
class MeoOutcome:
    """Either a unit negative-curvature direction or a probabilistic certificate.

    ``curvature`` is the verified v^T H v when kind == direction; ``ritz``
    is the smallest Ritz value seen.  ``bound`` says where the budget's norm
    bound came from (``saturated`` or ``lanczos``), and
    ``norm_lower`` is max_j ||H q_j|| over the Lanczos vectors, a lower bound
    on ||H||.  ``breakdown`` marks runs that exhausted an exactly invariant
    Krylov subspace before the budget.
    """

    kind: str
    v: Array | None
    iterations: int
    budget: int
    ritz: float
    bound: str
    norm_lower: float
    curvature: float | None = None
    breakdown: bool = False


def lanczos_budget(n: int, eps: float, delta: float, norm_h: float) -> int:
    """Iteration budget min{n, 1 + ceil(ln(2.75 n / delta^2) / 2 * sqrt(|H|/eps))}."""
    if n < 1:
        raise ValueError("n must be positive")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    raw = 1 + math.ceil(0.5 * math.log(2.75 * n / delta**2) * math.sqrt(norm_h / eps))
    return min(n, raw)


def shifted_pivot(alpha: float, shift: float, beta: float = 0.0, prev: float = 1.0) -> float:
    """Next pivot of the LDL^T factorization of a tridiagonal minus shift I.

    ``alpha`` is the new diagonal entry, ``beta`` the coupling to the
    previous row and ``prev`` the previous pivot (the defaults give the first
    pivot).  An exactly zero pivot comes back as -tiny, as with LAPACK's
    ``pivmin`` guard, so it counts as negative and the next pivot is huge
    (or +inf) rather than undefined.
    """
    pivot = (alpha - shift) - beta * beta / prev
    return pivot if pivot != 0.0 else -_TINY


def _tridiagonal(diag: Array, offdiag: Array) -> Array:
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def smallest_eigenvalue(diag: Array, offdiag: Array) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal (diag, offdiag)."""
    return float(np.linalg.eigvalsh(_tridiagonal(diag, offdiag))[0])


def smallest_eigenpair(diag: Array, offdiag: Array) -> tuple[float, Array]:
    """Smallest eigenvalue of the symmetric tridiagonal and a unit eigenvector, signed
    independently of LAPACK: its largest-magnitude component (the first on ties) is positive."""
    w, z = np.linalg.eigh(_tridiagonal(diag, offdiag))
    v = z[:, 0]
    return float(w[0]), (v if v[np.argmax(np.abs(v))] > 0.0 else -v)


def minimum_eigenvalue_oracle(
    hvp: Callable[[Array], Array],
    n: int,
    eps: float,
    seed: int = 0,
    stream: int = sampling.STREAM_MEO_START,
) -> MeoOutcome:
    """Randomized Lanczos with full reorthogonalization.

    The run sizes its own budget (see the module docstring), so ``bound``
    reads ``saturated`` or ``lanczos``.  The basis grows to at most n columns.
    Deterministic given (seed, stream).  Raises ``NonFiniteError`` when a
    Lanczos coefficient is not finite.
    """
    budget = lanczos_budget(n, eps, DELTA, 0.0)
    bound = SATURATED if budget == n else LANCZOS
    lower = 0.0  # max_j ||H q_j||, a lower bound on ||H||
    shift = -eps / 2.0

    q = sampling.unit_vector(seed, n, stream)
    basis = np.empty((n, 0))  # sized once the first product has raised the budget
    alphas = np.empty(n)
    betas = np.empty(n)  # betas[k - 1] couples q_k and q_(k+1)
    beta, pivot = 0.0, 1.0
    below = 0  # Ritz values of T_k at or below the shift
    breakdown = False

    for k in range(1, n + 1):
        w = np.asarray(hvp(q), dtype=float)
        a = float(q @ w)
        if not math.isfinite(a):
            raise NonFiniteError(f"eigenvalue oracle: Lanczos alpha_{k} is {a}")
        alphas[k - 1] = a
        norm_hq = math.sqrt(float(w @ w))
        if norm_hq > lower:
            lower = norm_hq
            if lower == math.inf:  # it scales the breakdown test below
                raise NonFiniteError(f"eigenvalue oracle: Lanczos ||H q_{k}|| is inf")
            grown = lanczos_budget(n, eps, DELTA, lower)
            budget = max(budget, grown)
            bound = SATURATED if grown == n else LANCZOS
        if k > basis.shape[1]:
            grown_basis = np.empty((n, min(n, max(budget, 2 * (k - 1)))))
            grown_basis[:, : k - 1] = basis
            basis = grown_basis
        basis[:, k - 1] = q
        w = w - a * q
        if k > 1:
            w = w - beta * basis[:, k - 2]
        # Full reorthogonalization, two passes; eliminates spurious Ritz
        # values that would corrupt the -eps/2 test.
        for _ in range(2):
            w = w - basis[:, :k] @ (basis[:, :k].T @ w)

        pivot = shifted_pivot(a, shift, beta, pivot)
        if pivot < 0.0:
            below += 1
        if below:
            theta, weights = smallest_eigenpair(alphas[:k], betas[: k - 1])
            v = basis[:, :k] @ weights
            v = v / float(np.linalg.norm(v))
            curvature = float(v @ np.asarray(hvp(v), dtype=float))
            if curvature <= shift:
                return MeoOutcome(DIRECTION, v, k, budget, theta, bound, lower, curvature)

        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):
            raise NonFiniteError(f"eigenvalue oracle: Lanczos beta_{k} is {beta}")
        # Exactly invariant subspace: its Ritz values are exact, and the
        # direction test above already ran on them.
        breakdown = beta <= 1e-13 * max(1.0, lower)
        if breakdown:
            break
        if k == budget < n:
            # Zhou-Li: max |Ritz value| + beta_k estimates ||H|| from above.
            ritz_values = np.linalg.eigvalsh(_tridiagonal(alphas[:k], betas[: k - 1]))
            estimate = max(lower, abs(float(ritz_values[0])), abs(float(ritz_values[-1]))) + beta
            budget = max(budget, lanczos_budget(n, eps, DELTA, estimate))
        if k == budget:
            break
        betas[k - 1] = beta
        q = w / beta

    # By Cauchy interlacing, the smallest Ritz value of the final T_k is the
    # smallest one seen at any step.
    ritz = smallest_eigenvalue(alphas[:k], betas[: k - 1])
    return MeoOutcome(CERTIFICATE, None, k, budget, ritz, bound, lower, breakdown=breakdown)
