"""Randomized Lanczos minimum-eigenvalue oracle.

Runs Lanczos with full reorthogonalization from a random unit start until
one of three ends: a unit direction v with v^T H v <= -eps/2 turns up and is
verified (outcome ``direction``); the Krylov subspace is exactly invariant
(``breakdown``); or the run reaches k = n.  The last two certify
lambda_min(H) >= -eps (outcome ``certificate``).

Kuczynski and Wozniakowski (1992) bound the failure probability of such a
certificate by delta once the run has taken
min{n, 1 + ceil(ln(2.75 n / delta^2) / 2 * sqrt(M / eps))} steps, for an
upper bound M on ||H||.  A run to k = n meets that budget whatever ||H|| is,
so the certificate holds with probability at least 1 - ``DELTA`` with no
norm bound at all, and it costs at most n Hessian-vector products.  A
budget below n needs a proven upper bound on ||H||, which the oracle is not
given; ``bounds.lanczos_budget`` is the formula.

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
rounding.  A non-finite Lanczos coefficient or check v^T H v raises
``NonFiniteError`` instead of ending in a certificate.
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

_TINY = float(np.finfo(float).tiny)


class NonFiniteError(FloatingPointError):
    """A NaN or infinite value inside a building block; the message names the block."""


def _squared_norm(v: Array):
    """v @ v over the last axis, with its bits (row by row for a block), and inf where it
    overflows even if numpy's settings make that an exception: only then is it taken
    again with errors quiet.  The one norm of the solver modules."""
    try:
        return np.vecdot(v, v)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return np.vecdot(v, v)


def _norm(v: Array) -> float:
    """||v||, the square root of ``_squared_norm``: inf when the square overflows.  Only an
    overflow calls it, so a norm is one Python call (the cubic subproblem takes two a step)."""
    try:
        return math.sqrt(np.vecdot(v, v))
    except (RuntimeWarning, FloatingPointError):
        return math.sqrt(_squared_norm(v))


@dataclass
class MeoOutcome:
    """Either a unit negative-curvature direction or a probabilistic certificate.

    ``iterations`` is the Krylov dimension k reached; ``curvature`` is the
    verified v^T H v when kind == direction; ``ritz`` is the smallest Ritz
    value seen.  ``breakdown`` marks certificates from an exactly invariant
    Krylov subspace, reached before k = n.
    """

    kind: str
    v: Array | None
    iterations: int
    ritz: float
    curvature: float | None = None
    breakdown: bool = False


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
    """Randomized Lanczos with full reorthogonalization, run to a verified
    direction, an exactly invariant Krylov subspace or k = n (see the module
    docstring), so a certificate costs at most n Hessian-vector products.

    Deterministic given (seed, stream).  Raises ``NonFiniteError`` when a
    Lanczos coefficient or the check v^T H v of a Ritz vector is not finite.
    """
    lower = 0.0  # max_j ||H q_j||, a lower bound on ||H|| that scales the breakdown test
    shift = -eps / 2.0

    q = sampling.unit_vector(seed, n, stream)
    basis = np.empty((n, n))
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
        lower = max(lower, _norm(w))
        if lower == math.inf:
            raise NonFiniteError(f"eigenvalue oracle: Lanczos ||H q_{k}|| is inf")
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
            v = v / _norm(v)
            curvature = float(v @ np.asarray(hvp(v), dtype=float))
            if not math.isfinite(curvature):
                raise NonFiniteError(f"eigenvalue oracle: Ritz vector check at k = {k} is {curvature}")
            if curvature <= shift:
                return MeoOutcome(DIRECTION, v, k, theta, curvature)

        beta = _norm(w)
        if not math.isfinite(beta):
            raise NonFiniteError(f"eigenvalue oracle: Lanczos beta_{k} is {beta}")
        # Exactly invariant subspace: its Ritz values are exact, and the
        # direction test above already ran on them.
        breakdown = beta <= 1e-13 * max(1.0, lower)
        if breakdown or k == n:
            break
        betas[k - 1] = beta
        q = w / beta

    # By Cauchy interlacing, the smallest Ritz value of the final T_k is the
    # smallest one seen at any step.
    ritz = smallest_eigenvalue(alphas[:k], betas[: k - 1])
    return MeoOutcome(CERTIFICATE, None, k, ritz, breakdown=breakdown)
