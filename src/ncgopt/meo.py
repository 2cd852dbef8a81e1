"""Randomized Lanczos minimum-eigenvalue oracle.

Runs Lanczos with full reorthogonalization from a random unit start until
one of three ends: a unit direction v with v^T H v <= -eps/2 turns up and is
verified (outcome ``direction``); the Krylov subspace is exactly invariant
at some k < n (a breakdown); or the run reaches k = n.  The last two
certify lambda_min(H) >= -eps (outcome ``certificate``, with ``iterations``
k telling them apart).

The basis Q is stored by rows, and each step projects the residual w
against it once, w <- w - (Q w) Q.  A second pass runs only when the first
removed more than half of ||w||^2, the criterion of Daniel, Gragg, Kaufman
and Stewart (1976); it keeps Q orthonormal to rounding level and rarely
fires.  Step n takes no projection at all: T_n is complete without it.

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
A certificate runs none: it keeps T_k, so a caller that wants the smallest
Ritz value takes ``smallest_eigenvalue(*outcome.tridiagonal)``.

Directions are never returned on trust: the candidate Ritz vector is checked
against an actual Hessian-vector product before it is returned, so a
positive semidefinite operator can never produce a direction, regardless of
rounding.  A non-finite Lanczos coefficient or check v^T H v raises
``NonFiniteError`` instead of ending in a certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sampling
from .oracle import _integer

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
    """||v|| of a vector, the square root of ``_squared_norm``: inf when the square overflows.
    The square is ``v.dot(v)``, one BLAS ddot with ``np.vecdot``'s bits and without its gufunc
    dispatch, which warns or raises on overflow under the same errstate rules; only an
    overflow calls ``_squared_norm``, so a norm is one Python call (the cubic subproblem takes
    two a step)."""
    try:
        return math.sqrt(v.dot(v))
    except (RuntimeWarning, FloatingPointError):
        return math.sqrt(_squared_norm(v))


@dataclass
class MeoOutcome:
    """Either a unit negative-curvature direction or a probabilistic certificate.

    ``iterations`` is the Krylov dimension k reached; a certificate with
    k < n comes from an exactly invariant Krylov subspace.  ``tridiagonal``
    is the (diagonal, off-diagonal) pair of T_k, whose smallest eigenvalue
    is the smallest Ritz value seen (Cauchy interlacing); ``curvature`` is
    the verified v^T H v when kind == direction.
    """

    kind: str
    v: Array | None
    iterations: int
    tridiagonal: tuple[Array, Array] = field(repr=False)
    curvature: float | None = None


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
    v = np.ascontiguousarray(z[:, 0])  # both signs C-contiguous, so a product with v rounds alike
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

    Deterministic given (seed, stream).  Raises ``ValueError`` before any
    product unless n is a positive integer and eps lies in (0, inf), and
    ``NonFiniteError`` when a Lanczos coefficient or the check v^T H v of a
    Ritz vector is not finite.
    """
    n = _integer(n, "n", positive=True)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must lie in (0, inf); got {eps!r}")
    lower = 0.0  # max_j ||H q_j||, a lower bound on ||H|| that scales the breakdown test
    shift = -eps / 2.0

    q = sampling.unit_vector(seed, n, stream)
    basis = np.empty((n, n))  # basis[j] = q_(j+1), one Lanczos vector per row
    alphas = np.empty(n)
    betas = np.empty(n)  # betas[k - 1] couples q_k and q_(k+1)
    beta, pivot = 0.0, 1.0
    below = 0  # Ritz values of T_k at or below the shift

    for k in range(1, n + 1):
        w = np.asarray(hvp(q), dtype=float)
        a = float(q.dot(w))
        if not math.isfinite(a):
            raise NonFiniteError(f"eigenvalue oracle: Lanczos alpha_{k} is {a}")
        alphas[k - 1] = a
        lower = max(lower, _norm(w))
        if lower == math.inf:
            raise NonFiniteError(f"eigenvalue oracle: Lanczos ||H q_{k}|| is inf")
        basis[k - 1] = q
        w = w - a * q
        if k > 1:
            w = w - beta * basis[k - 2]
        tridiagonal = (alphas[:k], betas[: k - 1])

        pivot = shifted_pivot(a, shift, beta, pivot)
        if pivot < 0.0:
            below += 1
        if below:
            _, weights = smallest_eigenpair(*tridiagonal)
            v = weights @ basis[:k]
            v = v / _norm(v)
            curvature = float(v.dot(np.asarray(hvp(v), dtype=float)))
            if not math.isfinite(curvature):
                raise NonFiniteError(f"eigenvalue oracle: Ritz vector check at k = {k} is {curvature}")
            if curvature <= shift:
                return MeoOutcome(DIRECTION, v, k, tridiagonal, curvature)
        if k == n:
            break  # T_n is complete; q_(n+1) and beta_n are never read

        # Full reorthogonalization, which keeps spurious Ritz values out of
        # the -eps/2 test.  A second pass runs only when the first removed
        # more than half of ||w||^2 (DGKS): with c = Q'w, the first pass
        # leaves ||w||^2 - ||c||^2, so the test is ||w_after||^2 < ||c||^2.
        Q = basis[:k]
        c = Q @ w
        w = w - c @ Q
        beta2 = _squared_norm(w)
        if beta2 < _squared_norm(c):
            w = w - (Q @ w) @ Q
            beta2 = _squared_norm(w)
        beta = math.sqrt(beta2)
        if not math.isfinite(beta):
            raise NonFiniteError(f"eigenvalue oracle: Lanczos beta_{k} is {beta}")
        # Exactly invariant subspace: its Ritz values are exact, and the
        # direction test above already ran on them.
        if beta <= 1e-13 * max(1.0, lower):
            break
        betas[k - 1] = beta
        q = w / beta

    # No eigensolve here: by Cauchy interlacing, the smallest eigenvalue of
    # the final T_k is the smallest Ritz value seen at any step.
    return MeoOutcome(CERTIFICATE, None, k, tridiagonal)
