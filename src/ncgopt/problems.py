"""Seeded benchmark problem generators with exact derivatives.

Two benchmark families plus a synthetic quadratic sanity family:

* infeasibility detection: f(x) = (1/m) sum_i (x'A_i x + b_i'x + c_i)_+^p
* rectified power unit fitting: f(x) = (1/m) sum_i phi((a_i'x)_+^p - b_i)
  with the bounded nonconvex loss phi(t) = t^2 / (1 + t^2)
* random-basis quadratic: f(x) = x'Q x / 2 with prescribed eigenvalues

All instances are bit-reproducible from (n, m, p, seed) via the package's
counter-based sampling.  Exponents must be finite with p > 2 so the
plus-part kink stays twice continuously differentiable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .oracle import ProblemOracle

Array = np.ndarray


def _pos_pow(q: Array, s: float) -> Array:
    """(q)_+^s for s > 0: +0.0 where q <= 0 (also at -0.0), NaN where q is."""
    return np.maximum(q, 0.0) ** s


def _require_cell(n: int, m: int, p: float) -> None:
    """The cell (n, m, p) of the infeasibility and repu families."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not 2.0 < p < np.inf:
        raise ValueError("exponent p must be finite and exceed 2 for a continuous Hessian")


@dataclass(frozen=True)
class InfeasibilityInstance:
    A: Array  # (m, n, n), each slice symmetric
    b: Array  # (m, n)
    c: Array  # (m,)
    p: float
    seed: int

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RepuInstance:
    a: Array  # (m, n)
    b: Array  # (m,), nonnegative
    p: float
    seed: int

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class QuadraticInstance:
    eigenvalues: Array  # (n,)
    basis: Array  # (n, n) orthogonal
    seed: int

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _point_key(x) -> tuple:
    """Cache key for the value of x: its dtype, shape and bytes.

    Bitwise, not numeric, equality: -0.0 and +0.0 are different points, and
    a NaN point never matches a finite one.
    """
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def _last_point(compute: Callable[[Array, tuple], object] | None = None) -> Callable:
    """Memoize ``compute(x, key)`` for the last key seen.

    The slot holds one immutable ``(key, value)`` pair that is replaced whole,
    so threads sharing it read a consistent entry; a miss only recomputes.
    A slot shared by several callers takes each caller's ``compute`` per
    lookup, and its keys must tell the callers apart.
    """
    slot: tuple | None = None

    def lookup(x: Array, key: tuple, compute: Callable = compute) -> object:
        nonlocal slot
        entry = slot
        if entry is None or entry[0] != key:
            entry = (key, compute(x, key))
            slot = entry
        return entry[1]

    return lookup


# The Hessian of the last point at which any infeasibility oracle took a
# Hessian-vector product, keyed by (oracle token, point key).  One slot per
# process rather than per oracle, so the n x n matrix does not stay alive on
# every oracle a caller keeps after its solve; threads that alternate
# between oracles only cost rebuilds.
_infeasibility_curvature = _last_point()


def _infeasibility_oracle(inst: InfeasibilityInstance) -> ProblemOracle:
    """f, grad and HVP sharing the last point's A x and q.

    The Hessian at x is H = (2 sum_i w2_i A_i + lin' diag(w1) lin) / m with
    lin = 2 A x + b.  The first HVP at a point assembles H (one pass over A
    and one rank-m product); each HVP is then one n x n product H v.
    """
    A, b, c, p, m = inst.A, inst.b, inst.c, inst.p, inst.m
    token = object()

    def residuals(x: Array, _key: tuple) -> tuple[Array, Array]:
        ax = A @ x
        return ax, ax @ x + b @ x + c

    point = _last_point(residuals)

    def eval_f(x: Array) -> float:
        _, q = point(x, _point_key(x))
        return float(np.sum(_pos_pow(q, p)) / m)

    def eval_grad(x: Array) -> Array:
        ax, q = point(x, _point_key(x))
        w = p * _pos_pow(q, p - 1.0)
        return (w[:, None] * (2.0 * ax + b)).sum(axis=0) / m

    def curvature(x: Array, key: tuple) -> Array:
        ax, q = point(x, key[1])
        lin = 2.0 * ax + b
        w1 = p * (p - 1.0) * _pos_pow(q, p - 2.0)
        H = np.tensordot(2.0 * p * _pos_pow(q, p - 1.0), A, axes=1)
        H += lin.T @ (w1[:, None] * lin)
        return H / m

    def eval_hvp(x: Array, v: Array) -> Array:
        return _infeasibility_curvature(x, (token, _point_key(x)), curvature) @ v

    name = f"infeasibility(n={inst.n},m={m},p={p},seed={inst.seed})"
    return ProblemOracle(inst.n, eval_f, eval_grad, eval_hvp, name, meta=inst)


_INFEAS_B_SCALE = 5.0


def gen_infeasibility(n: int, m: int, p: float, seed: int) -> ProblemOracle:
    """Random infeasibility-detection instance.

    Constraint matrices are Wishart, A_i = G_i G_i' / n with G_i standard
    normal, so each quadratic is convex with ||A_i|| = O(1); linear terms
    b_i are normal at scale 5 and offsets c_i standard normal.  With m well
    below n the constraint system is typically feasible, so near-zero
    objectives are attainable, and the steep linear terms let solvers drive
    the residual many orders below the gradient tolerance before stopping.
    """
    _require_cell(n, m, p)
    draws = sampling.standard_normals(
        seed, m * n * n + m * n + m, stream=sampling.STREAM_INFEASIBILITY
    )
    raw = draws[: m * n * n].reshape(m, n, n)
    A = (raw @ raw.transpose(0, 2, 1)) / n
    b = _INFEAS_B_SCALE * draws[m * n * n : m * n * n + m * n].reshape(m, n)
    c = draws[m * n * n + m * n :].copy()
    return _infeasibility_oracle(InfeasibilityInstance(A, b, c, float(p), seed))


def _repu_oracle(inst: RepuInstance) -> ProblemOracle:
    """f, grad and HVP sharing the last point's a x and curvature weights."""
    a, b, p, m = inst.a, inst.b, inst.p, inst.m
    point = _last_point(lambda x, _key: a @ x)

    def weights(x: Array, key: tuple) -> Array:
        s = point(x, key)
        u1 = p * _pos_pow(s, p - 1.0)
        u2 = p * (p - 1.0) * _pos_pow(s, p - 2.0)
        t = _pos_pow(s, p) - b
        denom = 1.0 + t * t
        dphi = 2.0 * t / denom**2
        d2phi = (2.0 - 6.0 * t * t) / denom**3
        return d2phi * u1 * u1 + dphi * u2

    curvature = _last_point(weights)

    def eval_f(x: Array) -> float:
        t = _pos_pow(point(x, _point_key(x)), p) - b
        return float(np.sum(t * t / (1.0 + t * t)) / m)

    def eval_grad(x: Array) -> Array:
        s = point(x, _point_key(x))
        t = _pos_pow(s, p) - b
        dphi = 2.0 * t / (1.0 + t * t) ** 2
        w = dphi * p * _pos_pow(s, p - 1.0)
        return (w[:, None] * a).sum(axis=0) / m

    def eval_hvp(x: Array, v: Array) -> Array:
        w = curvature(x, _point_key(x)) * (a @ v)
        return (w[:, None] * a).sum(axis=0) / m

    name = f"repu(n={inst.n},m={m},p={p},seed={inst.seed})"
    return ProblemOracle(inst.n, eval_f, eval_grad, eval_hvp, name, meta=inst)


def gen_repu(n: int, m: int, p: float, seed: int) -> ProblemOracle:
    """Random rectified-power-unit fitting instance.

    Feature rows a_i are standard normal; targets b_i = |b| with b standard
    normal, so every b_i is nonnegative.
    """
    _require_cell(n, m, p)
    draws = sampling.standard_normals(seed, m * n + m, stream=sampling.STREAM_REPU)
    a = draws[: m * n].reshape(m, n)
    b = np.abs(draws[m * n :])
    return _repu_oracle(RepuInstance(a, b, float(p), seed))


def _quadratic_oracle(inst: QuadraticInstance) -> ProblemOracle:
    lam, v = inst.eigenvalues, inst.basis

    def eval_f(x: Array) -> float:
        w = v @ x
        return 0.5 * float(np.sum(lam * w * w))

    def eval_grad(x: Array) -> Array:
        return v.T @ (lam * (v @ x))

    def eval_hvp(x: Array, u: Array) -> Array:
        return v.T @ (lam * (v @ u))

    name = f"quadratic(n={inst.n},seed={inst.seed})"
    return ProblemOracle(inst.n, eval_f, eval_grad, eval_hvp, name, meta=inst)


def gen_quadratic(n: int, eigenvalues, seed: int) -> ProblemOracle:
    """Quadratic f(x) = x'Q x / 2 with Q = V' diag(lam) V, V seeded orthogonal."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError("eigenvalues must have length n")
    raw = sampling.standard_normals(seed, (n, n), stream=sampling.STREAM_QUADRATIC)
    q, r = np.linalg.qr(raw)
    # Fix column signs so the factorization (hence the instance) is unique.
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    v = q * signs[None, :]
    return _quadratic_oracle(QuadraticInstance(lam.copy(), v, seed))
