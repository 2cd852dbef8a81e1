"""Seeded benchmark problem generators with exact derivatives.

Two benchmark families plus a synthetic quadratic sanity family:

* infeasibility detection: f(x) = (1/m) sum_i (x'A_i x + b_i'x + c_i)_+^p
* rectified power unit fitting: f(x) = (1/m) sum_i phi((a_i'x)_+^p - b_i)
  with the bounded nonconvex loss phi(t) = t^2 / (1 + t^2)
* random-basis quadratic: f(x) = x'Q x / 2 with prescribed eigenvalues

All instances are bit-reproducible from (n, m, p, seed) via the package's
counter-based sampling.  Exponents must be finite with p > 2 so the
plus-part kink stays twice continuously differentiable.

The infeasibility and repu oracles keep data of the last point they were
called at (its A x or a x, and the Hessian or its curvature weights), keyed
by the bytes of x, so repeated f, grad and HVP calls at one point share that
work.  Every such memo is a ``_last_point``: the repu weights and each
oracle's A x or a x in a slot of their own, the infeasibility Hessian in one
slot that every infeasibility oracle of the process shares.  Each cache
entry is an immutable tuple replaced whole, so sharing an oracle across
threads stays safe, and results do not depend on whether a call hits the
cache.  Their ``eval_hvp.at(x)`` is eager: it looks the curvature data up at
once, computing it on a miss, and returns the operator that keeps it
(``_bindable_hvp``).  Above a size gate the infeasibility oracle also skips
each row that a norm bound around a reference point proves inactive, with a
rounding margin wide enough that results do not depend on the reference
either; it takes the row norms of that bound when it is built
(``_infeasibility_oracle``).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import sampling
from .oracle import ProblemOracle, _integer

Array = np.ndarray


def _pos_pow(q: Array, s: float) -> Array:
    """(q)_+^s for s > 0: +0.0 where q <= 0 (also at -0.0), NaN where q is."""
    return np.maximum(q, 0.0) ** s


def _require_cell(n: int, m: int, p: float, seed: int) -> tuple[int, int, int]:
    """The cell (n, m, p) of the infeasibility and repu families, and a seed.

    Returns n, m and seed as ints (see ``oracle._integer``).
    """
    cell = _integer(n, "n", positive=True), _integer(m, "m", positive=True), _integer(seed, "seed")
    if not 2.0 < p < np.inf:
        raise ValueError("exponent p must be finite and exceed 2 for a continuous Hessian")
    return cell


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


def _read_only(*arrays: Array) -> tuple[Array, ...]:
    """Mark a generated instance's arrays read-only, so data an oracle derives
    from them (a cached point, the infeasibility row norms) cannot go stale."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _point_key(x) -> tuple:
    """Cache key for the value of x: its dtype, shape and bytes.

    Bitwise, not numeric, equality: -0.0 and +0.0 are different points, and
    a NaN point never matches a finite one.
    """
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def _last_point(compute: Callable[[Array], object], slot: list | None = None) -> Callable[[Array], object]:
    """Memoize ``compute(x)`` for the value of x last seen (see ``_point_key``).

    The memo keeps one entry, ``(owner, key, value)``, in ``slot``: a
    one-item list, its own unless several memos are given one to share.
    ``owner`` is a weak reference to ``compute``, made once per memo, so a
    lookup hits only in the memo that made the entry and at the same bytes
    of x, and a shared slot does not keep the last memo's ``compute`` alive,
    nor the instance data it reads.  The entry is immutable and replaced
    whole, so threads sharing it read a consistent entry; a miss only
    recomputes.
    """
    owner = weakref.ref(compute)
    slot = [None] if slot is None else slot

    def lookup(x: Array) -> object:
        key = _point_key(x)
        entry = slot[0]
        if entry is None or entry[0] is not owner or entry[1] != key:
            entry = (owner, key, compute(x))
            slot[0] = entry
        return entry[2]

    return lookup


def _bindable_hvp(lookup: Callable[[Array], object], apply: Callable[[object, Array], Array]) -> Callable:
    """``eval_hvp(x, v)`` of a generated oracle, with an ``at(x)`` that binds it to one point.

    ``lookup(x)`` reads the point's curvature data (the Hessian, or repu's
    weights) from the oracle's cache, computing it on a miss, and
    ``apply(data, v)`` takes one product with it.  A call ``eval_hvp(x, v)``
    is one lookup and one product.  ``at(x)`` looks the data up at once and
    returns ``apply`` bound to it, so every product of the operator is one
    ``apply``, and the operator does not depend on x's array afterwards.
    """

    def eval_hvp(x: Array, v: Array) -> Array:
        return apply(lookup(x), v)

    eval_hvp.at = lambda x: partial(apply, lookup(x))
    return eval_hvp


# The infeasibility oracle skips the rows that a norm bound proves inactive
# from this n up (see _infeasibility_oracle).  Below it one matmul call per
# row costs more than the skipped rows save.  Oracle time replayed along alg2
# solves of infeasibility n/(n/10)/2.25 from the origin (8 instances, median
# of 7 alternating replays, one BLAS thread, OpenBLAS SkylakeX kernel on a
# shared 2-vCPU Xeon), row path over full rows: 1.36 at n = 120, 1.16 at
# 128, 0.98 at 136, 0.96 at 144, 0.97 at 152, 0.85 at 176, 0.90 at 200.
_ROW_PATH_MIN_N = 136

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1020  # covers underflow in the row bound's margin
_SCALE_CAP = 2.0**1020  # below it no step of q_i or of its bound overflows


# The _last_point slot of every infeasibility oracle's Hessian memo: the
# Hessian of the last point at which any of them took a Hessian-vector
# product.  One slot per process rather than per oracle, so the n x n matrix
# does not stay alive on every oracle a caller keeps after its solve;
# threads that alternate between oracles only cost rebuilds.
_infeasibility_hessian: list = [None]


# The memory of an infeasibility Hessian that nothing references any more,
# as (buffer, offset of its 64-byte boundary), kept for the next build (see
# _aligned_matrix).
_spare_hessians: list[tuple[Array, int]] = []


def _aligned_matrix(n: int) -> Array:
    """An uninitialized n x n float64 array whose data starts at a multiple of 64 bytes.

    OpenBLAS's gemv runs faster on a matrix that starts at 0 or 32 mod 64
    than at the other 8-byte offsets malloc may give: one 400 x 400
    ``H.dot(v)`` took 16-19 us there against 24-33 us elsewhere (OpenBLAS
    SkylakeX kernel, one thread, 2-vCPU Xeon), with the same bits.

    Its memory is the spare Hessian's when one of this size is kept, and
    becomes the spare when the array dies: a fresh buffer per point cost
    about 300 page faults per build at n = 400 once malloc had returned the
    previous one to the system.  So no view of the array may outlive it.
    """
    nbytes = 8 * n * n
    try:
        raw, start = _spare_hessians.pop()
    except IndexError:  # none kept, or another thread took it
        raw = None
    if raw is None or raw.size != nbytes + 64:
        raw = np.empty(nbytes + 64, dtype=np.uint8)
        start = -raw.ctypes.data % 64
    H = raw[start : start + nbytes].view(np.float64).reshape(n, n)
    weakref.finalize(H, _keep_spare, (raw, start))
    return H


def _keep_spare(spare: tuple[Array, int]) -> None:
    if not _spare_hessians:
        _spare_hessians.append(spare)


def _infeasibility_oracle(inst: InfeasibilityInstance) -> ProblemOracle:
    """f, grad and HVP sharing the last point's A x and q.

    The Hessian at x is H = (2 sum_i w2_i A_i + lin' diag(w1) lin) / m with
    lin = 2 A x + b.  The first HVP at a point assembles H (one pass over A
    and one rank-m product) into a 64-byte-aligned array (``_aligned_matrix``),
    memoized by ``_last_point`` in the slot that every infeasibility oracle
    shares (``_infeasibility_hessian``); each HVP is then one n x n product
    H v.  ``eval_hvp.at(x)`` looks H up, and builds it on a miss, when it
    binds, and its operator keeps the slot's H, not a copy, so its products
    skip the keyed lookup (see ``_bindable_hvp``).

    **Row skipping** (n >= ``_ROW_PATH_MIN_N``).  A row i with q_i(x) <= 0
    adds an exact zero to f, grad and H, so its A_i x need not be computed.
    The oracle takes the row norms N_i = ||A_i||_F, ||b_i|| and |c_i| when
    it is built, and keeps a reference point r, the last point at which it
    computed every row, with q(r), lin(r) = 2 A r + b and ||r||.  With
    d = x - r and A_i symmetric,

        q_i(x) = q_i(r) + lin_i(r)'d + d'A_i d <= B_i = q_i(r) + lin_i(r)'d + N_i ||d||^2,

    one m x n product for all rows.  Row i is skipped, its A_i x left 0 and
    its q_i set to B_i, when fl(B_i + mu s_i) < 0 and s_i < 2^1020, where

        rho = ||x|| + ||r||,   s_i = (N_i (1 + rho) + ||b_i|| + 2^-1020)(1 + rho) + |c_i|,
        mu = 2 (n^2 + 8 n + 24) u,   u = 2^-53.

    The margin mu s_i bounds every rounding error between B_i and the q_i(x)
    that a full evaluation would compute.  An inner product of k terms, in
    any order and with or without FMA, is within gamma_k = k u / (1 - k u)
    times the sum of its terms' magnitudes; and |y|'|A_i||y| <= N_i ||y||^2,
    ||d|| <= rho.  So:

    * a full evaluation of q_i at x (A_i x, then (A_i x)'x + b_i'x + c_i) is
      within gamma_{2n+2} (N_i ||x||^2 + ||b_i|| ||x|| + |c_i|) of q_i(x), and
      the stored q_i(r) likewise at r;
    * the stored lin_i(r) is within gamma_{n+1} (2 N_i ||r|| + ||b_i||) of
      lin_i(r), and fl(x - r) within u |d|, so the computed lin_i(r)'d is
      within gamma_{2n+3} (2 N_i ||r|| + ||b_i||) rho of the exact one;
    * the computed N_i ||d||^2 falls short by at most
      gamma_{n^2+n+4} N_i rho^2 (N_i sums n^2 squares);
    * B_i's two additions add at most gamma_2 (|q_i(r)| + |lin_i(r)'d| + N_i ||d||^2).

    These sum to less than (n^2 + 7 n + 20) u s_i (1 + 1e-3) for n < 10^6; mu
    takes twice that, which also covers the rounding of rho, s_i and the
    margin.  Underflow adds at most 2^-1075 per product, fewer than
    4 (n^2 + 2 n + 1) (1 + rho) of them after propagation, which the 2^-1020
    term covers; s_i < 2^1020 keeps every step finite and fails for a NaN
    or inf s_i, so a non-finite x, reference or bound never skips a row.
    Rounding is monotone, so fl(B_i + mu s_i) < 0 implies that a full
    evaluation would have computed q_i(x) <= 0.

    The other rows are computed one at a time into a full (m, n) array, so
    each has the bits of the full product, and q comes from it as before:
    f sums the same values.  In the gradient and in H a skipped row adds
    zeros whose signs may differ from the full evaluation's; numpy's sums
    and the BLAS products accumulate from +0.0, so no sum depends on them.
    Results therefore do not depend on the reference, and threads sharing
    the oracle see the same bits.  A point at which no row can be skipped is
    computed in full and becomes the reference, an immutable tuple replaced
    whole.  An oracle built for n below ``_ROW_PATH_MIN_N`` computes every
    row and keeps no reference.
    """
    A, b, c, p, m, n = inst.A, inst.b, inst.c, inst.p, inst.m, inst.n
    mu = 2.0 * (n * n + 8 * n + 24) * _U
    reference = None  # (r, q(r), lin(r), ||r||)

    def residuals(x: Array) -> tuple[Array, Array]:
        ax = A @ x
        return ax, ax.dot(x) + b.dot(x) + c

    def skipping_residuals(x: Array) -> tuple[Array, Array]:
        nonlocal reference
        ref = reference
        if ref is not None:
            r, q_r, lin_r, norm_r = ref
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite never skips
                d = x - r
                grow = 1.0 + (np.linalg.norm(x) + norm_r)  # 1 + rho
                scale = (norm_a * grow + norm_b + _TINY) * grow + abs_c
                bound = q_r + lin_r @ d + norm_a * (d @ d)
                skip = (bound + mu * scale < 0.0) & (scale < _SCALE_CAP)
            if skip.any():
                ax = np.zeros((m, n))
                for i in np.flatnonzero(~skip):
                    np.matmul(A[i], x, out=ax[i])
                q = ax.dot(x) + b.dot(x) + c
                q[skip] = bound[skip]
                return ax, q
        ax, q = residuals(x)
        reference = (np.array(x, dtype=float), q, 2.0 * ax + b, float(np.linalg.norm(x)))
        return ax, q

    if n >= _ROW_PATH_MIN_N:
        flat = A.reshape(m, -1)
        norm_a, norm_b, abs_c = np.sqrt(np.vecdot(flat, flat)), np.linalg.norm(b, axis=1), np.abs(c)
        point = _last_point(skipping_residuals)
    else:
        point = _last_point(residuals)

    def eval_f(x: Array) -> float:
        _, q = point(x)
        return float(_pos_pow(q, p).sum() / m)

    def eval_grad(x: Array) -> Array:
        ax, q = point(x)
        w = p * _pos_pow(q, p - 1.0)
        return (w[:, None] * (2.0 * ax + b)).sum(axis=0) / m

    def hessian(x: Array) -> Array:
        ax, q = point(x)
        lin = 2.0 * ax + b
        w1 = p * (p - 1.0) * _pos_pow(q, p - 2.0)
        H = _aligned_matrix(n)
        np.dot(2.0 * p * _pos_pow(q, p - 1.0), A.reshape(m, -1), out=H.reshape(-1))
        H += lin.T @ (w1[:, None] * lin)
        H /= m
        return H

    eval_hvp = _bindable_hvp(_last_point(hessian, _infeasibility_hessian), np.ndarray.dot)

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
    n, m, seed = _require_cell(n, m, p, seed)
    draws = sampling.standard_normals(
        seed, m * n * n + m * n + m, stream=sampling.STREAM_INFEASIBILITY
    )
    raw = draws[: m * n * n].reshape(m, n, n)
    A = (raw @ raw.transpose(0, 2, 1)) / n
    b = _INFEAS_B_SCALE * draws[m * n * n : m * n * n + m * n].reshape(m, n)
    c = draws[m * n * n + m * n :].copy()
    return _infeasibility_oracle(InfeasibilityInstance(*_read_only(A, b, c), float(p), seed))


def _repu_oracle(inst: RepuInstance) -> ProblemOracle:
    """f, grad and HVP sharing the last point's s = a x, t = (s)_+^p - b and curvature weights u.

    The gradient is one gemv, w a / m, and an HVP two, (u * (a v)) a / m;
    neither forms an m x n temporary.  ``eval_hvp.at(x)`` computes u when it
    binds, unless x is the cached point, and its operator keeps u (see
    ``_bindable_hvp``).
    """
    a, b, p, m = inst.a, inst.b, inst.p, inst.m

    def residuals(x: Array) -> tuple[Array, Array]:
        s = a.dot(x)
        return s, _pos_pow(s, p) - b

    point = _last_point(residuals)

    def weights(x: Array) -> Array:
        s, t = point(x)
        u1 = p * _pos_pow(s, p - 1.0)
        u2 = p * (p - 1.0) * _pos_pow(s, p - 2.0)
        denom = 1.0 + t * t
        dphi = 2.0 * t / denom**2
        d2phi = (2.0 - 6.0 * t * t) / denom**3
        return d2phi * u1 * u1 + dphi * u2

    def eval_f(x: Array) -> float:
        t = point(x)[1]
        tt = t * t
        return float((tt / (1.0 + tt)).sum() / m)

    def eval_grad(x: Array) -> Array:
        s, t = point(x)
        dphi = 2.0 * t / (1.0 + t * t) ** 2
        w = dphi * p * _pos_pow(s, p - 1.0)
        return w.dot(a) / m

    def apply(u: Array, v: Array) -> Array:
        return (u * a.dot(v)).dot(a) / m

    eval_hvp = _bindable_hvp(_last_point(weights), apply)

    name = f"repu(n={inst.n},m={m},p={p},seed={inst.seed})"
    return ProblemOracle(inst.n, eval_f, eval_grad, eval_hvp, name, meta=inst)


def gen_repu(n: int, m: int, p: float, seed: int) -> ProblemOracle:
    """Random rectified-power-unit fitting instance.

    Feature rows a_i are standard normal; targets b_i = |b| with b standard
    normal, so every b_i is nonnegative.
    """
    n, m, seed = _require_cell(n, m, p, seed)
    draws = sampling.standard_normals(seed, m * n + m, stream=sampling.STREAM_REPU)
    a = draws[: m * n].reshape(m, n)
    b = np.abs(draws[m * n :])
    return _repu_oracle(RepuInstance(*_read_only(a, b), float(p), seed))


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
    n, seed = _integer(n, "n", positive=True), _integer(seed, "seed")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError("eigenvalues must have length n")
    raw = sampling.standard_normals(seed, (n, n), stream=sampling.STREAM_QUADRATIC)
    q, r = np.linalg.qr(raw)
    # Fix column signs so the factorization (hence the instance) is unique.
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    v = q * signs[None, :]
    return _quadratic_oracle(QuadraticInstance(*_read_only(lam.copy(), v), seed))
