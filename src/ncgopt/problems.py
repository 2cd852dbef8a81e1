"""Seeded benchmark problem generators with exact derivatives.

Two benchmark families plus a synthetic quadratic sanity family:

* infeasibility detection: f(x) = (1/m) sum_i (x'A_i x + b_i'x + c_i)_+^p
* rectified power unit fitting: f(x) = (1/m) sum_i phi((a_i'x)_+^p - b_i)
  with the bounded nonconvex loss phi(t) = t^2 / (1 + t^2)
* random-basis quadratic: f(x) = x'Q x / 2 with prescribed eigenvalues

All instances are bit-reproducible from (n, m, p, seed) via the package's
counter-based sampling.  Exponents must satisfy p > 2 so the plus-part kink
stays twice continuously differentiable.

Instances can be written to and read back from a flat file format::

    NCGPROB 1 <family> n=<n> m=<m> p=<p> seed=<seed>\n
    <payload: float64 little-endian, row-major, concatenated>

with payload order A, b, c (infeasibility); a, b (repu); eigenvalues, basis
(quadratic).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .oracle import ProblemOracle

Array = np.ndarray

_HEADER_MAGIC = "NCGPROB"
_FORMAT_VERSION = 1


def _pos_pow(q: Array, s: float) -> Array:
    """(q)_+^s evaluated only on the positive part; exactly zero where q <= 0, NaN where q is."""
    out = np.zeros_like(q)
    mask = ~(q <= 0.0)
    out[mask] = q[mask] ** s
    return out


def _require_p(p: float) -> None:
    if not p > 2.0:
        raise ValueError("exponent p must exceed 2 for a continuous Hessian")


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


def _last_point(compute: Callable[[Array, tuple], object]) -> Callable[[Array, tuple], object]:
    """Memoize ``compute(x, key)`` for the last point seen, looked up by its key.

    The slot holds one immutable ``(key, value)`` pair that is replaced whole,
    so threads sharing it read a consistent entry; a miss only recomputes.
    """
    slot: tuple | None = None

    def lookup(x: Array, key: tuple) -> object:
        nonlocal slot
        entry = slot
        if entry is None or entry[0] != key:
            entry = (key, compute(x, key))
            slot = entry
        return entry[1]

    return lookup


# Curvature data of the last point at which any infeasibility oracle took a
# Hessian-vector product: (oracle token, point key, lin, w1, S).  One slot per
# process rather than per oracle, so the n x n matrix S does not stay alive on
# every oracle a caller keeps after its solve.  The tuple is replaced whole,
# never mutated; threads that alternate between oracles only cost rebuilds.
_infeasibility_curvature: tuple | None = None


def _infeasibility_oracle(inst: InfeasibilityInstance) -> ProblemOracle:
    """f, grad and HVP sharing the last point's A x and q.

    The HVP at x is lin' diag(w1) lin v + 2 S v with lin = 2 A x + b and
    S = sum_i w2_i A_i, so once S is built (one pass over A) each further
    product at the same point costs O(n^2 + mn) instead of O(m n^2).
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

    def eval_hvp(x: Array, v: Array) -> Array:
        global _infeasibility_curvature
        key = _point_key(x)
        entry = _infeasibility_curvature
        if entry is None or entry[0] is not token or entry[1] != key:
            ax, q = point(x, key)
            lin = 2.0 * ax + b
            w1 = p * (p - 1.0) * _pos_pow(q, p - 2.0)
            S = np.tensordot(p * _pos_pow(q, p - 1.0), A, axes=1)
            entry = (token, key, lin, w1, S)
            _infeasibility_curvature = entry
        _, _, lin, w1, S = entry
        return (lin.T @ (w1 * (lin @ v)) + 2.0 * (S @ v)) / m

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
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    _require_p(p)
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
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    _require_p(p)
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


# ---------------------------------------------------------------------------
# Serialization.


def _instance_of(obj) -> object:
    return obj.meta if isinstance(obj, ProblemOracle) else obj


def save_instance(path: str, oracle_or_instance) -> None:
    """Write an instance to the flat NCGPROB format."""
    inst = _instance_of(oracle_or_instance)
    if isinstance(inst, InfeasibilityInstance):
        family, n, m, p = "infeasibility", inst.n, inst.m, inst.p
        arrays = [inst.A, inst.b, inst.c]
    elif isinstance(inst, RepuInstance):
        family, n, m, p = "repu", inst.n, inst.m, inst.p
        arrays = [inst.a, inst.b]
    elif isinstance(inst, QuadraticInstance):
        family, n, m, p = "quadratic", inst.n, 0, 0.0
        arrays = [inst.eigenvalues, inst.basis]
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    header = f"{_HEADER_MAGIC} {_FORMAT_VERSION} {family} n={n} m={m} p={p!r} seed={inst.seed}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_instance(path: str) -> ProblemOracle:
    """Read an NCGPROB file back into a ProblemOracle."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        payload = fh.read()
    parts = header.split()
    if len(parts) != 7 or parts[0] != _HEADER_MAGIC:
        raise ValueError(f"not an NCGPROB file: {header!r}")
    if int(parts[1]) != _FORMAT_VERSION:
        raise ValueError(f"unsupported NCGPROB version {parts[1]}")
    family = parts[2]
    fields = dict(item.split("=", 1) for item in parts[3:])
    n, m = int(fields["n"]), int(fields["m"])
    p, seed = float(fields["p"]), int(fields["seed"])
    data = np.frombuffer(payload, dtype="<f8").astype(float)

    def take(count: int, offset: int) -> tuple[Array, int]:
        if offset + count > data.size:
            raise ValueError("truncated NCGPROB payload")
        return data[offset : offset + count], offset + count

    if family == "infeasibility":
        flat_a, off = take(m * n * n, 0)
        flat_b, off = take(m * n, off)
        c, off = take(m, off)
        inst = InfeasibilityInstance(
            flat_a.reshape(m, n, n).copy(), flat_b.reshape(m, n).copy(), c.copy(), p, seed
        )
        return _infeasibility_oracle(inst)
    if family == "repu":
        flat_a, off = take(m * n, 0)
        b, off = take(m, off)
        return _repu_oracle(RepuInstance(flat_a.reshape(m, n).copy(), b.copy(), p, seed))
    if family == "quadratic":
        lam, off = take(n, 0)
        flat_v, off = take(n * n, off)
        return _quadratic_oracle(
            QuadraticInstance(lam.copy(), flat_v.reshape(n, n).copy(), seed)
        )
    raise ValueError(f"unknown NCGPROB family {family!r}")
