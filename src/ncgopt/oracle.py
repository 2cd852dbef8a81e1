"""Matrix-free problem abstraction and finite-difference derivative checks.

A :class:`ProblemOracle` is the only interface between solvers and problems:
callbacks for f(x), grad f(x), and Hessian-vector products, plus dimension
metadata.  Derivatives are analytic; the finite-difference checks here are
test-side verification, never used inside solvers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ProblemOracle:
    """Callbacks for one problem instance.

    Immutable after construction and safe to share across concurrent solver
    runs; each run keeps its own workspace vectors.  ``meta`` optionally
    carries the raw instance data (generator-specific) for tests and
    serialization.

    The generated infeasibility and repu oracles keep data of the last point
    they were called at (its A x or a x, and the HVP's curvature terms),
    keyed by the bytes of x, so repeated f, grad and HVP calls at one point
    share that work.  Each cache entry is an immutable tuple replaced whole,
    so sharing an oracle across threads stays safe; results do not depend on
    whether a call hits the cache.
    """

    dim: int
    eval_f: Callable[[Array], float]
    eval_grad: Callable[[Array], Array]
    eval_hvp: Callable[[Array, Array], Array]
    name: str = "problem"
    meta: object | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


@dataclass(frozen=True)
class HolderClass:
    """Hessian smoothness class: exponent nu in [0, 1] and finite modulus h_nu > 0.

    nu = 1 is Lipschitz continuity of the Hessian; nu = 0 only bounds its
    variation.
    """

    nu: float
    h_nu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError("nu must lie in [0, 1]")
        if not 0.0 < self.h_nu < np.inf:
            raise ValueError("h_nu must be positive and finite")


class DerivativeCheckError(RuntimeError):
    """A finite-difference probe hit a non-finite function value."""

    def __init__(self, message: str, coordinate: int):
        super().__init__(f"{message} (coordinate {coordinate})")
        self.coordinate = coordinate


@dataclass
class Counters:
    """Work done by one solve; ``subproblems`` counts capped-CG calls or cubic models."""

    f_evals: int = 0
    grad_evals: int = 0
    hvp_evals: int = 0
    meo_calls: int = 0
    subproblems: int = 0


class CountingOracle:
    """Mutable per-solve wrapper that counts f / grad / hvp evaluations.

    Exposes the same ``eval_*`` surface as :class:`ProblemOracle` so solver
    code is agnostic to whether it counts.  The counts go straight into
    ``counters``, which the solver completes and returns with its result.
    A callback output of the wrong shape (f not a scalar, grad or HVP not of
    shape (dim,)) raises ``ValueError`` naming the callback and the shape.
    """

    def __init__(self, oracle: ProblemOracle):
        self._oracle = oracle
        self.dim = oracle.dim
        self._vector = (oracle.dim,)
        self.counters = Counters()

    def eval_f(self, x: Array) -> float:
        self.counters.f_evals += 1
        value = self._oracle.eval_f(x)
        if not isinstance(value, float):
            _require_shape("eval_f", value, ())
        return float(value)

    def eval_grad(self, x: Array) -> Array:
        self.counters.grad_evals += 1
        g = self._oracle.eval_grad(x)
        if getattr(g, "shape", None) != self._vector:
            _require_shape("eval_grad", g, self._vector)
        return g

    def eval_hvp(self, x: Array, v: Array) -> Array:
        self.counters.hvp_evals += 1
        hv = self._oracle.eval_hvp(x, v)
        if getattr(hv, "shape", None) != self._vector:
            _require_shape("eval_hvp", hv, self._vector)
        return hv


def _require_shape(name: str, value, shape: tuple) -> None:
    """The slow path of CountingOracle's checks, for a non-float f or an output without ``shape``."""
    if np.shape(value) != shape:
        raise ValueError(f"{name} must return shape {shape}; got shape {np.shape(value)}")


def _fd_step(x: Array, h: float | None) -> float:
    # Central differences stay well conditioned with a step that scales
    # with the point.
    if h is not None:
        return float(h)
    return 1e-6 * (1.0 + float(np.linalg.norm(x)))


def check_gradient_fd(oracle: ProblemOracle, x: Array, h: float | None = None) -> float:
    """Max relative error between central differences of f and eval_grad.

    The denominator 1 + |grad_i| avoids blowups near zero components.
    """
    x = np.asarray(x, dtype=float)
    step = _fd_step(x, h)
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")
    grad = np.asarray(oracle.eval_grad(x), dtype=float)
    worst = 0.0
    for i in range(oracle.dim):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fp = oracle.eval_f(xp)
        fm = oracle.eval_f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise DerivativeCheckError("non-finite f in gradient check", i)
        fd = (fp - fm) / (2.0 * step)
        err = abs(fd - grad[i]) / (1.0 + abs(grad[i]))
        worst = max(worst, err)
    return worst


def check_hvp_fd(
    oracle: ProblemOracle, x: Array, v: Array, h: float | None = None
) -> float:
    """Max relative error between a gradient central difference and eval_hvp."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise ValueError("probe direction v must be nonzero")
    step = _fd_step(x, h)
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")
    hv = np.asarray(oracle.eval_hvp(x, v), dtype=float)
    gp = np.asarray(oracle.eval_grad(x + step * v), dtype=float)
    gm = np.asarray(oracle.eval_grad(x - step * v), dtype=float)
    fd = (gp - gm) / (2.0 * step)
    bad = ~(np.isfinite(fd) & np.isfinite(hv))
    if bad.any():
        raise DerivativeCheckError(
            "non-finite value in hvp check", int(np.argmax(bad))
        )
    return float(np.max(np.abs(fd - hv) / (1.0 + np.abs(hv))))
