"""Matrix-free problem abstraction and the per-solve counting wrapper.

A :class:`ProblemOracle` is the only interface between solvers and problems:
callbacks for f(x), grad f(x), and Hessian-vector products, plus dimension
metadata.  Derivatives are analytic.  A solver takes its Hessian-vector
products through :meth:`CountingOracle.hvp_at`, the operator v -> H(x) v
bound at an iterate x where it takes them.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ProblemOracle:
    """Callbacks for one problem instance.

    Immutable after construction and safe to share across concurrent solver
    runs; each run keeps its own workspace vectors.  ``dim`` is a positive
    integer (any ``Integral`` but a bool, stored as ``int``).  ``meta``
    optionally carries the raw instance data (generator-specific) for tests.

    The generated infeasibility and repu oracles keep data of the last point
    they were called at (its A x or a x, and the Hessian or its weights),
    keyed by the bytes of x, so repeated f, grad and HVP calls at one point
    share that work.  Each cache entry is an immutable tuple replaced whole,
    so sharing an oracle across threads stays safe; results do not depend on
    whether a call hits the cache.  Above a size gate the infeasibility
    oracle also keeps a reference point, the last point at which it computed
    every A_i x, and skips each row that a norm bound around it proves
    inactive, with a rounding margin wide enough that results do not depend
    on the reference either (see ``problems._infeasibility_oracle``).

    Their ``eval_hvp`` also binds to a point: ``eval_hvp.at(x)`` is eager.
    It looks the Hessian (repu: its curvature weights) up in the cache at
    once, computing it there if x is a new point, and returns the operator
    v -> H(x) v that keeps it, so each product is the product alone, with
    the bits of ``eval_hvp(x, v)``.  Any ``eval_hvp`` may offer such an
    ``at``; the solvers give one without it every product as
    ``eval_hvp(x, v)``, so a wrapper built with ``dataclasses.replace``
    sees them all.
    """

    dim: int
    eval_f: Callable[[Array], float]
    eval_grad: Callable[[Array], Array]
    eval_hvp: Callable[[Array, Array], Array]
    name: str = "problem"
    meta: object | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.dim, numbers.Integral) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer; got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))  # the record is frozen


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

    Exposes ``eval_f`` and ``eval_grad`` as :class:`ProblemOracle` does, and
    Hessian-vector products as the operator ``hvp_at(x)``.  The counts go
    straight into ``counters``, which the solver completes and returns with
    its result.  A callback output of the wrong shape (f not a scalar, grad
    or HVP not of shape (dim,)) raises ``ValueError`` naming the callback
    and the shape.
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

    def hvp_at(self, x: Array) -> Callable[[Array], Array]:
        """The operator v -> H(x) v at the value x has now, counted and shape-checked.

        Binds through ``eval_hvp.at(x)`` when the oracle's ``eval_hvp`` has
        that method; any other ``eval_hvp`` gets each product as
        ``eval_hvp(x_copy, v)``, with x copied once here.
        """
        eval_hvp = self._oracle.eval_hvp
        at = getattr(eval_hvp, "at", None)
        product = at(x) if at is not None else partial(eval_hvp, np.array(x))
        counters, vector = self.counters, self._vector

        def hvp(v: Array) -> Array:
            counters.hvp_evals += 1
            hv = product(v)
            if getattr(hv, "shape", None) != vector:
                _require_shape("eval_hvp", hv, vector)
            return hv

        return hvp


def _require_shape(name: str, value, shape: tuple) -> None:
    """The slow path of CountingOracle's checks, for a non-float f or an output without ``shape``."""
    if np.shape(value) != shape:
        raise ValueError(f"{name} must return shape {shape}; got shape {np.shape(value)}")
