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

    ``eval_f(x)`` returns f(x), a real scalar; ``eval_grad(x)`` and
    ``eval_hvp(x, v)`` return grad f(x) and H(x) v, real vectors of shape
    (dim,).  ``dim`` is a positive integer (any ``Integral`` but a bool,
    stored as ``int``).  ``meta`` optionally carries the raw instance data
    (generator-specific) for tests.  Immutable after construction and safe
    to share across concurrent solver runs; each run keeps its own
    workspace vectors.  An ``eval_grad`` may return the same array on every
    call, refilled; an ``eval_hvp`` must not write again to an array it has
    returned, since a solver may keep one product while it takes the next.

    An ``eval_hvp`` may also offer ``eval_hvp.at(x)``, which binds it to a
    point: it returns the operator v -> H(x) v, whose products have the bits
    of ``eval_hvp(x, v)``, and the solvers take every product at x through
    it.  They give an ``eval_hvp`` without it every product as
    ``eval_hvp(x, v)``, so a wrapper built with ``dataclasses.replace``
    sees them all.  The generated oracles offer it (see ``ncgopt.problems``).
    """

    dim: int
    eval_f: Callable[[Array], float]
    eval_grad: Callable[[Array], Array]
    eval_hvp: Callable[[Array, Array], Array]
    name: str = "problem"
    meta: object | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _integer(self.dim, "dim", positive=True))  # the record is frozen


def _integer(value, name: str, positive: bool = False) -> int:
    """``value`` as an ``int``: the package's one rule for integer inputs.

    Accepts any ``Integral`` but a bool (and, with ``positive``, only one of
    at least 1); raises ``ValueError`` naming ``name`` otherwise.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and (value >= 1 or not positive):
        return int(value)
    raise ValueError(f"{name} must be {'a positive integer' if positive else 'an integer'}; got {value!r}")


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
    """Work done by one solve; ``subproblems`` counts capped-CG calls or cubic models.

    ``f_evals``, ``grad_evals`` and ``hvp_evals`` count calls of the oracle's
    callbacks.  An f or gradient that ``CountingOracle`` returns from its
    memo of the current outer iteration calls no callback and counts nothing.
    """

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
    its result.  Every output is read by ``_require_shape``: one of the wrong
    shape (f not a scalar, grad or HVP not of shape (dim,)) raises
    ``ValueError`` naming the callback and the shape; one that is not real
    numbers (None, a string, a complex value, an array of them) or that
    numpy cannot read as an array (a ragged list) raises ``ValueError``
    naming the callback and its type.  Real numbers of the right shape in
    any other form (a list, a tuple, a numpy scalar, another integer or
    floating dtype or byte order) are read as a new float64 array, and a
    native float64 array is taken as it is.  So every product comes back as
    float64 of shape (dim,).  ``eval_grad`` returns each gradient in an
    array of its own, not the callback's, since a solver keeps the gradient
    at its iterate across later calls that may refill the callback's buffer;
    callers do not write to it.

    ``eval_f`` and ``eval_grad`` keep what they return until ``new_iterate``,
    which the outer loop calls once per iteration, keyed by the point's
    bytes (``_point_key``): the damping trials at one iterate meet the same
    trial points again, and a point seen before in the iteration gets its
    earlier value back without a callback call or a count.  A callback that
    raises leaves nothing in the memo.
    """

    def __init__(self, oracle: ProblemOracle):
        self._oracle = oracle
        self.dim = oracle.dim
        self._vector = (oracle.dim,)
        self.counters = Counters()
        self.new_iterate()

    def new_iterate(self) -> None:
        """Forget the f and gradient values of the last outer iteration."""
        self._f, self._grad = {}, {}

    def eval_f(self, x: Array) -> float:
        key = _point_key(x)
        value = self._f.get(key)
        if value is None:
            self.counters.f_evals += 1
            value = self._oracle.eval_f(x)
            if not isinstance(value, float):
                value = _require_shape("eval_f must return", value, ())
            value = self._f[key] = float(value)
        return value

    def eval_grad(self, x: Array) -> Array:
        key = _point_key(x)
        g = self._grad.get(key)
        if g is None:
            self.counters.grad_evals += 1
            g = _require_shape("eval_grad must return", self._oracle.eval_grad(x), self._vector)
            g = self._grad[key] = g.copy()
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
            return _require_shape("eval_hvp must return", product(v), vector)

        return hvp


def _point_key(x) -> tuple:
    """Memo key for the value of x: its dtype, shape and bytes.

    Bitwise, not numeric, equality: -0.0 and +0.0 are different points, and
    a NaN point never matches a finite one.  The dtype goes in as the dtype
    object, which compares byte order too and costs less than its ``str``.
    """
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


_FLOAT64 = np.dtype(np.float64)  # native byte order


def _require_shape(subject: str, value, shape: tuple) -> Array:
    """``value`` as a float64 array of ``shape``: the package's one rule for caller arrays.

    A native-order float64 ``ndarray`` of the right shape is returned as it
    is, so a caller that keeps what it reads copies it.  Other real numbers
    (dtype kinds i, u and f) of the right shape are read into a new float64
    array, from an array or any form numpy reads (a list, a tuple, a
    scalar); anything else raises ``ValueError`` whose message starts with
    ``subject``, a phrase such as ``"eval_grad must return"`` or ``"x0 must
    be"``.
    """
    if type(value) is np.ndarray and value.dtype == _FLOAT64 and value.shape == shape:
        return value
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as err:  # ragged nesting, or a failing __array__
        raise ValueError(f"{subject} an array; numpy cannot read its {type(value).__name__}") from err
    if array.shape != shape:
        raise ValueError(f"{subject} shape {shape}; got shape {array.shape}")
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{subject} real numbers; got {type(value).__name__} of dtype {array.dtype}")
    return array.astype(float)
