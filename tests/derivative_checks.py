"""Central-difference checks of a ProblemOracle's analytic gradient and Hessian-vector product."""
import numpy as np

from ncgopt import ProblemOracle


class DerivativeCheckError(RuntimeError):
    """A finite-difference probe hit a non-finite function value."""

    def __init__(self, message: str, coordinate: int):
        super().__init__(f"{message} (coordinate {coordinate})")
        self.coordinate = coordinate


def _fd_step(x: np.ndarray, h: float | None) -> float:
    """The step h, or by default one that scales with the point, which keeps central differences well conditioned."""
    step = 1e-6 * (1.0 + float(np.linalg.norm(x))) if h is None else float(h)
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")
    return step


def check_gradient_fd(oracle: ProblemOracle, x: np.ndarray, h: float | None = None) -> float:
    """Max relative error between central differences of f and eval_grad.

    The denominator 1 + |grad_i| avoids blowups near zero components.
    """
    x = np.asarray(x, dtype=float)
    step = _fd_step(x, h)
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


def check_hvp_fd(oracle: ProblemOracle, x: np.ndarray, v: np.ndarray, h: float | None = None) -> float:
    """Max relative error between a gradient central difference and eval_hvp."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise ValueError("probe direction v must be nonzero")
    step = _fd_step(x, h)
    hv = np.asarray(oracle.eval_hvp(x, v), dtype=float)
    gp = np.asarray(oracle.eval_grad(x + step * v), dtype=float)
    gm = np.asarray(oracle.eval_grad(x - step * v), dtype=float)
    fd = (gp - gm) / (2.0 * step)
    bad = ~(np.isfinite(fd) & np.isfinite(hv))
    if bad.any():
        raise DerivativeCheckError("non-finite value in hvp check", int(np.argmax(bad)))
    return float(np.max(np.abs(fd - hv) / (1.0 + np.abs(hv))))
