"""Test support shared by the suites: fixture oracles, random symmetric
operators, one solve-by-name, the thread and memory harnesses, the two
subroutine contract checkers, the baseline's reference loops, the repu
family's elementwise formulas, and central-difference derivative checks.

Each piece is defined here once; a test module imports what it uses.  The
contract fuzzers take their generator and trial counts from the caller, so
the acceptance criteria and the unit suites draw their own streams.
"""
import gc
import math
import sys
import threading
import tracemalloc

import numpy as np

from ncgopt import (
    CrnParams,
    HolderClass,
    NcgParams,
    PfParams,
    ProblemOracle,
    acrn_solve,
    newton_cg_solve,
    pf_newton_cg_solve,
)
from ncgopt.bounds import iteration_cap
from ncgopt.capped_cg import SOL, ZETA, KrylovRecord, capped_cg
from ncgopt.meo import CERTIFICATE, DIRECTION, minimum_eigenvalue_oracle
from ncgopt.problems import _pos_pow
from ncgopt.sampling import unit_vector

# ---------------------------------------------------------------------------
# Fixture oracles.


def make_norm_squared(n):
    """f = ||x||^2 / 2: gradient x, Hessian I."""
    return ProblemOracle(
        dim=n,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad=lambda x: x.copy(),
        eval_hvp=lambda x, v: v.copy(),
        name="half-norm-squared",
    )


def stiff_quadratic(curv):
    """The 1-D quadratic f = curv x^2 / 2."""
    return ProblemOracle(1, lambda x: 0.5 * curv * float(x @ x), lambda x: curv * x, lambda x, v: curv * v)


def rising_line():
    """The 1-D linear f = x, which rises along +1 with zero Hessian."""
    return ProblemOracle(1, lambda x: float(x[0]), lambda x: np.ones(1), lambda x, v: np.zeros(1))


def lying_oracle(n):
    """A constant objective with a nonzero gradient: no step can achieve the
    required decrease, which is what the backtracking and damping-trial caps
    are meant to diagnose."""
    return ProblemOracle(n, lambda x: 0.0, lambda x: np.ones(n), lambda x, v: v.copy(), "inconsistent")


def counted(base, calls):
    """``base`` with every callback appending itself to ``calls`` before it runs."""

    def wrap(fn):
        return lambda *args: calls.append(fn) or fn(*args)

    return ProblemOracle(base.dim, wrap(base.eval_f), wrap(base.eval_grad), wrap(base.eval_hvp), "counted")


# ---------------------------------------------------------------------------
# Dense symmetric operators.


def matvec(H):
    return lambda v: H @ v


def rotated(rng, lam):
    """Symmetric matrix with eigenvalues lam in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return (q * lam) @ q.T


def random_symmetric(rng, n, lo=-5.0, hi=5.0):
    """Symmetric matrix with eigenvalues drawn uniformly from [lo, hi]."""
    return rotated(rng, rng.uniform(lo, hi, size=n))


# ---------------------------------------------------------------------------
# Solvers by name, and harnesses around them.


def solve(solver, oracle, x0, *, eps_g=1e-4, eps_H=None, seed=0, max_outer=None):
    """One solve by name: ``alg1`` (``newton_cg_solve`` with ``HolderClass(1, 1)``),
    ``alg2`` (``pf_newton_cg_solve``) or ``acrn`` (``acrn_solve``, which takes no
    eps_H).  ``max_outer=None`` keeps the params class's default."""
    budget = {} if max_outer is None else {"max_outer": max_outer}
    if solver == "alg1":
        return newton_cg_solve(oracle, x0, NcgParams(eps_g, HolderClass(1.0, 1.0), eps_H, seed=seed, **budget))
    if solver == "alg2":
        return pf_newton_cg_solve(oracle, x0, PfParams(eps_g, eps_H, seed=seed, **budget))
    if solver == "acrn" and eps_H is None:
        return acrn_solve(oracle, x0, eps_g, CrnParams(seed=seed, **budget))
    raise ValueError(f"no solver {solver!r} with eps_H = {eps_H!r}")


def fingerprint(res):
    """Every field of a solve, which must repeat bit for bit: x_final's bytes and the
    reprs of the rest, with alg2's trials and weights where the result has them."""
    return (
        res.status,
        res.status_detail,
        res.x_final.tobytes(),
        repr(res.f_final),
        repr(res.grad_norm_final),
        vars(res.counters),
        repr(res.trace),
        repr(getattr(res, "trials", None)),
        repr(getattr(res, "gamma_history", None)),
    )


def same_bits(a, b):
    """Whether a and b have the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def threaded(fn, args, rounds, workers=4):
    """fn(args[i % len(args)]) ``rounds`` times on each of ``workers`` threads,
    switching threads every microsecond; returns each thread's results."""
    results = [[] for _ in range(workers)]

    def work(i):
        for _ in range(rounds):
            results[i].append(fn(args[i % len(args)]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def retained_bytes(run):
    """Bytes that ``run()`` leaves allocated after a garbage collection, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def peak_bytes(run):
    """The most bytes that ``run()`` holds allocated at once, above what was
    allocated when it started, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Capped CG's contract: a SOL direction solves the damped system to the
# residual bound, an NC direction has curvature below -eps ||d||^2 and
# reports it, both within the iteration cap.


def check_capped_cg(H, g, eps, out):
    """Assert the SOL or NC contract of one capped-CG outcome on dense H."""
    slack = 1e-8
    d = out.d
    dn2 = float(d @ d)
    if out.d_type == SOL:
        hbar_d = H @ d + 2.0 * eps * d
        quad = float(d @ hbar_d)
        scale = max(1.0, abs(quad))
        assert eps * dn2 <= quad + slack * scale
        assert np.linalg.norm(d) <= 1.1 / eps * np.linalg.norm(g) * (1.0 + slack)
        lhs, rhs = float(d @ g), -quad
        assert abs(lhs - rhs) <= slack * max(1.0, abs(lhs), abs(rhs))
        assert np.linalg.norm(hbar_d + g) <= ZETA * eps * np.linalg.norm(d) / 2.0 + slack * scale
    else:
        assert dn2 > 0.0
        assert float(d @ g) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(g)
        dense = float(d @ (H @ d))
        assert dense <= -eps * dn2 * (1.0 - 1e-10)
        # d'Hd is read off products the run already took.
        assert abs(out.curvature - dense) <= 1e-12 * abs(dense)


def fuzz_capped_cg(rng, trials):
    """Check the contract on ``trials`` random systems of size 2 to 30, with a
    positive definite spectrum every third draw (indefinite draws almost
    always end NC) and eps cycling through 1e-3, 1e-2, 1e-1 and 1; each draw
    also replays its recorded run at eps·2^(t/2), t = 1 .. 7, as damping
    trials do.  Returns the (SOL, NC) counts of the unshifted runs, at least
    20 of each."""
    n_sol = n_nc = 0
    for trial in range(trials):
        n = int(rng.integers(2, 31))
        H = random_symmetric(rng, n, lo=0.5) if trial % 3 == 2 else random_symmetric(rng, n)
        g = rng.standard_normal(n)
        while np.linalg.norm(g) == 0.0:
            g = rng.standard_normal(n)
        eps = (1e-3, 1e-2, 1e-1, 1.0)[trial % 4]
        norm_h = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        record = KrylovRecord()
        for t in range(8):
            shifted = eps * 2.0 ** (t / 2.0)
            out = capped_cg(matvec(H), g, shifted, record)
            check_capped_cg(H, g, shifted, out)
            assert out.iterations <= iteration_cap(norm_h, shifted, ZETA, n)
            assert out.cap <= norm_h + 1e-10
            if t == 0:
                n_sol += out.d_type == SOL
                n_nc += out.d_type != SOL
    assert n_sol >= 20 and n_nc >= 20
    return n_sol, n_nc


# ---------------------------------------------------------------------------
# The eigenvalue oracle's contract: at most n Lanczos steps; a direction is
# a unit vector with v'Hv <= -eps/2; a positive semidefinite H certifies.


def check_meo(H, eps, out):
    """Assert the contract of one eigenvalue-oracle outcome on dense H; True for a direction."""
    assert out.iterations <= H.shape[0]
    if out.kind == CERTIFICATE:
        return False
    assert out.kind == DIRECTION
    assert abs(np.linalg.norm(out.v) - 1.0) <= 1e-12
    assert float(out.v @ (H @ out.v)) <= -eps / 2.0 + 1e-10
    return True


def fuzz_meo(rng, eps, indefinite, psd, psd_stream):
    """Check the contract on ``indefinite`` random operators with lambda_min <=
    -eps (size 3 to 30), at least 99% of which must give a direction, and on
    ``psd`` positive semidefinite ones (size 2 to 24), which must all certify.
    The oracle runs with seed = trial, on stream 0 and then ``psd_stream``;
    returns the number of directions."""
    hits = 0
    for trial in range(indefinite):
        n = int(rng.integers(3, 31))
        lam = rng.uniform(-5.0, 5.0, size=n)
        lam[0] = rng.uniform(-5.0, -eps)
        H = rotated(rng, lam)
        hits += check_meo(H, eps, minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=0))
    assert hits >= math.ceil(0.99 * indefinite)
    for trial in range(psd):
        n = int(rng.integers(2, 25))
        H = random_symmetric(rng, n, lo=0.0)
        out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=psd_stream)
        check_meo(H, eps, out)
        assert out.kind == CERTIFICATE
    return hits


# ---------------------------------------------------------------------------
# The baseline's cubic-model descent and power iteration as plain loops:
# every product through ``@`` and every norm through ``np.vecdot``, which
# ``ncgopt.baseline_crn`` must match bit for bit.  They assume valid inputs
# and no overflow.


def _reference_norm(v):
    return math.sqrt(np.vecdot(v, v))


def _reference_model_value(g, hs, s, norm_s, weight):
    return float(g @ s) + 0.5 * float(s @ hs) + weight / 3.0 * norm_s**3


def reference_operator_norm(hvp, n, seed, stream, iters):
    """``estimate_operator_norm``'s power iteration on H^2, inflated by 1.1."""
    floor = 1e-12
    x = unit_vector(seed, n, stream)
    rayleigh = 0.0
    for _ in range(iters):
        z = np.asarray(hvp(np.asarray(hvp(x), dtype=float)), dtype=float)
        nz = _reference_norm(z)
        rayleigh = float(x @ z)
        if nz <= floor or rayleigh <= floor**2:
            return floor
        x = z / nz
    return 1.1 * math.sqrt(rayleigh)


def reference_cubic_subproblem_gd(g, hvp, weight, tol, s0, max_iters, lipschitz_hint):
    """``cubic_subproblem_gd``'s damped gradient descent; returns
    (s, model value, gradient norm, iterations, converged)."""
    s = np.array(s0, dtype=float)
    hs = np.asarray(hvp(s), dtype=float)
    norm_s = _reference_norm(s)
    m_val = _reference_model_value(g, hs, s, norm_s, weight)
    damping, grad_norm, iterations = 1.0, math.inf, 0
    for iterations in range(1, max_iters + 1):
        gm = g + hs + s * (weight * norm_s)
        grad_norm = _reference_norm(gm)
        if grad_norm <= tol:
            return s, m_val, grad_norm, iterations - 1, True
        s_try = s - gm * (damping / (lipschitz_hint + 2.0 * weight * norm_s + 1e-12))
        hs_try = np.asarray(hvp(s_try), dtype=float)
        norm_try = _reference_norm(s_try)
        m_try = _reference_model_value(g, hs_try, s_try, norm_try, weight)
        if m_try <= m_val:
            s, hs, norm_s, m_val = s_try, hs_try, norm_try, m_try
            damping = min(1.0, damping * 1.25)
        else:
            damping *= 0.5
    return s, m_val, grad_norm, iterations, False


# ---------------------------------------------------------------------------
# The repu family's f, gradient and HVP as the elementwise formulas the
# oracle once used: every row sum over an m x n temporary (w[:, None] * a).
# The oracle's single-gemv products must stay within rounding of them.


def reference_repu_elementwise(inst):
    """f, grad and HVP of the repu family by row sums, recomputed on every call."""
    a, b, p, m = inst.a, inst.b, inst.p, inst.m

    def f(x):
        t = _pos_pow(a @ x, p) - b
        return float(np.sum(t * t / (1.0 + t * t)) / m)

    def grad(x):
        s = a @ x
        t = _pos_pow(s, p) - b
        dphi = 2.0 * t / (1.0 + t * t) ** 2
        w = dphi * p * _pos_pow(s, p - 1.0)
        return (w[:, None] * a).sum(axis=0) / m

    def hvp(x, v):
        s = a @ x
        u1 = p * _pos_pow(s, p - 1.0)
        u2 = p * (p - 1.0) * _pos_pow(s, p - 2.0)
        t = _pos_pow(s, p) - b
        denom = 1.0 + t * t
        dphi = 2.0 * t / denom**2
        d2phi = (2.0 - 6.0 * t * t) / denom**3
        w = (d2phi * u1 * u1 + dphi * u2) * (a @ v)
        return (w[:, None] * a).sum(axis=0) / m

    return f, grad, hvp


# ---------------------------------------------------------------------------
# Central-difference checks of a ProblemOracle's analytic gradient and
# Hessian-vector product.


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
