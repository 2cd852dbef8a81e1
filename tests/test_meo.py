import math
import time

import numpy as np
import pytest

from ncgopt.meo import (
    CERTIFICATE,
    DIRECTION,
    LANCZOS,
    DELTA,
    SATURATED,
    NonFiniteError,
    lanczos_budget,
    minimum_eigenvalue_oracle,
    shifted_pivot,
    smallest_eigenpair,
    smallest_eigenvalue,
)
from ncgopt.sampling import STREAM_MEO_START, STREAM_NORM_EST, generator, unit_vector


def matvec(H):
    return lambda v: H @ v


def random_symmetric(rng, n, lam):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * lam) @ q.T


def dense(diag, off):
    k = len(diag)
    t = np.diag(diag).astype(float)
    for i in range(k - 1):
        t[i, i + 1] = t[i + 1, i] = off[i]
    return t


def negative_pivots(diag, off, shift):
    """Inertia count the oracle keeps, one pivot per row."""
    pivot, beta, count = 1.0, 0.0, 0
    for i, a in enumerate(diag):
        pivot = shifted_pivot(float(a), shift, beta, pivot)
        count += pivot < 0.0
        if i < len(off):
            beta = float(off[i])
    return count


def test_pivot_count_against_dense_eigenvalues():
    rng = generator(77, stream=5)
    for trial in range(200):
        k = int(rng.integers(1, 61))
        d = rng.standard_normal(k) * 3.0
        e = rng.standard_normal(k - 1) * 2.0
        w = np.linalg.eigvalsh(dense(d, e))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
        # A shift anywhere in (and around) the spectrum, and one placed on a
        # computed eigenvalue, where rounding may put it on either side.
        for shift in (float(rng.uniform(w[0] - 1.0, w[-1] + 1.0)), float(w[int(rng.integers(k))])):
            count = negative_pivots(d, e, shift)
            assert np.sum(w < shift - tol) <= count <= np.sum(w <= shift + tol)


@pytest.mark.parametrize(
    "diag, off, shift, expected",
    [
        ([0.0] * 6, [1.0] * 5, 0.0, 3),  # zero diagonal: eigenvalues 2 cos(j pi / 7)
        ([0.0] * 5, [1.0] * 4, 0.0, 3),  # odd size: 0 is an eigenvalue and counts
        ([2.0], [], 2.0, 1),
        ([3.0, 3.0], [1.0], 2.0, 1),  # eigenvalues 2 and 4; the second pivot is zero
        ([1.0, 2.0, 3.0], [0.0, 0.0], 2.0, 2),
    ],
)
def test_pivot_count_with_shift_on_an_eigenvalue(diag, off, shift, expected):
    # Exactly zero pivots: a Ritz value equal to the shift counts as below it.
    assert negative_pivots(diag, off, shift) == expected


def test_smallest_helpers():
    d = np.array([2.0, -1.0, 4.0])
    e = np.array([0.5, 0.25])
    ref = np.linalg.eigvalsh(dense(d, e))
    assert abs(smallest_eigenvalue(d, e) - ref[0]) <= 1e-12
    val, vec = smallest_eigenpair(d, e)
    assert abs(val - ref[0]) <= 1e-12
    t = dense(d, e)
    assert np.linalg.norm(t @ vec - val * vec) <= 1e-10
    assert vec[np.argmax(np.abs(vec))] > 0.0  # sign convention


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_smallest_eigenpair_sign_tie_takes_first_component(sign, monkeypatch):
    z = sign * np.array([[-0.5, 0.0], [0.5, 1.0]])
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([-1.0, 1.0]), z))
    _, vec = smallest_eigenpair(np.zeros(2), np.ones(1))
    np.testing.assert_array_equal(vec, np.array([0.5, -0.5]))


def test_identity_always_certificate():
    out = minimum_eigenvalue_oracle(matvec(np.eye(5)), 5, eps=0.5)
    assert out.kind == CERTIFICATE
    assert out.iterations <= out.budget


def test_small_indefinite_returns_direction():
    H = np.diag([1.0, -2.0])
    out = minimum_eigenvalue_oracle(matvec(H), 2, eps=1.0, seed=7)
    assert out.kind == DIRECTION
    assert abs(np.linalg.norm(out.v) - 1.0) <= 1e-12
    assert float(out.v @ (H @ out.v)) <= -0.5 + 1e-10
    # Dense oracle confirms such a direction exists: lambda_min = -2 <= -eps.
    assert np.linalg.eigvalsh(H)[0] <= -1.0


def test_budget_formula():
    assert lanczos_budget(100, eps=0.01, delta=0.01, norm_h=1.0) == 76
    # Dimension caps the budget.
    assert lanczos_budget(3, eps=1e-6, delta=0.01, norm_h=10.0) == 3


def test_fuzzed_indefinite_and_psd():
    rng = generator(99, stream=21)
    eps = 0.1
    hits = 0
    runs = 80
    for trial in range(runs):
        n = int(rng.integers(3, 31))
        lam = rng.uniform(-5.0, 5.0, size=n)
        lam[0] = rng.uniform(-5.0, -eps)  # guarantee lambda_min <= -eps
        H = random_symmetric(rng, n, lam)
        out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=0)
        assert out.iterations <= out.budget
        if out.kind == DIRECTION:
            hits += 1
            assert abs(np.linalg.norm(out.v) - 1.0) <= 1e-12
            assert float(out.v @ (H @ out.v)) <= -eps / 2.0 + 1e-10
    assert hits >= math.ceil(0.99 * runs)

    for trial in range(40):
        n = int(rng.integers(2, 25))
        lam = rng.uniform(0.0, 5.0, size=n)
        H = random_symmetric(rng, n, lam)
        out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=1)
        assert out.kind == CERTIFICATE  # PSD never yields a direction
        assert out.iterations <= out.budget


def test_breakdown_on_invariant_subspace():
    # Start vector confined to an eigenspace: Lanczos exhausts it instantly.
    H = np.diag([2.0, 2.0, 2.0])
    out = minimum_eigenvalue_oracle(matvec(H), 3, eps=0.5)
    assert out.kind == CERTIFICATE
    assert out.breakdown
    assert out.iterations < out.budget


def power_iteration_norm(H, x, steps):
    """||H x_k|| after k power steps from unit x: a lower estimate of ||H||."""
    for _ in range(steps):
        y = H @ x
        x = y / np.linalg.norm(y)
    return float(np.linalg.norm(H @ x))


def spiked(rng, n, eps, trial):
    """Small bulk plus one large eigenvalue whose eigenvector is nearly
    orthogonal to a power-iteration start x0, so that 5 power steps from x0
    underestimate ||H||."""
    x0 = unit_vector(trial, n, STREAM_NORM_EST)
    z = rng.standard_normal(n)
    u = z - (z @ x0) * x0
    u = u / np.linalg.norm(u) + 1e-8 * x0
    u = u / np.linalg.norm(u)
    spike = float(rng.uniform(0.2, 5.0))
    lam = rng.uniform(-1.2 * eps if trial % 2 else 0.0, 0.3 * spike, size=n - 1)
    basis, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
    H = (basis * np.concatenate([[spike], lam])) @ basis.T
    assert power_iteration_norm(H, x0, 5) < 0.9 * spike
    return H


def test_self_sized_certificates_agree_with_dense_eigenvalues():
    rng = generator(606, stream=7)
    eps, delta = 0.1, DELTA
    agree = runs = 0
    bounds = {SATURATED: 0, LANCZOS: 0}
    estimated = estimated_enough = 0  # lanczos certificates; budget >= the budget at ||H||
    for trial in range(300):
        n = int(rng.integers(3, 61))
        kind = trial % 3
        if kind == 2:
            H = spiked(rng, n, eps, trial)
        else:
            # ||H|| from about eps to 5, so that both bound kinds occur.
            top = float(np.exp(rng.uniform(np.log(eps), np.log(5.0))))
            lam = rng.uniform(0.0, top, size=n)
            if kind == 0:
                lam[0] = -eps * float(rng.uniform(1.0, 1.2))  # just below -eps
            H = random_symmetric(rng, n, lam)
        dense = np.linalg.eigvalsh(H)
        norm_h = float(np.max(np.abs(dense)))
        out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=3)
        runs += 1
        assert out.iterations <= out.budget <= n
        assert out.norm_lower <= norm_h * (1.0 + 1e-12)
        saturated = lanczos_budget(n, eps, delta, out.norm_lower) == n
        assert out.bound == (SATURATED if saturated else LANCZOS)
        bounds[out.bound] += 1
        if out.kind == DIRECTION:
            assert abs(np.linalg.norm(out.v) - 1.0) <= 1e-12
            assert float(out.v @ (H @ out.v)) <= -eps / 2.0 + 1e-10
            agree += 1
        else:
            agree += dense[0] >= -eps
            if out.bound == LANCZOS:
                estimated += 1
                estimated_enough += out.budget >= lanczos_budget(n, eps, delta, norm_h)
    assert agree >= math.ceil((1.0 - delta) * runs)
    assert min(bounds.values()) > 0 and estimated > 0
    assert estimated_enough >= math.ceil((1.0 - delta) * estimated)


def test_parameter_validation():
    with pytest.raises(ValueError):
        lanczos_budget(4, eps=0.0, delta=0.5, norm_h=1.0)
    with pytest.raises(ValueError):
        lanczos_budget(4, eps=0.5, delta=1.0, norm_h=1.0)


@pytest.mark.parametrize("indefinite", [False, True])
def test_large_operator_small_eps(indefinite):
    # n = 400 with eps = 1e-3: the certificate's budget reaches n, so every
    # Lanczos step runs the per-step test on a tridiagonal of up to 400 rows.
    # The direction turns up within a self-sized budget below n.
    n, eps = 400, 1e-3
    rng = generator(5, stream=3)
    lam = rng.uniform(0.0, 3.0, size=n)
    if indefinite:
        lam[0] = -2.0 * eps
    H = random_symmetric(rng, n, lam)
    began = time.perf_counter()
    out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=1)
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    if indefinite:
        assert out.iterations <= out.budget <= n
        saturated = lanczos_budget(n, eps, DELTA, out.norm_lower) == n
        assert out.bound == (SATURATED if saturated else LANCZOS)
        assert out.kind == DIRECTION
        assert float(out.v @ (H @ out.v)) <= -eps / 2.0 + 1e-12
    else:
        assert out.budget == n
        assert out.kind == CERTIFICATE
        assert out.ritz >= float(np.min(lam)) - 1e-10


def test_non_finite_lanczos_data_raises():
    n = 5
    with pytest.raises(NonFiniteError, match="alpha_1 is nan"):
        minimum_eigenvalue_oracle(lambda v: np.full(n, np.nan), n, 0.1)
    # H = 1e200 * 1 1^T is PSD, so no direction turns up, and ||H q_1||^2
    # overflows before the residual norm does.
    with pytest.raises(NonFiniteError, match=r"\|\|H q_1\|\| is inf"), np.errstate(over="ignore"):
        minimum_eigenvalue_oracle(lambda v: 1e200 * v.sum() * np.ones(n), n, 0.1)


def test_self_sized_norm_overflow_raises():
    # The start q_1 is H's top eigenvector, so ||H q_1||^2 overflows while the
    # Lanczos residual stays small.  A breakdown test scaled by an infinite
    # norm would certify this H, whose lambda_min is below -0.7, at once.
    n = 5
    q = unit_vector(0, n, STREAM_MEO_START)
    H = 1e160 * np.outer(q, q) - np.diag([0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonFiniteError, match=r"\|\|H q_1\|\| is inf"), np.errstate(over="ignore"):
        minimum_eigenvalue_oracle(matvec(H), n, 0.1)
