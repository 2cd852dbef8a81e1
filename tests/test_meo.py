import math
import time
import warnings

import numpy as np
import pytest

import ncgopt.meo as meo
from ncgopt.bounds import lanczos_budget
from ncgopt.meo import (
    CERTIFICATE,
    DIRECTION,
    DELTA,
    NonFiniteError,
    _norm,
    _squared_norm,
    minimum_eigenvalue_oracle,
    shifted_pivot,
    smallest_eigenpair,
    smallest_eigenvalue,
)
from ncgopt.newton_cg import MEO, SOSP_CERTIFIED
from ncgopt.oracle import ProblemOracle
from ncgopt.problems import gen_infeasibility
from ncgopt.sampling import STREAM_MEO_START, STREAM_NORM_EST, generator, unit_vector
from support import check_meo, fuzz_meo, matvec, rotated, solve


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
    assert not check_meo(np.eye(5), 0.5, out)


def test_small_indefinite_returns_direction():
    H = np.diag([1.0, -2.0])
    out = minimum_eigenvalue_oracle(matvec(H), 2, eps=1.0, seed=7)
    assert check_meo(H, 1.0, out)
    # Dense oracle confirms such a direction exists: lambda_min = -2 <= -eps.
    assert np.linalg.eigvalsh(H)[0] <= -1.0


def test_budget_formula():
    assert lanczos_budget(100, eps=0.01, delta=0.01, norm_h=1.0) == 76
    # Dimension caps the budget.
    assert lanczos_budget(3, eps=1e-6, delta=0.01, norm_h=10.0) == 3
    assert lanczos_budget(100, eps=0.01, delta=0.01, norm_h=math.inf) == 100  # no bound: run to n


def test_fuzzed_indefinite_and_psd():
    fuzz_meo(generator(99, stream=21), eps=0.1, indefinite=80, psd=40, psd_stream=1)


@pytest.mark.parametrize(
    "lam, eps",
    [
        # No Ritz value is at or below a NaN or -inf shift, so these would
        # certify lambda_min = -1 ...
        ([-1.0, 1.0, 2.0], math.nan),
        ([-1.0, 1.0, 2.0], math.inf),
        # ... and a shift of +1/2 would pass a "direction" of curvature +0.2.
        ([0.2, 1.0, 2.0], -1.0),
    ],
)
def test_eps_outside_the_open_half_line_is_rejected_before_any_product(lam, eps):
    calls = []
    hvp = lambda v: calls.append(v) or np.array(lam) * v
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, inf\)"):
        minimum_eigenvalue_oracle(hvp, 3, eps)
    assert calls == []


@pytest.mark.parametrize("n", [0, 3.5, True])
def test_dimension_must_be_a_positive_integer(n):
    # Otherwise n = 0 fails on an index and n = 3.5 on an array shape.
    calls = []
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        minimum_eigenvalue_oracle(lambda v: calls.append(v) or v, n, 0.1)
    assert calls == []


def test_breakdown_on_invariant_subspace():
    # Start vector confined to an eigenspace: Lanczos exhausts it instantly.
    H = np.diag([2.0, 2.0, 2.0])
    out = minimum_eigenvalue_oracle(matvec(H), 3, eps=0.5)
    assert out.kind == CERTIFICATE
    assert out.iterations < 3


def power_iteration_norm(H, x, steps):
    """||H x_k|| after k power steps from unit x: a lower estimate of ||H||."""
    for _ in range(steps):
        y = H @ x
        x = y / np.linalg.norm(y)
    return float(np.linalg.norm(H @ x))


def spiked(rng, n, eps, trial, hidden_negative=False):
    """One spike eigenvalue whose eigenvector is nearly orthogonal to a unit
    start x0 (a 1e-8 component), over a bulk of n - 1 eigenvalues.

    By default the spike is large, x0 is a power-iteration start and 5 power
    steps from x0 underestimate ||H||.  With ``hidden_negative`` the spike is
    -1 below a bulk in [0, 0.01], and x0 is the eigenvalue oracle's own start
    at seed ``trial``: its early Krylov subspaces see only the bulk, so a run
    that stops short of n certifies lambda_min >= -eps wrongly for eps < 1.
    """
    x0 = unit_vector(trial, n, STREAM_MEO_START if hidden_negative else STREAM_NORM_EST)
    z = rng.standard_normal(n)
    u = z - (z @ x0) * x0
    u = u / np.linalg.norm(u) + 1e-8 * x0
    u = u / np.linalg.norm(u)
    if hidden_negative:
        spike, lam = -1.0, rng.uniform(0.0, 0.01, size=n - 1)
    else:
        spike = float(rng.uniform(0.2, 5.0))
        lam = rng.uniform(-1.2 * eps if trial % 2 else 0.0, 0.3 * spike, size=n - 1)
    basis, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
    H = (basis * np.concatenate([[spike], lam])) @ basis.T
    if not hidden_negative:
        assert power_iteration_norm(H, x0, 5) < 0.9 * spike
    return H


def test_self_sized_certificates_agree_with_dense_eigenvalues():
    rng = generator(606, stream=7)
    eps, delta = 0.1, DELTA
    agree = runs = 0
    for trial in range(300):
        n = int(rng.integers(3, 61))
        kind = trial % 3
        if kind == 2:
            H = spiked(rng, n, eps, trial)
        else:
            # ||H|| from about eps to 5.
            top = float(np.exp(rng.uniform(np.log(eps), np.log(5.0))))
            lam = rng.uniform(0.0, top, size=n)
            if kind == 0:
                lam[0] = -eps * float(rng.uniform(1.0, 1.2))  # just below -eps
            H = rotated(rng, lam)
        dense = np.linalg.eigvalsh(H)
        out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=trial, stream=3)
        runs += 1
        agree += check_meo(H, eps, out) or dense[0] >= -eps
    assert agree >= math.ceil((1.0 - delta) * runs)


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("seed", range(5))
def test_negative_spike_hidden_from_the_start_is_never_certified(n, seed):
    # lambda_min = -1 with eps = 0.5, behind a bulk of norm 0.01 that a
    # budget sized from the first Lanczos steps would take for all of H.
    eps = 0.5
    H = spiked(generator(seed, stream=9), n, eps, seed, hidden_negative=True)
    lam_min = float(np.linalg.eigvalsh(H)[0])
    out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=seed)
    assert check_meo(H, eps, out) or lam_min >= -eps
    # Both drivers start at the saddle x = 0 and call the oracle with the
    # same seed and stream first.
    quad = ProblemOracle(n, lambda x: 0.5 * float(x @ (H @ x)), lambda x: H @ x, lambda x, v: H @ v, "hidden")
    for solver in ("alg1", "alg2"):
        res = solve(solver, quad, np.zeros(n), eps_H=eps, seed=seed, max_outer=5)
        assert res.status != SOSP_CERTIFIED
        assert res.counters.meo_calls >= 1 and res.trace[0].step_type == MEO


def test_parameter_validation():
    with pytest.raises(ValueError):
        lanczos_budget(4, eps=0.0, delta=0.5, norm_h=1.0)
    with pytest.raises(ValueError):
        lanczos_budget(4, eps=0.5, delta=1.0, norm_h=1.0)
    for norm_h in (math.nan, -1.0):
        with pytest.raises(ValueError, match="norm_h"):
            lanczos_budget(4, eps=0.5, delta=0.5, norm_h=norm_h)
    for n in (0, 2.5, True, "5"):
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            lanczos_budget(n, eps=0.01, delta=0.01, norm_h=1.0)
    assert lanczos_budget(np.int64(100), eps=0.01, delta=0.01, norm_h=1.0) == 76


@pytest.mark.parametrize("indefinite", [False, True])
def test_large_operator_small_eps(indefinite):
    # n = 400 with eps = 1e-3: the certificate runs to k = n, so every
    # Lanczos step runs the per-step test on a tridiagonal of up to 400 rows.
    n, eps = 400, 1e-3
    rng = generator(5, stream=3)
    lam = rng.uniform(0.0, 3.0, size=n)
    if indefinite:
        lam[0] = -2.0 * eps
    H = rotated(rng, lam)
    began = time.perf_counter()
    out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=1)
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    if indefinite:
        assert out.iterations <= n
        assert out.kind == DIRECTION
        assert float(out.v @ (H @ out.v)) <= -eps / 2.0 + 1e-12
    else:
        assert out.iterations == n
        assert out.kind == CERTIFICATE
        assert smallest_eigenvalue(*out.tridiagonal) >= float(np.min(lam)) - 1e-10


def test_non_finite_lanczos_data_raises():
    n = 5
    with pytest.raises(NonFiniteError, match="alpha_1 is nan"):
        minimum_eigenvalue_oracle(lambda v: np.full(n, np.nan), n, 0.1)
    # H = 1e200 * 1 1^T is PSD, so no direction turns up, and ||H q_1||^2
    # overflows before the residual norm does.
    with pytest.raises(NonFiniteError, match=r"\|\|H q_1\|\| is inf"):
        minimum_eigenvalue_oracle(lambda v: 1e200 * v.sum() * np.ones(n), n, 0.1)


def test_self_sized_norm_overflow_raises():
    # The start q_1 is H's top eigenvector, so ||H q_1||^2 overflows while the
    # Lanczos residual stays small.  A breakdown test scaled by an infinite
    # norm would certify this H, whose lambda_min is below -0.7, at once.
    n = 5
    q = unit_vector(0, n, STREAM_MEO_START)
    H = 1e160 * np.outer(q, q) - np.diag([0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonFiniteError, match=r"\|\|H q_1\|\| is inf"):
        minimum_eigenvalue_oracle(matvec(H), n, 0.1)


@pytest.mark.parametrize("n", [1, 100, 400])
def test_norm_keeps_the_bits_of_numpy(n):
    rng = np.random.default_rng(n)
    for scale in 10.0 ** np.arange(-150, 151, 30):
        v = scale * rng.standard_normal(n)
        assert _norm(v) == float(np.linalg.norm(v))
        block = scale * rng.standard_normal((3, n))
        assert _squared_norm(block).tolist() == [float(row @ row) for row in block]


def test_overflowing_square_is_inf_without_an_exception():
    v, block = np.array([1e200, 1.0]), np.array([[1.0, 2.0], [1e160, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _norm(v) == math.inf
        assert _squared_norm(block).tolist() == [5.0, math.inf]
    with np.errstate(over="raise"):
        assert _norm(v) == math.inf
        assert _squared_norm(block).tolist() == [5.0, math.inf]


@pytest.mark.parametrize("n", [5, 50, 100])
def test_run_to_n_is_not_a_breakdown(n):
    # Distinct eigenvalues and a random start: the Krylov subspace reaches
    # k = n, where the residual is rounding noise, not an invariant subspace.
    H = np.diag(np.linspace(0.1, 3.0, n))
    out = minimum_eigenvalue_oracle(matvec(H), n, eps=0.01, seed=2)
    assert out.kind == CERTIFICATE and out.iterations == n


def test_driver_certificate_takes_no_dense_eigensolve(monkeypatch):
    calls = []

    def counted(diag, offdiag):
        calls.append(None)
        return smallest_eigenpair(diag, offdiag)

    monkeypatch.setattr(meo, "smallest_eigenpair", counted)
    oracle = gen_infeasibility(100, 10, 2.25, seed=1)
    res = solve("alg2", oracle, np.zeros(100), eps_H=1e-3, seed=1)
    assert res.status == SOSP_CERTIFIED and res.counters.meo_calls >= 1
    assert calls == []


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("spectrum", ["logspace", "linspace", "indefinite"])
def test_reorthogonalization_keeps_certificates_and_directions_exact(n, spectrum):
    # Spectra graded over 12 decades: without reorthogonalization the basis
    # loses orthogonality once the large eigenvalues converge, T_n no longer
    # holds the small ones, and the indefinite case ends in a wrong
    # certificate.
    eps = 1e-3
    lam = {
        "logspace": np.logspace(-6.0, 6.0, n),
        "linspace": np.linspace(0.1, 3.0, n),
        "indefinite": np.concatenate([[-2.0 * eps], np.logspace(-6.0, 6.0, n - 1)]),
    }[spectrum]
    H = rotated(generator(n, stream=11), lam)
    dense = np.linalg.eigvalsh(H)
    out = minimum_eigenvalue_oracle(matvec(H), n, eps, seed=3)
    if spectrum == "indefinite":
        assert out.kind == DIRECTION
        assert float(out.v @ (H @ out.v)) <= -eps / 2.0
    else:
        assert out.kind == CERTIFICATE
        assert abs(smallest_eigenvalue(*out.tridiagonal) - dense[0]) <= 1e-12 * float(np.max(np.abs(dense)))
