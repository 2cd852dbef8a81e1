import math

import mpmath
import numpy as np
import pytest

import ncgopt.capped_cg as capped_cg_module
from ncgopt.bounds import iteration_cap
from ncgopt.capped_cg import (
    NC,
    SOL,
    ZETA,
    CappedCgError,
    CgOutcome,
    KrylovRecord,
    cap_constants,
    capped_cg,
)
from ncgopt.oracle import ProblemOracle
from ncgopt.sampling import generator
from support import check_capped_cg, counted, fuzz_capped_cg, matvec, random_symmetric, rotated


def reference_capped_cg(hvp, g, eps, zeta):
    """The capped-CG loop with a direct product H r^j for the cap test.

    Kept as the reference for ``capped_cg``, which takes H r^j from the
    recurrence instead and replays the run for the pair search where this
    loop stores every iterate; assumes valid inputs.
    """
    n = g.shape[0]
    U = 0.0
    two_eps = 2.0 * eps
    y = np.zeros(n)
    r = g.copy()
    p = -g
    hp = np.asarray(hvp(p), dtype=float)
    hbar_p = hp + two_eps * p
    pp = float(p @ p)
    norm_hp = float(np.linalg.norm(hp))
    norm_p = math.sqrt(pp)
    if norm_hp > U * norm_p:
        U = max(U, norm_hp / norm_p)
    if float(p @ hbar_p) < eps * pp:
        return CgOutcome(p, NC, float(p @ hp), 0, U)
    hy = np.zeros(n)
    ys, hys = [y], [hy]
    r0_norm = float(np.linalg.norm(r))
    rr = float(r @ r)
    j = 0
    while True:
        p_hbar_p = float(p @ hbar_p)
        if not p_hbar_p > 0.0:
            raise CappedCgError("loss of positive curvature along p", j)
        alpha = rr / p_hbar_p
        y = y + alpha * p
        hy = hy + alpha * hp
        r = r + alpha * hbar_p
        rr_new = float(r @ r)
        beta = rr_new / rr
        p = -r + beta * p
        rr = rr_new
        j += 1
        ys.append(y)
        hys.append(hy)
        hp = np.asarray(hvp(p), dtype=float)
        hbar_p = hp + two_eps * p
        if not (np.isfinite(rr) and np.all(np.isfinite(p))):
            raise CappedCgError("non-finite CG iterate", j)
        norm_p = float(np.linalg.norm(p))
        norm_hp = float(np.linalg.norm(hp))
        if norm_hp > U * norm_p:
            U = max(U, norm_hp / norm_p)
        norm_y = float(np.linalg.norm(y))
        norm_hy = float(np.linalg.norm(hy))
        if norm_y > 0.0 and norm_hy > U * norm_y:
            U = max(U, norm_hy / norm_y)
        norm_r = math.sqrt(rr)
        if norm_r > 0.0:
            norm_hr = float(np.linalg.norm(hvp(r)))
            if norm_hr > U * norm_r:
                U = max(U, norm_hr / norm_r)
        zeta_hat, tau, sqrt_t_cap, j_end = capped_cg_module.cap_constants(U, eps, zeta)
        yy = float(y @ y)
        y_hy = float(y @ hy)
        if y_hy + two_eps * yy < eps * yy:
            return CgOutcome(y, NC, y_hy, j, U)
        if norm_r <= zeta_hat * r0_norm:
            return CgOutcome(y, SOL, y_hy, j, U)
        p_hbar_p = float(p @ hbar_p)
        if p_hbar_p < eps * (norm_p * norm_p):
            return CgOutcome(p, NC, float(p @ hp), j, U)
        if norm_r > sqrt_t_cap * tau ** (j / 2.0) * r0_norm:
            alpha_b = rr / p_hbar_p
            y_next = y + alpha_b * p
            hy_next = hy + alpha_b * hp
            for i in range(j):
                dy = y_next - ys[i]
                dd = float(dy @ dy)
                dy_hdy = float(dy @ (hy_next - hys[i]))
                if dy_hdy + two_eps * dd < eps * dd:
                    return CgOutcome(dy, NC, dy_hdy, j, U)
            raise CappedCgError("residual blow-up without a negative-curvature pair", j)
        if j >= j_end:
            raise CappedCgError("no termination test fired by pass J(U)", j)


def test_identity_system_single_step():
    # (I + 2 I) d = -e1 solved exactly in one CG step: d = -g / 3.
    for n in (1, 4, 10):
        g = np.zeros(n)
        g[0] = 1.0
        out = capped_cg(matvec(np.eye(n)), g, eps=1.0)
        assert out.d_type == SOL
        assert out.iterations == 1
        np.testing.assert_allclose(out.d, -g / 3.0, rtol=0, atol=1e-14)


def test_zero_damped_operator_is_immediate_nc():
    # H = -I with eps = 0.5 makes H + 2 eps I the zero operator, so the
    # pre-loop curvature test fires and returns p0 = -g.
    g = np.array([1.0, 0.0, 0.0])
    out = capped_cg(matvec(-np.eye(3)), g, eps=0.5)
    assert out.d_type == NC
    assert out.iterations == 0
    np.testing.assert_array_equal(out.d, -g)
    check_capped_cg(-np.eye(3), g, 0.5, out)


def test_diagonal_sol_matches_dense_solve():
    H = np.diag([10.0, 1.0, 0.1])
    g = np.ones(3)
    eps, zeta = 0.01, ZETA
    out = capped_cg(matvec(H), g, eps)
    assert out.d_type == SOL
    check_capped_cg(H, g, eps, out)
    dense = np.linalg.solve(H + 2 * eps * np.eye(3), -g)
    # The residual bound caps the distance to the dense solution.
    bound = zeta * eps * np.linalg.norm(out.d) / 2.0 / min(np.diag(H) + 2 * eps)
    assert np.linalg.norm(out.d - dense) <= bound + 1e-12


def test_cap_constants_direct_formulas():
    zeta_hat, tau, _, _ = cap_constants(1.0, eps=1.0, zeta=0.5)  # kappa = 3
    assert zeta_hat == 0.5 / 9.0
    assert tau == math.sqrt(3.0) / (math.sqrt(3.0) + 1.0)

    # kappa = 21, and kappa = 1e35 + 2, where 1 - sqrt(tau) rounds to 0.
    for U, eps in ((10.0, 0.5), (1e35, 1.0)):
        zeta_hat, tau, sqrt_t_cap, _ = cap_constants(U, eps, zeta=0.5)
        with mpmath.workdps(50):
            kappa = (mpmath.mpf(U) + 2 * mpmath.mpf(eps)) / mpmath.mpf(eps)
            tau_ref = mpmath.sqrt(kappa) / (mpmath.sqrt(kappa) + 1)
            t_cap = 4 * kappa**4 / (1 - mpmath.sqrt(tau_ref)) ** 2
            assert abs(zeta_hat - float(mpmath.mpf("0.5") / (3 * kappa))) <= 1e-15 * zeta_hat
            assert abs(tau - float(tau_ref)) <= 1e-15
            assert abs(sqrt_t_cap**2 - float(t_cap)) <= 1e-12 * float(t_cap)


def test_cap_constants_pass_bound_is_past_the_envelope_crossing():
    # From pass J on, the exact envelope sqrt(T_cap) tau^(j/2) is at most
    # zeta_hat, so the SOL test or the envelope ends the loop by J.  (J
    # exceeds the crossing by about 1.5 / sqrt(kappa) relative, a margin
    # that the rounding of J swamps once kappa passes about 1e30.)
    for U in (0.0, 1e-3, 1.0, 1e3, 1e8, 1e20):
        for zeta in (0.01, 0.5, 0.99):
            j_end = math.ceil(cap_constants(U, 1.0, zeta)[3])
            with mpmath.workdps(50):
                kappa = mpmath.mpf(U) + 2
                tau = mpmath.sqrt(kappa) / (mpmath.sqrt(kappa) + 1)
                sqrt_t_cap = 2 * kappa**2 / (1 - mpmath.sqrt(tau))
                assert sqrt_t_cap * tau ** (mpmath.mpf(j_end) / 2) <= mpmath.mpf(zeta) / (3 * kappa)
    assert iteration_cap(1e3, 1e-4, 0.5, 10**9) == 377_130


def test_cap_constants_recomputed_only_when_the_cap_grows(monkeypatch):
    caps = []

    def recording(U, eps, zeta):
        caps.append(U)
        return original(U, eps, zeta)

    original = cap_constants
    monkeypatch.setattr(capped_cg_module, "cap_constants", recording)
    out = capped_cg(matvec(np.diag([10.0, 1.0, 0.1, 0.01])), np.ones(4), 1e-3)
    assert out.iterations >= 3
    assert caps[0] == 0.0 and caps[-1] == out.cap
    assert all(a < b for a, b in zip(caps, caps[1:]))


def test_ill_conditioned_positive_definite_system_is_solved():
    # Damped spectrum 1.2e-3 .. 1e3: floating-point CG needs more than n + 5
    # steps, and the residual envelope, not the dimension, bounds the loop.
    H = np.diag(np.logspace(-3.0, 3.0, 10))
    g = np.ones(10)
    eps, zeta = 1e-4, ZETA
    out = capped_cg(matvec(H), g, eps)
    assert out.d_type == SOL
    check_capped_cg(H, g, eps, out)
    assert out.iterations <= iteration_cap(1e3, eps, zeta, 10**9)


def test_fuzzed_contract_suite():
    fuzz_capped_cg(generator(2024, stream=11), trials=90)


def test_preconditions():
    with pytest.raises(ValueError):
        capped_cg(matvec(np.eye(2)), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        capped_cg(matvec(np.eye(2)), np.ones(2), 0.0)
    # g is read by the package's array rule: a string, bool, complex or 2-D g
    # raises, where a float64 cast would read it as numbers or drop its
    # imaginary part.
    calls = []
    for g, message in (
        (np.array([1.0, np.nan]), r"^g must be finite$"),
        (np.array([1.0, -np.inf]), r"^g must be finite$"),
        (np.array(["1", "2"]), r"^g must be real numbers; got ndarray of dtype <U1$"),
        (np.array([True, False]), r"^g must be real numbers; got ndarray of dtype bool$"),
        (np.array([1.0 + 1j, 2.0]), r"^g must be real numbers; got ndarray of dtype complex128$"),
        (np.ones((2, 1)), r"^g must be shape \(2,\); got shape \(2, 1\)$"),
        ([1.0, [2.0, 3.0]], r"^g must be an array; numpy cannot read its list$"),
        (1.0, r"^g must be shape \(1,\); got shape \(\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            capped_cg(lambda v: calls.append(v) or v, g, 1.0)
    assert calls == []


@pytest.mark.parametrize("n", [0, 3.5, True, "5"])
def test_iteration_cap_takes_n_by_the_integer_rule(n):
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        iteration_cap(1.0, 0.1, 0.5, n)
    assert iteration_cap(1.0, 0.1, 0.5, np.int64(3)) == iteration_cap(1.0, 0.1, 0.5, 3) == 3


@pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
def test_eps_outside_the_open_half_line_is_rejected_before_any_product(eps):
    # With eps = inf the first pass would end in a non-finite iterate.
    calls = []
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, inf\)"):
        capped_cg(lambda v: calls.append(v) or v, np.ones(3), eps)
    assert calls == []


def test_eps_whose_double_overflows_is_rejected_before_any_product():
    # eps = 1e308 is finite, but 2 eps = inf would make H-bar p = H p + 2 eps p
    # compute 0 * inf for a zero entry of p.
    calls = []
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, inf\) with 2 eps finite; got 1e\+308$"):
        capped_cg(lambda v: calls.append(v) or v, np.array([1.0, 0.0]), 1e308)
    assert calls == []
    assert capped_cg(lambda v: v, np.array([1.0, 0.0]), 0.5 * 1e308).d_type == SOL


@pytest.mark.parametrize(
    "H, g, eps, message",
    [
        # ||g||^2 overflows at the first pass.
        (np.eye(2), np.array([1e200, 0.0]), 1.0, "non-finite CG iterate"),
        # ||H p|| / ||p|| = 1e150 is finite, but U / eps overflows.
        (1e150 * np.eye(2), np.array([1.0, 0.0]), 1e-160, "curvature ratio overflow"),
        # ||p||^2 = 1e-320 is subnormal, and both p'(H + 2 eps I) p and
        # eps ||p||^2 underflow to 0: no NC test fires, and no positive curvature.
        (np.zeros((2, 2)), np.array([1e-160, 0.0]), 1e-10, "loss of positive curvature along p"),
    ],
)
def test_breakdown_at_the_first_pass_is_named(H, g, eps, message):
    with pytest.raises(CappedCgError, match=rf"^{message} \(iteration 0\)$"):
        capped_cg(matvec(H), g, eps)


def test_nonfinite_operator_raises_with_iteration():
    def bad(v):
        out = np.full_like(v, np.nan)
        return out

    with pytest.raises((CappedCgError, ValueError)):
        capped_cg(bad, np.ones(3), 1.0)


@pytest.mark.parametrize("good_products, iteration", [(0, 0), (1, 1), (2, 2)])
def test_non_finite_product_is_named(good_products, iteration):
    # A NaN product fails every curvature comparison, so without its own test
    # it would surface as a loss of positive curvature.
    H = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    calls = 0

    def hvp(v):
        nonlocal calls
        calls += 1
        return H @ v if calls <= good_products else np.full_like(v, np.nan)

    with pytest.raises(CappedCgError, match=rf"^non-finite Hessian-vector product \(iteration {iteration}\)$"):
        capped_cg(hvp, np.ones(5), 1e-3)


def test_residual_blow_up_pair_carries_its_curvature(monkeypatch):
    # No symmetric input is known to leave the residual envelope, whose
    # constant T_cap grows like kappa^5, so the test shrinks T_cap.  With
    # T_cap = 0.1 this system passes the test at j = 1 and leaves the
    # envelope at j = 2, where the pair (y^3, y^1) has curvature
    # 0.72 eps ||y^3 - y^1||^2 under H + 2 eps I.  With T_cap = 0 it leaves
    # at j = 1, and its one pair (y^2, y^0) has curvature above eps.
    # The pair search replays the run, j products more, and must find the
    # pair the stored iterates of the reference loop give, bit for bit.
    original = cap_constants
    calls = 0

    def hvp(v):
        nonlocal calls
        calls += 1
        return H @ v

    def run(t_cap):
        nonlocal calls
        monkeypatch.setattr(
            capped_cg_module,
            "cap_constants",
            lambda U, eps, zeta: original(U, eps, zeta)[:2] + (math.sqrt(t_cap),) + original(U, eps, zeta)[3:],
        )
        calls = 0
        return capped_cg(hvp, g, eps=1.0)

    H = np.diag([-1.3, 2.9, 2.1])
    g = np.array([1.0, 3.0, 2.0])
    out = run(0.1)
    assert out.d_type == NC and out.iterations == 2
    assert calls == 2 * out.iterations + 1
    ref = reference_capped_cg(matvec(H), g, 1.0, 0.5)
    np.testing.assert_array_equal(out.d, ref.d)
    assert out.curvature == ref.curvature and out.iterations == ref.iterations
    # Plain CG on (H + 2 I) y = -g gives the iterates y^0 .. y^3.
    hbar = H + 2.0 * np.eye(3)
    r, p, ys = g, -g, [np.zeros(3)]
    for _ in range(3):
        alpha = (r @ r) / (p @ hbar @ p)
        ys.append(ys[-1] + alpha * p)
        r_next = r + alpha * (hbar @ p)
        p, r = -r_next + (r_next @ r_next) / (r @ r) * p, r_next
    np.testing.assert_allclose(out.d, ys[3] - ys[1], rtol=1e-12)
    check_capped_cg(H, g, 1.0, out)  # with the reported curvature
    with pytest.raises(CappedCgError, match="without a negative-curvature pair") as err:
        run(0.0)
    assert err.value.iteration == 1


def test_replayed_pair_search_replays_the_record(monkeypatch):
    # The system above, recorded at eps = 0.95, where the run takes four
    # passes and the record keeps n = 3, and replayed at eps = 1 with
    # T_cap = 0.1: it leaves the envelope at j = 2, as the plain run does.
    # Its pair search replays the record as well, so the run calls no HVP,
    # and the pair meets the NC contract.
    original = cap_constants
    H = np.diag([-1.3, 2.9, 2.1])
    g = np.array([1.0, 3.0, 2.0])
    record = KrylovRecord()
    assert capped_cg(matvec(H), g, 0.95, record).iterations == 3 and len(record.passes) == 3
    monkeypatch.setattr(
        capped_cg_module,
        "cap_constants",
        lambda U, eps, zeta: original(U, eps, zeta)[:2] + (math.sqrt(0.1),) + original(U, eps, zeta)[3:],
    )
    calls = []
    out = capped_cg(lambda v: calls.append(v) or H @ v, g, 1.0, record)
    assert calls == []
    assert out.d_type == NC and out.iterations == 2
    check_capped_cg(H, g, 1.0, out)
    plain = capped_cg(matvec(H), g, 1.0)
    np.testing.assert_allclose(out.d, plain.d, rtol=1e-12)


def test_record_keeps_n_passes_and_a_replay_takes_products_past_them():
    # diag(logspace(-3, 3, 20)) at eps = 1e-4 takes 51 passes in floating
    # point, and the record keeps the first n = 20.  Replays at larger eps
    # run past n too; each calls the HVP only from pass n on and leaves the
    # record as it was.
    n = 20
    H = np.diag(np.logspace(-3.0, 3.0, n))
    g = np.ones(n)
    calls = []
    oracle = counted(ProblemOracle(n, lambda x: 0.0, lambda x: g, lambda x, v: H @ v), calls)
    hvp = lambda v: oracle.eval_hvp(g, v)
    record = KrylovRecord()
    base = capped_cg(hvp, g, 1e-4, record)
    assert base.iterations > n and len(calls) == base.iterations + 1
    assert len(record.passes) == n
    kept = list(record.passes)
    for t in range(1, 8):
        eps = 1e-4 * 2.0 ** (t / 2.0)
        calls.clear()
        out = capped_cg(hvp, g, eps, record)
        assert out.d_type == SOL and out.iterations > n
        assert len(calls) == out.iterations + 1 - n
        check_capped_cg(H, g, eps, out)
        assert out.iterations <= iteration_cap(1e3, eps, ZETA, 10**9)
        assert record.passes == kept and record.two_eps == 2e-4


def test_record_replays_only_its_own_g_at_a_larger_eps():
    H = np.diag([1.0, 2.0, 3.0])
    g = np.ones(3)
    record = KrylovRecord()
    capped_cg(matvec(H), g, 0.1, record)
    calls = []
    for other_g, eps in ((g, 0.1), (g, 0.05), (-g, 0.2)):
        with pytest.raises(ValueError, match="^a record replays only for its own g and a larger eps$"):
            capped_cg(lambda v: calls.append(v) or H @ v, other_g, eps, record)
    assert calls == []


def test_pass_bound_ends_the_loop_when_tau_rounds_to_one(monkeypatch):
    # With kappa near 1e35, tau rounds to 1 and the envelope never shrinks;
    # these systems still end by the SOL or the NC tests, within J(U).
    for H in (np.diag(np.logspace(0.0, 35.0, 8)), np.diag([1.0, -1e20, 1e35, 3.0])):
        g = np.ones(H.shape[0])
        out = capped_cg(matvec(H), g, 1.0)
        assert cap_constants(out.cap, 1.0, 0.5)[1] == 1.0
        assert out.iterations <= iteration_cap(1e35, 1.0, 0.5, 10**9)
        if out.d_type == NC:
            check_capped_cg(H, g, 1.0, out)
    # A loop that no test ends stops at J(U): here J is shrunk to 6 and tau
    # pinned to 1 on the ill-conditioned system that needs 17 passes.
    original = cap_constants
    monkeypatch.setattr(
        capped_cg_module, "cap_constants", lambda U, eps, zeta: original(U, eps, zeta)[:1] + (1.0, 1e300, 6)
    )
    calls = 0

    def hvp(v):
        nonlocal calls
        calls += 1
        return v * np.logspace(-3.0, 3.0, 10)

    with pytest.raises(CappedCgError, match="no termination test fired") as err:
        capped_cg(hvp, np.ones(10), 1e-4)
    assert err.value.iteration == 6 and calls == 7


def test_curvature_ratio_overflow_raises():
    # ||H p||^2 overflows for finite H p, so kappa would be inf and neither
    # the envelope nor the pass bound could end the loop; the pass raises
    # before numpy can warn.
    with pytest.raises(CappedCgError, match="curvature ratio overflow") as err:
        capped_cg(matvec(np.diag([1e200, 1.0])), np.ones(2), 1.0)
    assert err.value.iteration == 0


def test_iterate_square_overflow_raises():
    # ||g||^2 = 1e308 is finite and H p = 0, so the first step puts y near
    # 1e154 / (2 eps) and ||y||^2 overflows; the pass raises before any test
    # reads it.
    hvp = lambda v: np.array([0.0, 5.0 * v[1]])
    with pytest.raises(CappedCgError, match=r"non-finite \|\|y\|\|\^2") as err:
        capped_cg(hvp, np.array([1e154, 0.0]), 1e-3)
    assert err.value.iteration == 1


def test_matches_reference_loop_on_random_systems():
    """The recurrence for H r^j changes only the rounding of ||H r^j||, so
    the outcome must match the direct-product loop exactly and the cap U
    to rounding.  The log-spaced positive-definite spectra (trials 400 on)
    all take more than n steps in floating point, most more than n + 5.
    The systems at the benchmark's sizes, n = 100 and 400, also check that
    the workspace's row dot products equal the reference's per-vector ones.

    That bit-identity needs a BLAS core whose ddot does not depend on the
    alignment of its operands: the workspace's rows and the reference's
    separate arrays sit at different addresses.  OpenBLAS's SkylakeX and
    Haswell kernels were checked and do not depend on it; its Prescott
    kernel does (``.github/openblas_core.py`` reports it), and there this
    test fails.
    """
    def check(H, g, eps):
        calls = 0

        def hvp(v):
            nonlocal calls
            calls += 1
            return H @ v

        out = capped_cg(hvp, g, eps)
        ref = reference_capped_cg(matvec(H), g, eps, 0.5)
        assert out.d_type == ref.d_type
        assert out.iterations == ref.iterations
        np.testing.assert_array_equal(out.d, ref.d)
        assert abs(out.cap - ref.cap) <= 1e-12 * ref.cap
        assert calls == ref.iterations + 1
        if out.d_type == NC:  # covers NC iterates y as well as CG directions p
            dense = float(out.d @ (H @ out.d))
            assert abs(out.curvature - dense) <= 1e-12 * abs(dense)
        return out.d_type

    rng = generator(2025, stream=12)
    eps_choices = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    kinds = set()
    for trial in range(500):
        n = int(rng.integers(2, 60))
        eps = eps_choices[trial % len(eps_choices)]
        if trial >= 400:
            lo = float(rng.uniform(-3.0, 0.0))
            H = rotated(rng, np.logspace(lo, lo + float(rng.uniform(6.0, 8.0)), n))
            eps = 1e-4
        elif trial % 2:
            H = random_symmetric(rng, n, lo=0.0, hi=float(rng.uniform(0.5, 100.0)))
        else:
            H = random_symmetric(rng, n, lo=-float(rng.uniform(0.01, 5.0)), hi=5.0)
        g = rng.standard_normal(n)
        kinds.add(check(H, g, eps))
    assert kinds == {SOL, NC}

    rng = generator(2026, stream=12)
    for n in (100, 400):
        kinds = set()
        for H, eps in (
            (random_symmetric(rng, n, lo=0.0, hi=70.0), 1e-3),
            (rotated(rng, np.logspace(-2.0, 2.0, n)), 1e-4),
            (random_symmetric(rng, n, lo=-1.0, hi=70.0), 1e-3),
            (rotated(rng, np.concatenate([[-0.05], np.logspace(-2.0, 2.0, n - 1)])), 1e-4),
        ):
            kinds.add(check(H, rng.standard_normal(n), eps))
        assert kinds == {SOL, NC}


def test_hvp_budget_accounting():
    H = np.diag([3.0, 2.0, 1.0])
    calls = 0

    def hvp(v):
        nonlocal calls
        calls += 1
        return H @ v

    out = capped_cg(hvp, np.ones(3), 0.5)
    # Exactly one product per iteration plus the initial one.
    assert out.iterations >= 2
    assert calls == out.iterations + 1


def test_workspace_never_leaks():
    # One run lives in a single reused workspace; no vector handed to the HVP
    # and no returned direction may be a view of it.
    rng = generator(2027, stream=14)
    kinds = set()
    for H in (random_symmetric(rng, 30, lo=0.1, hi=5.0), rotated(rng, np.linspace(-0.05, 5.0, 30))):
        g = rng.standard_normal(30)
        seen = []

        def recording(v):
            seen.append((v, v.copy()))
            return H @ v

        out = capped_cg(recording, g, 1e-2)
        assert len(seen) > 2
        for i, (v, snapshot) in enumerate(seen):
            np.testing.assert_array_equal(v, snapshot)
            assert not any(np.shares_memory(v, w) for w, _ in seen[i + 1 :])
        assert out.d.base is None and not any(np.shares_memory(out.d, v) for v, _ in seen)
        d = out.d.copy()
        capped_cg(recording, -g, 1e-2)
        np.testing.assert_array_equal(out.d, d)
        kinds.add(out.d_type)
    assert kinds == {SOL, NC}
