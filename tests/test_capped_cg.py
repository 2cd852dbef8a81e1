import math

import mpmath
import numpy as np
import pytest

from ncgopt import (
    NC,
    SOL,
    CapParams,
    CappedCgError,
    capped_cg,
    iteration_cap,
    update_cap_params,
)
from ncgopt.capped_cg import CgOutcome
from ncgopt.sampling import generator


def matvec(H):
    return lambda v: H @ v


def random_symmetric(rng, n, lo=-5.0, hi=5.0):
    """Symmetric matrix with eigenvalues drawn uniformly from [lo, hi]."""
    lam = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * lam) @ q.T


def reference_capped_cg(hvp, g, eps, zeta, U=0.0):
    """The capped-CG loop with a direct product H r^j for the cap test.

    Kept as the reference for ``capped_cg``, which takes H r^j from the
    recurrence instead; assumes valid inputs.
    """
    n = g.shape[0]
    params = CapParams.from_cap(U, eps, zeta)
    two_eps = 2.0 * eps
    y = np.zeros(n)
    r = g.copy()
    p = -g
    hp = np.asarray(hvp(p), dtype=float)
    hvp_calls, hvp_aux = 1, 0
    hbar_p = hp + two_eps * p
    pp = float(p @ p)
    if float(p @ hbar_p) < eps * pp:
        return CgOutcome(p, NC, 0, params, hvp_calls, hvp_aux)
    norm_hp = float(np.linalg.norm(hp))
    norm_p = math.sqrt(pp)
    if norm_hp > params.U * norm_p:
        params = update_cap_params(params, norm_hp / norm_p)
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
        hvp_calls += 1
        hbar_p = hp + two_eps * p
        if not (np.isfinite(rr) and np.all(np.isfinite(p))):
            raise CappedCgError("non-finite CG iterate", j)
        norm_p = float(np.linalg.norm(p))
        norm_hp = float(np.linalg.norm(hp))
        if norm_hp > params.U * norm_p:
            params = update_cap_params(params, norm_hp / norm_p)
        norm_y = float(np.linalg.norm(y))
        norm_hy = float(np.linalg.norm(hy))
        if norm_y > 0.0 and norm_hy > params.U * norm_y:
            params = update_cap_params(params, norm_hy / norm_y)
        norm_r = math.sqrt(rr)
        if norm_r > 0.0:
            hr = np.asarray(hvp(r), dtype=float)
            hvp_aux += 1
            norm_hr = float(np.linalg.norm(hr))
            if norm_hr > params.U * norm_r:
                params = update_cap_params(params, norm_hr / norm_r)
        yy = float(y @ y)
        if float(y @ hy) + two_eps * yy < eps * yy:
            return CgOutcome(y, NC, j, params, hvp_calls, hvp_aux)
        if norm_r <= params.zeta_hat * r0_norm:
            return CgOutcome(y, SOL, j, params, hvp_calls, hvp_aux)
        p_hbar_p = float(p @ hbar_p)
        if p_hbar_p < eps * (norm_p * norm_p):
            return CgOutcome(p, NC, j, params, hvp_calls, hvp_aux)
        if norm_r > math.sqrt(params.T_cap) * params.tau ** (j / 2.0) * r0_norm:
            alpha_b = rr / p_hbar_p
            y_next = y + alpha_b * p
            hy_next = hy + alpha_b * hp
            for i in range(j):
                dy = y_next - ys[i]
                dd = float(dy @ dy)
                curv = float(dy @ (hy_next - hys[i])) + two_eps * dd
                if curv < eps * dd:
                    return CgOutcome(dy, NC, j, params, hvp_calls, hvp_aux)
            raise CappedCgError("residual blow-up without a negative-curvature pair", j)
        if j > n + 5:
            raise CappedCgError("failed to terminate within the dimension bound", j)


def check_sol_contract(H, g, eps, zeta, out, slack=1e-8):
    d = out.d
    hbar_d = H @ d + 2.0 * eps * d
    dn2 = float(d @ d)
    scale = max(1.0, abs(float(d @ hbar_d)))
    assert eps * dn2 <= float(d @ hbar_d) + slack * scale
    assert np.linalg.norm(d) <= 1.1 / eps * np.linalg.norm(g) * (1.0 + slack)
    lhs = float(d @ g)
    rhs = -float(d @ hbar_d)
    assert abs(lhs - rhs) <= slack * max(1.0, abs(lhs), abs(rhs))
    assert np.linalg.norm(hbar_d + g) <= zeta * eps * np.linalg.norm(d) / 2.0 + slack * scale


def check_nc_contract(H, g, eps, out):
    d = out.d
    dn2 = float(d @ d)
    assert dn2 > 0.0
    assert float(d @ g) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(g)
    assert float(d @ (H @ d)) <= -eps * dn2 * (1.0 - 1e-10)


def test_identity_system_single_step():
    # (I + 2 I) d = -e1 solved exactly in one CG step: d = -g / 3.
    for n in (1, 4, 10):
        g = np.zeros(n)
        g[0] = 1.0
        out = capped_cg(matvec(np.eye(n)), g, eps=1.0, zeta=0.5)
        assert out.d_type == SOL
        assert out.iterations == 1
        np.testing.assert_allclose(out.d, -g / 3.0, rtol=0, atol=1e-14)


def test_zero_damped_operator_is_immediate_nc():
    # H = -I with eps = 0.5 makes H + 2 eps I the zero operator, so the
    # pre-loop curvature test fires and returns p0 = -g.
    g = np.array([1.0, 0.0, 0.0])
    out = capped_cg(matvec(-np.eye(3)), g, eps=0.5, zeta=0.5)
    assert out.d_type == NC
    assert out.iterations == 0
    np.testing.assert_array_equal(out.d, -g)
    check_nc_contract(-np.eye(3), g, 0.5, out)


def test_diagonal_sol_matches_dense_solve():
    H = np.diag([10.0, 1.0, 0.1])
    g = np.ones(3)
    eps, zeta = 0.01, 0.5
    out = capped_cg(matvec(H), g, eps, zeta)
    assert out.d_type == SOL
    check_sol_contract(H, g, eps, zeta, out)
    dense = np.linalg.solve(H + 2 * eps * np.eye(3), -g)
    # The residual bound caps the distance to the dense solution.
    bound = zeta * eps * np.linalg.norm(out.d) / 2.0 / min(np.diag(H) + 2 * eps)
    assert np.linalg.norm(out.d - dense) <= bound + 1e-12


def test_update_cap_params_direct_formulas():
    base = CapParams.from_cap(0.0, eps=1.0, zeta=0.5)
    up = update_cap_params(base, 1.0)
    assert up.kappa == 3.0
    assert up.zeta_hat == 0.5 / 9.0
    assert up.tau == math.sqrt(3.0) / (math.sqrt(3.0) + 1.0)

    same = update_cap_params(up, up.U)
    assert same == up

    base2 = CapParams.from_cap(0.0, eps=0.5, zeta=0.5)
    up2 = update_cap_params(base2, 10.0)
    with mpmath.workdps(50):
        kappa = (mpmath.mpf(10) + 2 * mpmath.mpf("0.5")) / mpmath.mpf("0.5")
        tau = mpmath.sqrt(kappa) / (mpmath.sqrt(kappa) + 1)
        t_cap = 4 * kappa**4 / (1 - mpmath.sqrt(tau)) ** 2
        assert abs(up2.kappa - float(kappa)) <= 1e-12 * float(kappa)
        assert abs(up2.zeta_hat - float(mpmath.mpf("0.5") / (3 * kappa))) <= 1e-15
        assert abs(up2.tau - float(tau)) <= 1e-15
        assert abs(up2.T_cap - float(t_cap)) <= 1e-12 * float(t_cap)


def test_fuzzed_contract_suite():
    # Mix indefinite and positive-definite spectra so both outcome types
    # get broad coverage (indefinite draws almost always end NC).
    rng = generator(2024, stream=11)
    eps_choices = [1e-3, 1e-2, 1e-1, 1.0]
    n_sol = n_nc = 0
    for trial in range(90):
        n = int(rng.integers(2, 31))
        if trial % 3 == 2:
            H = random_symmetric(rng, n, lo=0.5, hi=5.0)
        else:
            H = random_symmetric(rng, n)
        g = rng.standard_normal(n)
        while np.linalg.norm(g) == 0.0:
            g = rng.standard_normal(n)
        eps = eps_choices[trial % len(eps_choices)]
        zeta = 0.5
        out = capped_cg(matvec(H), g, eps, zeta)
        norm_h = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        if out.d_type == SOL:
            n_sol += 1
            check_sol_contract(H, g, eps, zeta, out)
        else:
            n_nc += 1
            check_nc_contract(H, g, eps, out)
        assert out.iterations <= iteration_cap(norm_h, eps, zeta, n)
        assert out.final_params.U <= norm_h + 1e-10
    assert n_sol >= 20 and n_nc >= 20


def test_preconditions():
    with pytest.raises(ValueError):
        capped_cg(matvec(np.eye(2)), np.zeros(2), 1.0, 0.5)
    with pytest.raises(ValueError):
        capped_cg(matvec(np.eye(2)), np.ones(2), 0.0, 0.5)
    with pytest.raises(ValueError):
        capped_cg(matvec(np.eye(2)), np.ones(2), 1.0, 1.5)


def test_nonfinite_operator_raises_with_iteration():
    def bad(v):
        out = np.full_like(v, np.nan)
        return out

    with pytest.raises((CappedCgError, ValueError)):
        capped_cg(bad, np.ones(3), 1.0, 0.5)


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
        capped_cg(hvp, np.ones(5), 1e-3, 0.5)


def test_matches_reference_loop_on_random_systems():
    # The recurrence for H r^j changes only the rounding of ||H r^j||, so
    # the outcome must match the direct-product loop exactly and the cap U
    # to rounding.
    rng = generator(2025, stream=12)
    eps_choices = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    kinds = set()
    for trial in range(400):
        n = int(rng.integers(2, 60))
        if trial % 2:
            H = random_symmetric(rng, n, lo=0.0, hi=float(rng.uniform(0.5, 100.0)))
        else:
            H = random_symmetric(rng, n, lo=-float(rng.uniform(0.01, 5.0)), hi=5.0)
        g = rng.standard_normal(n)
        eps = eps_choices[trial % len(eps_choices)]
        out = capped_cg(matvec(H), g, eps, 0.5)
        ref = reference_capped_cg(matvec(H), g, eps, 0.5)
        assert out.d_type == ref.d_type
        assert out.iterations == ref.iterations
        np.testing.assert_array_equal(out.d, ref.d)
        assert abs(out.final_params.U - ref.final_params.U) <= 1e-12 * ref.final_params.U
        assert out.hvp_calls == ref.hvp_calls
        kinds.add(out.d_type)
    assert kinds == {SOL, NC}


def test_hvp_budget_accounting():
    H = np.diag([3.0, 2.0, 1.0])
    calls = 0

    def hvp(v):
        nonlocal calls
        calls += 1
        return H @ v

    out = capped_cg(hvp, np.ones(3), 0.5, 0.5)
    # Exactly one product per iteration plus the initial one.
    assert out.iterations >= 2
    assert calls == out.hvp_calls == out.iterations + 1
    assert out.hvp_calls_aux == 0


def test_nonzero_initial_cap_input():
    # Optional input U > 0 seeds the derived constants and still satisfies
    # the SOL contract.
    H = np.diag([4.0, 2.0, 1.0])
    g = np.ones(3)
    out = capped_cg(matvec(H), g, eps=0.1, zeta=0.5, U=4.0)
    assert out.d_type == SOL
    assert out.final_params.U == 4.0  # never exceeded by observed ratios
    check_sol_contract(H, g, 0.1, 0.5, out)
