import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ncgopt import (
    FOSP,
    MAX_ITERATIONS,
    HolderClass,
    LINE_SEARCH_FAILURE,
    NUMERICAL_FAILURE,
    SOSP_CERTIFIED,
    NcgParams,
    ProblemOracle,
    gen_infeasibility,
    gen_quadratic,
    gen_repu,
    newton_cg_solve,
)
from ncgopt import newton_cg as newton_cg_module
from ncgopt import pf_newton_cg as pf_newton_cg_module
from ncgopt.bench import start_point
from ncgopt.bounds import c_meo, c_nc, c_sol, complexity_bounds, taylor_error_modulus
from ncgopt.capped_cg import NC, capped_cg
from ncgopt.newton_cg import (
    ETA,
    J_MAX,
    MEO,
    THETA,
    LineSearchError,
    gamma_nu,
    line_search_meo,
    line_search_nc,
    line_search_sol,
    scale_meo_direction,
    scale_nc_direction,
)
from ncgopt.oracle import CountingOracle
from ncgopt.sampling import generator
from support import (
    counted,
    fingerprint,
    lying_oracle,
    make_norm_squared,
    matvec,
    rising_line,
    rotated,
    solve,
    stiff_quadratic,
)


def make_saddle():
    return ProblemOracle(
        2,
        lambda x: 0.5 * (x[0] ** 2 - x[1] ** 2),
        lambda x: np.array([x[0], -x[1]]),
        lambda x, v: np.array([v[0], -v[1]]),
        "saddle",
    )


# ---------------------------------------------------------------------------
# gamma_nu and related constants.


def test_gamma_nu_lipschitz_case():
    # Exponent on eps_g vanishes at nu = 1.
    for eps in (1e-6, 1e-2, 0.9):
        assert gamma_nu(eps, HolderClass(1.0, 2.0)) == 8.0


def test_gamma_nu_nu_zero():
    assert abs(gamma_nu(0.01, HolderClass(0.0, 1.0)) - 400.0) <= 1e-12 * 400.0


def test_gamma_nu_fractional_high_precision():
    with mpmath.workdps(50):
        expected = 4 * mpmath.mpf(3) ** (mpmath.mpf(4) / 3) * mpmath.mpf("1e-4") ** (
            -mpmath.mpf(1) / 3
        )
        got = gamma_nu(1e-4, HolderClass(0.5, 3.0))
        assert abs(got - float(expected)) <= 1e-12 * float(expected)


def test_taylor_error_modulus():
    holder = HolderClass(1.0, 7.0)
    assert taylor_error_modulus(0.3, holder) == 7.0  # 0^0 convention
    holder = HolderClass(0.5, 2.0)
    with mpmath.workdps(50):
        nu, h, delta = mpmath.mpf("0.5"), mpmath.mpf(2), mpmath.mpf("0.01")
        expected = ((1 - nu) / (2 * delta * (1 + nu))) ** ((1 - nu) / (1 + nu)) * h ** (
            2 / (1 + nu)
        )
        got = taylor_error_modulus(0.01, holder)
        assert abs(got - float(expected)) <= 1e-12 * float(expected)


def test_complexity_bounds_trivial_and_cross_checked():
    params = NcgParams(eps_g=1e-4, holder=HolderClass(1.0, 1.0))
    k1, k2 = complexity_bounds(params, f0=5.0, f_low=5.0)
    assert k1 == 1  # ceil(0) + 1
    assert k2 is None

    params = NcgParams(eps_g=1e-4, holder=HolderClass(1.0, 1.0))
    k1, _ = complexity_bounds(params, f0=1.0, f_low=0.0)
    with mpmath.workdps(60):
        eta, zeta, theta = mpmath.mpf("0.01"), mpmath.mpf("0.5"), mpmath.mpf("0.5")
        csol = eta * min(
            (2 / (4 + zeta + mpmath.sqrt((4 + zeta) ** 2 + 1))) ** 2,
            (2 * (1 - eta) * theta / 3) ** 2 / 6,
        )
        cnc = eta * theta**2 / 4
        gamma = mpmath.mpf(4)
        expected = int(mpmath.ceil(1 / min(csol, cnc) * mpmath.sqrt(gamma) * mpmath.mpf("1e-4") ** mpmath.mpf("-1.5"))) + 1
        assert k1 == expected


def test_complexity_bounds_k2_undefined_for_nu_zero():
    params = NcgParams(eps_g=1e-2, eps_H=1e-2, holder=HolderClass(0.0, 1.0))
    _, k2 = complexity_bounds(params, f0=1.0, f_low=0.0)
    assert k2 is None

    params = NcgParams(eps_g=1e-2, eps_H=1e-2, holder=HolderClass(0.5, 1.0))
    _, k2 = complexity_bounds(params, f0=1.0, f_low=0.0)
    assert k2 is not None and k2 >= 1


# ---------------------------------------------------------------------------
# Direction scaling.


def test_scale_nc_direction_examples():
    # H = -2 I, so d'Hd = -2 for the unit direction d.
    d = np.array([1.0, 0.0, 0.0])
    g = np.array([1.0, 0.0, 0.0])
    out = scale_nc_direction(d, -2.0, g, sigma=1.0)
    np.testing.assert_allclose(out, -2.0 * d, atol=1e-14)
    out = scale_nc_direction(d, -2.0, -g, sigma=4.0)
    np.testing.assert_allclose(out, 2.0 * d, atol=1e-14)
    with pytest.raises(ValueError):
        scale_nc_direction(np.zeros(3), 0.0, g, 1.0)


def test_scale_nc_direction_rayleigh_property():
    # Scaled directions satisfy d'Hd / ||d||^2 = -min{1, sigma} ||d||.
    rng = generator(5, stream=31)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        lam = rng.uniform(-4.0, 4.0, size=n)
        lam[0] = rng.uniform(-4.0, -0.5)
        H = rotated(rng, lam)
        g = rng.standard_normal(n)
        eps = 0.3
        out = capped_cg(matvec(H), g, eps)
        if out.d_type != "NC":
            continue
        sigma = float(rng.uniform(0.2, 5.0))
        d = scale_nc_direction(out.d, out.curvature, g, sigma)
        dn = np.linalg.norm(d)
        rayleigh = float(d @ (H @ d)) / dn**2
        assert abs(rayleigh + min(1.0, sigma) * dn) <= 1e-10 * max(1.0, dn)
        assert float(d @ g) <= 1e-12 * max(1.0, np.linalg.norm(g) * dn)


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_nc_trials_reuse_capped_cg_curvature(solver, monkeypatch):
    # Scaling an NC direction takes no product of its own: every HVP of a
    # first-order solve is taken inside a capped-CG call, and measuring each
    # NC direction's d'Hd afresh costs exactly one more product per NC trial.
    # A trial that replays its outer iteration's first trial (alg2 only)
    # takes fewer products than passes; any other takes one per pass.
    def run(fresh_curvature):
        calls = []  # (outcome, products inside the call, replayed)

        def recorded(hvp, g, eps, record):
            products = 0

            def counting(v):
                nonlocal products
                products += 1
                return hvp(v)

            replayed = record is not None and bool(record.passes)
            out = capped_cg(counting, g, eps, record)
            calls.append((out, products, replayed))
            if fresh_curvature and out.d_type == NC:
                out.curvature = float(out.d @ hvp(out.d))
            return out

        for module in (newton_cg_module, pf_newton_cg_module):
            monkeypatch.setattr(module, "capped_cg", recorded)
        return solve(solver, gen_repu(30, 6, 2.25, 0), np.full(30, 1.0 / 30.0)), calls

    res, calls = run(fresh_curvature=False)
    n_nc = sum(out.d_type == NC for out, _, _ in calls)
    assert n_nc >= 10
    assert res.counters.hvp_evals == sum(products for _, products, _ in calls)
    replays = [(out, products) for out, products, replayed in calls if replayed]
    assert all(products < out.iterations + 1 for out, products in replays)
    assert all(products == out.iterations + 1 for out, products, replayed in calls if not replayed)
    if solver == "alg2":  # every trial after an outer iteration's first replays
        assert len(replays) == sum(len(outer) - 1 for outer in res.trials) > 0
    else:
        assert replays == []
    fresh, _ = run(fresh_curvature=True)
    assert fresh.counters.hvp_evals - res.counters.hvp_evals == n_nc
    assert fresh.status == res.status == FOSP
    assert len(fresh.trace) == len(res.trace)


def test_scale_meo_direction():
    H = np.diag([1.0, -2.0])
    v = np.array([0.0, 1.0])
    out = scale_meo_direction(v, float(v @ H @ v), np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, np.array([0.0, -2.0]), atol=1e-14)
    # sgn(0) = +1 convention.
    out = scale_meo_direction(v, float(v @ H @ v), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, np.array([0.0, -2.0]), atol=1e-14)
    rng = generator(6, stream=32)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        H = rng.standard_normal((n, n))
        H = (H + H.T) / 2
        g = rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        d = scale_meo_direction(v, float(v @ H @ v), g)
        assert float(d @ g) <= 1e-12


# ---------------------------------------------------------------------------
# Line searches.


def test_line_search_sol_quadratic_full_or_first():
    oracle = CountingOracle(make_norm_squared(4))
    x = np.array([1.0, 0.0, 0.0, 0.0])
    holder = HolderClass(1.0, 1e-8)
    gamma = gamma_nu(1e-4, holder)
    eps_damp = math.sqrt(gamma * 1e-4)
    cg = capped_cg(oracle.hvp_at(x), oracle.eval_grad(x), eps_damp)
    assert cg.d_type == "SOL"
    out = line_search_sol(oracle, x, cg.d, gamma, 1e-4, f_x=0.5)
    assert out.alpha == 1.0
    assert out.f_new < 0.5


def test_line_search_sol_smallest_j_is_zero_on_descent():
    oracle = CountingOracle(make_norm_squared(3))
    x = np.array([2.0, 0.0, 0.0])
    d = np.array([-1.0, 0.0, 0.0])
    # (sigma eps_g)^(1/2) = 0.5
    out = line_search_sol(oracle, x, d, 2500.0, 1e-4, f_x=2.0)
    assert out.j == 0 and out.alpha == 1.0


def exhaustive_smallest_j(f, x, d, rhs):
    """Independent oracle: scan every j <= J_MAX and return the first acceptance."""
    for j in range(J_MAX + 1):
        if f(x + THETA**j * d) <= rhs(j):
            return j
    return None


def test_line_search_sol_minimality_against_scan():
    # Steep curvature forces backtracking; compare against the exhaustive scan.
    curv = 400.0
    oracle = CountingOracle(stiff_quadratic(curv))
    x = np.array([1.0])
    d = np.array([-2.2])  # overshooting direction: the full step increases f
    sigma_eps = 2.0
    f_x = oracle.eval_f(x)
    # sigma = 4e8 with eps_g = 1e-8 gives (sigma eps_g)^(1/2) = sigma_eps exactly.
    out = line_search_sol(oracle, x, d, 4e8, 1e-8, f_x=f_x)
    dn2 = float(d @ d)
    expected = exhaustive_smallest_j(
        lambda y: 0.5 * curv * float(y @ y),
        x,
        d,
        lambda j: f_x - ETA * sigma_eps * THETA ** (2 * j) * dn2,
    )
    assert out.j == expected and out.j > 0
    # j - 1 must fail the Armijo inequality.
    jm = out.j - 1
    assert 0.5 * curv * float((x + THETA**jm * d)[0] ** 2) > f_x - ETA * sigma_eps * THETA ** (2 * jm) * dn2


@pytest.mark.parametrize("search,extra", [(line_search_nc, (2.0,)), (line_search_meo, ())])
def test_cubic_line_searches_minimality(search, extra):
    curv = 60.0
    oracle = CountingOracle(stiff_quadratic(curv))
    x = np.array([1.0])
    d = np.array([-1.8])
    f_x = oracle.eval_f(x)
    out = search(oracle, x, d, *extra, f_x)
    dn3 = abs(d[0]) ** 3
    if search is line_search_nc:
        rhs = lambda j: f_x - ETA * min(1.0, extra[0]) * THETA ** (2 * j) * dn3 / 4.0
    else:
        rhs = lambda j: f_x - ETA * THETA ** (2 * j) * dn3 / 2.0
    expected = exhaustive_smallest_j(lambda y: 0.5 * curv * float(y @ y), x, d, rhs)
    assert out.j == expected


def test_line_search_failure_raises():
    # Ascent direction on a monotone function never satisfies the test.
    oracle = CountingOracle(rising_line())
    with pytest.raises(LineSearchError):
        line_search_nc(oracle, np.zeros(1), np.ones(1), 1.0, f_x=0.0)


# ---------------------------------------------------------------------------
# Driver.


def test_solver_quadratic_reaches_fosp():
    oracle = make_norm_squared(5)
    x0 = np.zeros(5)
    x0[0] = 10.0
    params = NcgParams(eps_g=1e-4, holder=HolderClass(1.0, 1.0))
    res = newton_cg_solve(oracle, x0, params)
    assert res.status == FOSP
    assert np.linalg.norm(res.x_final) <= 1e-4
    fs = [r.f_before for r in res.trace] + [res.f_final]
    assert all(fs[i + 1] < fs[i] for i in range(len(fs) - 1))
    # Independent re-evaluation of the gradient at the final point.
    assert np.linalg.norm(oracle.eval_grad(res.x_final)) <= 1e-4


def test_solver_immediate_exit():
    oracle = make_norm_squared(4)
    params = NcgParams(eps_g=1e-2, holder=HolderClass(1.0, 1.0))
    res = newton_cg_solve(oracle, np.full(4, 1e-6), params)
    assert res.status == FOSP
    assert res.counters.subproblems == 0
    assert res.counters.meo_calls == 0
    assert len(res.trace) == 0


def test_solver_saddle_engages_meo():
    # Gradient starts in the positive-curvature eigenspace, so the solver
    # reaches the small-gradient gate and the eigenvalue oracle must step.
    oracle = make_saddle()
    params = NcgParams(
        eps_g=1e-4, eps_H=1e-2, holder=HolderClass(1.0, 1.0), max_outer=30, seed=0
    )
    res = newton_cg_solve(oracle, np.array([1.0, 0.0]), params)
    assert res.status == MAX_ITERATIONS  # curvature -1 can never be certified
    meo_steps = [r for r in res.trace if r.step_type == MEO]
    assert meo_steps
    for rec in meo_steps:
        assert rec.f_before - rec.f_after >= 0.01 / 2.0 * rec.alpha**2 * rec.d_norm**3 - 1e-12
    eigs = np.linalg.eigvalsh(np.diag([1.0, -1.0]))
    assert eigs[0] < -params.eps_H  # dense oracle: certificate is impossible


def test_solver_sosp_certified_on_psd_quadratic():
    oracle = gen_quadratic(12, np.linspace(1.0, 5.0, 12), seed=3)
    params = NcgParams(
        eps_g=1e-4, eps_H=1e-2, holder=HolderClass(1.0, 1e-8), seed=11
    )
    res = newton_cg_solve(oracle, np.full(12, 2.0), params)
    assert res.status == "SOSP_certified"
    lam_min = np.min(np.linalg.eigvalsh((oracle.meta.basis.T * oracle.meta.eigenvalues) @ oracle.meta.basis))
    assert lam_min >= -params.eps_H


def test_trace_step_inequalities_replay():
    # Every accepted step satisfies its own decrease inequality, replayed
    # from the recorded scalars.
    oracle = gen_quadratic(8, np.linspace(0.5, 4.0, 8), seed=5)
    holder = HolderClass(1.0, 1e-8)
    params = NcgParams(eps_g=1e-6, holder=holder)
    res = newton_cg_solve(oracle, np.full(8, 3.0), params)
    assert res.status == FOSP
    eps_damp = math.sqrt(gamma_nu(params.eps_g, holder) * params.eps_g)
    for rec in res.trace:
        if rec.step_type == "SOL" and rec.accepted_by == "armijo":
            assert rec.f_after <= rec.f_before - ETA * eps_damp * rec.alpha**2 * rec.d_norm**2 + 1e-12
        elif rec.step_type == "NC":
            assert rec.f_after <= rec.f_before - ETA * min(1.0, rec.sigma) * rec.alpha**2 * rec.d_norm**3 / 4.0 + 1e-12


# A trial that already has the gradient at its new point (a SOL step accepted
# at j = 0) hands it to the driver, which takes the gradient itself at every
# other new point: each point's gradient is evaluated once, x_final's too.
@pytest.mark.parametrize(
    "solver, eps_H", [("alg1", None), ("alg1", 1e-3), ("alg2", None), ("alg2", 1e-3), ("acrn", None)]
)
@pytest.mark.parametrize("family", ["infeasibility", "repu"])
def test_each_point_has_its_gradient_evaluated_once(solver, eps_H, family):
    generate, m = {"infeasibility": (gen_infeasibility, 4), "repu": (gen_repu, 8)}[family]
    for seed in range(6):
        oracle = generate(20, m, 2.25, seed)
        calls = Counter()

        def eval_grad(x, grad=oracle.eval_grad):
            calls[x.tobytes()] += 1
            return grad(x)

        res = solve(solver, replace(oracle, eval_grad=eval_grad), start_point(family, 20), eps_H=eps_H, seed=seed)
        assert res.status in (FOSP, SOSP_CERTIFIED), (seed, res.status, res.status_detail)
        assert sum(calls.values()) == res.counters.grad_evals
        assert max(calls.values()) == 1, seed
        assert calls[res.x_final.tobytes()] == 1, seed


def test_c_constants_positive():
    assert c_sol(0.01, 0.5, 0.5) > 0
    assert c_nc(0.01, 0.5) > 0
    assert c_meo(0.01, 0.5, HolderClass(1.0, 1.0)) > 0
    with pytest.raises(ValueError):
        c_meo(0.01, 0.5, HolderClass(0.0, 1.0))


def test_outer_iterations_within_k1_on_valid_holder_data():
    # Quadratics have constant Hessians, so (nu, h_nu) = (1, 1e-8) is valid
    # smoothness data and the worst-case outer bound must hold.
    holder = HolderClass(1.0, 1e-8)
    for seed in range(3):
        oracle = gen_quadratic(20, np.linspace(0.5, 6.0, 20), seed=seed)
        x0 = np.full(20, 2.0)
        params = NcgParams(eps_g=1e-4, holder=holder, seed=seed)
        res = newton_cg_solve(oracle, x0, params)
        assert res.status == FOSP
        k1, _ = complexity_bounds(params, f0=oracle.eval_f(x0), f_low=0.0)
        assert len(res.trace) <= k1

        params_h = NcgParams(eps_g=1e-4, eps_H=1e-2, holder=holder, seed=seed)
        res_h = newton_cg_solve(oracle, x0, params_h)
        assert res_h.status == "SOSP_certified"
        k1, k2 = complexity_bounds(params_h, f0=oracle.eval_f(x0), f_low=0.0)
        assert len(res_h.trace) <= k1 + 2 * k2 - 1


def test_nc_steps_on_indefinite_quadratic():
    # Unbounded-below instance: the driver must ride negative curvature with
    # monotone f until the budget, and every NC step satisfies its decrease.
    lam = np.concatenate([[-2.0, -0.5], np.linspace(1.0, 4.0, 8)])
    oracle = gen_quadratic(10, lam, seed=6)
    params = NcgParams(
        eps_g=1e-4, holder=HolderClass(1.0, 1.0), max_outer=15, seed=2
    )
    res = newton_cg_solve(oracle, np.full(10, 1.0), params)
    assert res.status == MAX_ITERATIONS
    nc_steps = [r for r in res.trace if r.step_type == "NC"]
    assert nc_steps
    for rec in res.trace:
        assert rec.f_after <= rec.f_before
        if rec.step_type == "NC":
            assert rec.f_after <= rec.f_before - ETA * min(1.0, rec.sigma) * rec.alpha**2 * rec.d_norm**3 / 4.0 + 1e-10


def test_backtracking_cap_yields_line_search_failure_status(monkeypatch):
    monkeypatch.setattr(newton_cg_module, "J_MAX", 10)
    res = solve("alg1", lying_oracle(3), np.zeros(3), max_outer=3)
    assert res.status == "LineSearchFailure"
    assert res.status_detail == "SOL backtracking exceeded its cap (j = 11)"


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_meo_backtracking_cap_yields_line_search_failure_status(solver):
    # f and its gradient vanish while the Hessian has curvature -1: the
    # eigenvalue oracle finds a direction, but no step along it can decrease
    # the constant f, so the MEO search exhausts its cap.
    H = np.diag([-1.0, 1.0, 2.0, 3.0])
    flat = ProblemOracle(4, lambda x: 0.0, lambda x: np.zeros(4), lambda x, v: H @ v, "flat-saddle")
    res = solve(solver, flat, np.zeros(4), eps_H=1e-2)
    assert res.status == LINE_SEARCH_FAILURE
    assert res.status_detail == "MEO backtracking exceeded its cap (j = 61)"
    assert res.trace == []
    assert res.counters.meo_calls == 1
    assert res.f_final == 0.0 and np.array_equal(res.x_final, np.zeros(4))


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
@pytest.mark.parametrize("shape", [(3,), (5, 1)], ids=str)
def test_wrong_shaped_x0_is_rejected_before_any_oracle_call(solver, shape):
    # Shape-agnostic callbacks would broadcast a short x0 all the way to a
    # FOSP or SOSP_certified of the wrong dimension.
    calls = []
    oracle = counted(make_norm_squared(5), calls)
    with pytest.raises(ValueError, match=f"^{re.escape(f'x0 must be shape (5,); got shape {shape}')}$"):
        solve(solver, oracle, np.ones(shape), eps_H=None if solver == "acrn" else 1e-2)
    assert calls == []


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
@pytest.mark.parametrize(
    "x0, message",
    [
        (np.full(5, 0.1 + 1j), "^x0 must be real numbers"),
        (["a"] * 5, "^x0 must be real numbers"),
        (np.ones(5, dtype=bool), "^x0 must be real numbers"),
        ([0.1, 0.1, 0.1, 0.1, [0.1, 0.2]], "^x0 must be an array; numpy cannot read its list$"),
    ],
    ids=["complex", "string", "bool", "ragged"],
)
def test_non_real_x0_is_rejected_before_any_oracle_call(solver, x0, message):
    # Casting to float64 would solve a complex x0 from its real part and a
    # bool one from zeros and ones.
    calls = []
    oracle = counted(make_norm_squared(5), calls)
    with pytest.raises(ValueError, match=message):
        solve(solver, oracle, x0, eps_H=None if solver == "acrn" else 1e-2)
    assert calls == []


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
@pytest.mark.parametrize(
    "good_hvps, detail",
    [
        (0, "eigenvalue oracle: Lanczos alpha_1 is nan"),
        # The first Lanczos product stays finite; the second one does not.
        (1, "eigenvalue oracle: Lanczos alpha_2 is nan"),
    ],
)
def test_non_finite_hessian_never_certifies(solver, good_hvps, detail):
    # f = 1/2 x' D x from its stationary point x0 = 0; D is not a multiple of
    # the identity, so the Lanczos run does not stop after one step.
    n, calls = 5, []
    diag = np.arange(2.0, 2.0 + n)

    def hvp(x, v):
        calls.append(None)
        return diag * v if len(calls) <= good_hvps else np.full(n, np.nan)

    oracle = ProblemOracle(n, lambda x: 0.5 * float(x @ (diag * x)), lambda x: diag * x, hvp, "nan-hessian")
    res = solve(solver, oracle, np.zeros(n), eps_H=1e-2)
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == detail
    assert res.counters.meo_calls == 1
    assert res.trace == []


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
@pytest.mark.parametrize(
    "spectrum, eps_H",
    [
        (np.linspace(1.0, 5.0, 20), 1e-2),
        # ||H|| = 0.01 with eps_H = 0.5 would need only 2 steps if ||H|| were
        # known; the run has no proven bound, so it still goes to n = 20.
        (np.linspace(0.001, 0.01, 20), 0.5),
    ],
)
def test_certificate_detail_names_the_krylov_dimension(solver, spectrum, eps_H):
    quad = gen_quadratic(20, spectrum, 0)
    res = solve(solver, quad, np.zeros(20), eps_H=eps_H)
    assert res.status == "SOSP_certified"
    assert res.status_detail == "Lanczos: k = 20 of n = 20"
    assert res.counters.meo_calls == 1 and res.counters.hvp_evals == 20


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
@pytest.mark.parametrize("eps_H", [None, 1e-2])
def test_nan_gradient_is_numerical_failure(solver, eps_H):
    n = 5
    oracle = ProblemOracle(
        n, lambda x: float(x @ x), lambda x: np.full(n, np.nan), lambda x, v: 2.0 * v, "nan-grad"
    )
    res = solve(solver, oracle, np.ones(n), eps_H=eps_H)
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == "gradient norm is nan"
    assert math.isnan(res.grad_norm_final)
    assert res.counters.meo_calls == 0 and res.counters.subproblems == 0


def quiet(fn):
    """``fn`` with numpy's overflow and invalid-value warnings silenced inside it only."""

    def call(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args)

    return call


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
def test_unbounded_objective_overflow_is_numerical_failure(solver):
    # f = -||x||^4 from x0 = (1, ..., 1): the steps grow until a finite
    # Hessian-vector product or gradient has a squared norm that overflows.
    # Only the oracle's own arithmetic runs with numpy's warnings silenced,
    # so the solvers must end the solve before numpy warns.
    details = {
        2: "gradient norm is inf",
        5: "operator-norm estimate: power step 1 gives ||H^2 x|| = inf",
    } if solver == "acrn" else dict.fromkeys((2, 5), "capped CG: curvature ratio overflow (iteration 0)")
    for n, detail in details.items():
        oracle = ProblemOracle(
            n,
            quiet(lambda x: -float(x @ x) ** 2),
            quiet(lambda x: -4.0 * float(x @ x) * x),
            quiet(lambda x, v: -4.0 * float(x @ x) * v - 8.0 * float(x @ v) * x),
            "minus-norm-fourth",
        )
        res = solve(solver, oracle, np.ones(n))
        assert res.status == NUMERICAL_FAILURE
        assert res.status_detail == detail
        assert len(res.trace) > 0  # the steps taken before the overflow are kept
        assert all(r.step_type == ("CRN" if solver == "acrn" else "NC") for r in res.trace)


@pytest.mark.parametrize("solver, hvp_evals, subproblems", [("alg1", 1, 1), ("alg2", 1, 1), ("acrn", 42, 0)])
def test_step_power_overflow_is_numerical_failure(solver, hvp_evals, subproblems):
    # f = -||x||^2 / 2 from x0 = (1e120, 0): a Python float ** 3 of a norm
    # above 5.6e102 overflows, in alg1 and alg2 when the first NC direction
    # is scaled, and in ACRN in the cubic model's ||s||^3; the detail names
    # the step and the norm.
    oracle = ProblemOracle(2, lambda x: -0.5 * float(x @ x), lambda x: -x, lambda x, v: -v, "minus-half-norm-squared")
    res = solve(solver, oracle, np.array([1e120, 0.0]))
    assert res.status == NUMERICAL_FAILURE
    if solver == "acrn":
        assert res.status_detail == "cubic model: the cube of the norm 4.739336492890771e+118 overflows"
    else:
        assert res.status_detail == "NC direction scaling: the cube of the norm 1e+120 overflows"
    c = res.counters
    assert (c.f_evals, c.grad_evals, c.hvp_evals, c.meo_calls, c.subproblems) == (1, 1, hvp_evals, 0, subproblems)
    assert res.trace == []


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
def test_oracle_overflow_is_numerical_failure(solver):
    # f = -x^2 / 2, taken through a Python float power that overflows once
    # |x| passes about 34.6: the steps from x0 = 30 reach it, and the
    # callback's OverflowError ends the solve with the steps taken kept.
    oracle = ProblemOracle(1, lambda x: -0.5 * (float(x[0]) ** 200) ** 0.01, lambda x: -x, lambda x, v: -v, "power")
    res = solve(solver, oracle, np.array([30.0]))
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == "overflow: (34, 'Numerical result out of range')"
    assert len(res.trace) > 0


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
def test_start_point_overflow_is_numerical_failure(solver):
    # The same f from x0 = 40: f(x0) itself overflows, and the solve still
    # ends in a status, with f and the gradient norm it never computed NaN.
    oracle = ProblemOracle(1, lambda x: -0.5 * (float(x[0]) ** 200) ** 0.01, lambda x: -x, lambda x, v: -v, "power")
    res = solve(solver, oracle, np.array([40.0]))
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == "overflow: (34, 'Numerical result out of range')"
    assert math.isnan(res.f_final) and math.isnan(res.grad_norm_final)
    assert res.x_final.tolist() == [40.0] and res.trace == []
    c = res.counters
    assert (c.f_evals, c.grad_evals, c.hvp_evals, c.subproblems) == (1, 0, 0, 0)


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_gradient_exception_after_a_step_leaves_no_stale_norm(solver):
    # f = -x^2 / 2 from x0 = 1: the NC step reaches x = 2, where the gradient
    # raises.  The result is x = 2 with its f, and the gradient norm it never
    # computed is NaN, not the norm 1 of the point it left.
    def grad(x):
        if abs(x[0]) > 1.5:
            raise OverflowError("gradient out of range")
        return -x

    oracle = ProblemOracle(1, lambda x: -0.5 * float(x @ x), grad, lambda x, v: -v, "minus-half-square")
    res = solve(solver, oracle, np.array([1.0]))
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == "overflow: gradient out of range"
    assert res.x_final.tolist() == [2.0] and res.f_final == -2.0
    assert math.isnan(res.grad_norm_final)
    assert [r.step_type for r in res.trace] == ["NC"]


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
@pytest.mark.parametrize("good_points", [0, 1])
def test_capped_cg_breakdown_is_numerical_failure(solver, good_points):
    # A finite gradient with NaN Hessian-vector products, from the start or
    # from the second iterate on: capped CG breaks down at its first pass.
    n = 5
    quad = gen_quadratic(n, [1.0, 2.0, 3.0, 4.0, 5.0], 0)
    x0 = np.ones(n)

    def hvp(x, v):
        good = good_points and np.array_equal(x, x0)
        return quad.eval_hvp(x, v) if good else np.full(n, np.nan)

    oracle = ProblemOracle(n, quad.eval_f, quad.eval_grad, hvp, "nan-hvp")
    res = solve(solver, oracle, x0)
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == "capped CG: non-finite Hessian-vector product (iteration 0)"
    assert len(res.trace) == good_points  # the steps taken before the breakdown are kept
    assert res.f_final == (res.trace[-1].f_after if good_points else quad.eval_f(x0))
    assert res.counters.subproblems == good_points + 1


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_huge_curvature_ratio_reaches_fosp(solver):
    # ||H|| / eps near 1e35 rounds capped CG's sqrt(tau) to 1; the envelope
    # constant T_cap must still be finite.
    lam = np.array([1.0, 1e35])
    oracle = ProblemOracle(
        2,
        lambda x: 0.5 * float(x @ (lam * x)),
        lambda x: lam * x,
        lambda x, v: lam * v,
        "stiff-quadratic",
    )
    res = solve(solver, oracle, np.ones(2))
    assert res.status == FOSP


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_huge_flat_gradient_is_numerical_failure(solver):
    # g = (1e154, 0) has a finite ||g||^2 = 1e308, and H p = 0 along p = -g,
    # so CG's first step takes y to about 1e154 / (2 eps): ||y||^2 overflows.
    # Capped CG must stop there rather than let numpy warn or hand the
    # inf to its tests.
    oracle = ProblemOracle(
        2,
        lambda x: 1e154 * float(x[0]),
        lambda x: np.array([1e154, 0.0]),
        lambda x, v: np.array([0.0, 5.0 * v[1]]),
        "huge-flat-gradient",
    )
    res = solve(solver, oracle, np.zeros(2))
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail.startswith("capped CG: ")
    assert res.counters.f_evals == 1 and res.trace == []


HUGE_FLAT_GRADIENT_SCRIPT = """
import numpy as np
import ncgopt as ng

oracle = ng.ProblemOracle(
    2, lambda x: 1e154 * float(x[0]), lambda x: np.array([1e154, 0.0]), lambda x, v: np.array([0.0, 5.0 * v[1]]), "h"
)
x0 = np.zeros(2)
for res in (
    ng.newton_cg_solve(oracle, x0, ng.NcgParams(eps_g=1e-4, holder=ng.HolderClass(1.0, 1.0))),
    ng.pf_newton_cg_solve(oracle, x0, ng.PfParams(eps_g=1e-4)),
    ng.acrn_solve(oracle, x0, 1e-4, ng.CrnParams()),
):
    assert res.status == ng.NUMERICAL_FAILURE, res.status
"""


def test_huge_flat_gradient_overflow_is_quiet_under_default_settings():
    # pytest turns RuntimeWarning into an error, so only a fresh interpreter
    # with numpy's and Python's default settings shows whether an overflow
    # inside a solve prints a warning.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-W", "default", "-c", HUGE_FLAT_GRADIENT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0 and run.stderr == ""


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_non_finite_ritz_check_never_certifies(solver, seed):
    # f = 1/2 x' diag(-1, 10) x from its saddle x0 = 0.  The third
    # Hessian-vector product is the check v'Hv of a Ritz vector; a NaN there
    # must not read as "no direction" and end in a certificate.
    lam, calls = np.array([-1.0, 10.0]), []

    def hvp(x, v):
        calls.append(None)
        return np.full(2, np.nan) if len(calls) == 3 else lam * v

    oracle = ProblemOracle(2, lambda x: 0.5 * float(x @ (lam * x)), lambda x: lam * x, hvp, "nan-ritz-check")
    res = solve(solver, oracle, np.zeros(2), eps_H=1e-3, seed=seed)
    assert res.status == NUMERICAL_FAILURE
    assert re.fullmatch(r"eigenvalue oracle: Ritz vector check at k = \d is nan", res.status_detail)
    assert res.counters.meo_calls == 1 and res.counters.hvp_evals == 3


def hostile(base, bad, value, k):
    """``base`` with callback ``bad`` (f, grad or hvp) returning ``value`` at its k-th call:
    a float as a scalar f or as a (dim,) vector filled with it, any other value as it is."""
    calls = {"f": 0, "grad": 0, "hvp": 0}

    def wrap(name, fn):
        def call(*args):
            calls[name] += 1
            if name == bad and calls[name] == k:
                return np.full(base.dim, value) if isinstance(value, float) and name != "f" else value
            return fn(*args)

        return call

    return ProblemOracle(
        base.dim, wrap("f", base.eval_f), wrap("grad", base.eval_grad), wrap("hvp", base.eval_hvp), "hostile"
    )


SOLVER_MODES = [("alg1", None), ("alg1", 1e-3), ("alg2", None), ("alg2", 1e-3), ("acrn", None)]


@pytest.mark.parametrize("solver, eps_H", SOLVER_MODES)
@pytest.mark.parametrize("bad", ["f", "grad", "hvp"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_hostile_oracle_never_fakes_success(solver, eps_H, bad, value, k):
    # One non-finite value from one callback ends in an explicit status; a
    # success must still hold at the returned point with the honest oracle.
    base = gen_repu(10, 3, 2.25, 0)
    eps_g = 1e-4
    res = solve(solver, hostile(base, bad, value, k), np.full(10, 0.1), eps_g=eps_g, eps_H=eps_H, max_outer=50)
    if res.status in (FOSP, "SOSP_certified"):
        assert math.isfinite(res.f_final)
        assert float(np.linalg.norm(base.eval_grad(res.x_final))) <= eps_g
    if res.status == "SOSP_certified":
        hessian = np.column_stack([base.eval_hvp(res.x_final, e) for e in np.eye(base.dim)])
        assert np.linalg.eigvalsh(0.5 * (hessian + hessian.T))[0] >= -eps_H
    if bad == "f" and k == 1 and math.isnan(value):
        assert res.status == NUMERICAL_FAILURE and res.status_detail == "objective is nan"
        assert res.counters.f_evals == 1 and res.counters.hvp_evals == 0
    if solver == "acrn" and bad == "hvp" and k == 1 and math.isnan(value):
        assert res.status == NUMERICAL_FAILURE
        assert res.trace == [] and res.counters.subproblems == 0


def degenerate(kind, n=5):
    """A linear f (zero Hessian), f = 0 (every start stationary), f = -||x||^2,
    or f = 0 with the finite Hessian-vector product v -> 1e200 (1'v) 1."""
    c = np.arange(1.0, n + 1.0)
    callbacks = {
        "linear": (lambda x: float(c @ x), lambda x: c.copy(), lambda x, v: np.zeros(n)),
        "zero": (lambda x: 0.0, lambda x: np.zeros(n), lambda x, v: np.zeros(n)),
        "concave": (lambda x: -float(x @ x), lambda x: -2.0 * x, lambda x, v: -2.0 * v),
        "huge-hessian": (lambda x: 0.0, lambda x: np.zeros(n), lambda x, v: 1e200 * v.sum() * np.ones(n)),
    }[kind]
    return ProblemOracle(n, *callbacks, kind)


@pytest.mark.parametrize("solver, eps_H", SOLVER_MODES)
@pytest.mark.parametrize(
    "kind, status",
    [("linear", MAX_ITERATIONS), ("zero", FOSP), ("concave", MAX_ITERATIONS), ("huge-hessian", FOSP)],
)
def test_degenerate_objective_never_fakes_success(solver, eps_H, kind, status):
    # Unbounded below with a zero or negative definite Hessian, or flat
    # everywhere: the solves stay finite, and only the flat ones succeed.
    # With eps_H, the eigenvalue oracle certifies f = 0, and the huge
    # Hessian's first ||H q_1||^2 overflows.
    oracle, eps_g = degenerate(kind), 1e-4
    res = solve(solver, oracle, np.full(5, 0.1), eps_g=eps_g, eps_H=eps_H, max_outer=200)
    second_order = {"zero": "SOSP_certified", "huge-hessian": NUMERICAL_FAILURE}.get(kind, status)
    assert res.status == (second_order if eps_H else status)
    if res.status == NUMERICAL_FAILURE:
        assert res.status_detail == "eigenvalue oracle: Lanczos ||H q_1|| is inf"
    assert math.isfinite(res.f_final)
    if res.status == MAX_ITERATIONS:
        assert len(res.trace) == 200
        assert float(np.linalg.norm(oracle.eval_grad(res.x_final))) > eps_g
    else:
        assert float(np.linalg.norm(oracle.eval_grad(res.x_final))) <= eps_g
        assert res.trace == [] and res.counters.subproblems == 0


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
@pytest.mark.parametrize(
    "bad, output, message",
    [
        pytest.param("f", np.full(2, 0.1), "shape (); got shape (2,)", id="f-shape0"),
        pytest.param("grad", np.full(9, 0.1), "shape (10,); got shape (9,)", id="grad-shape1"),
        pytest.param("hvp", np.full((10, 1), 0.1), "shape (10,); got shape (10, 1)", id="hvp-shape2"),
        pytest.param("f", None, "real numbers; got NoneType of dtype object", id="f-none"),
        pytest.param("f", "1.5", "real numbers; got str of dtype <U3", id="f-str"),
        pytest.param("f", 1.5 + 0j, "real numbers; got complex of dtype complex128", id="f-complex"),
        pytest.param("f", True, "real numbers; got bool of dtype bool", id="f-bool"),
        pytest.param("grad", [None] * 10, "real numbers; got list of dtype object", id="grad-none"),
        pytest.param("grad", ("0.1",) * 10, "real numbers; got tuple of dtype <U3", id="grad-str"),
        pytest.param("hvp", [0.1j] * 10, "real numbers; got list of dtype complex128", id="hvp-complex"),
        pytest.param("hvp", [object()] * 10, "real numbers; got list of dtype object", id="hvp-object"),
        # ndarrays of shape (dim,) that are not real numbers, which the
        # fast paths must not pass through.
        pytest.param("grad", np.full(10, 0.1j), "real numbers; got ndarray of dtype complex128", id="grad-complex-array"),
        pytest.param("hvp", np.full(10, 0.1j), "real numbers; got ndarray of dtype complex128", id="hvp-complex-array"),
        pytest.param("grad", np.full(10, "0.1"), "real numbers; got ndarray of dtype <U3", id="grad-str-array"),
        pytest.param("hvp", np.full(10, "0.1"), "real numbers; got ndarray of dtype <U3", id="hvp-str-array"),
        pytest.param("grad", [[1.0, 2.0], [3.0]] + [0.0] * 8, "an array; numpy cannot read its list", id="grad-ragged"),
        pytest.param("hvp", [[1.0, 2.0], [3.0]] + [0.0] * 8, "an array; numpy cannot read its list", id="hvp-ragged"),
    ],
)
@pytest.mark.parametrize("k", [1, 2])
def test_hostile_oracle_wrong_shape_raises(solver, bad, output, message, k):
    # An output of the wrong shape, or one that is not real numbers, is the
    # caller's error: it raises ValueError naming the callback and what is
    # wrong, not a numpy or Python error, and is never read as a number.
    oracle = hostile(gen_repu(10, 3, 2.25, 0), bad, output, k)
    with pytest.raises(ValueError, match=f"^{re.escape(f'eval_{bad} must return {message}')}$"):
        solve(solver, oracle, np.full(10, 0.1), max_outer=50)


@pytest.mark.parametrize("solver", ["alg1", "alg2", "acrn"])
@pytest.mark.parametrize("bad", ["grad", "hvp"])
def test_list_outputs_solve_like_their_arrays(solver, bad):
    # Real numbers of shape (dim,) in a list of floats or a tuple of numpy
    # scalars are read as float64, so the solve has its ndarray twin's bits.
    base, x0 = gen_repu(10, 3, 2.25, 0), np.full(10, 0.1)
    fn = getattr(base, f"eval_{bad}")
    runs = [
        solve(solver, replace(base, **{f"eval_{bad}": lambda *args, form=form: form(fn(*args))}), x0)
        for form in (np.asarray, np.ndarray.tolist, tuple)
    ]
    assert runs[0].status == FOSP and runs[0].counters.hvp_evals > 0
    assert fingerprint(runs[1]) == fingerprint(runs[0]) == fingerprint(runs[2])
