"""Acceptance suite: one test per contract criterion, each printing a
PASS line with its measured numbers.  Tolerances are pinned here and only
here; run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time

import mpmath
import numpy as np

import ncgopt as ng
from ncgopt.bench import ExperimentConfig, run_experiment
from ncgopt.bounds import c_meo, c_nc, c_sol, c_sol_hat, complexity_bounds, lanczos_budget, pf_bounds, taylor_error_modulus
from ncgopt.capped_cg import SOL, psi
from ncgopt.newton_cg import gamma_nu
from ncgopt.sampling import generator
from support import fuzz_capped_cg, fuzz_meo


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Capped-CG contract suite.


def test_criterion_1_capped_cg_contracts():
    began = time.perf_counter()
    n_sol, n_nc = fuzz_capped_cg(generator(101, stream=1), trials=200)
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    report(1, f"200 systems ({n_sol} SOL, {n_nc} NC) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. MEO suite.


def test_criterion_2_meo_suite():
    began = time.perf_counter()
    hits = fuzz_meo(generator(202, stream=2), eps=0.1, indefinite=200, psd=60, psd_stream=5)
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    report(2, f"direction rate {hits}/200, 60/60 PSD certificates, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Driver soundness across families.


def _family_cases():
    quad_lam = np.linspace(50.0, 100.0, 50)
    return [
        (
            "infeasibility",
            lambda seed: ng.gen_infeasibility(100, 10, 2.25, seed),
            np.zeros(100),
            ng.HolderClass(1.0, 1.0),
            None,
        ),
        (
            "repu",
            lambda seed: ng.gen_repu(100, 20, 2.25, seed),
            np.full(100, 1.0 / 100.0),
            ng.HolderClass(1.0, 1.0),
            None,
        ),
        (
            "quadratic",
            lambda seed: ng.gen_quadratic(50, quad_lam, seed),
            np.full(50, 10.0 / math.sqrt(50.0)),
            ng.HolderClass(1.0, 1e-8),
            ng.HolderClass(1.0, 1e-8),  # valid data: checks pf bounds too
        ),
    ]


def test_criterion_3_driver_soundness():
    began = time.perf_counter()
    eps_g = 1e-4
    checked_bounds = 0
    for family, make, x0, holder, known_holder in _family_cases():
        for seed in range(10):
            oracle = make(seed)
            res1 = ng.newton_cg_solve(
                oracle, x0, ng.NcgParams(eps_g=eps_g, holder=holder, seed=seed)
            )
            assert res1.status == ng.FOSP, (family, seed, res1.status)
            assert np.linalg.norm(oracle.eval_grad(res1.x_final)) <= eps_g
            fs = [r.f_before for r in res1.trace] + [res1.f_final]
            assert all(fs[i + 1] <= fs[i] for i in range(len(fs) - 1))

            params2 = ng.PfParams(eps_g=eps_g, seed=seed)
            res2 = ng.pf_newton_cg_solve(oracle, x0, params2)
            assert res2.status == ng.FOSP, (family, seed, res2.status)
            assert np.linalg.norm(oracle.eval_grad(res2.x_final)) <= eps_g
            fs = [r.f_before for r in res2.trace] + [res2.f_final]
            assert all(fs[i + 1] <= fs[i] for i in range(len(fs) - 1))

            # accepted_by tags SOL steps only, in both drivers.
            for res in (res1, res2):
                for r in res.trace:
                    tags = ("full_step", "armijo") if r.step_type == SOL else (None,)
                    assert r.accepted_by in tags, (family, seed, r.step_type, r.accepted_by)

            if known_holder is not None:
                f0 = oracle.eval_f(x0)
                sigma_bar, t_bound, _ = pf_bounds(params2, known_holder, f0, 0.0)
                assert all(g <= sigma_bar + 1e-12 for g in res2.gamma_history)
                assert all(len(outer) <= t_bound for outer in res2.trials)
                checked_bounds += 1
    elapsed = time.perf_counter() - began
    assert elapsed < 60.0
    report(3, f"3 families x 10 seeds x 2 drivers; {checked_bounds} bound checks; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. SOSP certification on PSD quadratics.


def test_criterion_4_sosp_certification():
    began = time.perf_counter()
    eps_h = 1e-2
    certified = runs = 0
    for seed in range(20):
        n = (10, 25, 50)[seed % 3]
        lam = np.linspace(0.5 + 0.1 * (seed % 5), 8.0, n)
        oracle = ng.gen_quadratic(n, lam, seed)
        params = ng.NcgParams(
            eps_g=1e-4,
            eps_H=eps_h,
            holder=ng.HolderClass(1.0, 1e-8),
            seed=1000 + seed,
        )
        res = ng.newton_cg_solve(oracle, np.full(n, 2.0), params)
        runs += 1
        if res.status == ng.SOSP_CERTIFIED:
            inst = oracle.meta
            hess = (inst.basis.T * inst.eigenvalues) @ inst.basis
            if np.min(np.linalg.eigvalsh(hess)) >= -eps_h:
                certified += 1
    assert certified >= math.ceil(0.99 * runs)
    elapsed = time.perf_counter() - began
    report(4, f"{certified}/{runs} certified and dense-verified; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. Infeasibility cell reproduction.


def test_criterion_5_infeasibility_cell():
    began = time.perf_counter()
    objs, calls, acrn_subs = [], [], []
    for seed in range(10):
        oracle = ng.gen_infeasibility(100, 10, 2.25, seed)
        res = ng.pf_newton_cg_solve(oracle, np.zeros(100), ng.PfParams(eps_g=1e-4, seed=seed))
        assert res.status == ng.FOSP
        objs.append(res.f_final)
        calls.append(res.counters.subproblems)
        acrn = ng.acrn_solve(oracle, np.zeros(100), 1e-4, ng.CrnParams(seed=seed))
        assert acrn.status == ng.FOSP
        acrn_subs.append(acrn.counters.subproblems)
    mean_obj = float(np.mean(objs))
    mean_calls = float(np.mean(calls))
    mean_acrn = float(np.mean(acrn_subs))
    assert mean_obj <= 1e-10
    assert 4.0 <= mean_calls <= 31.0
    assert mean_acrn > mean_calls
    elapsed = time.perf_counter() - began
    assert elapsed < 120.0
    report(
        5,
        f"mean objective {mean_obj:.2e}, mean capped-CG calls {mean_calls:.1f}, "
        f"baseline {mean_acrn:.1f} subproblems; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. RePU cell reproduction.


def test_criterion_6_repu_cell():
    began = time.perf_counter()
    x0 = np.full(100, 1.0 / 100.0)
    objs, calls, acrn_subs = [], [], []
    for seed in range(10):
        oracle = ng.gen_repu(100, 20, 2.25, seed)
        res = ng.pf_newton_cg_solve(oracle, x0, ng.PfParams(eps_g=1e-4, seed=seed))
        assert res.status == ng.FOSP
        objs.append(res.f_final)
        calls.append(res.counters.subproblems)
        acrn = ng.acrn_solve(oracle, x0, 1e-4, ng.CrnParams(seed=seed))
        assert acrn.status == ng.FOSP
        acrn_subs.append(acrn.counters.subproblems)
    mean_obj = float(np.mean(objs))
    total_alg2, total_acrn = sum(calls), sum(acrn_subs)
    assert mean_obj <= 0.20
    assert total_alg2 < total_acrn
    elapsed = time.perf_counter() - began
    assert elapsed < 120.0
    report(
        6,
        f"mean objective {mean_obj:.3f}, subproblems {total_alg2} < {total_acrn}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Formula calculators against a high-precision oracle.


def _sample_tuple(rng):
    nu = float(rng.uniform(0.05, 1.0))
    h_nu = float(rng.uniform(0.1, 20.0))
    eps_g = float(rng.uniform(1e-6, 0.5))
    eps_h = float(rng.uniform(1e-4, 0.5))
    eta = float(rng.uniform(0.005, 0.5))
    theta = float(rng.uniform(0.2, 0.9))
    zeta = float(rng.uniform(0.1, 0.9))
    return nu, h_nu, eps_g, eps_h, eta, theta, zeta


def _mp_gamma_nu(eps_g, nu, h):
    return 4 * h ** (2 / (1 + nu)) * eps_g ** (-(1 - nu) / (1 + nu))


def test_criterion_7_formula_calculators():
    rng = generator(707, stream=7)
    with mpmath.workdps(50):
        for _ in range(20):
            nu, h_nu, eps_g, eps_h, eta, theta, zeta = _sample_tuple(rng)
            holder = ng.HolderClass(nu, h_nu)
            m_nu, m_h = mpmath.mpf(repr(nu)), mpmath.mpf(repr(h_nu))
            m_eg, m_eh = mpmath.mpf(repr(eps_g)), mpmath.mpf(repr(eps_h))
            m_eta, m_th, m_z = (
                mpmath.mpf(repr(eta)),
                mpmath.mpf(repr(theta)),
                mpmath.mpf(repr(zeta)),
            )

            def close(got, want, tol=1e-12):
                want = float(want)
                assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)

            def close_count(got, want_int):
                # Exact when the count fits float precision; 1e-12 relative
                # beyond that (the implementation works in float64).
                if want_int < 2**52:
                    assert got == want_int, (got, want_int)
                else:
                    assert abs(got - want_int) <= 1e-12 * want_int

            gamma = _mp_gamma_nu(m_eg, m_nu, m_h)
            close(gamma_nu(eps_g, holder), gamma)

            delta = float(rng.uniform(1e-4, 1.0))
            m_delta = mpmath.mpf(repr(delta))
            l_val = ((1 - m_nu) / (2 * m_delta * (1 + m_nu))) ** ((1 - m_nu) / (1 + m_nu)) * m_h ** (2 / (1 + m_nu))
            close(taylor_error_modulus(delta, holder), l_val)

            csol = m_eta * min(
                (2 / (4 + m_z + mpmath.sqrt((4 + m_z) ** 2 + 1))) ** 2,
                (2 * (1 - m_eta) * m_th / 3) ** 2 / 6,
            )
            close(c_sol(eta, zeta, theta), csol)
            cnc = m_eta * m_th**2 / 4
            close(c_nc(eta, theta), cnc)
            cmeo = (m_eta / 2) * min(1, m_th * ((1 - m_eta) / m_h) ** (1 / m_nu)) ** 2 * mpmath.mpf("0.5") ** ((2 + m_nu) / m_nu)
            close(c_meo(eta, theta, holder), cmeo)
            chat = (m_eta / 6) * min(mpmath.mpf(1) / 6, (2 * (1 - m_eta) * m_th / 3) ** 2)
            close(c_sol_hat(eta, theta), chat)

            f_gap = float(rng.uniform(0.0, 30.0))
            params = ng.NcgParams(eps_g=eps_g, eps_H=eps_h, holder=holder)
            k1, k2 = complexity_bounds(params, f0=f_gap, f_low=0.0, eta=eta, zeta=zeta, theta=theta)
            m_gap = mpmath.mpf(repr(f_gap))
            k1_real = m_gap / min(csol, cnc) * mpmath.sqrt(gamma) * m_eg ** mpmath.mpf("-1.5")
            close_count(k1, int(mpmath.ceil(k1_real)) + 1)
            k2_real = m_gap / cmeo * m_eh ** (-(2 + m_nu) / m_nu)
            close_count(k2, int(mpmath.ceil(k2_real)) + 1)

            gamma_init = float(rng.uniform(0.5, 30.0))
            r = float(rng.uniform(1.5, 4.0))
            pf_params = ng.PfParams(eps_g=eps_g)
            sigma_bar, t_bound, k1_bar = pf_bounds(
                pf_params, holder, f_gap, 0.0, eta=eta, theta=theta, gamma_init=gamma_init, r=r
            )
            m_gi, m_r = mpmath.mpf(repr(gamma_init)), mpmath.mpf(repr(r))
            m_sigma = max(m_gi, m_r * gamma)
            close(sigma_bar, m_sigma)
            m_t = max(int(mpmath.ceil(mpmath.log(m_sigma / m_gi) / mpmath.log(m_r))), 0) + 2
            assert t_bound == m_t
            k1b_real = m_gap / min(chat, cnc) * mpmath.sqrt(m_sigma) * m_eg ** mpmath.mpf("-1.5")
            close_count(k1_bar, int(mpmath.ceil(k1b_real)) + 1)

            n_dim = int(rng.integers(2, 2000))
            norm_h = float(rng.uniform(0.1, 50.0))
            delta_p = float(rng.uniform(0.001, 0.5))
            m_n, m_nh, m_dp = mpmath.mpf(n_dim), mpmath.mpf(repr(norm_h)), mpmath.mpf(repr(delta_p))
            budget_real = 1 + mpmath.ceil(
                mpmath.log(mpmath.mpf("2.75") * m_n / m_dp**2) / 2 * mpmath.sqrt(m_nh / m_eh)
            )
            assert lanczos_budget(n_dim, eps_h, delta_p, norm_h) == min(n_dim, int(budget_real))

            t_arg = float(rng.uniform(0.01, 1e6))
            m_t_arg = mpmath.mpf(repr(t_arg))
            psi_real = mpmath.log(144 * (mpmath.sqrt(m_t_arg + 2) + 1) ** 2 * (m_t_arg + 2) ** 6 / m_z**2)
            close(psi(t_arg, zeta), psi_real)

        # Inequality L(eps_g / a) <= a gamma_nu(eps_g) / 8 for a >= 2, and the
        # two threshold reformulations of gamma >= gamma_nu(eps_g).
        agree = 0
        for _ in range(100):
            nu = float(rng.uniform(0.0, 1.0))
            h_nu = float(rng.uniform(0.05, 30.0))
            eps_g = float(rng.uniform(1e-6, 0.9))
            a = float(rng.uniform(2.0, 50.0))
            holder = ng.HolderClass(nu, h_nu)
            lhs = taylor_error_modulus(eps_g / a, holder)
            assert lhs <= a * gamma_nu(eps_g, holder) / 8.0 * (1.0 + 1e-12)

            gamma = float(rng.uniform(1e-3, 1e4))
            base = gamma >= gamma_nu(eps_g, holder)
            first = (gamma * eps_g) ** 0.5 / h_nu >= 2.0 ** (1.0 + nu) * (eps_g / gamma) ** (nu / 2.0)
            second = (gamma * eps_g) ** ((1.0 - nu) / 2.0) / h_nu >= 2.0 ** (1.0 + nu) / gamma**nu
            margin = abs(gamma / gamma_nu(eps_g, holder) - 1.0)
            if margin > 1e-9:
                assert base == first == second
                agree += 1
        assert agree >= 95  # ties within float margin are skipped
    report(7, f"12 calculators x 20 tuples at 1e-12; {agree} threshold equivalences")


# ---------------------------------------------------------------------------
# 8. Determinism.


def test_criterion_8_determinism():
    oracle = ng.gen_infeasibility(60, 8, 2.5, seed=3)
    x0 = np.zeros(60)

    pf = [
        ng.pf_newton_cg_solve(oracle, x0, ng.PfParams(eps_g=1e-4, seed=7))
        for _ in range(2)
    ]
    assert np.array_equal(pf[0].x_final, pf[1].x_final)
    assert pf[0].f_final == pf[1].f_final
    assert [r.alpha for r in pf[0].trace] == [r.alpha for r in pf[1].trace]
    assert pf[0].gamma_history == pf[1].gamma_history

    holder = ng.HolderClass(1.0, 1.0)
    ncg = [
        ng.newton_cg_solve(oracle, x0, ng.NcgParams(eps_g=1e-4, holder=holder, seed=7))
        for _ in range(2)
    ]
    assert np.array_equal(ncg[0].x_final, ncg[1].x_final)
    assert ncg[0].f_final == ncg[1].f_final

    quad = ng.gen_quadratic(20, np.linspace(1.0, 4.0, 20), seed=5)
    sosp = [
        ng.newton_cg_solve(
            quad,
            np.full(20, 2.0),
            ng.NcgParams(eps_g=1e-4, eps_H=1e-2, holder=ng.HolderClass(1.0, 1e-8), seed=9),
        )
        for _ in range(2)
    ]
    assert sosp[0].status == sosp[1].status == ng.SOSP_CERTIFIED
    assert np.array_equal(sosp[0].x_final, sosp[1].x_final)

    crn = [
        ng.acrn_solve(oracle, x0, 1e-4, ng.CrnParams(seed=4))
        for _ in range(2)
    ]
    assert np.array_equal(crn[0].x_final, crn[1].x_final)
    assert crn[0].counters.subproblems == crn[1].counters.subproblems

    cfg = ExperimentConfig("repu", ((30, 6, 2.5),), instances_per_cell=2, solvers=("alg2",))
    t1, t2 = run_experiment(cfg), run_experiment(cfg)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.mean_objective == r2.mean_objective
        assert r1.mean_subproblems == r2.mean_subproblems
    report(8, "solvers, baseline, and harness bit-identical across reruns")
