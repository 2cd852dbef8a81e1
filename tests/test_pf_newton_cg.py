import math

import mpmath
import numpy as np
import pytest

from ncgopt import (
    FOSP,
    HolderClass,
    NcgParams,
    PfParams,
    ProblemOracle,
    gen_infeasibility,
    gen_quadratic,
    gen_repu,
    pf_newton_cg_solve,
)
from ncgopt import pf_newton_cg as pf_newton_cg_module
from ncgopt.bounds import c_nc, c_sol_hat, pf_bounds
from ncgopt.capped_cg import capped_cg
from ncgopt.newton_cg import ETA, THETA, gamma_nu
from ncgopt.oracle import CountingOracle
from ncgopt.pf_newton_cg import (
    GAMMA_INIT,
    R,
    bounded_line_search_nc,
    bounded_line_search_sol,
    sigma_start,
)
from support import (
    fingerprint,
    lying_oracle,
    make_norm_squared,
    retained_bytes,
    rising_line,
    solve,
    stiff_quadratic,
    threaded,
)


def test_sigma_start_cases():
    assert (GAMMA_INIT, R) == (10.0, 2.0)
    assert sigma_start(4.0) == 10.0
    assert sigma_start(80.0) == 40.0
    # First outer iteration: gamma_prev = GAMMA_INIT.
    assert sigma_start(GAMMA_INIT) == 10.0


# ---------------------------------------------------------------------------
# Bounded line searches.


def test_bounded_sol_accepts_steep_descent_at_zero():
    oracle = CountingOracle(make_norm_squared(2))
    x = np.array([3.0, 0.0])
    d = np.array([-2.0, 0.0])
    res = bounded_line_search_sol(
        oracle, x, d, sigma_t=10.0, eps_g=1e-4, f_x=4.5
    )
    assert res is not None and res.j == 0


def test_bounded_sol_not_found_on_ascent():
    # f rises along d, so no j in the finite window can pass; the window
    # itself is exhausted (NotFound), distinct from a numerical failure.
    oracle = CountingOracle(rising_line())
    x = np.zeros(1)
    d = np.ones(1)
    res = bounded_line_search_sol(
        oracle, x, d, sigma_t=10.0, eps_g=1e-4, f_x=0.0
    )
    assert res is None
    # The exhaustive window scan agrees: every admissible j fails.
    window = min(1.0, 2.0 * 0.99 * 0.5 * (1e-4 / 10.0) ** 0.25 / (3.0 * 1.0))
    j = 0
    while 0.5**j >= window:
        assert 0.5**j > 0.0 - 0.01 * math.sqrt(10.0 * 1e-4) * 0.25**j
        j += 1


def test_bounded_nc_not_found_on_ascent():
    oracle = CountingOracle(rising_line())
    res = bounded_line_search_nc(
        oracle, np.zeros(1), np.ones(1), sigma_t=4.0, f_x=0.0
    )
    assert res is None


def test_bounded_nc_accepts_immediately_on_descent():
    oracle = CountingOracle(make_norm_squared(1))
    res = bounded_line_search_nc(
        oracle, np.array([2.0]), np.array([-1.0]), sigma_t=1.0, f_x=2.0
    )
    assert res is not None and res.j == 0


def test_bounded_sol_reuses_full_step_value():
    calls = {"f": 0}

    def f(x):
        calls["f"] += 1
        return 0.5 * float(x @ x)

    oracle = CountingOracle(ProblemOracle(1, f, lambda x: x.copy(), lambda x, v: v.copy()))
    x = np.array([3.0])
    d = np.array([-2.0])
    res = bounded_line_search_sol(oracle, x, d, 10.0, 1e-4, f_x=4.5, f_full=0.5)
    assert res is not None and res.j == 0 and calls["f"] == 0


# ---------------------------------------------------------------------------
# pf bounds.


def test_pf_bounds_examples():
    params = PfParams(eps_g=1e-4)
    holder = HolderClass(1.0, 1.0)
    sigma_bar, t_bound, k1_bar = pf_bounds(params, holder, f0=1.0, f_low=0.0)
    assert gamma_nu(1e-4, holder) == 4.0
    assert sigma_bar == 10.0  # gamma_init >= r * gamma_nu
    assert t_bound == 2  # positive-part ceiling of log(1) is 0
    with mpmath.workdps(50):
        c1 = min(c_sol_hat(0.01, 0.5), c_nc(0.01, 0.5))
        expected = int(mpmath.ceil(1 / mpmath.mpf(repr(c1)) * mpmath.sqrt(10) * mpmath.mpf("1e-4") ** mpmath.mpf("-1.5"))) + 1
        assert k1_bar == expected

    # f0 == f_low collapses the outer bound to 1.
    _, _, k1_bar = pf_bounds(params, holder, f0=2.0, f_low=2.0)
    assert k1_bar == 1

    # Large smoothness modulus forces sigma_bar = r * gamma_nu and T > 2.
    rough = HolderClass(1.0, 100.0)
    sigma_bar, t_bound, _ = pf_bounds(params, rough, f0=1.0, f_low=0.0)
    assert sigma_bar == 2.0 * 400.0
    assert t_bound == math.ceil(math.log(sigma_bar / 10.0) / math.log(2.0)) + 2


def test_c_sol_hat_value():
    eta, theta = 0.01, 0.5
    expected = (eta / 6.0) * min(1.0 / 6.0, (2.0 * (1.0 - eta) * theta / 3.0) ** 2)
    assert c_sol_hat(eta, theta) == expected


# ---------------------------------------------------------------------------
# Driver.


def test_quadratic_no_sigma_increase():
    # On a well-scaled quadratic, gamma_init = 10 already dominates, so no
    # trial is ever rejected.
    oracle = make_norm_squared(5)
    x0 = np.zeros(5)
    x0[0] = 10.0
    res = pf_newton_cg_solve(oracle, x0, PfParams(eps_g=1e-4))
    assert res.status == FOSP
    assert np.linalg.norm(oracle.eval_grad(res.x_final)) <= 1e-4
    rejected = [t for outer in res.trials for t in outer if not t.accepted]
    assert rejected == []
    assert all(g == 10.0 for g in res.gamma_history)


def test_immediate_exit_no_trials():
    oracle = make_norm_squared(4)
    res = pf_newton_cg_solve(oracle, np.full(4, 1e-7), PfParams(eps_g=1e-3))
    assert res.status == FOSP
    assert res.counters.subproblems == 0
    assert res.trials == []


def test_infeasibility_small_instances():
    for seed in range(3):
        oracle = gen_infeasibility(40, 5, 2.25, seed)
        res = pf_newton_cg_solve(oracle, np.zeros(40), PfParams(eps_g=1e-4))
        assert res.status == FOSP
        assert res.f_final <= 1e-8
        assert np.linalg.norm(oracle.eval_grad(res.x_final)) <= 1e-4


def test_trace_reverification_and_bounds_on_known_class():
    # Quadratic family has known smoothness data, so worst-case bounds
    # must hold run-wide: gamma_k <= sigma_bar and per-outer trials <= T.
    eigenvalues = np.linspace(50.0, 100.0, 30)
    oracle = gen_quadratic(30, eigenvalues, seed=4)
    params = PfParams(eps_g=1e-4)
    res = pf_newton_cg_solve(oracle, np.full(30, 10.0 / math.sqrt(30)), params)
    assert res.status == FOSP
    holder = HolderClass(1.0, 1e-8)
    sigma_bar, t_bound, k1_bar = pf_bounds(params, holder, res.trace[0].f_before, 0.0)
    assert all(g <= sigma_bar + 1e-12 for g in res.gamma_history)
    assert all(len(outer) <= t_bound for outer in res.trials)
    assert len(res.trace) <= k1_bar
    total_calls = res.counters.subproblems
    assert total_calls <= t_bound + 2 * len(res.trace)

    theta, eta = THETA, ETA
    for rec in res.trace:
        if rec.step_type == "SOL":
            if rec.accepted_by == "full_step":
                assert rec.f_after <= rec.f_before  # (4.2) may fail here; monotone only
                continue
            # (4.1): accepted alpha lies in the admissible window.
            window = min(
                1.0,
                2.0 * (1.0 - eta) * theta * (params.eps_g / rec.sigma) ** 0.25
                / (3.0 * math.sqrt(rec.d_norm)),
            )
            assert rec.alpha >= window - 1e-15
            # (4.2): the decrease inequality at the accepted step.
            assert rec.f_after <= rec.f_before - eta * math.sqrt(rec.sigma * params.eps_g) * rec.alpha**2 * rec.d_norm**2 + 1e-12
        elif rec.step_type == "NC":
            # (4.3): window condition at the accepted j.
            assert rec.alpha / theta >= min(1.0, 1.0 / rec.sigma) - 1e-15
            # (4.4): cubic decrease.
            assert rec.f_after <= rec.f_before - eta * min(1.0, rec.sigma) * rec.alpha**2 * rec.d_norm**3 / 4.0 + 1e-12


def test_determinism_bit_identical():
    oracle = gen_infeasibility(30, 4, 2.5, seed=9)
    params = PfParams(eps_g=1e-4, seed=5)
    a = pf_newton_cg_solve(oracle, np.zeros(30), params)
    b = pf_newton_cg_solve(oracle, np.zeros(30), params)
    assert np.array_equal(a.x_final, b.x_final)
    assert a.f_final == b.f_final
    assert [r.alpha for r in a.trace] == [r.alpha for r in b.trace]
    assert a.gamma_history == b.gamma_history


def test_param_validation():
    with pytest.raises(ValueError):
        PfParams(eps_g=2.0)
    for bad in ({"max_outer": 2.5}, {"max_outer": math.inf}, {"seed": 1.5}, {"max_outer": True}, {"seed": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            PfParams(eps_g=1e-4, **bad)
        with pytest.raises(ValueError, match="must be an integer"):
            NcgParams(eps_g=1e-4, holder=HolderClass(1.0, 1.0), **bad)
    # numpy integers are integers, stored as Python ints.
    for params in (
        PfParams(eps_g=1e-4, max_outer=np.int32(5), seed=np.int64(3)),
        NcgParams(eps_g=1e-4, holder=HolderClass(1.0, 1.0), max_outer=np.int32(5), seed=np.int64(3)),
    ):
        assert (params.max_outer, params.seed) == (5, 3)
        assert type(params.max_outer) is int and type(params.seed) is int
    # The seed reaches the eigenvalue oracle's start vectors: a numpy seed
    # must give the same solve, bit for bit.
    oracle, x0 = gen_infeasibility(20, 4, 2.25, 0), np.zeros(20)
    a = pf_newton_cg_solve(oracle, x0, PfParams(eps_g=1e-4, eps_H=1e-3, seed=np.int64(3)))
    b = pf_newton_cg_solve(oracle, x0, PfParams(eps_g=1e-4, eps_H=1e-3, seed=3))
    assert a.counters.meo_calls >= 1
    assert a.status == b.status and a.status_detail == b.status_detail and a.counters == b.counters
    assert np.array_equal(a.x_final, b.x_final) and a.f_final == b.f_final
    assert a.trace == b.trace and a.trials == b.trials and a.gamma_history == b.gamma_history


@pytest.mark.parametrize("max_outer", [0, -3])
def test_max_outer_must_be_positive(max_outer):
    with pytest.raises(ValueError, match="max_outer must be at least 1"):
        PfParams(eps_g=1e-4, max_outer=max_outer)


def test_bounded_searches_minimality_against_scan():
    # Overshooting direction on a stiff 1-D quadratic: the accepted j must
    # equal the first acceptance of an exhaustive scan over the window.
    curv = 500.0
    oracle = CountingOracle(stiff_quadratic(curv))
    x = np.array([1.0])
    d = np.array([-2.1])
    theta, eta, eps_g, sigma_t = THETA, ETA, 1e-2, 4.0
    f_x = 0.5 * curv
    dn = abs(d[0])

    res = bounded_line_search_sol(oracle, x, d, sigma_t, eps_g, f_x)
    window = min(1.0, 2.0 * (1.0 - eta) * theta * (eps_g / sigma_t) ** 0.25 / (3.0 * math.sqrt(dn)))
    first = None
    j = 0
    while theta**j >= window:
        trial = 0.5 * curv * float((x + theta**j * d)[0] ** 2)
        if trial <= f_x - eta * math.sqrt(sigma_t * eps_g) * theta ** (2 * j) * dn**2:
            first = j
            break
        j += 1
    assert res is not None and first is not None and res.j == first and res.j > 0

    res = bounded_line_search_nc(oracle, x, d, sigma_t, f_x)
    first = None
    j = 0
    while theta ** (j - 1) >= min(1.0, 1.0 / sigma_t):
        trial = 0.5 * curv * float((x + theta**j * d)[0] ** 2)
        if trial <= f_x - eta * min(1.0, sigma_t) * theta ** (2 * j) * dn**3 / 4.0:
            first = j
            break
        j += 1
    assert res is not None and first is not None and res.j == first and res.j > 0


def test_concurrent_solves_share_one_oracle():
    # The oracle is immutable; concurrent solves must reproduce the serial
    # results exactly.
    oracle = gen_infeasibility(25, 4, 2.5, seed=12)
    run = lambda o: fingerprint(solve("alg2", o, np.zeros(25), seed=3))
    serial = run(oracle)
    assert threaded(run, [oracle], rounds=1) == [[serial]] * 4


def test_nc_trials_on_indefinite_quadratic():
    lam = np.concatenate([[-3.0, -1.0], np.linspace(0.5, 5.0, 10)])
    oracle = gen_quadratic(12, lam, seed=8)
    params = PfParams(eps_g=1e-4, max_outer=15, seed=1)
    res = pf_newton_cg_solve(oracle, np.full(12, 1.0), params)
    nc_steps = [r for r in res.trace if r.step_type == "NC"]
    assert nc_steps
    for rec in nc_steps:
        # Window condition (accepted alpha / theta within bound) and the
        # cubic decrease, replayed from the trace.
        assert rec.alpha / THETA >= min(1.0, 1.0 / rec.sigma) - 1e-15
        assert rec.f_after <= rec.f_before - ETA * min(1.0, rec.sigma) * rec.alpha**2 * rec.d_norm**3 / 4.0 + 1e-10
    fs = [r.f_before for r in res.trace] + [res.f_final]
    assert all(fs[i + 1] <= fs[i] for i in range(len(fs) - 1))


def test_trial_cap_flags_inconsistent_oracle(monkeypatch):
    monkeypatch.setattr(pf_newton_cg_module, "T_MAX", 8)
    res = solve("alg2", lying_oracle(4), np.zeros(4), max_outer=3)
    assert res.status == "LineSearchFailure"
    assert "t_max" in res.status_detail
    assert len(res.trials[0]) == 8
    assert all(not t.accepted for t in res.trials[0])
    # sigma escalated geometrically across the trials.
    sigmas = [t.sigma_t for t in res.trials[0]]
    assert sigmas == [10.0 * 2.0**t for t in range(8)]


def test_pf_sosp_certified_and_gamma_carry():
    oracle = gen_quadratic(15, np.linspace(1.0, 6.0, 15), seed=21)
    params = PfParams(eps_g=1e-4, eps_H=1e-2, seed=4)
    x0 = np.full(15, 2.0)
    res = pf_newton_cg_solve(oracle, x0, params)
    assert res.status == "SOSP_certified"
    assert res.counters.meo_calls >= 1
    # Every recorded weight stays at the start value on this easy instance,
    # including any carried through eigenvalue-oracle steps.
    assert all(g == 10.0 for g in res.gamma_history)
    assert len(res.gamma_history) == len(res.trace)
    # Outer iterations stay within the second-order worst-case budget.
    from ncgopt import NcgParams
    from ncgopt.bounds import complexity_bounds

    holder = HolderClass(1.0, 1e-8)
    _, _, k1_bar = pf_bounds(params, holder, oracle.eval_f(x0), 0.0)
    _, k2 = complexity_bounds(
        NcgParams(eps_g=params.eps_g, eps_H=params.eps_H, holder=holder),
        oracle.eval_f(x0),
        0.0,
    )
    assert len(res.trace) <= k1_bar + 2 * k2 - 1


def test_solve_keeps_no_krylov_record(monkeypatch):
    # An outer iteration's record of capped-CG passes (r_j and H r_j, up to
    # 2 n^2 floats) lives until the next outer iteration's first trial
    # replaces it; none outlives the solve.
    oracle, x0 = gen_repu(400, 80, 2.25, 0), np.full(400, 1.0 / 400.0)
    largest = 0

    def recorded(hvp, g, eps, record):
        nonlocal largest
        out = capped_cg(hvp, g, eps, record)
        largest = max(largest, sum(r.nbytes + hr.nbytes for r, hr, _, _ in record.passes))
        return out

    monkeypatch.setattr(pf_newton_cg_module, "capped_cg", recorded)
    solve("alg2", oracle, x0)  # fills the oracle's own caches first
    grown = retained_bytes(lambda: solve("alg2", oracle, x0))
    assert largest >= 100_000
    assert grown < largest / 10
