import math

import numpy as np
import pytest

from ncgopt import CrnParams, acrn_solve, gen_quadratic
from ncgopt import baseline_crn
from ncgopt.baseline_crn import cubic_subproblem_gd, estimate_operator_norm
from ncgopt.newton_cg import FOSP, LINE_SEARCH_FAILURE, NUMERICAL_FAILURE
from ncgopt.oracle import ProblemOracle
from ncgopt.sampling import generator, unit_vector
from support import (
    counted,
    make_norm_squared,
    matvec,
    random_symmetric,
    reference_cubic_subproblem_gd,
    reference_operator_norm,
    same_bits,
)


def model_grad(g, H, M, s):
    return g + H @ s + M * np.linalg.norm(s) * s


def test_subproblem_vanishing_weight_recovers_newton_step():
    g = np.array([1.0, 0.0, 0.0])
    H = np.eye(3)
    hvp = matvec(H)
    res = cubic_subproblem_gd(
        g, hvp, weight=1e-12, tol=1e-9, s0=unit_vector(0, 3), max_iters=5000,
        lipschitz_hint=estimate_operator_norm(hvp, 3, seed=0, iters=20),
    )
    assert res.converged
    np.testing.assert_allclose(res.s, -g, atol=1e-8)


def test_subproblem_unit_weight_closed_form():
    # Along -e1 the model is -t + t^2/2 + t^3/3 with stationary point
    # t (1 + t) = 1, i.e. t = (sqrt(5) - 1) / 2.
    g = np.array([1.0, 0.0])
    H = np.eye(2)
    hvp = matvec(H)
    res = cubic_subproblem_gd(
        g, hvp, weight=1.0, tol=1e-10, s0=unit_vector(1, 2), max_iters=20000,
        lipschitz_hint=estimate_operator_norm(hvp, 2, seed=0, iters=20),
    )
    t = (math.sqrt(5.0) - 1.0) / 2.0
    assert res.converged
    np.testing.assert_allclose(res.s, np.array([-t, 0.0]), atol=1e-7)


def test_subproblem_residual_when_converged():
    rng = generator(17, stream=41)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        H = rng.standard_normal((n, n))
        H = (H + H.T) / 2.0
        g = rng.standard_normal(n)
        M = float(rng.uniform(0.5, 4.0))
        hvp = matvec(H)
        res = cubic_subproblem_gd(
            g, hvp, weight=M, tol=1e-6, s0=unit_vector(trial, n), max_iters=20000,
            lipschitz_hint=estimate_operator_norm(hvp, n, seed=0, iters=20),
        )
        if res.converged:
            assert np.linalg.norm(model_grad(g, H, M, res.s)) <= 1e-6


def test_subproblem_step_is_the_callers_own():
    # The model gradient and the scaled step live in buffers reused across
    # iterations; no vector the HVP receives and no returned s may be one.
    rng = generator(18, stream=42)
    H = rng.standard_normal((20, 20))
    H = (H + H.T) / 2.0
    g = rng.standard_normal(20)
    seen = []

    def recording(v):
        seen.append((v, v.copy()))
        return H @ v

    def solve(seed):
        return cubic_subproblem_gd(
            g, recording, weight=1.0, tol=1e-6, s0=unit_vector(seed, 20), max_iters=200, lipschitz_hint=20.0
        )

    res = solve(0)
    assert len(seen) > 2
    for i, (v, snapshot) in enumerate(seen):
        np.testing.assert_array_equal(v, snapshot)
        assert not any(np.shares_memory(v, w) for w, _ in seen[i + 1 :])
    s = res.s.copy()
    solve(1)
    np.testing.assert_array_equal(res.s, s)


def test_model_value_scalar_form_keeps_the_bits_of_the_scaled_copy():
    # m(s) takes s'Hs as one scalar product, halved, rather than (0.5 s) @ Hs:
    # halving is exact away from subnormals, so both forms give the same bits.
    rng = generator(19, stream=43)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        scale = 10.0 ** rng.uniform(-8.0, 8.0, size=3)
        g, s, hs = (scale[:, None] * rng.standard_normal((3, n)))
        weight, norm_s = float(10.0 ** rng.uniform(-3.0, 3.0)), float(np.linalg.norm(s))
        scaled_copy = float(g @ s + 0.5 * s @ hs + weight / 3.0 * norm_s**3)
        assert baseline_crn._model_value(g, hs, s, norm_s, weight) == scaled_copy


def test_matches_reference_loops_on_random_systems():
    # Single BLAS calls for the scalar products and loop-bound ufuncs change
    # no arithmetic: the estimate and the descent must match the reference
    # loops (products through @, norms through np.vecdot) bit for bit, on
    # definite and indefinite systems, runs that end at max_iters included.
    def check(H, g, weight, tol, max_iters, seed, iters):
        n = g.shape[0]
        calls = 0

        def hvp(v):
            nonlocal calls
            calls += 1
            return H @ v

        est = estimate_operator_norm(hvp, n, seed=seed, stream=7, iters=iters)
        assert repr(est) == repr(reference_operator_norm(matvec(H), n, seed, 7, iters))
        s0 = unit_vector(seed, n, stream=8)
        calls = 0
        out = cubic_subproblem_gd(g, hvp, weight, tol, s0, max_iters, lipschitz_hint=est)
        s, m_val, grad_norm, iterations, converged = reference_cubic_subproblem_gd(
            g, matvec(H), weight, tol, s0, max_iters, est
        )
        assert same_bits(out.s, s)
        assert (repr(out.model_value), repr(out.grad_norm)) == (repr(m_val), repr(grad_norm))
        assert (out.iterations, out.converged) == (iterations, converged)
        assert calls == iterations + 1
        return converged

    rng = generator(20, stream=44)
    ends = set()
    for trial in range(90):
        n = 100 if trial % 10 == 9 else int(rng.integers(2, 61))
        if trial % 2:
            H = random_symmetric(rng, n, lo=float(rng.uniform(0.01, 1.0)), hi=float(rng.uniform(1.0, 50.0)))
        else:
            H = random_symmetric(rng, n, lo=-float(rng.uniform(0.01, 5.0)), hi=5.0)
        g = rng.standard_normal(n)
        weight, tol = float(10.0 ** rng.uniform(-1.0, 2.0)), float(10.0 ** rng.uniform(-6.0, -2.0))
        max_iters = int(rng.integers(1, 40)) if trial % 3 == 0 else 2000
        ends.add(check(H, g, weight, tol, max_iters, trial, int(rng.integers(1, 31))))
    assert ends == {True, False}
    # A zero operator takes the estimate's floor at its first power step.
    check(np.zeros((5, 5)), np.ones(5), 1.0, 1e-8, 2000, 0, 20)


def test_acrn_quadratic_converges_with_few_subproblems():
    oracle = make_norm_squared(6)
    x0 = np.zeros(6)
    x0[0] = 10.0
    res = acrn_solve(oracle, x0, eps_g=1e-4, params=CrnParams(seed=0))
    assert res.status == FOSP
    assert np.linalg.norm(oracle.eval_grad(res.x_final)) <= 1e-4
    assert res.counters.subproblems <= 20
    fs = [r.f_before for r in res.trace] + [res.f_final]
    assert all(fs[i + 1] <= fs[i] for i in range(len(fs) - 1))


def test_acrn_immediate_exit():
    oracle = make_norm_squared(4)
    res = acrn_solve(oracle, np.full(4, 1e-8), eps_g=1e-3, params=CrnParams())
    assert res.status == FOSP
    assert res.counters.subproblems == 0
    assert len(res.trace) == 0


def test_acrn_determinism():
    oracle = make_norm_squared(5)
    x0 = np.full(5, 3.0)
    a = acrn_solve(oracle, x0, 1e-4, CrnParams(seed=2))
    b = acrn_solve(oracle, x0, 1e-4, CrnParams(seed=2))
    assert np.array_equal(a.x_final, b.x_final)
    assert a.counters.subproblems == b.counters.subproblems


def test_param_validation():
    with pytest.raises(ValueError):
        CrnParams(max_outer=0)
    for bad in ({"max_outer": 2.5}, {"max_outer": math.inf}, {"seed": 1.5}, {"max_outer": True}, {"seed": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            CrnParams(**bad)
    params = CrnParams(max_outer=np.int32(5), seed=np.int64(3))
    assert (params.max_outer, params.seed) == (5, 3)
    assert type(params.max_outer) is int and type(params.seed) is int
    with pytest.raises(ValueError):
        cubic_subproblem_gd(
            np.ones(2), lambda v: v, weight=0.0, tol=1e-6, s0=np.zeros(2), max_iters=10, lipschitz_hint=1.0
        )


@pytest.mark.parametrize(
    "bad, detail",
    [
        ("grad", "gradient norm is nan"),
        ("hvp", "operator-norm estimate: power step 1 gives a non-finite H x"),
        # NaN only after the 40 products of the estimate's 20 power steps.
        ("hvp", "cubic subproblem: non-finite cubic-model gradient"),
        # 1e200 v after those 40 products: the model gradient is finite, but
        # its squared norm overflows.
        ("huge-hvp", "cubic subproblem: non-finite cubic-model gradient"),
    ],
)
def test_acrn_non_finite_is_numerical_failure(bad, detail):
    base = make_norm_squared(3)
    nan = lambda *args: np.full(3, np.nan)
    late = (lambda v: 1e200 * v) if bad == "huge-hvp" else nan
    good_hvps = 40 if detail.startswith("cubic subproblem") else 0
    calls = []

    def hvp(x, v):
        calls.append(None)
        return base.eval_hvp(x, v) if len(calls) <= good_hvps else late(v)

    oracle = ProblemOracle(
        3,
        base.eval_f,
        nan if bad == "grad" else base.eval_grad,
        base.eval_hvp if bad == "grad" else hvp,
        f"nan-{bad}",
    )
    res = acrn_solve(oracle, np.ones(3), 1e-4, CrnParams())
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == detail
    assert res.trace == [] and res.counters.subproblems == 0


def test_acrn_rejecting_every_trial_weight_is_line_search_failure(monkeypatch):
    # f rises on every call, so no cubic step passes the acceptance test: the
    # weight doubles MAX_WEIGHT_DOUBLINGS times and the solve ends after the
    # last trial of its first outer iteration.
    monkeypatch.setattr(baseline_crn, "MAX_WEIGHT_DOUBLINGS", 3)
    calls = []

    def rising(x):
        calls.append(None)
        return float(len(calls))

    oracle = ProblemOracle(3, rising, lambda x: np.ones(3), lambda x, v: v.copy(), "rising")
    res = acrn_solve(oracle, np.zeros(3), 1e-4, CrnParams())
    assert res.status == LINE_SEARCH_FAILURE
    assert res.status_detail == "damping trial limit t_max = 4 exhausted"
    assert res.counters.subproblems == 4 and res.counters.f_evals == 5
    assert res.trace == [] and np.array_equal(res.x_final, np.zeros(3)) and res.f_final == 1.0


def test_operator_norm_scaled_identity():
    est = estimate_operator_norm(matvec(3.0 * np.eye(7)), 7, seed=0)
    assert 3.0 <= est <= 3.3 + 1e-12


def test_operator_norm_diagonal():
    H = np.diag(np.arange(1.0, 11.0))
    est = estimate_operator_norm(matvec(H), 10, seed=1, iters=50)
    assert 9.0 <= est <= 11.0


def test_operator_norm_zero():
    est = estimate_operator_norm(matvec(np.zeros((4, 4))), 4, seed=2)
    assert est == 1e-12


@pytest.mark.parametrize("hint", [math.nan, -1.0, math.inf, -math.inf])
def test_subproblem_rejects_a_bad_lipschitz_hint_before_any_product(hint):
    # A NaN or infinite hint would spend every one of max_iters steps (2001
    # products here) and return the start point unconverged; a negative one
    # would size the steps from no bound at all.
    calls = []
    H = np.diag([1.0, 2.0, 3.0])
    hvp = lambda v: calls.append(None) or H @ v
    with pytest.raises(ValueError, match="lipschitz_hint must lie in"):
        cubic_subproblem_gd(np.ones(3), hvp, 1.0, 1e-6, unit_vector(0, 3), 2000, lipschitz_hint=hint)
    assert calls == []
    res = cubic_subproblem_gd(np.ones(3), hvp, 1.0, 1e-6, unit_vector(0, 3), 2000, lipschitz_hint=0.0)
    assert res.converged


@pytest.mark.parametrize("iters", [0, -1, 2.5, True, math.nan])
def test_operator_norm_rejects_bad_iters_before_any_product(iters):
    # iters = 0 would return 0.0, below the promised floor of 1e-12.
    calls = []
    hvp = lambda v: calls.append(None) or 2.0 * v
    with pytest.raises(ValueError, match="iters must be a positive integer"):
        estimate_operator_norm(hvp, 3, iters=iters)
    assert calls == []
    assert estimate_operator_norm(hvp, 3, iters=np.int64(1)) == estimate_operator_norm(hvp, 3, iters=1)


@pytest.mark.parametrize(
    "eps_g, x0, message",
    [
        (-1.0, np.ones(10), "eps_g must lie in"),
        (math.nan, np.ones(10), "eps_g must lie in"),
        (1e-4, np.full(10, np.nan), "x0 must be finite"),
    ],
)
def test_acrn_rejects_bad_inputs_before_any_oracle_call(eps_g, x0, message):
    quad = gen_quadratic(10, np.linspace(1.0, 2.0, 10), 0)
    calls = []
    oracle = counted(quad, calls)
    with pytest.raises(ValueError, match=message):
        acrn_solve(oracle, x0, eps_g, CrnParams())
    assert calls == []
