import math

import numpy as np
import pytest

from ncgopt import CrnParams, acrn_solve, gen_quadratic
from ncgopt.baseline_crn import cubic_subproblem_gd, estimate_operator_norm
from ncgopt.newton_cg import FOSP, NUMERICAL_FAILURE
from ncgopt.oracle import ProblemOracle
from ncgopt.sampling import generator, unit_vector


def make_norm_squared(n):
    return ProblemOracle(
        dim=n,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad=lambda x: x.copy(),
        eval_hvp=lambda x, v: v.copy(),
        name="half-norm-squared",
    )


def matvec(H):
    return lambda v: H @ v


def model_grad(g, H, M, s):
    return g + H @ s + M * np.linalg.norm(s) * s


def test_subproblem_vanishing_weight_recovers_newton_step():
    g = np.array([1.0, 0.0, 0.0])
    H = np.eye(3)
    hvp = lambda v: H @ v
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
    hvp = lambda v: H @ v
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
        hvp = lambda v: H @ v
        res = cubic_subproblem_gd(
            g, hvp, weight=M, tol=1e-6, s0=unit_vector(trial, n), max_iters=20000,
            lipschitz_hint=estimate_operator_norm(hvp, n, seed=0, iters=20),
        )
        if res.converged:
            assert np.linalg.norm(model_grad(g, H, M, res.s)) <= 1e-6


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
    with pytest.raises(ValueError):
        cubic_subproblem_gd(
            np.ones(2), lambda v: v, weight=0.0, tol=1e-6, s0=np.zeros(2), max_iters=10, lipschitz_hint=1.0
        )


@pytest.mark.parametrize(
    "bad, detail",
    [
        ("grad", "gradient norm is nan"),
        ("hvp", "cubic subproblem: non-finite cubic-model gradient"),
    ],
)
def test_acrn_non_finite_is_numerical_failure(bad, detail):
    base = make_norm_squared(3)
    nan = lambda *args: np.full(3, np.nan)
    oracle = ProblemOracle(
        3,
        base.eval_f,
        nan if bad == "grad" else base.eval_grad,
        nan if bad == "hvp" else base.eval_hvp,
        f"nan-{bad}",
    )
    res = acrn_solve(oracle, np.ones(3), 1e-4, CrnParams())
    assert res.status == NUMERICAL_FAILURE
    assert res.status_detail == detail
    assert res.trace == [] and res.counters.subproblems == 0


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

    def counted(fn):
        return lambda *args: calls.append(fn) or fn(*args)

    oracle = ProblemOracle(
        10, counted(quad.eval_f), counted(quad.eval_grad), counted(quad.eval_hvp), "quadratic"
    )
    with pytest.raises(ValueError, match=message):
        acrn_solve(oracle, x0, eps_g, CrnParams())
    assert calls == []
