from dataclasses import replace

import numpy as np
import pytest

from ncgopt import HolderClass, ProblemOracle, gen_infeasibility, gen_quadratic, gen_repu, problems
from ncgopt.bench import start_point
from ncgopt.newton_cg import FOSP, MEO, SOSP_CERTIFIED
from ncgopt.oracle import CountingOracle
from ncgopt.sampling import standard_normals
from support import (
    DerivativeCheckError,
    check_gradient_fd,
    check_hvp_fd,
    fingerprint,
    make_norm_squared,
    retained_bytes,
    same_bits,
    solve,
    threaded,
)


def test_gradient_check_exact_quadratic():
    oracle = make_norm_squared(6)
    x = np.linspace(-2.0, 3.0, 6)
    assert check_gradient_fd(oracle, x, h=1e-6) <= 1e-7


def test_gradient_check_repu_instance():
    oracle = gen_repu(10, 5, 2.5, seed=0)
    x = np.full(10, 0.1)
    assert check_gradient_fd(oracle, x, h=1e-6) <= 1e-5


def test_gradient_check_infeasibility_instance():
    oracle = gen_infeasibility(10, 3, 2.25, seed=0)
    assert check_gradient_fd(oracle, np.zeros(10), h=1e-6) <= 1e-5


def test_hvp_check_identity_hessian():
    oracle = make_norm_squared(5)
    x = np.ones(5)
    e1 = np.eye(5)[0]
    assert np.array_equal(oracle.eval_hvp(x, e1), e1)
    assert check_hvp_fd(oracle, x, e1, h=1e-6) <= 1e-7


@pytest.mark.parametrize(
    "maker,args",
    [(gen_repu, (10, 5, 3.0, 1)), (gen_infeasibility, (10, 3, 3.0, 1))],
)
def test_hvp_check_generated_instances(maker, args):
    oracle = maker(*args)
    v = standard_normals(123, 10, stream=77)
    v /= np.linalg.norm(v)
    x = standard_normals(124, 10, stream=78) * 0.3
    assert check_hvp_fd(oracle, x, v, h=1e-6) <= 1e-4


@pytest.mark.parametrize(
    "oracle",
    [
        gen_repu(8, 4, 2.5, seed=3),
        gen_infeasibility(8, 3, 2.75, seed=4),
    ],
    ids=["repu", "infeasibility"],
)
def test_fd_checks_on_random_probes(oracle):
    for trial in range(20):
        x = standard_normals(1000 + trial, oracle.dim, stream=1) * 0.5
        v = standard_normals(2000 + trial, oracle.dim, stream=2)
        v /= np.linalg.norm(v)
        assert check_gradient_fd(oracle, x) <= 1e-5
        assert check_hvp_fd(oracle, x, v) <= 1e-4


@pytest.mark.parametrize(
    "oracle",
    [
        gen_repu(8, 4, 2.5, seed=3),
        gen_infeasibility(8, 3, 2.75, seed=4),
    ],
    ids=["repu", "infeasibility"],
)
def test_hvp_linearity_and_symmetry(oracle):
    n = oracle.dim
    for trial in range(20):
        x = standard_normals(3000 + trial, n, stream=1) * 0.4
        u = standard_normals(4000 + trial, n, stream=2)
        v = standard_normals(5000 + trial, n, stream=3)
        hu = oracle.eval_hvp(x, u)
        hv = oracle.eval_hvp(x, v)
        combo = oracle.eval_hvp(x, 0.3 * u - 1.7 * v)
        scale = max(1.0, float(np.max(np.abs(hu))), float(np.max(np.abs(hv))))
        assert np.max(np.abs(combo - (0.3 * hu - 1.7 * hv))) <= 1e-8 * scale
        left = float(u @ hv)
        right = float(v @ hu)
        assert abs(left - right) <= 1e-8 * max(1.0, abs(left), abs(right))


def test_nonfinite_f_reports_coordinate():
    def bad_f(x):
        return float("nan") if x[2] > 0.05 else float(x @ x)

    oracle = ProblemOracle(4, bad_f, lambda x: 2 * x, lambda x, v: 2 * v)
    with pytest.raises(DerivativeCheckError) as err:
        check_gradient_fd(oracle, np.zeros(4), h=0.1)
    assert err.value.coordinate == 2


@pytest.mark.parametrize("dim", [3.0, True, 0, -1, "3"])
def test_dim_must_be_a_positive_integer(dim):
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        ProblemOracle(dim, lambda x: 0.0, lambda x: x, lambda x, v: v)


def test_integral_dim_is_stored_as_int():
    oracle = ProblemOracle(np.int64(3), lambda x: 0.0, lambda x: x, lambda x, v: v)
    assert type(oracle.dim) is int and oracle.dim == 3


def test_holder_class_validation():
    HolderClass(0.5, 1.0)
    with pytest.raises(ValueError):
        HolderClass(1.5, 1.0)
    with pytest.raises(ValueError):
        HolderClass(0.5, 0.0)
    with pytest.raises(ValueError):
        HolderClass(0.5, float("inf"))


def test_fd_preconditions():
    oracle = make_norm_squared(3)
    with pytest.raises(ValueError):
        check_gradient_fd(oracle, np.zeros(3), h=0.0)
    with pytest.raises(ValueError):
        check_hvp_fd(oracle, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# Point binding: a generated oracle's ``eval_hvp.at(x)`` is the operator
# v -> H(x) v, which ``CountingOracle.hvp_at`` and so every solver use.

GENERATORS = {"infeasibility": gen_infeasibility, "repu": gen_repu}


def generated(family, n, seed=0):
    return GENERATORS[family](n, max(2, n // 10), 2.25, seed)


def probe(n, seed, scale=0.3):
    return scale * standard_normals(seed, n, stream=97)


@pytest.mark.parametrize("n", [20, 160])
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_bound_products_match_per_call_bits(family, n):
    assert 20 < problems._ROW_PATH_MIN_N <= 160
    oracle = generated(family, n)
    xs = [probe(n, 1, 0.5 / np.sqrt(n)), probe(n, 2, 0.5 / np.sqrt(n))]
    vs = [standard_normals(10 + k, n, stream=98) for k in range(3)]
    bound = [oracle.eval_hvp.at(x) for x in xs]
    for _ in range(2):  # per-call products at the other point replace the cache in between
        for x, hvp in zip(xs, bound):
            for v in vs:
                assert same_bits(hvp(v), oracle.eval_hvp(x, v))
    # A fresh instance computes each product from nothing.
    fresh = generated(family, n)
    for x, hvp in zip(xs, bound):
        assert same_bits(hvp(vs[0]), fresh.eval_hvp(x, vs[0]))


@pytest.mark.parametrize("product_first", [False, True])
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_binding_keeps_the_point_it_was_bound_at(family, product_first):
    n = 20
    oracle, fresh = generated(family, n), generated(family, n)
    x, v = probe(n, 3), standard_normals(20, n, stream=98)
    original = x.copy()
    hvp = oracle.eval_hvp.at(x)
    if product_first:
        hvp(v)
    x[0] += 1.0  # the caller's array changes in place
    want = fresh.eval_hvp(original, v)
    assert same_bits(hvp(v), want)
    # A per-call product at the changed point gets that point's own Hessian.
    assert same_bits(oracle.eval_hvp(x, v), fresh.eval_hvp(x.copy(), v))
    assert same_bits(hvp(v), want)
    assert same_bits(oracle.eval_hvp(original, v), want)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_two_bound_operators_alternating_give_the_serial_bits(family):
    n = 20
    oracle, fresh = generated(family, n), generated(family, n)
    xs, v = [probe(n, 5), probe(n, 6)], np.ones(n)
    serial = [fresh.eval_hvp(x, v).tobytes() for x in xs]
    bound = [oracle.eval_hvp.at(x) for x in xs]
    for k in range(6):
        assert bound[k % 2](v).tobytes() == serial[k % 2]

    def products(k):
        # The thread's shared operator, a fresh binding and a per-call product.
        return bound[k](v).tobytes(), oracle.eval_hvp.at(xs[k])(v).tobytes(), oracle.eval_hvp(xs[k], v).tobytes()

    for i, results in enumerate(threaded(products, [0, 1], rounds=20)):
        assert results == [(serial[i % 2],) * 3] * 20


@pytest.mark.parametrize("n", [20, 160])
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_binding_looks_the_point_up_once_and_products_never(family, n, monkeypatch):
    oracle = generated(family, n)
    x, v = probe(n, 7, 0.5 / np.sqrt(n)), np.ones(n)
    want = oracle.eval_hvp(x, v)  # the point's data is in the cache
    keys = []
    key = problems._point_key
    monkeypatch.setattr(problems, "_point_key", lambda x: keys.append(1) or key(x))
    hvp = oracle.eval_hvp.at(x)
    assert len(keys) == 1
    for _ in range(3):
        assert same_bits(hvp(v), want)
    assert len(keys) == 1


def test_binding_keeps_the_slots_hessian_not_a_copy():
    n = 400
    oracle = gen_infeasibility(n, 2, 2.25, seed=0)
    gen_infeasibility(2, 1, 2.25, seed=0).eval_hvp(np.zeros(2), np.ones(2))  # empties the Hessian slot
    x, v = probe(n, 4, 0.5 / np.sqrt(n)), np.ones(n)
    oracle.eval_f(x)  # caches the point's A x and q
    bound = []
    grown = retained_bytes(lambda: bound.extend(oracle.eval_hvp.at(x) for _ in range(2)))
    # Binding builds the 1.28 MB Hessian at once, and both operators keep
    # the one in the slot; beyond it, the slot's key of x (3.2 kB) and two
    # partial objects.  A copy per operator would add another 1.28 MB.
    assert 8 * n * n <= grown <= 8 * n * n + 8 * n + 2048
    gen_infeasibility(2, 1, 2.25, seed=0).eval_hvp(np.zeros(2), np.ones(2))  # the slot lets H go
    grown = retained_bytes(lambda: [hvp(v) for hvp in bound])
    assert grown <= 1024
    assert same_bits(bound[0](v), gen_infeasibility(n, 2, 2.25, seed=0).eval_hvp(x, v))


@pytest.mark.parametrize("dtype", [np.float32, np.float16, ">f8", np.longdouble], ids=["f4", "f2", ">f8", "longdouble"])
def test_counting_oracle_reads_outputs_as_native_float64(dtype):
    # Gradients and products of any real dtype or byte order reach a solver
    # as float64, so it never computes a norm in the callback's precision.
    base = gen_quadratic(3, [1.0, -2.0, 3.0], 0)
    other = replace(
        base,
        eval_grad=lambda x: base.eval_grad(x).astype(dtype),
        eval_hvp=lambda x, v: base.eval_hvp(x, v).astype(dtype),
    )
    co, x = CountingOracle(other), np.array([0.5, -1.0, 2.0])
    for got, exact in ((co.eval_grad(x), base.eval_grad(x)), (co.hvp_at(x)(x), base.eval_hvp(x, x))):
        assert got.dtype == np.float64 and got.dtype.isnative
        np.testing.assert_array_equal(got, exact.astype(dtype).astype(float))


def memo_probe():
    """A CountingOracle whose f and grad log each point they are called at."""
    calls = []

    def f(x):
        calls.append(("f", x.tolist()))
        return float(x @ x)

    def grad(x):
        calls.append(("grad", x.tolist()))
        return 2.0 * x

    return CountingOracle(ProblemOracle(2, f, grad, lambda x, v: 2.0 * v)), calls


def test_counting_oracle_evaluates_a_point_once_per_iterate():
    co, calls = memo_probe()
    x = np.array([1.0, 2.0])
    g = co.eval_grad(x)
    assert (co.eval_f(x), co.eval_f(x.copy()), co.eval_f(x + 0.0)) == (5.0, 5.0, 5.0)
    assert co.eval_grad(x.copy()) is g and g.tolist() == [2.0, 4.0]
    assert calls == [("grad", [1.0, 2.0]), ("f", [1.0, 2.0])]
    assert (co.counters.f_evals, co.counters.grad_evals) == (1, 1)
    co.new_iterate()  # the next outer iteration starts with an empty memo
    assert co.eval_f(x) == 5.0 and co.eval_grad(x).tolist() == [2.0, 4.0]
    assert calls[2:] == [("f", [1.0, 2.0]), ("grad", [1.0, 2.0])]
    assert (co.counters.f_evals, co.counters.grad_evals) == (2, 2)


def test_counting_oracle_keys_points_by_their_bits():
    # -0.0 == +0.0 numerically, but the memo compares bytes (oracle._point_key).
    co, calls = memo_probe()
    for x in (np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, 1.0])):
        co.eval_f(x)
        co.eval_grad(x)
    assert [name for name, _ in calls] == ["f", "grad", "f", "grad"]
    assert (co.counters.f_evals, co.counters.grad_evals) == (2, 2)


def test_counting_oracle_memoizes_no_raising_callback():
    failures = [OverflowError("f out of range"), OverflowError("grad out of range")]

    def f(x):
        if failures[0] is not None:
            raise failures[0]
        return 1.0

    def grad(x):
        if failures[1] is not None:
            raise failures[1]
        return np.ones(1)

    co, x = CountingOracle(ProblemOracle(1, f, grad, lambda x, v: v)), np.zeros(1)
    for _ in range(2):  # each call reaches the callback, and is counted
        with pytest.raises(OverflowError, match="f out of range"):
            co.eval_f(x)
        with pytest.raises(OverflowError, match="grad out of range"):
            co.eval_grad(x)
    failures[:] = None, None
    assert co.eval_f(x) == 1.0 and co.eval_grad(x).tolist() == [1.0]
    assert (co.counters.f_evals, co.counters.grad_evals) == (3, 3)


def test_counting_operator_copies_a_point_without_binding():
    # An eval_hvp without ``at`` gets every product as eval_hvp(x, v), at a
    # copy of x taken when the operator was bound.
    seen = []

    def eval_hvp(x, v):
        seen.append(x)
        return 2.0 * v

    co = CountingOracle(ProblemOracle(3, lambda x: 0.0, lambda x: x, eval_hvp))
    x = np.ones(3)
    hvp = co.hvp_at(x)
    x[0] = 5.0
    assert hvp(np.ones(3)).tolist() == [2.0, 2.0, 2.0]
    hvp(np.zeros(3))
    assert seen[0] is seen[1] and seen[0].tolist() == [1.0, 1.0, 1.0]
    assert co.counters.hvp_evals == 2
    short = CountingOracle(ProblemOracle(3, lambda x: 0.0, lambda x: x, lambda x, v: v[:2]))
    with pytest.raises(ValueError, match=r"eval_hvp must return shape \(3,\)"):
        short.hvp_at(x)(np.ones(3))


# The benchmark's tracer times HVPs by rebuilding the oracle with a wrapped
# eval_hvp, which has no ``at``: solves through such a wrapper take the
# per-call path, and must count every product and keep every bit.
@pytest.mark.parametrize("solver, eps_H", [("alg1", None), ("alg2", 1e-3), ("acrn", None)])
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_solves_through_a_wrapped_hvp_count_every_product(family, solver, eps_H):
    n = 20
    oracle = generated(family, n, seed=1)
    points = {}

    def wrapper(x, v):
        points[id(x)] = x  # held, so that ids stay unique
        wrapper.calls += 1
        return oracle.eval_hvp(x, v)

    wrapper.calls = 0
    x0 = start_point(family, n)
    res = solve(solver, replace(oracle, eval_hvp=wrapper), x0, eps_H=eps_H)
    want = solve(solver, oracle, x0, eps_H=eps_H)
    assert wrapper.calls == res.counters.hvp_evals > 0
    assert len(points) <= len(res.trace) + 1  # one array per iterate
    assert res.x_final.tobytes() == want.x_final.tobytes() and repr(res.f_final) == repr(want.f_final)
    assert (res.status, res.status_detail, vars(res.counters)) == (want.status, want.status_detail, vars(want.counters))
    if eps_H is not None:
        assert res.counters.meo_calls >= 1


@pytest.mark.parametrize("solver, eps_H", [("alg1", None), ("alg2", None), ("alg2", 1e-3), ("acrn", None)])
@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_a_gradient_refilling_one_buffer_solves_as_a_fresh_one(family, solver, eps_H):
    n = 20
    oracle = generated(family, n, seed=1)
    buffer = np.empty(n)

    def eval_grad(x):
        buffer[:] = oracle.eval_grad(x)
        return buffer

    x0 = start_point(family, n)
    want = fingerprint(solve(solver, oracle, x0, eps_H=eps_H))
    assert fingerprint(solve(solver, replace(oracle, eval_grad=eval_grad), x0, eps_H=eps_H)) == want


# The driver binds an operator only where it takes products: once before an
# outer iteration's damping trials and once for each eigenvalue-oracle call.
# Binding a generated oracle builds the point's Hessian at once, so a solve
# builds one per such binding, and none at an iterate where it stops.
@pytest.mark.parametrize(
    "solver, eps_H", [("alg1", None), ("alg1", 1e-3), ("alg2", None), ("alg2", 1e-3), ("acrn", None)]
)
def test_solves_build_a_hessian_only_where_products_are_taken(solver, eps_H):
    n = 20
    oracle = generated("infeasibility", n, seed=1)
    slots = [problems._infeasibility_hessian[0]]

    def watched(callback):
        def call(*args):
            out = callback(*args)
            if problems._infeasibility_hessian[0] is not slots[-1]:  # one build per call at most
                slots.append(problems._infeasibility_hessian[0])
            return out

        return call

    eval_hvp = watched(oracle.eval_hvp)
    eval_hvp.at = watched(oracle.eval_hvp.at)
    wrapped = replace(oracle, eval_f=watched(oracle.eval_f), eval_grad=watched(oracle.eval_grad), eval_hvp=eval_hvp)
    res = solve(solver, wrapped, start_point("infeasibility", n), eps_H=eps_H)
    damped = sum(record.step_type != MEO for record in res.trace)
    assert damped >= 1 and res.counters.hvp_evals > 0
    assert len(slots) - 1 == damped + res.counters.meo_calls
    built_at_x_final = slots[-1][1] == problems._point_key(res.x_final)
    if eps_H is None:
        assert res.status == FOSP and res.counters.meo_calls == 0 and not built_at_x_final
    else:  # the certifying call takes its products at x_final
        assert res.status == SOSP_CERTIFIED and res.counters.meo_calls >= 1 and built_at_x_final
