import gc
import weakref

import numpy as np
import pytest

from ncgopt import bench, gen_infeasibility, gen_quadratic, gen_repu, problems
from ncgopt.problems import _pos_pow
from ncgopt.sampling import standard_normals
from support import (
    check_gradient_fd,
    check_hvp_fd,
    fingerprint,
    peak_bytes,
    reference_repu_elementwise,
    retained_bytes,
    same_bits,
    solve,
    threaded,
)


def test_infeasibility_f_at_origin_closed_form():
    oracle = gen_infeasibility(12, 4, 2.5, seed=1)
    inst = oracle.meta
    expected = float(np.sum(_pos_pow(inst.c, 2.5)) / 4)
    assert abs(oracle.eval_f(np.zeros(12)) - expected) <= 1e-14 * max(1.0, expected)


def test_infeasibility_dead_zone():
    oracle = gen_infeasibility(6, 3, 2.25, seed=2)
    inst = oracle.meta
    # Far along a direction where every quadratic is negative... instead,
    # evaluate at a point constructed to make all q_i <= 0: scale down and
    # shift c negative via the instance arrays directly.
    from ncgopt.problems import InfeasibilityInstance, _infeasibility_oracle

    shifted = _infeasibility_oracle(
        InfeasibilityInstance(inst.A, inst.b, inst.c - 100.0, inst.p, inst.seed)
    )
    x = np.zeros(6)
    assert shifted.eval_f(x) == 0.0
    assert np.linalg.norm(shifted.eval_grad(x)) == 0.0
    assert np.linalg.norm(shifted.eval_hvp(x, np.ones(6))) == 0.0


@pytest.mark.parametrize("family", [gen_infeasibility, gen_repu])
def test_f_is_nan_at_a_nan_point(family):
    oracle = family(10, 3, 2.25, 0)
    x = np.zeros(10)
    x[2] = np.nan
    assert np.isnan(oracle.eval_f(x))
    assert np.all(np.isnan(oracle.eval_grad(x)))


def test_infeasibility_matrices_psd_and_symmetric():
    oracle = gen_infeasibility(15, 5, 2.25, seed=3)
    inst = oracle.meta
    for A in inst.A:
        assert np.max(np.abs(A - A.T)) <= 1e-14
        assert np.min(np.linalg.eigvalsh(A)) >= -1e-10


def test_repu_f_at_origin_closed_form():
    oracle = gen_repu(9, 6, 3.0, seed=4)
    inst = oracle.meta
    expected = float(np.mean(inst.b**2 / (1.0 + inst.b**2)))
    assert abs(oracle.eval_f(np.zeros(9)) - expected) <= 1e-14


def test_repu_targets_nonnegative():
    for seed in range(5):
        oracle = gen_repu(7, 11, 2.25, seed=seed)
        assert np.all(oracle.meta.b >= 0.0)


def test_determinism_bit_identical_instances():
    a = gen_infeasibility(10, 3, 2.75, seed=7).meta
    b = gen_infeasibility(10, 3, 2.75, seed=7).meta
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)
    c = gen_repu(10, 4, 2.5, seed=8).meta
    d = gen_repu(10, 4, 2.5, seed=8).meta
    assert np.array_equal(c.a, d.a) and np.array_equal(c.b, d.b)
    e = gen_quadratic(6, np.arange(1.0, 7.0), seed=9).meta
    f = gen_quadratic(6, np.arange(1.0, 7.0), seed=9).meta
    assert np.array_equal(e.basis, f.basis)


@pytest.mark.parametrize(
    "oracle",
    [
        gen_infeasibility(10, 3, 2.5, seed=0),
        gen_repu(10, 5, 2.5, seed=0),
        gen_quadratic(10, np.linspace(0.5, 5.0, 10), seed=0),
    ],
    ids=["infeasibility", "repu", "quadratic"],
)
def test_fd_checks_per_family(oracle):
    x = standard_normals(55, 10, stream=91) * 0.2
    v = standard_normals(56, 10, stream=92)
    v /= np.linalg.norm(v)
    assert check_gradient_fd(oracle, x) <= 1e-5
    assert check_hvp_fd(oracle, x, v) <= 1e-4


def test_quadratic_spectrum():
    lam = np.array([0.3, 1.0, 2.0, 9.0])
    oracle = gen_quadratic(4, lam, seed=11)
    inst = oracle.meta
    Q = (inst.basis.T * inst.eigenvalues) @ inst.basis
    np.testing.assert_allclose(np.linalg.eigvalsh(Q), np.sort(lam), atol=1e-10)
    v1 = inst.basis[0]  # eigenvector of eigenvalues[0]
    s = 3.0
    assert abs(oracle.eval_f(s * v1) - 0.5 * lam[0] * s**2) <= 1e-10


def test_exponent_validation():
    with pytest.raises(ValueError):
        gen_infeasibility(5, 2, 2.0, seed=0)
    with pytest.raises(ValueError):
        gen_repu(5, 2, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_repu(5, 2, float("inf"), seed=0)
    # Sizes and seeds follow the package's integer rule: a ValueError that
    # names the argument, and numpy integers read as ints.
    eigenvalues = [1.0, 2.0, 3.0]
    for make, args, name in (
        (gen_infeasibility, (10.0, 3, 2.5, 0), "n"),
        (gen_repu, (True, 1, 2.5, 0), "n"),
        (gen_repu, (5, 0, 2.5, 0), "m"),
        (gen_infeasibility, (5, 2, 2.5, 1.5), "seed"),
        (gen_repu, (5, 2, 2.5, "0"), "seed"),
        (gen_quadratic, (3.0, eigenvalues, 0), "n"),
        (gen_quadratic, (3, eigenvalues, 1.5), "seed"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make(*args)
    for make, args in ((gen_infeasibility, (5, 2, 2.5)), (gen_repu, (5, 2, 2.5)), (gen_quadratic, (3, eigenvalues))):
        plain = make(*args, 1)
        typed = make(*(np.int64(a) if type(a) is int else a for a in args), np.int64(1))
        assert typed.name == plain.name
        assert all(same_bits(a, b) for a, b in zip(vars(typed.meta).values(), vars(plain.meta).values()))


def _pos_pow_masked(q, s):
    """The masked form _pos_pow replaced: power only where q is not <= 0."""
    out = np.zeros_like(q)
    mask = ~(q <= 0.0)
    out[mask] = q[mask] ** s
    return out


@pytest.mark.parametrize("p", [2.25, 3.0])
def test_pos_pow_bits_match_masked_form(p):
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e3 * tiny, 1e300, -1e300]
    q = np.concatenate([standard_normals(60, 10_000, stream=95) * 10.0, special])
    for s in (p, p - 1.0, p - 2.0):
        with np.errstate(over="ignore"):  # 1e300 ** s overflows in both forms
            assert _pos_pow(q, s).tobytes() == _pos_pow_masked(q, s).tobytes()


# ---------------------------------------------------------------------------
# Last-point caches of the generated oracles, against the per-call formulas
# they replaced.


def reference_infeasibility(inst):
    """f, grad and HVP of the infeasibility family, recomputed on every call."""
    A, b, c, p, m = inst.A, inst.b, inst.c, inst.p, inst.m

    def f(x):
        q = (A @ x) @ x + b @ x + c
        return float(np.sum(_pos_pow(q, p)) / m)

    def grad(x):
        ax = A @ x
        q = ax @ x + b @ x + c
        w = p * _pos_pow(q, p - 1.0)
        return (w[:, None] * (2.0 * ax + b)).sum(axis=0) / m

    def hvp(x, v):
        ax = A @ x
        q = ax @ x + b @ x + c
        lin = 2.0 * ax + b
        w1 = p * (p - 1.0) * _pos_pow(q, p - 2.0)
        w2 = p * _pos_pow(q, p - 1.0)
        out = ((w1 * (lin @ v))[:, None] * lin).sum(axis=0)
        out += 2.0 * (w2[:, None] * (A @ v)).sum(axis=0)
        return out / m

    return f, grad, hvp


def reference_repu(inst):
    """f, grad and HVP of the repu family, recomputed on every call with the
    oracle's products w a and (u * (a v)) a as single gemv calls."""
    a, b, p, m = inst.a, inst.b, inst.p, inst.m

    def f(x):
        t = _pos_pow(a @ x, p) - b
        return float(np.sum(t * t / (1.0 + t * t)) / m)

    def grad(x):
        s = a @ x
        t = _pos_pow(s, p) - b
        dphi = 2.0 * t / (1.0 + t * t) ** 2
        w = dphi * p * _pos_pow(s, p - 1.0)
        return w.dot(a) / m

    def hvp(x, v):
        s = a @ x
        u1 = p * _pos_pow(s, p - 1.0)
        u2 = p * (p - 1.0) * _pos_pow(s, p - 2.0)
        t = _pos_pow(s, p) - b
        denom = 1.0 + t * t
        dphi = 2.0 * t / denom**2
        d2phi = (2.0 - 6.0 * t * t) / denom**3
        return ((d2phi * u1 * u1 + dphi * u2) * a.dot(v)).dot(a) / m

    return f, grad, hvp


def assert_matches_reference(oracle, reference, x, v, hvp_exact):
    f, grad, hvp = reference
    assert same_bits(oracle.eval_f(x), f(x))
    assert same_bits(oracle.eval_grad(x), grad(x))
    got, want = oracle.eval_hvp(x, v), hvp(x, v)
    if not np.all(np.isfinite(want)):
        assert np.array_equal(got, want, equal_nan=True)
    elif hvp_exact:
        assert same_bits(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def point(seed, n, scale=0.3):
    return scale * standard_normals(seed, n, stream=93)


def nan_point(n):
    x = point(3, n)
    x[n // 2] = np.nan
    return x


def int_point(n):
    return np.arange(n) % 3 - 1


def int_point_with_float_bits(n):
    # The same bytes as point(1, n) read as int64: a key on bytes alone would
    # hand this point the float point's cached data.
    return point(1, n).view(np.int64)


# Call sequences: each returns a list of points.  The oracle is evaluated at
# each point in turn, f then grad then several HVPs, and every result is
# checked against the reference.
SEQUENCES = {
    "interleaved": lambda n: [point(1, n), point(2, n), point(1, n)],
    "non-contiguous": lambda n: [point(1, n), np.repeat(point(1, n), 2)[::2], point(1, n)],
    "int-dtype": lambda n: [point(1, n), int_point(n), int_point(n).astype(float)],
    "int-with-float-bits": lambda n: [point(1, n), int_point_with_float_bits(n), point(1, n)],
    "signed-zero": lambda n: [np.zeros(n), -np.zeros(n), np.zeros(n)],
    "nan": lambda n: [point(1, n), nan_point(n), point(1, n)],
}


@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
@pytest.mark.parametrize("family", ["infeasibility", "repu"])
def test_cached_oracle_matches_reference(family, sequence):
    n = 20
    if family == "infeasibility":
        oracle = gen_infeasibility(n, 5, 2.25, seed=21)
        reference = reference_infeasibility(oracle.meta)
    else:
        oracle = gen_repu(n, 8, 2.25, seed=22)
        reference = reference_repu(oracle.meta)
    vs = [standard_normals(40 + k, n, stream=94) for k in range(3)]
    for x in SEQUENCES[sequence](n):
        for v in vs:
            assert_matches_reference(oracle, reference, x, v, hvp_exact=family == "repu")


# repu's gradient w a and HVP (u * (a v)) a are single gemv calls; they
# round differently from the elementwise row sums they replaced, by a few
# ulps of the result, and hold no m x n temporary.


@pytest.mark.parametrize("n, m", [(20, 8), (100, 20), (2000, 400)])
def test_repu_products_match_elementwise_formulas(n, m):
    oracle = gen_repu(n, m, 2.25, seed=23)
    f, grad, hvp = reference_repu_elementwise(oracle.meta)
    v = standard_normals(40, n, stream=94)
    for x in (point(1, n), point(2, n, scale=1.0 / np.sqrt(n))):
        assert abs(oracle.eval_f(x) - f(x)) <= 1e-13 * abs(f(x))
        for got, want in ((oracle.eval_grad(x), grad(x)), (oracle.eval_hvp(x, v), hvp(x, v))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    x = nan_point(n)
    assert np.isnan(oracle.eval_f(x)) and np.isnan(f(x))
    for got, want in ((oracle.eval_grad(x), grad(x)), (oracle.eval_hvp(x, v), hvp(x, v))):
        assert np.isnan(got).all() and np.isnan(want).all()


def test_repu_products_allocate_no_m_by_n_temporary():
    n, m = 2000, 400
    oracle = gen_repu(n, m, 2.25, seed=0)
    x, y = point(1, n, scale=1.0 / np.sqrt(n)), point(2, n, scale=1.0 / np.sqrt(n))
    v = standard_normals(40, n, stream=94)
    bound = oracle.eval_hvp.at(x)
    # A few vectors of length m or n at each fresh point; one m x n
    # temporary would take 6.4 MB.
    assert peak_bytes(lambda: bound(v)) < 64 * (m + n)
    assert peak_bytes(lambda: oracle.eval_grad(y)) < 64 * (m + n)


def test_infeasibility_oracles_of_equal_shape_alternating():
    n = 20
    oracles = [gen_infeasibility(n, 5, 2.25, seed=s) for s in (24, 25)]
    references = [reference_infeasibility(o.meta) for o in oracles]
    x, v = point(1, n), np.ones(n)
    for k in range(6):
        oracle, (_, _, hvp) = oracles[k % 2], references[k % 2]
        got, want = oracle.eval_hvp(x, v), hvp(x, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_infeasibility_cache_retains_one_matrix():
    n, m, count = 60, 4, 20
    oracles = [gen_infeasibility(n, m, 2.25, seed=s) for s in range(count)]
    x, v = point(1, n), np.ones(n)
    grown = retained_bytes(lambda: [oracle.eval_hvp(x, v) for oracle in oracles])
    # One n x n matrix for the whole process (and the spare memory of the
    # last one that died), and O(mn) bytes (A x, q and a few object headers)
    # per oracle; a matrix per oracle would add 576 kB.
    assert grown <= 8 * n * n + count * (8 * 4 * m * n + 2048)


def test_memos_sharing_a_slot_keep_their_own_values():
    # Two memos in one slot, called in turn at the same point: each returns
    # its own value, and each switch recomputes.
    slot, calls = [None], []
    memos = [problems._last_point(lambda x, k=k: calls.append(k) or (k, x.tobytes()), slot) for k in range(2)]
    x = np.arange(3.0)
    for k in range(6):
        assert memos[k % 2](x) == (k % 2, x.tobytes())
    assert calls == [0, 1] * 3
    assert memos[1](x.copy()) == (1, x.tobytes()) and len(calls) == 6  # the same bytes hit
    # Four threads, more than cores, two per memo.
    for i, results in enumerate(threaded(lambda k: memos[k](x), [0, 1], rounds=50)):
        assert results == [(i % 2, x.tobytes())] * 50


def test_hessian_slot_lets_a_dropped_oracle_go():
    oracle = gen_infeasibility(20, 4, 2.25, seed=0)
    oracle.eval_hvp(np.zeros(20), np.ones(20))
    data = weakref.ref(oracle.meta.A)
    del oracle
    gc.collect()
    assert data() is None


@pytest.mark.parametrize("n", [100, 400], ids=["100", "400-row-path"])
def test_infeasibility_hessian_is_64_byte_aligned(n):
    # The slot's H starts at 0 mod 64, where OpenBLAS's gemv runs fastest,
    # and keeps the bits of the product assembled in malloc's own buffer.
    oracle = gen_infeasibility(n, n // 10, 2.25, seed=3)
    A, b, c, p, m = oracle.meta.A, oracle.meta.b, oracle.meta.c, oracle.meta.p, oracle.meta.m
    for x in (point(1, n), point(1, n) + 1e-3):
        oracle.eval_hvp.at(x)
        H = problems._infeasibility_hessian[0][2]
        assert H.ctypes.data % 64 == 0 and H.flags.c_contiguous
        ax = A @ x
        q = ax.dot(x) + b.dot(x) + c
        lin = 2.0 * ax + b
        want = (2.0 * p * _pos_pow(q, p - 1.0)).dot(A.reshape(m, -1)).reshape(n, n)
        want += lin.T @ (p * (p - 1.0) * _pos_pow(q, p - 2.0)[:, None] * lin)
        assert same_bits(H, want / m)


def test_infeasibility_hessian_reuses_a_dead_hessians_memory():
    # Once nothing holds the last point's H, the next build writes into its
    # memory: the build's only n x n allocation is the rank-m product's.
    n = 200
    oracle = gen_infeasibility(n, 20, 2.25, seed=3)
    v = np.ones(n)
    for k in range(2):
        oracle.eval_hvp(point(k, n), v)
    assert peak_bytes(lambda: oracle.eval_hvp(point(2, n), v)) < 1.5 * 8 * n * n
    # An H that an operator still holds keeps its memory, and its bits.
    x = point(3, n)
    hvp, want = oracle.eval_hvp.at(x), oracle.eval_hvp(x, v)
    for k in range(4, 7):
        oracle.eval_hvp(point(k, n), v)
    assert same_bits(hvp(v), want)


def test_threaded_solves_match_sequential():
    oracles = [gen_infeasibility(30, 4, 2.25, seed=s) for s in (0, 3)]
    run = lambda oracle: fingerprint(solve("alg2", oracle, np.zeros(30), eps_H=1e-2))
    expected = [run(o) for o in oracles]
    # Four threads, more than cores, two per oracle.
    for i, results in enumerate(threaded(run, oracles, rounds=3)):
        assert results == [expected[i % 2]] * 3


# ---------------------------------------------------------------------------
# The infeasibility oracle's row path: rows that a norm bound around a
# reference point proves inactive are skipped, with the bits of the full
# evaluation.


class NumpySpy:
    """numpy as seen by ncgopt.problems, counting the row path's points and
    rows, and its passes over A for the row norms."""

    def __init__(self):
        self.points = self.rows = self.norm_passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        self.points += 1
        return np.flatnonzero(a)

    def matmul(self, *args, **kwargs):
        self.rows += 1
        return np.matmul(*args, **kwargs)

    def vecdot(self, *args, **kwargs):
        self.norm_passes += 1
        return np.vecdot(*args, **kwargs)


@pytest.fixture
def row_spy(monkeypatch):
    spy = NumpySpy()
    monkeypatch.setattr(problems, "np", spy)
    return spy


def residual(inst, x):
    return (inst.A @ x) @ x + inst.b @ x + inst.c


def row_cell(n, concave=False):
    """Instance and reference point, with 3 of 5 (n = 20) or 9 of 16 rows
    inactive unless ``concave``, which negates each A_i so that q_i can be
    negative while b_i'x + c_i is not."""
    oracle = gen_infeasibility(n, max(5, n // 10), 2.25, seed=23)
    if concave:
        inst = oracle.meta
        oracle = problems._infeasibility_oracle(
            problems.InfeasibilityInstance(-inst.A, inst.b, inst.c, inst.p, inst.seed)
        )
    return oracle, point(1, n, scale=0.5 / np.sqrt(n))


def along_inactive_row(inst, r):
    """The inactive row closest to zero at r, and x(t) = r + t lin_i(r) / ||lin_i(r)||."""
    q = residual(inst, r)
    i = int(np.argmax(np.where(q < 0.0, q, -np.inf)))
    lin = 2.0 * inst.A[i] @ r + inst.b[i]
    u = lin / np.linalg.norm(lin)
    return i, lambda t: r + t * u


def crossing(inst, i, x_of_t):
    """Bisect to t_lo < t_hi, adjacent in float, with q_i(x(t_lo)) <= 0 < q_i(x(t_hi))."""
    lo, hi = 0.0, 1.0
    while residual(inst, x_of_t(hi))[i] <= 0.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if residual(inst, x_of_t(mid))[i] <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def small_steps(inst, r):
    u = standard_normals(7, r.size, stream=96) / np.sqrt(r.size)
    return [r] + [r + s * u for s in (1e-9, 1e-6, 1e-3, 1e-1, 1e-3)]


def activating_step(inst, r):
    i, x_of_t = along_inactive_row(inst, r)
    t = crossing(inst, i, x_of_t)[1]
    points = [r, x_of_t(0.25 * t), x_of_t(0.5 * t), x_of_t(2.0 * t)]
    assert residual(inst, points[-1])[i] > 0.0
    return points


def near_zero_step(inst, r):
    i, x_of_t = along_inactive_row(inst, r)
    lo, hi = crossing(inst, i, x_of_t)
    points = [r, x_of_t(lo), x_of_t(hi), x_of_t(lo - 1e-14)]
    assert all(abs(residual(inst, x)[i]) <= 1e-12 for x in points[1:])
    return points


def non_finite_steps(inst, r):
    inf_point = r.copy()
    inf_point[r.size // 2] = np.inf
    nearby = r + 1e-3
    # A NaN or inf point computed in full becomes the reference; a bound taken
    # from it is NaN and must not skip a row at the finite points after it.
    return [nan_point(r.size), r, nearby, inf_point, nearby, r, nan_point(r.size), nearby]


def dead_zone_steps(inst, r):
    u = -inst.b.sum(axis=0)
    dead = u / np.linalg.norm(u)
    assert np.all(residual(inst, dead) < 0.0)
    # From a reference where every row is inactive, nearby points skip every
    # row: f is 0 and every gradient and Hessian term is a zero.
    return [dead, dead + 1e-3, dead + 1e-2, r]


ROW_SEQUENCES = {
    "dead-zone": dead_zone_steps,
    "small-steps": small_steps,
    "activating": activating_step,
    "near-zero": near_zero_step,
    "non-finite": non_finite_steps,
}


@pytest.mark.parametrize("sequence", sorted(ROW_SEQUENCES))
@pytest.mark.parametrize("n, concave", [(20, False), (20, True), (160, False)], ids=["20", "20-concave", "160"])
def test_row_path_matches_reference(n, concave, sequence, row_spy, monkeypatch):
    if n < problems._ROW_PATH_MIN_N:
        monkeypatch.setattr(problems, "_ROW_PATH_MIN_N", 0)
    assert 160 >= problems._ROW_PATH_MIN_N
    oracle, r = row_cell(n, concave)
    with monkeypatch.context() as every_row:
        every_row.setattr(problems, "_ROW_PATH_MIN_N", np.inf)
        full = problems._infeasibility_oracle(oracle.meta)
    reference = reference_infeasibility(oracle.meta)
    vs = [standard_normals(40 + k, n, stream=94) for k in range(2)]
    for x in ROW_SEQUENCES[sequence](oracle.meta, r):
        with np.errstate(invalid="ignore", over="ignore"):  # the inf point
            if not np.all(np.isfinite(x)):
                assert np.isnan(oracle.eval_f(x))
            for v in vs:
                assert_matches_reference(oracle, reference, x, v, hvp_exact=False)
                assert same_bits(oracle.eval_hvp(x, v), full.eval_hvp(x, v))
    # Some point took the row path and skipped rows.
    assert row_spy.points >= 1
    assert row_spy.rows < row_spy.points * oracle.meta.m


def test_row_norms_are_taken_when_the_oracle_is_built(row_spy):
    n = 160
    assert n >= problems._ROW_PATH_MIN_N
    oracle, r = row_cell(n)
    assert row_spy.norm_passes == 1
    for x in small_steps(oracle.meta, r):
        oracle.eval_f(x)
        oracle.eval_grad(x)
        oracle.eval_hvp(x, np.ones(n))
    assert row_spy.points >= 1 and row_spy.norm_passes == 1


def test_row_bound_margin_decides(row_spy, monkeypatch):
    """Row i's bound without the margin is negative, yet the full evaluation
    rounds q_i(x) to a positive value: the margin must keep the row computed.
    Every other row sits far below zero, so f is row i's term alone."""
    monkeypatch.setattr(problems, "_ROW_PATH_MIN_N", 0)
    n, m, i = 20, 5, 2
    inst = gen_infeasibility(n, m, 2.25, seed=23).meta
    r = point(1, n, scale=0.5 / np.sqrt(n))
    s = ((inst.A @ r) @ r + inst.b @ r)[i]
    c = inst.c - 100.0
    c[i] = -s - abs(np.spacing(s))  # q_i(r) computes to one ulp below zero
    shifted = problems.InfeasibilityInstance(inst.A, inst.b, c, inst.p, inst.seed)
    q_r = residual(shifted, r)
    assert q_r[i] < 0.0 and np.all(np.delete(q_r, i) < -50.0)
    norm_a = np.linalg.norm(inst.A.reshape(m, -1), axis=1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = r.copy()
        for j in rng.choice(n, rng.integers(1, n + 1), replace=False):
            x[j] = np.nextafter(x[j], rng.choice([-np.inf, np.inf]))
        d = x - r
        bound = q_r + (2.0 * inst.A @ r + inst.b) @ d + norm_a * (d @ d)
        if bound[i] < 0.0 < residual(shifted, x)[i]:
            break
    else:
        pytest.fail("no point found at which the margin decides")
    oracle = problems._infeasibility_oracle(shifted)
    f, grad, _ = reference_infeasibility(shifted)
    assert same_bits(oracle.eval_f(r), f(r))
    assert oracle.eval_f(x) > 0.0
    assert same_bits(oracle.eval_f(x), f(x))
    assert same_bits(oracle.eval_grad(x), grad(x))
    assert (row_spy.points, row_spy.rows) == (1, 1)


@pytest.mark.parametrize(
    "solver, eps_H", [("alg1", None), ("alg1", 1e-3), ("alg2", None), ("alg2", 1e-3), ("acrn", None)]
)
def test_solves_above_the_gate_match_full_rows(solver, eps_H, row_spy, monkeypatch):
    n, m = 160, 16
    assert n >= problems._ROW_PATH_MIN_N
    cfg = bench.ExperimentConfig("infeasibility", ((n, m, 2.25),), eps_h=eps_H)

    def outcome(seed):
        run = bench._solver(cfg, solver, seed)
        res = run(gen_infeasibility(n, m, 2.25, seed=seed), bench.start_point("infeasibility", n))
        return (res.x_final.tobytes(), repr(res.f_final), res.status, res.status_detail,
                vars(res.counters), repr(res.trace))

    rows_on = [outcome(seed) for seed in range(3)]
    assert row_spy.points > 0
    monkeypatch.setattr(problems, "_ROW_PATH_MIN_N", np.inf)
    assert [outcome(seed) for seed in range(3)] == rows_on


@pytest.mark.parametrize(
    "oracle",
    [gen_infeasibility(6, 2, 2.5, seed=0), gen_repu(6, 3, 2.5, seed=0), gen_quadratic(3, [1.0, 2.0, 3.0], seed=0)],
    ids=["infeasibility", "repu", "quadratic"],
)
def test_instance_arrays_are_read_only(oracle):
    arrays = [v for v in vars(oracle.meta).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 2
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_threaded_solves_above_the_gate_match_sequential(row_spy):
    n = 160
    assert n >= problems._ROW_PATH_MIN_N
    oracles = [gen_infeasibility(n, 16, 2.25, seed=s) for s in (0, 3)]
    run = lambda oracle: fingerprint(solve("alg2", oracle, np.zeros(n)))
    expected = [run(o) for o in oracles]
    assert row_spy.points > 0
    # Four threads, more than cores, two per oracle.
    for i, results in enumerate(threaded(run, oracles, rounds=2)):
        assert results == [expected[i % 2]] * 2


def test_row_path_retains_one_reference_per_oracle(row_spy):
    n, m, count = 160, 4, 10
    assert n >= problems._ROW_PATH_MIN_N
    oracles = [gen_infeasibility(n, m, 2.25, seed=s) for s in range(count)]
    x = point(1, n, scale=0.5 / np.sqrt(n))
    nearby, v = x + 1e-3, np.ones(n)
    grown = retained_bytes(lambda: [(oracle.eval_hvp(x, v), oracle.eval_f(nearby)) for oracle in oracles])
    assert row_spy.points > 0
    # One n x n matrix for the process; per oracle the last point's key, A x
    # and q, and the reference's x, q and lin with three m-vectors of row
    # norms.  One more m x n array per oracle would add 5 kB.
    assert grown <= 8 * n * n + count * (8 * (2 * m * n + 2 * n + 6 * m) + 3072)
