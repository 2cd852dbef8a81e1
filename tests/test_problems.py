import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ncgopt import (
    check_gradient_fd,
    check_hvp_fd,
    gen_infeasibility,
    gen_quadratic,
    gen_repu,
    load_instance,
    pf_newton_cg_solve,
    PfParams,
    save_instance,
)
from ncgopt.problems import _pos_pow
from ncgopt.sampling import standard_normals


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


@pytest.mark.parametrize(
    "oracle",
    [
        gen_infeasibility(8, 3, 2.25, seed=13),
        gen_repu(8, 4, 2.75, seed=14),
        gen_quadratic(8, np.linspace(1.0, 3.0, 8), seed=15),
    ],
    ids=["infeasibility", "repu", "quadratic"],
)
def test_serialization_round_trip(tmp_path, oracle):
    path = tmp_path / "instance.ncgprob"
    save_instance(str(path), oracle)
    loaded = load_instance(str(path))
    x = standard_normals(123, 8, stream=7) * 0.4
    v = standard_normals(124, 8, stream=8)
    assert loaded.eval_f(x) == oracle.eval_f(x)
    assert np.array_equal(loaded.eval_grad(x), oracle.eval_grad(x))
    assert np.array_equal(loaded.eval_hvp(x, v), oracle.eval_hvp(x, v))
    inst, linst = oracle.meta, loaded.meta
    assert type(inst) is type(linst)
    assert inst.seed == linst.seed


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a real header\n\x00\x01")
    with pytest.raises(ValueError):
        load_instance(str(path))


def test_serialization_rejects_unsupported_version(tmp_path):
    oracle = gen_repu(4, 2, 2.5, seed=0)
    path = tmp_path / "inst.ncgprob"
    save_instance(str(path), oracle)
    blob = path.read_bytes().replace(b"NCGPROB 1 ", b"NCGPROB 9 ", 1)
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="version"):
        load_instance(str(path))


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
    """f, grad and HVP of the repu family, recomputed on every call."""
    a, b, p, m = inst.a, inst.b, inst.p, inst.m

    def f(x):
        t = _pos_pow(a @ x, p) - b
        return float(np.sum(t * t / (1.0 + t * t)) / m)

    def grad(x):
        s = a @ x
        t = _pos_pow(s, p) - b
        dphi = 2.0 * t / (1.0 + t * t) ** 2
        w = dphi * p * _pos_pow(s, p - 1.0)
        return (w[:, None] * a).sum(axis=0) / m

    def hvp(x, v):
        s = a @ x
        u1 = p * _pos_pow(s, p - 1.0)
        u2 = p * (p - 1.0) * _pos_pow(s, p - 2.0)
        t = _pos_pow(s, p) - b
        denom = 1.0 + t * t
        dphi = 2.0 * t / denom**2
        d2phi = (2.0 - 6.0 * t * t) / denom**3
        w = (d2phi * u1 * u1 + dphi * u2) * (a @ v)
        return (w[:, None] * a).sum(axis=0) / m

    return f, grad, hvp


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for oracle in oracles:
            oracle.eval_hvp(x, v)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # One n x n matrix for the whole process, and O(mn) bytes (A x, lin and
    # a few object headers) per oracle; a matrix per oracle would add 576 kB.
    assert grown <= 8 * n * n + count * (8 * 4 * m * n + 2048)


def test_threaded_solves_match_sequential():
    oracles = [gen_infeasibility(30, 4, 2.25, seed=s) for s in (0, 3)]
    params = PfParams(eps_g=1e-4, eps_H=1e-2)

    def solve(oracle):
        res = pf_newton_cg_solve(oracle, np.zeros(30), params)
        return res.status, res.x_final.tobytes(), repr(res.f_final), vars(res.counters)

    expected = [solve(o) for o in oracles]
    workers, rounds = 4, 3  # more threads than cores, two per oracle
    results = [[] for _ in range(workers)]

    def work(i):
        for _ in range(rounds):
            results[i].append(solve(oracles[i % 2]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(workers):
        assert results[i] == [expected[i % 2]] * rounds
