import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import ncgopt
from ncgopt import gen_infeasibility, gen_repu, problems, sampling
from support import peak_bytes


def test_determinism_and_stream_separation():
    a = sampling.standard_normals(7, (4, 5), stream=3)
    b = sampling.standard_normals(7, (4, 5), stream=3)
    assert np.array_equal(a, b)
    c = sampling.standard_normals(7, (4, 5), stream=4)
    assert not np.array_equal(a, c)
    d = sampling.standard_normals(8, (4, 5), stream=3)
    assert not np.array_equal(a, d)


def recipe(seed, stream, n):
    # Independent re-derivation of the transform straight from the Philox
    # uniforms, as documented in the module docstring: one draw of all the
    # uniforms, then the one-shot transform.
    pairs = (n + 1) // 2
    u = sampling.generator(seed, stream).random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    angle = 2.0 * np.pi * u[pairs:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def check_recipe(seed, stream, size):
    shape = (size,) if np.isscalar(size) else size
    expected = recipe(seed, stream, int(np.prod(shape))).reshape(shape)
    got = sampling.standard_normals(seed, size, stream)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_box_muller_matches_documented_recipe():
    check_recipe(42, 9, 11)


STEP = sampling._STEP


@pytest.mark.parametrize(
    "seed, stream, size",
    [
        (0, 0, 1),
        (5, 2, 12),
        (3, 1, (4, 5, 3)),
        (11, 7, 100_001),
        # Pair counts around the sampler's step: one cursor serves a draw of
        # at most one step, two cursors any longer one.
        (4, 3, 2 * STEP - 2),
        (4, 3, 2 * STEP - 1),
        (4, 3, 2 * STEP + 2),
        (6, 0, 2 * (2 * STEP + 3) - 1),
        # The second cursor starts at uniform `pairs`: pairs // 4 Philox
        # blocks, then pairs % 4 dropped draws.
        (8, 5, 2 * (STEP + 4)),
        (8, 5, 2 * (STEP + 5) - 1),
        (8, 5, 2 * (STEP + 6)),
        (8, 5, 2 * (STEP + 7) - 1),
    ],
    ids=[
        "one", "even", "shape", "large", "step-below", "step", "step-above", "two-steps-plus-three",
        "pairs-mod-4-is-0", "pairs-mod-4-is-1", "pairs-mod-4-is-2", "pairs-mod-4-is-3",
    ],
)
def test_box_muller_matches_documented_recipe_at_other_sizes(seed, stream, size):
    check_recipe(seed, stream, size)


@pytest.mark.parametrize("n, m, row_path", [(150, 4, True), (30, 3, False)], ids=["row-path", "below-row-gate"])
def test_instances_match_documented_recipe(n, m, row_path):
    # Generation draws into exact-size arrays and forms each A_i in place;
    # the arrays must equal one full draw put through the formulas.
    assert (n >= problems._ROW_PATH_MIN_N) == row_path
    draws = recipe(3, sampling.STREAM_INFEASIBILITY, m * n * n + m * n + m)
    G = draws[: m * n * n].reshape(m, n, n)
    inst = gen_infeasibility(n, m, 2.25, 3).meta
    assert inst.A.tobytes() == ((G @ G.transpose(0, 2, 1)) / n).tobytes()
    assert inst.b.tobytes() == (5.0 * draws[m * n * n : m * n * n + m * n]).tobytes()
    assert inst.c.tobytes() == draws[m * n * n + m * n :].tobytes()
    assert (inst.A.shape, inst.b.shape, inst.c.shape) == ((m, n, n), (m, n), (m,))
    draws = recipe(3, sampling.STREAM_REPU, m * n + m)
    inst = gen_repu(n, m, 2.25, 3).meta
    assert inst.a.tobytes() == draws[: m * n].tobytes() and inst.a.shape == (m, n)
    assert inst.b.tobytes() == np.abs(draws[m * n :]).tobytes()


def data_bytes(oracle):
    return sum(array.nbytes for array in vars(oracle.meta).values() if isinstance(array, np.ndarray))


@pytest.mark.parametrize(
    "generate", [partial(gen_infeasibility, 100, 10, 2.25), partial(gen_repu, 1000, 200, 2.25)], ids=["infeas", "repu"]
)
def test_generation_peaks_at_twice_its_data(generate):
    # The draws and the instance data are all a generator holds at once:
    # the transform runs in place, and no other temporary of the draw count
    # is alive with them.  Four such arrays would read 4x.
    generate(0)  # the first draw in a process allocates one-off state
    oracle = generate(1)
    assert peak_bytes(lambda: generate(1)) <= 2.25 * data_bytes(oracle)


@pytest.mark.parametrize(
    "generate, product_bytes",
    [
        (partial(gen_infeasibility, 100, 10, 2.25), 8 * 100 * 100),
        (partial(gen_infeasibility, 400, 40, 2.25), 8 * 400 * 400),
        (partial(gen_repu, 1000, 200, 2.25), 0),
    ],
    ids=["infeas-100", "infeas-400", "repu"],
)
def test_generation_peaks_at_its_data_plus_one_step(generate, product_bytes):
    # Generation draws into the instance's own arrays, one sampler step at a
    # time, and forms each A_i = G_i G_i' / n in place through one n x n
    # product; nothing the size of the draw sits beside the data.
    generate(0)
    oracle = generate(1)
    pairs = (data_bytes(oracle) // 8 + 1) // 2
    step_arrays = 2 * 8 * min(pairs, sampling._STEP)
    assert peak_bytes(lambda: generate(1)) <= data_bytes(oracle) + step_arrays + product_bytes + 64 * 1024


RSS_GROWTH = """
import resource, sys
import ncgopt
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
A = ncgopt.gen_infeasibility(400, 40, 2.25, 0).meta.A
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * (1 if sys.platform == "darwin" else 1024) / A.nbytes)
"""


def rss_growth():
    """The growth of a fresh process's peak resident set across
    ``gen_infeasibility(400, 40, 2.25, 0)``, in units of its A's bytes."""
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(ncgopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", RSS_GROWTH], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def test_generation_high_water_mark_in_a_fresh_process():
    # The process's peak resident set, which tracemalloc does not see: malloc
    # may keep freed memory resident, so count the high-water mark's growth.
    assert rss_growth() <= 2.3


def test_generation_high_water_mark_stays_near_its_data():
    # A is 51 MB; the sampler's step arrays and the n x n product add about
    # 1.6 MB, and the rest is the interpreter's and malloc's own growth.
    assert rss_growth() <= 1.3


def test_moments_are_sane():
    z = sampling.standard_normals(0, 200_000)
    assert abs(float(z.mean())) < 0.02
    assert abs(float(z.std()) - 1.0) < 0.02


def test_unit_vector():
    v = sampling.unit_vector(5, 40)
    assert v.shape == (40,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert sampling.unit_vector(5, np.int64(40)).tobytes() == v.tobytes()


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_unit_vector_rejects_n_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match=f"^n must be a positive integer; got {n!r}$"):
        sampling.unit_vector(5, n)
