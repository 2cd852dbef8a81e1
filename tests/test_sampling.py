import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import ncgopt
from ncgopt import gen_infeasibility, gen_repu, sampling
from support import peak_bytes


def test_determinism_and_stream_separation():
    a = sampling.standard_normals(7, (4, 5), stream=3)
    b = sampling.standard_normals(7, (4, 5), stream=3)
    assert np.array_equal(a, b)
    c = sampling.standard_normals(7, (4, 5), stream=4)
    assert not np.array_equal(a, c)
    d = sampling.standard_normals(8, (4, 5), stream=3)
    assert not np.array_equal(a, d)


def check_recipe(seed, stream, size):
    # Independent re-derivation of the transform straight from the Philox
    # uniforms, as documented in the module docstring.
    shape = (size,) if np.isscalar(size) else size
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    u = sampling.generator(seed, stream).random(2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    angle = 2.0 * np.pi * u[pairs:]
    expected = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)
    got = sampling.standard_normals(seed, size, stream)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_box_muller_matches_documented_recipe():
    check_recipe(42, 9, 11)


@pytest.mark.parametrize(
    "seed, stream, size",
    [(0, 0, 1), (5, 2, 12), (3, 1, (4, 5, 3)), (11, 7, 100_001)],
    ids=["one", "even", "shape", "large"],
)
def test_box_muller_matches_documented_recipe_at_other_sizes(seed, stream, size):
    check_recipe(seed, stream, size)


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


RSS_GROWTH = """
import resource, sys
import ncgopt
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
A = ncgopt.gen_infeasibility(400, 40, 2.25, 0).meta.A
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * (1 if sys.platform == "darwin" else 1024) / A.nbytes)
"""


def test_generation_high_water_mark_in_a_fresh_process():
    # The process's peak resident set, which tracemalloc does not see: malloc
    # may keep freed memory resident, so count the high-water mark's growth.
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(ncgopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", RSS_GROWTH], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 2.3


def test_moments_are_sane():
    z = sampling.standard_normals(0, 200_000)
    assert abs(float(z.mean())) < 0.02
    assert abs(float(z.std()) - 1.0) < 0.02


def test_unit_vector():
    v = sampling.unit_vector(5, 40)
    assert v.shape == (40,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
