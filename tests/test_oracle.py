import numpy as np
import pytest

from ncgopt import HolderClass, ProblemOracle, gen_infeasibility, gen_repu
from ncgopt.sampling import standard_normals
from support import DerivativeCheckError, check_gradient_fd, check_hvp_fd, make_norm_squared


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
