"""Tests of the benchmark's own checks and tracing.

Run with ``python3 -m pytest solvebench`` from the repository root.
"""
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import ncgopt  # noqa: E402
import ncgopt.newton_cg  # noqa: E402
import run  # noqa: E402
from checks import SUCCESS, check_solve  # noqa: E402
from ncgopt.bench import start_point  # noqa: E402
from tracing import LAYERS, Tracer, count_under, self_times  # noqa: E402
from workloads import Item, solve  # noqa: E402


def repu_item(solver="alg2"):
    oracle = ncgopt.gen_repu(20, 4, 2.25, 0)
    return Item("repu/20/4/2.25", solver, 0, None, oracle, start_point("repu", 20))


def record_of(item):
    problems = []
    result, error, wall = run.solve_once(item)
    return run.make_record(item, 0, result, error, wall, problems, "test"), problems


@pytest.mark.parametrize("solver", ["alg1", "alg2"])
def test_nan_gradient_counts_as_failed(solver):
    n = 5
    oracle = ncgopt.ProblemOracle(
        n, lambda x: float(x @ x), lambda x: np.full(n, np.nan), lambda x, v: 2.0 * v, name="nan-grad"
    )
    item = Item("nan-grad", solver, 0, None, oracle, np.ones(n))
    record, problems = record_of(item)
    assert not record["solved"]
    assert np.isnan(record["grad_norm_check"])
    if record["status"] in SUCCESS:  # a claimed success is also a failed correctness check
        assert problems


def test_raising_solve_is_failed_and_keeps_its_text():
    def eval_f(x):
        raise FloatingPointError("boom")

    oracle = ncgopt.ProblemOracle(3, eval_f, lambda x: x, lambda x, v: v)
    record, problems = record_of(Item("raise", "alg2", 0, None, oracle, np.ones(3)))
    assert not record["solved"]
    assert record["error"] == "FloatingPointError: boom"
    assert not problems


def test_certificate_is_checked_against_the_dense_hessian():
    oracle = ncgopt.gen_quadratic(5, np.array([-1.0, 1.0, 2.0, 3.0, 4.0]), 0)
    result = SimpleNamespace(status="SOSP_certified", x_final=np.zeros(5))
    check = check_solve(oracle, result, None, 1e-4, 1e-3)
    assert not check.ok
    assert check.lambda_min == pytest.approx(-1.0)
    assert check.false_success(result.status)


def test_solved_instance_passes_the_check():
    record, problems = record_of(repu_item())
    assert record["solved"] and not problems
    assert record["grad_norm_check"] <= 1e-4


def test_traced_solve_matches_counters_and_measures_overhead():
    problems = []
    traced = run.TracedSolver(budget=10.0, problems=problems, signatures={})
    item = repu_item()
    result, error, wall = traced(0, item, True, "test")
    assert error is None and not problems
    tally = traced.tally
    assert tally.calls["oracle.hvp"] == result.counters.hvp_evals
    assert tally.calls["pf_newton_cg"] == 1
    assert sum(tally.self_s.values()) <= wall
    assert len(traced.untraced) == len(traced.traced) == 1
    assert traced.coverage.absent_layers == []


def test_count_cross_check_flags_calls_the_tracer_missed():
    tracer, tally, problems = Tracer(), run.LayerTally(), []
    item = repu_item()
    with tracer.installed():
        result = solve(item)  # the oracle callbacks are not wrapped
    tally.add(*tracer.take(), result, 1.0, True, problems, "test")
    assert any("oracle.hvp traced 0 calls" in p for p in problems)


def test_missing_binding_is_an_absent_layer_and_patches_are_restored():
    original = ncgopt.newton_cg.capped_cg
    layers = {"gone": (("ncgopt.meo", "no_such_function"),), "capped_cg": LAYERS["capped_cg"]}
    tracer = Tracer(layers)
    item = repu_item("alg1")
    with tracer.installed() as coverage:
        assert ncgopt.newton_cg.capped_cg is not original
        result = solve(item, tracer.traced_oracle(item.oracle))
    assert ncgopt.newton_cg.capped_cg is original
    assert coverage.absent_layers == ["gone"]
    assert coverage.missing_bindings == ["ncgopt.meo.no_such_function"]
    assert result.status == "FOSP"
    spans, stats, _ = tracer.take()
    assert stats["capped_cg.iters"] > 0
    assert {span[0] for span in spans} == {"capped_cg", "oracle.f", "oracle.grad", "oracle.hvp"}


def test_self_time_subtracts_child_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    own, calls = self_times(spans)
    assert dict(own) == {"root": 6.0, "a": 3.0, "b": 1.0}
    assert calls["a"] == 2
    assert count_under(spans, "b", "root") == 1
    assert count_under(spans, "a", "b") == 0
