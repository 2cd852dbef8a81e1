#!/usr/bin/env python3
"""Solve benchmark for ncgopt.

    python3 solvebench/run.py --workload desk --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the workload's instance set is built
from ``--seed``, then solved one instance at a time, in order and round
after round, for about ``--seconds`` seconds.  Every instance is solved at
least once.  Every solve is checked independently (see ``checks.py``), and
a repeated solve of the same instance must repeat its status, counters and
objective bit for bit.

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of ``BENCHMARK.json`` from a traced run,
which first solves a few instances untraced to measure the tracing
overhead.  ``--workload all`` runs every workload, each in its own process.

The output ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Per-run files (environment, one record per solve, spans
of the first round) go to ``solvebench/out/<workload>-seed<s>-trace<t>/``.
The exit code is 1 when a correctness check fails.
"""
from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # BLAS reads these once, when numpy loads
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import asdict  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import ncgopt  # noqa: E402
from checks import check_solve  # noqa: E402
from reference import ReferenceKernel, instance_arrays  # noqa: E402
from tracing import LAYERS, ORACLE_LAYERS, Tracer, count_under, self_times  # noqa: E402
from workloads import EPS_G, WORKLOADS, build_items, solve, warm_up_items  # noqa: E402

SETUP_REPEATS = 5
REF_SHARE = 0.05  # reference-kernel time per solve, as a share of the previous solve
SETUP_REF_SHARE = 0.25  # reference-kernel time after each set-up step, as a share of that step
PAIRED_SHARE = 0.15  # of --seconds: untraced solves paired with traced ones
REFERENCE_CALL_S = 3.0e-4  # one CG-only kernel call on the 2-vCPU Xeon the bench was tuned on


def load_metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


# ---------------------------------------------------------------------------
# Set-up.


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    began = perf_counter()
    subprocess.run([sys.executable, "-c", "import ncgopt"], env=env, cwd=ROOT, check=True)
    return perf_counter() - began


def set_up(workload, seed):
    """Build the instance set; returns the items, generation times and set-up times.

    The set-up wall time is the median of several fresh-interpreter imports
    plus, for each cell, its instance count times its median generation
    time.  After each import and each generation, the reference kernel (its
    CG part only) runs for ``SETUP_REF_SHARE`` of that step, and ``setup_s``
    is the wall time scaled to a machine on which one call takes
    ``REFERENCE_CALL_S``, so that drift in machine speed cancels.
    """
    kernel = ReferenceKernel()

    def burst(step_s):
        kernel.run_for([], SETUP_REF_SHARE * step_s)

    imports: list[float] = []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        burst(imports[-1])
    items, gen_s = build_items(workload, seed, after_each=burst)
    build_s = sum(len(times) * statistics.median(times) for times in gen_s.values())
    wall_s = statistics.median(imports) + build_s
    return items, gen_s, wall_s, wall_s * REFERENCE_CALL_S / kernel.call_s


# ---------------------------------------------------------------------------
# Solving.


def solve_once(item, oracle=None):
    began = perf_counter()
    try:
        result, error = solve(item, oracle), None
    except Exception as err:  # a raising solve is a failed solve, kept with its text
        result, error = None, f"{type(err).__name__}: {err}"
    return result, error, perf_counter() - began


def signature(result, error):
    if result is None:
        return ("error", error)
    return (result.status, tuple(asdict(result.counters).values()), len(result.trace), repr(result.f_final))


class LayerTally:
    """Per-layer sums over traced solves: times over all, counts over round 0."""

    def __init__(self):
        self.wall = 0.0
        self.solves = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.first_solves = 0
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.points = 0
        self.kept_spans: list = []

    def add(self, spans, stats, points, result, wall, first_round, problems, label):
        own, calls = self_times(spans)
        self.wall += wall
        self.solves += 1
        for layer, seconds in own.items():
            self.self_s[layer] += seconds
        if min(own.values(), default=0.0) < -1e-9 or sum(own.values()) > wall:
            problems.append(f"{label}: spans do not nest inside the solve")
        if result is not None:
            for layer, field in zip(ORACLE_LAYERS, ("f_evals", "grad_evals", "hvp_evals")):
                counted = getattr(result.counters, field)
                if calls[layer] != counted:
                    problems.append(f"{label}: {layer} traced {calls[layer]} calls, counters say {counted}")
        if not first_round:
            return
        self.first_solves += 1
        self.calls.update(calls)
        self.stats.update(stats)
        self.points += points
        for layer in ("newton_cg.line_search", "pf_newton_cg.line_search"):
            self.stats[f"{layer}.f_evals"] += count_under(spans, "oracle.f", layer)
        self.stats["meo.norm_est.hvp"] += count_under(spans, "oracle.hvp", "meo.norm_est")
        for trials in getattr(result, "trials", None) or ():
            self.stats["pf_newton_cg.damping.trials"] += len(trials)
            self.stats["pf_newton_cg.damping.accepted"] += sum(t.accepted for t in trials)
        self.kept_spans.extend(spans)


class TracedSolver:
    """Solves under the tracer, installed around each solve only.

    The first solves of round 0, up to ``budget`` seconds, are paired with an
    untraced solve of the same instance, in alternating order, so that the
    tracing overhead is measured under the same machine load.
    """

    def __init__(self, budget, problems, signatures):
        self.tracer = Tracer()
        self.tally = LayerTally()
        self.budget = budget
        self.problems = problems
        self.signatures = signatures
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.oracles: dict = {}
        self.coverage = None

    def __call__(self, index, item, first_round, label):
        pair = first_round and sum(self.untraced) < self.budget
        untraced_first = pair and len(self.untraced) % 2 == 0
        if untraced_first:
            self._untraced(index, item, label)
        if index not in self.oracles:
            self.oracles[index] = self.tracer.traced_oracle(item.oracle)
        self.tracer.solve_id += 1
        with self.tracer.installed() as self.coverage:
            result, error, wall = solve_once(item, self.oracles[index])
        self.tally.add(*self.tracer.take(), result, wall, first_round, self.problems, label)
        if pair:
            self.traced.append(wall)
            if not untraced_first:
                self._untraced(index, item, label)
        return result, error, wall

    def _untraced(self, index, item, label):
        result, error, wall = solve_once(item)
        self.untraced.append(wall)
        check_repeat(self.signatures, index, result, error, self.problems, label)

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (sum(self.traced) / sum(self.untraced) - 1.0)


def check_repeat(signatures, index, result, error, problems, label):
    sig = signature(result, error)
    if signatures.setdefault(index, sig) != sig:
        problems.append(f"{label}: solve did not repeat: {signatures[index]} then {sig}")


def run_loop(items, seconds, problems, signatures, solve_item=None, kernel=None):
    """Solve the items round-robin: one full round, then until time is up.

    A new solve starts only while the run would end within half a mean solve
    of ``seconds``.  ``solve_item`` replaces the plain untraced solve.  With
    a ``kernel``, a burst of reference work lasting ``REF_SHARE`` of the
    previous solve runs before each solve.
    """
    records = []
    arrays: dict[int, list] = {}
    began = perf_counter()
    done = 0
    wall = 0.0
    while True:
        elapsed = perf_counter() - began
        if done >= len(items) and elapsed + 0.5 * elapsed / done >= seconds:
            break
        index = done % len(items)
        item = items[index]
        label = f"{item.cell} {item.solver} seed {item.seed}"
        if kernel is not None:
            if index not in arrays:
                arrays[index] = instance_arrays(item.oracle)
            kernel.run_for(arrays[index], REF_SHARE * wall)
        if solve_item is None:
            result, error, wall = solve_once(item)
        else:
            result, error, wall = solve_item(index, item, done < len(items), label)
        check_repeat(signatures, index, result, error, problems, label)
        records.append(make_record(item, done // len(items), result, error, wall, problems, label))
        done += 1
    return records


def make_record(item, round_, result, error, wall, problems, label):
    check = check_solve(item.oracle, result, error, EPS_G, item.eps_H)
    status = None if result is None else result.status
    if check.false_success(status):
        problems.append(f"{label}: status {status} but {check.reason}")
    return {
        "cell": item.cell,
        "solver": item.solver,
        "seed": item.seed,
        "round": round_,
        "status": status,
        "status_detail": None if result is None else result.status_detail,
        "error": error,
        "counters": None if result is None else asdict(result.counters),
        "outer": None if result is None else len(result.trace),
        "f_final": None if result is None else result.f_final,
        "grad_norm_check": check.grad_norm,
        "lambda_min_check": check.lambda_min,
        "solved": check.ok,
        "reason": check.reason,
        "wall_s": wall,
    }


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end_metrics(records, setup_s, ref_call_s):
    walls = [r["wall_s"] for r in records]
    first = [r for r in records if r["round"] == 0 and r["counters"] is not None]

    def per_solve(key):
        return statistics.fmean(r["counters"][key] for r in first) if first else 0.0

    return {
        "setup_s": setup_s,
        "solve_ref_mean": statistics.fmean(walls) / ref_call_s,
        "solve_ref_p50": statistics.median(walls) / ref_call_s,
        "hvp_per_solve": per_solve("hvp_evals"),
        "f_per_solve": per_solve("f_evals"),
        "grad_per_solve": per_solve("grad_evals"),
        "subproblems_per_solve": per_solve("subproblems"),
        "outer_per_solve": statistics.fmean(r["outer"] for r in first) if first else 0.0,
        "solved_frac": sum(r["solved"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_time_summary(records, ref_call_s):
    """Raw wall times, kept in summary.json next to the reference-scaled ones."""
    walls = [r["wall_s"] for r in records]
    summary = {
        "solves_per_s": len(walls) / sum(walls),
        "solve_s_mean": statistics.fmean(walls),
        "solve_s_p50": statistics.median(walls),
        "ref_call_s": ref_call_s,
    }
    if len(walls) >= 100:
        summary["solve_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    return summary


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tally, gen_s, overhead_pct, absent):
    n = tally.first_solves
    calls, stats = tally.calls, tally.stats
    m = {}
    for layer in (*ORACLE_LAYERS, *LAYERS):
        m[f"{layer}.calls"] = ratio(calls[layer], n)
        m[f"{layer}.self_pct"] = 100.0 * ratio(tally.self_s[layer], tally.wall)
    m["oracle.hvp.per_point"] = ratio(calls["oracle.hvp"], tally.points)
    m["capped_cg.iters"] = ratio(stats["capped_cg.iters"], calls["capped_cg"])
    m["capped_cg.hvp_aux"] = ratio(stats["capped_cg.hvp_aux"], n)
    m["capped_cg.nc_frac"] = ratio(stats["capped_cg.nc"], calls["capped_cg"])
    m["meo.lanczos_iters"] = ratio(stats["meo.lanczos_iters"], calls["meo"])
    m["meo.certify_frac"] = ratio(stats["meo.certified"], calls["meo"])
    m["meo.norm_est.hvp"] = ratio(stats["meo.norm_est.hvp"], n)
    for layer in ("newton_cg.line_search", "pf_newton_cg.line_search"):
        m[f"{layer}.f_evals"] = ratio(stats[f"{layer}.f_evals"], n)
    m["pf_newton_cg.damping.trials"] = ratio(stats["pf_newton_cg.damping.trials"], n)
    m["pf_newton_cg.damping.accept_frac"] = ratio(
        stats["pf_newton_cg.damping.accepted"], stats["pf_newton_cg.damping.trials"]
    )
    m["baseline_crn.cubic_sub.iters"] = ratio(stats["baseline_crn.cubic_sub.iters"], calls["baseline_crn.cubic_sub"])
    m["baseline_crn.cubic_sub.converged_frac"] = ratio(
        stats["baseline_crn.cubic_sub.converged"], calls["baseline_crn.cubic_sub"]
    )
    m["problems.gen_s"] = statistics.median(t for times in gen_s.values() for t in times)
    m["trace.solve_s_mean"] = ratio(tally.wall, tally.solves)
    m["trace.remainder_pct"] = 100.0 - sum(v for k, v in m.items() if k.endswith(".self_pct"))
    m["trace.overhead_pct"] = overhead_pct
    m["trace.absent_layers"] = float(len(absent))
    return m


# ---------------------------------------------------------------------------
# Environment and output.


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "load": "closed loop, one client, one process",
    }


def write_outputs(args, summary, records, spans):
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    with open(os.path.join(out, "records.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    if spans:
        with gzip.open(os.path.join(out, "spans.jsonl.gz"), "wt", encoding="utf-8") as fh:
            for name, start, end, parent, solve_id in spans:
                fh.write(json.dumps([name, start, end, parent, solve_id]) + "\n")
    return out


def report(metrics, units, correct, records):
    """Print every metric with its unit, then the one-line JSON result."""
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    failed = sum(not r["solved"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


# ---------------------------------------------------------------------------
# Entry point.


def run_all(args) -> int:
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(ncgopt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ncgopt was imported from {ncgopt.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)

    e2e_units, layer_units = load_metric_units()
    workload = WORKLOADS[args.workload]
    items, gen_s, setup_wall_s, setup_s = set_up(workload, args.seed)
    for item in warm_up_items(workload):
        solve(item)

    problems: list[str] = []
    signatures: dict = {}
    summary = {"environment": environment(args)}
    spans = []
    if args.trace:
        traced = TracedSolver(PAIRED_SHARE * args.seconds, problems, signatures)
        records = run_loop(items, args.seconds, problems, signatures, traced)
        coverage = traced.coverage
        metrics = layer_metrics(traced.tally, gen_s, traced.overhead_pct, coverage.absent_layers)
        units = layer_units
        spans = traced.tally.kept_spans
        summary["environment"]["tracing_overhead_pct"] = traced.overhead_pct
        summary["coverage"] = asdict(coverage)
        summary["missing_stats"] = sorted(traced.tracer.missing_stats)
        if coverage.absent_layers or coverage.missing_bindings:
            print(f"absent layers: {coverage.absent_layers}; missing bindings: {coverage.missing_bindings}",
                  file=sys.stderr)
    else:
        kernel = ReferenceKernel()
        records = run_loop(items, args.seconds, problems, signatures, kernel=kernel)
        metrics = end_to_end_metrics(records, setup_s, kernel.call_s)
        units = e2e_units
        summary["wall_time"] = wall_time_summary(records, kernel.call_s) | {"setup_s": setup_wall_s}

    correct = not problems
    summary.update(metrics=metrics, solves=len(records), problems=problems, correct=correct)
    out = write_outputs(args, summary, records, spans)
    print(f"solvebench {args.workload} seed={args.seed} trace={args.trace} "
          f"solves={len(records)} -> {os.path.relpath(out, ROOT)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    report(metrics, units, correct, records)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
