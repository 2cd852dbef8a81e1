"""In-memory span tracing around ncgopt's layer functions, from outside.

Each layer is a set of (module, attribute) bindings.  The tracer replaces
every binding with a wrapper that records a span ``[name, start, end,
parent, solve_id]``.  The solver modules import these functions by name, so
the table lists the binding each caller actually looks up, not the module
that defines the function.  A binding that no longer exists leaves its
layer absent; the run goes on and reports it.

The oracle callbacks are not module bindings: they are traced by rebuilding
the ``ProblemOracle`` with timed callables (``Tracer.traced_oracle``).
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter

# layer -> bindings the callers use.  Root layers are the public entry
# points, looked up on the package by the benchmark itself.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "newton_cg": (("ncgopt", "newton_cg_solve"),),
    "pf_newton_cg": (("ncgopt", "pf_newton_cg_solve"),),
    "baseline_crn": (("ncgopt", "acrn_solve"),),
    "capped_cg": (
        ("ncgopt.newton_cg", "capped_cg"),
        ("ncgopt.pf_newton_cg", "capped_cg"),
    ),
    "meo": (("ncgopt.newton_cg", "minimum_eigenvalue_oracle"),),
    "meo.norm_est": (
        ("ncgopt.newton_cg", "estimate_operator_norm"),
        ("ncgopt.baseline_crn", "estimate_operator_norm"),
    ),
    "tridiag": (
        ("ncgopt.meo", "smallest_eigenvalue"),
        ("ncgopt.meo", "smallest_eigenpair"),
    ),
    "newton_cg.line_search": (
        ("ncgopt.newton_cg", "line_search_sol"),
        ("ncgopt.newton_cg", "line_search_nc"),
        ("ncgopt.newton_cg", "line_search_meo"),
    ),
    "pf_newton_cg.line_search": (
        ("ncgopt.pf_newton_cg", "bounded_line_search_sol"),
        ("ncgopt.pf_newton_cg", "bounded_line_search_nc"),
    ),
    "baseline_crn.cubic_sub": (("ncgopt.baseline_crn", "cubic_subproblem_gd"),),
}

ORACLE_LAYERS = ("oracle.f", "oracle.grad", "oracle.hvp")

# Per-call facts read off a layer's return value, summed per solve.
RESULT_STATS = {
    "capped_cg": {
        "iters": lambda out: out.iterations,
        "hvp_aux": lambda out: out.hvp_calls_aux,
        "nc": lambda out: out.d_type == "NC",
    },
    "meo": {
        "lanczos_iters": lambda out: out.iterations,
        "certified": lambda out: out.kind == "certificate",
    },
    "baseline_crn.cubic_sub": {
        "iters": lambda out: out.iterations,
        "converged": lambda out: out.converged,
    },
}


@dataclass
class Coverage:
    """Which bindings the tracer could patch."""

    absent_layers: list[str]
    missing_bindings: list[str]


class Tracer:
    """Records nested spans for the solve in progress.

    ``spans`` holds the current solve's spans; ``take()`` hands them over and
    starts a fresh list.  ``stats`` sums the per-call result facts and
    ``points`` keeps every distinct x an HVP was taken at (held, so that
    ``id`` values stay unique within the solve).
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.solve_id = -1
        self.spans: list[list] = []
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.points: dict[int, object] = {}
        self.missing_stats: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, stats=None):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if stats:
                for key, read in stats.items():
                    try:
                        self.stats[f"{name}.{key}"] += read(result)
                    except AttributeError:
                        self.missing_stats.add(f"{name}.{key}")
            return result

        return traced

    def traced_oracle(self, oracle):
        """The same problem with every callback timed as an oracle layer."""
        hvp = self.wrap("oracle.hvp", oracle.eval_hvp)
        points = self.points

        def eval_hvp(x, v):
            points[id(x)] = x
            return hvp(x, v)

        return replace(
            oracle,
            eval_f=self.wrap("oracle.f", oracle.eval_f),
            eval_grad=self.wrap("oracle.grad", oracle.eval_grad),
            eval_hvp=eval_hvp,
        )

    def take(self):
        """Spans, result stats and distinct HVP points of the finished solve."""
        spans, stats, points = self.spans, dict(self.stats), len(self.points)
        self.spans = []
        self.stats.clear()
        self.points.clear()
        return spans, stats, points

    @contextmanager
    def installed(self):
        """Patch every binding of the layer table; restore them on exit."""
        patched = []
        missing = []
        absent = []
        try:
            for layer, bindings in self.layers.items():
                bound = 0
                for module_name, attr in bindings:
                    try:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr)
                    except (ImportError, AttributeError):
                        missing.append(f"{module_name}.{attr}")
                        continue
                    patched.append((module, attr, original))
                    setattr(module, attr, self.wrap(layer, original, RESULT_STATS.get(layer)))
                    bound += 1
                if bound == 0:
                    absent.append(layer)
            yield Coverage(absent, missing)
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per-layer self time (duration minus child spans) and call counts.

    Spans of one thread nest, so subtracting each span's duration from its
    parent leaves every parent with exactly the time no child covers.
    """
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        duration = end - start
        own[name] += duration
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= duration
    return own, calls


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    found = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                found += 1
                break
            parent = spans[parent][3]
    return found
