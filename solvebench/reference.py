"""Reference kernel: fixed work timed between solves to factor out machine speed.

On a shared machine the speed of one core drifts by +-20% over a few
seconds, so raw solve times from two runs of the same code differ by more
than the changes they should detect.  The benchmark therefore also times
this kernel, interleaved with the solves, and reports solve times in
multiples of one kernel call (unit ``ref``).  Drift slows both alike and
cancels in the ratio.

One call runs 30 conjugate-gradient iterations on a fixed 100 x 100 SPD
system, which is the Python-level vector algebra the solvers do, and
multiplies each of the instance's data arrays by a fixed vector, which is
the memory traffic of one HVP.  It uses numpy only, so a change to ncgopt
leaves its time alone.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

CG_SIZE = 100
CG_ITERATIONS = 30


def instance_arrays(oracle) -> list[np.ndarray]:
    """The instance's data arrays of two or more dimensions."""
    meta = getattr(oracle, "meta", None)
    values = vars(meta).values() if meta is not None and hasattr(meta, "__dict__") else ()
    return [v for v in values if isinstance(v, np.ndarray) and v.ndim >= 2]


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((CG_SIZE, CG_SIZE))
        self.matrix = g @ g.T / CG_SIZE + np.eye(CG_SIZE)
        self.rhs = rng.standard_normal(CG_SIZE)
        self.calls = 0
        self.seconds = 0.0
        self._last_call_s = None

    def _cg(self) -> float:
        x = np.zeros(CG_SIZE)
        r = self.rhs.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(CG_ITERATIONS):
            q = self.matrix @ p
            a = rr / float(p @ q)
            x = x + a * p
            r = r - a * q
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        return float(x @ x)

    def run_for(self, arrays: list[np.ndarray], seconds: float) -> None:
        """Run whole calls for about ``seconds`` (at least one)."""
        count = 1 if self._last_call_s is None else max(1, round(seconds / self._last_call_s))
        probes = [np.ones(a.shape[-1]) for a in arrays]
        began = perf_counter()
        for _ in range(count):
            self._cg()
            for a, v in zip(arrays, probes):
                a @ v
        spent = perf_counter() - began
        self._last_call_s = spent / count
        self.calls += count
        self.seconds += spent

    @property
    def call_s(self) -> float:
        """Mean time of one call over the run."""
        return self.seconds / self.calls
