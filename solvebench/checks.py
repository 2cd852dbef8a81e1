"""Independent success check for one solve.

A solve counts as solved only when its status is FOSP or SOSP_certified,
the gradient norm at ``x_final`` recomputed from the problem's own callbacks
is finite and at most eps_g, and, for a certificate, the smallest
eigenvalue of the dense Hessian (built from n HVPs) is at least -eps_H.
The checks run on the original oracle, outside the solve's timing and
counters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FOSP = "FOSP"
SOSP_CERTIFIED = "SOSP_certified"
SUCCESS = (FOSP, SOSP_CERTIFIED)


@dataclass(frozen=True)
class Check:
    ok: bool
    grad_norm: float
    lambda_min: float | None
    reason: str | None

    def false_success(self, status: str | None) -> bool:
        """The solver claimed success and the check refutes it."""
        return status in SUCCESS and not self.ok


def dense_min_eigenvalue(oracle, x) -> float:
    n = oracle.dim
    columns = [np.asarray(oracle.eval_hvp(x, e), dtype=float) for e in np.eye(n)]
    hessian = np.array(columns)
    return float(np.linalg.eigvalsh(0.5 * (hessian + hessian.T))[0])


def check_solve(oracle, result, error: str | None, eps_g: float, eps_H: float | None) -> Check:
    if error is not None:
        return Check(False, math.nan, None, f"exception: {error}")
    with np.errstate(all="ignore"):
        grad_norm = float(np.linalg.norm(oracle.eval_grad(result.x_final)))
        if result.status not in SUCCESS:
            return Check(False, grad_norm, None, f"status {result.status}")
        if not grad_norm <= eps_g:  # NaN fails too
            return Check(False, grad_norm, None, f"gradient norm {grad_norm!r} above eps_g")
        if result.status != SOSP_CERTIFIED:
            return Check(True, grad_norm, None, None)
        if eps_H is None:
            return Check(False, grad_norm, None, "certificate without eps_H")
        lam = dense_min_eigenvalue(oracle, result.x_final)
    if not lam >= -eps_H:
        return Check(False, grad_norm, lam, f"dense lambda_min {lam!r} below -eps_H")
    return Check(True, grad_norm, lam, None)
