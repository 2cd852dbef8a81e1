"""Deterministic random sampling shared by problem generators and solvers.

Every random draw in this package flows through a Philox4x64 counter-based
bit generator keyed by ``(seed, stream)``.  Uniforms come from numpy's
documented mapping ``(next_uint64 >> 11) * 2**-53`` and normal variates are
produced by an explicit Box-Muller transform on those uniforms:

    r  = sqrt(-2 ln(1 - u1))
    z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

so a stream can be reproduced in any language from the Philox spec plus the
two lines above.  The transform runs in place on the uniforms and the
output, so a draw of N normals holds two arrays of N floats at its peak.
Streams let one seed drive several independent draws (instance data,
Lanczos starts, subproblem starts) without overlap.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags used across the package.  Problem generators use small tags,
# solver-internal draws use high tags offset by a per-solve call index.
STREAM_INFEASIBILITY = 1
STREAM_REPU = 2
STREAM_QUADRATIC = 3
STREAM_NORM_EST = 1 << 40
STREAM_MEO_START = 2 << 40
STREAM_CRN_SUBPROBLEM = 3 << 40


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(seed: int, size, stream: int = 0) -> np.ndarray:
    """Standard normal draws via Box-Muller over Philox uniforms, transformed in place."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u = generator(seed, stream).random(2 * pairs)
    radius, angle = u[:pairs], u[pairs:]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # 1 - u1 lies in (0, 1]
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    z = np.empty(2 * pairs)
    cos, sin = z[:pairs], z[pairs:]
    np.cos(angle, out=cos)
    np.sin(angle, out=sin)
    cos *= radius
    sin *= radius
    return z[:n].reshape(shape)


def unit_vector(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Uniform random direction on the unit sphere in R^n."""
    z = standard_normals(seed, n, stream)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:  # probability zero; keep the function total
        z = np.zeros(n)
        z[0] = 1.0
        return z
    return z / norm
