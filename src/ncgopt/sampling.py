"""Deterministic random sampling shared by problem generators and solvers.

Every random draw in this package flows through a Philox4x64 counter-based
bit generator keyed by ``(seed, stream)``.  Uniforms come from numpy's
documented mapping ``(next_uint64 >> 11) * 2**-53`` and normal variates are
produced by an explicit Box-Muller transform on those uniforms:

    r  = sqrt(-2 ln(1 - u1))
    z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

so a stream can be reproduced in any language from the Philox spec plus the
two lines above.  A draw of N normals takes P = ceil(N / 2) pairs: pair k
reads u1 from uniform k and u2 from uniform P + k, and its z0 and z1 are
normals k and P + k (the last z1 is dropped when N is odd).  The transform
runs ``_STEP`` pairs at a time, reading the u1 and the u2 of a step from two
Philox cursors placed at uniforms k and P + k, and writes each step's
normals straight into the output.  So a draw holds its output plus one
step of work arrays, whatever its size, and has the bits of the one-shot
transform.  Streams let one seed drive several independent draws (instance
data, Lanczos starts, subproblem starts) without overlap.
"""
from __future__ import annotations

import numpy as np

from .oracle import _integer

_MASK64 = (1 << 64) - 1

# Stream tags used across the package.  Problem generators use small tags,
# solver-internal draws use high tags offset by a per-solve call index.
STREAM_INFEASIBILITY = 1
STREAM_REPU = 2
STREAM_QUADRATIC = 3
STREAM_NORM_EST = 1 << 40
STREAM_MEO_START = 2 << 40
STREAM_CRN_SUBPROBLEM = 3 << 40

# Box-Muller pairs per step, so a draw's work arrays hold 2 x 128 KiB.  The
# step barely moves the draw's time from 8,192 pairs up: 6.4 million normals
# took 156-182 ms at each step from 8,192 to 262,144 pairs (181 ms at 16,384)
# and 186 ms in one shot, 101,010 normals 2.6-2.9 ms against 3.3 ms
# (best of 5; numpy 2.4 AVX-512 loops, shared 2-vCPU Xeon).
_STEP = 16_384


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pieces(outs: tuple[np.ndarray, ...], lo: int, hi: int):
    """The parts of positions [lo, hi) of the concatenation of ``outs``, as
    (offset from lo, view of one array), in order; positions past the end are
    left out."""
    start = 0
    for out in outs:
        end = start + out.size
        a, b = max(lo, start), min(hi, end)
        if a < b:
            yield a - lo, out[a - start : b - start]
        start = end


def _uniform_steps(seed: int, stream: int, pairs: int):
    """Yield (k, u1, u2) for each step of ``pairs`` Box-Muller pairs: the
    uniforms of the step's pairs k, k + 1, ..., as the two rows of one work
    array that every step reuses."""
    radii = generator(seed, stream)
    if pairs <= _STEP:  # one step: u1 and u2 are consecutive on one cursor
        u = radii.random((2, pairs))
        yield 0, u[0], u[1]
        return
    angles = generator(seed, stream)
    angles.bit_generator.advance(pairs // 4)  # four uniforms per Philox block
    angles.bit_generator.random_raw(pairs % 4)
    work = np.empty((2, _STEP))
    for k in range(0, pairs, _STEP):
        size = min(_STEP, pairs - k)
        yield k, radii.random(size, out=work[0, :size]), angles.random(size, out=work[1, :size])


def fill_standard_normals(seed: int, outs: tuple[np.ndarray, ...], stream: int = 0) -> None:
    """Write one draw of standard normals into ``outs``, in order.

    ``outs`` are contiguous 1-D float64 arrays; together they receive the
    draw of as many normals as they hold, with the bits of
    ``standard_normals(seed, total, stream)`` (see the module docstring).
    """
    total = sum(out.size for out in outs)
    pairs = (total + 1) // 2
    for k, radius, angle in _uniform_steps(seed, stream, pairs):
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)  # 1 - u1 lies in (0, 1]
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        for first, wave in ((k, np.cos), (pairs + k, np.sin)):
            for i, out in _pieces(outs, first, first + radius.size):
                wave(angle[i : i + out.size], out=out)
                out *= radius[i : i + out.size]


def standard_normals(seed: int, size, stream: int = 0) -> np.ndarray:
    """Standard normal draws via Box-Muller over Philox uniforms (see the module docstring)."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    z = np.empty(shape)
    fill_standard_normals(seed, (z.reshape(-1),), stream)
    return z


def unit_vector(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Uniform random direction on the unit sphere in R^n.

    Raises ``ValueError`` before any draw unless n is a positive integer.
    """
    n = _integer(n, "n", positive=True)
    z = standard_normals(seed, n, stream)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:  # probability zero; keep the function total
        z = np.zeros(n)
        z[0] = 1.0
        return z
    return z / norm
