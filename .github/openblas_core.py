"""Print the runtime core of numpy's bundled OpenBLAS (e.g. SkylakeX, Haswell),
numpy's enabled SIMD dispatch targets, and whether OpenBLAS's ddot depends on
the alignment of its operands.

Prints "unknown" when the library or its core-name symbol is missing.  The
dispatch targets are the ones this CPU runs and NPY_ENABLE_CPU_FEATURES
leaves enabled: ufunc loops such as np.log1p round some values one ulp apart
between X86_V4 (AVX-512) and X86_V3 (AVX2), so generated instances and pinned
results depend on them as well as on the BLAS core.  The third line takes x.dot(x) for a fixed seeded set of vectors, each copied to
all eight 8-byte offsets mod 64, and reports "independent" when every vector
gives one result at all eight, "dependent" otherwise.  Bit-identity tests that
compare a row of a block with a separate copy of it (capped CG's workspace
against its reference loop) need an independent ddot.
Run: python .github/openblas_core.py
"""
import ctypes
import glob
import os

import numpy

core = "unknown"
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
    try:
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        continue
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    core = corename().decode()
print("OpenBLAS runtime core:", core)

simd = numpy._core._multiarray_umath
enabled = [target for target in simd.__cpu_dispatch__ if simd.__cpu_features__.get(target)]
print(f"numpy SIMD dispatch: {', '.join(enabled) or 'none'} (baseline {', '.join(simd.__cpu_baseline__)})")


def at_offset(v, k):
    """A copy of v whose data pointer is 8 k mod 64."""
    buf = numpy.empty(v.size + 16)
    start = (-(buf.ctypes.data // 8)) % 8 + k
    out = buf[start : start + v.size]
    out[:] = v
    return out


rng = numpy.random.default_rng(0)
vectors = [rng.standard_normal(int(n)) for n in rng.integers(20, 500, size=200)]
varying = sum(len({y.dot(y) for y in (at_offset(v, k) for k in range(8))}) > 1 for v in vectors)
verdict = "dependent" if varying else "independent"
print(f"ddot alignment: {verdict} ({varying} of {len(vectors)} vectors vary across the 8 offsets mod 64)")
