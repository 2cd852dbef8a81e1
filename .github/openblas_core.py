"""Print the runtime core of numpy's bundled OpenBLAS (e.g. SkylakeX, Haswell).

Prints "unknown" when the library or its core-name symbol is missing.
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
