"""The BLAS build and kernels NumPy runs on, as OpenBLAS reports them.

    python3 tests/blas_kernels.py

Reads ``scipy_openblas_get_config64_`` from the OpenBLAS NumPy bundles
(``numpy.libs/libscipy_openblas64_*.so``) through ctypes; "unknown" when
there is no such library or symbol.  A GEMM's bits depend on the kernels
picked at run time, so the bit-identity guards that rest on them
(``tests/test_core_screener.py``) name them when they fail.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_config() -> str:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    pattern = os.path.join(libs, "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            config = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.argtypes = []
        config.restype = ctypes.c_char_p
        return config().decode()
    return "unknown"


if __name__ == "__main__":
    print("BLAS:", openblas_config())
