"""BLAS thread policy of the command-line entry point.

The CLI pins numpy's bundled OpenBLAS to one thread: its BLAS kernels then
take the same path whatever OPENBLAS_NUM_THREADS says, so artifact bytes do
not depend on it, and the only parallelism left is the sampling block
workers (sampling.fidelity_samples, nonuniq.verify_pair). Importing gatefid
does not pin anything; library users keep their own BLAS setting.
"""

from __future__ import annotations

import ctypes
import glob
import os
from functools import cache

import numpy as np

_LIB_GLOB = os.path.join(
    os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_*.so"
)
_SET_THREADS = "scipy_openblas_set_num_threads64_"


@cache
def pin_single_thread() -> bool:
    """Set numpy's OpenBLAS to one thread, once per process.

    Returns whether it did; without the bundled library or its setter this
    is a no-op that returns False.
    """
    for path in sorted(glob.glob(_LIB_GLOB)):
        try:
            setter = getattr(ctypes.CDLL(path), _SET_THREADS)
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return True
    return False
