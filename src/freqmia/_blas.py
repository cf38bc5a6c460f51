"""numpy's bundled OpenBLAS, reached through ``ctypes``: its thread count
and the name of the kernel set ("core") it picked for this CPU.

numpy's wheels ship scipy-openblas as ``numpy.libs/libscipy_openblas64_*.so``
with the symbols ``scipy_openblas_{get,set}_num_threads64_`` and
``scipy_openblas_get_corename64_``. Where they are missing (numpy built
against another BLAS), :func:`one_thread` does nothing and :func:`core_name`
reads ``"unknown"``. Output bytes are stable for one numpy and one core, so
the core name is what a recorded sha256 has to be compared under.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

UNKNOWN = "unknown"
_LIBRARY_GLOB = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                             "libscipy_openblas64_*.so")


@lru_cache(maxsize=1)
def _library():
    """The loaded OpenBLAS with its three symbols typed, or None."""
    for path in sorted(glob.glob(_LIBRARY_GLOB)):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return lib
    return None


def core_name() -> str:
    """The kernel set OpenBLAS runs on this CPU (say ``"SkylakeX"``)."""
    lib = _library()
    return lib.scipy_openblas_get_corename64_().decode() if lib is not None else UNKNOWN


def thread_count():
    """The number of threads OpenBLAS uses now, or None."""
    lib = _library()
    return lib.scipy_openblas_get_num_threads64_() if lib is not None else None


@contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, whatever
    ``OPENBLAS_NUM_THREADS`` says, and restore the caller's count on exit.

    The count is process-wide: blocks on concurrent threads would restore
    each other's settings.
    """
    lib = _library()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
