"""Thread counts of the OpenBLAS libraries bundled with numpy and scipy.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool: numpy's ``numpy.libs/libscipy_openblas64_*`` and scipy's
``scipy.libs/libscipy_openblas-*``.  Code that alternates between the two,
such as numpy's ``eigh`` and matmuls followed by scipy's L-BFGS-B vector
updates, makes the two pools fight for the same cores.

Counts are only ever lowered, never raised, so an explicit
``OPENBLAS_NUM_THREADS=1`` already makes every call here a no-op.  A library
that cannot be found (another BLAS, or a missing symbol) is left alone.  The
libraries are looked up on first use, so importing the package loads none.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
from pathlib import Path

# package -> (library directory, file pattern, symbol suffix)
_LIBRARIES = {
    "numpy": ("numpy.libs", "libscipy_openblas64_*", "64_"),
    "scipy": ("scipy.libs", "libscipy_openblas-*", ""),
}


@functools.cache
def _controls(package: str):
    """(get, set) thread-count functions of one package's bundled OpenBLAS,
    or None when it has none."""
    libdir, pattern, suffix = _LIBRARIES[package]
    root = Path(importlib.import_module(package).__file__).parent.parent
    for path in sorted((root / libdir).glob(pattern)):
        try:
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def limit_threads(numpy: int | None = None, scipy: int | None = None) -> list:
    """Lower numpy's and scipy's OpenBLAS thread counts to at most the given
    values (None leaves a library alone).  Returns (set, previous count) for
    every count that was changed."""
    changed = []
    for package, n in (("numpy", numpy), ("scipy", scipy)):
        ctl = None if n is None else _controls(package)
        if ctl is None:
            continue
        get, set_ = ctl
        old = get()
        if n < old:
            set_(n)
            changed.append((set_, old))
    return changed


@contextlib.contextmanager
def blas_threads(numpy: int | None = None, scipy: int | None = None):
    """Run the block with numpy's and scipy's OpenBLAS thread counts lowered
    as by :func:`limit_threads`, restoring them on exit, also when an
    exception is raised.

    The counts are process-global.  The package runs no Python threads, so
    nothing else can observe them while the block runs.
    """
    changed = limit_threads(numpy, scipy)
    try:
        yield
    finally:
        for set_, old in reversed(changed):
            set_(old)
