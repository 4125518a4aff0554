"""Compiled Thomas kernel: thomas.c through ctypes, built on first use.

Importing this module compiles and loads nothing.  ``load()`` (called by
``_kernels.active`` on the first elimination in a process) looks for a
shared library in ``CACHE_DIR`` whose name carries a hash of the C source
and the compiler flags.  When there is none, or the file there cannot be
loaded (corrupt, or built for another machine), it runs ``cc`` once,
writing to a temporary name in that directory and renaming it into
place, so processes that build at the same time each end with a complete
library.  Without a C compiler, or when the build or the load of the
fresh build fails, ``load()`` returns False and the caller keeps the
pure kernel.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("thomas.c")
# -ffp-contract=off keeps a*b - c from fusing into one rounding; never add
# -ffast-math or -march=native, which would change the bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Gitignored build cache next to the source; the tests point it at a
# temporary directory.
CACHE_DIR = Path(__file__).with_name("_build")
BUILD_TIMEOUT_S = 120

_kernel = None  # the loaded C function, once load() succeeds


def find_compiler() -> str | None:
    """Path of the C compiler, or None."""
    return shutil.which("cc")


def library_path() -> Path:
    """Cache file of the library built from the current source and flags."""
    # crc32, not hashlib: a key needs no cryptographic hash, and hashlib's
    # OpenSSL library would add 3.5 MB to the process's resident memory
    key = zlib.crc32(SOURCE.read_bytes() + " ".join(CFLAGS).encode())
    return CACHE_DIR / f"thomas-{key:08x}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.stem}-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *CFLAGS, "-o", tmp, str(SOURCE)], check=True,
                       capture_output=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> bool:
    """Load the compiled kernel, building it first if the cached file is
    missing or cannot be loaded.

    Returns False, leaving nothing loaded, when there is no C compiler or
    the build or the load of the fresh build fails.
    """
    global _kernel
    if _kernel is not None:
        return True
    try:
        path = library_path()
        try:
            library = ctypes.CDLL(str(path))
        except OSError:  # not built yet, or a file that does not load here
            compiler = find_compiler()
            if compiler is None:
                return False
            _build(compiler, path)
            library = ctypes.CDLL(str(path))
        function = library.thomas
    except (OSError, subprocess.SubprocessError):
        return False
    function.argtypes = [ctypes.c_long, ctypes.c_long] + [ctypes.c_void_p] * 4 + \
        [ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p]
    function.restype = ctypes.c_long
    _kernel = function
    return True


def thomas(lower, diag, upper, rhs, pivot_floor):
    """Solve the tridiagonal system in O(n); same contract as pure.thomas.

    Returns (x, fail_index): x has the shape of rhs, (n,) or (2, n), and
    fail_index is -1 on success, else the row whose pivot fell below
    ``pivot_floor`` (x is then zeros).
    """
    if _kernel is None and not load():
        raise OSError("the compiled Thomas kernel cannot be built or loaded")
    lower = np.ascontiguousarray(lower, dtype=float)
    diag = np.ascontiguousarray(diag, dtype=float)
    upper = np.ascontiguousarray(upper, dtype=float)
    rhs = np.ascontiguousarray(rhs, dtype=float)
    n = diag.size
    if n < 1 or lower.size != n - 1 or upper.size != n - 1 or rhs.shape not in ((n,), (2, n)):
        raise ValueError("system must have n >= 1 rows, n-1 off-diagonal "
                         "entries and a (n,) or (2, n) right-hand side")
    cp = np.empty(n)
    x = np.empty(rhs.shape)
    fail = _kernel(n, rhs.size // n, lower.ctypes.data, diag.ctypes.data,
                   upper.ctypes.data, rhs.ctypes.data, pivot_floor,
                   cp.ctypes.data, x.ctypes.data)
    if fail >= 0:
        return np.zeros(rhs.shape), fail
    return x, -1
