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

Converting the arrays to contiguous float64, allocating the cp work row
and the solution buffer and looking up six addresses (``arr.ctypes.data``,
about 1-2 us each) costs more than the C loop at n = 200.  The engines
overwrite one system's arrays in place and solve it again, so the module
keeps all of that in a Binding of the last call's arrays: a call given
those same four array objects goes straight to C, and any other call
builds and keeps a new Binding.  A bound array must therefore not be
reshaped in place.

The C function also makes the checks of the contract in the pass that
reads the arrays: it takes the pivot floor from max |diag| and reports a
non-finite entry with its own return code, and only then does this module
run pure's numpy check, to raise the ValueError that names the array.
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

from . import pure

SOURCE = Path(__file__).with_name("thomas.c")
# -ffp-contract=off keeps a*b - c from fusing into one rounding; never add
# -ffast-math or -march=native, which would change the bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Gitignored build cache next to the source; the tests point it at a
# temporary directory.
CACHE_DIR = Path(__file__).with_name("_build")
BUILD_TIMEOUT_S = 120
NON_FINITE = -2  # thomas.c's THOMAS_NON_FINITE

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


class Binding:
    """A system's arrays as the C function takes them: their addresses,
    the cp work row and a solution buffer."""

    __slots__ = ("arrays", "cp", "x", "head", "tail")

    def __init__(self, lower, diag, upper, rhs):
        n = diag.size
        if n < 1 or lower.size != n - 1 or upper.size != n - 1 or \
                rhs.shape not in ((n,), (2, n)):
            raise ValueError("system must have n >= 1 rows, n-1 off-diagonal "
                             "entries and a (n,) or (2, n) right-hand side")
        # references keep every array alive while its address is in use
        self.arrays = (lower, diag, upper, rhs)
        self.cp = np.empty(n)
        self.x = np.empty(rhs.shape)
        # the C arguments before and after pivot_rtol
        self.head = (n, rhs.size // n, lower.ctypes.data, diag.ctypes.data,
                     upper.ctypes.data, rhs.ctypes.data)
        self.tail = (self.cp.ctypes.data, self.x.ctypes.data)


# The Binding of the last call's arrays.  Its buffers serve one call at a
# time: the program is single-threaded, and refine fans out to processes.
_last = None


def thomas(lower, diag, upper, rhs, pivot_rtol):
    """Solve the tridiagonal system in O(n); same contract as pure.thomas.

    Raises ValueError, naming the array, on a non-finite entry.  Returns
    (x, fail_index): x has the shape of rhs, (n,) or (2, n), in an array of
    its own, and fail_index is -1 on success, else the row whose pivot fell
    below ``pure.pivot_floor(diag, pivot_rtol)`` (x is then zeros).
    """
    global _last
    if _kernel is None and not load():
        raise OSError("the compiled Thomas kernel cannot be built or loaded")
    binding = _last
    # rhs alone tells apart systems that share their matrix arrays
    if binding is None or binding.arrays[3] is not rhs or binding.arrays[0] is not lower \
            or binding.arrays[1] is not diag or binding.arrays[2] is not upper:
        binding = _last = Binding(*(np.ascontiguousarray(a, dtype=float)
                                    for a in (lower, diag, upper, rhs)))
    fail = _kernel(*binding.head, pivot_rtol, *binding.tail)
    if fail == NON_FINITE:
        pure.check_finite(*binding.arrays)
        raise RuntimeError("thomas.c reported a non-finite entry that numpy does not find")
    if fail >= 0:
        return np.zeros(binding.x.shape), fail
    return binding.x.copy(), -1
