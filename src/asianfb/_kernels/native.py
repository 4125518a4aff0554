"""Compiled kernel: thomas.c through ctypes, built on first use.

The library holds ``thomas``, the Thomas solve of the kernel contract,
and one time layer of each engine, which eliminates with that same
``thomas``: ``newton_layer``, the iterations of one Newton layer over a
scheme.LayerFrame's buffers, and the predictor-corrector layer's two
halves, ``pc_predictor``, the predictor's scalar root, and
``pc_corrector``, the corrector and the layer's diagnostics over the
frame's buffers (see below); and ``fixed9_rows``, the CLI's CSV cells.

Importing this module compiles and loads nothing.  ``load()`` (called by
the first kernel call in a process) looks for a shared library in
``CACHE_DIR`` whose name carries a hash of the C source and the compiler
flags.  When there is none, or the file there cannot be loaded (corrupt,
or built for another machine), it runs ``cc`` once, writing to a
temporary name in that directory and renaming it into place, so
processes that build at the same time each end with a complete library.
Without a C compiler, or when the build or the load of the fresh build
fails, ``load()`` raises KernelUnavailable, an OSError whose one-line
message names the missing compiler, or the build command and the first
line it wrote to stderr, and the cache directory.

``thomas`` converts its arrays to contiguous float64, runs pure's
``check_shape`` and calls C with a fresh cp work row and solution
buffer.  The C function makes the other checks of the contract in the
pass that reads the arrays: it takes the pivot floor from max |diag| and
reports a non-finite entry with its own return code, and only then does
this module run pure's numpy check, to raise the ValueError that names
the array.  No march calls it: both engines eliminate inside their layer
calls.

``newton_layer`` and ``pc_corrector`` cache their arguments for a
layer: a FrameBinding of the last scheme.LayerFrame either ran in holds
the march's constants and the addresses of the frame's buffers, so a
march binds its frame once and each layer passes only the z-free scalars
and J21 that its start() computed.  ``pc_predictor`` takes its scalars
alone.

``fixed9_rows`` writes a chunk of table rows as CSV lines of ``"%.9f"``
cells into a buffer the caller reuses for a whole file, byte for byte as
Python formats them, and hands back (by its index) the first cell it
leaves to Python: a NaN, an infinity, or a magnitude of 4.5e6 or more.
It checks that both arrays are contiguous and large enough before the C
call, which trusts them.
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
# -ffp-contract=off keeps a*b - c from fusing into one rounding, and
# -fno-builtin-pow keeps pow(z, 2.0) the libm call that Python's z**2 makes
# (gcc folds it into z*z, which differs in the last bit for some z); never
# add -ffast-math or -march=native, which would change the bits.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-pow", "-shared", "-fPIC")
LIBS = ("-lm",)
# Gitignored build cache next to the source; the tests point it at a
# temporary directory.
CACHE_DIR = Path(__file__).with_name("_build")
BUILD_TIMEOUT_S = 120
NON_FINITE = -2  # thomas.c's THOMAS_NON_FINITE
# thomas.c's status codes of the layer functions
(LAYER_OK, LAYER_NON_POSITIVE_Z, LAYER_NON_FINITE, LAYER_ZERO_PIVOT, LAYER_SINGULAR_SCHUR,
 LAYER_NO_CONVERGENCE, LAYER_NO_BRACKET) = range(7)
# the layer functions' out[] slots: newton_layer's 7 diagnostics, then two more
(OUT_ITERATIONS, OUT_Z, OUT_INITIAL_RESIDUAL, OUT_ONESIDED_ROWS, OUT_DOMINANCE_VIOLATIONS,
 OUT_RESIDUAL_F1, OUT_RESIDUAL_F2, OUT_UPWINDED, OUT_FAILURE, OUT_SLOTS) = range(10)
FIXED9_CELL = 18  # thomas.c's FIXED9_CELL: the widest cell fixed9_rows writes

_kernel = None  # the loaded library, once load() succeeds
_predictor_out = None  # pc_predictor's out[] slots and their address, made by load()


def find_compiler() -> str | None:
    """Path of the C compiler, or None."""
    return shutil.which("cc")


def library_path() -> Path:
    """Cache file of the library built from the current source and flags."""
    # crc32, not hashlib: a key needs no cryptographic hash, and hashlib's
    # OpenSSL library would add 3.5 MB to the process's resident memory
    key = zlib.crc32(SOURCE.read_bytes() + " ".join(CFLAGS + LIBS).encode())
    return CACHE_DIR / f"thomas-{key:08x}.so"


class KernelUnavailable(OSError):
    """The compiled kernel can be neither loaded from the cache nor built:
    there is no C compiler, or the build or the load of the fresh build
    fails.  The message says which, in one line."""


def _unavailable(reason: str) -> KernelUnavailable:
    return KernelUnavailable(f"{reason} (kernel cache directory {CACHE_DIR})")


def _build(target: Path) -> None:
    """Compile SOURCE into ``target`` with ``cc``, through a temporary file
    in its directory, or raise KernelUnavailable."""
    compiler = find_compiler()
    if compiler is None:
        raise _unavailable(f"no C compiler: asianfb builds its kernel {SOURCE.name} with "
                           "'cc', which is not on PATH")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{target.stem}-", suffix=".so", dir=target.parent)
    except OSError as exc:
        raise _unavailable(f"cannot write the kernel cache: {exc}") from None
    os.close(fd)
    command = [compiler, *CFLAGS, "-o", tmp, str(SOURCE), *LIBS]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode == 0:
            os.replace(tmp, target)
            return
        first = next(iter(done.stderr.splitlines()), "no message")
        reason = f"exit status {done.returncode}: {first}"
    except (OSError, subprocess.SubprocessError) as exc:  # not runnable, or timed out
        reason = str(exc)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    raise _unavailable(f"building the kernel failed: {' '.join(command)}: {reason}")


def load() -> None:
    """Load the compiled kernel, building it first if the cached file is
    missing or cannot be loaded.

    Raises KernelUnavailable, leaving nothing loaded, when there is no C
    compiler or the build or the load of the fresh build fails.
    """
    global _kernel, _predictor_out
    if _kernel is not None:
        return
    path = library_path()
    try:
        library = ctypes.CDLL(str(path))
    except OSError:  # not built yet, or a file that does not load here
        _build(path)
        try:
            library = ctypes.CDLL(str(path))
        except OSError as exc:
            raise _unavailable(f"the freshly built kernel does not load: {exc}") from None
    double, long, pointer = ctypes.c_double, ctypes.c_long, ctypes.c_void_p
    library.thomas.argtypes = [long, long] + [pointer] * 4 + [double, pointer, pointer]
    library.newton_layer.argtypes = [pointer] * 2 + [double] * 9 + [long] + [double] * 2 + \
        [pointer]
    library.pc_predictor.argtypes = [double] * 10 + [long, double, long, double, long, pointer]
    library.pc_corrector.argtypes = [pointer] * 2 + [double] * 11 + [pointer]
    library.fixed9_rows.argtypes = [long, long, pointer, pointer]
    for function in (library.thomas, library.newton_layer, library.pc_predictor,
                     library.pc_corrector, library.fixed9_rows):
        function.restype = long
    out = (double * OUT_SLOTS)()
    _predictor_out = out, ctypes.addressof(out)
    _kernel = library


def thomas(lower, diag, upper, rhs, pivot_rtol):
    """Solve the tridiagonal system in O(n); same contract as pure.thomas.

    Raises ValueError on mismatched shapes, and, naming the array, on a
    non-finite entry.  Returns (x, fail_index): x has the shape of rhs,
    (n,) or (2, n), in an array of its own, and fail_index is -1 on
    success, else the row whose pivot fell below
    ``pure.pivot_floor(diag, pivot_rtol)`` (x is then zeros).
    """
    if _kernel is None:
        load()
    lower, diag, upper, rhs = (np.ascontiguousarray(a, dtype=float)
                               for a in (lower, diag, upper, rhs))
    pure.check_shape(lower, diag, upper, rhs)
    n = diag.size
    cp, x = np.empty(n), np.empty(rhs.shape)
    fail = _kernel.thomas(n, rhs.size // n, lower.ctypes.data, diag.ctypes.data,
                          upper.ctypes.data, rhs.ctypes.data, pivot_rtol, cp.ctypes.data,
                          x.ctypes.data)
    if fail == NON_FINITE:
        pure.check_finite(lower, diag, upper, rhs)
        raise RuntimeError("thomas.c reported a non-finite entry that numpy does not find")
    if fail >= 0:
        return np.zeros(x.shape), fail
    return x, -1


class _Frame(ctypes.Structure):
    """thomas.c's struct layer_frame."""

    _fields_ = [("n", ctypes.c_long), ("upwind", ctypes.c_long)] + \
        [(name, ctypes.c_double) for name in
         ("h", "two_h", "r", "q", "half_sig2", "diff", "sig2")] + \
        [(name, ctypes.c_void_p) for name in
         ("exp_neg_xi", "ds", "half_ds_h", "rhs", "lower", "diag", "upper", "da", "dc",
          "db", "onesided", "f", "single", "cp", "x")]


class FrameBinding:
    """A scheme.LayerFrame as newton_layer and pc_corrector take it: the
    march's constants, the addresses of the frame's buffers, the cp work
    row, the (2, n) solution buffer and the out[] slots."""

    __slots__ = ("frame", "cp", "x", "struct", "address", "out", "out_address")

    def __init__(self, frame):
        rows, g, p = frame._rows, frame.g, frame.p
        n = rows.diag.size
        self.frame = frame  # keeps every buffer alive while its address is in use
        self.cp = np.empty(n)
        self.x = np.empty((2, n))
        arrays = {"exp_neg_xi": g.exp_neg_xi, "ds": frame._ds,
                  "half_ds_h": frame._half_ds_h, "rhs": rows.rhs, "lower": rows.lower,
                  "diag": rows.diag, "upper": rows.upper, "da": rows.da, "dc": rows.dc,
                  "db": rows.db, "onesided": rows.onesided, "f": frame.pair_rhs,
                  "single": frame.single_rhs, "cp": self.cp, "x": self.x}
        self.struct = _Frame(n=n, upwind=frame.mode.value == "upwind-singular", h=g.h,
                             two_h=2.0 * g.h, r=p.r, q=p.q, half_sig2=frame._half_sig2,
                             diff=frame._diff, sig2=frame._sig2,
                             **{name: a.ctypes.data for name, a in arrays.items()})
        self.address = ctypes.addressof(self.struct)
        self.out = (ctypes.c_double * OUT_SLOTS)()
        self.out_address = ctypes.addressof(self.out)


# The FrameBinding of the last frame a layer function ran in: one per march.
_last_frame = None


def _in_frame(function, frame, y, rhs, *args):
    """Call ``function`` (newton_layer or pc_corrector) on the layer
    ``frame.start`` built, with y and the scalars ``args`` between J21 and
    out[].  Returns its status and out[] slots.

    Raises ValueError, naming the array, when an elimination against J11
    and ``rhs`` meets a non-finite entry.
    """
    global _last_frame
    binding = _last_frame
    if binding is None or binding.frame is not frame:
        binding = _last_frame = FrameBinding(frame)
    c0, c1 = frame._constraint
    status = function(binding.address, y.ctypes.data, frame._z_prev, frame._dt, frame._ttm,
                      frame._diag_base, c0, c1, *frame.j21, *args, binding.out_address)
    out = binding.out[:]
    if status == LAYER_NON_FINITE:
        pure.check_finite(*frame.j11, rhs)
        raise RuntimeError("thomas.c reported a non-finite entry that numpy does not find")
    return status, out


def newton_layer(frame, y, tol, max_iter, pivot_rtol, schur_floor):
    """Newton's iterations on the layer ``frame.start`` built, in one C call.

    y is a copy of the previous layer, updated in place; tol, max_iter,
    pivot_rtol and schur_floor are solver_newton's.  The C function works
    over the frame's buffers and with its ``j21``, and repeats every
    operation of the numpy Newton loop that the tests keep as its oracle
    in order.

    Raises ValueError, naming the array, when an elimination meets a
    non-finite entry.  Returns (LAYER_OK, (iterations, z,
    initial_residual, onesided_rows, dominance_violations, residual_f1,
    residual_f2)), or the status of the first failure with its value:
    the non-positive z, the failing pivot row, the Schur denominator or
    the last step.
    """
    if _kernel is None:
        load()
    status, out = _in_frame(_kernel.newton_layer, frame, y, frame.pair_rhs, tol, max_iter,
                            pivot_rtol, schur_floor)
    if status != LAYER_OK:
        return status, out[OUT_FAILURE]
    return status, tuple(out[:OUT_UPWINDED])


def pc_predictor(z_prev, dt, ttm, r, q, sigma, h, y0, y1, y2, scan, factor, expansions,
                 root_tol, max_iter):
    """solver_pc.predictor's root in one C call, from the previous layer's
    z and first three values, dt, ttm = T - tau_next, the market's r, q
    and sigma and the grid's h; scan (the bracket scan's scan + 1
    points), factor (its widening factor), expansions (its widenings),
    root_tol and max_iter are solver_pc's.  The C function repeats every
    operation of the numpy predictor that the tests keep as its oracle in
    order.

    Returns (LAYER_OK, (z, iterations)), or LAYER_NO_BRACKET with the
    widest factor scanned, LAYER_NO_CONVERGENCE with the last step or
    LAYER_NON_POSITIVE_Z with the root.
    """
    if _kernel is None:
        load()
    out, address = _predictor_out
    status = _kernel.pc_predictor(z_prev, dt, ttm, r, q, sigma, h, y0, y1, y2, scan, factor,
                                  expansions, root_tol, max_iter, address)
    if status != LAYER_OK:
        return status, out[OUT_FAILURE]
    return status, (out[OUT_Z], int(out[OUT_ITERATIONS]))


def pc_corrector(frame, y, z_tilde, pivot_rtol, schur_floor):
    """The predictor-corrector's corrector on the layer ``frame.start``
    built, with the layer's diagnostics, in one C call: y (N + 1 entries)
    receives the stored layer, and pivot_rtol and schur_floor are
    solver_pc's.  The C function repeats every operation of the numpy
    corrector that the tests keep as its oracle in order.

    Raises ValueError, naming the array, when an elimination meets a
    non-finite entry.  Returns (LAYER_OK, (z, residual_f1, residual_f2,
    onesided_rows, dominance_violations)), or the status of the first
    failure with its value: the non-positive z, the failing pivot row or
    the Schur denominator.
    """
    if _kernel is None:
        load()
    status, out = _in_frame(_kernel.pc_corrector, frame, y, frame.single_rhs, z_tilde,
                            pivot_rtol, schur_floor)
    if status != LAYER_OK:
        return status, out[OUT_FAILURE]
    return status, (out[OUT_Z], out[OUT_RESIDUAL_F1], out[OUT_RESIDUAL_F2],
                    int(out[OUT_ONESIDED_ROWS]), int(out[OUT_DOMINANCE_VIOLATIONS]))


def fixed9_bytes(rows, cols):
    """The buffer ``fixed9_rows`` needs for ``rows`` lines of ``cols`` cells."""
    return rows * (cols * (FIXED9_CELL + 1) + 1)


def fixed9_rows(cells, out):
    """Write the (rows, cols) float64 array ``cells`` into the uint8 array
    ``out`` as CSV lines, each cell as Python's ``"%.9f"`` formats it and
    each line ended by "\r\n", as csv.writer ends it.

    cells must be C-contiguous with cols >= 1, and out must hold
    ``fixed9_bytes(rows, cols)`` bytes; anything else raises ValueError,
    so the C function reads and writes only within the two arrays.
    Returns the number of bytes written, or -1 - i when the flat cell i
    is one that Python must format (not finite, or |x| >= 4.5e6); out
    then holds a partial chunk.
    """
    if _kernel is None:
        load()
    if cells.dtype != np.float64 or cells.ndim != 2 or cells.shape[1] < 1 or \
            not cells.flags.c_contiguous:
        raise ValueError("cells must be a C-contiguous float64 array of shape (rows, cols >= 1)")
    if out.dtype != np.uint8 or out.ndim != 1 or not out.flags.c_contiguous or \
            not out.flags.writeable or out.size < fixed9_bytes(*cells.shape):
        raise ValueError("out must be a writable uint8 array of fixed9_bytes(rows, cols) bytes")
    return _kernel.fixed9_rows(*cells.shape, cells.ctypes.data, out.ctypes.data)
