"""Compiled kernel: thomas.c through ctypes, built on first use.

The library holds ``thomas``, the Thomas solve of the kernel contract;
one time layer of each engine, which eliminates with the row step of
that same ``thomas``: ``newton_layer``, the z-free part of a layer and
its Newton iterations over a LayerFrame's buffers, and the
predictor-corrector layer's two halves, ``pc_predictor``, the
predictor's scalar root, and ``pc_corrector``, the z-free part, the
corrector and the layer's diagnostics over the frame's buffers;
``march``, which steps one engine over every layer of a march with
those functions (see below); and ``fixed9_rows`` and
``fixed9_surface``, the CLI's CSV cells.

Each solve of a layer is one forward sweep over the rows and one
backward sweep.  The forward sweep builds each row, its right-hand side
and the row counts, records whether the row's entries are finite and
max |diag|, and takes the row's elimination step, storing its pivot in
the frame's ``piv``; once it ends, a non-finite entry, then the first
pivot below the floor, fails the solve as ``thomas`` fails it.  The
sweep writes every row buffer and right-hand side before any check, so
``_failure`` finds the array to name.  pc's solve for dF1/dz reuses the
pivots and ``cp`` of the first frozen solve, whose J11 it has.

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
buffer.  The C function makes the other checks of the contract in one
pass over the rows before it eliminates: it takes the pivot floor from
max |diag| and reports a non-finite entry with its own return code, and
only then does this module run pure's numpy check, to raise the
ValueError that names the array.  No march calls it: both engines
eliminate inside their layer calls.

A march makes one LayerFrame (results.march does, and an engine's layer
called without one makes its own): the buffers of its layer system,
which it owns, and the _Frame struct that hands them to C with the
march's constants (T, h, h**2, r, q, sigma**2 and their products),
filled once.  ``march`` writes the engine's limits into its frame's
struct once (Newton's tol and max_iter, or the predictor's root search,
and the eliminations' pivot_rtol and schur_floor) and runs the whole
march in one C call, which holds no GIL: C copies each stored layer
forward and builds every layer's z-free part itself.  ``layer`` runs one
layer function alone: it writes that function's limits alike, copies the
previous layer into the frame's y buffer and passes only tau_prev,
tau_next and z_prev (and pc's corrector its z_tilde) to C.  Marches in
different frames share nothing, so they may run in different threads at
once.  A failed call's status code, a refused layer (tau_next >= T, or a
non-positive step) among them, becomes its exception here
(``_failure``); no status code leaves this module.

``fixed9_rows`` checks a table and a buffer once and returns the
function that writes a chunk of the table's rows into the buffer as CSV
lines of ``"%.9f"`` cells, byte for byte as Python formats them, and
hands back (by its index) the first cell it leaves to Python: a NaN, an
infinity, or a magnitude of 4.5e6 or more.  ``fixed9_surface`` does the
same for chunks of layers of surface.csv, formatting each layer's tau
cell once and copying xi cells formatted once per file.  The checks, that
each array is contiguous and of the right type and shape, are made once
per file; each chunk passes only offsets into the checked arrays, after
checking that its range lies within them and fits the buffer, so the C
call, which trusts them, stays within the arrays.
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

from ..errors import NoBracket, NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
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
 LAYER_NO_CONVERGENCE, LAYER_NO_BRACKET, LAYER_PAST_MATURITY, LAYER_NON_POSITIVE_STEP) = range(9)
# the layer functions' out[] slots: newton_layer's 8 diagnostics, then three more
(OUT_ITERATIONS, OUT_Z, OUT_INITIAL_RESIDUAL, OUT_ONESIDED_ROWS, OUT_DOMINANCE_VIOLATIONS,
 OUT_RESIDUAL_F1, OUT_RESIDUAL_F2, OUT_BACKWARD_ERROR, OUT_UPWINDED, OUT_FAILURE,
 OUT_FALLBACK, OUT_SLOTS) = range(12)
# thomas.c's engines of march, and its layer functions, in the order of its CALL_* codes
MARCH_ENGINES = {"newton": 0, "pc": 1}
CALLS = ("newton_layer", "pc_predictor", "pc_corrector")
FIXED9_CELL = 18  # thomas.c's FIXED9_CELL: the widest cell the fixed9 functions write
FIXED9_LIMIT = 4.5e6  # thomas.c's FIXED9_LIMIT: smaller magnitudes are formatted in C

_kernel = None  # the loaded library, once load() succeeds


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
    global _kernel
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
    # each layer function: (frame, tau_prev, tau_next, z_prev), and pc_corrector z_tilde
    library.newton_layer.argtypes = [pointer] + [double] * 3
    library.pc_predictor.argtypes = [pointer] + [double] * 3
    library.pc_corrector.argtypes = [pointer] + [double] * 4
    # march: (frame, engine, layers, taus, rho, surface, rows, failed)
    library.march.argtypes = [pointer, long, long] + [pointer] * 5
    library.fixed9_rows.argtypes = [long, long, pointer, pointer]
    library.fixed9_surface.argtypes = [long, long] + [pointer] * 4
    for function in (library.thomas, library.newton_layer, library.pc_predictor,
                     library.pc_corrector, library.march, library.fixed9_rows,
                     library.fixed9_surface):
        function.restype = long
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

    _fields_ = [(name, ctypes.c_long) for name in
                ("n", "upwind", "max_iter", "root_max_iter", "scan", "expansions")] + \
        [(name, ctypes.c_double) for name in
         ("T", "h", "h2", "two_h", "r", "q", "half_sig2", "diff", "sig2", "tol", "root_tol",
          "bracket_factor", "pivot_rtol", "schur_floor")] + \
        [(name, ctypes.c_void_p) for name in
         ("exp_neg_xi", "ds", "half_ds_h", "rhs", "lower", "diag", "upper", "da", "dc",
          "db", "onesided", "f", "single", "cp", "piv", "x", "y", "out")]


class LayerFrame:
    """The layer system of one march on grid ``g`` with parameters ``p``
    in scheme mode ``mode``, in buffers it owns, and the _Frame struct
    that hands them to the layer functions.

    Each layer function builds its layer in these buffers: the z-free part
    first (``ds`` = ds_i/dz = e^{-xi_i}/(T - tau) and ``half_ds_h``, its
    0.5/h scaling, the z-free ``diag``, ``rhs`` = y^prev/dt), then the
    rows of each iterate, F1 = lower y[:-2] + diag y[1:-1] + upper y[2:]
    - rhs, their z-derivatives (``da``, ``dc``, ``db``) and the
    ``onesided`` mask, where the singular term is upwinded.  ``j11`` is
    J11 (lower[1:], diag, upper[:-1]): three views of the row buffers.
    ``pair_rhs`` (2, n) and ``single_rhs`` (n,) are the right-hand sides
    that Newton's and pc's layers fill and solve against J11 in place,
    ``cp`` the elimination's work row, ``piv`` the pivots of its last
    forward sweep, ``x`` its (2, n) solution, ``y`` the layer (the
    previous one on entry) and ``out`` the out[] slots.

    The struct holds the march's constants (T, h, h**2, r, q, sigma**2
    and their products) and the buffers' addresses, so a buffer must not
    be replaced; a march, or a layer function called alone, writes its
    limits into it.
    Constructing a frame loads the kernel (see load()).
    """

    def __init__(self, g, p, mode):
        if _kernel is None:
            load()
        n = g.N - 1
        self.g, self.p, self.mode = g, p, mode
        self.lower, self.diag, self.upper, self.da, self.dc, self.db, self.rhs = \
            (np.zeros(n) for _ in range(7))
        self.onesided = np.zeros(n, dtype=bool)
        self.ds, self.half_ds_h, self.cp, self.piv = (np.empty(n) for _ in range(4))
        self.pair_rhs, self.single_rhs = np.zeros((2, n)), np.zeros(n)
        self.x, self.y = np.empty((2, n)), np.empty(n + 2)
        self.out = (ctypes.c_double * OUT_SLOTS)()
        self.j11 = (self.lower[1:], self.diag, self.upper[:-1])
        buffers = {name: getattr(self, name) for name in
                   ("ds", "half_ds_h", "rhs", "lower", "diag", "upper", "da", "dc", "db",
                    "onesided", "cp", "piv", "x", "y")}
        buffers.update(exp_neg_xi=g.exp_neg_xi, f=self.pair_rhs, single=self.single_rhs)
        sig2 = p.sigma**2
        self.struct = _Frame(n=n, upwind=mode.value == "upwind-singular", T=p.T, h=g.h,
                             h2=g.h**2, two_h=2.0 * g.h, r=p.r, q=p.q, half_sig2=0.5 * sig2,
                             diff=0.5 * sig2 / g.h**2, sig2=sig2,
                             out=ctypes.addressof(self.out),
                             **{name: a.ctypes.data for name, a in buffers.items()})
        self.address = ctypes.addressof(self.struct)


def _no_bracket(z_prev, widest):
    return NoBracket(f"predictor residual has no sign change within "
                     f"[{z_prev / widest:.4g}, {z_prev * widest:.4g}]")


def _failure(frame, status, call, tau_prev, tau_next, z_prev):
    """The exception of the layer call ``call`` (one of CALLS) in
    ``frame`` from (tau_prev, z_prev) to tau_next that ended with
    ``status``, whose value is in out[OUT_FAILURE], with the limits in the
    frame's struct.

    Raises ValueError, naming the array, when an elimination met a
    non-finite entry.
    """
    value = frame.out[OUT_FAILURE]
    # the right-hand side the call solves against J11; pc_predictor solves none,
    # and its past-maturity message does not name T
    rhs = {"newton_layer": frame.pair_rhs, "pc_corrector": frame.single_rhs}.get(call)
    if status == LAYER_NON_FINITE:
        pure.check_finite(*frame.j11, rhs)
        return RuntimeError("thomas.c reported a non-finite entry that numpy does not find")
    if status == LAYER_PAST_MATURITY:
        return ValueError(f"tau_next must be < T; got {tau_next}"
                          + ("" if rhs is None else f" with T={frame.p.T}"))
    if status == LAYER_NON_POSITIVE_STEP:
        return ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={tau_prev}")
    if status == LAYER_NON_POSITIVE_Z:
        return NonPositiveZ(value)
    if status == LAYER_ZERO_PIVOT:
        return ZeroPivot(int(value))
    if status == LAYER_SINGULAR_SCHUR:
        return SingularSchur(f"Schur denominator {value:.3e} at tau={tau_next:.6g}")
    if status == LAYER_NO_CONVERGENCE:
        struct = frame.struct
        return NoConvergence(struct.root_max_iter if rhs is None else struct.max_iter, value)
    if status == LAYER_NO_BRACKET:
        return _no_bracket(z_prev, value)
    return RuntimeError(f"thomas.c returned the unknown layer status {status}")


def layer(frame, call, y_prev, *args, **limits):
    """One layer function of thomas.c alone, ``call`` (one of CALLS), on
    the layer from the previous layer ``y_prev`` in the LayerFrame
    ``frame``, in one C call: ``args`` are tau_prev, tau_next and z_prev,
    and pc_corrector's z_tilde, and ``limits`` the fields of the frame's
    struct the call reads (newton_layer's tol, max_iter, pivot_rtol and
    schur_floor; pc_predictor's root_tol, root_max_iter, scan,
    bracket_factor and expansions; pc_corrector's pivot_rtol and
    schur_floor), written there first.

    Returns the call's out[] slots as a list; newton_layer and
    pc_corrector leave the new layer in frame.y.  Raises ValueError when
    y_prev does not fit the frame, when the frame refuses the layer
    (tau_next >= T, or a non-positive step) and, naming the array, when an
    elimination meets a non-finite entry; else the call's first failure:
    NonPositiveZ, ZeroPivot, SingularSchur, NoConvergence or NoBracket.
    """
    np.copyto(frame.y, y_prev)
    for name, value in limits.items():
        setattr(frame.struct, name, value)
    status = getattr(_kernel, call)(frame.address, *args)
    if status != LAYER_OK:
        raise _failure(frame, status, call, *args[:3])
    return frame.out[:]


def march(frame, engine, y0, z0, limits):
    """The march of ``engine`` ("newton" or "pc") over every layer of the
    frame's grid g in the LayerFrame ``frame``, in one C call, from the
    layer (y0, z0) at taus[0]: layer j + 1 from (taus[j], surface[j],
    rho[j]) to taus[j + 1].

    ``limits`` maps the fields of the frame's struct that the engine's
    layer calls read (see layer()) to the values written there before the
    march.  Newton's layers are newton_layer's, and pc's are
    pc_predictor's, falling back to z_tilde = z_prev where the predictor
    finds no root, then pc_corrector's.

    Returns (rho, surface, rows, failure): rho (M + 1,) and surface
    (M + 1, N + 1), each layer's out[] slots in the rows of the (M,
    OUT_SLOTS) array rows (pc's hold its predictor's iterations in
    OUT_ITERATIONS and 1 in OUT_FALLBACK on its fallback layers), and
    failure None, or (layer, exception) of the first layer call that
    failed, the exception layer() raises for it; the march stops there.
    Raises ValueError when y0 has not N + 1 values and, naming the array,
    when an elimination met a non-finite entry.
    """
    g = frame.g
    rho, surface = np.empty(g.M + 1), np.empty((g.M + 1, g.N + 1))
    rho[0], surface[0] = z0, y0
    for name, value in limits.items():
        setattr(frame.struct, name, value)
    rows, failed = np.empty((g.M, OUT_SLOTS)), (ctypes.c_long * 2)()
    status = _kernel.march(frame.address, MARCH_ENGINES[engine], g.M, g.taus.ctypes.data,
                           rho.ctypes.data, surface.ctypes.data, rows.ctypes.data, failed)
    if status == LAYER_OK:
        return rho, surface, rows, None
    j = failed[0]
    return rho, surface, rows, (j, _failure(frame, status, CALLS[failed[1]], float(g.taus[j - 1]),
                                            float(g.taus[j]), float(rho[j - 1])))


def fixed9_bytes(rows, cols):
    """The buffer ``fixed9_rows`` needs for ``rows`` lines of ``cols`` cells."""
    return rows * (cols * (FIXED9_CELL + 1) + 1)


def fixed9_rows(cells, out):
    """Check the (rows, cols) float64 array ``cells`` and the uint8 array
    ``out`` once, and return ``write(start, stop)``, which writes rows
    start .. stop - 1 of cells into out as CSV lines, each cell as
    Python's ``"%.9f"`` formats it and each line ended by "\r\n", as
    csv.writer ends it.

    cells must be C-contiguous with cols >= 1, and out writable and
    contiguous; anything else raises ValueError.  write raises ValueError
    unless 0 <= start <= stop <= rows and out holds
    ``fixed9_bytes(stop - start, cols)`` bytes, so the C function reads
    and writes only within the two arrays.  It returns the number of
    bytes written, or -1 - i when the flat cell i of the chunk is one that
    Python must format (not finite, or |x| >= 4.5e6); out then holds a
    partial chunk.
    """
    if _kernel is None:
        load()
    if cells.dtype != np.float64 or cells.ndim != 2 or cells.shape[1] < 1 or \
            not cells.flags.c_contiguous:
        raise ValueError("cells must be a C-contiguous float64 array of shape (rows, cols >= 1)")
    rows, cols = cells.shape
    return _chunk_writer(_kernel.fixed9_rows, rows, fixed9_bytes(1, cols), cols, out,
                         [(cells, True)])


def fixed9_surface(taus, xi_cells, pi, out):
    """Check the arrays once, and return ``write(start, stop)``, which
    writes the surface.csv lines of layers start .. stop - 1 of the
    (layers, n) float64 array ``pi`` into the uint8 array ``out``: for
    each layer j and node i the line "tau_j,xi_i,pi_ji\r\n", tau_j and
    pi_ji as Python's ``"%.9f"`` formats them (tau_j formatted once per
    layer), and xi_i copied from row i of the (n, FIXED9_CELL) uint8
    ``xi_cells``, its text padded with NUL bytes.

    taus must be a contiguous float64 array of ``layers`` entries, pi
    C-contiguous with n >= 1, and out writable and contiguous; anything
    else raises ValueError.  write raises ValueError unless 0 <= start <=
    stop <= layers and out holds ``fixed9_bytes((stop - start) n, 3)``
    bytes, so the C function reads and writes only within the arrays.  It
    returns the number of bytes written, or -1 - i when the cell i of the
    chunk's ((stop - start) n, 3) table is one that Python must format
    (not finite, or |x| >= 4.5e6); out then holds a partial chunk.
    """
    if _kernel is None:
        load()
    if pi.dtype != np.float64 or pi.ndim != 2 or pi.shape[1] < 1 or \
            not pi.flags.c_contiguous:
        raise ValueError("pi must be a C-contiguous float64 array of shape (layers, n >= 1)")
    layers, n = pi.shape
    if taus.dtype != np.float64 or taus.shape != (layers,) or not taus.flags.c_contiguous:
        raise ValueError(f"taus must be a contiguous float64 array of {layers} entries")
    if xi_cells.dtype != np.uint8 or xi_cells.shape != (n, FIXED9_CELL) or \
            not xi_cells.flags.c_contiguous:
        raise ValueError(f"xi_cells must be a C-contiguous uint8 array of shape "
                         f"({n}, {FIXED9_CELL})")
    return _chunk_writer(_kernel.fixed9_surface, layers, fixed9_bytes(n, 3), n, out,
                         [(taus, True), (xi_cells, False), (pi, True)])


def _chunk_writer(function, units, unit_bytes, cols, out, arrays):
    """Check ``out`` and return write(start, stop), which calls the C
    ``function(stop - start, cols, *addresses, out)`` on units (rows or
    layers) start .. stop - 1 of the checked ``arrays``, each (array,
    moves) addressed at unit ``start`` if it moves, else at its start,
    after checking that the chunk lies within the ``units`` units and that
    its ``unit_bytes`` per unit fit ``out``."""
    if out.dtype != np.uint8 or out.ndim != 1 or not out.flags.c_contiguous or \
            not out.flags.writeable:
        raise ValueError("out must be a writable contiguous uint8 array")
    starts = [(a.ctypes.data, a.strides[0] if moves else 0) for a, moves in arrays]
    out_at = out.ctypes.data

    def write(start, stop):
        if not 0 <= start <= stop <= units or (stop - start) * unit_bytes > out.size:
            raise ValueError(f"the chunk {start}:{stop} of {units} does not fit the arrays "
                             f"and out ({out.size} bytes)")
        return function(stop - start, cols, *[at + start * step for at, step in starts], out_at)
    write.arrays = arrays  # the addresses stay valid while write lives
    return write
