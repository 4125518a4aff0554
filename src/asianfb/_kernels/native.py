"""Compiled kernel: thomas.c through ctypes, built on first use.

The library exports five functions: ``thomas``, the Thomas solve of
the kernel contract; ``march``, which steps one engine over the layers
of a march (see below), and ``published``, which reads the count of
layers a march has stored from its frame; and ``fixed9_rows`` and ``fixed9_surface``, which
format the cells of the CLI's CSV tables for ``write_table`` and
``write_surface``.  march is the only way into each engine's time layer,
which thomas.c keeps static: Newton's, one function that builds the
z-free part of a layer and runs its Newton iterations over a
LayerFrame's buffers, and the predictor-corrector layer's two halves,
``pc_predictor``, the predictor's scalar root, and ``pc_corrector``,
the z-free part, the corrector and the layer's diagnostics over the
frame's buffers.

Each solve of a layer is one forward sweep over the rows and one
backward sweep.  The forward sweep builds each row, its right-hand side
and the row counts, records whether the row's entries are finite and
max |diag|, and takes the row's elimination step, storing its pivot in
the frame's ``piv``; once it ends, a non-finite entry, then the lowest
row whose pivot falls below the floor, fails the solve as ``thomas``
fails it.  The sweep writes every row buffer and right-hand side before
any check, so C finds the array to name in them.  Every solve,
``thomas`` among them, is one elimination (a twisted factorization):
rows 0 .. m - 1 eliminate downward and rows n - 1 .. m + 1 upward, the
two chains meet at row m, and the backward sweep runs outward from m.
``thomas`` and Newton's sweep meet at the last row, m = n - 1, where the
upward chain is empty: the Thomas sweep.  pc's three solves meet at
m = n // 2, taking a row of each chain in turn, so each solve's serial
recurrence is two independent chains of half its length.  pc's solve
for dF1/dz reuses the pivots and ``cp`` of the first frozen solve, whose
J11 it has.

Importing this module compiles and loads nothing.  ``load()`` (called by
the first kernel call in a process) looks for a shared library in
``CACHE_DIR`` whose name carries a hash of the C source and the compiler
flags.  When there is none, or the file there cannot be loaded (corrupt,
or built for another machine), it runs ``cc`` once, writing to a
temporary name in that directory and renaming it into place, so
processes that build at the same time each end with a complete library.
Once a fresh build loads, it removes the libraries of other sources or
flags from the cache, and leaves the temporary files of builds under way.
Without a C compiler, or when the build or the load of the fresh build
fails, ``load()`` raises KernelUnavailable, an OSError whose one-line
message names the missing compiler, or the build command and the first
line it wrote to stderr, and the cache directory.

``thomas`` converts its arrays to contiguous float64, checks their
shapes (``check_shape``) and calls C with a fresh cp work row and
solution buffer.  The C function makes the other checks of the contract
before it eliminates: it takes the pivot floor from max |diag| and
reports a non-finite entry with a return code that names the first
array, in the order of ``ARRAYS``, that holds one; this module raises
the ValueError naming that array.  No march calls it: both engines
eliminate inside their layer calls.

A march makes one LayerFrame (results.march does): the buffers of its
layer system, which it owns, and the _Frame struct that hands them to C
with the march's constants (T, h, h**2, r, q, sigma**2 and their
products), filled once.  The frame's ``set_limits`` writes the limits of
the engine it marches into its struct (one tol and max_iter: Newton's
step tolerance and iteration cap, or the predictor's root tolerance and
cap; the eliminations' pivot_rtol and schur_floor; and ``diagnostics``,
1 unless set to 0).  ``march`` runs the layers of a march in one C call,
which holds no GIL, into arrays the caller allocates: C copies each
stored layer forward, builds every layer's z-free part once and starts
Newton's layers 3 .. M - 1 from an extrapolation of the stored layers
before them.  It runs every layer of the time mesh it is given, or a
range of them from the layers already stored.  With the frame's
``diagnostics`` 0 its layers skip the passes that only fill
diagnostics.  Every march publishes the number of layers it has stored
in its frame's struct, and another thread that reads it with
``published`` may read those layers while the march runs.
Marches in different frames share nothing, so they may run in different
threads at once.  A failed layer's status code, a refused layer
(tau_next >= T, or a non-positive step) among them, becomes its
exception here (``_failure``), from the failure record that C leaves in
the layer's row of out[] slots; no status code leaves this module.
That row is the layer's one record, diagnostics and failure alike:
``OUT_FIELDS`` names its slots, and ``records`` views a march's rows by
those names.

``write_table`` (boundary.csv, compare.csv) and ``write_surface``
(surface.csv) each write one table to a binary file, byte for byte as
csv.writer writes it with each cell formatted by Python's ``"%.9f"``,
NaNs, infinities and cells of hundreds of digits among them.  Each checks its arrays once, as
march checks its own (``_check``), and the two share one chunk loop
(``_write_chunks``), which owns the table's buffer, sized for cells of
the widest double, and hands C the offsets of each chunk of at most
about CHUNK_CELLS cells, so the C call, which trusts them, stays within
the arrays.  write_surface reads its pi in place, and calls its
``stored`` before each chunk, so solve's stream writes each chunk of a
march's surface once the march has stored it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

from ..errors import NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
from ..mesh import layer_constants

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
# the arrays of an elimination, in the order of thomas.c's ARRAY_* codes, by
# which thomas and a failed layer's failure slot name the first that holds a
# non-finite entry
ARRAYS = ("lower", "diag", "upper", "rhs")
# thomas.c's status codes of the layer functions
(LAYER_OK, LAYER_NON_POSITIVE_Z, LAYER_NON_FINITE, LAYER_ZERO_PIVOT, LAYER_SINGULAR_SCHUR,
 LAYER_NO_CONVERGENCE, LAYER_PAST_MATURITY, LAYER_NON_POSITIVE_STEP) = range(8)
# the names of the layer functions' out[] slots, in the order of thomas.c's
# OUT_* enum (OUT_ and the name in capitals): a Newton layer's 8 diagnostics,
# then a failure's value and the predictor's fallback flag
OUT_FIELDS = ("iterations", "z", "initial_residual", "onesided_rows", "dominance_violations",
              "residual_f1", "residual_f2", "backward_error", "failure", "predictor_fallback")
OUT_SLOTS = len(OUT_FIELDS)
_OUT_RECORD = np.dtype([(name, np.float64) for name in OUT_FIELDS])
MARCH_ENGINES = {"newton": 0, "pc": 1}  # thomas.c's engines of march
FIXED9_CELL = 320  # thomas.c's FIXED9_CELL: the widest cell the fixed9 functions write
# The CSV writers format at most this many cells per chunk (or one time
# layer of surface.csv, when that is more), into a buffer sized for cells of
# the widest double.  At the defaults a chunk of surface.csv is 19 layers,
# one write of about 150 KB (the file in 47 KB writes took about 1.3 times
# as long), from a 3.7 MB buffer: it stays below 4 MiB, from which numpy
# asks for huge pages (1.6 MB more peak RSS at 6.4 MB).
CHUNK_CELLS = 12000

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


def _remove_stale(current: Path) -> None:
    """Remove every cached library but ``current``; a file that cannot be
    removed stays."""
    for stale in current.parent.glob("thomas-*.so"):
        if stale != current:
            with contextlib.suppress(OSError):
                stale.unlink()


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
        _remove_stale(path)
    double, long, pointer = ctypes.c_double, ctypes.c_long, ctypes.c_void_p
    library.thomas.argtypes = [long, long] + [pointer] * 4 + [double, pointer, pointer]
    # march: (frame, engine, total, first, stop, taus, rho, surface, rows, failed)
    library.march.argtypes = [pointer] + [long] * 4 + [pointer] * 4 + [ctypes.POINTER(long)]
    library.published.argtypes = [pointer]
    library.fixed9_rows.argtypes = [long, long, pointer, pointer]
    library.fixed9_surface.argtypes = [long, long] + [pointer] * 4
    for function in (library.thomas, library.march, library.published, library.fixed9_rows,
                     library.fixed9_surface):
        function.restype = long
    _kernel = library


def check_shape(lower, diag, upper, rhs) -> None:
    """Raise ValueError unless diag holds n >= 1 entries, lower and upper
    n-1 each, and rhs has the shape (n,) or (2, n)."""
    n = diag.shape[0] if diag.ndim == 1 else 0
    if n < 1 or lower.shape != (n - 1,) or upper.shape != (n - 1,) or \
            rhs.shape not in ((n,), (2, n)):
        raise ValueError("system must have n >= 1 rows, n-1 off-diagonal "
                         "entries and a (n,) or (2, n) right-hand side")


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
    check_shape(lower, diag, upper, rhs)
    n = diag.size
    cp, x = np.empty(n), np.empty(rhs.shape)
    fail = _kernel.thomas(n, rhs.size // n, lower.ctypes.data, diag.ctypes.data,
                          upper.ctypes.data, rhs.ctypes.data, pivot_rtol, cp.ctypes.data,
                          x.ctypes.data)
    if fail <= NON_FINITE:
        raise ValueError(f"{ARRAYS[NON_FINITE - fail]} contains non-finite values")
    if fail >= 0:
        return np.zeros(x.shape), fail
    return x, -1


class _Frame(ctypes.Structure):
    """thomas.c's struct layer_frame."""

    _fields_ = [(name, ctypes.c_long) for name in
                ("n", "upwind", "diagnostics", "max_iter", "count")] + \
        [(name, ctypes.c_double) for name in
         ("T", "h", "h2", "two_h", "r", "q", "half_sig2", "diff", "sig2", "tol", "pivot_rtol",
          "schur_floor")] + \
        [(name, ctypes.c_void_p) for name in
         ("exp_neg_xi", "ds", "half_ds_h", "rhs", "lower", "diag", "upper", "da", "dc",
          "db", "onesided", "f", "single", "cp", "piv", "x", "y", "first", "out")]


class LayerFrame:
    """The layer system of one march on grid ``g`` with parameters ``p``
    in scheme mode ``mode``, in buffers it owns, and the _Frame struct
    that hands them to march's layer functions.

    Each layer function builds its layer in these buffers: the z-free part
    first (``ds`` = ds_i/dz = e^{-xi_i}/(T - tau) and ``half_ds_h``, its
    0.5/h scaling, the z-free ``diag``, ``rhs`` = y^prev/dt), then the
    rows of each iterate, F1 = lower y[:-2] + diag y[1:-1] + upper y[2:]
    - rhs, their z-derivatives (``da``, ``dc``, ``db``) and the
    ``onesided`` mask, where the singular term is upwinded.  J11 is
    (lower[1:], diag, upper[:-1]).  ``pair_rhs`` (2, n) and
    ``single_rhs`` (n,) are the right-hand sides that Newton's and pc's
    layers fill and solve against J11 in place, ``cp`` the elimination's
    work row, ``piv`` the pivots of its last forward sweep, ``x`` its
    (2, n) solution, and ``first`` the interior of a Newton layer's first
    iterate when it is not the previous layer.  march builds each layer in
    its row of the caller's surface and writes its out[] slots into its
    row of the caller's rows, so the struct's ``y`` and ``out`` stay
    unset.

    The struct holds the march's constants (T, h, h**2, r, q, sigma**2
    and their products) and the buffers' addresses, so a buffer must not
    be replaced; the march's caller writes its limits into it, and each
    march publishes its layer count there (0 until the first march).
    Constructing a frame loads the kernel (see load()), and raises
    ValueError when the constants are out of range (mesh.layer_constants
    computes and checks them).
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
        self.x, self.first = np.empty((2, n)), np.empty(n)
        buffers = {name: getattr(self, name) for name in
                   ("ds", "half_ds_h", "rhs", "lower", "diag", "upper", "da", "dc", "db",
                    "onesided", "cp", "piv", "x", "first")}
        buffers.update(exp_neg_xi=g.exp_neg_xi, f=self.pair_rhs, single=self.single_rhs)
        self.struct = _Frame(n=n, upwind=mode.value == "upwind-singular", diagnostics=1,
                             **layer_constants(p, g),
                             **{name: a.ctypes.data for name, a in buffers.items()})
        self.address = ctypes.addressof(self.struct)

    def set_limits(self, limits):
        """Write ``limits``, a map from fields of the struct to values,
        into the struct, where the layers of a march read them."""
        for name, value in limits.items():
            setattr(self.struct, name, value)


def records(rows):
    """The (M, OUT_SLOTS) float64 array ``rows`` of a march's out[] rows
    as an np.recarray of M records with one field of each OUT_FIELDS name:
    a view that shares the memory of rows, so records(rows).iterations is
    the first column of rows, and records(rows)[j].iterations rows[j, 0]."""
    return rows.view(_OUT_RECORD, np.recarray)[:, 0]


def _failure(frame, status, out, tau_prev, tau_next):
    """The exception of the layer in ``frame`` from tau_prev to tau_next
    that ended with ``status``, from ``out``, the record of the layer's
    out[] slots, which hold its failure record: the failure's value in
    ``failure``, and the cap that NoConvergence reached in
    ``iterations``.  An elimination that met a non-finite entry gives the
    ValueError naming the array ``ARRAYS[out.failure]``.
    """
    value = float(out.failure)
    if status == LAYER_NON_FINITE:
        return ValueError(f"{ARRAYS[int(value)]} contains non-finite values")
    if status == LAYER_PAST_MATURITY:
        return ValueError(f"tau_next must be < T; got {tau_next} with T={frame.p.T}")
    if status == LAYER_NON_POSITIVE_STEP:
        return ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={tau_prev}")
    if status == LAYER_NON_POSITIVE_Z:
        return NonPositiveZ(value)
    if status == LAYER_ZERO_PIVOT:
        return ZeroPivot(int(value))
    if status == LAYER_SINGULAR_SCHUR:
        return SingularSchur(f"Schur denominator {value:.3e} at tau={tau_next:.6g}")
    if status == LAYER_NO_CONVERGENCE:
        return NoConvergence(int(out.iterations), value)
    return RuntimeError(f"thomas.c returned the unknown layer status {status}")


def march(frame, engine, taus, rho, surface, rows, *, first=0, stop=None):
    """Layers first + 1 .. stop of the march of ``engine`` ("newton" or
    "pc") on the time mesh ``taus`` of M + 1 entries in the LayerFrame
    ``frame``, in one C call, into the caller's arrays: layer j + 1 from
    (taus[j], surface[j], rho[j]) to taus[j + 1], its boundary into
    rho[j + 1], its values into surface[j + 1] and its out[] slots into
    rows[j], the layer's record, whose slots OUT_FIELDS names (read them
    by name through records; ``failure`` is 0), with the limits in the
    frame's struct (see LayerFrame.set_limits).  By default (first = 0,
    stop = M) that is every layer from the stored layer 0; a shorter
    range runs its layers from those stored before it, exactly as the
    whole march runs them.  With the struct's ``diagnostics`` 0 the
    layers skip the passes that only fill diagnostics (Newton's final
    rows, F1 and F2, pc's backward error and F2), which no decision
    reads, and their residual_f1, residual_f2 and backward_error read
    NaN: rho, surface and every other slot are the same bits as with it
    1.
    Newton's layers 4 .. M - 1 start from the three-point Lagrange
    extrapolation of the stored layers j, j - 1 and j - 2 to taus[j + 1],
    layer 3 from the linear one of layers 2 and 1, and the others from the
    previous layer (see solver_newton), whatever the range.  pc's layers
    are pc_predictor's, falling back to z_tilde = z_prev where the
    predictor finds no root, then pc_corrector's (pc's rows hold its
    predictor's iterations in ``iterations`` and 1 in
    ``predictor_fallback`` on its fallback layers).

    The call publishes the layers in the frame as they are stored: C
    stores first + 1 there on entry and j + 2 once layer j + 1 is stored,
    with release ordering, so another thread that reads the count with
    ``published(frame)`` may read rows 0 .. count - 1 of surface (and of
    rho) while the march runs.

    taus must be a C-contiguous float64 array, rho a C-contiguous float64
    array of as many entries, surface a C-contiguous float64 (M + 1,
    N + 1) array for the frame's grid's N, rows a C-contiguous float64
    (M, OUT_SLOTS) array, and 0 <= first < stop <= M; anything else
    raises ValueError, before any pointer reaches C.

    Returns None, the count then at stop + 1, or (layer, exception) of
    the first layer that failed (a ValueError naming the array when an
    elimination met a non-finite entry), made from the failure record
    that C leaves in its row, rows[layer - 1]; the call stops there, and
    the count stays at that layer.
    """
    _check("taus", taus, ("M + 1",))
    m = taus.size - 1
    for name, array, shape in (("rho", rho, (m + 1,)),
                               ("surface", surface, (m + 1, frame.g.N + 1)),
                               ("rows", rows, (m, OUT_SLOTS))):
        _check(name, array, shape, ", to fit taus", writable=True)
    stop = m if stop is None else stop
    if not 0 <= first < stop <= m:
        raise ValueError(f"the layer steps {first}:{stop} must satisfy 0 <= first < stop <= {m}")
    failed = ctypes.c_long()
    status = _kernel.march(frame.address, MARCH_ENGINES[engine], m, first, stop,
                           *[a.ctypes.data for a in (taus, rho, surface, rows)],
                           ctypes.byref(failed))
    if status == LAYER_OK:
        return None
    j = failed.value
    return j, _failure(frame, status, records(rows)[j - 1], float(taus[j - 1]), float(taus[j]))


def published(frame):
    """The number of layers the last march in the LayerFrame ``frame`` has
    stored (see march), loaded in C with acquire ordering: every read this
    thread makes after the call sees those layers as the march stored
    them."""
    return _kernel.published(frame.address)


def write_table(fh, header, cells):
    """Write the CSV table of the (rows, cols) array ``cells`` to the
    binary file ``fh``, byte for byte as csv.writer writes the header
    line and each row's cells formatted by Python's ``"%.9f"`` (NaNs,
    infinities and cells of hundreds of digits among them), in chunks of
    rows that C formats (see _write_chunks).

    cells must be a C-contiguous float64 array with rows, cols >= 1;
    anything else raises ValueError.
    """
    if _kernel is None:
        load()
    _check("cells", cells, ("rows", "cols"))
    cols = cells.shape[1]
    _write_chunks(fh, header, _kernel.fixed9_rows, cols, [(cells, True)], 1, cols)


def write_surface(fh, taus, xi, pi, stored=None):
    """Write surface.csv of the (layers, n) array ``pi`` to the binary
    file ``fh``: the header line "tau,xi,pi", then for each layer j and
    node i the line "tau_j,xi_i,pi_ji", byte for byte as csv.writer
    writes the cells formatted by Python's ``"%.9f"``, in chunks of whole
    layers that C formats (see _write_chunks), formatting each tau cell
    once and the xi cells once per chunk.

    pi is read in place, so its layers may be stored after the call
    begins: ``stored(stop)``, when given, is called before each chunk of
    layers start .. stop - 1 is formatted, and returns True once layers 0
    .. stop - 1 are final, or False to end the file there, unfinished
    (solve's stream polls its march's layer count).

    pi must be a C-contiguous float64 array with layers, n >= 1, and taus
    and xi C-contiguous float64 arrays of layers and n entries; anything
    else raises ValueError.  Raises MemoryError when C cannot allocate the
    xi cells.
    """
    if _kernel is None:
        load()
    _check("pi", pi, ("layers", "n"))
    layers, n = pi.shape
    _check("taus", taus, (layers,), ", to fit pi")
    _check("xi", xi, (n,), ", to fit pi")
    _write_chunks(fh, "tau,xi,pi", _kernel.fixed9_surface, n,
                  [(taus, True), (xi, False), (pi, True)], n, 3, stored)


def _check(name, array, shape, fits="", writable=False):
    """Raise ValueError, naming the array ``name`` and ending its message
    with ``fits``, unless ``array`` is a C-contiguous float64 array of
    ``shape``, each size an int it must equal or a name of any size >= 1,
    and writable when ``writable``."""
    if array.dtype != np.float64 or array.ndim != len(shape) or \
            not array.flags.c_contiguous or writable and not array.flags.writeable or \
            not all(got == want if isinstance(want, int) else got >= 1
                    for got, want in zip(array.shape, shape)):
        sizes = ", ".join(map(str, shape)) + "," * (len(shape) == 1)
        raise ValueError(f"{name} must be a {'writable ' * writable}C-contiguous float64 "
                         f"array of shape ({sizes}){fits}")


def _write_chunks(fh, header, function, size, arrays, lines, cells, stored=None):
    """Write the header line, then the units (rows, or layers of rows) of
    the checked ``arrays`` to the binary file ``fh``, each unit ``lines``
    CSV lines of ``cells`` cells, in chunks of about CHUNK_CELLS cells and
    at least one unit: the C ``function(units, size, *addresses, out)``
    formats each chunk into one buffer, reused for the file, each array
    (array, moves) addressed at the chunk's first unit if it moves, else
    at its start.  ``stored`` is write_surface's.

    The buffer holds a chunk's units in cells of the widest double, and
    the chunk lies within the arrays, so C, which trusts its arguments,
    reads and writes only within them.
    """
    units = arrays[0][0].shape[0]
    step = max(1, CHUNK_CELLS // (lines * cells))
    out = np.empty(min(step, units) * lines * (cells * (FIXED9_CELL + 1) + 1), np.uint8)
    # a memoryview's slices, unlike numpy's, allocate nothing outside Python's
    # own allocator on the thread that writes
    view, out_at = memoryview(out), out.ctypes.data
    starts = [(a.ctypes.data, a.strides[0] if moves else 0) for a, moves in arrays]
    fh.write(header.encode() + b"\r\n")
    for start in range(0, units, step):
        stop = min(start + step, units)
        if stored is not None and not stored(stop):
            return
        written = function(stop - start, size, *[at + start * s for at, s in starts], out_at)
        if written < 0:
            raise MemoryError("the CSV writer could not allocate its scratch")
        fh.write(view[:written])
