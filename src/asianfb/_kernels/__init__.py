"""The compiled kernel and its pure-Python fallback.

The tridiagonal solve sits in the innermost loop of the time marchers:
one elimination per Newton iteration, which solves for both Schur
right-hand sides at once, and three single solves per
predictor-corrector layer.  Each backend offers the Thomas solve as one
function, ``thomas(lower, diag, upper, rhs, pivot_rtol) -> (x,
fail_index)``, with rhs of shape (n,) or (2, n); it is the only solve
interface, and tridiag.thomas_solve passes it the four arrays it is
given.  Each backend makes the checks of a solve itself: it raises
ValueError when the shapes do not fit that form (``pure.check_shape``)
and ValueError("<name> contains non-finite values") on a NaN or an
infinity in any of the four arrays, before any pivot is tested, and
fails at the first row whose pivot magnitude falls below
``max(pivot_rtol * max|diag|, ulp(0.0))`` (``pure.pivot_floor``):

* ``native``: thomas.c through ctypes, compiled by ``cc`` on first use
  in a process into a cache next to the source (see native.py); its
  solutions and failing rows are bit-identical to pure's.  It also
  offers each engine's time layer in C, eliminating with the same
  ``thomas`` loop: Newton's as one call, ``native.newton_layer``, which
  runs a layer's iterations over a scheme.LayerFrame, and the
  predictor-corrector's as two, ``native.pc_predictor`` (the scalar
  root) and ``native.pc_corrector`` (the three solves and the layer's
  diagnostics over the frame).  Its ``native.fixed9_rows`` formats the
  CLI's CSV cells, byte for byte as Python's "%.9f" does, for
  cli._write_fixed9, which streams each output table through it.
* ``pure``: the plain Python loop, used when no C compiler is found or
  the build or the load fails, and the tests' reference.  Its layers
  are solver_newton's and solver_pc's numpy code, which the C calls
  repeat bit for bit; on it the CLI formats its CSV cells with Python's
  %-templates.

``active()`` picks the backend once, on its first call; nothing is
compiled or loaded at import, and nothing else selects the backend.
tridiag.thomas_solve looks ``active().thomas`` up at each call, so a
wrapper set on either module's ``thomas`` attribute (as the benchmark's
tracer sets one) sees every elimination made from Python: both
engines' on the pure backend, and none on the native one.
"""

from . import native, pure

_active = None  # the backend module in use, chosen by the first active() call


def active():
    """The backend module that runs: native once its library loads, else pure."""
    global _active
    if _active is None:
        _active = native if native.load() else pure
    return _active


def active_name() -> str:
    """Name of the kernel backend in use: "native" or "pure"."""
    return "native" if active() is native else "pure"
