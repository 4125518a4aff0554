"""The Thomas kernel.

The tridiagonal solve sits in the innermost loop of the time marchers:
one elimination per Newton iteration, which solves for both Schur
right-hand sides at once, and three single solves per
predictor-corrector layer.  Each backend is one function,
``thomas(lower, diag, upper, rhs, pivot_floor) -> (x, fail_index)``,
with rhs of shape (n,) or (2, n):

* ``native``: thomas.c through ctypes, compiled by ``cc`` on the first
  elimination in a process into a cache next to the source (see
  native.py); its solutions and failing rows are bit-identical to pure's.
* ``pure``: the plain Python loop, used when no C compiler is found or
  the build or the load fails, and the tests' reference.

``active()`` picks the backend once, on its first call; nothing is
compiled or loaded at import.  tridiag.thomas_solve looks
``active().thomas`` up at each call, so a wrapper set on either module's
``thomas`` attribute (as the benchmark's tracer sets one) sees every
elimination.
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
