"""The compiled kernel, and the reference loop of its Thomas contract.

The tridiagonal solve sits in the innermost loop of the time marchers:
one elimination per Newton iteration, which solves for both Schur
right-hand sides at once, and three single solves per
predictor-corrector layer.  The Thomas solve is one function,
``thomas(lower, diag, upper, rhs, pivot_rtol) -> (x, fail_index)``, with
rhs of shape (n,) or (2, n); it is the only solve interface, and
tridiag.thomas_solve passes it the four arrays it is given.  It makes the
checks of a solve itself: it raises ValueError when the shapes do not
fit that form (``native.check_shape``) and ValueError("<name> contains
non-finite values"), naming the first of the four arrays that holds a
NaN or an infinity, before any pivot is tested, and fails at the lowest
row whose pivot magnitude falls below
``max(pivot_rtol * max|diag|, ulp(0.0))`` (``pure.pivot_floor``).

* ``native``: thomas.c through ctypes, compiled by ``cc`` on first use
  in a process into a cache next to the source, and the only kernel that
  runs: ``thomas``, each engine's march (``native.march``, the only way
  into the C time layers) and the CLI's CSV writers, each described in
  native's docstring.  Without a C compiler, or when the build or the
  load of the fresh build fails, the first call raises
  native.KernelUnavailable.
* ``pure``: thomas.c's one elimination as a plain Python loop, whose
  chains meet at the last row by default (the Thomas sweep) or at the
  row its ``meet`` names, and whose solutions and failing rows thomas.c's
  repeat bit for bit, with its finiteness and pivot-floor checks, which
  thomas.c makes in C.  The tests hold it against native and solve the
  numpy twins' systems with it; nothing in a march calls it, and native
  does not import it.

Nothing is compiled or loaded at import.  tridiag.thomas_solve looks
``native.thomas`` up at each call, so a wrapper set on that attribute
(as the benchmark's tracer sets one) sees every elimination made from
Python; the engines' eliminations run inside their C calls.
"""

from . import native, pure  # the benchmark's tracer wraps each module's thomas


def active_name() -> str:
    """Name of the kernel backend, as summaries record it: "native"."""
    return "native"
