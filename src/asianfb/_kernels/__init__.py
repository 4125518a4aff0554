"""The compiled kernel, and the reference loop of its Thomas contract.

The tridiagonal solve sits in the innermost loop of the time marchers:
one elimination per Newton iteration, which solves for both Schur
right-hand sides at once, and three single solves per
predictor-corrector layer.  The Thomas solve is one function,
``thomas(lower, diag, upper, rhs, pivot_rtol) -> (x, fail_index)``, with
rhs of shape (n,) or (2, n); it is the only solve interface, and
tridiag.thomas_solve passes it the four arrays it is given.  It makes the
checks of a solve itself: it raises ValueError when the shapes do not
fit that form (``pure.check_shape``) and ValueError("<name> contains
non-finite values") on a NaN or an infinity in any of the four arrays,
before any pivot is tested, and fails at the first row whose pivot
magnitude falls below ``max(pivot_rtol * max|diag|, ulp(0.0))``
(``pure.pivot_floor``).

* ``native``: thomas.c through ctypes, compiled by ``cc`` on first use
  in a process into a cache next to the source (see native.py), and the
  only kernel that runs.  Next to ``thomas`` it offers each engine's
  time layer in C, eliminating with the same ``thomas`` loop: Newton's
  as one call, ``native.newton_layer``, which runs a layer's iterations
  over a scheme.LayerFrame, and the predictor-corrector's as two,
  ``native.pc_predictor`` (the scalar root) and ``native.pc_corrector``
  (the three solves and the layer's diagnostics over the frame).  Its
  ``native.fixed9_rows`` formats the CLI's CSV cells, byte for byte as
  Python's "%.9f" does, for cli._write_fixed9, which streams each output
  table through it.  Without a C compiler, or when the build or the
  load of the fresh build fails, the first call raises
  native.KernelUnavailable, which names the compiler or the failed build.
* ``pure``: the plain Python Thomas loop, whose solutions and failing
  rows thomas.c's repeat bit for bit, and the shape, finiteness and
  pivot-floor checks that native runs from Python.  The tests hold it
  against native; nothing in a march calls its loop.

Nothing is compiled or loaded at import.  tridiag.thomas_solve looks
``native.thomas`` up at each call, so a wrapper set on that attribute
(as the benchmark's tracer sets one) sees every elimination made from
Python; the engines' eliminations run inside their C layer calls.
"""

from . import native, pure  # the benchmark's tracer wraps each module's thomas


def active_name() -> str:
    """Name of the kernel backend, as summaries record it: "native"."""
    return "native"
