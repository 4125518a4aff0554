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
NaN or an infinity, before any pivot is tested, and fails at the first
row whose pivot magnitude falls below
``max(pivot_rtol * max|diag|, ulp(0.0))`` (``pure.pivot_floor``).

* ``native``: thomas.c through ctypes, compiled by ``cc`` on first use
  in a process into a cache next to the source (see native.py), and the
  only kernel that runs.  Next to ``thomas`` it runs each engine's time
  layers in C, through ``native.march`` alone: Newton's layer is one
  static C function, which builds the layer's z-free part in a
  ``native.LayerFrame`` and runs its iterations there, and the
  predictor-corrector's is two, pc_predictor (the scalar root) and
  pc_corrector (the z-free part, the three solves and the layer's
  diagnostics over the frame).  Every solve of the kernel is one
  elimination, whose downward and upward chains meet at a row:
  ``thomas``'s and Newton's at the last row, which makes it the Thomas
  sweep, pc's in the middle.  ``native.march`` runs one engine's march
  over them, every layer in one call (or a range of layers, from those
  already stored), publishing each stored layer through a layer count
  when given one and skipping the passes that only fill diagnostics when
  its frame says so.  A march's frame holds its constants, filled once,
  and its caller writes the engine's limits into it; ``native.march``
  hands back the first failure with its layer, a non-finite entry's
  ValueError among them, made from the failure record that C leaves in
  the failed layer's row of out[] slots.  ``native.write_table`` and
  ``native.write_surface`` write the CLI's CSV tables, each cell byte for
  byte as Python's "%.9f" formats every double: each checks its arrays
  once and writes the whole table to a binary file in chunks that C
  formats, write_surface reading the surface's taus, xi and pi in place,
  as float64 arrays, and formatting all three columns itself.  Without a
  C compiler, or when the build or the load of the fresh build fails, the
  first call raises native.KernelUnavailable, which names the compiler or
  the failed build.
* ``pure``: the plain Python Thomas loop, whose solutions and failing
  rows thomas.c's repeat bit for bit, with its finiteness and pivot-floor
  checks, which thomas.c makes in C.  The tests hold it against native;
  nothing in a march calls it, and native does not import it.

Nothing is compiled or loaded at import.  tridiag.thomas_solve looks
``native.thomas`` up at each call, so a wrapper set on that attribute
(as the benchmark's tracer sets one) sees every elimination made from
Python; the engines' eliminations run inside their C calls.
"""

from . import native, pure  # the benchmark's tracer wraps each module's thomas


def active_name() -> str:
    """Name of the kernel backend, as summaries record it: "native"."""
    return "native"
