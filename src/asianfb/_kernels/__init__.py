"""The Thomas kernel.

The tridiagonal solve sits in the innermost loop of the time marchers:
one elimination per Newton iteration, which solves for both Schur
right-hand sides at once, and three single solves per
predictor-corrector layer.  It is plain Python (``pure``); there is no
compiled backend, so ``native`` is None and ``active_name()`` is always
"pure".  tridiag.thomas_solve looks ``pure.thomas`` up at each call, so
a wrapper set on that attribute (as the benchmark's tracer sets one)
sees every elimination.
"""

from . import pure

native = None


def active_name() -> str:
    """Name of the kernel backend in use, reported in benchmark environments."""
    return "pure"
