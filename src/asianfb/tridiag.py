"""Tridiagonal linear algebra: the Thomas solve and the engines' limits.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).  ``thomas_solve(lower, diag, upper, rhs)`` takes
the four arrays of the kernel contract (see _kernels): lower (n-1), diag
(n), upper (n-1) and rhs (n,) or (2, n), and runs the compiled kernel's
``native.thomas`` on them; a (2, n) right-hand side is one elimination,
and each solution is bit-identical to a single solve.  The kernel checks
the shapes, rejects a non-finite entry and takes the pivot floor from
``PIVOT_RTOL`` itself.  Both engines eliminate inside their C layers,
which a march (results.march) runs in one C call; it reads
``PIVOT_RTOL`` and ``SCHUR_FLOOR``, the engines' guard on the Schur
denominator, from here once and writes them into the march's frame, as
each one-layer call (newton_layer, and pc's corrector) does.
"""

from __future__ import annotations

import numpy as np

from ._kernels import native
from .errors import ZeroPivot

__all__ = ["thomas_solve"]

PIVOT_RTOL = 1e-14  # pivot floor relative to max |diagonal|
SCHUR_FLOOR = 1e-14  # smallest |1 - J21 J11^{-1} J12| a Schur step accepts


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """O(n) elimination; raises ValueError on a shape mismatch or a
    non-finite entry and ZeroPivot when a pivot underflows the floor.

    Returns the solution in the shape of ``rhs``, in an array of its own.
    """
    x, fail = native.thomas(lower, diag, upper, rhs, PIVOT_RTOL)
    if fail >= 0:
        raise ZeroPivot(fail)
    return x
