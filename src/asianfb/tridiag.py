"""Tridiagonal linear algebra: the Thomas solve and the engines' limits.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).  ``thomas_solve(lower, diag, upper, rhs)`` takes
the four arrays of the kernel contract (see _kernels): lower (n-1), diag
(n), upper (n-1) and rhs (n,) or (2, n).  The Newton engine solves J11
for F1 and J12 together, in one elimination, and each solution is
bit-identical to a single solve.  ``thomas_solve`` runs the kernel
backend that ``_kernels.active()`` reports (compiled C, or the pure loop
when no C compiler is available); both give the same bits, and both
check the shapes, reject a non-finite entry and take the pivot floor
from ``PIVOT_RTOL`` themselves.  With the compiled kernel, both
engines' eliminations run inside their C calls per layer (Newton's one
in solver_newton, pc's corrector in solver_pc), which take
``PIVOT_RTOL`` and ``SCHUR_FLOOR``, the engines' guard on the Schur
denominator, from here at each call.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
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
    x, fail = _kernels.active().thomas(lower, diag, upper, rhs, PIVOT_RTOL)
    if fail >= 0:
        raise ZeroPivot(fail)
    return x
