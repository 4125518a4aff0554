"""Tridiagonal linear algebra: the Thomas solve.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).  A system may carry two right-hand sides, shape
(2, n): the Newton engine solves J11 for F1 and J12 together, in one
elimination, and each solution is bit-identical to a single solve.
``thomas_solve`` runs the kernel backend that ``_kernels.active()``
reports (compiled C, or the pure loop when no C compiler is available);
both give the same bits, and both reject a non-finite entry and take the
pivot floor from ``PIVOT_RTOL`` in the pass that reads the arrays.  With
the compiled kernel, Newton's eliminations run inside its one C call per
layer (solver_newton), which takes ``PIVOT_RTOL`` from here.

A system can be solved again after its arrays are overwritten in place.
The engines keep one per march over the row buffers of their
scheme.LayerFrame, so the checks of shape and dtype are made once per
march; the kernel's finiteness check runs at every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZeroPivot

__all__ = ["TridiagonalSystem", "thomas_solve"]

PIVOT_RTOL = 1e-14  # pivot floor relative to max |diagonal|


@dataclass(frozen=True)
class TridiagonalSystem:
    """Banded system: lower (n-1), diag (n), upper (n-1), rhs (n) or (2, n).

    Construction converts each array to float and checks shapes and
    finiteness.  The fields cannot be rebound, but their entries may be
    overwritten between solves.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one row")
        if self.lower.size != n - 1 or self.upper.size != n - 1:
            raise ValueError("off-diagonals must have length n-1")
        if self.rhs.shape not in ((n,), (2, n)):
            raise ValueError("rhs must have shape (n,) or (2, n)")
        _kernels.pure.check_finite(self.lower, self.diag, self.upper, self.rhs)


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """O(n) elimination; raises ValueError on a non-finite entry and
    ZeroPivot when a pivot underflows the floor.

    Returns the solution in the shape of ``sys.rhs``, in an array of its own.
    """
    x, fail = _kernels.active().thomas(sys.lower, sys.diag, sys.upper, sys.rhs, PIVOT_RTOL)
    if fail >= 0:
        raise ZeroPivot(fail)
    return x
