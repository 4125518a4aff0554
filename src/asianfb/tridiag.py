"""Tridiagonal linear algebra: the Thomas solve.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).  A system may carry two right-hand sides, shape
(2, n): the Newton engine solves J11 for F1 and J12 together, in one
elimination, and each solution is bit-identical to a single solve.
``thomas_solve`` checks the system and runs the kernel backend that
``_kernels.active()`` reports (compiled C, or the pure loop when no C
compiler is available); both give the same bits.

A system can be solved again after its arrays are overwritten in place.
The engines keep one per march over the row buffers of their
scheme.LayerFrame, so the checks of shape and dtype and the backend's
binding (the compiled kernel's array addresses and work row) are made
once per march; the finiteness check runs at every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    # (backend module, its binding of these arrays), made at the first solve
    _binding: list = field(default_factory=lambda: [None, None], init=False,
                           repr=False, compare=False)

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
        _check_finite(self)


def _check_finite(sys: TridiagonalSystem) -> None:
    for name in ("lower", "diag", "upper", "rhs"):
        if not np.isfinite(getattr(sys, name)).all():
            raise ValueError(f"{name} contains non-finite values")


def _pivot_floor(diag: np.ndarray) -> float:
    # An all-zero diagonal makes the relative floor 0, which no pivot falls
    # below; the smallest positive double still catches an exactly zero pivot.
    return max(PIVOT_RTOL * float(np.abs(diag).max()), math.ulp(0.0))


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """O(n) elimination; raises ValueError on a non-finite entry and
    ZeroPivot when a pivot underflows the floor.

    Returns the solution in the shape of ``sys.rhs``, in an array of its own.
    """
    _check_finite(sys)
    backend = _kernels.active()
    binding = sys._binding
    if binding[0] is not backend:
        binding[:] = backend, backend.bind(sys.lower, sys.diag, sys.upper, sys.rhs)
    x, fail = backend.thomas(sys.lower, sys.diag, sys.upper, sys.rhs,
                             _pivot_floor(sys.diag), binding[1])
    if fail >= 0:
        raise ZeroPivot(fail)
    return x
