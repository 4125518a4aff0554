"""Tridiagonal linear algebra: the Thomas solve.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).  A system may carry two right-hand sides, shape
(2, n): the Newton engine solves J11 for F1 and J12 together, in one
elimination, and each solution is bit-identical to a single solve.
``thomas_solve`` validates the system and runs the kernel backend that
``_kernels.active()`` reports (compiled C, or the pure loop when no C
compiler is available); both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZeroPivot

__all__ = ["TridiagonalSystem", "thomas_solve"]

PIVOT_RTOL = 1e-14  # pivot floor relative to max |diagonal|


@dataclass
class TridiagonalSystem:
    """Banded system: lower (n-1), diag (n), upper (n-1), rhs (n) or (2, n)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one row")
        if self.lower.size != n - 1 or self.upper.size != n - 1:
            raise ValueError("off-diagonals must have length n-1")
        if self.rhs.shape not in ((n,), (2, n)):
            raise ValueError("rhs must have shape (n,) or (2, n)")
        for name in ("lower", "diag", "upper", "rhs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} contains non-finite values")


def _pivot_floor(diag: np.ndarray) -> float:
    # An all-zero diagonal makes the relative floor 0, which no pivot falls
    # below; the smallest positive double still catches an exactly zero pivot.
    return max(PIVOT_RTOL * float(np.abs(diag).max()), math.ulp(0.0))


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """O(n) elimination; raises ZeroPivot when a pivot underflows the floor.

    Returns the solution in the shape of ``sys.rhs``.
    """
    x, fail = _kernels.active().thomas(
        sys.lower, sys.diag, sys.upper, sys.rhs, _pivot_floor(sys.diag)
    )
    if fail >= 0:
        raise ZeroPivot(fail)
    return x
