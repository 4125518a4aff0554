"""Tridiagonal linear algebra: Thomas solve plus a dense test oracle.

Classic Thomas elimination without pivoting; the marching schemes keep
their rows diagonally dominant (see scheme), so only a zero-pivot guard
is needed to stay O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ZeroPivot

__all__ = ["TridiagonalSystem", "thomas_solve", "dense_solve"]

PIVOT_RTOL = 1e-14  # pivot floor relative to max |diagonal|


@dataclass
class TridiagonalSystem:
    """Banded system: lower (n-1), diag (n), upper (n-1), rhs (n)."""

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
        if self.rhs.size != n:
            raise ValueError("rhs must have length n")
        for name in ("lower", "diag", "upper", "rhs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.diag * x
        out[1:] += self.lower * x[:-1]
        out[:-1] += self.upper * x[1:]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.diag.size
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n)] = self.diag
        a[np.arange(1, n), np.arange(n - 1)] = self.lower
        a[np.arange(n - 1), np.arange(1, n)] = self.upper
        return a


def _pivot_floor(diag: np.ndarray) -> float:
    return PIVOT_RTOL * float(np.max(np.abs(diag)))


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """O(n) elimination; raises ZeroPivot when a pivot underflows the floor."""
    x, fail = _kernels.active().thomas(
        sys.lower, sys.diag, sys.upper, sys.rhs, _pivot_floor(sys.diag)
    )
    if fail >= 0:
        raise ZeroPivot(fail)
    return x


def dense_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Dense LU oracle (test use only; O(n^3))."""
    return np.linalg.solve(sys.to_dense(), sys.rhs)
