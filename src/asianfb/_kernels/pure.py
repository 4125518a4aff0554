"""Pure-Python Thomas loop: the reference of the kernel contract, which the
compiled kernel (thomas.c) is tested against, and its checks.

Plain forward elimination / back substitution without pivoting.  The
elimination computes the pivots and cp alongside the first column's
recurrence, a second column runs the same recurrence over the stored
pivots, and back substitution then runs on each column.  Every column
thus performs the operations of thomas.c in the same order, so each
solution of a (2, n) right-hand side is bit-identical to a single solve
of its column, and to the compiled kernel's.

Before any pivot is tested, ``thomas`` rejects arrays of mismatched
shapes with native's ``check_shape``, which native.thomas runs too, and
a non-finite entry with ``check_finite``, which names the first array
that holds one, as thomas.c names it, and computes the pivot floor with
``pivot_floor``, which thomas.c matches bit for bit.
"""

import math

import numpy as np

from .native import check_shape


def check_finite(lower, diag, upper, rhs) -> None:
    """Raise ValueError naming the first array that holds a NaN or an infinity."""
    for name, values in (("lower", lower), ("diag", diag), ("upper", upper), ("rhs", rhs)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contains non-finite values")


def pivot_floor(diag, pivot_rtol) -> float:
    """The magnitude a pivot must reach: pivot_rtol * max |diag|.

    An all-zero diagonal makes that 0, which no pivot falls below; the
    smallest positive double still catches an exactly zero pivot.
    """
    return max(pivot_rtol * float(np.abs(diag).max()), math.ulp(0.0))


def thomas(lower, diag, upper, rhs, pivot_rtol):
    """Solve the tridiagonal system in O(n).

    lower: n-1 sub-diagonal entries (rows 1..n-1)
    diag:  n diagonal entries
    upper: n-1 super-diagonal entries (rows 0..n-2)
    rhs:   right-hand side, shape (n,) or (2, n); a (2, n) rhs is
           eliminated in one pass and gives a (2, n) solution
    pivot_rtol: elimination aborts when a pivot magnitude falls below
           ``pivot_floor(diag, pivot_rtol)``

    Raises ValueError on mismatched shapes, and, naming the array, on a
    non-finite entry.  Returns (x, fail_index); fail_index is -1 on
    success, else the row whose pivot underflowed (x is then zeros).
    """
    check_shape(lower, diag, upper, rhs)
    check_finite(lower, diag, upper, rhs)
    floor = pivot_floor(diag, pivot_rtol)
    n = len(diag)
    a = lower.tolist()
    b = upper.tolist() + [0.0]  # the last row has no super-diagonal entry
    c = diag.tolist()
    columns = rhs.tolist() if rhs.ndim == 2 else [rhs.tolist()]
    piv = c[0]
    if abs(piv) < floor:
        return np.zeros(rhs.shape), 0
    pivots = [piv] * n
    cp = [0.0] * n
    cp_i = cp[0] = b[0] / piv
    # each column is eliminated in place, its previous row kept in a local
    d = columns[0]
    d_i = d[0] = d[0] / piv
    for i in range(1, n):
        a_i = a[i - 1]
        piv = c[i] - a_i * cp_i
        if abs(piv) < floor:
            return np.zeros(rhs.shape), i
        pivots[i] = piv
        cp_i = cp[i] = b[i] / piv
        d_i = d[i] = (d[i] - a_i * d_i) / piv
    for d in columns[1:]:
        d_i = d[0] = d[0] / pivots[0]
        for i in range(1, n):
            d_i = d[i] = (d[i] - a[i - 1] * d_i) / pivots[i]
    # back substitution overwrites each column with x, from the last row up
    for x in columns:
        x_i = x[n - 1]
        for i in range(n - 2, -1, -1):
            x_i = x[i] = x[i] - cp[i] * x_i
    return np.array(columns if rhs.ndim == 2 else columns[0]), -1
