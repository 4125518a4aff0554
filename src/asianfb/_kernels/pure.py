"""Pure-Python elimination: the reference of the kernel contract, which the
compiled kernel (thomas.c) is tested against, and its checks.

The one elimination of thomas.c without pivoting: a downward chain of
rows 0 .. m - 1 and an upward one of rows n - 1 .. m + 1 meet at row m,
and back substitution runs outward from m.  The contract's solve meets
at the last row, m = n - 1, where the upward chain is empty and the
elimination is the Thomas sweep; the tests' twins of pc's solves meet at
m = n // 2, as thomas.c's do.  Every pivot and cp is computed first,
dividing as C divides doubles (an exact zero pivot gives an infinity or
a NaN), and tested against the floor; only then are the one or two
columns eliminated and back-substituted, each over the stored pivots, in
the order of thomas.c's operations.  So each solution of a (2, n)
right-hand side is bit-identical to a single solve of its column, and to
the compiled kernel's.

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


def _divide(num, pivot):
    """num / pivot for a zero pivot, as C divides doubles: an infinity, or a NaN for 0/0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(num) / pivot)


def thomas(lower, diag, upper, rhs, pivot_rtol, *, meet=None):
    """Solve the tridiagonal system in O(n).

    lower: n-1 sub-diagonal entries (rows 1..n-1)
    diag:  n diagonal entries
    upper: n-1 super-diagonal entries (rows 0..n-2)
    rhs:   right-hand side, shape (n,) or (2, n); a (2, n) rhs is
           eliminated in one pass and gives a (2, n) solution
    pivot_rtol: elimination aborts when a pivot magnitude falls below
           ``pivot_floor(diag, pivot_rtol)``
    meet:  the row m, 0 <= m < n, where the downward chain (rows 0 .. m - 1)
           meets the upward one (rows n - 1 .. m + 1); by default n - 1

    Raises ValueError on mismatched shapes, and, naming the array, on a
    non-finite entry.  Returns (x, fail_index); fail_index is -1 on
    success, else the lowest row whose pivot underflowed (x is then zeros).
    """
    check_shape(lower, diag, upper, rhs)
    check_finite(lower, diag, upper, rhs)
    floor = pivot_floor(diag, pivot_rtol)
    n = len(diag)
    m = n - 1 if meet is None else meet
    # a[i], b[i] and c[i] are row i's entries, with a[0] = b[n - 1] = 0: where a
    # chain has no previous row (its first row, or the meeting row of a chain
    # that took none), the row subtracts 0 * 0, which leaves its values as they are
    a = [0.0] + lower.tolist()
    b = upper.tolist() + [0.0]
    c = diag.tolist()
    piv, cp = [0.0] * n, [0.0] * n
    down = up = 0.0  # the last cp of each chain
    for i in range(m):  # cp_i = b_i / piv_i
        p = piv[i] = c[i] - a[i] * down
        down = cp[i] = b[i] / p if p else _divide(b[i], p)
    for i in range(n - 1, m, -1):  # cq_i = a_i / piv_i, kept in cp
        p = piv[i] = c[i] - b[i] * up
        up = cp[i] = a[i] / p if p else _divide(a[i], p)
    piv[m] = c[m] - a[m] * down - b[m] * up
    for i, p in enumerate(piv):
        if abs(p) < floor:
            return np.zeros(rhs.shape), i
    columns = rhs.tolist() if rhs.ndim == 2 else [rhs.tolist()]
    for x in columns:  # each column eliminated and then overwritten with its solution
        down = up = 0.0  # the last value of each chain
        for i in range(m):
            down = x[i] = (x[i] - a[i] * down) / piv[i]
        for i in range(n - 1, m, -1):
            up = x[i] = (x[i] - b[i] * up) / piv[i]
        down = up = x[m] = (x[m] - a[m] * down - b[m] * up) / piv[m]
        for i in range(m - 1, -1, -1):
            down = x[i] = x[i] - cp[i] * down
        for i in range(m + 1, n):
            up = x[i] = x[i] - cp[i] * up
    return np.array(columns if rhs.ndim == 2 else columns[0]), -1
