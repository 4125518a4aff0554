"""Pure-Python Thomas kernel: the fallback without a C compiler, and the
reference the compiled kernel (thomas.c) is tested against.

Plain forward elimination / back substitution without pivoting.  The
elimination computes the pivots and cp alongside the first column's
recurrence, a second column runs the same recurrence over the stored
pivots, and back substitution then runs on each column.  Every column
thus performs the operations of thomas.c in the same order, so each
solution of a (2, n) right-hand side is bit-identical to a single solve
of its column, and to the compiled kernel's.
"""

import numpy as np


def thomas(lower, diag, upper, rhs, pivot_floor):
    """Solve the tridiagonal system in O(n).

    lower: n-1 sub-diagonal entries (rows 1..n-1)
    diag:  n diagonal entries
    upper: n-1 super-diagonal entries (rows 0..n-2)
    rhs:   right-hand side, shape (n,) or (2, n); a (2, n) rhs is
           eliminated in one pass and gives a (2, n) solution
    pivot_floor: elimination aborts when a pivot magnitude falls below it

    Returns (x, fail_index); fail_index is -1 on success, else the row
    whose pivot underflowed (x is then zeros).
    """
    n = len(diag)
    a = lower.tolist()
    b = upper.tolist() + [0.0]  # the last row has no super-diagonal entry
    c = diag.tolist()
    columns = rhs.tolist() if rhs.ndim == 2 else [rhs.tolist()]
    piv = c[0]
    if abs(piv) < pivot_floor:
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
        if abs(piv) < pivot_floor:
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
