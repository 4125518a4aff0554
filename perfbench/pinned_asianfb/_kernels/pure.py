"""Pure-Python Thomas kernel (fallback for the Cython extension).

Plain forward elimination / back substitution without pivoting.  The
operation order matches _native.pyx exactly so both backends produce
bit-identical results.
"""

import numpy as np


def thomas(lower, diag, upper, rhs, pivot_floor):
    """Solve the tridiagonal system in O(n).

    lower: n-1 sub-diagonal entries (rows 1..n-1)
    diag:  n diagonal entries
    upper: n-1 super-diagonal entries (rows 0..n-2)
    rhs:   n right-hand side entries
    pivot_floor: elimination aborts when a pivot magnitude falls below it

    Returns (x, fail_index); fail_index is -1 on success, else the row
    whose pivot underflowed (x is then meaningless).
    """
    n = len(diag)
    a = lower.tolist()
    c = diag.tolist()
    b = upper.tolist()
    d = rhs.tolist()
    cp = [0.0] * n
    dp = [0.0] * n
    piv = c[0]
    if abs(piv) < pivot_floor:
        return np.zeros(n), 0
    if n > 1:
        cp[0] = b[0] / piv
    dp[0] = d[0] / piv
    for i in range(1, n):
        piv = c[i] - a[i - 1] * cp[i - 1]
        if abs(piv) < pivot_floor:
            return np.zeros(n), i
        if i < n - 1:
            cp[i] = b[i] / piv
        dp[i] = (d[i] - a[i - 1] * dp[i - 1]) / piv
    x = [0.0] * n
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.asarray(x), -1
