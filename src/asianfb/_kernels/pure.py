"""Pure-Python Thomas kernel: the fallback without a C compiler, and the
reference the compiled kernel (thomas.c) is tested against.

Plain forward elimination / back substitution without pivoting, for one
right-hand side or for two that share the matrix.  The two-column loop
performs, for each column, exactly the operations of the one-column loop
in the same order, so each of its solutions is bit-identical to a single
solve of that column.
"""

import numpy as np


def bind(lower, diag, upper, rhs):
    """The pure loop derives nothing it could reuse: None."""
    return None


def thomas(lower, diag, upper, rhs, pivot_floor, binding=None):
    """Solve the tridiagonal system in O(n).

    lower: n-1 sub-diagonal entries (rows 1..n-1)
    diag:  n diagonal entries
    upper: n-1 super-diagonal entries (rows 0..n-2)
    rhs:   right-hand side, shape (n,) or (2, n); a (2, n) rhs is
           eliminated in one pass and gives a (2, n) solution
    pivot_floor: elimination aborts when a pivot magnitude falls below it
    binding: bind()'s result, accepted for the common contract and unused

    Returns (x, fail_index); fail_index is -1 on success, else the row
    whose pivot underflowed (x is then meaningless).
    """
    if rhs.ndim == 2:
        return _thomas2(lower, diag, upper, rhs, pivot_floor)
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
    dp_i = d[0] / piv
    if n > 1:
        # the previous row's cp/dp stay in locals; the last row, which has
        # no super-diagonal entry, is eliminated after the loop
        cp_i = b[0] / piv
        cp[0] = cp_i
        dp[0] = dp_i
        last = n - 1
        for i in range(1, last):
            a_i = a[i - 1]
            piv = c[i] - a_i * cp_i
            if abs(piv) < pivot_floor:
                return np.zeros(n), i
            cp_i = b[i] / piv
            dp_i = (d[i] - a_i * dp_i) / piv
            cp[i] = cp_i
            dp[i] = dp_i
        a_i = a[last - 1]
        piv = c[last] - a_i * cp_i
        if abs(piv) < pivot_floor:
            return np.zeros(n), last
        dp_i = (d[last] - a_i * dp_i) / piv
    # back substitution overwrites dp with x, from the last row up
    x = dp
    x[n - 1] = x_i = dp_i
    for i in range(n - 2, -1, -1):
        x_i = dp[i] - cp[i] * x_i
        x[i] = x_i
    return np.array(x), -1


def _thomas2(lower, diag, upper, rhs, pivot_floor):
    """thomas() for a (2, n) rhs: one elimination, two substitutions."""
    n = len(diag)
    a = lower.tolist()
    c = diag.tolist()
    b = upper.tolist()
    d, e = rhs.tolist()
    cp = [0.0] * n
    dp = [0.0] * n
    ep = [0.0] * n
    piv = c[0]
    if abs(piv) < pivot_floor:
        return np.zeros((2, n)), 0
    dp_i = d[0] / piv
    ep_i = e[0] / piv
    if n > 1:
        cp_i = b[0] / piv
        cp[0] = cp_i
        dp[0] = dp_i
        ep[0] = ep_i
        last = n - 1
        for i in range(1, last):
            a_i = a[i - 1]
            piv = c[i] - a_i * cp_i
            if abs(piv) < pivot_floor:
                return np.zeros((2, n)), i
            cp_i = b[i] / piv
            dp_i = (d[i] - a_i * dp_i) / piv
            ep_i = (e[i] - a_i * ep_i) / piv
            cp[i] = cp_i
            dp[i] = dp_i
            ep[i] = ep_i
        a_i = a[last - 1]
        piv = c[last] - a_i * cp_i
        if abs(piv) < pivot_floor:
            return np.zeros((2, n)), last
        dp_i = (d[last] - a_i * dp_i) / piv
        ep_i = (e[last] - a_i * ep_i) / piv
    x = dp
    w = ep
    x[n - 1] = x_i = dp_i
    w[n - 1] = w_i = ep_i
    for i in range(n - 2, -1, -1):
        cp_i = cp[i]
        x_i = dp[i] - cp_i * x_i
        w_i = ep[i] - cp_i * w_i
        x[i] = x_i
        w[i] = w_i
    return np.array((x, w)), -1
