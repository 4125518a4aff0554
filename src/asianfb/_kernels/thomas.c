/* Compiled Thomas kernel, loaded through ctypes by native.py.
 *
 * Each column runs the operations of pure.thomas in the same order, so
 * its solution is bit-identical to the pure loop's: build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 *
 * n rows; ncol right-hand sides stored row-major in d (column k starts
 * at d + k n); a: n-1 sub-diagonal entries (rows 1..n-1), c: n diagonal
 * entries, b: n-1 super-diagonal entries (rows 0..n-2).  cp is n doubles
 * of scratch; x (ncol n doubles) receives the solutions.
 *
 * One pass over c, then a and b, then d checks every entry is finite and
 * takes max |c|; the pivot floor is max(pivot_rtol max |c|, the smallest
 * positive double), so an all-zero diagonal still fails at row 0.
 * Returns THOMAS_NON_FINITE when an entry is NaN or infinite (before any
 * pivot is tested), else the first row whose pivot magnitude falls below
 * the floor, or -1 on success.
 */
#include <float.h>
#include <math.h>

#define THOMAS_NON_FINITE (-2)

long thomas(long n, long ncol, const double *a, const double *c, const double *b,
            const double *d, double pivot_rtol, double *cp, double *x)
{
    double cmax = 0.0, floor, piv;
    long i, k;

    for (i = 0; i < n; i++) {
        if (!isfinite(c[i]))
            return THOMAS_NON_FINITE;
        if (fabs(c[i]) > cmax)
            cmax = fabs(c[i]);
    }
    for (i = 0; i < n - 1; i++)
        if (!isfinite(a[i]) || !isfinite(b[i]))
            return THOMAS_NON_FINITE;
    for (i = 0; i < ncol * n; i++)
        if (!isfinite(d[i]))
            return THOMAS_NON_FINITE;
    floor = pivot_rtol * cmax;
    if (floor < DBL_TRUE_MIN)
        floor = DBL_TRUE_MIN;

    piv = c[0];
    if (fabs(piv) < floor)
        return 0;
    for (k = 0; k < ncol; k++)
        x[k * n] = d[k * n] / piv;
    if (n > 1)
        cp[0] = b[0] / piv;
    for (i = 1; i < n; i++) {
        double a_i = a[i - 1];
        piv = c[i] - a_i * cp[i - 1];
        if (fabs(piv) < floor)
            return i;
        if (i < n - 1)
            cp[i] = b[i] / piv;
        for (k = 0; k < ncol; k++)
            x[k * n + i] = (d[k * n + i] - a_i * x[k * n + i - 1]) / piv;
    }
    /* back substitution overwrites the eliminated rhs with x, last row up */
    for (k = 0; k < ncol; k++) {
        double *xk = x + k * n;
        for (i = n - 2; i >= 0; i--)
            xk[i] = xk[i] - cp[i] * xk[i + 1];
    }
    return -1;
}
