/* Compiled Thomas kernel, loaded through ctypes by native.py.
 *
 * Each column runs the operations of pure.thomas in the same order, so
 * its solution is bit-identical to the pure loop's: build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 *
 * n rows; ncol right-hand sides stored row-major in d (column k starts
 * at d + k n); a: n-1 sub-diagonal entries (rows 1..n-1), c: n diagonal
 * entries, b: n-1 super-diagonal entries (rows 0..n-2).  cp is n doubles
 * of scratch; x (ncol n doubles) receives the solutions.  Returns the
 * first row whose pivot magnitude falls below floor, or -1 on success.
 */
#include <math.h>

long thomas(long n, long ncol, const double *a, const double *c, const double *b,
            const double *d, double floor, double *cp, double *x)
{
    double piv = c[0];
    long i, k;

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
