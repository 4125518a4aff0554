/* Compiled kernel, loaded through ctypes by native.py: thomas, the
 * Thomas solve, and newton_layer (below), Newton's time layer, which
 * eliminates with thomas.
 *
 * Each column of thomas runs the operations of pure.thomas in the same order, so
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

/* Newton's layer: the iterations of solver_newton.newton_layer over the
 * buffers of a scheme.LayerFrame whose start() has run, called once per
 * time layer by native.newton_layer.
 *
 * Every operation keeps the order of the numpy loop it replaces, so the
 * rows, iterates and diagnostics are bit-identical to it.  Python's z**2
 * calls libm pow, which differs from z*z in the last bit for some z; the
 * kernel is built with -fno-builtin-pow so that pow(z, 2.0) below stays
 * that call and is not folded into a multiplication.
 */

/* The march's constants and the frame's buffers, in LayerFrame's names
 * (native.FrameBinding fills it once per march).  All arrays have n
 * entries, the interior rows i = 1..N-1, except f and x, which are (2, n)
 * row-major: F1 then J12, and u then v. */
struct layer_frame {
    long n;
    long upwind;            /* 1 in upwind-singular mode, 0 in central mode */
    double h, two_h, r, q, half_sig2, diff, sig2;
    const double *exp_neg_xi, *ds, *half_ds_h, *rhs;
    double *lower, *diag, *upper, *da, *dc, *db;
    unsigned char *onesided;  /* numpy bool */
    double *f, *cp, *x;
};

/* The z-free scalars start() computed for one layer. */
struct layer {
    double z_prev, dt, ttm, diag_base, c0, c1;
};

/* newton_layer's status codes (native.py names them) */
#define NEWTON_OK 0
#define NEWTON_NON_POSITIVE_Z 1
#define NEWTON_NON_FINITE 2
#define NEWTON_ZERO_PIVOT 3
#define NEWTON_SINGULAR_SCHUR 4
#define NEWTON_NO_CONVERGENCE 5

/* newton_layer's out[] slots */
enum { OUT_ITERATIONS, OUT_Z, OUT_INITIAL_RESIDUAL, OUT_ONESIDED_ROWS,
       OUT_DOMINANCE_VIOLATIONS, OUT_RESIDUAL_F1, OUT_RESIDUAL_F2,
       OUT_UPWINDED, OUT_FAILURE, OUT_SLOTS };

/* np.abs(v).max(): a NaN anywhere gives NaN */
static double max_abs(const double *v, long n)
{
    double m = fabs(v[0]);
    long i;

    for (i = 1; i < n; i++) {
        double a = fabs(v[i]);
        if (a > m || isnan(a))
            m = a;
    }
    return m;
}

/* Python's max(a, b) */
static double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* LayerFrame.rows(z) (z > 0): the rows, their z-derivatives and the
 * one-sided mask.  Returns the number of upwinded rows. */
static long frame_rows(const struct layer_frame *f, const struct layer *l, double z)
{
    double mu = (z - l->z_prev) / (l->dt * z) + f->r - f->q - f->half_sig2;
    double dmu = l->z_prev / (l->dt * pow(z, 2.0));
    double adv = 0.5 * mu / f->h;
    double lower = -adv - f->diff, upper = adv - f->diff;
    double da = -0.5 * dmu / f->h, db = 0.5 * dmu / f->h;
    double limit = f->sig2 / f->h;
    long i, count = 0;

    for (i = 0; i < f->n; i++) {
        double s = (f->exp_neg_xi[i] * z - 1.0) / l->ttm;
        double d = s * 0.5 / f->h;
        /* central rows */
        f->lower[i] = d + lower;
        f->upper[i] = upper - d;
        f->da[i] = f->half_ds_h[i] + da;
        f->db[i] = db - f->half_ds_h[i];
        if (!f->upwind)
            continue;
        /* |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal */
        f->onesided[i] = fabs(mu - s) > limit;
        if (!f->onesided[i]) {
            f->diag[i] = l->diag_base;
            f->dc[i] = 0.0;
            continue;
        }
        /* the singular term upwinded: forward where s_i >= 0, backward otherwise */
        count++;
        if (s >= 0.0) {
            f->lower[i] = lower + 0.0;
            f->upper[i] = upper - s / f->h;
            f->da[i] = da + 0.0;
            f->dc[i] = f->ds[i] / f->h;
            f->db[i] = db - f->ds[i] / f->h;
        } else {
            f->lower[i] = lower + s / f->h;
            f->upper[i] = upper - 0.0;
            f->da[i] = da + f->ds[i] / f->h;
            f->dc[i] = -f->ds[i] / f->h;
            f->db[i] = db - 0.0;
        }
        f->diag[i] = l->diag_base + fabs(s) / f->h;
    }
    return count;
}

/* F1 into f[0:n] (interior_residual); y carries its boundary values */
static void interior_residual(const struct layer_frame *f, const double *y)
{
    long i;

    for (i = 0; i < f->n; i++)
        f->f[i] = f->lower[i] * y[i] + f->diag[i] * y[i + 1] + f->upper[i] * y[i + 2]
            - f->rhs[i];
}

/* F2 (LayerFrame.residual_constraint) */
static double residual_constraint(const struct layer_frame *f, const struct layer *l,
                                  const double *y, double z)
{
    return z - (l->c0 + l->c1 * ((-3.0 * y[0] + 4.0 * y[1] - y[2]) / f->two_h));
}

/* Newton's iterations on one layer from (y, z_prev), updating y[1..n] in
 * place; j21_y1, j21_y2 are the constraint row, and tol, max_iter,
 * pivot_rtol and schur_floor those of the Python loop.  Returns NEWTON_OK
 * with the accepted z and the layer's diagnostics in out[], or the status
 * of the first failure, with out[OUT_FAILURE] = the non-positive z, the
 * failing pivot row, the Schur denominator or the last step.  Either way
 * out[OUT_UPWINDED] counts the rows the last frame_rows() upwinded. */
long newton_layer(const struct layer_frame *f, double *y, double z_prev, double dt,
                  double ttm, double diag_base, double c0, double c1, double j21_y1,
                  double j21_y2, double tol, long max_iter, double pivot_rtol,
                  double schur_floor, double *out)
{
    const struct layer l = {z_prev, dt, ttm, diag_base, c0, c1};
    const long n = f->n;
    double *u = f->x, *v = f->x + n, *j12 = f->f + n;
    double z = z_prev, step = 0.0, f2;
    long it, i, onesided, violations = 0, onesided_max = 0, fail;

    out[OUT_UPWINDED] = 0.0;  /* start() left no row upwinded */
    for (it = 1; it <= max_iter; it++) {
        double j21_u, j21_v, denom, dz, step_y;

        if (z <= 0) {
            out[OUT_FAILURE] = z;
            return NEWTON_NON_POSITIVE_Z;
        }
        onesided = frame_rows(f, &l, z);
        out[OUT_UPWINDED] = (double)onesided;
        interior_residual(f, y);
        for (i = 0; i < n; i++)
            j12[i] = f->da[i] * y[i] + f->dc[i] * y[i + 1] + f->db[i] * y[i + 2];
        f2 = residual_constraint(f, &l, y, z);
        if (it == 1)
            out[OUT_INITIAL_RESIDUAL] = py_max(max_abs(f->f, n), fabs(f2));
        if (onesided > onesided_max)
            onesided_max = onesided;
        for (i = 0; i < n; i++)
            violations += fabs(f->diag[i]) <= fabs(f->lower[i]) + fabs(f->upper[i]);

        /* u = J11^{-1} F1 and v = J11^{-1} J12 in one elimination */
        fail = thomas(n, 2, f->lower + 1, f->diag, f->upper, f->f, pivot_rtol, f->cp, f->x);
        if (fail == THOMAS_NON_FINITE)
            return NEWTON_NON_FINITE;
        if (fail >= 0) {
            out[OUT_FAILURE] = (double)fail;
            return NEWTON_ZERO_PIVOT;
        }
        j21_u = j21_y1 * u[0] + j21_y2 * u[1];
        j21_v = j21_y1 * v[0] + j21_y2 * v[1];
        denom = 1.0 - j21_v;  /* J22 = 1 */
        if (fabs(denom) < schur_floor) {
            out[OUT_FAILURE] = denom;
            return NEWTON_SINGULAR_SCHUR;
        }
        dz = (-f2 + j21_u) / denom;
        for (i = 0; i < n; i++) {  /* dY1 = -u - v dz, kept in u */
            u[i] = -u[i] - v[i] * dz;
            y[i + 1] += u[i];
        }
        step_y = max_abs(u, n);
        z = z + dz;
        step = py_max(step_y, fabs(dz));
        if (step < tol)
            break;
    }
    if (it > max_iter) {
        out[OUT_FAILURE] = step;
        return NEWTON_NO_CONVERGENCE;
    }
    if (z <= 0) {
        out[OUT_FAILURE] = z;
        return NEWTON_NON_POSITIVE_Z;
    }
    out[OUT_UPWINDED] = (double)frame_rows(f, &l, z);
    interior_residual(f, y);
    out[OUT_ITERATIONS] = (double)it;
    out[OUT_Z] = z;
    out[OUT_ONESIDED_ROWS] = (double)onesided_max;
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_RESIDUAL_F1] = max_abs(f->f, n);
    out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, &l, y, z));
    return NEWTON_OK;
}
