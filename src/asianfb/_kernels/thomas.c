/* Compiled kernel, loaded through ctypes by native.py: thomas, the
 * Thomas solve, and the time layers of both engines, which eliminate with
 * thomas: newton_layer, Newton's iterations, and pc_predictor and
 * pc_corrector, the two halves of a predictor-corrector layer (below);
 * and fixed9_rows, the CSV writer's "%.9f" cells (at the end).
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

/* The time layers: newton_layer, the iterations of
 * solver_newton.newton_layer, and pc_corrector, solver_pc._correct with
 * the layer's diagnostics, each over the buffers of a scheme.LayerFrame
 * whose start() has run; and pc_predictor, solver_pc.predictor's scalar
 * root.  native.py calls each once per time layer.
 *
 * Every operation keeps the order of the numpy twin that the tests keep
 * as its oracle (tests/_oracles.py: newton_layer_numpy, correct_numpy,
 * predictor_numpy), so the rows, iterates, roots and diagnostics are
 * bit-identical to it.
 * Python's z**2 (on a float or a numpy float64) calls libm pow, which
 * differs from z*z in the last bit for some z; the kernel is built with
 * -fno-builtin-pow so that pow(z, 2.0) below stays that call and is not
 * folded into a multiplication.  math.exp is libm exp too.
 */

/* The march's constants and the frame's buffers, in LayerFrame's names
 * (native.FrameBinding fills it once per march).  All arrays have n
 * entries, the interior rows i = 1..N-1, except f and x, which are (2, n)
 * row-major: F1 then J12, and u then v.  single is the frame's one-column
 * right-hand side, which pc solves in place. */
struct layer_frame {
    long n;
    long upwind;            /* 1 in upwind-singular mode, 0 in central mode */
    double h, two_h, r, q, half_sig2, diff, sig2;
    const double *exp_neg_xi, *ds, *half_ds_h, *rhs;
    double *lower, *diag, *upper, *da, *dc, *db;
    unsigned char *onesided;  /* numpy bool */
    double *f, *single, *cp, *x;
};

/* The z-free scalars start() computed for one layer. */
struct layer {
    double z_prev, dt, ttm, diag_base, c0, c1;
};

/* The layer functions' status codes (native.py names them) */
#define LAYER_OK 0
#define LAYER_NON_POSITIVE_Z 1
#define LAYER_NON_FINITE 2
#define LAYER_ZERO_PIVOT 3
#define LAYER_SINGULAR_SCHUR 4
#define LAYER_NO_CONVERGENCE 5
#define LAYER_NO_BRACKET 6

/* The layer functions' out[] slots; each fills those it reports */
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

/* The rows at z > 0 (the oracles' frame_rows): the rows, their z-derivatives and the
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

/* F1 into f[0:n]; y carries its boundary values */
static void interior_residual(const struct layer_frame *f, const double *y)
{
    long i;

    for (i = 0; i < f->n; i++)
        f->f[i] = f->lower[i] * y[i] + f->diag[i] * y[i + 1] + f->upper[i] * y[i + 2]
            - f->rhs[i];
}

/* F2 at (y, z) */
static double residual_constraint(const struct layer_frame *f, const struct layer *l,
                                  const double *y, double z)
{
    return z - (l->c0 + l->c1 * ((-3.0 * y[0] + 4.0 * y[1] - y[2]) / f->two_h));
}

/* thomas on J11 (the frame's lower[1:], diag and upper[:-1]) for ncol
 * right-hand sides d, solved into x.  Returns LAYER_OK, LAYER_NON_FINITE,
 * or LAYER_ZERO_PIVOT with the failing row in out[OUT_FAILURE]. */
static long eliminate(const struct layer_frame *f, long ncol, const double *d, double *x,
                      double pivot_rtol, double *out)
{
    long fail = thomas(f->n, ncol, f->lower + 1, f->diag, f->upper, d, pivot_rtol, f->cp, x);

    if (fail == THOMAS_NON_FINITE)
        return LAYER_NON_FINITE;
    if (fail >= 0) {
        out[OUT_FAILURE] = (double)fail;
        return LAYER_ZERO_PIVOT;
    }
    return LAYER_OK;
}

/* Newton's iterations on one layer from (y, z_prev), updating y[1..n] in
 * place; j21_y1, j21_y2 are the constraint row, and tol, max_iter,
 * pivot_rtol and schur_floor those of solver_newton.  Returns LAYER_OK
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
    long it, i, onesided, violations = 0, onesided_max = 0, status;

    out[OUT_UPWINDED] = 0.0;  /* start() left no row upwinded */
    for (it = 1; it <= max_iter; it++) {
        double j21_u, j21_v, denom, dz, step_y;

        if (z <= 0) {
            out[OUT_FAILURE] = z;
            return LAYER_NON_POSITIVE_Z;
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
        status = eliminate(f, 2, f->f, f->x, pivot_rtol, out);
        if (status != LAYER_OK)
            return status;
        j21_u = j21_y1 * u[0] + j21_y2 * u[1];
        j21_v = j21_y1 * v[0] + j21_y2 * v[1];
        denom = 1.0 - j21_v;  /* J22 = 1 */
        if (fabs(denom) < schur_floor) {
            out[OUT_FAILURE] = denom;
            return LAYER_SINGULAR_SCHUR;
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
        return LAYER_NO_CONVERGENCE;
    }
    if (z <= 0) {
        out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    out[OUT_UPWINDED] = (double)frame_rows(f, &l, z);
    interior_residual(f, y);
    out[OUT_ITERATIONS] = (double)it;
    out[OUT_Z] = z;
    out[OUT_ONESIDED_ROWS] = (double)onesided_max;
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_RESIDUAL_F1] = max_abs(f->f, n);
    out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, &l, y, z));
    return LAYER_OK;
}

/* pc's frozen solve: the rows at z > 0, and
 * y[1..n] solved from them with the Dirichlet values y[0] = -1 and
 * y[n+1] = 0, in the frame's single right-hand side */
static long frozen_solve(const struct layer_frame *f, const struct layer *l, double z,
                         double *y, double pivot_rtol, double *out)
{
    long i;

    if (z <= 0) {
        out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    out[OUT_UPWINDED] = (double)frame_rows(f, l, z);
    for (i = 0; i < f->n; i++)
        f->single[i] = f->rhs[i];
    f->single[0] += f->lower[0];  /* a_1 y_0 with the Dirichlet value y_0 = -1 */
    y[0] = -1.0;
    y[f->n + 1] = 0.0;
    return eliminate(f, 1, f->single, y + 1, pivot_rtol, out);
}

/* pc's corrector on one layer from z_tilde: the
 * frozen solve at z_tilde, one Schur step on the boundary, the frozen
 * solve at the new z, written into y (n + 2 entries), and the layer's
 * diagnostics.  The scalars are those of newton_layer.  Returns LAYER_OK
 * with out[OUT_Z], out[OUT_RESIDUAL_F1] (the row-wise backward error),
 * out[OUT_RESIDUAL_F2], out[OUT_ONESIDED_ROWS] and
 * out[OUT_DOMINANCE_VIOLATIONS], or the status of the first failure with
 * out[OUT_FAILURE] = the non-positive z, the failing pivot row or the
 * Schur denominator.  out[OUT_UPWINDED] counts the rows the last
 * frame_rows() upwinded. */
long pc_corrector(const struct layer_frame *f, double *y, double z_prev, double dt,
                  double ttm, double diag_base, double c0, double c1, double j21_y1,
                  double j21_y2, double z_tilde, double pivot_rtol, double schur_floor,
                  double *out)
{
    const struct layer l = {z_prev, dt, ttm, diag_base, c0, c1};
    const long n = f->n;
    double *v = f->x, denom, z, backward = 0.0;
    long i, status, violations = 0;

    out[OUT_UPWINDED] = 0.0;  /* start() left no row upwinded */
    status = frozen_solve(f, &l, z_tilde, y, pivot_rtol, out);
    if (status != LAYER_OK)
        return status;
    /* one Newton step on (F1, F2) from (y, z_tilde), where F1 vanishes:
     * dz = -F2 / (1 - J21 J11^{-1} J12) */
    for (i = 0; i < n; i++)
        f->single[i] = f->da[i] * y[i] + f->dc[i] * y[i + 1] + f->db[i] * y[i + 2];
    status = eliminate(f, 1, f->single, v, pivot_rtol, out);
    if (status != LAYER_OK)
        return status;
    denom = 1.0 - (j21_y1 * v[0] + j21_y2 * v[1]);
    if (fabs(denom) < schur_floor) {
        out[OUT_FAILURE] = denom;
        return LAYER_SINGULAR_SCHUR;
    }
    z = z_tilde - residual_constraint(f, &l, y, z_tilde) / denom;
    status = frozen_solve(f, &l, z, y, pivot_rtol, out);
    if (status != LAYER_OK)
        return status;

    /* |F1_i| over the magnitudes of the terms F1_i sums; a NaN wins the max */
    for (i = 0; i < n; i++) {
        double lo = f->lower[i] * y[i], mid = f->diag[i] * y[i + 1];
        double up = f->upper[i] * y[i + 2];
        double terms = fabs(lo) + fabs(mid) + fabs(up) + fabs(f->rhs[i]);
        double e = fabs(lo + mid + up - f->rhs[i]) / (terms > 0.0 ? terms : 1.0);

        if (i == 0 || e > backward || isnan(e))
            backward = e;
        violations += fabs(f->diag[i]) <= fabs(f->lower[i]) + fabs(f->upper[i]);
    }
    out[OUT_Z] = z;
    out[OUT_RESIDUAL_F1] = backward;
    out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, &l, y, z));
    out[OUT_ONESIDED_ROWS] = out[OUT_UPWINDED];
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    return LAYER_OK;
}

/* The predictor's scalar equations (I) and (II) for one layer
 * (the oracles' predictor_equations), with their z-free terms, each
 * computed in the order of the Python expression it stands for. */
struct predictor_eq {
    double q, r, z_prev, dt, ttm, drift, exp_h, h2, sig4, y1p, grad_prev;
    double two_h_sig2;      /* 2h/sigma^2 */
    double beta_h2_sig2;    /* beta h^2/sigma^2 */
    double half_sig2_lap;   /* (sigma^2/2) lap_prev */
    double beta_y1p;        /* beta y1p */
    double two_h2_sig4;     /* 2h^2/sigma^4 */
    double dg, inv_ttm, exp_h_ttm;
};

/* the right side of (I) at z */
static double eq_i(const struct predictor_eq *e, double z)
{
    double g_val = e->q * z - e->r + (z - 1.0) / e->ttm;
    double alpha0 = (z - e->z_prev) / (e->dt * z) + e->drift - (z - 1.0) / e->ttm;

    return (2.0 * alpha0 * e->h2 / e->sig4 + e->two_h_sig2) * g_val - e->beta_h2_sig2 - 1.0;
}

/* the right side of (II) at z */
static double eq_ii(const struct predictor_eq *e, double z)
{
    double alpha1 = (z - e->z_prev) / (e->dt * z) + e->drift - (z * e->exp_h - 1.0) / e->ttm;
    double flux = alpha1 * e->grad_prev - e->half_sig2_lap;

    return e->y1p - e->dt * (flux + e->beta_y1p);
}

static double predictor_residual(const struct predictor_eq *e, double z)
{
    return eq_i(e, z) - eq_ii(e, z);
}

static double predictor_derivative(const struct predictor_eq *e, double z)
{
    double g_val = e->q * z - e->r + (z - 1.0) / e->ttm;
    double alpha0 = (z - e->z_prev) / (e->dt * z) + e->drift - (z - 1.0) / e->ttm;
    double dalpha = e->z_prev / (e->dt * pow(z, 2.0));
    double d_i = e->two_h2_sig4 * (dalpha - e->inv_ttm) * g_val
        + (2.0 * alpha0 * e->h2 / e->sig4 + e->two_h_sig2) * e->dg;
    double d_flux = (dalpha - e->exp_h_ttm) * e->grad_prev;
    double d_ii = -e->dt * d_flux;

    return d_i - d_ii;
}

/* np.sign */
static double sign(double v)
{
    if (v > 0.0)
        return 1.0;
    if (v < 0.0)
        return -1.0;
    return v == 0.0 ? 0.0 : v;  /* 0 for either zero, NaN for NaN */
}

/* solver_pc.predictor's root from the previous layer's z_prev and y0, y1,
 * y2, the step dt and ttm = T - tau_next: the bracket scan (scan + 1
 * points of np.linspace(z_prev / f, z_prev f) for f = bracket_factor,
 * bracket_factor^2, ... over `expansions` widenings, keeping the sign-change cell whose
 * midpoint is nearest z_prev), then safeguarded Newton inside it.
 * Returns LAYER_OK with out[OUT_Z] and out[OUT_ITERATIONS], or
 * LAYER_NO_BRACKET with the widest factor, LAYER_NO_CONVERGENCE with the
 * last step or LAYER_NON_POSITIVE_Z with the root in out[OUT_FAILURE]. */
long pc_predictor(double z_prev, double dt, double ttm, double r, double q, double sigma,
                  double h, double y0p, double y1p, double y2p, long scan,
                  double bracket_factor, long expansions, double root_tol, long max_iter,
                  double *out)
{
    struct predictor_eq e;
    double sig2 = pow(sigma, 2.0), beta = r + 1.0 / ttm, lap_prev;
    double zs[scan + 1], vals[scan + 1];
    double factor = bracket_factor, widest = factor, lo, hi, f_lo, x, fx, step = 0.0;
    long k, i, it, pick = -1;

    e.q = q;
    e.r = r;
    e.z_prev = z_prev;
    e.dt = dt;
    e.ttm = ttm;
    e.drift = r - q - 0.5 * sig2;
    e.exp_h = exp(-h);
    e.h2 = pow(h, 2.0);
    e.sig4 = pow(sig2, 2.0);
    e.y1p = y1p;
    e.grad_prev = (y2p - y0p) / (2.0 * h);
    lap_prev = (y2p - 2.0 * y1p + y0p) / e.h2;
    e.two_h_sig2 = 2.0 * h / sig2;
    e.beta_h2_sig2 = beta * e.h2 / sig2;
    e.half_sig2_lap = 0.5 * sig2 * lap_prev;
    e.beta_y1p = beta * y1p;
    e.two_h2_sig4 = 2.0 * e.h2 / e.sig4;
    e.dg = q + 1.0 / ttm;
    e.inv_ttm = 1.0 / ttm;
    e.exp_h_ttm = e.exp_h / ttm;

    for (k = 0; k < expansions && pick < 0; k++) {
        double start = z_prev / factor, stop = z_prev * factor, best = 0.0;
        double delta = stop - start, dz = delta / (double)scan;

        for (i = 0; i < scan; i++)  /* np.linspace's grid, its endpoint set exactly */
            zs[i] = dz == 0.0 ? (double)i / (double)scan * delta + start
                              : (double)i * dz + start;
        zs[scan] = stop;
        for (i = 0; i <= scan; i++)
            vals[i] = predictor_residual(&e, zs[i]);
        /* np.argmin over the cells' distances: the first minimum, or the first NaN */
        for (i = 0; i < scan; i++) {
            double d;

            if (!(sign(vals[i]) * sign(vals[i + 1]) <= 0.0))
                continue;
            d = fabs(0.5 * (zs[i] + zs[i + 1]) - z_prev);
            if (pick < 0 || (!isnan(best) && (d < best || isnan(d)))) {
                pick = i;
                best = d;
            }
        }
        widest = factor;
        factor *= bracket_factor;
    }
    if (pick < 0) {
        out[OUT_FAILURE] = widest;
        return LAYER_NO_BRACKET;
    }
    lo = zs[pick];
    hi = zs[pick + 1];
    f_lo = vals[pick];

    x = 0.5 * (lo + hi);
    fx = predictor_residual(&e, x);
    for (it = 1; it <= max_iter; it++) {
        double dfx, x_new;

        if (fx == 0.0)
            break;
        /* keep the bracket valid around the root */
        if (f_lo * fx <= 0.0) {
            hi = x;
        } else {
            lo = x;
            f_lo = fx;
        }
        dfx = predictor_derivative(&e, x);
        x_new = dfx != 0.0 ? x - fx / dfx : NAN;
        /* a converged (zero) Newton step lands on a bracket end: accept it */
        if (!((lo < x_new && x_new < hi) || x_new == x))
            x_new = 0.5 * (lo + hi);  /* bisection fallback */
        step = fabs(x_new - x);
        x = x_new;
        fx = predictor_residual(&e, x);
        if (step < root_tol || (hi - lo) < root_tol)
            break;
    }
    if (it > max_iter) {
        out[OUT_FAILURE] = step;
        return LAYER_NO_CONVERGENCE;
    }
    if (x <= 0) {
        out[OUT_FAILURE] = x;
        return LAYER_NON_POSITIVE_Z;
    }
    out[OUT_Z] = x;
    out[OUT_ITERATIONS] = (double)it;
    return LAYER_OK;
}

/* The CSV writer's cells: Python's "%.9f" of a double, bit for bit, with
 * no snprintf (which follows LC_NUMERIC and prints -nan where Python
 * prints nan).
 *
 * "%.9f" rounds the exact binary value of x to 9 decimals, ties to even.
 * For |x| < FIXED9_LIMIT, p = x 1e9 rounds to a double below 2^52, where
 * every half-integer is a double, so nearbyint(p) is the correctly
 * rounded x 1e9 unless p itself sits on a half: then the exact error
 * fma(x, 1e9, -p) (an explicit call, which -ffp-contract=off leaves
 * alone) says which side the true product lies on, and only an exact
 * tie is left to nearbyint's ties-to-even.  The sign is x's, so -0.0 and
 * -1e-12 both print -0.000000000, as Python's do. */
#define FIXED9_LIMIT 4.5e6  /* below 2^52 / 1e9: at most 7 integer digits */
#define FIXED9_CELL 18      /* the widest cell: sign, 7 digits, point, 9 decimals */

/* x in "%.9f" into s, returning its length, or 0 when x is not finite or
 * |x| >= FIXED9_LIMIT (the caller formats those) */
static int fixed9_cell(double x, char *s)
{
    char digits[20];
    double p, n;
    unsigned long long u, whole;
    unsigned long frac;
    int len = 0, k;

    if (!(fabs(x) < FIXED9_LIMIT))
        return 0;
    p = x * 1e9;
    n = nearbyint(p);
    if (fabs(p - n) == 0.5) {
        double err = fma(x, 1e9, -p);

        if (err != 0.0)
            n = p + copysign(0.5, err);
    }
    u = (unsigned long long)fabs(n);
    whole = u / 1000000000ULL;
    frac = (unsigned long)(u % 1000000000ULL);
    if (signbit(x))
        s[len++] = '-';
    k = 0;
    do {
        digits[k++] = (char)('0' + whole % 10);
        whole /= 10;
    } while (whole);
    while (k)
        s[len++] = digits[--k];
    s[len++] = '.';
    for (k = 8; k >= 0; k--) {
        s[len + k] = (char)('0' + frac % 10);
        frac /= 10;
    }
    return len + 9;
}

/* rows x cols cells, row-major, as CSV lines "c,c,...\r\n" into out,
 * which holds at least rows (cols (FIXED9_CELL + 1) + 1) bytes.
 * Returns the number of bytes written, or -1 - i for the first cell i
 * that fixed9_cell leaves to the caller (out is then partly written). */
long fixed9_rows(long rows, long cols, const double *cells, char *out)
{
    char *s = out;
    long i, k;

    if (cols < 1)
        return 0;
    for (i = 0; i < rows; i++) {
        for (k = 0; k < cols; k++) {
            int len = fixed9_cell(cells[i * cols + k], s);

            if (!len)
                return -1 - (i * cols + k);
            s += len;
            *s++ = ',';
        }
        s[-1] = '\r';
        *s++ = '\n';
    }
    return s - out;
}
