/* Compiled kernel, loaded through ctypes by native.py: thomas, the
 * Thomas solve of the kernel contract, and the time layers of both
 * engines, which eliminate with thomas's row step: newton_layer, Newton's
 * iterations, and pc_predictor and pc_corrector, the two halves of a
 * predictor-corrector layer, and march, which steps one engine over all
 * the layers of a march (below); and fixed9_rows and fixed9_surface, the
 * CSV writer's "%.9f" cells (at the end).
 *
 * Each column of thomas runs the operations of pure.thomas in the same order, so
 * its solution is bit-identical to the pure loop's: build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 *
 * n rows; ncol (1 or 2) right-hand sides stored row-major in d (column k
 * starts at d + k n); a: n-1 sub-diagonal entries (rows 1..n-1), c: n
 * diagonal entries, b: n-1 super-diagonal entries (rows 0..n-2).  cp is n
 * doubles of scratch; x (ncol n doubles) receives the solutions.
 *
 * One pass over the rows checks every entry is finite and takes max |c|;
 * the pivot floor is max(pivot_rtol max |c|, the smallest positive
 * double), so an all-zero diagonal still fails at row 0.  Then each row
 * takes its elimination step (eliminate_row, shared with the time layers
 * below) and tests its pivot, and one backward pass back-substitutes
 * every column.
 * Returns THOMAS_NON_FINITE when an entry is NaN or infinite (before any
 * pivot is tested), else the first row whose pivot magnitude falls below
 * the floor, or -1 on success.
 */
#include <float.h>
#include <math.h>
#include <string.h>

#define THOMAS_NON_FINITE (-2)

/* The functions called on every row, and the back substitution, are
 * inlined into each caller, whatever their size: a call per row would
 * cost more than the row's own work, and each caller's constant ncol
 * then selects its columns at compile time */
#define ROW_STEP static inline __attribute__((always_inline))

/* The running state of a forward elimination of one or two columns: the
 * last row's cp and forward-substituted values, which the next row's
 * step reads from here, so that the recurrence runs in registers */
struct elimination {
    double cp, x0, x1;
};

/* Row i's forward substitution of ncol (1 or 2) columns of d into x over
 * its pivot: x_i = (d_i - a_i x_{i-1}) / piv (d_0 / piv on row 0) */
ROW_STEP void forward_step(long n, long i, long ncol, double a_i, double piv, const double *d,
                           double *x, struct elimination *e)
{
    x[i] = e->x0 = (i ? d[i] - a_i * e->x0 : d[i]) / piv;
    if (ncol > 1)
        x[n + i] = e->x1 = (i ? d[n + i] - a_i * e->x1 : d[n + i]) / piv;
}

/* Row i's step of the forward elimination: its pivot, c_i - a_i cp_{i-1}
 * (c_0 on row 0), returned; cp_i = b_i over it on every row but the last;
 * and its forward substitution of ncol (1 or 2) columns */
ROW_STEP double eliminate_row(long n, long i, long ncol, double a_i, double c_i, double b_i,
                              const double *d, double *cp, double *x, struct elimination *e)
{
    double piv = i ? c_i - a_i * e->cp : c_i;

    if (i < n - 1)
        cp[i] = e->cp = b_i / piv;
    forward_step(n, i, ncol, a_i, piv, d, x, e);
    return piv;
}

/* Back substitution of ncol (1 or 2) columns in one pass, the last row
 * up: x_i -= cp_i x_{i+1} */
ROW_STEP void back_substitute(long n, long ncol, const double *cp, double *x)
{
    double next0 = x[n - 1], next1 = ncol > 1 ? x[2 * n - 1] : 0.0;
    long i;

    for (i = n - 2; i >= 0; i--) {
        x[i] = next0 = x[i] - cp[i] * next0;
        if (ncol > 1)
            x[n + i] = next1 = x[n + i] - cp[i] * next1;
    }
}

/* The pivot floor of a diagonal whose largest magnitude is cmax */
static double pivot_floor(double cmax, double pivot_rtol)
{
    double floor = pivot_rtol * cmax;

    return floor < DBL_TRUE_MIN ? DBL_TRUE_MIN : floor;
}

long thomas(long n, long ncol, const double *a, const double *c, const double *b,
            const double *d, double pivot_rtol, double *cp, double *x)
{
    struct elimination e = {0.0, 0.0, 0.0};
    double cmax = 0.0, floor;
    long i, k;

    for (i = 0; i < n; i++) {
        if (!isfinite(c[i]) || (i > 0 && !isfinite(a[i - 1])) || (i < n - 1 && !isfinite(b[i])))
            return THOMAS_NON_FINITE;
        for (k = 0; k < ncol; k++)
            if (!isfinite(d[k * n + i]))
                return THOMAS_NON_FINITE;
        if (fabs(c[i]) > cmax)
            cmax = fabs(c[i]);
    }
    floor = pivot_floor(cmax, pivot_rtol);
    for (i = 0; i < n; i++)
        if (fabs(eliminate_row(n, i, ncol, i ? a[i - 1] : 0.0, c[i], i < n - 1 ? b[i] : 0.0,
                               d, cp, x, &e)) < floor)
            return i;
    back_substitute(n, ncol, cp, x);
    return -1;
}

/* The time layers: newton_layer, the iterations of
 * solver_newton.newton_layer, and pc_corrector, solver_pc._correct with
 * the layer's diagnostics, each over the buffers of a native.LayerFrame,
 * which frame_start fills first with the layer's z-free part; and
 * pc_predictor, solver_pc.predictor's scalar root.  Each takes the
 * march's constants and buffers, bound once in a struct layer_frame, y
 * among them, and the layer's own scalars as arguments.  march calls them
 * for every layer of a march; native.py also calls each alone, for one
 * layer.
 *
 * Each solve against J11 is one forward sweep over the rows and one
 * backward sweep.  For row i the forward sweep builds the row at z
 * (build_row), the right-hand side it solves for (Newton's F1_i and
 * J12_i, or pc's frozen y^prev_i/dt), the counts the diagnostics report,
 * the finiteness of the row's entries and max |diag|, and takes the row's
 * elimination step (eliminate_row, which thomas takes too), storing its
 * pivot.  Only once the sweep ends are the pivots tested against the
 * floor, which needs max |diag| (check_sweep): a non-finite entry first,
 * then the first row whose pivot falls below the floor, as thomas reports
 * them.  The sweep writes every row buffer and right-hand side whatever
 * it meets, so a failure finds them as the numpy twins leave them.  The
 * backward sweep back-substitutes every column in one pass.  pc's J12
 * solve has the J11 of its first frozen solve, so it reuses that solve's
 * pivots and cp.  The end of a Newton layer builds the rows at the
 * accepted z with F1, max |F1| and the backward error in one pass.
 *
 * Every operation keeps the order of the numpy twin that the tests keep
 * as its oracle (tests/_oracles.py: frame_start, newton_layer_numpy,
 * correct_numpy, predictor_numpy), so the rows, iterates, roots and
 * diagnostics are bit-identical to it.
 * Python's z**2 (on a float or a numpy float64) calls libm pow, which
 * differs from z*z in the last bit for some z; the kernel is built with
 * -fno-builtin-pow so that pow(z, 2.0) below stays that call and is not
 * folded into a multiplication.  math.exp is libm exp too.  sigma**2 and
 * h**2 arrive computed by Python (sig2, h2).
 */

/* The march's constants, the frame's buffers in LayerFrame's names, y,
 * and out[], the layer functions' results (native.LayerFrame fills it
 * once per march).  All arrays have n entries, the interior rows
 * i = 1..N-1, except y (n + 2: the previous layer on entry to a layer
 * function, the new one on its return), and f and x, which are (2, n)
 * row-major: F1 then J12, and u then v.  single is the frame's one-column
 * right-hand side, which pc solves in place, and piv the pivots of the
 * last forward sweep.  tol and max_iter are Newton's; the predictor has
 * its own. */
struct layer_frame {
    long n;
    long upwind;            /* 1 in upwind-singular mode, 0 in central mode */
    long max_iter, root_max_iter, scan, expansions;
    double T, h, h2, two_h, r, q, half_sig2, diff, sig2;
    double tol, root_tol, bracket_factor, pivot_rtol, schur_floor;
    const double *exp_neg_xi;
    double *ds, *half_ds_h, *rhs;
    double *lower, *diag, *upper, *da, *dc, *db;
    unsigned char *onesided;  /* numpy bool */
    double *f, *single, *cp, *piv, *x, *y, *out;
};

/* The z-free scalars of one layer, which frame_start computes. */
struct layer {
    double z_prev, dt, ttm, diag_base, c0, c1, j21_y1, j21_y2;
};

/* The layer functions' status codes (native.py names them) */
#define LAYER_OK 0
#define LAYER_NON_POSITIVE_Z 1
#define LAYER_NON_FINITE 2
#define LAYER_ZERO_PIVOT 3
#define LAYER_SINGULAR_SCHUR 4
#define LAYER_NO_CONVERGENCE 5
#define LAYER_NO_BRACKET 6
#define LAYER_PAST_MATURITY 7
#define LAYER_NON_POSITIVE_STEP 8

/* The layer functions' out[] slots; each fills those it reports, and
 * march the predictor's fallback flag */
enum { OUT_ITERATIONS, OUT_Z, OUT_INITIAL_RESIDUAL, OUT_ONESIDED_ROWS,
       OUT_DOMINANCE_VIOLATIONS, OUT_RESIDUAL_F1, OUT_RESIDUAL_F2, OUT_BACKWARD_ERROR,
       OUT_UPWINDED, OUT_FAILURE, OUT_FALLBACK, OUT_SLOTS };

/* m after the i-th value a of a running np.max (a itself on i = 0): a
 * NaN anywhere gives NaN */
ROW_STEP double nan_max(double m, double a, long i)
{
    return i == 0 || a > m || isnan(a) ? a : m;
}

/* Python's max(a, b) */
static double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* The z-free part of the layer from (tau_prev, y_prev = f->y, z_prev) to
 * tau_next (the oracles' frame_start): the constraint's c0 and c1 with
 * F2 = z - c0 - c1 (-3 y_0 + 4 y_1 - y_2)/(2h), its row J21, dt, ttm,
 * ds_i/dz = e^{-xi_i}/ttm and its 0.5/h scaling, the central diagonal
 * and rhs = y_prev/dt.  diag, dc and onesided are filled only in central
 * mode: in upwind mode build_row rewrites every row of them before
 * anything reads them.  Returns LAYER_OK, LAYER_PAST_MATURITY unless
 * tau_next < T, or LAYER_NON_POSITIVE_STEP unless dt > 0. */
static long frame_start(const struct layer_frame *f, struct layer *l, double tau_prev,
                        double tau_next, double z_prev)
{
    double ttm, denom, d_coef;
    long i;

    if (!(tau_next < f->T))
        return LAYER_PAST_MATURITY;
    ttm = f->T - tau_next;
    denom = 1.0 + f->q * ttm;
    l->c0 = (1.0 + f->r * ttm) / denom;
    l->c1 = f->half_sig2 * ttm / denom;
    d_coef = f->q + 1.0 / ttm;
    l->j21_y1 = -f->sig2 / (d_coef * f->h);
    l->j21_y2 = f->sig2 / (4.0 * d_coef * f->h);
    l->dt = tau_next - tau_prev;
    if (l->dt <= 0)
        return LAYER_NON_POSITIVE_STEP;
    l->ttm = ttm;
    l->z_prev = z_prev;
    /* beta = r + 1/(T - tau); the central diagonal is z-free */
    l->diag_base = 1.0 / l->dt + f->sig2 / f->h2 + (f->r + 1.0 / ttm);
    for (i = 0; i < f->n; i++) {
        f->ds[i] = f->exp_neg_xi[i] / ttm;
        f->half_ds_h[i] = f->ds[i] * 0.5 / f->h;
        f->rhs[i] = f->y[i + 1] / l->dt;
    }
    if (!f->upwind)
        for (i = 0; i < f->n; i++) {
            f->diag[i] = l->diag_base;
            f->dc[i] = 0.0;
            f->onesided[i] = 0;
        }
    return LAYER_OK;
}

/* The row-independent part of the rows at z > 0: z, the advection part
 * mu, the central off-diagonals and z-derivatives it gives every row, and
 * the one-sided switch's limit */
struct rows_at {
    double z, mu, lower, upper, da, db, limit;
};

static struct rows_at rows_at(const struct layer_frame *f, const struct layer *l, double z)
{
    struct rows_at c;
    double dmu = l->z_prev / (l->dt * pow(z, 2.0)), adv;

    c.z = z;
    c.mu = (z - l->z_prev) / (l->dt * z) + f->r - f->q - f->half_sig2;
    adv = 0.5 * c.mu / f->h;
    c.lower = -adv - f->diff;
    c.upper = adv - f->diff;
    c.da = -0.5 * dmu / f->h;
    c.db = 0.5 * dmu / f->h;
    c.limit = f->sig2 / f->h;
    return c;
}

/* One row at z: its entries, their z-derivatives and its one-sided flag */
struct row {
    double lower, diag, upper, da, dc, db;
    int onesided;
};

/* Row i at z (the oracles' frame_rows for one row), written into the
 * frame's buffers and returned.  Its store of the one-sided flag goes
 * through an unsigned char pointer, which may alias any object, so each
 * function that calls it over the rows works on local copies of the
 * frame and layer structs, whose fields the compiler can then keep in
 * registers instead of loading them again on every row. */
ROW_STEP struct row build_row(const struct layer_frame *f, const struct layer *l,
                              const struct rows_at *c, long i)
{
    struct row r;
    double s = (f->exp_neg_xi[i] * c->z - 1.0) / l->ttm;
    double d = s * 0.5 / f->h;

    /* central rows */
    r.lower = d + c->lower;
    r.upper = c->upper - d;
    r.da = f->half_ds_h[i] + c->da;
    r.db = c->db - f->half_ds_h[i];
    r.diag = l->diag_base;
    r.dc = 0.0;
    /* |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal */
    r.onesided = f->upwind && fabs(c->mu - s) > c->limit;
    if (r.onesided) {
        /* the singular term upwinded: forward where s_i >= 0, backward otherwise */
        if (s >= 0.0) {
            r.lower = c->lower + 0.0;
            r.upper = c->upper - s / f->h;
            r.da = c->da + 0.0;
            r.dc = f->ds[i] / f->h;
            r.db = c->db - f->ds[i] / f->h;
        } else {
            r.lower = c->lower + s / f->h;
            r.upper = c->upper - 0.0;
            r.da = c->da + f->ds[i] / f->h;
            r.dc = -f->ds[i] / f->h;
            r.db = c->db - 0.0;
        }
        r.diag = l->diag_base + fabs(s) / f->h;
    }
    f->lower[i] = r.lower;
    f->upper[i] = r.upper;
    f->da[i] = r.da;
    f->db[i] = r.db;
    if (f->upwind) {
        f->diag[i] = r.diag;
        f->dc[i] = r.dc;
        f->onesided[i] = (unsigned char)r.onesided;
    }
    return r;
}

/* F2 at (y, z) */
static double residual_constraint(const struct layer_frame *f, const struct layer *l,
                                  const double *y, double z)
{
    return z - (l->c0 + l->c1 * ((-3.0 * y[0] + 4.0 * y[1] - y[2]) / f->two_h));
}

/* Row i's backward error at y, with F1_i in *f1: |F1_i| over the
 * magnitudes of the terms F1_i sums, |a_i y_{i-1}| + |c_i y_i| +
 * |b_i y_{i+1}| + |y^prev_i/dt| */
ROW_STEP double row_backward_error(double a_i, double c_i, double b_i, double rhs_i,
                                   const double *y, long i, double *f1)
{
    double lo = a_i * y[i], mid = c_i * y[i + 1], up = b_i * y[i + 2];
    double terms = fabs(lo) + fabs(mid) + fabs(up) + fabs(rhs_i);

    *f1 = lo + mid + up - rhs_i;
    return fabs(*f1) / (terms > 0.0 ? terms : 1.0);
}

/* What a forward sweep gathers besides its elimination: the one-sided
 * rows, the rows failing strict diagonal dominance, max |diag|, max |F1|
 * (Newton's), and whether every entry of J11 and of the right-hand sides
 * it eliminated is finite */
struct sweep {
    long onesided, violations;
    double cmax, f1max;
    int finite;
};

/* Row i's share of a sweep: its one-sided flag, its dominance, the
 * finiteness of its J11 entries (lower[i] from row 1, upper[i] to row
 * n - 2) and |diag[i]| */
ROW_STEP void tally_row(struct sweep *s, long n, long i, const struct row *r)
{
    double lo = r->lower, c = r->diag, up = r->upper;

    s->onesided += r->onesided;
    s->violations += fabs(c) <= fabs(lo) + fabs(up);
    s->finite &= isfinite(c) && (i == 0 || isfinite(lo)) && (i == n - 1 || isfinite(up));
    if (fabs(c) > s->cmax)
        s->cmax = fabs(c);
}

/* thomas's verdict on a forward sweep that stored its pivots in f->piv:
 * LAYER_NON_FINITE if an entry it eliminated is not finite, else
 * LAYER_ZERO_PIVOT with the first row whose pivot magnitude falls below
 * the floor in out[OUT_FAILURE], else LAYER_OK */
static long check_sweep(const struct layer_frame *f, const struct sweep *s)
{
    double floor;
    long i;

    if (!s->finite)
        return LAYER_NON_FINITE;
    floor = pivot_floor(s->cmax, f->pivot_rtol);
    for (i = 0; i < f->n; i++)
        if (fabs(f->piv[i]) < floor) {
            f->out[OUT_FAILURE] = (double)i;
            return LAYER_ZERO_PIVOT;
        }
    return LAYER_OK;
}

/* Newton's forward sweep at (y, z) with y = f->y: the rows, F1 and J12
 * into f[0:n] and f[n:2n], and both eliminated into x */
static struct sweep newton_sweep(const struct layer_frame *frame, const struct layer *layer,
                                 double z)
{
    const struct layer_frame fc = *frame, *f = &fc;  /* copies: see build_row */
    const struct layer lc = *layer, *l = &lc;
    const struct rows_at c = rows_at(f, l, z);
    const long n = f->n;
    const double *y = f->y;
    double *f1 = f->f, *j12 = f->f + n;
    struct sweep s = {0, 0, 0.0, 0.0, 1};
    struct elimination e = {0.0, 0.0, 0.0};
    long i;

    for (i = 0; i < n; i++) {
        struct row r = build_row(f, l, &c, i);

        f1[i] = r.lower * y[i] + r.diag * y[i + 1] + r.upper * y[i + 2] - f->rhs[i];
        j12[i] = r.da * y[i] + r.dc * y[i + 1] + r.db * y[i + 2];
        s.f1max = nan_max(s.f1max, fabs(f1[i]), i);
        s.finite &= isfinite(f1[i]) && isfinite(j12[i]);
        tally_row(&s, n, i, &r);
        f->piv[i] = eliminate_row(n, i, 2, r.lower, r.diag, r.upper, f->f, f->cp, f->x, &e);
    }
    return s;
}

/* The end of a Newton layer at the accepted (y, z) with y = f->y: the
 * rows, F1 into f[0:n], and in out[] max |F1|, the backward error and the
 * upwinded rows */
static void newton_final(const struct layer_frame *frame, const struct layer *layer, double z)
{
    const struct layer_frame fc = *frame, *f = &fc;  /* copies: see build_row */
    const struct layer lc = *layer, *l = &lc;
    const struct rows_at c = rows_at(f, l, z);
    double f1max = 0.0, backward = 0.0;
    long i, onesided = 0;

    for (i = 0; i < f->n; i++) {
        struct row r = build_row(f, l, &c, i);
        double f1, e = row_backward_error(r.lower, r.diag, r.upper, f->rhs[i], f->y, i, &f1);

        onesided += r.onesided;
        f->f[i] = f1;
        f1max = nan_max(f1max, fabs(f1), i);
        backward = nan_max(backward, e, i);
    }
    f->out[OUT_UPWINDED] = (double)onesided;
    f->out[OUT_RESIDUAL_F1] = f1max;
    f->out[OUT_BACKWARD_ERROR] = backward;
}

/* Newton's iterations on the layer from (tau_prev, y, z_prev) to
 * tau_next, updating the frame's y[1..n] (the previous layer on entry) in
 * place, with the frame's tol, max_iter, pivot_rtol and schur_floor.
 * Returns LAYER_OK with the accepted z and the layer's diagnostics in
 * out[] (out[OUT_FALLBACK] = 0), or the status of the first failure:
 * frame_start's, or with
 * out[OUT_FAILURE] = the non-positive z, the failing pivot row, the Schur
 * denominator or the last step.  After frame_start out[OUT_UPWINDED]
 * counts the rows the last sweep upwinded. */
long newton_layer(const struct layer_frame *f, double tau_prev, double tau_next, double z_prev)
{
    struct layer l;
    struct sweep s;
    const long n = f->n;
    double *y = f->y, *u = f->x, *v = f->x + n, *out = f->out;
    double z = z_prev, step = 0.0, f2;
    long it, i, violations = 0, onesided_max = 0,
        status = frame_start(f, &l, tau_prev, tau_next, z_prev);

    if (status != LAYER_OK)
        return status;
    out[OUT_UPWINDED] = 0.0;  /* frame_start left no row upwinded */
    for (it = 1; it <= f->max_iter; it++) {
        double j21_u, j21_v, denom, dz, step_y = 0.0;

        if (z <= 0) {
            out[OUT_FAILURE] = z;
            return LAYER_NON_POSITIVE_Z;
        }
        s = newton_sweep(f, &l, z);
        out[OUT_UPWINDED] = (double)s.onesided;
        f2 = residual_constraint(f, &l, y, z);
        if (it == 1)
            out[OUT_INITIAL_RESIDUAL] = py_max(s.f1max, fabs(f2));
        if (s.onesided > onesided_max)
            onesided_max = s.onesided;
        violations += s.violations;

        /* u = J11^{-1} F1 and v = J11^{-1} J12 */
        status = check_sweep(f, &s);
        if (status != LAYER_OK)
            return status;
        back_substitute(n, 2, f->cp, f->x);
        j21_u = l.j21_y1 * u[0] + l.j21_y2 * u[1];
        j21_v = l.j21_y1 * v[0] + l.j21_y2 * v[1];
        denom = 1.0 - j21_v;  /* J22 = 1 */
        if (fabs(denom) < f->schur_floor) {
            out[OUT_FAILURE] = denom;
            return LAYER_SINGULAR_SCHUR;
        }
        dz = (-f2 + j21_u) / denom;
        for (i = 0; i < n; i++) {  /* dY1 = -u - v dz, kept in u */
            u[i] = -u[i] - v[i] * dz;
            y[i + 1] += u[i];
            step_y = nan_max(step_y, fabs(u[i]), i);
        }
        z = z + dz;
        step = py_max(step_y, fabs(dz));
        if (step < f->tol)
            break;
    }
    if (it > f->max_iter) {
        out[OUT_FAILURE] = step;
        return LAYER_NO_CONVERGENCE;
    }
    if (z <= 0) {
        out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    newton_final(f, &l, z);
    out[OUT_ITERATIONS] = (double)it;
    out[OUT_Z] = z;
    out[OUT_ONESIDED_ROWS] = (double)onesided_max;
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, &l, y, z));
    out[OUT_FALLBACK] = 0.0;
    return LAYER_OK;
}

/* pc's frozen solve: one forward sweep builds the rows at z > 0 and
 * eliminates the frame's single right-hand side, y^prev/dt with a_1 y_0
 * added for the Dirichlet value y_0 = -1, into y[1..n], and the backward
 * sweep solves y[1..n] there, between y[0] = -1 and y[n+1] = 0.  Returns
 * LAYER_OK with the rows failing strict diagonal dominance in
 * *violations, or the status of the failure, with out[OUT_FAILURE] = the
 * non-positive z or the failing pivot row; out[OUT_UPWINDED] counts the
 * upwinded rows once they are built. */
static long frozen_solve(const struct layer_frame *frame, const struct layer *layer, double z,
                         double *y, long *violations)
{
    const struct layer_frame fc = *frame, *f = &fc;  /* copies: see build_row */
    const struct layer lc = *layer, *l = &lc;
    struct rows_at c;
    struct sweep s = {0, 0, 0.0, 0.0, 1};
    struct elimination e = {0.0, 0.0, 0.0};
    const long n = f->n;
    long i, status;

    if (z <= 0) {
        f->out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    c = rows_at(f, l, z);
    for (i = 0; i < n; i++) {
        struct row r = build_row(f, l, &c, i);

        f->single[i] = i ? f->rhs[i] : f->rhs[0] + r.lower;
        s.finite &= isfinite(f->single[i]);
        tally_row(&s, n, i, &r);
        f->piv[i] = eliminate_row(n, i, 1, r.lower, r.diag, r.upper, f->single, f->cp, y + 1,
                                  &e);
    }
    f->out[OUT_UPWINDED] = (double)s.onesided;
    y[0] = -1.0;
    y[n + 1] = 0.0;
    status = check_sweep(f, &s);
    if (status != LAYER_OK)
        return status;
    back_substitute(n, 1, f->cp, y + 1);
    *violations = s.violations;
    return LAYER_OK;
}

/* pc's corrector on the layer from (tau_prev, y, z_prev) to tau_next,
 * from z_tilde: the frozen solve at z_tilde, one Schur step on the
 * boundary, the frozen solve at the new z, written over the frame's y
 * (the previous layer on entry), and the layer's diagnostics,
 * with the frame's pivot_rtol and schur_floor.  Returns LAYER_OK with
 * out[OUT_Z], out[OUT_RESIDUAL_F1] and out[OUT_BACKWARD_ERROR] (both the
 * row-wise backward error), out[OUT_RESIDUAL_F2], out[OUT_ONESIDED_ROWS]
 * and out[OUT_DOMINANCE_VIOLATIONS], with no iterations, an infinite
 * initial residual (the corrector has no iterate before its own) and no
 * fallback in out[OUT_ITERATIONS], out[OUT_INITIAL_RESIDUAL] and
 * out[OUT_FALLBACK], or the status of the first failure:
 * frame_start's, or with out[OUT_FAILURE] = the non-positive z, the
 * failing pivot row or the Schur denominator.  After frame_start
 * out[OUT_UPWINDED] counts the rows the last frozen solve upwinded. */
long pc_corrector(const struct layer_frame *f, double tau_prev, double tau_next, double z_prev,
                  double z_tilde)
{
    struct layer l;
    const long n = f->n;
    double *y = f->y, *v = f->x, *out = f->out, denom, z, backward = 0.0;
    struct elimination e = {0.0, 0.0, 0.0};
    long i, violations, status = frame_start(f, &l, tau_prev, tau_next, z_prev);
    int finite = 1;

    if (status != LAYER_OK)
        return status;
    out[OUT_UPWINDED] = 0.0;  /* frame_start left no row upwinded */
    status = frozen_solve(f, &l, z_tilde, y, &violations);
    if (status != LAYER_OK)
        return status;
    /* one Newton step on (F1, F2) from (y, z_tilde), where F1 vanishes:
     * dz = -F2 / (1 - J21 J11^{-1} J12), with v = J11^{-1} J12 solved over
     * the pivots and cp of the frozen solve, whose J11 it is */
    for (i = 0; i < n; i++) {
        f->single[i] = f->da[i] * y[i] + f->dc[i] * y[i + 1] + f->db[i] * y[i + 2];
        finite &= isfinite(f->single[i]);
        forward_step(n, i, 1, f->lower[i], f->piv[i], f->single, v, &e);
    }
    if (!finite)
        return LAYER_NON_FINITE;
    back_substitute(n, 1, f->cp, v);
    denom = 1.0 - (l.j21_y1 * v[0] + l.j21_y2 * v[1]);
    if (fabs(denom) < f->schur_floor) {
        out[OUT_FAILURE] = denom;
        return LAYER_SINGULAR_SCHUR;
    }
    z = z_tilde - residual_constraint(f, &l, y, z_tilde) / denom;
    status = frozen_solve(f, &l, z, y, &violations);
    if (status != LAYER_OK)
        return status;

    for (i = 0; i < n; i++) {
        double f1;

        backward = nan_max(backward, row_backward_error(f->lower[i], f->diag[i], f->upper[i],
                                                        f->rhs[i], y, i, &f1), i);
    }
    out[OUT_Z] = z;
    out[OUT_RESIDUAL_F1] = backward;
    out[OUT_BACKWARD_ERROR] = backward;
    out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, &l, y, z));
    out[OUT_ONESIDED_ROWS] = out[OUT_UPWINDED];
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_ITERATIONS] = 0.0;
    out[OUT_INITIAL_RESIDUAL] = INFINITY;
    out[OUT_FALLBACK] = 0.0;
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

/* solver_pc.predictor's root on the layer from (tau_prev, y, z_prev) to
 * tau_next, from the previous layer's y[0..2] in the frame's y: the
 * bracket scan (scan + 1 points of np.linspace(z_prev / f, z_prev f) for
 * f = bracket_factor, bracket_factor^2, ... over `expansions` widenings,
 * keeping the sign-change cell whose midpoint is nearest z_prev), then
 * safeguarded Newton inside it, with the frame's root_tol and
 * root_max_iter.
 * Returns LAYER_OK with out[OUT_Z] and out[OUT_ITERATIONS],
 * LAYER_PAST_MATURITY unless tau_next < T, or LAYER_NO_BRACKET with the
 * widest factor, LAYER_NO_CONVERGENCE with the last step or
 * LAYER_NON_POSITIVE_Z with the root in out[OUT_FAILURE]. */
long pc_predictor(const struct layer_frame *f, double tau_prev, double tau_next, double z_prev)
{
    struct predictor_eq e;
    const long scan = f->scan, expansions = f->expansions, max_iter = f->root_max_iter;
    const double h = f->h, r = f->r, q = f->q, sig2 = f->sig2, ttm = f->T - tau_next;
    const double bracket_factor = f->bracket_factor, y0p = f->y[0], y1p = f->y[1],
        y2p = f->y[2];
    double beta = r + 1.0 / ttm, lap_prev, *out = f->out;
    double zs[scan + 1], vals[scan + 1];
    double factor = bracket_factor, widest = factor, lo, hi, f_lo, x, fx, step = 0.0;
    long k, i, it, pick = -1;

    if (!(tau_next < f->T))
        return LAYER_PAST_MATURITY;
    e.q = q;
    e.r = r;
    e.z_prev = z_prev;
    e.dt = tau_next - tau_prev;
    e.ttm = ttm;
    e.drift = r - q - 0.5 * sig2;
    e.exp_h = exp(-h);
    e.h2 = f->h2;
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
        if (step < f->root_tol || (hi - lo) < f->root_tol)
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

/* march's engines, and the layer calls whose failure it reports
 * (native.py names them) */
enum { MARCH_NEWTON, MARCH_PC };
enum { CALL_NEWTON_LAYER, CALL_PC_PREDICTOR, CALL_PC_CORRECTOR };

/* One engine's march over `layers` time layers in the frame f, from the
 * stored layer 0: layer j + 1, from (taus[j], surface[j], rho[j]) to
 * taus[j + 1], is written to surface[j + 1] (rows of n + 2 values) and
 * rho[j + 1], and its out[] slots to rows[j] (OUT_SLOTS each), with the
 * limits in f.  Newton's layer is newton_layer.  pc's is pc_predictor,
 * whose LAYER_NO_BRACKET falls back to z_tilde = z_prev, then
 * pc_corrector, with the predictor's iterations (none on a fallback) in
 * out[OUT_ITERATIONS] and out[OUT_FALLBACK] = 1 on a fallback.  Returns
 * LAYER_OK, or the status of the first failing layer call, with
 * failed[0] = its layer j + 1, failed[1] = the call (CALL_*) and its
 * out[] slots copied into f's out.  f's own y is not used. */
long march(struct layer_frame *f, long engine, long layers, const double *taus,
           double *rho, double *surface, double *rows, long *failed)
{
    struct layer_frame layer = *f;
    const long width = f->n + 2;
    long j, status;

    for (j = 0; j < layers; j++) {
        double *out = rows + j * OUT_SLOTS, z_tilde = rho[j], iterations = 0.0;
        int fallback = 0;

        layer.out = out;
        layer.y = surface + (j + 1) * width;
        memcpy(layer.y, layer.y - width, width * sizeof(double));
        if (engine == MARCH_NEWTON) {
            failed[1] = CALL_NEWTON_LAYER;
            status = newton_layer(&layer, taus[j], taus[j + 1], rho[j]);
        } else {
            failed[1] = CALL_PC_PREDICTOR;
            status = pc_predictor(&layer, taus[j], taus[j + 1], rho[j]);
            if (status == LAYER_OK) {
                z_tilde = out[OUT_Z];
                iterations = out[OUT_ITERATIONS];
            } else if (status == LAYER_NO_BRACKET) {
                fallback = 1;
                status = LAYER_OK;
            }
            if (status == LAYER_OK) {
                failed[1] = CALL_PC_CORRECTOR;
                status = pc_corrector(&layer, taus[j], taus[j + 1], rho[j], z_tilde);
                out[OUT_ITERATIONS] = iterations;
                out[OUT_FALLBACK] = fallback;
            }
        }
        if (status != LAYER_OK) {
            failed[0] = j + 1;
            memcpy(f->out, out, OUT_SLOTS * sizeof(double));
            return status;
        }
        rho[j + 1] = out[OUT_Z];
    }
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

/* layers x n lines "tau,xi,pi\r\n" of surface.csv into out, which holds
 * at least layers n (3 (FIXED9_CELL + 1) + 1) bytes: each layer's tau
 * cell formatted once, the xi cells copied from xi_cells, n rows of
 * FIXED9_CELL bytes that each hold a cell's text padded with '\0', and
 * the pi cells formatted from the (layers, n) row-major pi.  Returns the
 * number of bytes written, or -1 - i for the first cell i of the
 * (layers n, 3) table that fixed9_cell leaves to the caller (out is then
 * partly written). */
long fixed9_surface(long layers, long n, const double *taus, const char *xi_cells,
                    const double *pi, char *out)
{
    char tau[FIXED9_CELL];
    char *s = out;
    long j, i, k;

    for (j = 0; j < layers; j++) {
        int tau_len = fixed9_cell(taus[j], tau), len;

        if (!tau_len)
            return -1 - j * n * 3;
        for (i = 0; i < n; i++) {
            const char *xi = xi_cells + i * FIXED9_CELL;

            for (k = 0; k < tau_len; k++)
                *s++ = tau[k];
            *s++ = ',';
            for (k = 0; k < FIXED9_CELL && xi[k]; k++)
                *s++ = xi[k];
            *s++ = ',';
            len = fixed9_cell(pi[j * n + i], s);
            if (!len)
                return -1 - ((j * n + i) * 3 + 2);
            s += len;
            *s++ = '\r';
            *s++ = '\n';
        }
    }
    return s - out;
}
