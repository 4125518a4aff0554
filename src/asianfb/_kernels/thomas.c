/* Compiled kernel, loaded through ctypes by native.py, which declares
 * its five exported functions: thomas, the Thomas solve of the kernel
 * contract; march, which steps one engine over the layers of a march
 * with the static time layers of both engines (newton_layer, Newton's
 * iterations, and pc_predictor and pc_corrector, the two halves of a
 * predictor-corrector layer), and published, which reads the count of
 * layers a march has stored from its frame (below); and fixed9_rows and
 * fixed9_surface, the CSV writer's "%.9f" cells of every double (at the
 * end).
 *
 * Every solve here is one elimination (a twisted factorization: Fernando,
 * SIAM J. Matrix Anal. Appl. 18, 1997): a downward chain of rows 0 ..
 * m - 1 and an upward one of rows n - 1 .. m + 1 each take a row step
 * (chain_step), the two meet at row m (meet), and the backward sweep runs
 * outward from m (back_substitute_outward).  thomas and Newton's sweep
 * meet at the last row, m = n - 1, where the upward chain is empty and
 * the elimination is the Thomas sweep, operation for operation; pc's
 * three solves meet at m = n/2 (see the time layers).
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
 * One scan checks every entry is finite (non_finite_array), and one pass
 * over the rows takes max |c|; the pivot floor is max(pivot_rtol max |c|,
 * the smallest positive double), so an all-zero diagonal still fails at
 * row 0.  Then each row takes its step, rows 0 .. n - 2 down the chain
 * and row n - 1 as the meeting row, and tests its pivot, and one backward
 * pass back-substitutes every column.
 * Returns THOMAS_NON_FINITE - k when array k (ARRAY_*) is the first that
 * holds a NaN or an infinity (before any pivot is tested), else the first
 * row whose pivot magnitude falls below the floor, or -1 on success.
 */
#include <float.h>
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define THOMAS_NON_FINITE (-2)

/* The arrays of an elimination, in the order in which a non-finite entry
 * is looked for (native.py names them) */
enum { ARRAY_LOWER, ARRAY_DIAG, ARRAY_UPPER, ARRAY_RHS };

/* The functions called on every row, and the back substitution, are
 * inlined into each caller, whatever their size: a call per row would
 * cost more than the row's own work, and each caller's constant ncol
 * then selects its columns at compile time */
#define ROW_STEP static inline __attribute__((always_inline))

/* The running state of one chain of an elimination: the last row's cp and
 * forward-substituted values of its ncol (1 or 2) columns, which the
 * chain's next row reads from here, so that its recurrence runs in
 * registers */
struct chain {
    double cp, x0, x1;
};

/* Row i's step of one chain of an elimination of n rows, where back is
 * the row's entry toward the row the chain took before it and fwd its
 * entry toward the row it takes next: a downward chain passes (a_i, b_i),
 * an upward one (b_i, a_i).  Its pivot, c_i - back cp_prev (c_i on the
 * chain's first row), returned; cp_i = fwd over it, into cp[i]; and its
 * forward substitution of ncol (1 or 2) columns, column k of d and x
 * starting at d + k n and x + k n, x_i = (d_i - back x_prev) / piv (d_i /
 * piv on the first row), into x[i].  With known pivots (pivots set) it
 * takes only the substitution, over piv[i]. */
ROW_STEP double chain_step(long ncol, long n, int first, int pivots, long i, double back,
                           double c, double fwd, const double *d, const double *piv,
                           double *cp, double *x, struct chain *e)
{
    double p = pivots ? piv[i] : first ? c : c - back * e->cp;
    /* read before the store to cp[i], which may alias d, so that a row's
     * right-hand side just written stays in a register */
    double d0 = d[i], d1 = ncol > 1 ? d[n + i] : 0.0;

    if (!pivots)
        cp[i] = e->cp = fwd / p;
    x[i] = e->x0 = (first ? d0 : d0 - back * e->x0) / p;
    if (ncol > 1)
        x[n + i] = e->x1 = (first ? d1 : d1 - back * e->x1) / p;
    return p;
}

/* The meeting row m of an elimination of n rows and ncol (1 or 2)
 * columns, where a downward chain over rows 0 .. m - 1 and an upward one
 * over rows n - 1 .. m + 1 end: its pivot, c_m - a_m cp_{m-1} -
 * b_m cq_{m+1} in that order, without the term of a chain that took no
 * row (the downward one when m = 0, the upward one when m = n - 1),
 * returned, and x_m = (d_m - a_m x_{m-1} - b_m x_{m+1}) over it, into
 * x[m] of each column; with known pivots (pivots set), over piv[m]. */
ROW_STEP double meet(long ncol, long n, long m, int pivots, double a, double c, double b,
                     const double *d, const double *piv, const struct chain *down,
                     const struct chain *up, double *x)
{
    double p = c, x0 = d[m], x1 = ncol > 1 ? d[n + m] : 0.0;

    if (m > 0) {
        p = p - a * down->cp;
        x0 = x0 - a * down->x0;
        x1 = x1 - a * down->x1;
    }
    if (m < n - 1) {
        p = p - b * up->cp;
        x0 = x0 - b * up->x0;
        x1 = x1 - b * up->x1;
    }
    if (pivots)
        p = piv[m];
    x[m] = x0 / p;
    if (ncol > 1)
        x[n + m] = x1 / p;
    return p;
}

/* The backward sweep of an elimination of n rows and ncol (1 or 2)
 * columns whose chains met at row m, outward from m in both directions,
 * the two chains in one loop: x_i -= cp_i x_{i+1} above m, x_i -= cp_i
 * x_{i-1} below it.  The upward chain has n - 1 - m <= m rows. */
ROW_STEP void back_substitute_outward(long ncol, long n, long m, const double *cp, double *x)
{
    double above0 = x[m], below0 = x[m];
    double above1 = ncol > 1 ? x[n + m] : 0.0, below1 = above1;
    long k;

    for (k = 1; k <= m; k++) {
        x[m - k] = above0 = x[m - k] - cp[m - k] * above0;
        if (ncol > 1)
            x[n + m - k] = above1 = x[n + m - k] - cp[m - k] * above1;
        if (m + k < n) {
            x[m + k] = below0 = x[m + k] - cp[m + k] * below0;
            if (ncol > 1)
                x[n + m + k] = below1 = x[n + m + k] - cp[m + k] * below1;
        }
    }
}

/* The pivot floor of a diagonal whose largest magnitude is cmax */
static double pivot_floor(double cmax, double pivot_rtol)
{
    double floor = pivot_rtol * cmax;

    return floor < DBL_TRUE_MIN ? DBL_TRUE_MIN : floor;
}

/* The first of the arrays a, c, b and d of an elimination of n rows and
 * ncol columns (ARRAY_LOWER .. ARRAY_RHS) that holds a NaN or an
 * infinity, or -1 */
static long non_finite_array(long n, long ncol, const double *a, const double *c,
                             const double *b, const double *d)
{
    const double *arrays[] = {a, c, b, d};
    const long sizes[] = {n - 1, n, n - 1, ncol * n};
    long k, i;

    for (k = ARRAY_LOWER; k <= ARRAY_RHS; k++)
        for (i = 0; i < sizes[k]; i++)
            if (!isfinite(arrays[k][i]))
                return k;
    return -1;
}

long thomas(long n, long ncol, const double *a, const double *c, const double *b,
            const double *d, double pivot_rtol, double *cp, double *x)
{
    struct chain e = {0.0, 0.0, 0.0};
    double cmax = 0.0, floor;
    long i, k = non_finite_array(n, ncol, a, c, b, d);

    if (k >= 0)
        return THOMAS_NON_FINITE - k;
    for (i = 0; i < n; i++)
        if (fabs(c[i]) > cmax)
            cmax = fabs(c[i]);
    floor = pivot_floor(cmax, pivot_rtol);
    for (i = 0; i < n - 1; i++)
        if (fabs(chain_step(ncol, n, i == 0, 0, i, i ? a[i - 1] : 0.0, c[i], b[i], d, NULL, cp,
                            x, &e)) < floor)
            return i;
    if (fabs(meet(ncol, n, n - 1, 0, n > 1 ? a[n - 2] : 0.0, c[n - 1], 0.0, d, NULL, &e, &e,
                  x)) < floor)
        return n - 1;
    back_substitute_outward(ncol, n, n - 1, cp, x);
    return -1;
}

/* The time layers: newton_layer, Newton's iterations, and pc_corrector,
 * pc's corrector with the layer's diagnostics, each over the buffers of a
 * native.LayerFrame; and pc_predictor, the predictor's scalar root.  Each
 * takes the march's constants and buffers, bound once in a struct
 * layer_frame, y among them, and the struct layer of the layer's z-free
 * scalars, which frame_start computes, filling the frame's z-free buffers
 * with them.  They are static: march, the only way into them, calls
 * frame_start once for every layer of a march and then the engine's layer
 * functions.  They stay out of line (noinline), as they were when exported:
 * inlined into march, they move every function after it, and
 * fixed9_surface, whose speed has moved with its address modulo 64, to
 * another offset.
 *
 * Each solve against J11 is one forward sweep over the rows and one
 * backward sweep.  For row i the forward sweep builds the row at z
 * (build_row), the right-hand side it solves for (Newton's F1_i and
 * J12_i, or pc's frozen y^prev_i/dt), the counts the diagnostics report,
 * the finiteness of the row's entries and max |diag|, and takes the row's
 * elimination step, storing its pivot.  Only once the sweep ends are the
 * pivots tested against the floor, which needs max |diag| (check_sweep):
 * a non-finite entry first, then the lowest row whose pivot falls below
 * the floor, as thomas reports them.  The sweep writes every row buffer
 * and right-hand side whatever it meets, so a failure finds them as the
 * numpy twins leave them, and a non-finite entry's failure names the
 * first array that holds one (non_finite_array), in out[OUT_FAILURE].
 * Every solve takes the elimination of thomas (chain_step, meet,
 * back_substitute_outward).  Newton's sweep sends rows 0 .. n - 2 of both
 * its columns down one chain and meets at the last row, as thomas does,
 * and its backward sweep back-substitutes both columns in one pass.  pc's
 * three solves each eliminate from both ends: rows 0 .. m - 1 downward
 * and rows n - 1 .. m + 1 upward, in one loop that takes a row of each
 * chain in turn, the two chains meet at row m = n/2, and the backward
 * sweep runs outward from m in both directions.  Newton's sweep is bound
 * by the throughput of its two columns, pc's by the latency of one
 * column's recurrence, which the two independent chains halve.  pc's J12
 * solve has the J11 of its first frozen solve, so it reuses that solve's
 * pivots and cp.  The end of a Newton layer builds the rows at the accepted z with
 * F1, max |F1| and the backward error in one pass.
 *
 * A frame whose diagnostics is 0 skips the passes that only fill
 * diagnostics: the end of each Newton layer and its final F2, and pc's
 * backward error and final F2, whose out[] slots then read NaN.  No
 * decision of a layer reads them, so its y, z, iterations and fallback
 * are the same bits either way.
 *
 * Every operation keeps the order of the numpy twin that the tests keep
 * as its oracle (tests/_oracles.py: frame_start, newton_layer_numpy,
 * correct_numpy, predictor_numpy), so the rows, iterates, roots and
 * diagnostics are bit-identical to it.  Where a row's formula divides by
 * dt, T - tau or h (ds_i = e^{-xi_i}/ttm and its 0.5/h, rhs_i = y_i/dt,
 * s_i = (e^{-xi_i} z - 1)/ttm and d_i = s_i 0.5/h), the row multiplies
 * by the reciprocal frame_start took once for the layer instead, as a
 * division costs several multiplications; these values may differ from
 * the quotients in the last bit.  The one-sided rows, rare, still divide
 * by h, and the elimination by its pivots: their reciprocals would add a
 * multiplication to its serial recurrence.
 * Python's z**2 (on a float or a numpy float64) calls libm pow, which
 * differs from z*z in the last bit for some z; the kernel is built with
 * -fno-builtin-pow so that pow(z, 2.0) below stays that call and is not
 * folded into a multiplication.  math.exp is libm exp too.  sigma**2 and
 * h**2 arrive computed by Python (sig2, h2).
 */

/* The march's constants, the frame's buffers in LayerFrame's names, y,
 * and out[], the layer functions' results, which march points at the
 * layer's row of its rows (native.LayerFrame fills the rest once per
 * march).  All arrays have n entries, the interior rows
 * i = 1..N-1, except y (n + 2: the previous layer on entry to a layer
 * function, the new one on its return), and f and x, which are (2, n)
 * row-major: F1 then J12, and u then v.  single is the frame's one-column
 * right-hand side, which pc solves in place, piv the pivots of the last
 * forward sweep, and first the interior values of the first iterate of a
 * Newton layer that does not start from the previous layer (march's
 * extrapolated start).  tol and max_iter are the limits of the one engine
 * the frame marches: Newton's step tolerance and iteration cap, or the
 * predictor's root tolerance and cap.  diagnostics is 1 in every
 * LayerFrame; 0 makes the layer functions skip the passes that only fill
 * diagnostics (see above).  count is the number of layers stored, which
 * march publishes (see march); a LayerFrame starts it at 0. */
struct layer_frame {
    long n;
    long upwind;            /* 1 in upwind-singular mode, 0 in central mode */
    long diagnostics;
    long max_iter, count;
    double T, h, h2, two_h, r, q, half_sig2, diff, sig2;
    double tol, pivot_rtol, schur_floor;
    const double *exp_neg_xi;
    double *ds, *half_ds_h, *rhs;
    double *lower, *diag, *upper, *da, *dc, *db;
    unsigned char *onesided;  /* numpy bool */
    double *f, *single, *cp, *piv, *x, *y, *first, *out;
};

/* The z-free scalars of one layer, which frame_start computes. */
struct layer {
    double z_prev, dt, ttm, diag_base, c0, c1, j21_y1, j21_y2;
    double inv_dt, inv_ttm, d_coef, half_inv_h;  /* 1/dt, 1/ttm, q + 1/ttm and 0.5/h */
};

/* The layer functions' status codes (native.py names them).  A failing
 * layer's out[] row is its failure record: out[OUT_FAILURE] holds the
 * non-positive z, the array (ARRAY_*) of the first non-finite entry, the
 * failing pivot row, the Schur denominator or the last step, and
 * LAYER_NO_CONVERGENCE's out[OUT_ITERATIONS] the cap that was reached. */
#define LAYER_OK 0
#define LAYER_NON_POSITIVE_Z 1
#define LAYER_NON_FINITE 2
#define LAYER_ZERO_PIVOT 3
#define LAYER_SINGULAR_SCHUR 4
#define LAYER_NO_CONVERGENCE 5
#define LAYER_PAST_MATURITY 6
#define LAYER_NON_POSITIVE_STEP 7

/* The layer functions' out[] slots; each fills those it reports */
enum { OUT_ITERATIONS, OUT_Z, OUT_INITIAL_RESIDUAL, OUT_ONESIDED_ROWS,
       OUT_DOMINANCE_VIOLATIONS, OUT_RESIDUAL_F1, OUT_RESIDUAL_F2, OUT_BACKWARD_ERROR,
       OUT_FAILURE, OUT_PREDICTOR_FALLBACK, OUT_SLOTS };

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
 * F2 = z - c0 - c1 (-3 y_0 + 4 y_1 - y_2)/(2h), its row J21, dt, ttm, the
 * reciprocals 1/dt, 1/ttm and 0.5/h that every row multiplies by, and
 * q + 1/ttm, the predictor's dG/dz,
 * ds_i/dz = e^{-xi_i}/ttm and its 0.5/h scaling, the central diagonal
 * and rhs = y_prev/dt.  diag, dc and onesided are filled only in central
 * mode: in upwind mode build_row rewrites every row of them before
 * anything reads them.  Returns LAYER_OK, LAYER_PAST_MATURITY unless
 * tau_next < T, or LAYER_NON_POSITIVE_STEP unless dt > 0. */
static long frame_start(const struct layer_frame *f, struct layer *l, double tau_prev,
                        double tau_next, double z_prev)
{
    double ttm, denom;
    long i;

    if (!(tau_next < f->T))
        return LAYER_PAST_MATURITY;
    l->ttm = ttm = f->T - tau_next;
    denom = 1.0 + f->q * ttm;
    l->c0 = (1.0 + f->r * ttm) / denom;
    l->c1 = f->half_sig2 * ttm / denom;
    l->inv_ttm = 1.0 / ttm;
    l->d_coef = f->q + l->inv_ttm;
    l->j21_y1 = -f->sig2 / (l->d_coef * f->h);
    l->j21_y2 = f->sig2 / (4.0 * l->d_coef * f->h);
    l->dt = tau_next - tau_prev;
    if (l->dt <= 0)
        return LAYER_NON_POSITIVE_STEP;
    l->z_prev = z_prev;
    l->inv_dt = 1.0 / l->dt;
    l->half_inv_h = 0.5 / f->h;
    /* beta = r + 1/(T - tau); the central diagonal is z-free */
    l->diag_base = l->inv_dt + f->sig2 / f->h2 + (f->r + l->inv_ttm);
    for (i = 0; i < f->n; i++) {
        f->ds[i] = f->exp_neg_xi[i] * l->inv_ttm;
        f->half_ds_h[i] = f->ds[i] * l->half_inv_h;
        f->rhs[i] = f->y[i + 1] * l->inv_dt;
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
    double s = (f->exp_neg_xi[i] * c->z - 1.0) * l->inv_ttm;
    double d = s * l->half_inv_h;

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

/* LAYER_NON_FINITE, with the first array of J11 (lower[1:], diag,
 * upper[:-1]) and the ncol right-hand sides d that holds a non-finite
 * entry in out[OUT_FAILURE] */
static long non_finite(const struct layer_frame *f, long ncol, const double *d)
{
    f->out[OUT_FAILURE] = (double)non_finite_array(f->n, ncol, f->lower + 1, f->diag, f->upper, d);
    return LAYER_NON_FINITE;
}

/* thomas's verdict on a forward sweep that stored its pivots in f->piv
 * and eliminated the ncol right-hand sides d: LAYER_NON_FINITE if an
 * entry it eliminated is not finite (non_finite), else LAYER_ZERO_PIVOT
 * with the first row whose pivot magnitude falls below the floor in
 * out[OUT_FAILURE], else LAYER_OK */
static long check_sweep(const struct layer_frame *f, const struct sweep *s, long ncol,
                        const double *d)
{
    double floor;
    long i;

    if (!s->finite)
        return non_finite(f, ncol, d);
    floor = pivot_floor(s->cmax, f->pivot_rtol);
    for (i = 0; i < f->n; i++)
        if (fabs(f->piv[i]) < floor) {
            f->out[OUT_FAILURE] = (double)i;
            return LAYER_ZERO_PIVOT;
        }
    return LAYER_OK;
}

/* Newton's forward sweep at (y, z) with y = f->y: the rows, F1 and J12
 * into f[0:n] and f[n:2n], and both eliminated into x, rows 0 .. n - 2
 * down one chain and the last row as the meeting row, as thomas does */
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
    struct chain down = {0.0, 0.0, 0.0};
    long i;

    for (i = 0; i < n; i++) {
        struct row r = build_row(f, l, &c, i);

        f1[i] = r.lower * y[i] + r.diag * y[i + 1] + r.upper * y[i + 2] - f->rhs[i];
        j12[i] = r.da * y[i] + r.dc * y[i + 1] + r.db * y[i + 2];
        s.f1max = nan_max(s.f1max, fabs(f1[i]), i);
        s.finite &= isfinite(f1[i]) && isfinite(j12[i]);
        tally_row(&s, n, i, &r);
        f->piv[i] = i < n - 1 ? chain_step(2, n, i == 0, 0, i, r.lower, r.diag, r.upper, f->f,
                                           NULL, f->cp, f->x, &down)
                              : meet(2, n, n - 1, 0, r.lower, r.diag, r.upper, f->f, NULL,
                                     &down, &down, f->x);
    }
    return s;
}

/* The out[] slots of the passes that a frame without diagnostics skips */
static void skip_diagnostics(double *out)
{
    out[OUT_RESIDUAL_F1] = NAN;
    out[OUT_BACKWARD_ERROR] = NAN;
    out[OUT_RESIDUAL_F2] = NAN;
}

/* The end of a Newton layer at the accepted (y, z) with y = f->y: the
 * rows, F1 into f[0:n], and in out[] max |F1| and the backward error */
static void newton_final(const struct layer_frame *frame, const struct layer *layer, double z)
{
    const struct layer_frame fc = *frame, *f = &fc;  /* copies: see build_row */
    const struct layer lc = *layer, *l = &lc;
    const struct rows_at c = rows_at(f, l, z);
    double f1max = 0.0, backward = 0.0;
    long i;

    for (i = 0; i < f->n; i++) {
        struct row r = build_row(f, l, &c, i);
        double f1, e = row_backward_error(r.lower, r.diag, r.upper, f->rhs[i], f->y, i, &f1);

        f->f[i] = f1;
        f1max = nan_max(f1max, fabs(f1), i);
        backward = nan_max(backward, e, i);
    }
    f->out[OUT_RESIDUAL_F1] = f1max;
    f->out[OUT_BACKWARD_ERROR] = backward;
}

/* Newton's iterations on the layer l started by frame_start from
 * (y, z_prev), updating the frame's y[1..n] (the previous layer on entry)
 * in place, with the frame's tol, max_iter, pivot_rtol and schur_floor.
 * The first iterate is the previous layer when y_start is NULL, else
 * (y_start[0..n-1], z_start) as y[1..n] and z; the previous layer stays
 * in the layer's rhs = y_prev/dt and in mu's (z - z_prev)/(dt z) either
 * way.  Returns LAYER_OK with the accepted z and the layer's diagnostics
 * in out[] (out[OUT_PREDICTOR_FALLBACK] = 0), or the status of the first failure,
 * with its failure record in out[] (the non-positive z, the non-finite
 * array, the failing pivot row, the Schur denominator, or the last step
 * and max_iter).  Without the frame's diagnostics out[OUT_RESIDUAL_F1],
 * out[OUT_BACKWARD_ERROR] and out[OUT_RESIDUAL_F2] are NaN, and F1 at the
 * accepted z is not built. */
static __attribute__((noinline)) long newton_layer(const struct layer_frame *f,
                                                   const struct layer *l, const double *y_start,
                                                   double z_start)
{
    struct sweep s;
    const long n = f->n;
    double *y = f->y, *u = f->x, *v = f->x + n, *out = f->out;
    double z = y_start ? z_start : l->z_prev, step = 0.0, f2;
    long it, i, violations = 0, onesided_max = 0, status;

    if (y_start)
        memcpy(y + 1, y_start, n * sizeof(double));
    for (it = 1; it <= f->max_iter; it++) {
        double j21_u, j21_v, denom, dz, step_y = 0.0;

        if (z <= 0) {
            out[OUT_FAILURE] = z;
            return LAYER_NON_POSITIVE_Z;
        }
        s = newton_sweep(f, l, z);
        f2 = residual_constraint(f, l, y, z);
        if (it == 1)
            out[OUT_INITIAL_RESIDUAL] = py_max(s.f1max, fabs(f2));
        if (s.onesided > onesided_max)
            onesided_max = s.onesided;
        violations += s.violations;

        /* u = J11^{-1} F1 and v = J11^{-1} J12 */
        status = check_sweep(f, &s, 2, f->f);
        if (status != LAYER_OK)
            return status;
        back_substitute_outward(2, n, n - 1, f->cp, f->x);
        j21_u = l->j21_y1 * u[0] + l->j21_y2 * u[1];
        j21_v = l->j21_y1 * v[0] + l->j21_y2 * v[1];
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
        out[OUT_ITERATIONS] = (double)f->max_iter;
        out[OUT_FAILURE] = step;
        return LAYER_NO_CONVERGENCE;
    }
    if (z <= 0) {
        out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    if (f->diagnostics) {
        newton_final(f, l, z);
        out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, l, y, z));
    } else {
        skip_diagnostics(out);
    }
    out[OUT_ITERATIONS] = (double)it;
    out[OUT_Z] = z;
    out[OUT_ONESIDED_ROWS] = (double)onesided_max;
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_PREDICTOR_FALLBACK] = 0.0;
    return LAYER_OK;
}

/* Row i of pc's frozen solve at z, built and returned, with its
 * right-hand side (y^prev_i/dt, and a_1 y_0 added on row 0 for the
 * Dirichlet value y_0 = -1) in the frame's single, both tallied into s */
ROW_STEP struct row frozen_row(const struct layer_frame *f, const struct layer *l,
                               const struct rows_at *c, long i, struct sweep *s)
{
    struct row r = build_row(f, l, c, i);

    f->single[i] = i ? f->rhs[i] : f->rhs[0] + r.lower;
    s->finite &= isfinite(f->single[i]);
    tally_row(s, f->n, i, &r);
    return r;
}

/* pc's frozen solve: one forward sweep builds the rows at z > 0 and
 * eliminates the frame's single right-hand side, y^prev/dt with a_1 y_0
 * added for the Dirichlet value y_0 = -1, into y[1..n] from both ends,
 * taking row k of the downward chain and row n - 1 - k of the upward one
 * in turn, then the meeting row m = n/2; and the backward sweep solves
 * y[1..n] there, outward from m, between y[0] = -1 and y[n+1] = 0.
 * Returns LAYER_OK with the rows failing strict diagonal dominance in
 * *violations and the upwinded rows in *onesided, or the status of the
 * failure, with out[OUT_FAILURE] = the non-positive z, the non-finite
 * array or the lowest failing pivot row. */
static long frozen_solve(const struct layer_frame *frame, const struct layer *layer, double z,
                         double *y, long *violations, long *onesided)
{
    const struct layer_frame fc = *frame, *f = &fc;  /* copies: see build_row */
    const struct layer lc = *layer, *l = &lc;
    struct rows_at c;
    struct sweep s = {0, 0, 0.0, 0.0, 1};
    struct chain down = {0.0, 0.0, 0.0}, up = {0.0, 0.0, 0.0};
    const long n = f->n, m = n / 2;
    struct row r;
    long i, k, status;

    if (z <= 0) {
        f->out[OUT_FAILURE] = z;
        return LAYER_NON_POSITIVE_Z;
    }
    c = rows_at(f, l, z);
    for (k = 0; k < m; k++) {
        r = frozen_row(f, l, &c, k, &s);
        f->piv[k] = chain_step(1, n, k == 0, 0, k, r.lower, r.diag, r.upper, f->single, NULL,
                               f->cp, y + 1, &down);
        if (k < n - 1 - m) {
            i = n - 1 - k;
            r = frozen_row(f, l, &c, i, &s);
            f->piv[i] = chain_step(1, n, k == 0, 0, i, r.upper, r.diag, r.lower, f->single,
                                   NULL, f->cp, y + 1, &up);
        }
    }
    r = frozen_row(f, l, &c, m, &s);
    f->piv[m] = meet(1, n, m, 0, r.lower, r.diag, r.upper, f->single, NULL, &down, &up, y + 1);
    y[0] = -1.0;
    y[n + 1] = 0.0;
    status = check_sweep(f, &s, 1, f->single);
    if (status != LAYER_OK)
        return status;
    back_substitute_outward(1, n, m, f->cp, y + 1);
    *violations = s.violations;
    *onesided = s.onesided;
    return LAYER_OK;
}

/* J12_i, row i of pc's J12 at y, into the frame's single, its finiteness
 * into *finite */
ROW_STEP void j12_entry(const struct layer_frame *f, long i, const double *y, int *finite)
{
    f->single[i] = f->da[i] * y[i] + f->dc[i] * y[i + 1] + f->db[i] * y[i + 2];
    *finite &= isfinite(f->single[i]);
}

/* pc's corrector on the layer l started by frame_start from (y, z_prev),
 * from z_tilde: the frozen solve at z_tilde, one Schur step on the
 * boundary, the frozen solve at the new z, written over the frame's y
 * (the previous layer on entry), and the layer's diagnostics,
 * with the frame's pivot_rtol and schur_floor.  Returns LAYER_OK with
 * out[OUT_Z], out[OUT_RESIDUAL_F1] and out[OUT_BACKWARD_ERROR] (both the
 * row-wise backward error), out[OUT_RESIDUAL_F2], out[OUT_ONESIDED_ROWS]
 * and out[OUT_DOMINANCE_VIOLATIONS], with an infinite initial residual
 * (the corrector has no iterate before its own) in
 * out[OUT_INITIAL_RESIDUAL], leaving the predictor's out[OUT_ITERATIONS]
 * and out[OUT_PREDICTOR_FALLBACK] as they are, or the status of the first failure,
 * with out[OUT_FAILURE] = the non-positive z, the non-finite array, the
 * failing pivot row or the Schur denominator.
 * Without the frame's diagnostics out[OUT_RESIDUAL_F1],
 * out[OUT_BACKWARD_ERROR] and out[OUT_RESIDUAL_F2] are NaN. */
static __attribute__((noinline)) long pc_corrector(const struct layer_frame *f,
                                                   const struct layer *l, double z_tilde)
{
    const long n = f->n, m = n / 2;
    double *y = f->y, *v = f->x, *out = f->out, denom, z, backward = 0.0;
    struct chain down = {0.0, 0.0, 0.0}, up = {0.0, 0.0, 0.0};
    long i, k, violations, onesided, status;
    int finite = 1;

    status = frozen_solve(f, l, z_tilde, y, &violations, &onesided);
    if (status != LAYER_OK)
        return status;
    /* one Newton step on (F1, F2) from (y, z_tilde), where F1 vanishes:
     * dz = -F2 / (1 - J21 J11^{-1} J12), with v = J11^{-1} J12 solved over
     * the pivots and cp of the frozen solve, whose J11 it is, from both
     * ends as that solve eliminated them */
    for (k = 0; k < m; k++) {
        j12_entry(f, k, y, &finite);
        chain_step(1, n, k == 0, 1, k, f->lower[k], 0.0, 0.0, f->single, f->piv, f->cp, v,
                   &down);
        if (k < n - 1 - m) {
            i = n - 1 - k;
            j12_entry(f, i, y, &finite);
            chain_step(1, n, k == 0, 1, i, f->upper[i], 0.0, 0.0, f->single, f->piv, f->cp, v,
                       &up);
        }
    }
    j12_entry(f, m, y, &finite);
    meet(1, n, m, 1, f->lower[m], 0.0, f->upper[m], f->single, f->piv, &down, &up, v);
    if (!finite)
        return non_finite(f, 1, f->single);
    back_substitute_outward(1, n, m, f->cp, v);
    /* J21's y_2 term is the boundary's, fixed at 0, when n = 1 */
    denom = 1.0 - (l->j21_y1 * v[0] + l->j21_y2 * (n > 1 ? v[1] : 0.0));
    if (fabs(denom) < f->schur_floor) {
        out[OUT_FAILURE] = denom;
        return LAYER_SINGULAR_SCHUR;
    }
    z = z_tilde - residual_constraint(f, l, y, z_tilde) / denom;
    status = frozen_solve(f, l, z, y, &violations, &onesided);
    if (status != LAYER_OK)
        return status;

    if (f->diagnostics) {
        for (i = 0; i < n; i++) {
            double f1;

            backward = nan_max(backward, row_backward_error(f->lower[i], f->diag[i],
                                                            f->upper[i], f->rhs[i], y, i, &f1),
                               i);
        }
        out[OUT_RESIDUAL_F1] = backward;
        out[OUT_BACKWARD_ERROR] = backward;
        out[OUT_RESIDUAL_F2] = fabs(residual_constraint(f, l, y, z));
    } else {
        skip_diagnostics(out);
    }
    out[OUT_Z] = z;
    out[OUT_ONESIDED_ROWS] = (double)onesided;
    out[OUT_DOMINANCE_VIOLATIONS] = (double)violations;
    out[OUT_INITIAL_RESIDUAL] = INFINITY;
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

/* The predictor's bracket scan: BRACKET_SCAN + 1 points of
 * np.linspace(z_prev / f, z_prev f) for f = BRACKET_FACTOR,
 * BRACKET_FACTOR^2, ... over BRACKET_EXPANSIONS widenings */
#define BRACKET_SCAN 64
#define BRACKET_FACTOR 2.0
#define BRACKET_EXPANSIONS 6

/* The predictor's root on the layer l started by frame_start from
 * (y, z_prev), from the previous layer's y[0..2] in the frame's y: the
 * bracket scan, keeping the sign-change cell whose midpoint is nearest
 * z_prev, then safeguarded Newton inside it, with the frame's tol and
 * max_iter.
 * Returns LAYER_OK with the root in out[OUT_Z], its iterations in
 * out[OUT_ITERATIONS] and out[OUT_PREDICTOR_FALLBACK] = 0; where the scan finds no
 * sign change, LAYER_OK with the layer's fallback, z_prev with no
 * iterations and out[OUT_PREDICTOR_FALLBACK] = 1; or LAYER_NO_CONVERGENCE with the
 * last step in out[OUT_FAILURE] and max_iter in out[OUT_ITERATIONS], or
 * LAYER_NON_POSITIVE_Z with the root in out[OUT_FAILURE]. */
static __attribute__((noinline)) long pc_predictor(const struct layer_frame *f,
                                                   const struct layer *l)
{
    struct predictor_eq e;
    const long max_iter = f->max_iter;
    const double h = f->h, r = f->r, q = f->q, sig2 = f->sig2, z_prev = l->z_prev;
    const double y0p = f->y[0], y1p = f->y[1], y2p = f->y[2];
    double beta = r + l->inv_ttm, lap_prev, *out = f->out;
    double zs[BRACKET_SCAN + 1], vals[BRACKET_SCAN + 1];
    double factor = BRACKET_FACTOR, lo, hi, f_lo, x, fx, step = 0.0;
    long k, i, it, pick = -1;

    e.q = q;
    e.r = r;
    e.z_prev = z_prev;
    e.dt = l->dt;
    e.ttm = l->ttm;
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
    e.dg = l->d_coef;
    e.inv_ttm = l->inv_ttm;
    e.exp_h_ttm = e.exp_h / l->ttm;

    for (k = 0; k < BRACKET_EXPANSIONS && pick < 0; k++) {
        double start = z_prev / factor, stop = z_prev * factor, best = 0.0;
        double delta = stop - start, dz = delta / (double)BRACKET_SCAN;

        for (i = 0; i < BRACKET_SCAN; i++)  /* np.linspace's grid, its endpoint set exactly */
            zs[i] = dz == 0.0 ? (double)i / (double)BRACKET_SCAN * delta + start
                              : (double)i * dz + start;
        zs[BRACKET_SCAN] = stop;
        for (i = 0; i <= BRACKET_SCAN; i++)
            vals[i] = predictor_residual(&e, zs[i]);
        /* np.argmin over the cells' distances: the first minimum, or the first NaN */
        for (i = 0; i < BRACKET_SCAN; i++) {
            double d;

            if (!(sign(vals[i]) * sign(vals[i + 1]) <= 0.0))
                continue;
            d = fabs(0.5 * (zs[i] + zs[i + 1]) - z_prev);
            if (pick < 0 || (!isnan(best) && (d < best || isnan(d)))) {
                pick = i;
                best = d;
            }
        }
        factor *= BRACKET_FACTOR;
    }
    if (pick < 0) {
        out[OUT_Z] = z_prev;
        out[OUT_ITERATIONS] = 0.0;
        out[OUT_PREDICTOR_FALLBACK] = 1.0;
        return LAYER_OK;
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
        if (step < f->tol || (hi - lo) < f->tol)
            break;
    }
    if (it > max_iter) {
        out[OUT_ITERATIONS] = (double)max_iter;
        out[OUT_FAILURE] = step;
        return LAYER_NO_CONVERGENCE;
    }
    if (x <= 0) {
        out[OUT_FAILURE] = x;
        return LAYER_NON_POSITIVE_Z;
    }
    out[OUT_Z] = x;
    out[OUT_ITERATIONS] = (double)it;
    out[OUT_PREDICTOR_FALLBACK] = 0.0;
    return LAYER_OK;
}

/* march's engines (native.py names them) */
enum { MARCH_NEWTON, MARCH_PC };

/* One engine's steps j = first .. stop - 1 of a march of `total` layers
 * on the time mesh taus[0 .. total] in the frame f: layer j + 1, from
 * (taus[j], surface[j], rho[j]) to taus[j + 1], is written to
 * surface[j + 1] (rows of n + 2 values) and rho[j + 1], and its out[]
 * slots to rows[j] (OUT_SLOTS each, out[OUT_FAILURE] = 0), with the
 * limits in f.  A step reads only stored layers (layer j, and a Newton
 * step's extrapolation layers j - 1 and j - 2), so steps 0 .. total - 1
 * march the whole mesh from the stored layer 0, and a shorter range
 * replays its layers from the ones stored before it.  Every layer starts
 * with frame_start, which refuses a layer with tau_next >= T or a
 * non-positive step, and goes on to its engine's layer functions.
 * Newton's layer is newton_layer.  Layers 4 .. total - 1 start from the
 * three-point Lagrange extrapolation of the stored layers j, j - 1 and
 * j - 2 to taus[j + 1], w0 (y_j, z_j) + w1 (y_{j-1}, z_{j-1}) +
 * w2 (y_{j-2}, z_{j-2}), and layer 3, whose three-layer start would read
 * the datum, from the linear one through layers 2 and 1 (w2 = 0), each
 * written to f's first; layers 1 and 2, next to the datum's jump, and
 * the final layer, whose step ends next to maturity, start from the
 * previous layer.  Which start a layer takes is decided against total,
 * whatever first and stop are.
 * pc's layer is pc_predictor, then pc_corrector from its z (z_prev on the
 * predictor's fallback), with the predictor's iterations and fallback
 * flag in out[OUT_ITERATIONS] and out[OUT_PREDICTOR_FALLBACK].
 * With f's diagnostics 0 the layers skip the passes that only fill
 * diagnostics, whose slots in rows then read NaN; y, z and every other
 * slot are the same bits.
 * march publishes the number of layers stored in f's count, each time
 * with release ordering: first + 1 on entry, and j + 2 once layer j + 1
 * is stored, so a thread that loads the count with acquire ordering
 * (published) may read those layers while the march runs.  That store is
 * the only thing a layer costs beyond its own work.
 * Returns LAYER_OK, or the status of the first failing layer, with
 * *failed = its layer j + 1, whose row rows[j] holds its failure record;
 * the count then stays at j + 1.  f's own y and out are not used. */
long march(struct layer_frame *f, long engine, long total, long first, long stop,
           const double *taus, double *rho, double *surface, double *rows, long *failed)
{
    struct layer_frame layer = *f;
    const long n = f->n, width = n + 2;
    long i, j, status;

    __atomic_store_n(&f->count, first + 1, __ATOMIC_RELEASE);
    for (j = first; j < stop; j++) {
        struct layer l;
        double *out = rows + j * OUT_SLOTS;
        const double *y_prev = surface + j * width;

        layer.out = out;
        layer.y = surface + (j + 1) * width;
        memcpy(layer.y, y_prev, width * sizeof(double));
        status = frame_start(&layer, &l, taus[j], taus[j + 1], rho[j]);
        if (status == LAYER_OK && engine == MARCH_NEWTON) {
            const double *y_start = NULL;
            double z_start = rho[j];

            if (j >= 2 && j + 1 < total) {
                /* the Lagrange weights of layers j, j - 1 and j - 2 (of j and
                 * j - 1 alone into layer 3) at taus[j + 1] */
                double a = taus[j + 1] - taus[j], b = taus[j] - taus[j - 1], w0, w1, w2 = 0.0;

                if (j >= 3) {
                    double c = taus[j - 1] - taus[j - 2];

                    w0 = (a + b) * (a + b + c) / (b * (b + c));
                    w1 = -a * (a + b + c) / (b * c);
                    w2 = a * (a + b) / ((b + c) * c);
                } else {
                    w0 = (a + b) / b;
                    w1 = -a / b;
                }
                for (i = 1; i <= n; i++)
                    f->first[i - 1] = w0 * y_prev[i] + w1 * y_prev[i - width]
                        + w2 * y_prev[i - 2 * width];
                z_start = w0 * rho[j] + w1 * rho[j - 1] + w2 * rho[j - 2];
                y_start = f->first;
            }
            status = newton_layer(&layer, &l, y_start, z_start);
        } else if (status == LAYER_OK) {
            status = pc_predictor(&layer, &l);
            if (status == LAYER_OK)
                status = pc_corrector(&layer, &l, out[OUT_Z]);
        }
        if (status != LAYER_OK) {
            *failed = j + 1;
            return status;
        }
        rho[j + 1] = out[OUT_Z];
        out[OUT_FAILURE] = 0.0;
        __atomic_store_n(&f->count, j + 2, __ATOMIC_RELEASE);
    }
    return LAYER_OK;
}

/* The layer count that march publishes in the frame f, loaded with
 * acquire ordering: every read this thread makes after the call, in C or
 * not, sees the layers it counts as march stored them. */
long published(const struct layer_frame *f)
{
    return __atomic_load_n(&f->count, __ATOMIC_ACQUIRE);
}

/* The CSV writer's cells: Python's "%.9f" of every double, bit for bit.
 *
 * "%.9f" rounds the exact binary value of x to 9 decimals, ties to even.
 * Below 1e18, |x| splits exactly into its integer part, a uint64, and
 * its fraction f < 1, where p = f 1e9 rounds to a double below 2^52,
 * every half-integer of which is a double: so nearbyint(p) is the
 * correctly rounded f 1e9 unless p itself sits on a half, and then the
 * exact error fma(f, 1e9, -p) (an explicit call, which -ffp-contract=off
 * leaves alone) says which side the true product lies on; only an exact
 * tie is left to nearbyint's ties-to-even, and a fraction that rounds to
 * 1e9 carries into the integer part.  The sign is x's, so -0.0 and
 * -1e-12 both print -0.000000000, as Python's do.  fixed9_wide writes
 * the rest. */
#define FIXED9_CELL 320  /* the widest cell, -DBL_MAX's: sign, 309 digits, point, 9 decimals */

/* x in "%.9f" into s, and a NUL after it, returning its length, when x
 * is not finite or |x| >= 1e18: a NaN prints nan whatever its sign, as
 * Python's does (glibc prints -nan), and any other x is an integer,
 * which "%.0f" writes exactly with no radix character, so LC_NUMERIC
 * cannot change it.  Kept out of line: no default output reaches it. */
static __attribute__((noinline)) int fixed9_wide(double x, char *s)
{
    if (!isfinite(x))
        return sprintf(s, "%s", isnan(x) ? "nan" : x < 0 ? "-inf" : "inf");
    return sprintf(s, "%.0f.000000000", x);
}

/* "00" "01" .. "99": two decimals a step, each step independent of the
 * others, where a digit a step makes nine dependent divisions */
static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the two decimals of v < 100 into s */
static inline void put_pair(char *s, unsigned v)
{
    memcpy(s, DIGIT_PAIRS + 2 * v, 2);
}

/* x in "%.9f" into s, returning its length; at most FIXED9_CELL bytes,
 * and one more, a NUL, for a cell that fixed9_wide writes */
static int fixed9_cell(double x, char *s)
{
    char digits[20];
    double ax = fabs(x), f, p, n;
    unsigned long long whole;
    unsigned frac, high, low;
    int len = 0, k;

    if (!(ax < 1e18))
        return fixed9_wide(x, s);
    whole = (unsigned long long)ax;
    f = ax - (double)whole;
    p = f * 1e9;
    n = nearbyint(p);
    if (fabs(p - n) == 0.5) {
        double err = fma(f, 1e9, -p);

        if (err != 0.0)
            n = p + copysign(0.5, err);
    }
    if (n == 1e9) {
        whole++;
        n = 0.0;
    }
    frac = (unsigned)n;
    if (signbit(x))
        s[len++] = '-';
    if (whole < 10) {
        s[len++] = (char)('0' + whole);
    } else {
        k = 0;
        do {
            digits[k++] = (char)('0' + whole % 10);
            whole /= 10;
        } while (whole);
        while (k)
            s[len++] = digits[--k];
    }
    s[len++] = '.';
    /* the 9 decimals: the first 5 of high, then the 4 of low */
    high = frac / 10000;
    low = frac % 10000;
    s[len] = (char)('0' + high / 10000);
    put_pair(s + len + 1, high / 100 % 100);
    put_pair(s + len + 3, high % 100);
    put_pair(s + len + 5, low / 100);
    put_pair(s + len + 7, low % 100);
    return len + 9;
}

/* rows x cols cells, row-major, as CSV lines "c,c,...\r\n" into out,
 * which holds at least rows (cols (FIXED9_CELL + 1) + 1) bytes.
 * Returns the number of bytes written. */
long fixed9_rows(long rows, long cols, const double *cells, char *out)
{
    char *s = out;
    long i, k;

    if (cols < 1)
        return 0;
    for (i = 0; i < rows; i++) {
        for (k = 0; k < cols; k++) {
            s += fixed9_cell(cells[i * cols + k], s);
            *s++ = ',';
        }
        s[-1] = '\r';
        *s++ = '\n';
    }
    return s - out;
}

/* The bytes fixed9_surface copies at once for a cell and its comma: any
 * cell below 1e18 fits, with its sign */
#define FIXED9_COPY 32

/* the len bytes of text into s, returning s + len.  A text of at most
 * FIXED9_COPY bytes is copied with one FIXED9_COPY-byte memcpy, so s and
 * text must each have FIXED9_COPY bytes from their start: the bytes after
 * s + len hold whatever followed the text, for the caller to overwrite */
static inline char *copy_cell(char *s, const char *text, long len)
{
    if (len <= FIXED9_COPY)
        memcpy(s, text, FIXED9_COPY);
    else
        memcpy(s, text, len);
    return s + len;
}

/* layers x n lines "tau,xi,pi\r\n" of surface.csv into out, which holds
 * at least layers n (3 (FIXED9_CELL + 1) + 1) bytes: the n xi cells,
 * formatted once per call, and each layer's tau cell, formatted once, each
 * with its comma, copied into every line (copy_cell), and the pi cells
 * formatted from the (layers, n) row-major pi.  A line takes 3 cells, 2
 * commas and "\r\n", so each of its cells has FIXED9_CELL + 1 >=
 * FIXED9_COPY bytes of out: a copy_cell of a cell ends within its line's
 * reservation, and the pi cell and the next line overwrite the bytes it
 * copied past the cell's comma.  Returns the number of bytes written; the
 * bytes of out after them are unspecified.  Returns -1, writing nothing,
 * when the xi cells' scratch cannot be allocated. */
long fixed9_surface(long layers, long n, const double *taus, const double *xi,
                    const double *pi, char *out)
{
    char tau[FIXED9_CELL + 1];  /* a cell and its comma, or fixed9_wide's NUL */
    /* xi cell i and its comma at xi_text + xi_at[i], ending at xi_at[i + 1],
     * and FIXED9_COPY bytes after the last for its copy */
    long *xi_at = malloc((n + 1) * sizeof(long) + n * (FIXED9_CELL + 1) + FIXED9_COPY);
    char *xi_text, *s = out;
    long j, i;

    if (!xi_at)
        return -1;
    xi_text = (char *)(xi_at + n + 1);
    xi_at[0] = 0;
    for (i = 0; i < n; i++) {
        char *cell = xi_text + xi_at[i];
        int len = fixed9_cell(xi[i], cell);

        cell[len] = ',';
        xi_at[i + 1] = xi_at[i] + len + 1;
    }
    for (j = 0; j < layers; j++) {
        long tau_len = fixed9_cell(taus[j], tau);

        tau[tau_len++] = ',';
        for (i = 0; i < n; i++) {
            s = copy_cell(s, tau, tau_len);
            s = copy_cell(s, xi_text + xi_at[i], xi_at[i + 1] - xi_at[i]);
            s += fixed9_cell(pi[j * n + i], s);
            *s++ = '\r';
            *s++ = '\n';
        }
    }
    free(xi_at);
    return s - out;
}
