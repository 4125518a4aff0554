"""Independent reference computations used only by the test suite."""

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from asianfb import _kernels, scheme, solver_pc
from asianfb.mesh import LayerState
from asianfb.model import MarketParams
from asianfb.scheme import LayerRows, SchemeMode, constraint_row, interior_residual, z_column
from asianfb.solver_newton import newton_layer


def layer_rows(prev, z_next, tau_next, g, p, mode):
    """The rows, their z-derivatives and the F1 right-hand side at one
    iterate, from a LayerFrame of their own."""
    return scheme.LayerFrame(g, p, mode).start(prev, tau_next).rows(z_next)


def constraint_root(y_next, tau_next, g, p):
    """The z solving F2 = 0 for given y, written from the constraint

        F2 = z - (1 + r ttm)/(1 + q ttm)
                - (sigma^2/2) ttm/(1 + q ttm) (-3 y_0 + 4 y_1 - y_2)/(2h).
    """
    if not tau_next < p.T:
        raise ValueError(f"tau_next must be < T; got {tau_next} with T={p.T}")
    ttm = p.T - tau_next
    slope = (-3.0 * y_next[0] + 4.0 * y_next[1] - y_next[2]) / (2.0 * g.h)
    return float((1.0 + p.r * ttm + 0.5 * p.sigma**2 * ttm * slope) / (1.0 + p.q * ttm))


def residual_constraint(y_next, z_next, tau_next, g, p):
    """Constraint residual F2; affine in z_next with unit leading coefficient."""
    return float(z_next - constraint_root(y_next, tau_next, g, p))


def corrector(prev, z_tilde, tau_next, g, p, mode):
    """march_pc's corrector on one layer: frozen solve at z_tilde, one Schur
    step on the boundary, frozen solve at the new z."""
    return solver_pc._correct(scheme.LayerFrame(g, p, mode).start(prev, tau_next), z_tilde)[0]


@contextlib.contextmanager
def backend_in_use(module):
    """Run the kernel backend ``module`` (pure or native) inside the block."""
    if module is _kernels.native:
        assert _kernels.native.load()
    saved = _kernels._active
    _kernels._active = module
    try:
        yield
    finally:
        _kernels._active = saved


def discrete_alpha(z_next, z_prev, k, p, xi, tau_next):
    """Discrete advection coefficient alpha_i at the new layer."""
    zdot = (z_next - z_prev) / (k * z_next)
    return (
        zdot
        + p.r
        - p.q
        - 0.5 * p.sigma**2
        - (z_next * np.exp(-np.asarray(xi)) - 1.0) / (p.T - tau_next)
    )


@dataclass(frozen=True)
class RowCoefficients:
    """Single interior row: sub/main/super coefficients and d_i."""

    a_i: float
    c_i: float
    b_i: float
    d_i: float


def assemble_interior_row(i, prev, z_next, tau_next, g, p, mode):
    """Row coefficients at a single interior node (1 <= i <= N-1).

    d_i = (z e^{-xi_i} - 1) / (2h (T - tau)) is the singular-advection
    coefficient of the central row.
    """
    if not 1 <= i <= g.N - 1:
        raise ValueError(f"interior node index must satisfy 1 <= i <= N-1, got {i}")
    rows = layer_rows(prev, z_next, tau_next, g, p, mode)
    d_i = (z_next * np.exp(-g.xi[i]) - 1.0) / (2.0 * g.h * (p.T - tau_next))
    return RowCoefficients(
        a_i=float(rows.lower[i - 1]),
        c_i=float(rows.diag[i - 1]),
        b_i=float(rows.upper[i - 1]),
        d_i=float(d_i),
    )


def residual_interior(y_next, prev, z_next, tau_next, g, p, mode):
    """Interior residual F1 (difference-quotient form, one value per node).

    Written directly from the scheme rather than through the row
    coefficients; it pins the row form F1 = rows . y - y_prev/dt.
    """
    y_next = np.asarray(y_next, dtype=float)
    if y_next[0] != -1.0 or y_next[-1] != 0.0:
        raise ValueError("y_next must carry boundary values y[0]=-1, y[-1]=0")
    dt = tau_next - prev.tau
    ttm = p.T - tau_next
    mu = (z_next - prev.z) / (dt * z_next) + p.r - p.q - 0.5 * p.sigma**2
    s = (z_next * np.exp(-g.xi[1:-1]) - 1.0) / ttm
    beta_val = p.r + 1.0 / ttm
    h = g.h
    yc = y_next[1:-1]
    yl = y_next[:-2]
    yr = y_next[2:]
    if mode is SchemeMode.CENTRAL:
        onesided = np.zeros(s.shape, dtype=bool)
    else:
        onesided = np.abs(mu - s) > p.sigma**2 / h

    central_slope = (yr - yl) / (2.0 * h)
    one_slope = np.where(s >= 0.0, (yr - yc) / h, (yc - yl) / h)
    advection = np.where(
        onesided, mu * central_slope - s * one_slope, (mu - s) * central_slope
    )
    return (
        (yc - prev.y[1:-1]) / dt
        + advection
        - 0.5 * p.sigma**2 * (yr - 2.0 * yc + yl) / h**2
        + beta_val * yc
    )


def dense_tridiag(lower, diag, upper):
    n = diag.size
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = lower
    a[np.arange(n - 1), np.arange(1, n)] = upper
    return a


class System(NamedTuple):
    """The four arrays of a thomas_solve call, by name."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray


def tridiag_matvec(sys, x):
    """A x for a System's matrix A, from its three diagonals."""
    x = np.asarray(x, dtype=float)
    out = sys.diag * x
    out[1:] += sys.lower * x[:-1]
    out[:-1] += sys.upper * x[1:]
    return out


def dense_solve(sys):
    """Dense LU solve of a System (O(n^3)); oracle for thomas_solve."""
    return np.linalg.solve(dense_tridiag(sys.lower, sys.diag, sys.upper), sys.rhs)


@dataclass
class JacobianBlocks:
    """Bordered-tridiagonal Jacobian of Newton's layer system."""

    lower: np.ndarray   # J11 sub-diagonal (a_2..a_{N-1})
    diag: np.ndarray    # J11 diagonal (c_1..c_{N-1})
    upper: np.ndarray   # J11 super-diagonal (b_1..b_{N-2})
    j12: np.ndarray     # dF1_i/dz
    j21_y1: float       # dF2/dy_1 = -sigma^2/(D h)
    j21_y2: float       # dF2/dy_2 = +sigma^2/(4 D h)
    j22: float          # dF2/dz = 1
    rows: LayerRows     # assembly the blocks were cut from


def build_jacobian(y_next, z_next, prev, tau_next, g, p, mode) -> JacobianBlocks:
    """Analytic Jacobian blocks at iterate (y_next interior, z_next)."""
    rows = layer_rows(prev, z_next, tau_next, g, p, mode)
    y = np.concatenate([[-1.0], np.asarray(y_next, dtype=float), [0.0]])
    j21_y1, j21_y2 = constraint_row(tau_next, g, p)
    return JacobianBlocks(lower=rows.lower[1:], diag=rows.diag, upper=rows.upper[:-1],
                          j12=z_column(rows, y), j21_y1=j21_y1, j21_y2=j21_y2, j22=1.0,
                          rows=rows)


def dense_jacobian(blocks):
    """Full (N, N) matrix of Newton's JacobianBlocks; oracle for the block elimination."""
    m = blocks.diag.size
    full = np.zeros((m + 1, m + 1))
    full[:m, :m] = dense_tridiag(blocks.lower, blocks.diag, blocks.upper)
    full[:m, m] = blocks.j12
    full[m, 0] = blocks.j21_y1
    full[m, 1] = blocks.j21_y2
    full[m, m] = blocks.j22
    return full


class RecordingFrame(scheme.LayerFrame):
    """A LayerFrame that records (y, z) at each constraint evaluation.

    newton_layer evaluates F2 at every iterate and once more at the accepted
    state, so a layer of k iterations records k + 1 states.
    """

    def __post_init__(self):
        super().__post_init__()
        self.states = []

    def residual_constraint(self, y, z):
        self.states.append((y.copy(), z))
        return super().residual_constraint(y, z)


def newton_steps_and_dense_solves(prev, tau_next, g, p, mode):
    """One newton_layer call, and for each of its iterations the step it took
    (the difference of consecutive iterates) with the dense solve of
    J dY = -F at the earlier iterate, J from build_jacobian.

    The layer runs on the pure backend, whose Python loop the frame
    observes; the compiled kernel runs all of a layer's iterations in one
    call."""
    frame = RecordingFrame(g, p, mode)
    with backend_in_use(_kernels.pure):
        state, diag = newton_layer(prev, tau_next, g, p, mode, frame=frame)
    assert len(frame.states) == diag.iterations + 1
    pairs = []
    for (y, z), (y_next, z_next) in zip(frame.states, frame.states[1:]):
        blocks = build_jacobian(y[1:-1], z, prev, tau_next, g, p, mode)
        f = np.append(interior_residual(blocks.rows, y),
                      residual_constraint(y, z, tau_next, g, p))
        dense = np.linalg.solve(dense_jacobian(blocks), -f)
        pairs.append((np.append(y_next[1:-1] - y[1:-1], z_next - z), dense))
    return state, pairs


def layer_rows_where(prev, z_next, tau_next, g, p, mode):
    """scheme.layer_rows as a mask blend: both stencils on every row under np.where.

    The library builds the central rows and rewrites only the upwinded ones;
    this form evaluates each row both ways and picks, so the two must agree
    bit for bit.  It has none of the library's input guards.
    """
    dt = tau_next - prev.tau
    ttm = p.T - tau_next
    h = g.h
    sig2 = p.sigma**2
    mu = (z_next - prev.z) / (dt * z_next) + p.r - p.q - 0.5 * sig2
    exp_xi = np.exp(-g.xi[1:-1])
    s = (z_next * exp_xi - 1.0) / ttm
    dmu = prev.z / (dt * z_next**2)
    ds = exp_xi / ttm
    if mode is SchemeMode.CENTRAL:
        onesided = np.zeros(s.shape, dtype=bool)
    else:
        onesided = np.abs(mu - s) > sig2 / h
    pos = s >= 0.0

    diff = 0.5 * sig2 / h**2
    adv = 0.5 * mu / h
    d = 0.5 * s / h
    lower = np.where(onesided, -adv - diff + np.where(pos, 0.0, s / h), -adv - diff + d)
    upper = np.where(onesided, adv - diff - np.where(pos, s / h, 0.0), adv - diff - d)
    diag_base = 1.0 / dt + sig2 / h**2 + (p.r + 1.0 / ttm)
    diag = np.where(onesided, diag_base + np.abs(s) / h, diag_base)
    da = np.where(onesided, -0.5 * dmu / h + np.where(pos, 0.0, ds / h),
                  -0.5 * dmu / h + 0.5 * ds / h)
    dc = np.where(onesided, np.where(pos, ds / h, -ds / h), 0.0)
    db = np.where(onesided, 0.5 * dmu / h - np.where(pos, ds / h, 0.0),
                  0.5 * dmu / h - 0.5 * ds / h)
    return LayerRows(lower=lower, diag=diag, upper=upper, da=da, dc=dc, db=db,
                     rhs=prev.y[1:-1] / dt, onesided=onesided)


def write_surface_csv(path, taus, xi, surface):
    """surface.csv through csv.writer, one row and three formatted cells at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "xi", "pi"])
        for j, tau in enumerate(taus):
            for x, val in zip(xi, surface[j]):
                writer.writerow([f"{tau:.9f}", f"{x:.9f}", f"{val:.9f}"])


def frozen_layer(prev, z, tau_next, g, p, mode):
    """Dense solve of the interior rows with coefficients frozen at z."""
    rows = layer_rows(prev, z, tau_next, g, p, mode)
    rhs = prev.y[1:-1] / (tau_next - prev.tau)
    rhs[0] += rows.lower[0]  # move a_1 * y_0 = -a_1 to the right-hand side
    mat = dense_tridiag(rows.lower[1:], rows.diag, rows.upper[:-1])
    return np.concatenate([[-1.0], np.linalg.solve(mat, rhs), [0.0]])


def solve_layer_fixed_point(prev, tau_next, g, p, mode, omega=0.5,
                            tol=1e-13, max_iter=500):
    """Brute-force solve of one layer system, avoiding the Newton machinery.

    Alternates a dense linear solve of the interior rows at frozen z with a
    damped update of z from the constraint until z stops moving.
    """
    z = prev.z
    y = prev.y.copy()
    for _ in range(max_iter):
        y = frozen_layer(prev, z, tau_next, g, p, mode)
        z_new = constraint_root(y, tau_next, g, p)
        step = z_new - z
        z = z + omega * step
        if abs(step) < tol:
            break
    return y, z


def stationary_state(z_start, dt, tau_next, g, p, mode, omega=0.5,
                     tol=1e-13, max_iter=500):
    """Manufacture a state that is a fixed point of the implicit step.

    Finds (y*, z*) with F1(y*; y_prev=y*, z_prev=z*) = 0 and F2(y*, z*) = 0,
    so a layer solve starting from it must return it unchanged.
    """
    z = z_start
    y = None
    for _ in range(max_iter):
        template = LayerState(j=0, tau=tau_next - dt,
                              y=_boundary_template(g.N), z=z)
        rows = layer_rows(template, z, tau_next, g, p, mode)
        # stationarity: rows . y - y/dt = boundary contribution
        mat = dense_tridiag(rows.lower[1:], rows.diag, rows.upper[:-1])
        mat -= np.eye(g.N - 1) / dt
        rhs = np.zeros(g.N - 1)
        rhs[0] = rows.lower[0]  # from a_1 * y_0 with y_0 = -1
        y_int = np.linalg.solve(mat, rhs)
        y = np.concatenate([[-1.0], y_int, [0.0]])
        z_new = constraint_root(y, tau_next, g, p)
        step = z_new - z
        z = z + omega * step
        if abs(step) < tol:
            break
    return LayerState(j=0, tau=tau_next - dt, y=y, z=z)


def _boundary_template(n):
    y = np.zeros(n + 1)
    y[0] = -1.0
    return y


def finite_difference_jacobian(y1, z, prev, tau_next, g, p, mode, step=1e-6):
    """Central finite differences of the full residual (F1, F2)."""

    def full_residual(y1_val, z_val):
        y = np.concatenate([[-1.0], y1_val, [0.0]])
        f1 = residual_interior(y, prev, z_val, tau_next, g, p, mode)
        f2 = residual_constraint(y, z_val, tau_next, g, p)
        return np.concatenate([f1, [f2]])

    m = y1.size + 1
    jac = np.zeros((m, m))
    for col in range(y1.size):
        up = y1.copy()
        dn = y1.copy()
        up[col] += step
        dn[col] -= step
        jac[:, col] = (full_residual(up, z) - full_residual(dn, z)) / (2 * step)
    jac[:, -1] = (full_residual(y1, z + step) - full_residual(y1, z - step)) / (2 * step)
    return jac


# -- continuous model: coefficients, constraint and the inverse transform --
# The engines use only their discretization (scheme); these pin it.
@dataclass(frozen=True)
class TransformedPoint:
    """A point (xi, tau) of the fixed computational strip."""

    xi: float
    tau: float

    def __post_init__(self):
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


def _check_tau(p: MarketParams, tau) -> None:
    tau = np.asarray(tau)
    if np.any(tau < 0) or np.any(tau >= p.T):
        raise ValueError(f"tau must lie in [0, T); got {tau} with T={p.T}")


def beta(p: MarketParams, tau):
    """Reaction coefficient beta(tau) = r + 1/(T - tau); singular at tau = T."""
    _check_tau(p, tau)
    return p.r + 1.0 / (p.T - tau)


def alpha_continuous(p: MarketParams, xi, tau, rho, rho_dot):
    """Advection coefficient of the transformed PDE.

    alpha = rho_dot/rho + r - q - sigma^2/2 - (rho e^{-xi} - 1)/(T - tau).
    The last term is the front-fixing contribution; it is singular both
    as tau -> T and (in sign) across xi = ln(rho).
    """
    _check_tau(p, tau)
    if np.any(np.asarray(rho) <= 0):
        raise ValueError(f"rho must be positive, got {rho}")
    return (
        rho_dot / rho
        + p.r
        - p.q
        - 0.5 * p.sigma**2
        - (rho * np.exp(-np.asarray(xi)) - 1.0) / (p.T - tau)
    )


def rho_constraint(p: MarketParams, tau, slope):
    """Free-boundary ratio implied by the slope dPi/dxi at xi = 0."""
    _check_tau(p, tau)
    ttm = p.T - tau
    return (1.0 + p.r * ttm + 0.5 * p.sigma**2 * ttm * slope) / (1.0 + p.q * ttm)


def boundary_in_original_variables(rho_path, T: float):
    """Map a (tau, rho) boundary path to (t, x_f) with x_f(t) = 1/rho(T-t).

    Returns an array of (t, x_f) rows sorted ascending in t.
    """
    pairs = np.atleast_2d(np.asarray(rho_path, dtype=float))
    if pairs.shape[1] != 2:
        raise ValueError("rho_path must be a sequence of (tau, rho) pairs")
    if np.any(pairs[:, 1] <= 0):
        raise ValueError("all rho values must be positive")
    out = np.column_stack([T - pairs[:, 0], 1.0 / pairs[:, 1]])
    return out[np.argsort(out[:, 0], kind="stable")]


def advection_cancellation_defect(p: MarketParams, tau, rho):
    """alpha + (sigma^2/2 + q - r) at xi = ln(rho), rho_dot = 0: zero identically.

    There the singular term reduces to -1/(T - tau) * 0.
    """
    return alpha_continuous(p, math.log(rho), tau, rho, 0.0) + (
        0.5 * p.sigma**2 + p.q - p.r
    )
