"""Reference computations used only by the test suite.

Two kinds live here.

Independent oracles, which share no code with the kernel: the
difference-quotient form of F1 (``residual_interior``), the constraint
written out (``constraint_root``, ``residual_constraint``) and the
central finite-difference Jacobian built from them; the dense solves of
a tridiagonal system, of the bordered Newton Jacobian and of a frozen
layer (``dense_solve``, ``dense_jacobian``, ``frozen_layer``), whose
rows come from ``frame_rows`` below but whose elimination is numpy's
LAPACK; the mask blend of both stencils (``layer_rows_where``); the
fixed-point layer solve; csv.writer's surface.csv; and the continuous
model's coefficients.

Twins of the compiled kernel, which repeat its C code operation by
operation in numpy, so that each gives the kernel's bits: the z-free
part of a layer (``frame_start``, thomas.c's frame_start, with the
constraint's coefficients and its row J21), the layer rows
(``frame_rows``, each row thomas.c's build_row, written into a
native.LayerFrame's buffers and returned as ``LayerRows``), F1, J12, F2,
the dominance count and the row-wise backward error; Newton's layer
(``newton_layer_numpy``, thomas.c's newton_layer); and the
predictor-corrector's predictor and corrector (``predictor_numpy``,
``correct_numpy``: pc_predictor and pc_corrector).
A layer's twins fill its out[] row by the names of native.OUT_FIELDS,
in a record of its own (``out_row``), as the C layer fills its row.
They eliminate in Python, not with C, with ``_kernels.pure``'s one
elimination loop (``pure_solve``), whose chains meet where thomas.c's
do: at the last row in Newton's solves, at row n // 2 in pc's.
``predictor_numpy`` returns the predictor's fallback as its result, as
pc_predictor does where it finds no root, and ``pc_layer`` is one
predictor-corrector layer made of the twins.
``march_numpy`` is thomas.c's march on the twins, one Python call per
layer, which copies each layer's record into its row of the march's
rows, and ``numpy_layers()`` runs both engines' marches on it, which is
how the tests hold every march, layer failure and predictor iterate of
the kernel against its twin.

native.march is the only way into the kernel's layers.  ``replay`` runs
one layer through it: layer j + 1 of a stored march, exactly as the
march ran it, and ``one_layer`` the layer from a crafted state over
[tau_prev, tau_next], a march of one layer, which starts from the
previous layer; each returns the layer's state and the record of its
out[] row, and inside ``numpy_layers()`` both run on the twins.  Two
inputs that no march takes, a Newton layer from a start of the test's
choosing and a corrector from a z_tilde of its choosing, run on the
twins alone (``newton_layer_numpy``, ``correct_numpy``), which the
march digests keep bit-identical to the kernel.
"""

import contextlib
import csv
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import pytest

from asianfb import tridiag
from asianfb._kernels import native, pure
from asianfb.errors import NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
from asianfb.mesh import LayerState
from asianfb.model import MarketParams
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig
from asianfb.solver_pc import PredictorConfig


# -- numpy twins of the compiled layer functions ----------------------------

# thomas.c's BRACKET_SCAN, BRACKET_FACTOR and BRACKET_EXPANSIONS, the
# predictor's bracket scan (test_kernel_mirror checks them against it)
BRACKET_SCAN, BRACKET_FACTOR, BRACKET_EXPANSIONS = 64, 2.0, 6


def j11(frame):
    """J11 of ``frame``, (lower[1:], diag, upper[:-1]): three views of
    its row buffers."""
    return frame.lower[1:], frame.diag, frame.upper[:-1]


@dataclass(frozen=True)
class LayerRows:
    """Interior rows i = 1..N-1 of the layer system at one boundary iterate.

    F1 = lower * y[:-2] + diag * y[1:-1] + upper * y[2:] - rhs, and
    (da, dc, db) are the z-derivatives of (lower, diag, upper) with the
    one-sided switch held fixed.
    """

    lower: np.ndarray  # a_i
    diag: np.ndarray   # c_i
    upper: np.ndarray  # b_i
    da: np.ndarray     # d(a_i)/dz
    dc: np.ndarray     # d(c_i)/dz
    db: np.ndarray     # d(b_i)/dz
    rhs: np.ndarray    # y^prev_i / dt
    onesided: np.ndarray  # bool; True where the singular term is upwinded


def out_row(**slots):
    """One layer's out[] row as a record of its own (see native.records),
    each slot 0 unless ``slots`` gives it a value by name."""
    out = native.records(np.zeros((1, native.OUT_SLOTS)))[0]
    for name, value in slots.items():
        setattr(out, name, value)
    return out


def pure_solve(lower, diag, upper, rhs, *, meet=None):
    """tridiag.thomas_solve on the pure elimination, whose chains meet at
    row ``meet`` (by default the last, the Thomas sweep)."""
    x, fail = pure.thomas(lower, diag, upper, rhs, tridiag.PIVOT_RTOL, meet=meet)
    if fail >= 0:
        raise ZeroPivot(fail)
    return x


def _constraint_coefficients(tau_next, p):
    """(c0, c1) with F2 = z - c0 - c1 (-3 y_0 + 4 y_1 - y_2)/(2h)."""
    if not tau_next < p.T:
        raise ValueError(f"tau_next must be < T; got {tau_next} with T={p.T}")
    ttm = p.T - tau_next
    denom = 1.0 + p.q * ttm
    return (1.0 + p.r * ttm) / denom, 0.5 * p.sigma**2 * ttm / denom


def constraint_row(tau_next, g, p):
    """J21 = (dF2/dy_1, dF2/dy_2), the only y-dependence of the constraint."""
    ttm = p.T - tau_next
    d_coef = p.q + 1.0 / ttm
    sig2 = p.sigma**2
    return -sig2 / (d_coef * g.h), sig2 / (4.0 * d_coef * g.h)


@dataclass(frozen=True)
class LayerStart:
    """The z-free scalars of the layer from ``prev`` to ``tau_next`` that
    frame_start computed, next to the buffers it filled in ``frame``."""

    frame: native.LayerFrame
    prev: LayerState
    tau_next: float
    dt: float
    inv_ttm: float     # 1/(T - tau_next)
    half_inv_h: float  # 0.5/h
    diag_base: float
    constraint: tuple  # (c0, c1)
    j21: tuple         # (dF2/dy_1, dF2/dy_2)


def _squared(z):
    """z**2 as thomas.c's pow(z, 2.0) gives it: a float's ** is the same
    libm pow, but raises OverflowError where pow returns inf."""
    try:
        return z**2
    except OverflowError:
        return math.inf


def frame_start(frame, prev, tau_next) -> LayerStart:
    """Build the z-free part of the layer from ``prev`` to ``tau_next`` in
    the buffers of ``frame``: ds_i/dz = e^{-xi_i}/(T - tau) and its 0.5/h
    scaling, rhs = y^prev/dt and, in central mode, the z-free diagonal,
    dc = 0 and no one-sided row (frame_rows writes every row of those in
    upwind mode), each row multiplied by the layer's reciprocals 1/dt,
    1/(T - tau) and 0.5/h; and return the layer's scalars.

    Raises ValueError unless tau_next < T and tau_next > prev.tau.
    """
    p, g, h = frame.p, frame.g, frame.g.h
    constraint = _constraint_coefficients(tau_next, p)
    j21 = constraint_row(tau_next, g, p)
    dt = tau_next - prev.tau
    if dt <= 0:
        raise ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={prev.tau}")
    inv_dt, inv_ttm, half_inv_h = 1.0 / dt, 1.0 / (p.T - tau_next), 0.5 / h
    np.multiply(g.exp_neg_xi, inv_ttm, out=frame.ds)
    np.multiply(frame.ds, half_inv_h, out=frame.half_ds_h)
    # beta = r + 1/(T - tau); the central diagonal is z-free
    diag_base = inv_dt + p.sigma**2 / h**2 + (p.r + inv_ttm)
    if frame.mode is SchemeMode.CENTRAL:
        frame.diag.fill(diag_base)
        frame.dc.fill(0.0)
        frame.onesided.fill(False)
    np.multiply(prev.y[1:-1], inv_dt, out=frame.rhs)
    return LayerStart(frame=frame, prev=prev, tau_next=tau_next, dt=dt, inv_ttm=inv_ttm,
                      half_inv_h=half_inv_h, diag_base=diag_base, constraint=constraint,
                      j21=j21)


def frame_rows(start, z) -> LayerRows:
    """Write the rows, their z-derivatives and the one-sided mask at z into
    the buffers of the frame that frame_start built ``start`` in, and
    return them.

    The central rows are built everywhere, and then only the rows the
    one-sided switch selects are rewritten (none in central mode).
    """
    if z <= 0:
        raise NonPositiveZ(float(z))
    frame = start.frame
    rows = LayerRows(**{field.name: getattr(frame, field.name) for field in fields(LayerRows)})
    g, p = frame.g, frame.p
    sig2 = p.sigma**2
    h, dt, diff = g.h, start.dt, 0.5 * sig2 / g.h**2
    z_prev, diag_base = start.prev.z, start.diag_base
    # bounded advection part mu and singular part s_i; only these depend on z:
    # dmu/dz = z_prev/(dt z^2), ds_i/dz = e^{-xi_i}/(T - tau)
    mu = (z - z_prev) / (dt * z) + p.r - p.q - 0.5 * sig2
    s = np.multiply(g.exp_neg_xi, z)
    s -= 1.0
    s *= start.inv_ttm
    dmu = z_prev / (dt * _squared(z))

    # central rows everywhere
    adv = 0.5 * mu / h
    d = np.multiply(s, start.half_inv_h)
    np.add(d, -adv - diff, out=rows.lower)
    np.subtract(adv - diff, d, out=rows.upper)
    np.add(frame.half_ds_h, -0.5 * dmu / h, out=rows.da)
    np.subtract(0.5 * dmu / h, frame.half_ds_h, out=rows.db)
    if frame.mode is SchemeMode.CENTRAL:
        return rows
    # restore the z-free diagonal and dc, which an earlier call may have rewritten
    rows.diag.fill(diag_base)
    rows.dc.fill(0.0)
    # |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal
    np.subtract(mu, s, out=d)
    np.greater(np.abs(d, out=d), sig2 / h, out=rows.onesided)
    idx = rows.onesided.nonzero()[0]
    if idx.size:
        # the singular term upwinded: forward where s_i >= 0, backward otherwise
        s1, ds1 = s[idx], frame.ds[idx]
        pos = s1 >= 0.0
        rows.lower[idx] = -adv - diff + np.where(pos, 0.0, s1 / h)
        rows.upper[idx] = adv - diff - np.where(pos, s1 / h, 0.0)
        rows.diag[idx] = diag_base + np.abs(s1) / h
        rows.da[idx] = -0.5 * dmu / h + np.where(pos, 0.0, ds1 / h)
        rows.dc[idx] = np.where(pos, ds1 / h, -ds1 / h)
        rows.db[idx] = 0.5 * dmu / h - np.where(pos, ds1 / h, 0.0)
    return rows


def interior_residual(rows, y, out=None):
    """F1 in row form; y carries its boundary values.  Written into ``out`` if given."""
    f1 = np.multiply(rows.lower, y[:-2], out=out)
    f1 += rows.diag * y[1:-1]
    f1 += rows.upper * y[2:]
    f1 -= rows.rhs
    return f1


def z_column(rows, y, out=None):
    """J12 = dF1/dz at y and the boundary value the rows were assembled at."""
    j12 = np.multiply(rows.da, y[:-2], out=out)
    j12 += rows.dc * y[1:-1]
    j12 += rows.db * y[2:]
    return j12


def frame_constraint(start, y, z):
    """F2 of the layer that frame_start built ``start`` for, at (y, z)."""
    c0, c1 = start.constraint
    y0, y1, y2 = y[:3].tolist()
    return float(z - float(c0 + c1 * ((-3.0 * y0 + 4.0 * y1 - y2) / (2.0 * start.frame.g.h))))


def dominance_violations(rows):
    """Rows failing strict diagonal dominance."""
    return int(np.count_nonzero(np.abs(rows.diag) <= np.abs(rows.lower) + np.abs(rows.upper)))


def backward_error(rows, y):
    """The row-wise backward error of F1 at y: max |F1_i| over the
    magnitudes of the terms F1_i sums."""
    terms = np.abs(rows.lower * y[:-2]) + np.abs(rows.diag * y[1:-1]) \
        + np.abs(rows.upper * y[2:]) + np.abs(rows.rhs)
    f1 = np.abs(interior_residual(rows, y))
    return float(np.max(f1 / np.where(terms > 0.0, terms, 1.0)))


def newton_layer_numpy(prev, tau_next, g, p, mode, cfg=NewtonConfig(), frame=None,
                       states=None, start=None):
    """thomas.c's newton_layer with its iterations in numpy, from the
    first iterate ``start``, a (y, z) pair, or by default from ``prev``:
    the new state and the layer's out[] row (out_row).

    ``states``, when given, is a list that gains (y, z) at each evaluation
    of F2: at every iterate, and once more at the accepted state.
    """
    if frame is None:
        frame = native.LayerFrame(g, p, mode)
    layer = frame_start(frame, prev, tau_next)  # raises ValueError past maturity
    j21_y1, j21_y2 = layer.j21
    f1, j12 = frame.pair_rhs
    y = prev.y.copy()
    y1 = y[1:-1]
    z = prev.z
    if start is not None:
        y1[:] = start[0][1:-1]
        z = start[1]
    out = out_row()

    def constraint(y, z):
        if states is not None:
            states.append((y.copy(), z))
        return frame_constraint(layer, y, z)

    for it in range(1, cfg.max_iter + 1):
        rows = frame_rows(layer, z)  # raises NonPositiveZ
        interior_residual(rows, y, out=f1)
        z_column(rows, y, out=j12)
        f2 = constraint(y, z)
        if it == 1:
            out.initial_residual = max(float(np.abs(f1).max()), abs(f2))
        out.onesided_rows = max(out.onesided_rows, np.count_nonzero(rows.onesided))
        out.dominance_violations += dominance_violations(rows)

        u, v = pure_solve(*j11(frame), frame.pair_rhs)
        j21_u = j21_y1 * u[0] + j21_y2 * u[1]
        j21_v = j21_y1 * v[0] + j21_y2 * v[1]
        denom = 1.0 - j21_v  # J22 = 1
        if abs(denom) < tridiag.SCHUR_FLOOR:
            raise SingularSchur(f"Schur denominator {denom:.3e} at tau={tau_next:.6g}")
        dz = (-f2 + j21_u) / denom
        dy1 = np.negative(u, out=u)
        dy1 -= v * dz  # dY1 = -u - v dz
        y1 += dy1
        z = z + dz
        out.iterations = it
        step = max(float(np.abs(dy1).max()), abs(dz))
        if step < cfg.tol:
            break
    else:
        raise NoConvergence(cfg.max_iter, step)

    rows = frame_rows(layer, z)  # raises NonPositiveZ
    out.residual_f1 = np.abs(interior_residual(rows, y, out=f1)).max()
    out.residual_f2 = abs(constraint(y, z))
    out.backward_error = backward_error(rows, y)
    out.z = z
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), out


def predictor_equations(prev, tau_next, g, p):
    """Residual R(z) of the predictor's (I) - (II), its analytic derivative
    and the right side of (I), the y_1 it implies.

    Each closure takes a scalar z or an array of them.
    """
    dt = tau_next - prev.tau
    ttm = p.T - tau_next
    h = g.h
    sig2 = p.sigma**2
    beta_val = p.r + 1.0 / ttm
    drift = p.r - p.q - 0.5 * sig2
    y0p, y1p, y2p = prev.y[0], prev.y[1], prev.y[2]
    grad_prev = (y2p - y0p) / (2.0 * h)
    lap_prev = (y2p - 2.0 * y1p + y0p) / h**2
    exp_h = math.exp(-h)

    def eq_i(z):
        g_val = p.q * z - p.r + (z - 1.0) / ttm
        alpha0 = (z - prev.z) / (dt * z) + drift - (z - 1.0) / ttm
        return (2.0 * alpha0 * h**2 / sig2**2 + 2.0 * h / sig2) * g_val \
            - beta_val * h**2 / sig2 - 1.0

    def eq_ii(z):
        alpha1 = (z - prev.z) / (dt * z) + drift - (z * exp_h - 1.0) / ttm
        flux = alpha1 * grad_prev - 0.5 * sig2 * lap_prev
        return y1p - dt * (flux + beta_val * y1p)

    def residual(z):
        return eq_i(z) - eq_ii(z)

    def derivative(z):
        dg = p.q + 1.0 / ttm
        g_val = p.q * z - p.r + (z - 1.0) / ttm
        alpha0 = (z - prev.z) / (dt * z) + drift - (z - 1.0) / ttm
        dalpha = prev.z / (dt * _squared(z))
        d_i = (2.0 * h**2 / sig2**2) * (dalpha - 1.0 / ttm) * g_val \
            + (2.0 * alpha0 * h**2 / sig2**2 + 2.0 * h / sig2) * dg
        d_flux = (dalpha - exp_h / ttm) * grad_prev
        d_ii = -dt * d_flux
        return d_i - d_ii

    return residual, derivative, eq_i


def _bracket_nearest(residual, z_prev):
    """Sign-change cell closest to z_prev inside an expanding bracket, or
    None where there is none."""
    factor = BRACKET_FACTOR
    for _ in range(BRACKET_EXPANSIONS):
        zs = np.linspace(z_prev / factor, z_prev * factor, BRACKET_SCAN + 1)
        vals = residual(zs)
        signs = np.sign(vals)
        cells = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
        if cells.size:
            mids = 0.5 * (zs[cells] + zs[cells + 1])
            pick = cells[int(np.argmin(np.abs(mids - z_prev)))]
            return zs[pick], zs[pick + 1], vals[pick], vals[pick + 1]
        factor *= BRACKET_FACTOR
    return None


class Prediction(NamedTuple):
    z: float
    iterations: int
    fallback: bool


def predictor_numpy(prev, tau_next, g, p, cfg=PredictorConfig()):
    """thomas.c's pc_predictor with its bracket scan and root in numpy: the
    root and its iterations, or, where the scan finds no sign change, the
    layer's fallback, z_prev with no iterations."""
    residual, derivative, _ = predictor_equations(prev, tau_next, g, p)
    bracket = _bracket_nearest(residual, prev.z)
    if bracket is None:
        return Prediction(z=prev.z, iterations=0, fallback=True)
    lo, hi, f_lo, _ = bracket

    x = 0.5 * (lo + hi)
    fx = residual(x)
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if fx == 0.0:
            break
        # keep the bracket valid around the root
        if f_lo * fx <= 0.0:
            hi = x
        else:
            lo, f_lo = x, fx
        dfx = derivative(x)
        if dfx != 0.0:
            x_new = x - fx / dfx
        else:
            x_new = math.nan
        # x is a bracket end here, so a converged (zero) Newton step lands on
        # one; accept it rather than bisect away from the root
        if not (lo < x_new < hi or x_new == x):
            x_new = 0.5 * (lo + hi)  # bisection fallback
        step = abs(x_new - x)
        x = x_new
        fx = residual(x)
        if step < cfg.root_tol or (hi - lo) < cfg.root_tol:
            break
    else:
        raise NoConvergence(cfg.max_iter, step)
    if x <= 0:
        raise NonPositiveZ(x)
    return Prediction(z=x, iterations=iterations, fallback=False)


def _frozen_solve(start, z):
    """Interior rows frozen at boundary value z and the layer y they solve for."""
    rows = frame_rows(start, z)  # raises NonPositiveZ
    frame = start.frame
    np.copyto(frame.single_rhs, rows.rhs)
    frame.single_rhs[0] += rows.lower[0]  # a_1 y_0 with the Dirichlet value y_0 = -1
    y = np.empty(frame.g.N + 1)
    y[0] = -1.0
    y[-1] = 0.0
    # pc's solves meet at row n // 2, as in thomas.c
    y[1:-1] = pure_solve(*j11(frame), frame.single_rhs, meet=frame.diag.size // 2)
    return rows, y


def correct_numpy(prev, tau_next, frame, z_tilde):
    """thomas.c's pc_corrector in numpy: frozen solve at z_tilde, one Schur step
    on the boundary, frozen solve at the new z; the new state and the
    layer's out[] row (out_row) as the corrector leaves it, with the
    predictor's iterations 0 and no fallback."""
    start = frame_start(frame, prev, tau_next)
    rows, y = _frozen_solve(start, z_tilde)
    # one Newton step on (F1, F2) from (y, z_tilde): F1 vanishes there, so the
    # Schur step of the Newton engine reduces to dz = -F2 / (1 - J21 J11^{-1} J12)
    z_column(rows, y, out=frame.single_rhs)
    v = pure_solve(*j11(frame), frame.single_rhs, meet=frame.diag.size // 2)
    j21_y1, j21_y2 = start.j21
    # J21's y_2 term is the boundary's, fixed at 0, when there is one interior row
    denom = 1.0 - (j21_y1 * v[0] + j21_y2 * (v[1] if v.size > 1 else 0.0))
    if abs(denom) < tridiag.SCHUR_FLOOR:
        raise SingularSchur(f"Schur denominator {denom:.3e} at tau={tau_next:.6g}")
    z = z_tilde - frame_constraint(start, y, z_tilde) / denom
    rows, y = _frozen_solve(start, z)

    # linear-solve quality: row-wise backward error of the stored layer
    rel_f1 = backward_error(rows, y)
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), out_row(
        z=z, initial_residual=np.inf, onesided_rows=np.count_nonzero(rows.onesided),
        dominance_violations=dominance_violations(rows), residual_f1=rel_f1,
        residual_f2=abs(frame_constraint(start, y, z)), backward_error=rel_f1)


def pc_layer(prev, tau_next, frame, cfg):
    """One predictor and one corrector on the twins, from the predictor's
    z, z_prev on its fallback: thomas.c's pc layer in march, which starts
    the layer in the frame (frame_start) before its predictor runs."""
    frame_start(frame, prev, tau_next)  # raises ValueError past maturity
    pred = predictor_numpy(prev, tau_next, frame.g, frame.p, cfg)
    state, out = correct_numpy(prev, tau_next, frame, pred.z)
    out.iterations, out.predictor_fallback = pred.iterations, pred.fallback
    return state, out


def extrapolated_start(taus, rho, surface, j):
    """The first iterate of layer j + 1 of a Newton march whose layers
    0 .. j are stored in (rho, surface) on the time mesh ``taus``, as
    thomas.c's march takes it: for layers 3 .. M - 1 the (y, z) pair
    w0 (y_j, z_j) + w1 (y_{j-1}, z_{j-1}) + w2 (y_{j-2}, z_{j-2}) with
    the Lagrange weights of taus[j], taus[j - 1] and taus[j - 2] at
    taus[j + 1] (of taus[j] and taus[j - 1] alone, w2 = 0, for layer 3);
    else None, the previous layer."""
    if not 2 <= j < taus.size - 2:
        return None
    t = [float(tau) for tau in taus[j - 2:j + 2]]
    a, b, c = t[3] - t[2], t[2] - t[1], t[1] - t[0]
    if j >= 3:
        w0, w1, w2 = ((a + b) * (a + b + c) / (b * (b + c)), -a * (a + b + c) / (b * c),
                      a * (a + b) / ((b + c) * c))
    else:
        w0, w1, w2 = (a + b) / b, -a / b, 0.0
    z = w0 * float(rho[j]) + w1 * float(rho[j - 1]) + w2 * float(rho[j - 2])
    return w0 * surface[j] + w1 * surface[j - 1] + w2 * surface[j - 2], z


def march_numpy(frame, engine, taus, rho, surface, rows, *, first=0, stop=None):
    """native.march on the numpy twins, one layer call at a time: the same
    arguments (of checked arrays) and result, the same layers and rows in
    the caller's arrays (each layer's twins fill its out[] row, which is
    copied into the march's rows; they compute every diagnostic, and NaN
    is written where the kernel skips them, with the frame's diagnostics
    0), and the same layer count published in the frame, first + 1 on
    entry and then as each layer is stored.
    The count is stored under the GIL, after the layer, so a reader that
    takes the GIL after reading it sees the layer."""
    g, p, mode, limits = frame.g, frame.p, frame.mode, frame.struct
    if engine == "newton":
        cfg = NewtonConfig(tol=limits.tol, max_iter=limits.max_iter)
    else:
        cfg = PredictorConfig(root_tol=limits.tol, max_iter=limits.max_iter)
    # the twins read tridiag's limits at each call
    assert (limits.pivot_rtol, limits.schur_floor) == (tridiag.PIVOT_RTOL, tridiag.SCHUR_FLOOR)
    stop = taus.size - 1 if stop is None else stop
    rows[first:stop] = np.nan
    records = native.records(rows)
    limits.count = first + 1
    state = LayerState(j=first, tau=float(taus[first]), y=surface[first].copy(),
                       z=float(rho[first]))
    for j in range(first, stop):
        tau_next = float(taus[j + 1])
        try:
            if engine == "newton":
                state, out = newton_layer_numpy(state, tau_next, g, p, mode, cfg, frame=frame,
                                                start=extrapolated_start(taus, rho, surface, j))
            else:
                state, out = pc_layer(state, tau_next, frame, cfg)
        except Exception as exc:  # noqa: BLE001 - the march hands each failure back
            return j + 1, exc
        rho[j + 1], surface[j + 1] = state.z, state.y
        records[j] = out
        if not limits.diagnostics:
            records.residual_f1[j] = records.residual_f2[j] = records.backward_error[j] = np.nan
        limits.count = j + 2
    return None


@contextlib.contextmanager
def numpy_layers():
    """Run both engines' marches on march_numpy inside the block:
    march_newton, march_pc, replay, one_layer and everything that calls
    them (analysis, the CLI) then make no C layer call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "march", march_numpy)
        yield


def set_limits(frame, cfg):
    """Write the limits of ``cfg`` (a NewtonConfig or a PredictorConfig)
    and tridiag's, as they are at the call, into the LayerFrame
    ``frame``, with its diagnostics on, as the engine's march does.
    Returns the engine's name for native.march."""
    newton = isinstance(cfg, NewtonConfig)
    frame.set_limits({"tol": cfg.tol if newton else cfg.root_tol, "max_iter": cfg.max_iter,
                      "pivot_rtol": tridiag.PIVOT_RTOL, "schur_floor": tridiag.SCHUR_FLOOR,
                      "diagnostics": 1})
    return "newton" if newton else "pc"


def replay(frame, cfg, taus, rho, surface, j):
    """Layer j + 1 of a march on the time mesh ``taus`` with ``cfg`` (a
    NewtonConfig or a PredictorConfig, which names the engine) and
    tridiag's limits as they are at the call, in the LayerFrame ``frame``:
    one native.march call over step j alone, from the layers 0 .. j
    stored in ``rho`` and ``surface``, so it runs as the march ran it,
    from the start the march takes there.  The layer is written into
    rho[j + 1] and surface[j + 1].  Returns the state of layer j + 1 and
    the record of its out[] row (see native.records); raises the layer's
    failure."""
    engine = set_limits(frame, cfg)
    rows = np.zeros((taus.size - 1, native.OUT_SLOTS))
    failure = native.march(frame, engine, taus, rho, surface, rows, first=j, stop=j + 1)
    if failure is not None:
        raise failure[1]
    return LayerState(j=j + 1, tau=float(taus[j + 1]), y=surface[j + 1].copy(),
                      z=float(rho[j + 1])), native.records(rows)[j]


def one_layer(frame, cfg, prev, tau_next):
    """The layer from the state ``prev`` to tau_next (see replay): a march
    of one layer over [prev.tau, tau_next], which starts from the previous
    layer.  Returns the state of layer prev.j + 1 and its out[] row's
    record."""
    surface = np.empty((2, prev.y.size))
    surface[0] = prev.y
    state, out = replay(frame, cfg, np.array([prev.tau, tau_next]), np.array([prev.z, 0.0]),
                        surface, 0)
    state.j = prev.j + 1
    return state, out


def predicted_root(prev, tau_next, g, p, cfg=PredictorConfig()):
    """The predictor's root on the layer from ``prev`` to tau_next, which
    the pc layer's corrector starts from, or None where it has no root
    and the layer falls back: the twin's, once the kernel's pc layer
    (one_layer) is checked bit for bit against the twins' from that root.
    A march keeps the root to itself."""
    ended = []
    for layers in (contextlib.nullcontext(), numpy_layers()):
        with layers:
            state, out = one_layer(native.LayerFrame(g, p, SchemeMode.UPWIND_SINGULAR), cfg,
                                   prev, tau_next)
        ended.append((state.y.tobytes(), state.z, out))
    assert ended[0] == ended[1]
    if out.predictor_fallback:
        return None
    return predictor_numpy(prev, tau_next, g, p, cfg).z


# -- independent oracles ----------------------------------------------------

def layer_rows(prev, z_next, tau_next, g, p, mode):
    """The rows, their z-derivatives and the F1 right-hand side at one
    iterate, from a LayerFrame of their own."""
    return frame_rows(frame_start(native.LayerFrame(g, p, mode), prev, tau_next), z_next)


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
    """march_pc's corrector on one layer from a z_tilde of the caller's
    choosing, on its twin: frozen solve at z_tilde, one Schur step on the
    boundary, frozen solve at the new z."""
    return correct_numpy(prev, tau_next, native.LayerFrame(g, p, mode), z_tilde)[0]


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


def newton_steps_and_dense_solves(prev, tau_next, g, p, mode):
    """One Newton layer, and for each of its iterations the step it took
    (the difference of consecutive iterates) with the dense solve of
    J dY = -F at the earlier iterate, J from build_jacobian.

    The layer runs on its numpy twin, whose iterates can be observed; the
    compiled kernel runs all of a layer's iterations in one call."""
    states = []
    state, out = newton_layer_numpy(prev, tau_next, g, p, mode, states=states)
    assert len(states) == out.iterations + 1
    pairs = []
    for (y, z), (y_next, z_next) in zip(states, states[1:]):
        blocks = build_jacobian(y[1:-1], z, prev, tau_next, g, p, mode)
        f = np.append(interior_residual(blocks.rows, y),
                      residual_constraint(y, z, tau_next, g, p))
        dense = np.linalg.solve(dense_jacobian(blocks), -f)
        pairs.append((np.append(y_next[1:-1] - y[1:-1], z_next - z), dense))
    return state, pairs


def layer_rows_where(prev, z_next, tau_next, g, p, mode):
    """layer_rows as a mask blend: both stencils on every row under np.where.

    frame_rows, like thomas.c, builds the central rows and rewrites only the
    upwinded ones; this form evaluates each row both ways and picks, so the
    two must agree bit for bit.  It has none of frame_rows' input guards.
    """
    dt = tau_next - prev.tau
    ttm = p.T - tau_next
    h = g.h
    sig2 = p.sigma**2
    mu = (z_next - prev.z) / (dt * z_next) + p.r - p.q - 0.5 * sig2
    exp_xi = np.exp(-g.xi[1:-1])
    # each row multiplies by 1/(T - tau), 0.5/h and 1/dt, as thomas.c does
    inv_ttm, half_inv_h = 1.0 / ttm, 0.5 / h
    s = (z_next * exp_xi - 1.0) * inv_ttm
    dmu = prev.z / (dt * z_next**2)
    ds = exp_xi * inv_ttm
    if mode is SchemeMode.CENTRAL:
        onesided = np.zeros(s.shape, dtype=bool)
    else:
        onesided = np.abs(mu - s) > sig2 / h
    pos = s >= 0.0

    diff = 0.5 * sig2 / h**2
    adv = 0.5 * mu / h
    d = s * half_inv_h
    lower = np.where(onesided, -adv - diff + np.where(pos, 0.0, s / h), -adv - diff + d)
    upper = np.where(onesided, adv - diff - np.where(pos, s / h, 0.0), adv - diff - d)
    diag_base = 1.0 / dt + sig2 / h**2 + (p.r + 1.0 / ttm)
    diag = np.where(onesided, diag_base + np.abs(s) / h, diag_base)
    da = np.where(onesided, -0.5 * dmu / h + np.where(pos, 0.0, ds / h),
                  -0.5 * dmu / h + ds * half_inv_h)
    dc = np.where(onesided, np.where(pos, ds / h, -ds / h), 0.0)
    db = np.where(onesided, 0.5 * dmu / h - np.where(pos, ds / h, 0.0),
                  0.5 * dmu / h - ds * half_inv_h)
    return LayerRows(lower=lower, diag=diag, upper=upper, da=da, dc=dc, db=db,
                     rhs=prev.y[1:-1] * (1.0 / dt), onesided=onesided)


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
