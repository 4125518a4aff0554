"""Implicit difference scheme: the layer rows and the discrete constraint.

Interior equation at node i, layer j+1 (backward Euler in time, step
dt = tau_{j+1} - tau_j):

    (y_i' - y_i)/dt + alpha_i (y_{i+1}' - y_{i-1}')/(2h)
        - (sigma^2/2)(y_{i+1}' - 2 y_i' + y_{i-1}')/h^2 + beta y_i' = 0,

with y_0' = -1, y_N' = 0 and the discrete advection coefficient

    alpha_i = (z' - z)/(dt z') + r - q - sigma^2/2
              - (z' e^{-xi_i} - 1)/(T - tau_{j+1}).

Collecting terms gives the row coefficients (mu is the bounded advection
part, d_i = s_i/(2h) the singular part):

    a_i = -mu/(2h) - sigma^2/(2h^2) + d_i
    c_i = 1/dt + sigma^2/h^2 + r + 1/(T - tau_{j+1})
    b_i = +mu/(2h) - sigma^2/(2h^2) - d_i

LayerFrame is the only assembly of this system, split by what depends on
the boundary iterate z.  Once per time layer, LayerFrame.start computes
the z-free part: dt, 1/(T - tau), e^{-xi_i}/(T - tau) (= ds_i/dz) and its
0.5/h scaling, the central diagonal c_i and dc = 0, and the right-hand
side y_i/dt.  Per iterate, LayerFrame.rows evaluates mu, s_i and the
one-sided switch below once and writes the z-dependent rows and their
z-derivatives (the Newton column dF1/dz) into the frame's buffers, so
both engines take the interior residual from the rows,

    F1_i = a_i y_{i-1}' + c_i y_i' + b_i y_{i+1}' - y_i/dt.

Each row is computed once: rows() builds the central rows and then
rewrites only the rows the one-sided switch below selects (none in
central mode; in upwind-singular mode only near expiry).  Every
operation keeps the order of the one-pass form, so the rows are the same
bits.  The test suite keeps the difference-quotient form of F1 as the
oracle that pins this row form, and the mask blend of both stencils as
the oracle that pins the rewrite.  With the compiled kernel, both
engines' layers run rows() in C (native.newton_layer,
native.pc_corrector) over the same buffers, with the same operations in
the same order.

The boundary constraint closing the system uses the one-sided
second-order slope at xi = 0:

    F2 = z' - (1 + r ttm)/(1 + q ttm)
            - (sigma^2/2) ttm/(1 + q ttm) (-3 y_0' + 4 y_1' - y_2')/(2h).

This module is the whole layer system of both engines: the rows, F1
(interior_residual), J12 = dF1/dz (z_column), F2 and its row J21 =
dF2/dy (constraint_row, which start() evaluates once per layer into
``frame.j21``), and the count of rows that fail diagonal dominance.

Advection modes.  "central" differences the whole advection term
centrally.  "upwind-singular" is central too, except that the singular
term s_i dPi/dxi switches to a first-order one-sided difference (forward
for s_i >= 0, backward otherwise) at exactly those nodes where the
central row would lose its non-positive off-diagonals, i.e. where the
cell Peclet number |alpha_i| h / sigma^2 exceeds 1.  For moderate tau
the two modes coincide; as tau -> T the factor 1/(T - tau) makes the
singular term dominate and the switch engages, restoring the M-matrix
row structure (a_i <= 0, b_i <= 0, strict diagonal dominance by
1/dt + beta) that keeps the march oscillation free through the final
layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveZ
from .mesh import GridSpec, LayerState
from .model import MarketParams

__all__ = ["SchemeMode", "LayerRows", "LayerFrame", "interior_residual", "z_column",
           "constraint_row", "dominance_violations"]


class SchemeMode(str, enum.Enum):
    CENTRAL = "central"
    UPWIND_SINGULAR = "upwind-singular"


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


def interior_residual(rows: LayerRows, y: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """F1 in row form; y carries its boundary values.  Written into ``out`` if given."""
    f1 = np.multiply(rows.lower, y[:-2], out=out)
    f1 += rows.diag * y[1:-1]
    f1 += rows.upper * y[2:]
    f1 -= rows.rhs
    return f1


def z_column(rows: LayerRows, y: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """J12 = dF1/dz at y and the boundary value the rows were assembled at."""
    j12 = np.multiply(rows.da, y[:-2], out=out)
    j12 += rows.dc * y[1:-1]
    j12 += rows.db * y[2:]
    return j12


def constraint_row(tau_next: float, g: GridSpec, p: MarketParams) -> tuple[float, float]:
    """J21 = (dF2/dy_1, dF2/dy_2), the only y-dependence of the constraint."""
    ttm = p.T - tau_next
    d_coef = p.q + 1.0 / ttm
    sig2 = p.sigma**2
    return -sig2 / (d_coef * g.h), sig2 / (4.0 * d_coef * g.h)


def dominance_violations(rows: LayerRows) -> int:
    """Rows failing strict diagonal dominance, counted in both engines' layer steps."""
    return int(np.count_nonzero(np.abs(rows.diag) <= np.abs(rows.lower) + np.abs(rows.upper)))


def _require_pre_maturity(tau_next, T) -> None:
    if not tau_next < T:
        raise ValueError(f"tau_next must be < T; got {tau_next} with T={T}")


def _constraint_coefficients(tau_next: float, g: GridSpec, p: MarketParams):
    """(c0, c1, 2h) with F2 = z - c0 - c1 (-3 y_0 + 4 y_1 - y_2)/(2h)."""
    _require_pre_maturity(tau_next, p.T)
    ttm = p.T - tau_next
    denom = 1.0 + p.q * ttm
    return (1.0 + p.r * ttm) / denom, 0.5 * p.sigma**2 * ttm / denom, 2.0 * g.h


def _root(y: np.ndarray, coefficients) -> float:
    c0, c1, two_h = coefficients
    y0, y1, y2 = y[:3].tolist()
    return float(c0 + c1 * ((-3.0 * y0 + 4.0 * y1 - y2) / two_h))


@dataclass(eq=False)
class LayerFrame:
    """The layer system of one march, assembled in buffers it owns.

    ``start(prev, tau_next)`` builds the frame of a time layer once: dt,
    1/(T - tau) through ttm, ds_i/dz = e^{-xi_i}/(T - tau) and its 0.5/h
    scaling, the z-free diagonal and dc, rhs = y^prev/dt and the
    constraint's coefficients and its row ``j21``.  ``rows(z)`` then
    writes only the z-dependent rows of one iterate into the buffers.  It
    returns the same LayerRows at every call, so each call overwrites the
    rows the last one returned.

    ``j11`` is J11 (lower[1:], diag, upper[:-1]): three views of the row
    buffers, made once.  ``pair_rhs`` (2, n) and ``single_rhs`` (n,) are
    right-hand side buffers that the engines fill and solve in place with
    ``tridiag.thomas_solve(*frame.j11, rhs)``.  Passing the same four
    arrays at every solve lets the compiled kernel reuse its binding of
    them (see _kernels.native).
    """

    g: GridSpec
    p: MarketParams
    mode: SchemeMode

    def __post_init__(self):
        n = self.g.N - 1
        sig2 = self.p.sigma**2
        self._sig2 = sig2
        self._half_sig2 = 0.5 * sig2
        self._diff = 0.5 * sig2 / self.g.h**2
        self._rows = LayerRows(lower=np.zeros(n), diag=np.zeros(n), upper=np.zeros(n),
                               da=np.zeros(n), dc=np.zeros(n), db=np.zeros(n),
                               rhs=np.zeros(n), onesided=np.zeros(n, dtype=bool))
        self._s = np.empty(n)       # singular advection part s_i
        self._d = np.empty(n)       # s_i/(2h), then mu - s_i
        self._ds = np.empty(n)      # ds_i/dz = e^{-xi_i}/(T - tau)
        self._half_ds_h = np.empty(n)
        self._rewritten = False     # whether the last rows() upwinded a row
        rows = self._rows
        self.j11 = (rows.lower[1:], rows.diag, rows.upper[:-1])
        self.pair_rhs = np.zeros((2, n))
        self.single_rhs = np.zeros(n)

    def start(self, prev: LayerState, tau_next: float) -> LayerFrame:
        """Build the z-free part of the layer from ``prev`` to ``tau_next``."""
        p, h = self.p, self.g.h
        self._constraint = _constraint_coefficients(tau_next, self.g, p)
        self.j21 = constraint_row(tau_next, self.g, p)
        dt = tau_next - prev.tau
        if dt <= 0:
            raise ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={prev.tau}")
        ttm = p.T - tau_next
        self.prev, self.tau_next = prev, tau_next
        self._dt, self._ttm, self._z_prev = dt, ttm, prev.z
        np.divide(self.g.exp_neg_xi, ttm, out=self._ds)
        np.multiply(self._ds, 0.5, out=self._half_ds_h)
        self._half_ds_h /= h
        # beta = r + 1/(T - tau); the central diagonal is z-free
        self._diag_base = 1.0 / dt + self._sig2 / h**2 + (p.r + 1.0 / ttm)
        rows = self._rows
        rows.diag.fill(self._diag_base)
        rows.dc.fill(0.0)
        rows.onesided.fill(False)
        self._rewritten = False
        np.divide(prev.y[1:-1], dt, out=rows.rhs)
        return self

    def rows(self, z: float) -> LayerRows:
        """Write the rows, their z-derivatives and the one-sided mask at z."""
        if z <= 0:
            raise NonPositiveZ(float(z))
        rows, h, dt, ttm = self._rows, self.g.h, self._dt, self._ttm
        p, diff, sig2 = self.p, self._diff, self._sig2
        # bounded advection part mu and singular part s_i; only these depend on z:
        # dmu/dz = z_prev/(dt z^2), ds_i/dz = e^{-xi_i}/(T - tau)
        mu = (z - self._z_prev) / (dt * z) + p.r - p.q - self._half_sig2
        s = np.multiply(self.g.exp_neg_xi, z, out=self._s)
        s -= 1.0
        s /= ttm
        dmu = self._z_prev / (dt * z**2)

        # central rows everywhere
        adv = 0.5 * mu / h
        d = np.multiply(s, 0.5, out=self._d)
        d /= h
        np.add(d, -adv - diff, out=rows.lower)
        np.subtract(adv - diff, d, out=rows.upper)
        np.add(self._half_ds_h, -0.5 * dmu / h, out=rows.da)
        np.subtract(0.5 * dmu / h, self._half_ds_h, out=rows.db)
        if self.mode is SchemeMode.CENTRAL:
            return rows
        if self._rewritten:  # restore the z-free diagonal and dc
            rows.diag.fill(self._diag_base)
            rows.dc.fill(0.0)
            self._rewritten = False
        # |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal
        np.subtract(mu, s, out=d)
        np.greater(np.abs(d, out=d), sig2 / h, out=rows.onesided)
        idx = rows.onesided.nonzero()[0]
        if idx.size:
            # the singular term upwinded: forward where s_i >= 0, backward otherwise
            s1, ds1 = s[idx], self._ds[idx]
            pos = s1 >= 0.0
            rows.lower[idx] = -adv - diff + np.where(pos, 0.0, s1 / h)
            rows.upper[idx] = adv - diff - np.where(pos, s1 / h, 0.0)
            rows.diag[idx] = self._diag_base + np.abs(s1) / h
            rows.da[idx] = -0.5 * dmu / h + np.where(pos, 0.0, ds1 / h)
            rows.dc[idx] = np.where(pos, ds1 / h, -ds1 / h)
            rows.db[idx] = 0.5 * dmu / h - np.where(pos, ds1 / h, 0.0)
            self._rewritten = True
        return rows

    def residual_constraint(self, y: np.ndarray, z: float) -> float:
        """F2 of this layer at (y, z): affine in z, with unit leading coefficient."""
        return float(z - _root(y, self._constraint))

