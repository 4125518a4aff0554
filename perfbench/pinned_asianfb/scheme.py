"""Implicit difference scheme: rows, residuals, and the discrete constraint.

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

The boundary constraint closing the system uses the one-sided
second-order slope at xi = 0:

    F2 = z' - (1 + r ttm)/(1 + q ttm)
            - (sigma^2/2) ttm/(1 + q ttm) (-3 y_0' + 4 y_1' - y_2')/(2h).

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

__all__ = [
    "SchemeMode",
    "RowCoefficients",
    "LayerRows",
    "discrete_alpha",
    "layer_rows",
    "assemble_interior_row",
    "row_z_derivatives",
    "residual_interior",
    "residual_constraint",
    "constraint_root",
]


class SchemeMode(str, enum.Enum):
    CENTRAL = "central"
    UPWIND_SINGULAR = "upwind-singular"


@dataclass(frozen=True)
class RowCoefficients:
    """Single interior row: sub/main/super coefficients and d_i."""

    a_i: float
    c_i: float
    b_i: float
    d_i: float


@dataclass(frozen=True)
class LayerRows:
    """Vectorized rows for i = 1..N-1 plus the one-sided switch mask."""

    lower: np.ndarray  # a_i
    diag: np.ndarray   # c_i
    upper: np.ndarray  # b_i
    d: np.ndarray      # singular-advection coefficient s_i/(2h)
    onesided: np.ndarray  # bool; True where the singular term is upwinded

    @property
    def n(self) -> int:
        return self.diag.size


def _require_positive_z(z_next) -> None:
    if np.any(np.asarray(z_next) <= 0):
        raise NonPositiveZ(float(np.min(z_next)))


def _require_pre_maturity(tau_next, T) -> None:
    if not tau_next < T:
        raise ValueError(f"tau_next must be < T; got {tau_next} with T={T}")


def discrete_alpha(z_next, z_prev, k, p: MarketParams, xi, tau_next):
    """Discrete advection coefficient alpha_i at the new layer."""
    _require_positive_z(z_next)
    _require_pre_maturity(tau_next, p.T)
    zdot = (z_next - z_prev) / (k * z_next)
    return (
        zdot
        + p.r
        - p.q
        - 0.5 * p.sigma**2
        - (z_next * np.exp(-np.asarray(xi)) - 1.0) / (p.T - tau_next)
    )


def _parts(prev: LayerState, z_next: float, tau_next: float, g: GridSpec, p: MarketParams):
    """Shared pieces: dt, bounded part mu, singular part s_i (interior), beta."""
    _require_positive_z(z_next)
    _require_pre_maturity(tau_next, p.T)
    dt = tau_next - prev.tau
    if dt <= 0:
        raise ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={prev.tau}")
    ttm = p.T - tau_next
    mu = (z_next - prev.z) / (dt * z_next) + p.r - p.q - 0.5 * p.sigma**2
    s = (z_next * np.exp(-g.xi[1:-1]) - 1.0) / ttm
    beta_val = p.r + 1.0 / ttm
    return dt, ttm, mu, s, beta_val


def _onesided_mask(mu: float, s: np.ndarray, h: float, sigma: float, mode: SchemeMode):
    if mode is SchemeMode.CENTRAL:
        return np.zeros(s.shape, dtype=bool)
    # |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal
    return np.abs(mu - s) > sigma**2 / h


def layer_rows(prev: LayerState, z_next: float, tau_next: float,
               g: GridSpec, p: MarketParams, mode: SchemeMode) -> LayerRows:
    """Assemble all interior rows of the layer system at boundary iterate z_next."""
    dt, ttm, mu, s, beta_val = _parts(prev, z_next, tau_next, g, p)
    h = g.h
    sig2 = p.sigma**2
    diff = 0.5 * sig2 / h**2
    adv = 0.5 * mu / h
    d = 0.5 * s / h
    onesided = _onesided_mask(mu, s, h, p.sigma, mode)
    pos = s >= 0.0

    lower = np.where(onesided, -adv - diff + np.where(pos, 0.0, s / h), -adv - diff + d)
    upper = np.where(onesided, adv - diff - np.where(pos, s / h, 0.0), adv - diff - d)
    diag_base = 1.0 / dt + sig2 / h**2 + beta_val
    diag = np.where(onesided, diag_base + np.abs(s) / h, diag_base)
    return LayerRows(lower=lower, diag=diag, upper=upper, d=d, onesided=onesided)


def assemble_interior_row(i: int, prev: LayerState, z_next: float, tau_next: float,
                          g: GridSpec, p: MarketParams, mode: SchemeMode) -> RowCoefficients:
    """Row coefficients at a single interior node (1 <= i <= N-1)."""
    if not 1 <= i <= g.N - 1:
        raise ValueError(f"interior node index must satisfy 1 <= i <= N-1, got {i}")
    rows = layer_rows(prev, z_next, tau_next, g, p, mode)
    return RowCoefficients(
        a_i=float(rows.lower[i - 1]),
        c_i=float(rows.diag[i - 1]),
        b_i=float(rows.upper[i - 1]),
        d_i=float(rows.d[i - 1]),
    )


def row_z_derivatives(prev: LayerState, z_next: float, tau_next: float,
                      g: GridSpec, p: MarketParams, mode: SchemeMode):
    """d(a_i)/dz, d(c_i)/dz, d(b_i)/dz with the one-sided branch held fixed.

    Only mu and s_i depend on z:  dmu/dz = z_prev/(dt z^2),
    ds_i/dz = e^{-xi_i}/(T - tau).  Central rows have z-free diagonals.
    """
    dt, ttm, mu, s, _ = _parts(prev, z_next, tau_next, g, p)
    h = g.h
    dmu = prev.z / (dt * z_next**2)
    ds = np.exp(-g.xi[1:-1]) / ttm
    onesided = _onesided_mask(mu, s, h, p.sigma, mode)
    pos = s >= 0.0

    da = np.where(onesided, -0.5 * dmu / h + np.where(pos, 0.0, ds / h),
                  -0.5 * dmu / h + 0.5 * ds / h)
    dc = np.where(onesided, np.where(pos, ds / h, -ds / h), 0.0)
    db = np.where(onesided, 0.5 * dmu / h - np.where(pos, ds / h, 0.0),
                  0.5 * dmu / h - 0.5 * ds / h)
    return da, dc, db


def residual_interior(y_next: np.ndarray, prev: LayerState, z_next: float,
                      tau_next: float, g: GridSpec, p: MarketParams,
                      mode: SchemeMode) -> np.ndarray:
    """Interior residual F1 (difference-quotient form, one value per node).

    Written directly from the scheme rather than through the row
    coefficients; tests pin the two formulations against each other.
    """
    y_next = np.asarray(y_next, dtype=float)
    if y_next[0] != -1.0 or y_next[-1] != 0.0:
        raise ValueError("y_next must carry boundary values y[0]=-1, y[-1]=0")
    dt, ttm, mu, s, beta_val = _parts(prev, z_next, tau_next, g, p)
    h = g.h
    yc = y_next[1:-1]
    yl = y_next[:-2]
    yr = y_next[2:]
    onesided = _onesided_mask(mu, s, h, p.sigma, mode)

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


def residual_constraint(y_next: np.ndarray, z_next: float, tau_next: float,
                        g: GridSpec, p: MarketParams) -> float:
    """Constraint residual F2; affine in z_next with unit leading coefficient."""
    _require_pre_maturity(tau_next, p.T)
    return float(z_next - constraint_root(y_next, tau_next, g, p))


def constraint_root(y_next: np.ndarray, tau_next: float, g: GridSpec,
                    p: MarketParams) -> float:
    """The z solving F2 = 0 for given y (explicit since F2 is affine in z)."""
    _require_pre_maturity(tau_next, p.T)
    y_next = np.asarray(y_next, dtype=float)
    ttm = p.T - tau_next
    slope = (-3.0 * y_next[0] + 4.0 * y_next[1] - y_next[2]) / (2.0 * g.h)
    denom = 1.0 + p.q * ttm
    return float((1.0 + p.r * ttm) / denom + 0.5 * p.sigma**2 * ttm / denom * slope)
