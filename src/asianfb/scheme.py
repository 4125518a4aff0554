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

layer_rows is the only assembly of this system.  One evaluation of mu,
s_i and the one-sided switch below gives the rows, their z-derivatives
(the Newton column dF1/dz) and the right-hand side y_i/dt, so both
engines take the interior residual from the rows,

    F1_i = a_i y_{i-1}' + c_i y_i' + b_i y_{i+1}' - y_i/dt.

Each row is computed once: layer_rows builds the central rows and then
rewrites only the rows the one-sided switch below selects (none in
central mode; in upwind-singular mode only near expiry).  The test suite
keeps the difference-quotient form of F1 as the oracle that pins this
row form, and the mask blend of both stencils as the oracle that pins
the rewrite.

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
    "LayerRows",
    "layer_rows",
    "residual_constraint",
    "constraint_root",
]


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


def _require_pre_maturity(tau_next, T) -> None:
    if not tau_next < T:
        raise ValueError(f"tau_next must be < T; got {tau_next} with T={T}")


def layer_rows(prev: LayerState, z_next: float, tau_next: float,
               g: GridSpec, p: MarketParams, mode: SchemeMode) -> LayerRows:
    """Assemble the interior rows, their z-derivatives and the F1 right-hand side."""
    if z_next <= 0:
        raise NonPositiveZ(float(z_next))
    _require_pre_maturity(tau_next, p.T)
    dt = tau_next - prev.tau
    if dt <= 0:
        raise ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={prev.tau}")
    ttm = p.T - tau_next
    h = g.h
    sig2 = p.sigma**2
    # bounded advection part mu and singular part s_i; only these depend on z:
    # dmu/dz = z_prev/(dt z^2), ds_i/dz = e^{-xi_i}/(T - tau)
    mu = (z_next - prev.z) / (dt * z_next) + p.r - p.q - 0.5 * sig2
    exp_xi = g.exp_neg_xi
    s = (z_next * exp_xi - 1.0) / ttm
    dmu = prev.z / (dt * z_next**2)
    ds = exp_xi / ttm

    # central rows everywhere; their diagonals are z-free
    diff = 0.5 * sig2 / h**2
    adv = 0.5 * mu / h
    d = 0.5 * s / h
    lower = -adv - diff + d
    upper = adv - diff - d
    diag_base = 1.0 / dt + sig2 / h**2 + (p.r + 1.0 / ttm)  # beta = r + 1/(T - tau)
    diag = np.full(s.shape, diag_base)
    da = -0.5 * dmu / h + 0.5 * ds / h
    dc = np.zeros(s.shape)
    db = 0.5 * dmu / h - 0.5 * ds / h
    if mode is SchemeMode.CENTRAL:
        onesided = np.zeros(s.shape, dtype=bool)
    else:
        # |alpha_i| h / sigma^2 > 1 <=> the central row has a positive off-diagonal
        onesided = np.abs(mu - s) > sig2 / h
        idx = np.flatnonzero(onesided)
        if idx.size:
            # the singular term upwinded: forward where s_i >= 0, backward otherwise
            s1, ds1 = s[idx], ds[idx]
            pos = s1 >= 0.0
            lower[idx] = -adv - diff + np.where(pos, 0.0, s1 / h)
            upper[idx] = adv - diff - np.where(pos, s1 / h, 0.0)
            diag[idx] = diag_base + np.abs(s1) / h
            da[idx] = -0.5 * dmu / h + np.where(pos, 0.0, ds1 / h)
            dc[idx] = np.where(pos, ds1 / h, -ds1 / h)
            db[idx] = 0.5 * dmu / h - np.where(pos, ds1 / h, 0.0)
    return LayerRows(lower=lower, diag=diag, upper=upper, da=da, dc=dc, db=db,
                     rhs=prev.y[1:-1] / dt, onesided=onesided)


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
