"""Predictor-corrector engine.

Predictor.  The constraint is rewritten with an artificial node xi_{-1}
so the slope at xi = 0 is central: with G(z) = q z - r + (z - 1)/(T-tau),

    y_{-1} = y_1 - G(z) 4h/sigma^2,

and eliminating y_{-1} from the PDE at xi = 0 (where dPi/dtau = 0) gives

    y_1 = (2 alpha_0 h^2/sigma^4 + 2h/sigma^2) G(z)
          - beta h^2/sigma^2 - 1.                                  (I)

An explicit step of the interior scheme at i = 1 supplies the second
relation (spatial terms frozen at the old layer):

    y_1 = y_1^j - dt [alpha_1(z)(y_2^j - y_0^j)/(2h)
          - (sigma^2/2)(y_2^j - 2 y_1^j + y_0^j)/h^2
          + beta y_1^j].                                           (II)

(I) - (II) is one scalar equation for the predicted boundary z-tilde,
solved by safeguarded Newton (bisection fallback) inside a bracket found
by scanning outward from the previous z; the sign-change cell nearest
z_prev is used, which tracks the branch continuous with the march.  A
Newton step that leaves the open bracket falls back to bisection, except
a zero step: that is convergence, landing on the bracket end the last
update set.

Near tau -> T the scalar residual loses its root: (II) overshoots once
the singular advection dominates the explicit step, and on the final
layer the beta h^2/sigma^2 term in (I) grows like h^2/(sigma^2 (T-tau)).
The march then degrades gracefully by freezing z-tilde = z_prev for that
layer (flagged in diagnostics) instead of aborting; the corrector still
produces the layer.  predictor() itself raises NoBracket.

Corrector.  One implicit solve of the interior scheme with coefficients
frozen at z-tilde (both in the (z'-z)/(dt z') ratio and in the singular
term) gives y(z-tilde), at which the interior residual F1 vanishes.  One
Newton step on the layer system (F1, F2) from (y(z-tilde), z-tilde) then
moves the boundary: with the blocks of solver_newton,

    z = z-tilde - F2 / (1 - J21 J11^{-1} J12),

the root of the constraint linearised about the frozen solve (one more
Thomas solve on the same rows, with J12 from their z-derivatives).  The
interior is solved once more with coefficients frozen at z, and (y(z), z)
is stored, so the boundary value kept for the next layer is the one the
layer's transport term used.  The layer's F1 and row counts come from the
rows of that last solve, so a layer costs two assemblies.  Both frozen
solves share one scheme.LayerFrame, started once per layer, and all
three eliminations solve its one-column system in place.  march_pc's
layer step runs predictor() and the corrector in results.march's frame.

Setting z to the constraint root of y(z-tilde) instead is not consistent:
the slope of that map at the layer solution grows like dt^{-1/2}, so it
amplifies the predictor's error, and the stored z differs from the z
inside the (z'-z)/(dt z') term by an O(dt) amount that the march sums to
an O(1) gap from the Newton engine that refining does not shrink.  The
Newton step leaves a constraint remainder F2 quadratic in z - z-tilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scheme
from .errors import NoBracket, NoConvergence, NonPositiveZ, SingularSchur
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, march
from .scheme import SchemeMode
from .solver_newton import (SCHUR_FLOOR, constraint_row, dominance_violations,
                            interior_residual, z_column)
from .tridiag import thomas_solve

__all__ = ["PredictorConfig", "PredictorResult", "predictor", "corrector", "march_pc"]

_BRACKET_SCAN = 64
_BRACKET_FACTOR = 2.0  # initial bracket [z/f, z f], expanded by f
_BRACKET_EXPANSIONS = 6


@dataclass(frozen=True)
class PredictorConfig:
    root_tol: float = 1e-10      # absolute tolerance on the z root
    max_iter: int = 100

    def __post_init__(self):
        if not math.isfinite(self.root_tol):
            raise ValueError(f"root_tol must be finite, got {self.root_tol}")
        if not (self.root_tol > 0):
            raise ValueError(f"root_tol must be positive, got {self.root_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PredictorResult:
    y1: float
    z: float
    iterations: int


def _scalar_residual_funcs(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams):
    """Residual R(z) of (I)-(II) and its analytic derivative.

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
        dalpha = prev.z / (dt * z**2)
        d_i = (2.0 * h**2 / sig2**2) * (dalpha - 1.0 / ttm) * g_val \
            + (2.0 * alpha0 * h**2 / sig2**2 + 2.0 * h / sig2) * dg
        d_flux = (dalpha - exp_h / ttm) * grad_prev
        d_ii = -dt * d_flux
        return d_i - d_ii

    return residual, derivative, eq_i


def _bracket_nearest(residual, z_prev: float):
    """Sign-change cell closest to z_prev inside an expanding bracket."""
    factor = _BRACKET_FACTOR
    for _ in range(_BRACKET_EXPANSIONS):
        zs = np.linspace(z_prev / factor, z_prev * factor, _BRACKET_SCAN + 1)
        vals = residual(zs)
        signs = np.sign(vals)
        cells = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
        if cells.size:
            mids = 0.5 * (zs[cells] + zs[cells + 1])
            pick = cells[int(np.argmin(np.abs(mids - z_prev)))]
            return zs[pick], zs[pick + 1], vals[pick], vals[pick + 1]
        widest = factor
        factor *= _BRACKET_FACTOR
    raise NoBracket(
        f"predictor residual has no sign change within "
        f"[{z_prev / widest:.4g}, {z_prev * widest:.4g}]"
    )


def predictor(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams,
              cfg: PredictorConfig = PredictorConfig()) -> PredictorResult:
    """Predicted (y1, z) at the next layer from the scalar root problem."""
    if not tau_next < p.T:
        raise ValueError(f"tau_next must be < T; got {tau_next}")
    residual, derivative, eq_i = _scalar_residual_funcs(prev, tau_next, g, p)
    lo, hi, f_lo, _ = _bracket_nearest(residual, prev.z)

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
    return PredictorResult(y1=eq_i(x), z=x, iterations=iterations)


def _frozen_solve(frame: scheme.LayerFrame, z: float) -> tuple[scheme.LayerRows, np.ndarray]:
    """Interior rows frozen at boundary value z and the layer y they solve for."""
    rows = frame.rows(z)  # raises NonPositiveZ
    rhs = frame.single.rhs
    np.copyto(rhs, rows.rhs)
    rhs[0] += rows.lower[0]  # a_1 y_0 with the Dirichlet value y_0 = -1
    y = np.empty(frame.g.N + 1)
    y[0] = -1.0
    y[-1] = 0.0
    y[1:-1] = thomas_solve(frame.single)
    return rows, y


def _correct(frame: scheme.LayerFrame, z_tilde: float):
    """corrector() in a frame started for the layer; also returns the rows
    the stored layer was solved with (the frame's, valid until its next rows())."""
    prev, tau_next = frame.prev, frame.tau_next
    rows, y = _frozen_solve(frame, z_tilde)
    # one Newton step on (F1, F2) from (y, z_tilde): F1 vanishes there, so the
    # Schur step of solver_newton reduces to dz = -F2 / (1 - J21 J11^{-1} J12)
    z_column(rows, y, out=frame.single.rhs)
    v = thomas_solve(frame.single)
    j21_y1, j21_y2 = constraint_row(tau_next, frame.g, frame.p)
    denom = 1.0 - (j21_y1 * v[0] + j21_y2 * v[1])
    if abs(denom) < SCHUR_FLOOR:
        raise SingularSchur(f"Schur denominator {denom:.3e} at tau={tau_next:.6g}")
    z = z_tilde - frame.residual_constraint(y, z_tilde) / denom
    rows, y = _frozen_solve(frame, z)
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), rows


def corrector(prev: LayerState, z_tilde: float, tau_next: float, g: GridSpec,
              p: MarketParams, mode: SchemeMode) -> LayerState:
    """Frozen solve at z_tilde, one Schur step on the boundary, frozen solve at the new z."""
    return _correct(scheme.LayerFrame(g, p, mode).start(prev, tau_next), z_tilde)[0]


def march_pc(p: MarketParams, g: GridSpec,
             mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
             cfg: PredictorConfig = PredictorConfig()) -> SolveResult:
    """One predictor and one corrector per layer over the full time mesh."""
    def step(prev, tau_next, frame):
        fallback = False
        try:
            pred = predictor(prev, tau_next, frame.g, frame.p, cfg)
            z_tilde, root_iters = pred.z, pred.iterations
        except NoBracket:
            z_tilde, root_iters = prev.z, 0
            fallback = True
        state, rows = _correct(frame.start(prev, tau_next), z_tilde)

        # linear-solve quality: row-wise backward error of the stored layer,
        # |F1_i| over the magnitudes of the terms F1_i sums
        y = state.y
        terms = np.abs(rows.lower * y[:-2]) + np.abs(rows.diag * y[1:-1]) \
            + np.abs(rows.upper * y[2:]) + np.abs(rows.rhs)
        f1 = np.abs(interior_residual(rows, y))
        rel_f1 = float(np.max(f1 / np.where(terms > 0.0, terms, 1.0)))
        return state, LayerDiagnostics(
            layer=state.j, tau=tau_next, iterations=root_iters,
            residual_f1=rel_f1, residual_f2=abs(frame.residual_constraint(y, state.z)),
            onesided_rows=int(np.count_nonzero(rows.onesided)),
            dominance_violations=dominance_violations(rows),
            predictor_fallback=fallback,
        )
    return march(p, g, mode, "pc", step)
