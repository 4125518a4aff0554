"""Newton engine: full nonlinear layer system solved by block elimination.

Per layer the unknown vector is Y = (y_1 .. y_{N-1}, z) and the system is
F = (F1, F2) = 0, with F1 the interior scheme residuals and F2 the
boundary constraint.  The Jacobian has the bordered-tridiagonal block
form

    J = [ J11  J12 ]      J11: tridiagonal rows (a_i, c_i, b_i)
        [ J21  J22 ]      J12: dF1/dz,  J21: dF2/dy (two entries),  J22 = 1

and each Newton step J dY = -F is solved by eliminating the first block:
u = J11^{-1} F1 and v = J11^{-1} J12 from one Thomas elimination of J11
with both right-hand sides, then the scalar Schur step

    dz = (-F2 + J21 u) / (J22 - J21 v),      dY1 = -u - v dz.

This is algebraically the coupled block solve; the Schur denominator is
guarded against vanishing.  Iteration starts from the previous layer's
values and stops when ||dY||_inf < tol.

march_newton is results.march stepping with newton_layer in the march's
one scheme.LayerFrame.  Per layer newton_layer builds the frame's z-free
part once and computes J21; each iterate then writes only the
z-dependent rows (J11 and the row derivatives J12 is built from), puts
F1 and J12 into the frame's (2, n) right-hand side, solves it in place
and updates y in place.  One more assembly at the accepted z gives the
layer's diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scheme
from .errors import NoConvergence, SingularSchur
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, march
from .scheme import SchemeMode
from .tridiag import thomas_solve

__all__ = ["NewtonConfig", "interior_residual", "z_column", "constraint_row",
           "newton_layer", "march_newton"]

SCHUR_FLOOR = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8        # stopping tolerance on ||dY||_inf
    max_iter: int = 20

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def interior_residual(rows: scheme.LayerRows, y: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """F1 in row form; y carries its boundary values.  Written into ``out`` if given."""
    f1 = np.multiply(rows.lower, y[:-2], out=out)
    f1 += rows.diag * y[1:-1]
    f1 += rows.upper * y[2:]
    f1 -= rows.rhs
    return f1


def z_column(rows: scheme.LayerRows, y: np.ndarray,
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


def dominance_violations(rows: scheme.LayerRows) -> int:
    """Rows failing strict diagonal dominance, counted in both engines' layer steps
    (internal to them, so not in ``__all__``)."""
    return int(np.count_nonzero(np.abs(rows.diag) <= np.abs(rows.lower) + np.abs(rows.upper)))


def newton_layer(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams,
                 mode: SchemeMode, cfg: NewtonConfig = NewtonConfig(),
                 frame: scheme.LayerFrame | None = None) -> tuple[LayerState, LayerDiagnostics]:
    """Solve one layer; returns the new state and its diagnostics.

    ``frame`` is a LayerFrame of (g, p, mode) to assemble in; march_newton
    passes the march's, and without it the layer makes its own.
    """
    if frame is None:
        frame = scheme.LayerFrame(g, p, mode)
    frame.start(prev, tau_next)  # raises ValueError past maturity
    j21_y1, j21_y2 = constraint_row(tau_next, g, p)
    system = frame.pair
    f1, j12 = system.rhs
    y = prev.y.copy()
    y1 = y[1:-1]
    z = prev.z
    diag = LayerDiagnostics(layer=prev.j + 1, tau=tau_next, iterations=0,
                            residual_f1=np.inf, residual_f2=np.inf)
    for it in range(1, cfg.max_iter + 1):
        rows = frame.rows(z)  # raises NonPositiveZ
        interior_residual(rows, y, out=f1)
        z_column(rows, y, out=j12)
        f2 = frame.residual_constraint(y, z)
        if it == 1:
            diag.initial_residual = max(float(np.max(np.abs(f1))), abs(f2))
        diag.onesided_rows = max(diag.onesided_rows, int(np.count_nonzero(rows.onesided)))
        diag.dominance_violations += dominance_violations(rows)

        u, v = thomas_solve(system)
        j21_u = j21_y1 * u[0] + j21_y2 * u[1]
        j21_v = j21_y1 * v[0] + j21_y2 * v[1]
        denom = 1.0 - j21_v  # J22 = 1
        if abs(denom) < SCHUR_FLOOR:
            raise SingularSchur(f"Schur denominator {denom:.3e} at tau={tau_next:.6g}")
        dz = (-f2 + j21_u) / denom
        dy1 = np.negative(u, out=u)
        dy1 -= v * dz  # dY1 = -u - v dz
        y1 += dy1
        z = z + dz
        diag.iterations = it
        step = max(float(np.max(np.abs(dy1))), abs(dz))
        if step < cfg.tol:
            break
    else:
        raise NoConvergence(cfg.max_iter, step)

    rows = frame.rows(z)  # raises NonPositiveZ
    diag.residual_f1 = float(np.max(np.abs(interior_residual(rows, y, out=f1))))
    diag.residual_f2 = abs(frame.residual_constraint(y, z))
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), diag


def march_newton(p: MarketParams, g: GridSpec,
                 mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                 cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Layer-by-layer Newton march over the full time mesh."""
    def step(prev, tau_next, frame):
        return newton_layer(prev, tau_next, g, p, mode, cfg, frame=frame)
    return march(p, g, mode, "newton", step)
