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

The march keeps one scheme.LayerFrame.  Per layer it builds the frame's
z-free part once and computes J21; each iterate then writes only the
z-dependent rows (J11 and the row derivatives J12 is built from), puts
F1 and J12 into the frame's (2, n) right-hand side, solves it in place
and updates y in place.  One more assembly at the accepted z gives the
layer's diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scheme
from .errors import LayerFailure, NoConvergence, SingularSchur, SolverError
from .mesh import GridSpec, LayerState, initial_layer
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult
from .scheme import SchemeMode
from .tridiag import thomas_solve

__all__ = ["NewtonConfig", "JacobianBlocks", "interior_residual", "z_column", "constraint_row",
           "build_jacobian", "newton_layer", "march_newton"]

SCHUR_FLOOR = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8        # stopping tolerance on ||dY||_inf
    max_iter: int = 20

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class JacobianBlocks:
    """Bordered-tridiagonal Jacobian of the layer system."""

    lower: np.ndarray   # J11 sub-diagonal (a_2..a_{N-1})
    diag: np.ndarray    # J11 diagonal (c_1..c_{N-1})
    upper: np.ndarray   # J11 super-diagonal (b_1..b_{N-2})
    j12: np.ndarray     # dF1_i/dz
    j21_y1: float       # dF2/dy_1 = -sigma^2/(D h)
    j21_y2: float       # dF2/dy_2 = +sigma^2/(4 D h)
    j22: float          # dF2/dz = 1
    rows: scheme.LayerRows  # assembly the blocks were cut from


def _with_boundaries(interior: np.ndarray) -> np.ndarray:
    y = np.empty(interior.size + 2)
    y[0] = -1.0
    y[-1] = 0.0
    y[1:-1] = interior
    return y


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


def build_jacobian(y_next: np.ndarray, z_next: float, prev: LayerState,
                   tau_next: float, g: GridSpec, p: MarketParams,
                   mode: SchemeMode) -> JacobianBlocks:
    """Analytic Jacobian blocks at iterate (y_next interior, z_next)."""
    rows = scheme.layer_rows(prev, z_next, tau_next, g, p, mode)
    y = _with_boundaries(np.asarray(y_next, dtype=float))
    j21_y1, j21_y2 = constraint_row(tau_next, g, p)
    return JacobianBlocks(
        lower=rows.lower[1:],
        diag=rows.diag,
        upper=rows.upper[:-1],
        j12=z_column(rows, y),
        j21_y1=j21_y1,
        j21_y2=j21_y2,
        j22=1.0,
        rows=rows,
    )


def _dominance_violations(rows: scheme.LayerRows) -> int:
    return int(np.sum(np.abs(rows.diag) <= np.abs(rows.lower) + np.abs(rows.upper)))


def newton_layer(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams,
                 mode: SchemeMode, cfg: NewtonConfig = NewtonConfig(),
                 trace: list | None = None,
                 frame: scheme.LayerFrame | None = None) -> tuple[LayerState, LayerDiagnostics]:
    """Solve one layer; returns the new state and its diagnostics.

    ``frame`` is a LayerFrame of (g, p, mode) to assemble in; march_newton
    passes one for the whole march, and without it the layer makes its own.
    When ``trace`` is a list, every iteration appends
    (blocks, F1, F2, dY1, dz) for oracle comparison in tests.
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
        diag.dominance_violations += _dominance_violations(rows)

        u, v = thomas_solve(system)
        j21_u = j21_y1 * u[0] + j21_y2 * u[1]
        j21_v = j21_y1 * v[0] + j21_y2 * v[1]
        denom = 1.0 - j21_v  # J22 = 1
        if abs(denom) < SCHUR_FLOOR:
            raise SingularSchur(f"Schur denominator {denom:.3e} at tau={tau_next:.6g}")
        dz = (-f2 + j21_u) / denom
        dy1 = np.negative(u, out=u)
        dy1 -= v * dz  # dY1 = -u - v dz
        if trace is not None:
            trace.append((build_jacobian(y1, z, prev, tau_next, g, p, mode), f1.copy(), f2,
                          dy1.copy(), dz))
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
    state = initial_layer(p, g)
    rho = np.empty(g.M + 1)
    surface = np.empty((g.M + 1, g.N + 1))
    rho[0] = state.z
    surface[0] = state.y
    diags: list[LayerDiagnostics] = []
    frame = scheme.LayerFrame(g, p, mode)
    for j in range(g.M):
        tau_next = float(g.taus[j + 1])
        try:
            state, d = newton_layer(state, tau_next, g, p, mode, cfg, frame=frame)
        except SolverError as exc:
            raise LayerFailure(j + 1, tau_next, exc) from exc
        rho[j + 1] = state.z
        surface[j + 1] = state.y
        diags.append(d)
    return SolveResult(params=p, grid=g, engine="newton", mode=mode.value,
                       taus=g.taus.copy(), rho=rho, surface=surface, diagnostics=diags)
