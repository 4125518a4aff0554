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

The layer system itself (rows, F1, J12, F2, J21 and the dominance
count) is scheme's; this module is the iteration over it.
march_newton is results.march stepping with newton_layer in the march's
one scheme.LayerFrame.  Per layer newton_layer builds the frame's z-free
part and J21 once (LayerFrame.start); each iterate then writes only the
z-dependent rows (J11 and the row derivatives J12 is built from), puts
F1 and J12 into the frame's (2, n) right-hand side ``pair_rhs``, solves
it in place against ``frame.j11`` and updates y in place.  One more
assembly at the accepted z gives the layer's diagnostics.

With the compiled kernel (``_kernels.active()`` is native), newton_layer
hands those iterations, after the frame's start, to one C call,
native.newton_layer, which works in the frame's buffers, eliminates with
the kernel's Thomas loop, and keeps every operation of the numpy loop
below in order, so the layer's result, diagnostics and errors are the
same bits.  tol, max_iter, tridiag.PIVOT_RTOL and tridiag.SCHUR_FLOOR go
to C from here.  Otherwise the numpy loop runs: it is the path without a
C compiler and the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, scheme, tridiag
from .errors import NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, march
from .scheme import SchemeMode, dominance_violations, interior_residual, z_column
from .tridiag import thomas_solve

__all__ = ["NewtonConfig", "newton_layer", "march_newton"]


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
    if _kernels.active() is _kernels.native:
        return _native_layer(frame, prev, tau_next, cfg)
    j21_y1, j21_y2 = frame.j21
    f1, j12 = frame.pair_rhs
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
            diag.initial_residual = max(float(np.abs(f1).max()), abs(f2))
        diag.onesided_rows = max(diag.onesided_rows, int(np.count_nonzero(rows.onesided)))
        diag.dominance_violations += dominance_violations(rows)

        u, v = thomas_solve(*frame.j11, frame.pair_rhs)
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
        diag.iterations = it
        step = max(float(np.abs(dy1).max()), abs(dz))
        if step < cfg.tol:
            break
    else:
        raise NoConvergence(cfg.max_iter, step)

    rows = frame.rows(z)  # raises NonPositiveZ
    diag.residual_f1 = float(np.abs(interior_residual(rows, y, out=f1)).max())
    diag.residual_f2 = abs(frame.residual_constraint(y, z))
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), diag


def _native_layer(frame, prev, tau_next, cfg):
    """The iterations of newton_layer's loop as one call of the compiled
    kernel, with the same result bits, errors and diagnostics."""
    native = _kernels.native
    y = prev.y.copy()
    status, values = native.newton_layer(frame, y, cfg.tol, cfg.max_iter, tridiag.PIVOT_RTOL,
                                         tridiag.SCHUR_FLOOR)  # ValueError
    if status == native.LAYER_NON_POSITIVE_Z:
        raise NonPositiveZ(values)
    if status == native.LAYER_ZERO_PIVOT:
        raise ZeroPivot(int(values))
    if status == native.LAYER_SINGULAR_SCHUR:
        raise SingularSchur(f"Schur denominator {values:.3e} at tau={tau_next:.6g}")
    if status == native.LAYER_NO_CONVERGENCE:
        raise NoConvergence(cfg.max_iter, values)
    iterations, z, initial, onesided, violations, residual_f1, residual_f2 = values
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), LayerDiagnostics(
        layer=prev.j + 1, tau=tau_next, iterations=int(iterations), residual_f1=residual_f1,
        residual_f2=residual_f2, initial_residual=initial, onesided_rows=int(onesided),
        dominance_violations=int(violations))


def march_newton(p: MarketParams, g: GridSpec,
                 mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                 cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Layer-by-layer Newton march over the full time mesh."""
    def step(prev, tau_next, frame):
        return newton_layer(prev, tau_next, g, p, mode, cfg, frame=frame)
    return march(p, g, mode, "newton", step)
