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

The layer system itself is scheme's; this module is the iteration over
it.  march_newton is results.march stepping with newton_layer in the march's
one scheme.LayerFrame.  Per layer newton_layer builds the frame's z-free
part and J21 once (LayerFrame.start) and hands the iterations to one C
call, native.newton_layer, which works in the frame's buffers.  Each
iterate writes only the z-dependent rows (J11 and the row derivatives
J12 is built from), puts F1 and J12 into the frame's (2, n) right-hand
side ``pair_rhs``, eliminates it in place against J11 with the kernel's
Thomas loop and updates y in place.  One more assembly at the accepted z
gives the layer's diagnostics.  tol, max_iter, tridiag.PIVOT_RTOL and
tridiag.SCHUR_FLOOR go to C from here; the test suite keeps the numpy
loop that the C function repeats operation by operation as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import scheme, tridiag
from ._kernels import native
from .errors import NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, march
from .scheme import SchemeMode

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
