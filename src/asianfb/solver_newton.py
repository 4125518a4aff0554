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
it.  Each layer is thomas.c's newton_layer, which works in the buffers
of a native.LayerFrame: it builds the layer's z-free part and J21 once
from the previous layer, then each iterate writes only the z-dependent
rows (J11 and the row derivatives J12 is built from), puts F1 and J12
into the frame's (2, n) right-hand side ``pair_rhs``, eliminates it in
place against J11 with the kernel's Thomas loop and updates y in place.
One more assembly at the accepted z gives the layer's diagnostics, among
them the row-wise backward error of F1 that pc reports as its residual.
march_newton is results.march with Newton's tol and max_iter: one
native.march call runs every layer in C in the march's one frame, whose
struct holds them next to the march's constants.  newton_layer runs one
layer alone, in one native.layer call.  The test suite keeps the
numpy loop that the C function repeats operation by operation as its
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tridiag
from ._kernels import native
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, layer_diagnostics, march
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
                 frame: native.LayerFrame | None = None) -> tuple[LayerState, LayerDiagnostics]:
    """Solve one layer; returns the new state and its diagnostics.

    ``frame`` is a native.LayerFrame of (g, p, mode) to assemble in, for
    a caller to reuse; without it the layer makes its own.  Raises what native.layer raises.
    """
    if frame is None:
        frame = native.LayerFrame(g, p, mode)
    out = native.layer(frame, "newton_layer", prev.y, prev.tau, tau_next, prev.z, tol=cfg.tol,
                       max_iter=cfg.max_iter, pivot_rtol=tridiag.PIVOT_RTOL,
                       schur_floor=tridiag.SCHUR_FLOOR)
    return LayerState(j=prev.j + 1, tau=tau_next, y=frame.y.copy(), z=out[native.OUT_Z]), \
        layer_diagnostics(prev.j + 1, tau_next, out)


def march_newton(p: MarketParams, g: GridSpec,
                 mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                 cfg: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Layer-by-layer Newton march over the full time mesh."""
    return march(p, g, mode, "newton", {"tol": cfg.tol, "max_iter": cfg.max_iter})
