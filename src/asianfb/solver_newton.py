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
guarded against vanishing.  Iteration stops when ||dY||_inf < tol.

In a march, layer j + 1 = 4 .. M - 1 starts from the three-point
Lagrange extrapolation of the three layers before it to tau_{j+1},

    (y, z) = w0 (y_j, z_j) + w1 (y_{j-1}, z_{j-1}) + w2 (y_{j-2}, z_{j-2}),

with w0, w1 and w2 computed from the time mesh (3, -3 and 1 on even
steps), and layer 3 from the linear extrapolation of layers 1 and 2,

    (y, z) = (y_2, z_2) + w ((y_2, z_2) - (y_1, z_1)),   w = dt_3 / dt_2:

the usual higher-order starting values for Newton in implicit time
stepping (Hairer & Wanner, Solving ODEs II, IV.8).  They cut the default
march's iterations from 1568 (every layer from the previous one) to 1045
(1124 with the linear start on every layer from 3 on).  Layers 1 and 2
start from the previous layer: an extrapolation into layer 2 from the
discontinuous datum overshoots to z < 0 on some parameter sets, and a
three-layer start into layer 3, which reads the datum too, takes more
iterations there than the linear one.  The final layer, whose step ends
eps_final (1e-7 by default) before maturity, where 1/(T - tau) is 1e7
at the default, starts from the previous layer too: it takes 4
iterations from either start, and the plain start keeps its final
residual at the rounding level it had.  The previous layer stays in the
layer system (rhs = y_prev/dt and mu's (z - z_prev)/(dt z)) whatever the
start.

The layer system itself is scheme's; this module is the iteration over
it, which runs in C: each layer is thomas.c's newton_layer, where its
buffers are described.  Each iterate's one elimination of J11, with F1
and J12 as its two right-hand sides, is the Thomas sweep of ``thomas``,
operation for operation, and one more assembly at the accepted z gives
the layer's diagnostics, among them the row-wise backward error of F1
that pc reports as its residual.  march_newton is results.march with
Newton's tol and max_iter (see native.march); the test suite keeps the
numpy loop that the C function repeats operation by operation as its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh import GridSpec
from .model import MarketParams
from .results import SolveResult, check_limits, march
from .scheme import SchemeMode

__all__ = ["NewtonConfig", "march_newton"]


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8        # stopping tolerance on ||dY||_inf
    max_iter: int = 20

    def __post_init__(self):
        check_limits("tol", self.tol, self.max_iter)


def march_newton(p: MarketParams, g: GridSpec,
                 mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                 cfg: NewtonConfig = NewtonConfig(), ready=None, *,
                 diagnostics: bool = True) -> SolveResult:
    """Layer-by-layer Newton march over the full time mesh, layers 3 .. M - 1
    from the extrapolated starts (see the module docstring); ``ready``, when
    given, gets the march's surface and a reader of its layer count before
    the first layer, and without ``diagnostics`` the march skips the passes
    that only fill residuals and backward errors (see results.march)."""
    return march(p, g, mode, "newton", cfg.tol, cfg.max_iter, ready, diagnostics)
