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
produces the layer.

Corrector.  One implicit solve of the interior scheme with coefficients
frozen at z-tilde (both in the (z'-z)/(dt z') ratio and in the singular
term) gives y(z-tilde), at which the interior residual F1 vanishes.  One
Newton step on the layer system (F1, F2) from (y(z-tilde), z-tilde) then
moves the boundary: with the Jacobian blocks of solver_newton (J11, J12
and J21, which scheme computes for both engines),

    z = z-tilde - F2 / (1 - J21 J11^{-1} J12),

the root of the constraint linearised about the frozen solve (one more
Thomas solve on the same rows, with J12 from their z-derivatives).  The
interior is solved once more with coefficients frozen at z, and (y(z), z)
is stored, so the boundary value kept for the next layer is the one the
layer's transport term used.  The layer's F1 and row counts come from the
rows of that last solve, so a layer costs two assemblies.  Its three
eliminations of J11 (the two frozen solves and the one for
J11^{-1} J12) each eliminate from both ends and meet in the middle
(thomas.c), so the stored layer differs from a Thomas sweep's only by
rounding (rho by at most 1.6e-14 at N = 50 .. 800).

Setting z to the constraint root of y(z-tilde) instead is not consistent:
the slope of that map at the layer solution grows like dt^{-1/2}, so it
amplifies the predictor's error, and the stored z differs from the z
inside the (z'-z)/(dt z') term by an O(dt) amount that the march sums to
an O(1) gap from the Newton engine that refining does not shrink.  The
Newton step leaves a constraint remainder F2 quadratic in z - z-tilde.

A layer is two functions of thomas.c, pc_predictor (the bracket scan
and root iteration) and pc_corrector, where their buffers are
described.  march_pc is results.march with the predictor's root_tol and
max_iter as the frame's one pair of limits (the bracket scan's constants
are thomas.c's; see native.march); a layer whose predictor finds no root
falls back to z-tilde = z_prev.  The test suite keeps the numpy
predictor and corrector that the C functions repeat operation by
operation as their oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh import GridSpec
from .model import MarketParams
from .results import SolveResult, check_limits, march
from .scheme import SchemeMode

__all__ = ["PredictorConfig", "march_pc"]

@dataclass(frozen=True)
class PredictorConfig:
    root_tol: float = 1e-10      # absolute tolerance on the z root
    max_iter: int = 100

    def __post_init__(self):
        check_limits("root_tol", self.root_tol, self.max_iter)


def march_pc(p: MarketParams, g: GridSpec,
             mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
             cfg: PredictorConfig = PredictorConfig(), ready=None, *,
             diagnostics: bool = True) -> SolveResult:
    """One predictor and one corrector per layer over the full time mesh;
    ``ready``, when given, gets the march's surface and a reader of its
    layer count before the first layer, and without ``diagnostics`` the
    march skips the passes that only fill residuals and backward errors
    (see results.march)."""
    return march(p, g, mode, "pc", cfg.root_tol, cfg.max_iter, ready, diagnostics)
