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
moves the boundary: with the Jacobian blocks of solver_newton (J11, J12
and J21, which scheme computes for both engines),

    z = z-tilde - F2 / (1 - J21 J11^{-1} J12),

the root of the constraint linearised about the frozen solve (one more
Thomas solve on the same rows, with J12 from their z-derivatives).  The
interior is solved once more with coefficients frozen at z, and (y(z), z)
is stored, so the boundary value kept for the next layer is the one the
layer's transport term used.  The layer's F1 and row counts come from the
rows of that last solve, so a layer costs two assemblies.  Both frozen
solves share one native.LayerFrame, whose z-free part is built once per
layer, and all three eliminations solve its J11 against its one-column
right-hand side ``single_rhs`` in place.

Setting z to the constraint root of y(z-tilde) instead is not consistent:
the slope of that map at the layer solution grows like dt^{-1/2}, so it
amplifies the predictor's error, and the stored z differs from the z
inside the (z'-z)/(dt z') term by an O(dt) amount that the march sums to
an O(1) gap from the Newton engine that refining does not shrink.  The
Newton step leaves a constraint remainder F2 quadratic in z - z-tilde.

A layer is two functions of thomas.c: pc_predictor, the bracket scan
and root iteration, and pc_corrector, which first builds the layer's
z-free part in the frame and runs the corrector with the layer's
diagnostics over the frame's buffers.  march_pc is results.march with
the predictor's root_tol, max_iter and bracket scan: one native.march
call runs every layer in C in the march's one frame, whose struct holds
them next to the march's constants, and falls back to z-tilde = z_prev
where pc_predictor finds no root.  predictor() and _correct() run one
layer's halves alone, in one native.layer call each, and native turns a
failed call's status into its exception.
The test suite keeps the numpy predictor and corrector that the C
functions repeat operation by operation as their oracles.
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

__all__ = ["PredictorConfig", "PredictorResult", "predictor", "march_pc"]

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


def _root_search(cfg: PredictorConfig) -> dict:
    """The predictor's limits, as the fields of a frame's struct."""
    return {"root_tol": cfg.root_tol, "root_max_iter": cfg.max_iter, "scan": _BRACKET_SCAN,
            "bracket_factor": _BRACKET_FACTOR, "expansions": _BRACKET_EXPANSIONS}


@dataclass(frozen=True)
class PredictorResult:
    z: float
    iterations: int


def predictor(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams,
              cfg: PredictorConfig = PredictorConfig(), *,
              frame: native.LayerFrame | None = None) -> PredictorResult:
    """Predicted boundary z at the next layer from the scalar root problem.

    ``frame`` is a native.LayerFrame of (g, p) whose struct holds the
    march's constants, for a caller to reuse; without it the predictor
    makes its own.  Raises what native.layer raises.
    """
    if frame is None:
        frame = native.LayerFrame(g, p, SchemeMode.UPWIND_SINGULAR)
    out = native.layer(frame, "pc_predictor", prev.y, prev.tau, tau_next, prev.z,
                       **_root_search(cfg))
    return PredictorResult(z=out[native.OUT_Z], iterations=int(out[native.OUT_ITERATIONS]))


def _correct(prev: LayerState, tau_next: float, frame: native.LayerFrame,
             z_tilde: float) -> tuple[LayerState, LayerDiagnostics]:
    """The corrector of the layer from ``prev`` to ``tau_next`` in
    ``frame``: frozen solve at z_tilde, one Schur step on the boundary,
    frozen solve at the new z.  Returns the new state and its diagnostics,
    without the predictor's iterations and fallback flag; raises what
    native.layer raises."""
    out = native.layer(frame, "pc_corrector", prev.y, prev.tau, tau_next, prev.z, z_tilde,
                       pivot_rtol=tridiag.PIVOT_RTOL, schur_floor=tridiag.SCHUR_FLOOR)
    return LayerState(j=prev.j + 1, tau=tau_next, y=frame.y.copy(), z=out[native.OUT_Z]), \
        layer_diagnostics(prev.j + 1, tau_next, out)


def march_pc(p: MarketParams, g: GridSpec,
             mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
             cfg: PredictorConfig = PredictorConfig()) -> SolveResult:
    """One predictor and one corrector per layer over the full time mesh."""
    return march(p, g, mode, "pc", _root_search(cfg))
