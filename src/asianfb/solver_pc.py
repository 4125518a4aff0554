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
solves share one scheme.LayerFrame, started once per layer, and all
three eliminations solve its J11 against its one-column right-hand side
``single_rhs`` in place.  march_pc's layer step runs predictor() and the
corrector in results.march's frame.

Setting z to the constraint root of y(z-tilde) instead is not consistent:
the slope of that map at the layer solution grows like dt^{-1/2}, so it
amplifies the predictor's error, and the stored z differs from the z
inside the (z'-z)/(dt z') term by an O(dt) amount that the march sums to
an O(1) gap from the Newton engine that refining does not shrink.  The
Newton step leaves a constraint remainder F2 quadratic in z - z-tilde.

A layer is two C calls: predictor() hands its bracket scan and root
iteration to native.pc_predictor, and the corrector with the layer's
diagnostics runs in native.pc_corrector over the frame's buffers, with
tridiag.PIVOT_RTOL and tridiag.SCHUR_FLOOR passed from here.
predictor() is the call that opens each layer.  The test suite keeps the
numpy predictor and corrector that the C functions repeat operation by
operation as their oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scheme, tridiag
from ._kernels import native
from .errors import NoBracket, NoConvergence, NonPositiveZ, SingularSchur, ZeroPivot
from .mesh import GridSpec, LayerState
from .model import MarketParams
from .results import LayerDiagnostics, SolveResult, march
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


@dataclass(frozen=True)
class PredictorResult:
    z: float
    iterations: int


def _no_bracket(z_prev: float, widest: float) -> NoBracket:
    return NoBracket(f"predictor residual has no sign change within "
                     f"[{z_prev / widest:.4g}, {z_prev * widest:.4g}]")


def predictor(prev: LayerState, tau_next: float, g: GridSpec, p: MarketParams,
              cfg: PredictorConfig = PredictorConfig()) -> PredictorResult:
    """Predicted boundary z at the next layer from the scalar root problem."""
    if not tau_next < p.T:
        raise ValueError(f"tau_next must be < T; got {tau_next}")
    status, value = native.pc_predictor(
        prev.z, tau_next - prev.tau, p.T - tau_next, p.r, p.q, p.sigma, g.h,
        *prev.y[:3].tolist(), _BRACKET_SCAN, _BRACKET_FACTOR, _BRACKET_EXPANSIONS,
        cfg.root_tol, cfg.max_iter)
    if status == native.LAYER_NO_BRACKET:
        raise _no_bracket(prev.z, value)
    if status == native.LAYER_NO_CONVERGENCE:
        raise NoConvergence(cfg.max_iter, value)
    if status == native.LAYER_NON_POSITIVE_Z:
        raise NonPositiveZ(value)
    z, iterations = value
    return PredictorResult(z=z, iterations=iterations)


def _correct(frame: scheme.LayerFrame, z_tilde: float) -> tuple[LayerState, LayerDiagnostics]:
    """The corrector in a frame started for the layer: frozen solve at
    z_tilde, one Schur step on the boundary, frozen solve at the new z.
    Returns the new state and its diagnostics, without the predictor's
    iterations and fallback flag."""
    prev, tau_next = frame.prev, frame.tau_next
    y = np.empty(frame.g.N + 1)
    status, values = native.pc_corrector(frame, y, z_tilde, tridiag.PIVOT_RTOL,
                                         tridiag.SCHUR_FLOOR)  # ValueError
    if status == native.LAYER_NON_POSITIVE_Z:
        raise NonPositiveZ(values)
    if status == native.LAYER_ZERO_PIVOT:
        raise ZeroPivot(int(values))
    if status == native.LAYER_SINGULAR_SCHUR:
        raise SingularSchur(f"Schur denominator {values:.3e} at tau={tau_next:.6g}")
    z, residual_f1, residual_f2, onesided, violations = values
    return LayerState(j=prev.j + 1, tau=tau_next, y=y, z=z), LayerDiagnostics(
        layer=prev.j + 1, tau=tau_next, iterations=0, residual_f1=residual_f1,
        residual_f2=residual_f2, onesided_rows=onesided, dominance_violations=violations)


def _layer(prev: LayerState, tau_next: float, frame: scheme.LayerFrame,
           cfg: PredictorConfig) -> tuple[LayerState, LayerDiagnostics]:
    """One predictor and one corrector: march_pc's layer step."""
    fallback = False
    try:
        pred = predictor(prev, tau_next, frame.g, frame.p, cfg)
        z_tilde, root_iters = pred.z, pred.iterations
    except NoBracket:
        z_tilde, root_iters = prev.z, 0
        fallback = True
    state, diag = _correct(frame.start(prev, tau_next), z_tilde)
    diag.iterations, diag.predictor_fallback = root_iters, fallback
    return state, diag


def march_pc(p: MarketParams, g: GridSpec,
             mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
             cfg: PredictorConfig = PredictorConfig()) -> SolveResult:
    """One predictor and one corrector per layer over the full time mesh."""
    def step(prev, tau_next, frame):
        return _layer(prev, tau_next, frame, cfg)
    return march(p, g, mode, "pc", step)
