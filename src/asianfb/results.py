"""Result containers shared by both engines, and march, the one time loop.

march owns the initial layer, the stored rho and surface, one
native.LayerFrame and the LayerFailure wrapping; an engine supplies only
step(prev, tau_next, frame) -> (LayerState, LayerDiagnostics).  march is
not in ``__all__``, so a tracer of the public names charges the loop to
the engine's march that calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scheme
from ._kernels import native
from .errors import LayerFailure, SolverError
from .mesh import GridSpec, initial_layer
from .model import MarketParams

__all__ = ["LayerDiagnostics", "SolveResult"]


@dataclass
class LayerDiagnostics:
    """Per-layer solve record."""

    layer: int
    tau: float
    iterations: int          # Newton iterations / predictor root iterations
    # interior residual at the accepted state: newton reports max |F1_i|, pc the
    # row-wise backward error max |F1_i| / (|a_i y_{i-1}| + |c_i y_i|
    # + |b_i y_{i+1}| + |y^prev_i|/dt)
    residual_f1: float
    residual_f2: float       # constraint residual at the accepted state
    initial_residual: float = np.inf  # residual norm at the starting iterate
    onesided_rows: int = 0   # rows where the singular term was upwinded
    dominance_violations: int = 0  # rows failing strict diagonal dominance
    predictor_fallback: bool = False  # predictor had no root; z_tilde = z_prev
    # row-wise backward error of F1 at the accepted state, max |F1_i| / (|a_i y_{i-1}|
    # + |c_i y_i| + |b_i y_{i+1}| + |y^prev_i|/dt), from both engines (pc's residual_f1)
    backward_error: float = np.nan


@dataclass
class SolveResult:
    """Boundary path, solution surface and diagnostics of one march."""

    params: MarketParams
    grid: GridSpec
    engine: str
    mode: str
    taus: np.ndarray
    rho: np.ndarray
    surface: np.ndarray  # shape (M+1, N+1), layer-major
    diagnostics: list[LayerDiagnostics] = field(default_factory=list)

    def layer_index_at(self, tau: float) -> int:
        """Index of the stored layer nearest to tau."""
        return int(np.argmin(np.abs(self.taus - tau)))

    def rho_at(self, tau: float) -> float:
        return float(self.rho[self.layer_index_at(tau)])


def march(p: MarketParams, g: GridSpec, mode: scheme.SchemeMode, engine: str,
          step) -> SolveResult:
    """March ``step`` over the time mesh from the initial layer."""
    state = initial_layer(p, g)
    rho = np.empty(g.M + 1)
    surface = np.empty((g.M + 1, g.N + 1))
    rho[0] = state.z
    surface[0] = state.y
    diags: list[LayerDiagnostics] = []
    frame = native.LayerFrame(g, p, mode)
    for j in range(g.M):
        tau_next = float(g.taus[j + 1])
        try:
            state, d = step(state, tau_next, frame)
        except SolverError as exc:
            raise LayerFailure(j + 1, tau_next, exc) from exc
        rho[j + 1] = state.z
        surface[j + 1] = state.y
        diags.append(d)
    return SolveResult(params=p, grid=g, engine=engine, mode=mode.value,
                       taus=g.taus.copy(), rho=rho, surface=surface, diagnostics=diags)
