"""Result containers shared by both engines, and march, the one march driver.

march owns the initial layer, the stored rho and surface, one
native.LayerFrame, the LayerDiagnostics built from each layer's out[]
slots and the LayerFailure wrapping; an engine supplies only its name
and its limits.  The layers themselves run in one native.march call,
which steps the engine over the whole time mesh in C.  march is not in
``__all__``, so a tracer of the public names charges it to the engine's
march that calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scheme, tridiag
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


def layer_diagnostics(layer: int, tau: float, out) -> LayerDiagnostics:
    """The LayerDiagnostics of layer ``layer`` at ``tau`` from the out[]
    slots of its C layer call, in native's OUT_* order."""
    iterations, _, initial, onesided, violations, f1, f2, backward, _, _, fallback = out
    return LayerDiagnostics(layer, tau, int(iterations), f1, f2, initial, int(onesided),
                            int(violations), bool(fallback), backward)


def march(p: MarketParams, g: GridSpec, mode: scheme.SchemeMode, engine: str,
          limits: dict) -> SolveResult:
    """March ``engine`` ("newton" or "pc") over the time mesh from the
    initial layer in one native.march call, with ``limits``, the engine's
    fields of the frame's struct, and tridiag's PIVOT_RTOL and SCHUR_FLOOR
    as they are at the call.

    Raises LayerFailure(layer, tau, cause) on the first layer that fails
    with a SolverError, and a layer's ValueError as it is.
    """
    state = initial_layer(p, g)
    rho, surface, rows, failure = native.march(
        native.LayerFrame(g, p, mode), engine, state.y, state.z,
        dict(limits, pivot_rtol=tridiag.PIVOT_RTOL, schur_floor=tridiag.SCHUR_FLOOR))
    if failure is not None:
        layer, exc = failure
        if not isinstance(exc, SolverError):
            raise exc
        raise LayerFailure(layer, float(g.taus[layer]), exc) from exc
    diags = [layer_diagnostics(j, tau, row)
             for j, tau, row in zip(range(1, g.M + 1), g.taus[1:].tolist(), rows.tolist())]
    return SolveResult(params=p, grid=g, engine=engine, mode=mode.value,
                       taus=g.taus.copy(), rho=rho, surface=surface, diagnostics=diags)
