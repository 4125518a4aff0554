"""Result containers shared by both engines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import GridSpec
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

    def boundary_path(self) -> np.ndarray:
        """(tau, rho) pairs, one per layer."""
        return np.column_stack([self.taus, self.rho])
