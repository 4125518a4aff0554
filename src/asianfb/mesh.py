"""Uniform space-time mesh and the discontinuous initial layer.

Space: xi_i = i*h, i = 0..N, h = L/N on the truncated strip [0, L] with
Pi(L, tau) = 0 prescribed.  Time: tau_j = j*k, k = T/M, except that the
final layer is shifted to tau_M = T - eps so the singular coefficients
1/(T - tau) stay finite; the last step size is therefore k - eps.

The initial datum y_i^0 is -1 for xi_i <= ln(rho(0)) and 0 otherwise;
the jump generally falls between nodes (it coincides with node N/5 when
the default L = 5 ln rho(0) is used and 5 | N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import MarketParams, rho_initial

__all__ = ["GridSpec", "LayerState", "default_domain_length", "make_grid", "initial_layer"]

DEFAULT_EPS_FINAL = 1e-7
TIME_REFINEMENT_RATIO = 2.5  # default M = ceil(2.5 N), the ratio of the reference run


@dataclass(frozen=True)
class GridSpec:
    """Uniform mesh: N space intervals on [0, L], M time layers on [0, T]."""

    N: int
    M: int
    L: float
    T: float
    eps_final: float = DEFAULT_EPS_FINAL
    h: float = field(init=False)
    k: float = field(init=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    taus: np.ndarray = field(init=False, repr=False, compare=False)
    # e^{-xi_i} at the interior nodes i = 1..N-1, for the singular advection term
    exp_neg_xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"N must be >= 4, got {self.N}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        for name in ("L", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        h = self.L / self.N
        k = self.T / self.M
        if not (0 < self.eps_final < k):
            raise ValueError(
                f"eps_final must lie in (0, k); got {self.eps_final} with k={k}"
            )
        xi = np.arange(self.N + 1) * h
        xi[-1] = self.L
        taus = np.arange(self.M + 1) * k
        taus[-1] = self.T - self.eps_final
        if not (taus[-2] < taus[-1] < self.T):
            # eps_final too small for T's precision (T - eps rounds to T),
            # or so close to k that the last step rounds to nothing
            raise ValueError(
                f"eps_final={self.eps_final} leaves no final layer strictly between "
                f"tau={taus[-2]} and T={self.T}: T - eps_final rounds to {taus[-1]}"
            )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "exp_neg_xi", np.exp(-xi[1:-1]))


@dataclass
class LayerState:
    """Solution values y_i ~ Pi(xi_i, tau_j) and boundary ratio z ~ rho(tau_j)."""

    j: int
    tau: float
    y: np.ndarray
    z: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y[0] != -1.0 or self.y[-1] != 0.0:
            raise ValueError("layer must carry boundary values y[0]=-1, y[-1]=0")
        if not (self.z > 0):
            raise ValueError(f"z must be positive, got {self.z}")


def default_domain_length(p: MarketParams) -> float:
    """Truncation length 5 ln(rho(0)); degenerate when rho(0) = 1."""
    rho0 = rho_initial(p)
    if rho0 <= 1.0:
        raise ValueError(
            "default domain length is 0 because rho(0) = 1 "
            "(r <= q regime); pass an explicit L"
        )
    return 5.0 * math.log(rho0)


def make_grid(
    p: MarketParams,
    N: int,
    M: int | None = None,
    L: float | None = None,
    eps_final: float = DEFAULT_EPS_FINAL,
) -> GridSpec:
    """Grid factory applying the default rules M = ceil(2.5 N), L = 5 ln rho(0)."""
    if M is None:
        M = math.ceil(TIME_REFINEMENT_RATIO * N)
    if L is None:
        L = default_domain_length(p)
    return GridSpec(N=N, M=M, L=L, T=p.T, eps_final=eps_final)


def initial_layer(p: MarketParams, g: GridSpec) -> LayerState:
    """Discontinuous datum: y = -1 where xi_i <= ln rho(0), else 0; z = rho(0).

    The comparison is an exact floating-point <= (ties included), and the
    far-field node is forced to 0 regardless.
    """
    edge = math.log(rho_initial(p))
    y = np.where(g.xi <= edge, -1.0, 0.0)
    y[-1] = 0.0
    return LayerState(j=0, tau=0.0, y=y, z=rho_initial(p))
