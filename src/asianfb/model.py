"""Continuous model: market parameters, transformed coefficients, constraint.

The solver library works on the fixed-domain formulation of the American
floating-strike Asian call.  Starting from the value function V(t, S, A)
with free boundary S_f(t, A), the similarity reduction x = A/S,
W = V/A and the front-fixing change of variables

    tau = T - t,   xi = ln(rho(tau) * x),   rho = S_f / A,

turn the moving-boundary PDE into a parabolic problem for the synthetic
portfolio Pi(xi, tau) = W + x dW/dx on the fixed strip xi > 0:

    dPi/dtau + alpha(xi, tau) dPi/dxi - (sigma^2/2) d2Pi/dxi2
        + beta(tau) Pi = 0,
    Pi(0, tau) = -1,  Pi(inf, tau) = 0,

with coefficients

    alpha = rho'/rho + r - q - sigma^2/2 - (rho e^{-xi} - 1)/(T - tau),
    beta  = r + 1/(T - tau),

and the algebraic free-boundary constraint

    rho(tau) = [1 + r(T-tau) + (sigma^2/2)(T-tau) dPi/dxi(0, tau)]
               / [1 + q(T-tau)],
    rho(0)   = max((1 + rT)/(1 + qT), 1).

This module holds the parameter record, rho(0) and the similarity
coordinates of the xi-nodes; the discretization of the coefficients
lives in scheme.  The original (t, S, A) equation is never discretized;
the engines operate on the (xi, tau, Pi) problem only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["MarketParams", "rho_initial"]


@dataclass(frozen=True)
class MarketParams:
    """Market and contract inputs (annualized rates, volatility, maturity)."""

    r: float
    q: float
    sigma: float
    T: float

    def __post_init__(self):
        for name in ("r", "q", "sigma", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.r > 0):
            raise ValueError(f"r must be positive, got {self.r}")
        if self.q < 0:
            raise ValueError(f"q must be non-negative, got {self.q}")
        if self.q == 0:
            warnings.warn(
                "q = 0: the model assumes a positive dividend rate; "
                "the constraint denominator degenerates to 1",
                stacklevel=2,
            )
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")


def rho_initial(p: MarketParams) -> float:
    """Free-boundary ratio at tau = 0: max((1 + rT)/(1 + qT), 1)."""
    return max((1.0 + p.r * p.T) / (1.0 + p.q * p.T), 1.0)


def log_moneyness_nodes(xi, rho):
    """Similarity coordinates x = e^{xi}/rho of the xi-nodes at boundary rho."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return np.exp(np.asarray(xi)) / rho
