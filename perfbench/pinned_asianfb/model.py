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

This module holds the parameter record, these continuous coefficients,
and the inverse transform back to (t, x_f) coordinates.  The original
(t, S, A) equation is never discretized; the engines operate on the
(xi, tau, Pi) problem only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketParams",
    "TransformedPoint",
    "rho_initial",
    "beta",
    "alpha_continuous",
    "rho_constraint",
    "boundary_in_original_variables",
]


@dataclass(frozen=True)
class MarketParams:
    """Market and contract inputs (annualized rates, volatility, maturity)."""

    r: float
    q: float
    sigma: float
    T: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class TransformedPoint:
    """A point (xi, tau) of the fixed computational strip."""

    xi: float
    tau: float

    def __post_init__(self):
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


def _check_tau(p: MarketParams, tau) -> None:
    tau = np.asarray(tau)
    if np.any(tau < 0) or np.any(tau >= p.T):
        raise ValueError(f"tau must lie in [0, T); got {tau} with T={p.T}")


def rho_initial(p: MarketParams) -> float:
    """Free-boundary ratio at tau = 0: max((1 + rT)/(1 + qT), 1)."""
    return max((1.0 + p.r * p.T) / (1.0 + p.q * p.T), 1.0)


def beta(p: MarketParams, tau):
    """Reaction coefficient beta(tau) = r + 1/(T - tau); singular at tau = T."""
    _check_tau(p, tau)
    return p.r + 1.0 / (p.T - tau)


def alpha_continuous(p: MarketParams, xi, tau, rho, rho_dot):
    """Advection coefficient of the transformed PDE.

    alpha = rho_dot/rho + r - q - sigma^2/2 - (rho e^{-xi} - 1)/(T - tau).
    The last term is the front-fixing contribution; it is singular both
    as tau -> T and (in sign) across xi = ln(rho).
    """
    _check_tau(p, tau)
    if np.any(np.asarray(rho) <= 0):
        raise ValueError(f"rho must be positive, got {rho}")
    return (
        rho_dot / rho
        + p.r
        - p.q
        - 0.5 * p.sigma**2
        - (rho * np.exp(-np.asarray(xi)) - 1.0) / (p.T - tau)
    )


def rho_constraint(p: MarketParams, tau, slope):
    """Free-boundary ratio implied by the slope dPi/dxi at xi = 0."""
    _check_tau(p, tau)
    ttm = p.T - tau
    return (1.0 + p.r * ttm + 0.5 * p.sigma**2 * ttm * slope) / (1.0 + p.q * ttm)


def boundary_in_original_variables(rho_path, T: float):
    """Map a (tau, rho) boundary path to (t, x_f) with x_f(t) = 1/rho(T-t).

    Returns an array of (t, x_f) rows sorted ascending in t.
    """
    pairs = np.atleast_2d(np.asarray(rho_path, dtype=float))
    if pairs.shape[1] != 2:
        raise ValueError("rho_path must be a sequence of (tau, rho) pairs")
    if np.any(pairs[:, 1] <= 0):
        raise ValueError("all rho values must be positive")
    out = np.column_stack([T - pairs[:, 0], 1.0 / pairs[:, 1]])
    return out[np.argsort(out[:, 0], kind="stable")]


def log_moneyness_nodes(xi, rho):
    """Similarity coordinates x = e^{xi}/rho of the xi-nodes at boundary rho."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return np.exp(np.asarray(xi)) / rho


# Parity check used in tests and debugging: at xi = ln(rho) with rho_dot = 0
# the singular term reduces to -1/(T-tau) * 0, so alpha + (sigma^2/2 + q - r)
# must vanish identically.
def advection_cancellation_defect(p: MarketParams, tau, rho):
    return alpha_continuous(p, math.log(rho), tau, rho, 0.0) + (
        0.5 * p.sigma**2 + p.q - p.r
    )
