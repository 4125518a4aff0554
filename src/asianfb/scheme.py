"""Implicit difference scheme: the layer rows and the discrete constraint.

Interior equation at node i, layer j+1 (backward Euler in time, step
dt = tau_{j+1} - tau_j):

    (y_i' - y_i)/dt + alpha_i (y_{i+1}' - y_{i-1}')/(2h)
        - (sigma^2/2)(y_{i+1}' - 2 y_i' + y_{i-1}')/h^2 + beta y_i' = 0,

with y_0' = -1, y_N' = 0 and the discrete advection coefficient

    alpha_i = (z' - z)/(dt z') + r - q - sigma^2/2
              - (z' e^{-xi_i} - 1)/(T - tau_{j+1}).

Collecting terms gives the row coefficients (mu is the bounded advection
part, d_i = s_i/(2h) the singular part):

    a_i = -mu/(2h) - sigma^2/(2h^2) + d_i
    c_i = 1/dt + sigma^2/h^2 + r + 1/(T - tau_{j+1})
    b_i = +mu/(2h) - sigma^2/(2h^2) - d_i

LayerFrame holds the buffers of this system for one march; the engines'
C layer functions (native.newton_layer, native.pc_corrector) assemble
it there, split by what depends on the boundary iterate z.  Once per
time layer each first builds the z-free part: dt, 1/(T - tau),
e^{-xi_i}/(T - tau) (= ds_i/dz) and its 0.5/h scaling, the central
diagonal c_i (in central mode also written out, with dc = 0; upwind rows
are all rewritten per iterate), the right-hand side y_i/dt, and the
constraint's coefficients and its row J21.  Per iterate
they evaluate mu, s_i and the one-sided switch below once and write the
z-dependent rows and their z-derivatives (the Newton column J12 =
dF1/dz) into the frame's buffers, and take the interior residual from
the rows,

    F1_i = a_i y_{i-1}' + c_i y_i' + b_i y_{i+1}' - y_i/dt.

The boundary constraint closing the system uses the one-sided
second-order slope at xi = 0:

    F2 = z' - (1 + r ttm)/(1 + q ttm)
            - (sigma^2/2) ttm/(1 + q ttm) (-3 y_0' + 4 y_1' - y_2')/(2h),

and its only y-dependence is the row J21 = dF2/dy,

    J21 = (-sigma^2/(D h), sigma^2/(4 D h)),   D = q + 1/ttm.

The test suite keeps the numpy form of the z-free part (frame_start),
the rows, F1, J12 and F2 that the C code repeats operation by
operation, the difference-quotient form of F1 that pins the row form,
and the mask blend of both stencils that pins the one-sided rewrite.

Advection modes.  "central" differences the whole advection term
centrally.  "upwind-singular" is central too, except that the singular
term s_i dPi/dxi switches to a first-order one-sided difference (forward
for s_i >= 0, backward otherwise) at exactly those nodes where the
central row would lose its non-positive off-diagonals, i.e. where the
cell Peclet number |alpha_i| h / sigma^2 exceeds 1.  For moderate tau
the two modes coincide; as tau -> T the factor 1/(T - tau) makes the
singular term dominate and the switch engages, restoring the M-matrix
row structure (a_i <= 0, b_i <= 0, strict diagonal dominance by
1/dt + beta) that keeps the march oscillation free through the final
layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._kernels import native
from .errors import NonPositiveZ, SingularSchur, ZeroPivot
from .mesh import GridSpec, LayerState
from .model import MarketParams

__all__ = ["SchemeMode", "LayerRows", "LayerFrame"]


class SchemeMode(str, enum.Enum):
    CENTRAL = "central"
    UPWIND_SINGULAR = "upwind-singular"


@dataclass(frozen=True)
class LayerRows:
    """Interior rows i = 1..N-1 of the layer system at one boundary iterate.

    F1 = lower * y[:-2] + diag * y[1:-1] + upper * y[2:] - rhs, and
    (da, dc, db) are the z-derivatives of (lower, diag, upper) with the
    one-sided switch held fixed.
    """

    lower: np.ndarray  # a_i
    diag: np.ndarray   # c_i
    upper: np.ndarray  # b_i
    da: np.ndarray     # d(a_i)/dz
    dc: np.ndarray     # d(c_i)/dz
    db: np.ndarray     # d(b_i)/dz
    rhs: np.ndarray    # y^prev_i / dt
    onesided: np.ndarray  # bool; True where the singular term is upwinded


def layer_error(status: int, value, prev: LayerState, tau_next: float,
                p: MarketParams) -> Exception:
    """The exception of a C layer call (native.newton_layer or
    native.pc_corrector) from ``prev`` to ``tau_next`` that ended with the
    failure ``status`` and its value, for the failures both engines share:
    the layer past maturity or with a non-positive step, which the frame
    refuses, and a non-positive z, a zero pivot or a singular Schur step."""
    if status == native.LAYER_PAST_MATURITY:
        return ValueError(f"tau_next must be < T; got {tau_next} with T={p.T}")
    if status == native.LAYER_NON_POSITIVE_STEP:
        return ValueError(f"non-positive time step: tau_next={tau_next}, prev tau={prev.tau}")
    if status == native.LAYER_NON_POSITIVE_Z:
        return NonPositiveZ(value)
    if status == native.LAYER_ZERO_PIVOT:
        return ZeroPivot(int(value))
    if status == native.LAYER_SINGULAR_SCHUR:
        return SingularSchur(f"Schur denominator {value:.3e} at tau={tau_next:.6g}")
    return RuntimeError(f"layer status {status} is not a failure both engines share")


@dataclass(eq=False)
class LayerFrame:
    """The layer system of one march, in buffers it owns.

    The engines' C layer functions build the frame of each time layer in
    these buffers: the z-free part first (dt, 1/(T - tau) through ttm,
    ds_i/dz = e^{-xi_i}/(T - tau) and its 0.5/h scaling, the z-free
    diagonal, rhs = y^prev/dt, and the constraint's coefficients and its
    row J21), then the z-dependent rows of each iterate, all in the
    LayerRows buffers, which every layer of the march overwrites.

    ``j11`` is J11 (lower[1:], diag, upper[:-1]): three views of the row
    buffers, made once.  ``pair_rhs`` (2, n) and ``single_rhs`` (n,) are
    the right-hand side buffers that Newton's and pc's layers fill and
    solve against J11 in place.  The kernel binds a march's frame once
    (see _kernels.native), so a buffer must not be replaced.
    """

    g: GridSpec
    p: MarketParams
    mode: SchemeMode

    def __post_init__(self):
        n = self.g.N - 1
        sig2 = self.p.sigma**2
        self._sig2 = sig2
        self._half_sig2 = 0.5 * sig2
        self._diff = 0.5 * sig2 / self.g.h**2
        self._rows = LayerRows(lower=np.zeros(n), diag=np.zeros(n), upper=np.zeros(n),
                               da=np.zeros(n), dc=np.zeros(n), db=np.zeros(n),
                               rhs=np.zeros(n), onesided=np.zeros(n, dtype=bool))
        self._ds = np.empty(n)      # ds_i/dz = e^{-xi_i}/(T - tau)
        self._half_ds_h = np.empty(n)
        rows = self._rows
        self.j11 = (rows.lower[1:], rows.diag, rows.upper[:-1])
        self.pair_rhs = np.zeros((2, n))
        self.single_rhs = np.zeros(n)
