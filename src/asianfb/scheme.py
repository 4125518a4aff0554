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

This module defines the system and its advection modes; the engines'
C layer functions (thomas.c's newton_layer and pc_corrector) assemble
it in the buffers of a march's native.LayerFrame, split by what depends
on the boundary iterate z.  Once per time layer each first builds the
z-free part: dt, 1/(T - tau), e^{-xi_i}/(T - tau) (= ds_i/dz) and its
0.5/h scaling, the central diagonal c_i (in central mode also written
out, with dc = 0; upwind rows are all rewritten per iterate), the
right-hand side y_i/dt, and the constraint's coefficients and its row
J21.  Per iterate they evaluate mu, s_i and the one-sided switch below once and write the
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

__all__ = ["SchemeMode"]


class SchemeMode(str, enum.Enum):
    CENTRAL = "central"
    UPWIND_SINGULAR = "upwind-singular"
