"""Result containers shared by both engines, and march, the one march driver.

march owns the initial layer, the stored rho and surface, one
native.LayerFrame, the array of each layer's out[] slots and the
LayerFailure wrapping; an engine supplies only its name and its limits,
a tolerance and an iteration cap, which its config checks with
check_limits.
A layer's out[] row, which the C march writes, is its one record:
SolveResult.diagnostics reads those rows by the slot names of
native.OUT_FIELDS (iterations, the residuals, predictor_fallback and the
rest), in place.  A caller that reads only rho (compare, refine)
marches with ``diagnostics=False``: C then skips the passes that only
fill the residuals and backward errors, which read NaN, and every other
slot, rho and the surface keep their bits.  The layers themselves run in
one native.march call, the only way into the C layer functions, which
steps the engine over the grid's whole time mesh and publishes each
stored layer in the frame's layer count, which a caller may read while
the march runs (cli's solve, which streams surface.csv).  march and
check_limits are not in ``__all__``, so a tracer of the public names
charges them to the engine's call that makes them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import scheme, tridiag
from ._kernels import native
from .errors import LayerFailure
from .mesh import GridSpec, initial_layer
from .model import MarketParams

__all__ = ["SolveResult"]


@dataclass
class SolveResult:
    """Boundary path, solution surface and per-layer record of one march.

    ``rows`` holds layer j's out[] slots in row j - 1 (none by default),
    and ``diagnostics`` reads them by name: layer j's at tau = taus[j] is
    diagnostics[j - 1].
    """

    params: MarketParams
    grid: GridSpec
    engine: str
    mode: str
    taus: np.ndarray
    rho: np.ndarray
    surface: np.ndarray  # shape (M+1, N+1), layer-major
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, native.OUT_SLOTS)),
                             repr=False)  # shape (M, native.OUT_SLOTS)

    @property
    def diagnostics(self) -> np.recarray:
        """The out[] rows of layers 1 .. M as records (see native.records):
        a view of ``rows`` with one field of each native.OUT_FIELDS name,
        so diagnostics.iterations holds each layer's iterations and
        diagnostics[j - 1].predictor_fallback layer j's fallback flag.
        Both engines report the row-wise backward error of F1 at the
        accepted state, max |F1_i| / (|a_i y_{i-1}| + |c_i y_i| +
        |b_i y_{i+1}| + |y^prev_i|/dt), in backward_error; residual_f1
        holds Newton's max |F1_i| and pc's backward error.  pc's
        iterations are its predictor's root iterations, and its
        initial_residual is infinite."""
        return native.records(self.rows)

    def layer_index_at(self, tau: float) -> int:
        """Index of the stored layer nearest to tau."""
        return int(np.argmin(np.abs(self.taus - tau)))

    def rho_at(self, tau: float) -> float:
        return float(self.rho[self.layer_index_at(tau)])


def check_limits(tol_name: str, tol: float, max_iter: int) -> None:
    """Raise ValueError unless an engine config's tolerance ``tol``, its
    field ``tol_name``, is finite and positive and max_iter >= 1."""
    if not math.isfinite(tol):
        raise ValueError(f"{tol_name} must be finite, got {tol}")
    if not (tol > 0):
        raise ValueError(f"{tol_name} must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def march(p: MarketParams, g: GridSpec, mode: scheme.SchemeMode, engine: str, tol: float,
          max_iter: int, ready=None, diagnostics: bool = True) -> SolveResult:
    """March ``engine`` ("newton" or "pc") over the time mesh from the
    initial layer with its limits ``tol`` and ``max_iter`` (Newton's step
    tolerance and iteration cap, or the predictor's root tolerance and
    cap), and tridiag's PIVOT_RTOL and SCHUR_FLOOR as they are at the
    call.

    The march is one native.march call.  ``ready``, when given, is
    called once on this thread, before any layer runs, as
    ``ready(surface, published)``: surface is the march's (M + 1, N + 1)
    array, with layer 0 stored, and ``published()`` reads the number of
    layers the march has published (native.published of its frame), 0
    until the march begins.  Another thread may read rows 0 ..
    published() - 1 of surface while the march runs; they are final.
    Without ``diagnostics`` each layer's residual_f1, residual_f2 and
    backward_error are NaN (see native.march).

    Raises ValueError, before any layer runs, unless ``g`` was built for
    p's maturity (g.T == p.T), and LayerFailure(layer, tau, cause) on the
    first layer that fails, whatever its cause: a SolverError, or the
    ValueError of an elimination that met a non-finite entry.
    """
    if g.T != p.T:
        raise ValueError(f"the grid was built for the maturity T={g.T}, "
                         f"the market's is T={p.T}")
    state = initial_layer(p, g)
    frame = native.LayerFrame(g, p, mode)
    frame.set_limits(dict(tol=tol, max_iter=max_iter, pivot_rtol=tridiag.PIVOT_RTOL,
                          schur_floor=tridiag.SCHUR_FLOOR, diagnostics=int(diagnostics)))
    rho, surface = np.empty(g.M + 1), np.empty((g.M + 1, g.N + 1))
    rows = np.empty((g.M, native.OUT_SLOTS))
    rho[0], surface[0] = state.z, state.y
    if ready is not None:
        ready(surface, functools.partial(native.published, frame))
    failure = native.march(frame, engine, g.taus, rho, surface, rows)
    if failure is not None:
        layer, exc = failure
        raise LayerFailure(layer, float(g.taus[layer]), exc) from exc
    return SolveResult(params=p, grid=g, engine=engine, mode=mode.value,
                       taus=g.taus.copy(), rho=rho, surface=surface, rows=rows)
