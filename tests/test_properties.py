"""Property tests over the parameter space, not only the reference point.

Hypothesis draws (r, q, sigma, T) with r > q and a small N, derandomized
and without a database.  The properties are those the upwind-singular
Newton march should keep anywhere in that range: it succeeds, every
layer keeps the discrete maximum principle -1 <= y <= 0, the boundary
stays positive and starts at rho_initial exactly, and every layer solves
its rows to a row-wise backward error of rounding size.  In either mode,
each layer that the march starts from an extrapolation ends at the root
that Newton finds from the previous layer.

Two of them do not hold everywhere in the range, so each has a test of
its own, marked as a strict expected failure and pinned to a set where
it fails; once the program is mended, that test passes and the mark
must go.  Newton stops without converging at some sets with sigma near
0.1, at one set of the benchmark's own parameter box at the default
N = 200 and at one set of that box at T = 11.8 and N = 100, and on
layer 1 of some others the backward error exceeds its bound at the far
rows, where y is below 1e-12.  (Hypothesis mixes constants
from the loaded modules into its draws, so which sets a run draws
depends on what else the run imports: a property that fails anywhere in
the range cannot stand in a passing test.)

The predictor-corrector march has properties of its own over the same
range: wherever it reaches maturity, every layer solves its rows to a
row-wise backward error of rounding size, y >= -1, the boundary stays
positive and starts at rho_initial exactly.  Three more that one might
expect are false near maturity in parts of the range, so none stands
here (CHANGES.md, FOUND): the march fails with NonPositiveZ on one of its
last layers at some sets, y rises above 0 on a layer just before
maturity at others, and the predictor falls back on layer 1 or on layers
well before the last at others.  Neither is pc's gap to Newton shrinking
from N to 2N at small N, nor rho monotone in tau.
"""

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from asianfb import LayerFailure, MarketParams, make_grid, march_newton, march_pc, rho_initial
from asianfb._kernels import native
from asianfb.mesh import LayerState
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig

from _oracles import one_layer

PROPERTY = settings(derandomize=True, deadline=None, database=None)
BACKWARD_ERROR_BOUND = 1e-13
# pc's row-wise backward error: its frozen solves are direct, so it reads
# at most 7.6e-16 over 13k draws of the range below (N = 8 .. 32)
PC_BACKWARD_ERROR_BOUND = 1e-15
# |rho| gap between a layer's root from the march's extrapolated start and
# from the previous layer
SAME_ROOT_TOL = 1e-10
SIZES = st.integers(8, 32)


@st.composite
def market(draw):
    """MarketParams with r in [0.03, 0.10], q in [0.005, r - 0.005],
    sigma in [0.1, 0.5] and T in [0.5, 60]."""
    r = draw(st.floats(0.03, 0.10), label="r")
    q = draw(st.floats(0.005, r - 0.005), label="q")
    sigma = draw(st.floats(0.1, 0.5), label="sigma")
    T = draw(st.floats(0.5, 60.0), label="T")
    return MarketParams(r=r, q=q, sigma=sigma, T=T)


def march(p, n, mode=SchemeMode.UPWIND_SINGULAR):
    """The Newton march at N = n, or a rejected draw when a layer fails:
    test_upwind_newton_march_succeeds holds that property."""
    try:
        return march_newton(p, make_grid(p, N=n), mode)
    except LayerFailure:
        reject()


def pc_march(p, n):
    """The upwind pc march at N = n, or a rejected draw when a layer fails
    (at some sets it does: see the module docstring)."""
    try:
        return march_pc(p, make_grid(p, N=n))
    except LayerFailure:
        reject()


@PROPERTY
@given(p=market(), n=SIZES)
def test_upwind_pc_march_keeps_its_invariants(p, n):
    result = pc_march(p, n)
    assert result.surface.min() >= -1.0
    assert (result.rho > 0.0).all()
    assert result.rho[0] == rho_initial(p)


@PROPERTY
@given(p=market(), n=SIZES)
def test_pc_backward_error_is_of_rounding_size(p, n):
    errors = pc_march(p, n).diagnostics.backward_error
    assert errors.max() <= PC_BACKWARD_ERROR_BOUND, int(errors.argmax()) + 1


@PROPERTY
@given(p=market(), n=SIZES)
def test_upwind_newton_march_keeps_its_invariants(p, n):
    result = march(p, n)
    assert result.surface.min() >= -1.0 and result.surface.max() <= 0.0
    assert (result.rho > 0.0).all()
    assert result.rho[0] == rho_initial(p)


@PROPERTY
@given(p=market(), n=SIZES, mode=st.sampled_from(SchemeMode))
def test_extrapolated_start_ends_at_the_plain_start_root(p, n, mode):
    """Each layer of the march, which starts Newton from an extrapolation
    of the layers before it, ends where Newton from the previous layer
    (a march of that one layer from the stored one) ends."""
    result = march(p, n, mode)
    g = result.grid
    frame = native.LayerFrame(g, p, mode)
    for j in range(g.M):
        prev = LayerState(j=j, tau=float(g.taus[j]), y=result.surface[j].copy(),
                          z=float(result.rho[j]))
        state, _ = one_layer(frame, NewtonConfig(), prev, float(g.taus[j + 1]))
        assert abs(state.z - result.rho[j + 1]) <= SAME_ROOT_TOL, j + 1


@pytest.mark.xfail(raises=LayerFailure, strict=True,
                   reason="Newton does not converge in 20 iterations at some sets with "
                          "sigma near 0.1, at perfbench seed 981 and at one shorter-maturity "
                          "set of its box (CHANGES.md, FOUND)")
@PROPERTY
@given(p=market(), n=SIZES)
@example(p=MarketParams(r=0.07568, q=0.00693, sigma=0.132, T=17.427), n=18)
# perfbench.workloads.market_params(981), inside the benchmark's own parameter
# box, at the default N = 200: layer 499 of 500 cycles, its step 0.1518 after
# 20, 21, 50 and 51 iterations, where central mode takes at most 5 per layer
@example(p=MarketParams(r=0.068354, q=0.030826, sigma=0.194063, T=50.0), n=200)
# inside the same (r, q, sigma) box at a shorter maturity: layer 249 of 250
# cycles, its step 0.1467 after 20 iterations
@example(p=MarketParams(r=0.0667292, q=0.0371453, sigma=0.2055627, T=11.7777391), n=100)
def test_upwind_newton_march_succeeds(p, n):
    march_newton(p, make_grid(p, N=n))


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="layer 1's backward error exceeds 1e-13 at the far rows of some "
                          "sets (CHANGES.md, FOUND)")
@PROPERTY
@given(p=market(), n=SIZES)
@example(p=MarketParams(r=0.08287, q=0.00977, sigma=0.1665, T=16.989), n=19)
def test_backward_error_is_of_rounding_size(p, n):
    errors = march(p, n).diagnostics.backward_error
    assert errors.max() <= BACKWARD_ERROR_BOUND, int(errors.argmax()) + 1
