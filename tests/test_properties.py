"""Property tests over the parameter space, not only the reference point.

Hypothesis draws (r, q, sigma, T) with r > q and a small N, derandomized
and without a database.  The properties are those the upwind-singular
Newton march should keep anywhere in that range: it succeeds, every
layer keeps the discrete maximum principle -1 <= y <= 0, the boundary
stays positive and starts at rho_initial exactly, and every layer solves
its rows to a row-wise backward error of rounding size.

Two of them do not hold everywhere in the range, so each has a test of
its own, marked as a strict expected failure and pinned to a set where
it fails; once the program is mended, that test passes and the mark
must go.  Newton stops without converging at some sets with sigma near
0.1, and at one set of the benchmark's own parameter box at the default
N = 200, and on layer 1 of some others the backward error exceeds its bound
at the far rows, where y is below 1e-12.  (Hypothesis mixes constants
from the loaded modules into its draws, so which sets a run draws
depends on what else the run imports: a property that fails anywhere in
the range cannot stand in a passing test.)
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from asianfb import LayerFailure, MarketParams, make_grid, march_newton, rho_initial

PROPERTY = settings(derandomize=True, deadline=None, database=None)
BACKWARD_ERROR_BOUND = 1e-13
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


def march(p, n):
    """The upwind Newton march at N = n, or a rejected draw when a layer
    fails: test_upwind_newton_march_succeeds holds that property."""
    try:
        return march_newton(p, make_grid(p, N=n))
    except LayerFailure:
        reject()


@PROPERTY
@given(p=market(), n=SIZES)
def test_upwind_newton_march_keeps_its_invariants(p, n):
    result = march(p, n)
    assert result.surface.min() >= -1.0 and result.surface.max() <= 0.0
    assert (result.rho > 0.0).all()
    assert result.rho[0] == rho_initial(p)


@pytest.mark.xfail(raises=LayerFailure, strict=True,
                   reason="Newton does not converge in 20 iterations at some sets with "
                          "sigma near 0.1, and at perfbench seed 981 (CHANGES.md, FOUND)")
@PROPERTY
@given(p=market(), n=SIZES)
@example(p=MarketParams(r=0.07568, q=0.00693, sigma=0.132, T=17.427), n=18)
# perfbench.workloads.market_params(981), inside the benchmark's own parameter
# box, at the default N = 200: layer 499 of 500 cycles, its step 0.1518 after
# 20, 21, 50 and 51 iterations, where central mode takes at most 5 per layer
@example(p=MarketParams(r=0.068354, q=0.030826, sigma=0.194063, T=50.0), n=200)
def test_upwind_newton_march_succeeds(p, n):
    march_newton(p, make_grid(p, N=n))


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="layer 1's backward error exceeds 1e-13 at the far rows of some "
                          "sets (CHANGES.md, FOUND)")
@PROPERTY
@given(p=market(), n=SIZES)
@example(p=MarketParams(r=0.08287, q=0.00977, sigma=0.1665, T=16.989), n=19)
def test_backward_error_is_of_rounding_size(p, n):
    errors = np.array([d.backward_error for d in march(p, n).diagnostics])
    assert errors.max() <= BACKWARD_ERROR_BOUND, int(errors.argmax()) + 1
