import math

import numpy as np
import pytest

from asianfb.mesh import (
    GridSpec,
    LayerState,
    default_domain_length,
    initial_layer,
    make_grid,
)
from asianfb.model import MarketParams


class TestDefaultDomainLength:
    def test_reference_value(self, params):
        assert default_domain_length(params) == pytest.approx(
            5.0 * math.log(4.0 / 3.0), rel=1e-15
        )

    def test_degenerate_boundary_requires_explicit_length(self):
        p = MarketParams(r=0.05, q=0.05, sigma=0.2, T=10.0)
        with pytest.raises(ValueError, match="explicit L"):
            default_domain_length(p)

    def test_second_reference(self):
        p = MarketParams(r=0.1, q=0.02, sigma=0.2, T=10.0)
        assert default_domain_length(p) == pytest.approx(5 * math.log(2.0 / 1.2), rel=1e-12)
        assert default_domain_length(p) == pytest.approx(2.554128, abs=5e-7)


class TestGridSpec:
    def test_default_time_refinement(self, params):
        g = make_grid(params, N=200)
        assert (g.N, g.M) == (200, 500)
        assert g.h == g.L / g.N
        assert g.k == params.T / g.M

    def test_node_and_layer_counts(self, params):
        g = make_grid(params, N=16, M=10)
        assert g.xi.size == g.N + 1
        assert g.taus.size == g.M + 1

    def test_final_layer_shift(self, params):
        g = make_grid(params, N=16, M=10)
        assert g.taus[-1] == params.T - g.eps_final
        assert g.taus[-1] - g.taus[-2] == pytest.approx(g.k - g.eps_final, abs=1e-12)

    def test_uniform_interior_layers(self, params):
        g = make_grid(params, N=16, M=10)
        assert np.allclose(np.diff(g.taus[:-1]), g.k, rtol=0, atol=1e-12)
        assert np.allclose(np.diff(g.xi), g.h, rtol=0, atol=1e-12)
        assert g.xi[-1] == g.L

    def test_validation(self, params):
        with pytest.raises(ValueError):
            GridSpec(N=3, M=10, L=1.0, T=50.0)
        with pytest.raises(ValueError):
            GridSpec(N=8, M=1, L=1.0, T=50.0)
        with pytest.raises(ValueError):
            GridSpec(N=8, M=10, L=1.0, T=50.0, eps_final=6.0)  # eps >= k
        with pytest.raises(ValueError, match="L must be finite"):
            GridSpec(N=8, M=10, L=math.inf, T=50.0)
        with pytest.raises(ValueError, match="T must be finite"):
            GridSpec(N=8, M=10, L=1.0, T=math.inf)
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"L must be positive, got {value}"):
                GridSpec(N=8, M=10, L=value, T=50.0)
            with pytest.raises(ValueError, match=f"T must be positive, got {value}"):
                GridSpec(N=8, M=10, L=1.0, T=value)

    def test_eps_final_below_the_precision_of_T_rejected(self):
        # 50 - 1e-15 rounds to 50: the final layer would sit at maturity
        assert 50.0 - 1e-15 == 50.0
        with pytest.raises(ValueError, match="eps_final"):
            GridSpec(N=8, M=10, L=1.0, T=50.0, eps_final=1e-15)
        g = GridSpec(N=8, M=10, L=1.0, T=50.0, eps_final=1e-13)  # representable
        assert g.taus[-2] < g.taus[-1] < g.T


class TestInitialLayer:
    def test_reference_grid_jump_location(self, params):
        # h = 0.14384, ln(4/3) = 0.2876820724...: xi_2 = 0.28768 is a near
        # tie kept inside the exercised region, xi_3 = 0.43152 is outside.
        g = make_grid(params, N=10, L=1.4384)
        layer = initial_layer(params, g)
        expected = np.array([-1.0, -1.0, -1.0] + [0.0] * 8)
        assert np.array_equal(layer.y, expected)
        assert layer.z == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert layer.j == 0 and layer.tau == 0.0

    def test_default_length_puts_tie_on_node(self, params):
        # with L = 5 ln rho0 and 5 | N the jump lands exactly on node N/5;
        # the inclusive comparison keeps that node at -1
        g = make_grid(params, N=50)
        layer = initial_layer(params, g)
        assert layer.y[10] == -1.0
        assert layer.y[11] == 0.0

    def test_degenerate_boundary_single_node(self):
        p = MarketParams(r=0.05, q=0.05, sigma=0.2, T=10.0)
        g = make_grid(p, N=8, L=2.0)
        layer = initial_layer(p, g)
        assert np.array_equal(layer.y, [-1.0] + [0.0] * 8)

    def test_far_node_forced_to_zero(self, params):
        # domain short enough that every node satisfies xi <= ln rho(0)
        g = make_grid(params, N=4, L=0.2)
        layer = initial_layer(params, g)
        assert np.array_equal(layer.y, [-1.0, -1.0, -1.0, -1.0, 0.0])

    def test_monotone_two_valued(self, params, rng):
        for _ in range(10):
            g = make_grid(params, N=int(rng.integers(5, 60)),
                          L=float(rng.uniform(0.3, 3.0)))
            layer = initial_layer(params, g)
            assert set(np.unique(layer.y)) <= {-1.0, 0.0}
            assert np.all(np.diff(layer.y) >= 0)


class TestLayerState:
    def test_boundary_value_validation(self):
        with pytest.raises(ValueError):
            LayerState(j=0, tau=0.0, y=np.zeros(5), z=1.0)
        y = np.zeros(5)
        y[0] = -1.0
        with pytest.raises(ValueError):
            LayerState(j=0, tau=0.0, y=y, z=0.0)
        LayerState(j=0, tau=0.0, y=y, z=1.2)
