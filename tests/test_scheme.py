import math

import numpy as np
import pytest

from asianfb._kernels import native
from asianfb.errors import NonPositiveZ
from asianfb.mesh import GridSpec, LayerState, make_grid
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig, march_newton
from asianfb.mesh import initial_layer

from _oracles import (
    alpha_continuous,
    assemble_interior_row,
    beta,
    constraint_root,
    discrete_alpha,
    interior_residual,
    layer_rows,
    layer_rows_where,
    one_layer,
    residual_constraint,
    residual_interior,
)

MODES = (SchemeMode.CENTRAL, SchemeMode.UPWIND_SINGULAR)


def random_layer(rng, g, z=None, tau=0.0):
    y = rng.uniform(-1.0, 0.0, g.N + 1)
    y[0] = -1.0
    y[-1] = 0.0
    return LayerState(j=0, tau=tau, y=y, z=z if z is not None else rng.uniform(0.9, 2.2))


class TestDiscreteAlpha:
    def test_matches_continuous_at_frozen_boundary(self, params):
        val = discrete_alpha(4.0 / 3.0, 4.0 / 3.0, 0.1, params, 0.0, 10.0)
        assert val == pytest.approx(-1.0 / 120.0, rel=1e-13)
        assert val == pytest.approx(
            alpha_continuous(params, 0.0, 10.0, 4.0 / 3.0, 0.0), rel=1e-14
        )

    def test_boundary_velocity_term(self, params):
        # doubling z over k=0.1 gives (z - z/2)/(0.1 z) = 5; remaining terms
        # vanish at xi = ln z_next for the reference drift r - q - sigma^2/2 = 0
        val = discrete_alpha(2.0, 1.0, 0.1, params, math.log(2.0), 10.0)
        assert val == pytest.approx(5.0, rel=1e-14)

    def test_first_layer_value_matches_symbolic_substitution(self, params):
        import sympy as sp

        g = make_grid(params, N=200)
        frame = native.LayerFrame(g, params, SchemeMode.UPWIND_SINGULAR)
        state, _ = one_layer(frame, NewtonConfig(), initial_layer(params, g), float(g.taus[1]))
        z1 = state.z
        expected = sp.N(
            (sp.Float(z1, 25) - sp.Rational(4, 3)) / (sp.Rational(1, 10) * sp.Float(z1, 25))
            + sp.Rational(6, 100) - sp.Rational(4, 100) - sp.Rational(2, 10) ** 2 / 2
            - (sp.Float(z1, 25) * sp.exp(-sp.Float(g.h, 25)) - 1)
            / (50 - sp.Rational(1, 10)),
            25,
        )
        val = discrete_alpha(z1, 4.0 / 3.0, 0.1, params, g.h, float(g.taus[1]))
        assert val == pytest.approx(float(expected), rel=1e-13)

    def test_rejects_nonpositive_z(self, params):
        # alpha_i enters the rows through mu and s_i, so the assembly guards it
        g = make_grid(params, N=8)
        prev = LayerState(j=0, tau=9.9, y=_flat_y(g.N), z=1.0)
        with pytest.raises(NonPositiveZ):
            layer_rows(prev, 0.0, 10.0, g, params, SchemeMode.CENTRAL)
        with pytest.raises(ValueError):
            layer_rows(prev, 1.5, params.T, g, params, SchemeMode.CENTRAL)


class TestRowAssembly:
    def test_vanishing_advection_reference_row(self, params):
        # sigma=0.2, h=0.1, k=0.1, T-tau=40, frozen z, node where z e^{-xi}=1:
        # a = b = -sigma^2/(2h^2) = -2, c = 1/k + sigma^2/h^2 + r + 1/(T-tau)
        g = GridSpec(N=20, M=500, L=2.0, T=50.0)
        z = math.exp(g.xi[3])
        prev = LayerState(j=0, tau=9.9, y=_flat_y(g.N), z=z)
        for mode in MODES:
            row = assemble_interior_row(3, prev, z, 10.0, g, params, mode)
            assert row.a_i == pytest.approx(-2.0, rel=1e-12)
            assert row.b_i == pytest.approx(-2.0, rel=1e-12)
            assert row.c_i == pytest.approx(14.085, rel=1e-12)
            assert row.d_i == pytest.approx(0.0, abs=1e-14)

    def test_row_sum_identity_central(self, params, rng):
        # d-terms cancel pairwise: a + c + b = 1/dt + r + 1/(T - tau)
        g = make_grid(params, N=24)
        prev = random_layer(rng, g, tau=12.0)
        tau_next = 12.0 + g.k
        rows = layer_rows(prev, 1.7, tau_next, g, params, SchemeMode.CENTRAL)
        target = 1.0 / g.k + params.r + 1.0 / (params.T - tau_next)
        assert rows.lower + rows.diag + rows.upper == pytest.approx(
            np.full(g.N - 1, target), rel=1e-12
        )

    def test_offdiagonal_sum_central(self, params, rng):
        g = make_grid(params, N=24)
        prev = random_layer(rng, g, tau=5.0)
        rows = layer_rows(prev, 1.4, 5.0 + g.k, g, params, SchemeMode.CENTRAL)
        assert rows.lower + rows.upper == pytest.approx(
            np.full(g.N - 1, -params.sigma**2 / g.h**2), rel=1e-12
        )

    def test_diagonal_lower_bound(self, params, rng):
        g = make_grid(params, N=24)
        for mode in MODES:
            prev = random_layer(rng, g, tau=30.0)
            rows = layer_rows(prev, prev.z * 1.05, 30.0 + g.k, g, params, mode)
            floor = 1.0 / g.k + params.sigma**2 / g.h**2 + params.r
            assert np.all(rows.diag >= floor - 1e-12)

    def test_index_validation(self, params):
        g = make_grid(params, N=8)
        prev = LayerState(j=0, tau=0.0, y=_flat_y(g.N), z=1.3)
        with pytest.raises(ValueError):
            assemble_interior_row(0, prev, 1.3, g.k, g, params, SchemeMode.CENTRAL)
        with pytest.raises(ValueError):
            assemble_interior_row(g.N, prev, 1.3, g.k, g, params, SchemeMode.CENTRAL)


class TestMaskBlendOracle:
    @pytest.mark.parametrize("mode", list(SchemeMode))
    def test_rows_bitwise_equal_along_a_march(self, params, mode):
        # every layer of a march, the last ones included, at the first Newton
        # iterate (z = z_prev) and at the accepted boundary value
        g = make_grid(params, N=50)
        result = march_newton(params, g, mode)
        upwinded_signs = set()
        for j in range(g.M):
            prev = LayerState(j=j, tau=float(g.taus[j]), y=result.surface[j],
                              z=float(result.rho[j]))
            tau_next = float(g.taus[j + 1])
            for z in (prev.z, float(result.rho[j + 1])):
                rows = layer_rows(prev, z, tau_next, g, params, mode)
                oracle = layer_rows_where(prev, z, tau_next, g, params, mode)
                for name in ("lower", "diag", "upper", "da", "dc", "db", "rhs", "onesided"):
                    got, want = getattr(rows, name), getattr(oracle, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                s = z * np.exp(-g.xi[1:-1]) - 1.0
                upwinded_signs.update(bool(v) for v in s[rows.onesided] >= 0.0)
        if mode is SchemeMode.UPWIND_SINGULAR:
            assert upwinded_signs == {True, False}
        else:
            assert not upwinded_signs


class TestRowsMatchResidual:
    """Coefficient form and difference-quotient form agree on random states."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("tau_next", [0.5, 25.0, 49.9, 50.0 - 1e-7])
    def test_dual_route(self, params, rng, mode, tau_next):
        g = make_grid(params, N=16)
        dt = min(g.k, tau_next / 2)
        prev = random_layer(rng, g, tau=tau_next - dt)
        z_next = rng.uniform(0.9, 2.2)
        y_next = rng.uniform(-1.0, 0.0, g.N + 1)
        y_next[0] = -1.0
        y_next[-1] = 0.0
        rows = layer_rows(prev, z_next, tau_next, g, params, mode)
        via_rows = interior_residual(rows, y_next)
        direct = residual_interior(y_next, prev, z_next, tau_next, g, params, mode)
        scale = np.max(np.abs(direct)) + 1.0
        assert np.max(np.abs(via_rows - direct)) <= 1e-12 * scale


class TestResidualInterior:
    def test_flat_zero_region_is_stationary(self, params):
        g = make_grid(params, N=20, L=2.0)
        prev = initial_layer(params, g)
        res = residual_interior(prev.y, prev, prev.z, g.k, g, params, SchemeMode.CENTRAL)
        # nodes whose full stencil sits in the zero region
        edge = np.searchsorted(g.xi, math.log(prev.z), side="right")
        assert np.max(np.abs(res[edge:])) == 0.0

    def test_flat_exercised_region_only_reaction(self, params):
        g = make_grid(params, N=20, L=2.0)
        prev = initial_layer(params, g)
        tau_next = g.k
        res = residual_interior(prev.y, prev, prev.z, tau_next, g, params,
                                SchemeMode.CENTRAL)
        edge = np.searchsorted(g.xi, math.log(prev.z), side="right")
        expected = -beta(params, tau_next)
        assert res[: edge - 2] == pytest.approx(
            np.full(edge - 2, expected), rel=1e-12
        )

    def test_requires_boundary_values(self, params, rng):
        g = make_grid(params, N=8)
        prev = random_layer(rng, g)
        y_bad = np.zeros(g.N + 1)
        with pytest.raises(ValueError):
            residual_interior(y_bad, prev, 1.2, g.k, g, params, SchemeMode.CENTRAL)


class TestResidualConstraint:
    def test_zero_slope_root(self, params):
        g = make_grid(params, N=8)
        y = np.zeros(g.N + 1)
        y[0] = -1.0
        y[1] = -0.75  # -3(-1) + 4(-0.75) - 0 = 0
        tau = 10.0
        ttm = params.T - tau
        z_root = (1 + params.r * ttm) / (1 + params.q * ttm)
        assert residual_constraint(y, z_root, tau, g, params) == pytest.approx(0.0, abs=1e-14)

    def test_root_tends_to_one_at_maturity(self, params, rng):
        g = make_grid(params, N=8)
        y = rng.uniform(-1, 0, g.N + 1)
        y[0] = -1.0
        y[-1] = 0.0
        assert constraint_root(y, params.T - 1e-9, g, params) == pytest.approx(1.0, abs=1e-5)

    def test_affine_with_unit_leading_coefficient(self, params, rng):
        g = make_grid(params, N=8)
        y = rng.uniform(-1, 0, g.N + 1)
        y[0] = -1.0
        y[-1] = 0.0
        f_a = residual_constraint(y, 1.3, 17.0, g, params)
        f_b = residual_constraint(y, 2.9, 17.0, g, params)
        assert f_b - f_a == pytest.approx(2.9 - 1.3, rel=1e-14)


class TestUpwindStructure:
    def test_matches_central_when_advection_mild(self, params, rng):
        g = make_grid(params, N=32)
        prev = random_layer(rng, g, tau=10.0)
        z = 1.5
        central = layer_rows(prev, z, 10.0 + g.k, g, params, SchemeMode.CENTRAL)
        upwind = layer_rows(prev, z, 10.0 + g.k, g, params, SchemeMode.UPWIND_SINGULAR)
        assert not upwind.onesided.any()
        assert np.array_equal(central.lower, upwind.lower)
        assert np.array_equal(central.diag, upwind.diag)
        assert np.array_equal(central.upper, upwind.upper)

    def test_m_matrix_rows_near_maturity(self, params, rng):
        # 1/(T-tau) ~ 1e7 makes the singular term dominate: every row must be
        # switched and keep non-positive off-diagonals with strict dominance
        g = make_grid(params, N=32)
        tau_next = params.T - g.eps_final
        prev = random_layer(rng, g, z=1.05, tau=tau_next - (g.k - g.eps_final))
        rows = layer_rows(prev, 1.02, tau_next, g, params, SchemeMode.UPWIND_SINGULAR)
        assert rows.onesided.sum() > g.N / 2
        assert np.all(rows.lower <= 1e-12)
        assert np.all(rows.upper <= 1e-12)
        assert np.all(rows.diag > np.abs(rows.lower) + np.abs(rows.upper))

    def test_dominance_whenever_bounded_part_resolved(self, params, rng):
        # strict dominance holds at every row when |mu| <= sigma^2 / h
        g = make_grid(params, N=24)
        for tau_next in (1.0, 25.0, 49.99, params.T - g.eps_final):
            prev = random_layer(rng, g, tau=tau_next - min(g.k, tau_next) / 2)
            for z in (0.95, 1.3, 2.1):
                dt = tau_next - prev.tau
                mu = (z - prev.z) / (dt * z) + params.r - params.q - 0.5 * params.sigma**2
                if abs(mu) > params.sigma**2 / g.h:
                    continue
                rows = layer_rows(prev, z, tau_next, g, params, SchemeMode.UPWIND_SINGULAR)
                assert np.all(rows.diag > np.abs(rows.lower) + np.abs(rows.upper))


class ManufacturedSolution:
    """Pi(xi, tau) = psi(xi) + eta(tau) xi (L - xi)/L^2 with boundary-exact psi."""

    def __init__(self, L, eta_scale=0.3, eta_rate=0.0, rho0=1.5, growth=0.0):
        self.L = L
        self.eta_scale = eta_scale
        self.eta_rate = eta_rate
        self.rho0 = rho0
        self.growth = growth

    def eta(self, tau):
        if self.eta_rate == 0.0:
            return self.eta_scale
        return self.eta_scale * math.sin(self.eta_rate * tau)

    def eta_dot(self, tau):
        if self.eta_rate == 0.0:
            return 0.0
        return self.eta_scale * self.eta_rate * math.cos(self.eta_rate * tau)

    def rho(self, tau):
        return self.rho0 * math.exp(self.growth * tau)

    def rho_dot(self, tau):
        return self.growth * self.rho(tau)

    def values(self, xi, tau):
        psi = -np.exp(-xi) + math.exp(-self.L) * xi / self.L
        bump = xi * (self.L - xi) / self.L**2
        return psi + self.eta(tau) * bump

    def space_derivatives(self, xi, tau):
        d1 = np.exp(-xi) + math.exp(-self.L) / self.L \
            + self.eta(tau) * (self.L - 2 * xi) / self.L**2
        d2 = -np.exp(-xi) + self.eta(tau) * (-2.0 / self.L**2)
        return d1, d2

    def continuous_residual(self, p, xi, tau):
        d1, d2 = self.space_derivatives(xi, tau)
        alpha = alpha_continuous(p, xi, tau, self.rho(tau), self.rho_dot(tau))
        bump = xi * (self.L - xi) / self.L**2
        return (self.eta_dot(tau) * bump + alpha * d1
                - 0.5 * p.sigma**2 * d2 + beta(p, tau) * self.values(xi, tau))

    def discrete_residual(self, p, g, tau_next, dt):
        y_prev = self.values(g.xi, tau_next - dt)
        y_next = self.values(g.xi, tau_next)
        prev = LayerState(j=0, tau=tau_next - dt, y=y_prev, z=self.rho(tau_next - dt))
        return residual_interior(y_next, prev, self.rho(tau_next), tau_next,
                                 g, p, SchemeMode.CENTRAL)


class TestConsistency:
    def test_spatial_second_order(self, params):
        exact = ManufacturedSolution(L=1.0)
        errs = []
        for n in (32, 64, 128):
            g = GridSpec(N=n, M=1000, L=1.0, T=params.T)
            disc = exact.discrete_residual(params, g, tau_next=10.0, dt=g.k)
            cont = exact.continuous_residual(params, g.xi[1:-1], 10.0)
            errs.append(np.max(np.abs(disc - cont)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.7)
        assert np.all(rates < 2.3)

    def test_temporal_first_order(self, params):
        exact = ManufacturedSolution(L=1.0, eta_rate=0.2, growth=0.05)
        errs = []
        for m in (250, 500, 1000):
            g = GridSpec(N=2048, M=m, L=1.0, T=params.T)
            disc = exact.discrete_residual(params, g, tau_next=10.0, dt=g.k)
            cont = exact.continuous_residual(params, g.xi[1:-1], 10.0)
            errs.append(np.max(np.abs(disc - cont)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.75)
        assert np.all(rates < 1.35)


def _flat_y(n):
    y = np.zeros(n + 1)
    y[0] = -1.0
    return y
