import math

import numpy as np
import pytest

from asianfb.model import MarketParams, rho_initial

from _oracles import (
    TransformedPoint,
    advection_cancellation_defect,
    alpha_continuous,
    beta,
    boundary_in_original_variables,
    rho_constraint,
)


class TestMarketParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.0, q=0.04, sigma=0.2, T=50.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.06, q=-0.01, sigma=0.2, T=50.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.06, q=0.04, sigma=0.0, T=50.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.06, q=0.04, sigma=0.2, T=0.0)
        reference = {"r": 0.06, "q": 0.04, "sigma": 0.2, "T": 50.0}
        for name in reference:
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    MarketParams(**{**reference, name: value})

    def test_zero_dividend_warns(self):
        with pytest.warns(UserWarning):
            MarketParams(r=0.06, q=0.0, sigma=0.2, T=50.0)

    def test_transformed_point_domain(self):
        TransformedPoint(xi=0.0, tau=0.0)
        with pytest.raises(ValueError):
            TransformedPoint(xi=-0.1, tau=1.0)


class TestRhoInitial:
    def test_reference_value(self, params):
        assert rho_initial(params) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_equal_rates_clamp(self):
        p = MarketParams(r=0.05, q=0.05, sigma=0.3, T=7.0)
        assert rho_initial(p) == 1.0

    def test_dividend_dominated_clamp(self):
        p = MarketParams(r=0.02, q=0.06, sigma=0.3, T=10.0)
        assert rho_initial(p) == 1.0  # (1.2/1.6) = 0.75 clamps to 1

    def test_never_below_one(self, rng):
        for _ in range(50):
            p = MarketParams(r=rng.uniform(0.005, 0.2), q=rng.uniform(0.0005, 0.2),
                             sigma=rng.uniform(0.05, 0.8), T=rng.uniform(0.25, 60))
            assert rho_initial(p) >= 1.0


class TestBeta:
    def test_direct_values(self, params):
        assert beta(params, 10.0) == pytest.approx(0.085, rel=1e-15)
        assert beta(params, 0.0) == pytest.approx(0.08, rel=1e-15)

    def test_near_maturity_no_overflow(self, params):
        val = beta(params, 49.9999999)
        assert val == pytest.approx(1e7 + 0.06, rel=1e-6)
        assert np.isfinite(val)

    def test_strictly_increasing(self, params):
        taus = np.linspace(0.0, params.T - 1e-6, 400)
        vals = beta(params, taus)
        assert np.all(np.diff(vals) > 0)

    def test_rejects_maturity(self, params):
        with pytest.raises(ValueError):
            beta(params, params.T)
        with pytest.raises(ValueError):
            beta(params, -0.1)


class TestAlphaContinuous:
    def test_reference_value(self, params):
        # r - q - sigma^2/2 = 0 for the reference set; only the singular
        # term survives: -((4/3) - 1)/40 = -1/120
        val = alpha_continuous(params, xi=0.0, tau=10.0, rho=4.0 / 3.0, rho_dot=0.0)
        assert val == pytest.approx(-1.0 / 120.0, rel=1e-13)

    def test_singular_term_cancels_at_log_rho(self, params):
        for rho in (1.1, 4.0 / 3.0, 2.5):
            for tau in (0.0, 10.0, 49.0):
                val = alpha_continuous(params, math.log(rho), tau, rho, 0.0)
                assert val == pytest.approx(0.0, abs=1e-14)

    def test_cancellation_identity_any_params(self, rng):
        # alpha(xi=ln rho, rho_dot=0) + (sigma^2/2 + q - r) == 0 pointwise
        for _ in range(25):
            p = MarketParams(r=rng.uniform(0.01, 0.2), q=rng.uniform(0.01, 0.2),
                             sigma=rng.uniform(0.05, 0.6), T=rng.uniform(1, 60))
            rho = rng.uniform(0.5, 3.0)
            tau = rng.uniform(0, p.T * 0.99)
            assert advection_cancellation_defect(p, tau, rho) == pytest.approx(0.0, abs=1e-13)

    def test_general_point_matches_symbolic_evaluation(self, params):
        import sympy as sp

        r, q, sig, T = sp.Rational(6, 100), sp.Rational(4, 100), sp.Rational(2, 10), 50
        rho, rho_dot, xi, tau = sp.Rational(4, 3), sp.Rational(1, 100), 1, 10
        expected = sp.N(
            rho_dot / rho + r - q - sig**2 / 2 - (rho * sp.exp(-xi) - 1) / (T - tau), 20
        )
        val = alpha_continuous(params, xi=1.0, tau=10.0, rho=4.0 / 3.0, rho_dot=0.01)
        assert val == pytest.approx(float(expected), rel=1e-13)

    def test_rejects_bad_inputs(self, params):
        with pytest.raises(ValueError):
            alpha_continuous(params, 0.0, 10.0, rho=0.0, rho_dot=0.0)
        with pytest.raises(ValueError):
            alpha_continuous(params, 0.0, params.T, rho=1.5, rho_dot=0.0)


class TestRhoConstraint:
    def test_zero_slope_at_origin_matches_unclamped_initial(self, params):
        assert rho_constraint(params, 0.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_collapses_to_one_at_maturity(self, params):
        val = rho_constraint(params, params.T - 1e-9, slope=5.0)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_direct_substitution(self, params):
        # (1 + 0.06*40 + 0.02*40*1) / (1 + 0.04*40) = 4.2/2.6
        val = rho_constraint(params, 10.0, slope=1.0)
        assert val == pytest.approx(4.2 / 2.6, rel=1e-15)


class TestBoundaryInOriginalVariables:
    def test_definition(self, params):
        out = boundary_in_original_variables([(0.0, 4.0 / 3.0)], T=50.0)
        assert out[0] == pytest.approx([50.0, 0.75])

    def test_near_expiry(self):
        eps = 1e-7
        out = boundary_in_original_variables([(50.0 - eps, 1.0)], T=50.0)
        assert out[0] == pytest.approx([eps, 1.0])

    def test_reference_boundary_point(self):
        out = boundary_in_original_variables([(10.0, 1.958037)], T=50.0)
        t, xf = out[0]
        assert t == 40.0
        assert xf == pytest.approx(1.0 / 1.958037, rel=1e-12)
        assert xf == pytest.approx(0.5107, abs=5e-5)

    def test_sorted_ascending_in_t(self):
        path = [(tau, 1.0 + 0.01 * tau) for tau in np.linspace(0, 49, 25)]
        out = boundary_in_original_variables(path, T=50.0)
        assert np.all(np.diff(out[:, 0]) > 0)

    def test_round_trip(self):
        taus = np.linspace(0.0, 45.0, 12)
        rhos = 1.0 + 0.02 * taus
        out = boundary_in_original_variables(np.column_stack([taus, rhos]), T=50.0)
        back = boundary_in_original_variables(
            np.column_stack([50.0 - out[:, 0], 1.0 / out[:, 1]]), T=50.0
        )
        assert np.allclose(back[:, 0], 50.0 - taus[::-1], rtol=0, atol=1e-12)
        assert np.allclose(back[:, 1], 1.0 / rhos[::-1], rtol=1e-14, atol=0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            boundary_in_original_variables([(1.0, 0.0)], T=50.0)
