import math
import sys
from pathlib import Path

import numpy as np
import pytest

from asianfb._kernels import native
from asianfb.errors import LayerFailure, NoConvergence, NonPositiveZ
from asianfb.mesh import LayerState, initial_layer, make_grid
from asianfb.model import MarketParams
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import march_newton
from asianfb.solver_pc import PredictorConfig, march_pc

from _oracles import (build_jacobian, corrector, dense_jacobian, frozen_layer, one_layer,
                      predicted_root, predictor_equations, predictor_numpy, residual_constraint,
                      residual_interior, stationary_state)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402


def scalar_residual_reference(prev, tau_next, g, p):
    """Straight-from-the-equations rebuild of the predictor residual."""
    dt = tau_next - prev.tau
    ttm = p.T - tau_next
    h, sig2 = g.h, p.sigma**2
    beta_val = p.r + 1.0 / ttm
    y0, y1, y2 = prev.y[0], prev.y[1], prev.y[2]

    def res(z):
        g_val = p.q * z - p.r + (z - 1.0) / ttm
        alpha0 = (z - prev.z) / (dt * z) + p.r - p.q - sig2 / 2 - (z - 1.0) / ttm
        lhs = (2 * alpha0 * h**2 / sig2**2 + 2 * h / sig2) * g_val - beta_val * h**2 / sig2 - 1.0
        alpha1 = (z - prev.z) / (dt * z) + p.r - p.q - sig2 / 2 \
            - (z * math.exp(-h) - 1.0) / ttm
        rhs = y1 - dt * (alpha1 * (y2 - y0) / (2 * h)
                         - sig2 / 2 * (y2 - 2 * y1 + y0) / h**2 + beta_val * y1)
        return lhs - rhs

    return res


class TestPredictor:
    """The predictor's root is read through predicted_root: a march keeps
    it to itself, so the kernel's pc layer is checked bit for bit against
    the twins' layer from the twin's root, which is then the kernel's."""

    def test_first_step_matches_bisection_oracle(self, params, default_grid):
        prev = initial_layer(params, default_grid)
        tau1 = float(default_grid.taus[1])
        res = scalar_residual_reference(prev, tau1, default_grid, params)
        lo, hi = 1.0, 3.0
        f_lo = res(lo)
        assert f_lo * res(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f_lo * res(mid) <= 0:
                hi = mid
            else:
                lo, f_lo = mid, res(mid)
        oracle = 0.5 * (lo + hi)
        z = predicted_root(prev, tau1, default_grid, params)
        assert abs(z - oracle) <= 1e-9

    def test_solves_both_equations(self, params, default_grid):
        prev = initial_layer(params, default_grid)
        tau1 = float(default_grid.taus[1])
        z = predicted_root(prev, tau1, default_grid, params)
        res = scalar_residual_reference(prev, tau1, default_grid, params)
        assert abs(res(z)) <= 1e-9

    def test_artificial_node_consistency(self, params, default_grid):
        # with y_{-1} rebuilt from the predicted z and the y_1 that (I) gives
        # at it, the PDE relation at xi = 0 must hold to root-finding accuracy
        prev = initial_layer(params, default_grid)
        tau1 = float(default_grid.taus[1])
        z = predicted_root(prev, tau1, default_grid, params)
        y1 = predictor_equations(prev, tau1, default_grid, params)[2](z)
        h, sig2 = default_grid.h, params.sigma**2
        ttm = params.T - tau1
        g_val = params.q * z - params.r + (z - 1.0) / ttm
        y_m1 = y1 - g_val * 4.0 * h / sig2
        alpha0 = (z - prev.z) / ((tau1 - prev.tau) * z) \
            + params.r - params.q - sig2 / 2 - (z - 1.0) / ttm
        beta_val = params.r + 1.0 / ttm
        residual = (alpha0 * (y1 - y_m1) / (2 * h)
                    - sig2 / 2 * (y1 - 2 * (-1.0) + y_m1) / h**2
                    + beta_val * (-1.0))
        assert abs(residual) <= 1e-9

    def test_boundary_drawn_toward_one_near_maturity(self, params):
        g = make_grid(params, N=50)
        run = march_pc(params, g)
        z_tildes = []
        for j in (100, 110, 118, 121):
            prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                              z=float(run.rho[j]))
            z_tildes.append(predicted_root(prev, float(run.taus[j + 1]), g, params))
        assert all(z > 1.0 for z in z_tildes)
        assert all(b < a for a, b in zip(z_tildes, z_tildes[1:]))

    def test_no_root_close_to_expiry(self, params):
        # the explicit relation overshoots once the singular advection
        # dominates; the scalar system then has no solution, and the layer
        # falls back to z_tilde = z_prev
        g = make_grid(params, N=50)
        run = march_pc(params, g)
        j = g.M - 2
        prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                          z=float(run.rho[j]))
        frame = native.LayerFrame(g, params, SchemeMode.UPWIND_SINGULAR)
        _, diag = one_layer(frame, PredictorConfig(), prev, float(run.taus[j + 1]))
        assert diag.predictor_fallback and diag.iterations == 0
        assert predicted_root(prev, float(run.taus[j + 1]), g, params) is None
        assert predictor_numpy(prev, float(run.taus[j + 1]), g, params) == (prev.z, 0, True)

    def test_iteration_cap(self, params, default_grid):
        prev = initial_layer(params, default_grid)
        frame = native.LayerFrame(default_grid, params, SchemeMode.UPWIND_SINGULAR)
        with pytest.raises(NoConvergence):
            one_layer(frame, PredictorConfig(max_iter=1), prev, float(default_grid.taus[1]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(root_tol=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="root_tol must be finite"):
                PredictorConfig(root_tol=bad)


class TestCorrector:
    """The corrector from a z_tilde of the test's choosing, which no march
    takes, runs on its twin (_oracles.corrector)."""

    def test_fixed_point_state_is_reproduced(self, params):
        g = make_grid(params, N=16)
        tau_next = 20.0
        prev = stationary_state(1.5, g.k, tau_next, g, params, SchemeMode.CENTRAL)
        out = corrector(prev, prev.z, tau_next, g, params, SchemeMode.CENTRAL)
        assert np.max(np.abs(out.y - prev.y)) <= 1e-9
        assert out.z == pytest.approx(prev.z, abs=1e-9)
        resid = residual_interior(out.y, prev, prev.z, tau_next, g, params,
                                  SchemeMode.CENTRAL)
        assert np.max(np.abs(resid)) <= 1e-9

    def test_boundary_update_is_exact_constraint_root(self, params, rng):
        # z is the exact root of the constraint linearised about the frozen
        # solve (y(z_tilde), z_tilde): one Newton step on the whole layer
        # system from there, which a dense solve of the bordered Jacobian gives
        g = make_grid(params, N=24)
        y = rng.uniform(-1, 0, g.N + 1)
        y[0] = -1.0
        y[-1] = 0.0
        prev = LayerState(j=0, tau=10.0, y=y, z=1.6)
        z_tilde, tau_next = 1.55, 10.0 + g.k
        mode = SchemeMode.UPWIND_SINGULAR
        out = corrector(prev, z_tilde, tau_next, g, params, mode)

        y_tilde = frozen_layer(prev, z_tilde, tau_next, g, params, mode)
        f = np.append(residual_interior(y_tilde, prev, z_tilde, tau_next, g, params, mode),
                      residual_constraint(y_tilde, z_tilde, tau_next, g, params))
        jac = build_jacobian(y_tilde[1:-1], z_tilde, prev, tau_next, g, params, mode)
        dz = np.linalg.solve(dense_jacobian(jac), -f)[-1]
        assert abs(dz) > 1e-3  # the step moves the boundary
        assert out.z == pytest.approx(z_tilde + dz, abs=1e-12)
        # the stored layer is the frozen-coefficient solve at the stored z
        assert np.max(np.abs(out.y - frozen_layer(prev, out.z, tau_next, g, params, mode))) \
            <= 1e-12

    def test_non_finite_previous_layer_raises(self, params):
        # the finiteness check runs on every system the engine solves: in
        # the kernel's pc layer, after its predictor
        g = make_grid(params, N=16)
        prev = initial_layer(params, g)
        prev.y[g.N // 2] = np.nan
        frame = native.LayerFrame(g, params, SchemeMode.UPWIND_SINGULAR)
        with pytest.raises(ValueError, match="non-finite"):
            one_layer(frame, PredictorConfig(), prev, float(g.taus[1]))

    def test_rejects_nonpositive_predictor_value(self, params, default_grid):
        prev = initial_layer(params, default_grid)
        with pytest.raises(NonPositiveZ):
            corrector(prev, 0.0, float(default_grid.taus[1]), default_grid,
                      params, SchemeMode.CENTRAL)


class TestMarchPC:
    def test_initialization_and_boundaries(self, pc_default):
        assert pc_default.rho[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert np.all(pc_default.surface[:, 0] == -1.0)
        assert np.all(pc_default.surface[:, -1] == 0.0)

    def test_fallback_confined_to_final_layers(self, pc_default):
        fallbacks = set(np.flatnonzero(pc_default.diagnostics.predictor_fallback) + 1)
        assert fallbacks  # the no-root regime is real on the default grid
        assert fallbacks <= {pc_default.grid.M - 1, pc_default.grid.M}

    def test_near_expiry_regime_across_the_benchmark_box(self):
        # perfbench's parameter sets (workload seeds 0-15) at N = 200: the
        # predictor loses its root only on the last layers (498-500 on seeds
        # 1, 5, 7, 8, 11, 13 and 14, 499-500 on the rest), and its root
        # takes at most 7 iterations elsewhere
        for seed in range(16):
            p = MarketParams(**workloads.market_params(seed))
            run = march_pc(p, make_grid(p, N=200))
            m = run.grid.M
            fallbacks = set(np.flatnonzero(run.diagnostics.predictor_fallback) + 1)
            assert fallbacks <= {m - 2, m - 1, m}, (seed, sorted(fallbacks))
            assert run.diagnostics.iterations.max() <= 8, seed

    def test_root_iterations_per_layer(self, pc_default):
        # safeguarded Newton keeps its converged root: a zero step is accepted,
        # not replaced by about 25 bisections from the bracket end it lands on
        assert pc_default.diagnostics.iterations.max() <= 8

    def test_maximum_principle_upwind(self, pc_default):
        assert pc_default.surface.min() >= -1.0 - 1e-12
        assert pc_default.surface.max() <= 1e-12

    def test_corrector_rows_solved_to_roundoff(self, params, pc_default):
        # the interior rows are solved at the stored boundary value: the
        # row-wise backward error is rounding, also on the final layer where
        # 1/(T - tau) = 1e7 makes the row coefficients large; checked on the
        # default grid at N = 200 and 50 and on four parameter sets next to
        # the reference point at N = 200 ...
        cases = [(params, 200), (params, 50)] + [
            (MarketParams(r=r, q=q, sigma=sigma, T=50.0), 200)
            for r, q, sigma in ((0.069121, 0.044217, 0.182262),
                                (0.054721, 0.031547, 0.195842),
                                (0.056477, 0.032263, 0.206037),
                                (0.069305, 0.030175, 0.20944))]
        for p, n in cases:
            run = pc_default if (p, n) == (params, 200) else march_pc(p, make_grid(p, N=n))
            assert run.diagnostics.residual_f1.max() <= 1e-13, (p, n)
        # ... and the constraint is left with the remainder of one Newton step
        # from z_tilde, quadratic in the step
        run, g = pc_default, pc_default.grid
        for j, d in enumerate(run.diagnostics):
            prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                              z=float(run.rho[j]))
            tau_next = float(run.taus[j + 1])
            root = predicted_root(prev, tau_next, g, params)
            assert (root is None) == d.predictor_fallback, j + 1
            z_tilde = prev.z if root is None else root
            step = run.rho[j + 1] - z_tilde
            assert d.residual_f2 <= 5.0 * step**2 / (tau_next - prev.tau), j + 1

    def test_underestimates_newton_reference_anchor(self, newton_default, pc_default):
        # the predictor-corrector tracks the boundary from below; its gap to the
        # Newton value at tau=10 on the same grid is small (1e-4 at N=200)
        anchor = newton_default.rho_at(10.0)
        val = pc_default.rho_at(10.0)
        assert val < anchor
        assert anchor - val < 1e-3

    def test_tracks_newton_from_below(self, newton_default, pc_default):
        diff = pc_default.rho - newton_default.rho
        assert diff[0] == 0.0
        assert float(np.mean(pc_default.rho[1:] < newton_default.rho[1:])) > 0.9
        assert np.max(np.abs(diff)) < 0.1  # largest next to the predictor fallback

    def test_gap_to_newton_shrinks_under_refinement(self, params, newton_default,
                                                    pc_default):
        # both engines discretise the same problem, so refining with
        # M = ceil(2.5 N) must bring them together
        probes = (10.0, 20.0, 40.0)
        gaps = {t: [] for t in probes}
        away_from_expiry = []
        for n in (50, 100, 200, 400):
            if n == pc_default.grid.N:
                newton, pc = newton_default, pc_default
            else:
                g = make_grid(params, N=n)
                newton, pc = march_newton(params, g), march_pc(params, g)
            for t in probes:
                gaps[t].append(abs(pc.rho_at(t) - newton.rho_at(t)))
            away_from_expiry.append(float(np.max(np.abs(pc.rho - newton.rho)[:-10])))
        for seq in [*gaps.values(), away_from_expiry]:
            assert all(b < a for a, b in zip(seq, seq[1:])), seq

    def test_boundary_returns_to_one(self, pc_default):
        assert pc_default.rho[-1] == pytest.approx(1.0, abs=1e-5)

    def test_failure_carries_layer_index(self, params):
        g = make_grid(params, N=32)
        with pytest.raises(LayerFailure) as exc:
            march_pc(params, g, cfg=PredictorConfig(max_iter=1))
        assert exc.value.layer == 1

    def test_deterministic(self, params):
        g = make_grid(params, N=32)
        a = march_pc(params, g)
        b = march_pc(params, g)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.surface, b.surface)
