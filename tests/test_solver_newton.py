import sys
from pathlib import Path

import numpy as np
import pytest

from asianfb._kernels import native
from asianfb.errors import LayerFailure, NoConvergence, NonPositiveZ
from asianfb.mesh import LayerState, initial_layer, make_grid
from asianfb.model import MarketParams
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig, march_newton

from _oracles import (build_jacobian, dense_jacobian, finite_difference_jacobian, layer_rows,
                      newton_layer_numpy, newton_steps_and_dense_solves, one_layer,
                      solve_layer_fixed_point, stationary_state)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import market_params  # noqa: E402

MODES = (SchemeMode.CENTRAL, SchemeMode.UPWIND_SINGULAR)
# Bounds on Newton's row-wise backward error across perfbench's workload seeds
# 0-23, 68 and 89 at N = 200, where it reads at most 2.0e-15 on the final
# layer and 2.1e-14 on any layer (a few units of the double rounding 1.1e-16):
# the final layer's absolute residual_f1 of 1.7e-8 and 3.9e-8 on seeds 68 and
# 89 is rounding in row coefficients of size 1e7, not an unconverged layer.
FINAL_BACKWARD_ERROR_BOUND = 1e-14
BACKWARD_ERROR_BOUND = 1e-13
# Iterations of the default march (reference point, N = 200, M = 500): 1568
# when every layer started from the previous one, 1124 when layers 3 .. M - 1
# started from the linear extrapolation of the two layers before them
DEFAULT_ITERATIONS = 1045
# (r, q, sigma, T, N) of property-range sets where a start extrapolated into
# layer 2 from the datum ends in NonPositiveZ (z = -0.138, -1.77 and -7.78).
# Layers 1 and 2 therefore start from the previous layer, and layer 3 from
# the linear extrapolation of layers 1 and 2: a three-layer start there
# would read the datum too, and on 300 random property-range sets and the
# reference point it took 1288 iterations on layer 3, against 1243 from the
# linear start and 1295 from the previous layer.
LAYER_TWO_TRAPS = [(0.04043, 0.03437, 0.2607, 18.066, 21),
                   (0.05962, 0.05053, 0.4424, 13.648, 21),
                   (0.0662, 0.06102, 0.2023, 33.314, 24)]


def random_state(rng, g, tau_next):
    dt = min(g.k, tau_next / 2)
    y = rng.uniform(-1.0, 0.0, g.N + 1)
    y[0] = -1.0
    y[-1] = 0.0
    prev = LayerState(j=0, tau=tau_next - dt, y=y, z=rng.uniform(0.9, 2.2))
    y1 = rng.uniform(-1.0, 0.0, g.N - 1)
    z = rng.uniform(0.9, 2.2)
    return prev, y1, z


class TestBuildJacobian:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_finite_differences(self, params, rng, mode):
        g = make_grid(params, N=8)
        for tau_next in (5.0, 30.0, 49.5):
            for _ in range(4):
                prev, y1, z = random_state(rng, g, tau_next)
                blocks = build_jacobian(y1, z, prev, tau_next, g, params, mode)
                fd = finite_difference_jacobian(y1, z, prev, tau_next, g, params, mode)
                dense = dense_jacobian(blocks)
                scale = np.abs(fd).max(axis=1, keepdims=True) + 1.0
                assert np.max(np.abs(dense - fd) / scale) <= 1e-5

    def test_diagonal_is_z_free_in_central_mode(self, params, rng):
        g = make_grid(params, N=12)
        prev, _, z = random_state(rng, g, 20.0)
        dc = layer_rows(prev, z, 20.0, g, params, SchemeMode.CENTRAL).dc
        assert np.array_equal(dc, np.zeros(g.N - 1))

    def test_constraint_row_reference_values(self, params, rng):
        # q=0.04, T-tau=40, sigma=0.2, h=0.1: D=0.065,
        # J21 = (-sigma^2/(Dh), sigma^2/(4Dh)) = (-6.153846..., 1.538461...)
        from asianfb.mesh import GridSpec

        g = GridSpec(N=20, M=500, L=2.0, T=50.0)
        prev, y1, z = random_state(rng, g, 10.0)
        blocks = build_jacobian(y1, z, prev, 10.0, g, params, SchemeMode.CENTRAL)
        assert blocks.j21_y1 == pytest.approx(-0.04 / 0.0065, rel=1e-12)
        assert blocks.j21_y2 == pytest.approx(0.04 / 0.026, rel=1e-12)
        assert blocks.j22 == 1.0

    def test_rejects_nonpositive_z(self, params, rng):
        g = make_grid(params, N=8)
        prev, y1, _ = random_state(rng, g, 10.0)
        with pytest.raises(NonPositiveZ):
            build_jacobian(y1, -0.5, prev, 10.0, g, params, SchemeMode.CENTRAL)


def kernel_layer(prev, tau_next, g, p, mode, cfg=NewtonConfig()):
    """Newton's layer from ``prev`` to tau_next in the kernel: a march of
    that one layer, which starts from the previous layer."""
    return one_layer(native.LayerFrame(g, p, mode), cfg, prev, tau_next)


class TestNewtonLayer:
    def test_fixed_point_converges_in_one_iteration(self, params):
        g = make_grid(params, N=16)
        tau_next = 20.0
        prev = stationary_state(1.5, g.k, tau_next, g, params, SchemeMode.CENTRAL)
        state, diag = kernel_layer(prev, tau_next, g, params, SchemeMode.CENTRAL)
        assert diag.iterations == 1
        assert state.z == pytest.approx(prev.z, abs=1e-9)
        assert np.max(np.abs(state.y - prev.y)) <= 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_toy_march_matches_fixed_point_oracle(self, params, mode):
        g = make_grid(params, N=8, M=4)
        state = initial_layer(params, g)
        for j in range(g.M):
            tau_next = float(g.taus[j + 1])
            y_ref, z_ref = solve_layer_fixed_point(state, tau_next, g, params, mode)
            state, diag = kernel_layer(state, tau_next, g, params, mode)
            assert diag.residual_f1 <= 1e-7
            assert diag.residual_f2 <= 1e-7
            assert state.z == pytest.approx(z_ref, abs=1e-6)
            assert np.max(np.abs(state.y - y_ref)) <= 1e-6

    def test_schur_equals_dense_solve_every_iteration(self, params):
        g = make_grid(params, N=8, M=4)
        state = initial_layer(params, g)
        for j in range(g.M):
            state, pairs = newton_steps_and_dense_solves(state, float(g.taus[j + 1]), g,
                                                         params, SchemeMode.UPWIND_SINGULAR)
            assert pairs
            for combined, dense in pairs:
                scale = np.max(np.abs(dense)) + 1e-30
                assert np.max(np.abs(combined - dense)) <= 1e-10 * max(scale, 1.0)

    def test_non_finite_previous_layer_raises(self, params):
        # the finiteness check runs on every system the engine solves
        g = make_grid(params, N=16)
        prev = initial_layer(params, g)
        prev.y[g.N // 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kernel_layer(prev, float(g.taus[1]), g, params, SchemeMode.UPWIND_SINGULAR)

    def test_no_convergence_raises(self, params):
        g = make_grid(params, N=16)
        prev = initial_layer(params, g)
        with pytest.raises(NoConvergence):
            kernel_layer(prev, float(g.taus[1]), g, params,
                         SchemeMode.UPWIND_SINGULAR, NewtonConfig(tol=1e-14, max_iter=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)
        # an infinite tol would end every layer after one iteration
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be finite"):
                NewtonConfig(tol=bad)


class TestMarchNewton:
    def test_initialization_and_boundaries(self, newton_default, params):
        assert newton_default.rho[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert np.all(newton_default.surface[:, 0] == -1.0)
        assert np.all(newton_default.surface[:, -1] == 0.0)

    def test_reference_boundary_at_n100(self, params):
        g = make_grid(params, N=100)
        res = march_newton(params, g)
        assert abs(res.rho_at(20.0) - 1.995525) <= 5e-3

    def test_refinement_convergence_ratio_tau40(self, params):
        values = {}
        for n in (50, 100, 200):
            res = march_newton(params, make_grid(params, N=n))
            values[n] = res.rho_at(40.0)
        d1 = abs(values[100] - values[50])
        d2 = abs(values[200] - values[100])
        assert d2 < d1
        cr = np.log2(d1 / d2)
        assert 0.9 <= cr <= 2.0

    def test_extrapolated_start_iteration_total(self, newton_default):
        assert sum(d.iterations for d in newton_default.diagnostics) == DEFAULT_ITERATIONS

    @pytest.mark.parametrize("r, q, sigma, T, n", LAYER_TWO_TRAPS)
    def test_layer_two_starts_from_the_previous_layer(self, r, q, sigma, T, n):
        """The march succeeds where an extrapolation into layer 2 from the
        discontinuous datum would start Newton past z = 0 (on the numpy
        twin of Newton's layer: no march starts layer 2 so)."""
        p = MarketParams(r=r, q=q, sigma=sigma, T=T)
        g = make_grid(p, N=n)
        res = march_newton(p, g)
        assert (res.rho > 0.0).all()
        w = (g.taus[2] - g.taus[1]) / (g.taus[1] - g.taus[0])
        start = (res.surface[1] + w * (res.surface[1] - res.surface[0]),
                 float(res.rho[1] + w * (res.rho[1] - res.rho[0])))
        prev = LayerState(j=1, tau=float(g.taus[1]), y=res.surface[1].copy(), z=float(res.rho[1]))
        with pytest.raises(NonPositiveZ):
            newton_layer_numpy(prev, float(g.taus[2]), g, p, SchemeMode.UPWIND_SINGULAR,
                               start=start)

    def test_iteration_budget(self, newton_default):
        iters = newton_default.diagnostics.iterations
        assert iters.max() <= NewtonConfig().max_iter
        assert iters[:-2].max() <= 5  # away from the singular final layers

    def test_residual_contract(self, newton_default):
        assert all(d.residual_f1 <= 1e-8 for d in newton_default.diagnostics)
        assert all(d.residual_f2 <= 1e-8 for d in newton_default.diagnostics)

    def test_residual_never_increases_within_layer(self, newton_default):
        for d in newton_default.diagnostics:
            final = max(d.residual_f1, d.residual_f2)
            assert final <= d.initial_residual + 1e-15

    def test_no_dominance_violations_upwind(self, newton_default):
        assert sum(d.dominance_violations for d in newton_default.diagnostics) == 0

    def test_onesided_rows_confined_to_final_layers(self, newton_default):
        layers_with_switch = (np.flatnonzero(newton_default.diagnostics.onesided_rows) + 1).tolist()
        assert layers_with_switch  # the guard does engage near maturity
        assert min(layers_with_switch) >= newton_default.grid.M - 1

    def test_backward_error_across_the_benchmark_box(self):
        """Every layer, and the final one above all, is solved to rounding
        relative to the row terms it sums, on each perfbench seed."""
        for seed in [*range(24), 68, 89]:
            p = MarketParams(**market_params(seed))
            errors = [d.backward_error for d in march_newton(p, make_grid(p, N=200)).diagnostics]
            assert errors[-1] <= FINAL_BACKWARD_ERROR_BOUND, (seed, errors[-1])
            assert max(errors) <= BACKWARD_ERROR_BOUND, (seed, max(errors))

    def test_failure_carries_layer_index(self, params):
        g = make_grid(params, N=16)
        with pytest.raises(LayerFailure) as exc:
            march_newton(params, g, cfg=NewtonConfig(tol=1e-14, max_iter=1))
        assert exc.value.layer == 1

    def test_deterministic(self, params):
        g = make_grid(params, N=32)
        a = march_newton(params, g)
        b = march_newton(params, g)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.surface, b.surface)
