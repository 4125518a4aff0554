import functools
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import simpson

from asianfb import analysis
from asianfb.analysis import (
    ComparisonRecord,
    _in_threads,
    compare_engines,
    reconstruct_value,
    refinement_study,
    run_engine,
)
from asianfb.errors import LayerFailure, SolverError
from asianfb.mesh import make_grid
from asianfb.results import SolveResult
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig, march_newton
from asianfb.solver_pc import PredictorConfig, march_pc


@pytest.fixture(scope="module")
def small_report(params):
    return refinement_study(params, base_N=50, levels=3)


class TestRefinementStudy:
    def test_structure(self, small_report):
        assert [row.N for row in small_report.rows] == [50, 100, 200]
        assert [row.M for row in small_report.rows] == [125, 250, 500]
        first, second, third = small_report.rows
        for t in small_report.probe_times:
            assert first.diff[t] is None and first.cr[t] is None
            assert second.diff[t] is not None and second.cr[t] is None
            assert third.diff[t] is not None and third.cr[t] is not None

    def test_probes_land_on_layers(self, params, small_report):
        for row in small_report.rows:
            k = params.T / row.M
            for t in small_report.probe_times:
                assert (t / k) == pytest.approx(round(t / k), abs=1e-9)

    def test_differences_decrease(self, small_report):
        for t in small_report.probe_times:
            diffs = [row.diff[t] for row in small_report.rows[1:]]
            assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_reference_values_at_tau20(self, small_report):
        reference = {50: 1.991675, 100: 1.995525, 200: 1.996945}
        for row in small_report.rows:
            assert abs(row.rho[20.0] - reference[row.N]) <= 5e-3

    def test_deterministic(self, params, small_report):
        again = refinement_study(params, base_N=50, levels=3)
        for row_a, row_b in zip(small_report.rows, again.rows):
            assert row_a.rho == row_b.rho
            assert row_a.diff == row_b.diff

    def test_parallel_equals_serial(self, params, cpus):
        """The levels run on one thread per CPU; on one CPU and on two
        they give the same rho."""
        reports = []
        for n in (1, 2):
            cpus(n)
            reports.append(refinement_study(params, base_N=50, levels=3))
        serial, parallel = reports
        for row_a, row_b in zip(serial.rows, parallel.rows):
            assert row_a.rho == row_b.rho

    @pytest.mark.parametrize("n_cpus", [1, 2, 8])
    def test_first_failing_level_by_n_is_raised(self, params, cpus, n_cpus):
        """Every level fails; the one raised is the smallest N's, on the
        thread of any level, and every worker thread has ended."""
        cpus(n_cpus)
        threads = threading.active_count()
        with pytest.raises(SolverError, match=r"^refinement level N=50 failed: layer 1 ") as exc:
            refinement_study(params, base_N=50, levels=3, newton_cfg=NewtonConfig(max_iter=1))
        assert isinstance(exc.value.__cause__, LayerFailure)
        assert threading.active_count() == threads

    def test_pc_engine_accepted(self, params):
        report = refinement_study(params, base_N=50, levels=2, engine="pc")
        assert [row.N for row in report.rows] == [50, 100]

    def test_validation(self, params):
        with pytest.raises(ValueError):
            refinement_study(params, base_N=50, levels=1)
        with pytest.raises(ValueError):
            refinement_study(params, base_N=50, levels=3, probes=(55.0,))
        with pytest.raises(ValueError):
            run_engine("bogus", params, make_grid(params, N=8), SchemeMode.CENTRAL)


class TestReconstructValue:
    def test_boundary_value(self, newton_default):
        j = newton_default.layer_index_at(25.0)
        x, w = reconstruct_value(newton_default, j)
        z = newton_default.rho[j]
        assert x[0] == pytest.approx(1.0 / z, rel=1e-14)
        assert w[0] == pytest.approx(z - 1.0, abs=1e-13)

    def test_zero_portfolio_closed_form(self, params, default_grid):
        # with Pi identically 0 the integral term vanishes: W = (1 - 1/rho)/x
        z = 1.7
        m = default_grid.M
        fake = SolveResult(
            params=params, grid=default_grid, engine="newton", mode="central",
            taus=default_grid.taus.copy(), rho=np.full(m + 1, z),
            surface=np.zeros((m + 1, default_grid.N + 1)),
        )
        x, w = reconstruct_value(fake, 3)
        assert w == pytest.approx((1.0 - 1.0 / z) / x, rel=1e-14)

    def test_trapezoid_matches_simpson_oracle(self, newton_default, default_grid):
        j = newton_default.layer_index_at(25.0)
        x, w = reconstruct_value(newton_default, j)
        z = newton_default.rho[j]
        xi = default_grid.xi
        integrand = newton_default.surface[j] * np.exp(xi)
        worst = 0.0
        for i in range(2, default_grid.N + 1, 2):
            integral = simpson(integrand[: i + 1], x=xi[: i + 1])
            w_ref = (1.0 - 1.0 / z + integral / z) / x[i]
            worst = max(worst, abs(w[i] - w_ref))
        assert worst <= default_grid.h**2

    def test_smooth_pasting_first_order(self, params, newton_default):
        # transformed smooth-pasting: dW/dx -> -rho^2 at the boundary node
        errs = {}
        for result in (newton_default, None):
            if result is None:
                from asianfb.solver_newton import march_newton

                result = march_newton(params, make_grid(params, N=100))
            j = result.layer_index_at(25.0)
            x, w = reconstruct_value(result, j)
            z = result.rho[j]
            slope = (w[1] - w[0]) / (x[1] - x[0])
            errs[result.grid.N] = abs(slope + z * z)
            assert errs[result.grid.N] <= 10.0 * result.grid.h
        assert 1.5 <= errs[100] / errs[200] <= 2.5  # O(h) halving

    def test_layer_validation(self, newton_default):
        with pytest.raises(ValueError):
            reconstruct_value(newton_default, newton_default.taus.size)

    @pytest.mark.parametrize("z", [0.0, -1.7])
    def test_nonpositive_boundary_rejected(self, params, default_grid, z):
        m = default_grid.M
        rho = np.full(m + 1, 1.7)
        rho[3] = z
        fake = SolveResult(
            params=params, grid=default_grid, engine="newton", mode="central",
            taus=default_grid.taus.copy(), rho=rho,
            surface=np.zeros((m + 1, default_grid.N + 1)),
        )
        with pytest.raises(ValueError, match="non-positive boundary ratio at layer 3"):
            reconstruct_value(fake, 3)
        reconstruct_value(fake, 2)


@pytest.fixture(scope="module")
def record(params) -> ComparisonRecord:
    return compare_engines(params, make_grid(params, N=64))


class TestCompareEngines:
    def test_shared_initialization(self, record):
        assert record.rho_newton[0] == record.rho_pc[0]
        assert record.diff[0] == 0.0

    def test_pc_underestimates_majority(self, record):
        assert record.pc_below_fraction > 0.5
        assert record.lower_engine == "pc"

    def test_summary_statistics_consistent(self, record):
        assert record.max_diff == pytest.approx(np.max(np.abs(record.diff)), rel=1e-15)
        assert record.mean_diff == pytest.approx(np.mean(np.abs(record.diff)), rel=1e-15)
        assert record.mean_diff <= record.max_diff

    def test_deterministic(self, params, record):
        again = compare_engines(params, make_grid(params, N=64))
        assert np.array_equal(record.rho_pc, again.rho_pc)
        assert np.array_equal(record.rho_newton, again.rho_newton)

    def test_returns_the_bits_of_the_marches_run_alone(self, params):
        grid = make_grid(params, N=64)
        record = compare_engines(params, grid)
        assert record.rho_newton.tobytes() == march_newton(params, grid).rho.tobytes()
        assert record.rho_pc.tobytes() == march_pc(params, grid).rho.tobytes()

    @pytest.mark.parametrize("pc_fails", [False, True], ids=["newton-fails", "both-fail"])
    def test_newtons_failure_is_raised_and_the_worker_joined(self, params, pc_fails):
        """When Newton's march fails, compare raises its LayerFailure, also
        when pc's fails too, and the worker thread has ended."""
        grid = make_grid(params, N=32)
        newton_cfg, pc_cfg = NewtonConfig(max_iter=1), PredictorConfig(max_iter=1)
        with pytest.raises(LayerFailure) as alone:
            march_newton(params, grid, SchemeMode.UPWIND_SINGULAR, newton_cfg)
        if pc_fails:
            with pytest.raises(LayerFailure) as pc_alone:
                march_pc(params, grid, SchemeMode.UPWIND_SINGULAR, pc_cfg)
            assert str(pc_alone.value) != str(alone.value)
        threads = threading.active_count()
        with pytest.raises(LayerFailure) as exc:
            compare_engines(params, grid, newton_cfg=newton_cfg,
                            pc_cfg=pc_cfg if pc_fails else None)
        assert threading.active_count() == threads
        assert (exc.value.layer, exc.value.tau, str(exc.value)) == \
            (alone.value.layer, alone.value.tau, str(alone.value))


def test_compare_and_refine_march_without_diagnostics_to_the_same_floats(params, monkeypatch):
    """compare_engines and every refinement level march with
    diagnostics=False, so the kernel skips the passes that only fill
    diagnostics; made to run them, each returns the same floats."""
    grid = make_grid(params, N=64)
    runs = [(compare_engines(params, grid), refinement_study(params, base_N=50, levels=3))]
    asked = []

    def with_diagnostics(*args, diagnostics, **kwargs):
        asked.append(diagnostics)
        return run_engine(*args, diagnostics=True, **kwargs)

    monkeypatch.setattr(analysis, "run_engine", with_diagnostics)
    runs.append((compare_engines(params, grid), refinement_study(params, base_N=50, levels=3)))
    assert asked == [False] * 5
    (lean, lean_report), (full, full_report) = runs
    for name in ("taus", "rho_newton", "rho_pc"):
        assert getattr(lean, name).tobytes() == getattr(full, name).tobytes(), name
    assert (lean.max_diff, lean.mean_diff, lean.pc_below_fraction, lean.lower_engine) == \
        (full.max_diff, full.mean_diff, full.pc_below_fraction, full.lower_engine)
    assert lean_report == full_report


def test_threads_switching_often_return_each_march_in_order(params, cpus):
    """Eight marches on four threads (more than this machine's cores),
    switching every microsecond, return the bits of each march run alone,
    in order."""
    cpus(4)
    marches = [functools.partial(march, params, make_grid(params, N=n))
               for n in (16, 20, 24, 28) for march in (march_newton, march_pc)]
    alone = [march().rho.tobytes() for march in marches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        together = _in_threads(marches)
    finally:
        sys.setswitchinterval(interval)
    assert [result.rho.tobytes() for result in together] == alone


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_one_thread_per_cpu(cpus, n_cpus):
    """_in_threads runs its calls on as many threads at once as this
    process may use CPUs: each call waits until n_cpus calls wait."""
    cpus(n_cpus)
    barrier = threading.Barrier(n_cpus, timeout=10)

    def call():
        barrier.wait()
        return threading.current_thread().name

    assert len(set(_in_threads([call] * (2 * n_cpus)))) == n_cpus
