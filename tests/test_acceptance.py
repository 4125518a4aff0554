"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 holds the two engines to the stated band on the default
grid.  The largest gap sits next to the predictor fallback two layers
before expiry, so the margin is thin (README, "Known limitations").
"""

import time

import numpy as np
import pytest

from asianfb import MarketParams, make_grid, rho_initial
from asianfb.analysis import refinement_study
from asianfb.cli import main as cli_main
from asianfb.mesh import initial_layer
from asianfb.scheme import SchemeMode
from asianfb.tridiag import thomas_solve

from _oracles import (build_jacobian, dense_jacobian, dense_solve, finite_difference_jacobian,
                      newton_steps_and_dense_solves)
from test_solver_newton import random_state
from test_tridiag import random_dominant_system

REFERENCE_RHO_TAU20 = {50: 1.991675, 100: 1.995525, 200: 1.996945,
                       400: 1.997515, 800: 1.997765}


@pytest.fixture
def report(capsys):
    def _report(number: int, description: str, ok: bool, detail: str):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {number:2d} [{status}] {description}: {detail}")
        assert ok, f"criterion {number} ({description}): {detail}"

    return _report


@pytest.fixture(scope="session")
def refinement_five_levels(params):
    started = time.perf_counter()
    rep = refinement_study(params, base_N=50, levels=5,
                           mode=SchemeMode.UPWIND_SINGULAR, engine="newton")
    return rep, time.perf_counter() - started


def test_criterion_01_reference_boundary_regression(report, refinement_five_levels):
    rep, elapsed = refinement_five_levels
    errs = {row.N: abs(row.rho[20.0] - REFERENCE_RHO_TAU20[row.N]) for row in rep.rows}
    ok = max(errs.values()) <= 5e-3 and elapsed < 60.0
    report(1, "reference boundary values at tau=20, five levels", ok,
           f"max |error| = {max(errs.values()):.2e} (tol 5e-3), "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_02_convergence_order(report, refinement_five_levels):
    rep, _ = refinement_five_levels
    strictly_decreasing = True
    for t in (20.0, 40.0):
        diffs = [row.diff[t] for row in rep.rows[1:]]
        strictly_decreasing &= all(b < a for a, b in zip(diffs, diffs[1:]))
    crs = [row.cr[t] for t in rep.probe_times for row in rep.rows
           if row.cr[t] is not None]
    in_band = all(0.9 <= cr <= 2.2 for cr in crs)
    report(2, "first-order convergence of the boundary", strictly_decreasing and in_band,
           f"differences strictly decreasing at tau=20,40: {strictly_decreasing}; "
           f"CR range [{min(crs):.2f}, {max(crs):.2f}] within [0.9, 2.2]")


def test_criterion_03_exact_initialization(report, rng):
    worst = 0.0
    for _ in range(20):
        p = MarketParams(r=rng.uniform(0.005, 0.25), q=rng.uniform(0.001, 0.25),
                         sigma=rng.uniform(0.05, 0.8), T=rng.uniform(0.5, 80.0))
        expected = max((1.0 + p.r * p.T) / (1.0 + p.q * p.T), 1.0)
        worst = max(worst, abs(rho_initial(p) - expected))
        g = make_grid(p, N=8, M=4, L=2.0)
        assert initial_layer(p, g).z == expected
    report(3, "rho(0) = max((1+rT)/(1+qT), 1) exactly", worst == 0.0,
           f"max deviation over 20 random parameter sets = {worst:.1e}")


def test_criterion_04_residual_contract(report, newton_default):
    worst_f1 = max(d.residual_f1 for d in newton_default.diagnostics)
    worst_f2 = max(d.residual_f2 for d in newton_default.diagnostics)
    violations = sum(1 for d in newton_default.diagnostics
                     if d.residual_f1 > 1e-7 or d.residual_f2 > 1e-7)
    report(4, "per-layer Newton residuals below 1e-7", violations == 0,
           f"max ||F1|| = {worst_f1:.2e}, max |F2| = {worst_f2:.2e}, "
           f"violations = {violations}/{len(newton_default.diagnostics)}")


def test_criterion_05_jacobian_matches_finite_differences(report, params, rng):
    g = make_grid(params, N=8)
    worst = 0.0
    for _ in range(50):
        tau_next = rng.uniform(0.5, 49.5)
        prev, y1, z = random_state(rng, g, tau_next)
        for mode in (SchemeMode.CENTRAL, SchemeMode.UPWIND_SINGULAR):
            analytic = dense_jacobian(build_jacobian(y1, z, prev, tau_next, g, params, mode))
            fd = finite_difference_jacobian(y1, z, prev, tau_next, g, params,
                                            mode, step=1e-6)
            scale = np.abs(fd).max(axis=1, keepdims=True) + 1.0
            worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
    report(5, "analytic Jacobian vs central differences (50 states, both modes)",
           worst <= 1e-5, f"max relative deviation = {worst:.2e} (tol 1e-5)")


def test_criterion_06_schur_equals_dense_solve(report, params):
    g = make_grid(params, N=8, M=4)
    state = initial_layer(params, g)
    worst = 0.0
    iterations = 0
    for j in range(g.M):
        state, pairs = newton_steps_and_dense_solves(state, float(g.taus[j + 1]), g, params,
                                                     SchemeMode.UPWIND_SINGULAR)
        for block, dense in pairs:
            iterations += 1
            scale = max(float(np.max(np.abs(dense))), 1.0)
            worst = max(worst, float(np.max(np.abs(block - dense))) / scale)
    report(6, "block elimination equals dense Newton solve each iteration",
           worst <= 1e-10, f"max relative gap over {iterations} iterations = {worst:.2e}")


def test_criterion_07_thomas_matches_dense_oracle(report, rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        sys = random_dominant_system(rng, n)
        x = thomas_solve(*sys)
        ref = dense_solve(sys)
        worst = max(worst, float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))))
    report(7, "Thomas solve vs dense elimination (100 systems, n in [2,200])",
           worst <= 1e-12, f"max relative deviation = {worst:.2e}")


def test_criterion_08_cross_engine_agreement(report, newton_default, pc_default):
    diff = pc_default.rho - newton_default.rho
    max_diff = float(np.max(np.abs(diff)))
    below = float(np.mean(pc_default.rho[1:] < newton_default.rho[1:]))
    ok = max_diff <= 5e-2 and below > 0.5
    report(8, "engines agree to 5e-2 with predictor-corrector below", ok,
           f"max |rho_pc - rho_newton| = {max_diff:.3f} (stated tol 5e-2), "
           f"pc-below fraction = {below:.3f}")


def test_criterion_09_maximum_principle(report, newton_default):
    low = float(newton_default.surface.min())
    high = float(newton_default.surface.max())
    boundaries_exact = bool(np.all(newton_default.surface[:, 0] == -1.0)
                            and np.all(newton_default.surface[:, -1] == 0.0))
    ok = low >= -1.0 - 1e-12 and high <= 1e-12 and boundaries_exact
    report(9, "discrete maximum principle in upwind-singular mode", ok,
           f"y range [{low:.15g}, {high:.15g}], boundary rows exact: {boundaries_exact}")


def test_criterion_10_determinism(report, tmp_path):
    checks = []
    solve_dir = tmp_path / "solve"
    solve_args = ["solve", "--N", "100", "--out-dir", str(solve_dir)]
    assert cli_main(solve_args) == 0
    first = {n: (solve_dir / n).read_bytes()
             for n in ("boundary.csv", "surface.csv", "summary.json")}
    assert cli_main(solve_args) == 0
    checks.append(all((solve_dir / n).read_bytes() == b for n, b in first.items()))

    refine_dir = tmp_path / "refine"
    refine_args = ["refine", "--base-N", "50", "--levels", "2",
                   "--out-dir", str(refine_dir)]
    assert cli_main(refine_args) == 0
    ref_first = (refine_dir / "refine.csv").read_bytes()
    assert cli_main(refine_args) == 0
    checks.append((refine_dir / "refine.csv").read_bytes() == ref_first)

    compare_dir = tmp_path / "compare"
    compare_args = ["compare", "--N", "64", "--out-dir", str(compare_dir)]
    assert cli_main(compare_args) == 0
    cmp_first = {n: (compare_dir / n).read_bytes()
                 for n in ("compare.csv", "compare.json")}
    assert cli_main(compare_args) == 0
    checks.append(all((compare_dir / n).read_bytes() == b for n, b in cmp_first.items()))

    report(10, "repeated runs produce byte-identical CSV/JSON", all(checks),
           f"solve/refine/compare reruns identical: {checks}")
