"""Experiment harness: refinement studies, value reconstruction, comparisons.

The refinement study doubles N (halving h) with M = ceil(2.5 N), reads
the boundary ratio at a set of probe times, and reports the consecutive
differences diff_N = |rho_N - rho_{N/2}| together with the empirical
convergence ratio CR = log2(diff_{N/2} / diff_N).

A march is one C call that holds no GIL (see results.march), so the
levels of a refinement study and the two engines of a comparison run at
once on plain threads (``_in_threads``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .mesh import GridSpec, default_domain_length, make_grid
from .model import MarketParams, log_moneyness_nodes
from .results import SolveResult
from .scheme import SchemeMode
from .solver_newton import NewtonConfig, march_newton
from .solver_pc import PredictorConfig, march_pc

__all__ = [
    "DEFAULT_PROBES",
    "RefinementRow",
    "RefinementReport",
    "ComparisonRecord",
    "run_engine",
    "refinement_study",
    "reconstruct_value",
    "compare_engines",
]

DEFAULT_PROBES = (10.0, 20.0, 40.0)


def run_engine(engine: str, p: MarketParams, g: GridSpec, mode: SchemeMode,
               newton_cfg: NewtonConfig | None = None,
               pc_cfg: PredictorConfig | None = None) -> SolveResult:
    if engine == "newton":
        return march_newton(p, g, mode, newton_cfg or NewtonConfig())
    if engine == "pc":
        return march_pc(p, g, mode, pc_cfg or PredictorConfig())
    raise ValueError(f"unknown engine {engine!r} (expected 'newton' or 'pc')")


@dataclass
class RefinementRow:
    N: int
    M: int
    rho: dict[float, float]                 # probe tau -> boundary ratio
    diff: dict[float, float | None]         # |rho_N - rho_{N/2}|, None on first row
    cr: dict[float, float | None]           # log2(diff ratio), None on first two rows


@dataclass
class RefinementReport:
    probe_times: tuple[float, ...]
    engine: str
    mode: str
    rows: list[RefinementRow] = field(default_factory=list)


def _in_threads(calls, jobs: int) -> list:
    """The results of the zero-argument ``calls``, in order, from ``jobs``
    threads at once: this one runs calls[0::jobs] and each of jobs - 1
    worker threads calls[k::jobs], each thread stopping at its first
    failure.  Every worker is joined; then the exception of the first
    failing call in order is raised."""
    results, errors = [None] * len(calls), {}

    def run(first):
        for i in range(first, len(calls), jobs):
            try:
                results[i] = calls[i]()
            except BaseException as exc:  # raised on this thread once all are joined
                errors[i] = exc
                return

    workers = [threading.Thread(target=run, args=(k,)) for k in range(1, min(jobs, len(calls)))]
    for worker in workers:
        worker.start()
    run(0)  # never raises: it keeps every exception for below
    for worker in workers:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def _refinement_level(p, n_val, length, eps_final, mode, engine, probes, newton_cfg,
                      pc_cfg) -> tuple[int, int, dict[float, float]]:
    """One refinement level, run on one of refinement_study's worker
    threads or on the caller's thread."""
    g = make_grid(p, n_val, M=None, L=length, eps_final=eps_final)
    try:
        result = run_engine(engine, p, g, mode, newton_cfg, pc_cfg)
    except SolverError as exc:
        raise SolverError(f"refinement level N={n_val} failed: {exc}") from exc
    return n_val, g.M, {t: result.rho_at(t) for t in probes}


def refinement_study(p: MarketParams, base_N: int, levels: int,
                     mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                     engine: str = "newton",
                     probes: tuple[float, ...] = DEFAULT_PROBES,
                     L: float | None = None,
                     eps_final: float = 1e-7,
                     newton_cfg: NewtonConfig | None = None,
                     pc_cfg: PredictorConfig | None = None,
                     jobs: int = 1) -> RefinementReport:
    """Run ``levels`` nested grids N = base_N * 2^l and tabulate differences.

    The levels run on ``jobs`` threads (see _in_threads); the first level
    by N that fails raises its SolverError.
    """
    if levels < 2:
        raise ValueError(f"at least 2 levels are needed for differences, got {levels}")
    for t in probes:
        if not 0 < t < p.T:
            raise ValueError(f"probe times must lie in (0, T); got {t}")
    ns = [base_N * 2**lvl for lvl in range(levels)]
    length = L  # shared across levels so the grids are nested
    if length is None:
        length = default_domain_length(p)

    levels_out = _in_threads([functools.partial(_refinement_level, p, n_val, length, eps_final,
                                                mode, engine, tuple(probes), newton_cfg, pc_cfg)
                              for n_val in ns], max(jobs, 1))

    report = RefinementReport(probe_times=tuple(probes), engine=engine, mode=mode.value)
    for idx, (n_val, m_val, rho) in enumerate(levels_out):
        diff: dict[float, float | None] = {}
        cr: dict[float, float | None] = {}
        for t in probes:
            if idx == 0:
                diff[t] = None
                cr[t] = None
                continue
            diff[t] = abs(rho[t] - levels_out[idx - 1][2][t])
            prev_diff = report.rows[idx - 1].diff[t]
            if prev_diff is None or diff[t] == 0.0:
                cr[t] = None
            else:
                cr[t] = math.log2(prev_diff / diff[t])
        report.rows.append(RefinementRow(N=n_val, M=m_val, rho=dict(rho), diff=diff, cr=cr))
    return report


def reconstruct_value(result: SolveResult, layer: int):
    """Rebuild the reduced value W on x-nodes from the portfolio layer.

    Pi = d(xW)/dx, so integrating from the boundary x_f = 1/rho (where
    W = rho - 1, i.e. x W = 1 - 1/rho) and substituting x = e^xi / rho:

        x_i W(x_i) = 1 - 1/rho + (1/rho) * integral_0^{xi_i} Pi e^xi dxi,

    with the integral taken by the composite trapezoid rule on the
    xi-mesh.  Returns (x, W) arrays ordered by increasing x.
    """
    if not 0 <= layer < result.taus.size:
        raise ValueError(f"layer {layer} outside 0..{result.taus.size - 1}")
    z = float(result.rho[layer])
    if z <= 0:
        raise ValueError(f"non-positive boundary ratio at layer {layer}")
    xi = result.grid.xi
    pi_vals = result.surface[layer]
    integrand = pi_vals * np.exp(xi)
    steps = np.diff(xi)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * steps * (integrand[1:] + integrand[:-1]))]
    )
    x = log_moneyness_nodes(xi, z)
    w = (1.0 - 1.0 / z + cumulative / z) / x
    return x, w


@dataclass
class ComparisonRecord:
    """Per-layer boundary difference between the two engines."""

    taus: np.ndarray
    rho_newton: np.ndarray
    rho_pc: np.ndarray
    max_diff: float
    mean_diff: float
    pc_below_fraction: float  # fraction of layers j >= 1 with rho_pc < rho_newton
    lower_engine: str

    @property
    def diff(self) -> np.ndarray:
        return self.rho_pc - self.rho_newton


def compare_engines(p: MarketParams, g: GridSpec,
                    mode: SchemeMode = SchemeMode.UPWIND_SINGULAR,
                    newton_cfg: NewtonConfig | None = None,
                    pc_cfg: PredictorConfig | None = None) -> ComparisonRecord:
    """Run both engines on the same grid and compare boundary paths.

    march_pc runs on a worker thread while march_newton runs on this one;
    when both fail, Newton's LayerFailure is raised.
    """
    res_n, res_pc = _in_threads(
        [lambda: march_newton(p, g, mode, newton_cfg or NewtonConfig()),
         lambda: march_pc(p, g, mode, pc_cfg or PredictorConfig())], 2)
    diff = res_pc.rho - res_n.rho
    below = float(np.mean(res_pc.rho[1:] < res_n.rho[1:]))
    return ComparisonRecord(
        taus=res_n.taus,
        rho_newton=res_n.rho,
        rho_pc=res_pc.rho,
        max_diff=float(np.max(np.abs(diff))),
        mean_diff=float(np.mean(np.abs(diff))),
        pc_below_fraction=below,
        lower_engine="pc" if below >= 0.5 else "newton",
    )
