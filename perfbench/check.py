"""Output checks applied to every benchmark invocation.

For seeds listed in ``references.json`` the Newton outputs must match the
values recorded from the unmodified solver within ``TOLERANCE``: the
boundary ratio rho of ``boundary.csv``, a subsample of ``surface.csv``
and ``rho_newton`` of ``compare.csv``.  The tolerance is not byte
equality, so that a change which reassociates floating-point sums may
flip the 9th decimal.

Every seed, listed or not, must meet invariants the solver meets today:
exit status 0, finite outputs, Newton residuals at most 1e-8 in the
summary, and -1 <= y <= 0 on the surface.  The predictor-corrector
outputs are checked only for sanity (finite, rho > 0), because the
engine is expected to change.  Monotonicity of rho is not checked: the
solver does not have it near expiry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-7
RESIDUAL_LIMIT = 1e-8
SURFACE_LAYER_STEP = 50   # every 50th time layer ...
SURFACE_NODE_STEP = 20    # ... at every 20th node

REFERENCES_PATH = Path(__file__).with_name("references.json")


def load_references(path: Path = REFERENCES_PATH) -> dict[int, dict]:
    return {int(seed): ref for seed, ref in json.loads(path.read_text()).items()}


def _columns(path: Path, *names: str) -> list[np.ndarray]:
    """The named columns of a CSV file with a header row."""
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                       usecols=[header.index(name) for name in names])
    return [table[:, k] for k in range(len(names))]


def surface_sample(pi: np.ndarray, n_layers: int, n_nodes: int) -> np.ndarray:
    grid = pi.reshape(n_layers, n_nodes)
    return grid[::SURFACE_LAYER_STEP, ::SURFACE_NODE_STEP].ravel()


def extract(workload: str, out_dir: Path) -> dict[str, list[float]]:
    """The values of one invocation's outputs that references pin."""
    out_dir = Path(out_dir)
    if workload == "solve-default":
        (rho,) = _columns(out_dir / "boundary.csv", "rho")
        (pi,) = _columns(out_dir / "surface.csv", "pi")
        return {"rho": rho.tolist(),
                "surface": surface_sample(pi, rho.size, pi.size // rho.size).tolist()}
    if workload == "compare-default":
        (rho,) = _columns(out_dir / "compare.csv", "rho_newton")
        return {"rho": rho.tolist()}
    raise ValueError(f"unknown workload {workload!r}")


def compare_values(name: str, got, want, tol: float = TOLERANCE) -> list[str]:
    """Reasons ``got`` differs from ``want`` by more than ``tol`` (empty if it does not)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    err = np.abs(got - want)
    if not np.all(err <= tol):  # also catches NaN
        worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{name}[{worst}] = {got[worst]!r} differs from reference "
                f"{want[worst]!r} by more than {tol:g}"]
    return []


def _finite(name: str, values: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(values)) else [f"{name} has non-finite values"]


def _invariants(workload: str, out_dir: Path) -> list[str]:
    if workload == "solve-default":
        (rho,) = _columns(out_dir / "boundary.csv", "rho")
        (pi,) = _columns(out_dir / "surface.csv", "pi")
        summary = json.loads((out_dir / "summary.json").read_text())
        reasons = _finite("boundary rho", rho) + _finite("surface pi", pi)
        if not np.all((pi >= -1.0) & (pi <= 0.0)):
            reasons.append("surface pi leaves [-1, 0]")
        for key in ("max_residual_f1", "max_residual_f2"):
            if not summary["diagnostics"][key] <= RESIDUAL_LIMIT:
                reasons.append(f"summary {key} = {summary['diagnostics'][key]} "
                               f"> {RESIDUAL_LIMIT:g}")
        return reasons
    if workload == "compare-default":
        rho_newton, rho_pc = _columns(out_dir / "compare.csv", "rho_newton", "rho_pc")
        json.loads((out_dir / "compare.json").read_text())
        reasons = _finite("compare rho_newton", rho_newton)
        reasons += _finite("compare rho_pc", rho_pc)
        if not np.all(rho_pc > 0):
            reasons.append("compare rho_pc is not positive")
        return reasons
    raise ValueError(f"unknown workload {workload!r}")


def check_invocation(workload: str, seed: int, exit_code: int, out_dir,
                     references: dict[int, dict]) -> list[str]:
    """Every reason this invocation's outputs are wrong; empty when correct."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    out_dir = Path(out_dir)
    try:
        reasons = _invariants(workload, out_dir)
        ref = references.get(seed)
        if ref is not None:
            for name, values in extract(workload, out_dir).items():
                reasons += compare_values(name, values, ref[name])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        reasons = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return reasons
