"""Command-line interface: solve / refine / compare.

Configuration is resolved in increasing precedence: built-in defaults,
a flat ``key = value`` config file (``--config``), command-line flags.
Each option is one row of OPTIONS, from which the defaults, the
config-file types and the flags are all derived.
The environment variable ASIANFB_OUT, when set, overrides the output
directory; nothing else is read from the environment.

All outputs are flat files (CSV with 9-decimal fixed-point numbers and
one JSON summary per command) written deterministically: repeated runs
with the same configuration are byte-identical.  Wall time is reported
on stdout only so it never perturbs the files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(message carries the failing layer), 4 the compiled kernel can be
neither loaded nor built (message names the missing C compiler, or the
failed build command and its first line of errors, and the cache
directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import active_name as kernel_backend, native
from .analysis import compare_engines, refinement_study, run_engine
from .errors import SolverError
from .mesh import make_grid
from .model import MarketParams
from .scheme import SchemeMode
from .solver_newton import NewtonConfig
from .solver_pc import PredictorConfig

__all__ = ["main"]

# The options: (key, type, default, help).  A key is set from a config file
# as ``key = value`` and from the command line as --key (with - for _); a
# row without help is a config-file key with no flag.
OPTIONS = (
    ("r", float, 0.06, "risk-free rate (1/year)"),
    ("q", float, 0.04, "continuous dividend rate (1/year)"),
    ("sigma", float, 0.2, "volatility (1/sqrt(year))"),
    ("T", float, 50.0, "maturity (years)"),
    ("N", int, 200, "number of spatial intervals"),
    ("M", int, None, "number of time layers (default ceil(2.5 N))"),
    ("L", float, None, "domain truncation length (default 5 ln rho(0))"),
    ("eps_final", float, 1e-7, "final-layer offset so tau_M = T - eps"),
    ("engine", str, "newton", "solver engine"),
    ("scheme_mode", str, "upwind-singular", "advection discretization"),
    ("tol", float, None,  # None: the engine's default, as for max_iter
     "engine tolerance (Newton step norm / predictor root)"),
    ("max_iter", int, None, "engine iteration cap"),
    ("tau_probes", str, "10,20,40", "comma-separated probe times (default 10,20,40)"),
    ("jobs", int, None, "worker threads for refine"),  # None: the cpu count
    ("out_dir", str, ".", "output directory"),
    ("base_N", int, 50, "coarsest spatial resolution (default 50)"),
    ("levels", int, 5, "number of doublings (default 5)"),
    ("boundary_csv", str, "boundary.csv", None),
    ("surface_csv", str, "surface.csv", None),
    ("summary_json", str, "summary.json", None),
    ("refine_csv", str, "refine.csv", None),
    ("compare_csv", str, "compare.csv", None),
    ("compare_json", str, "compare.json", None),
)
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}
_COERCE = {key: kind for key, kind, _, _ in OPTIONS}
_CHOICES = {"engine": ("newton", "pc"), "scheme_mode": tuple(m.value for m in SchemeMode)}
_REFINE_ONLY = ("base_N", "levels")
# The compiled CSV writer's buffer holds at most this many bytes (or one
# time layer of surface.csv, when that is larger).
CHUNK_BYTES = 1 << 16


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    """Fixed 9-decimal rendering used for every CSV number."""
    return f"{x:.9f}"


def _round9(x: float) -> float:
    return round(float(x), 9)


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _COERCE[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def _parse_probes(spec: str, T: float) -> tuple[float, ...]:
    try:
        probes = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad tau-probes {spec!r}") from exc
    if not probes:
        raise ConfigError("tau-probes must name at least one time")
    for t in probes:
        if not 0 < t < T:
            raise ConfigError(f"probe tau={t} outside (0, T={T})")
    return probes


@dataclass
class RunConfig:
    """Fully-resolved invocation: market, grid overrides, engines, outputs."""

    market: MarketParams
    N: int
    M: int | None
    L: float | None
    eps_final: float
    engine: str
    scheme_mode: SchemeMode
    newton: NewtonConfig
    predictor: PredictorConfig
    probes: tuple[float, ...]
    jobs: int
    out_dir: str
    files: dict[str, str]
    base_N: int
    levels: int
    raw: dict  # scalar key/value view embedded in summaries


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    env_out = os.environ.get("ASIANFB_OUT")
    if env_out:
        cfg["out_dir"] = env_out

    if cfg["engine"] not in _CHOICES["engine"]:
        raise ConfigError(f"engine must be 'newton' or 'pc', got {cfg['engine']!r}")
    try:
        scheme_mode = SchemeMode(cfg["scheme_mode"])
    except ValueError:
        raise ConfigError(
            f"scheme-mode must be 'central' or 'upwind-singular', got {cfg['scheme_mode']!r}"
        ) from None
    try:
        market = MarketParams(r=cfg["r"], q=cfg["q"], sigma=cfg["sigma"], T=cfg["T"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    probes = _parse_probes(cfg["tau_probes"], cfg["T"])
    jobs = cfg["jobs"] if cfg["jobs"] is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    kwargs = {}
    if cfg["tol"] is not None:
        kwargs["tol"] = cfg["tol"]
    if cfg["max_iter"] is not None:
        kwargs["max_iter"] = cfg["max_iter"]
    try:
        newton = NewtonConfig(**kwargs)
        predictor = PredictorConfig(**{k.replace("tol", "root_tol"): v
                                       for k, v in kwargs.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        market=market, N=cfg["N"], M=cfg["M"], L=cfg["L"],
        eps_final=cfg["eps_final"], engine=cfg["engine"], scheme_mode=scheme_mode,
        newton=newton, predictor=predictor, probes=probes, jobs=jobs,
        out_dir=cfg["out_dir"],
        files={key: cfg[key] for key, _, _, help_text in OPTIONS if help_text is None},
        base_N=cfg["base_N"], levels=cfg["levels"],
        raw={"tol": cfg["tol"], "max_iter": cfg["max_iter"]},
    )


def _make_grid(cfg: RunConfig):
    try:
        return make_grid(cfg.market, N=cfg.N, M=cfg.M, L=cfg.L,
                         eps_final=cfg.eps_final)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _config_echo(cfg: RunConfig, grid) -> dict:
    """Fully-resolved configuration, embedded for reproducibility."""
    p = cfg.market
    return {
        "r": p.r, "q": p.q, "sigma": p.sigma, "T": p.T,
        "N": grid.N, "M": grid.M, "L": grid.L, "eps_final": grid.eps_final,
        "engine": cfg.engine, "scheme_mode": cfg.scheme_mode.value,
        "tol": cfg.raw["tol"], "max_iter": cfg.raw["max_iter"],
        "tau_probes": ",".join(f"{t:g}" for t in cfg.probes),
        "jobs": cfg.jobs, "out_dir": cfg.out_dir,
    }


def _provenance() -> dict:
    """Which kernel backend and package version produced a run's results."""
    return {"kernel_backend": kernel_backend(), "asianfb_version": __version__}


def _out_path(cfg: RunConfig, name_key: str) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / cfg.files[name_key]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_fixed9(path: Path, header: str, count: int, step: int, out: np.ndarray, compiled,
                  text) -> None:
    """Write a CSV table of fixed 9-decimal numbers, byte for byte as
    csv.writer with _fmt writes it: the header line, then units 0 ..
    count - 1 of the table (rows, or layers of rows) in chunks of ``step``.

    ``compiled(start, stop)`` (a writer of native.fixed9_rows or
    native.fixed9_surface) formats a chunk into ``out``, one buffer reused
    for the whole file, so the file is streamed in pieces of at most about
    CHUNK_BYTES, and returns the bytes written, or a negative number when
    the chunk holds a cell that C hands back (not finite, or of magnitude
    4.5e6 or more).  ``text(start, stop)`` then returns the chunk as
    Python's "%.9f" formats it, and every chunk when compiled is None.
    """
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for start in range(0, count, step):
            stop = min(start + step, count)
            written = compiled(start, stop) if compiled else -1
            if written >= 0:
                fh.write(out[:written])
            else:
                fh.write(text(start, stop).encode("ascii"))


def _write_table(path: Path, header: str, columns) -> None:
    """The CSV table of equal-length float columns, every cell in fixed 9
    decimals, in chunks of rows that native.fixed9_rows formats (see
    _write_fixed9), its arrays checked once for the file."""
    cells = np.ascontiguousarray(np.column_stack(columns), dtype=float)
    rows, cols = cells.shape
    template = ",".join(["%.9f"] * cols) + "\r\n"
    step = max(1, CHUNK_BYTES // native.fixed9_bytes(1, cols))
    out = np.empty(native.fixed9_bytes(min(step, rows), cols), np.uint8)
    _write_fixed9(path, header, rows, step, out, native.fixed9_rows(cells, out),
                  lambda start, stop: template * (stop - start) %
                  tuple(cells[start:stop].ravel().tolist()))


def _write_surface(path: Path, taus: np.ndarray, xi: np.ndarray,
                   surface: np.ndarray) -> None:
    """The (tau, xi, pi) table, byte for byte as csv.writer with _fmt writes
    it, in chunks of whole time layers (see _write_fixed9).

    The xi cells are formatted once for the file, and the writer of
    native.fixed9_surface, whose arrays are checked once for the file,
    formats each chunk's tau cells once per layer and its pi cells,
    copying the xi cells.  A chunk that it hands back, and every chunk when an xi
    cell is one C leaves to Python, is written from a layer template, the
    xi cells formatted once, and each time layer is one %-format of its
    values ("%.9f" formats as _fmt does).

    Raises ValueError unless taus and xi are 1-D and surface has the shape
    (taus.size, xi.size).
    """
    taus, xi, surface = (np.ascontiguousarray(a, dtype=float) for a in (taus, xi, surface))
    if taus.ndim != 1 or xi.ndim != 1 or surface.shape != (taus.size, xi.size):
        raise ValueError(f"surface of shape {surface.shape} does not fit {taus.size} "
                         f"taus and {xi.size} xi nodes")
    n = xi.size
    per = max(1, CHUNK_BYTES // native.fixed9_bytes(max(n, 1), 3))
    out = np.empty(native.fixed9_bytes(min(per, taus.size) * n, 3), np.uint8)
    xi_text = [_fmt(x) for x in xi.tolist()]
    layer = "".join(["\0," + x + ",%.9f\r\n" for x in xi_text])
    compiled = None  # unless C can write the xi cells: none is wider than C's, and n > 0
    if n and np.all(np.abs(xi) < native.FIXED9_LIMIT):
        xi_cells = np.frombuffer(b"".join([x.encode().ljust(native.FIXED9_CELL, b"\0")
                                           for x in xi_text]), np.uint8).reshape(n, -1)
        compiled = native.fixed9_surface(taus, xi_cells, surface, out)

    def text(start, stop):
        return "".join([layer.replace("\0", _fmt(taus[j])) % tuple(surface[j].tolist())
                        for j in range(start, stop)])

    _write_fixed9(path, "tau,xi,pi", taus.size, per, out, compiled, text)


def cmd_solve(cfg: RunConfig) -> int:
    grid = _make_grid(cfg)
    p = cfg.market
    started = time.perf_counter()
    result = run_engine(cfg.engine, p, grid, cfg.scheme_mode,
                        cfg.newton, cfg.predictor)
    elapsed = time.perf_counter() - started

    boundary_path = _out_path(cfg, "boundary_csv")
    _write_table(boundary_path, "tau,rho,xf_t,t",
                 (result.taus, result.rho, 1.0 / result.rho, p.T - result.taus))

    surface_path = _out_path(cfg, "surface_csv")
    _write_surface(surface_path, result.taus, grid.xi, result.surface)

    iterations = np.array([d.iterations for d in result.diagnostics])
    summary = {
        "command": "solve",
        "engine": cfg.engine,
        "scheme_mode": cfg.scheme_mode.value,
        "params": {"r": p.r, "q": p.q, "sigma": p.sigma, "T": p.T},
        "grid": {"N": grid.N, "M": grid.M, "L": grid.L, "h": grid.h,
                 "k": grid.k, "eps_final": grid.eps_final},
        "rho_tau0": _round9(result.rho[0]),
    }
    for t in cfg.probes:
        summary[f"rho_tau{t:g}"] = _round9(result.rho_at(t))
    summary["iterations"] = {
        "max": int(iterations.max()),
        "mean": _round9(float(iterations.mean())),
        "total": int(iterations.sum()),
    }
    summary["diagnostics"] = {
        "max_residual_f1": _round9(max(d.residual_f1 for d in result.diagnostics)),
        "max_residual_f2": _round9(max(d.residual_f2 for d in result.diagnostics)),
        # scale-free, so of rounding size: not rounded to 9 decimals
        "max_backward_error": max(d.backward_error for d in result.diagnostics),
        "dominance_violations": int(sum(d.dominance_violations for d in result.diagnostics)),
        "onesided_rows_max": int(max(d.onesided_rows for d in result.diagnostics)),
        "predictor_fallback_layers": [d.layer for d in result.diagnostics
                                      if d.predictor_fallback],
    }
    summary["outputs"] = {"boundary_csv": boundary_path.name,
                          "surface_csv": surface_path.name}
    summary["config"] = _config_echo(cfg, grid)
    summary.update(_provenance())
    _write_json(_out_path(cfg, "summary_json"), summary)

    print(f"solve: engine={cfg.engine} N={grid.N} M={grid.M} "
          f"rho(0)={result.rho[0]:.9g} wall_time={elapsed:.3f}s")
    print(f"wrote {boundary_path}, {surface_path}, {_out_path(cfg, 'summary_json')}")
    return 0


def cmd_refine(cfg: RunConfig) -> int:
    started = time.perf_counter()
    try:
        report = refinement_study(
            cfg.market, base_N=cfg.base_N, levels=cfg.levels,
            mode=cfg.scheme_mode, engine=cfg.engine, probes=cfg.probes,
            L=cfg.L, eps_final=cfg.eps_final,
            newton_cfg=cfg.newton, pc_cfg=cfg.predictor, jobs=cfg.jobs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    elapsed = time.perf_counter() - started

    refine_path = _out_path(cfg, "refine_csv")
    header = ["N", "M"]
    for t in report.probe_times:
        label = f"tau{t:g}"
        header += [f"rho_{label}", f"diff_{label}", f"CR_{label}"]
    with refine_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in report.rows:
            record = [str(row.N), str(row.M)]
            for t in report.probe_times:
                record.append(_fmt(row.rho[t]))
                record.append("" if row.diff[t] is None else _fmt(row.diff[t]))
                record.append("" if row.cr[t] is None else _fmt(row.cr[t]))
            writer.writerow(record)

    print(f"refine: engine={cfg.engine} levels N="
          f"{[row.N for row in report.rows]} wall_time={elapsed:.3f}s")
    print(f"wrote {refine_path}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    grid = _make_grid(cfg)
    started = time.perf_counter()
    record = compare_engines(cfg.market, grid, cfg.scheme_mode,
                             cfg.newton, cfg.predictor)
    elapsed = time.perf_counter() - started

    compare_path = _out_path(cfg, "compare_csv")
    _write_table(compare_path, "tau,rho_newton,rho_pc,diff",
                 (record.taus, record.rho_newton, record.rho_pc, record.diff))

    payload = {
        "command": "compare",
        "scheme_mode": cfg.scheme_mode.value,
        "max_diff": _round9(record.max_diff),
        "mean_diff": _round9(record.mean_diff),
        "pc_below_fraction": _round9(record.pc_below_fraction),
        "lower_engine": record.lower_engine,
        "config": _config_echo(cfg, grid),
        **_provenance(),
    }
    _write_json(_out_path(cfg, "compare_json"), payload)

    print(f"compare: max|rho_pc-rho_newton|={record.max_diff:.6g} "
          f"pc_below_fraction={record.pc_below_fraction:.3f} wall_time={elapsed:.3f}s")
    print(f"wrote {compare_path}, {_out_path(cfg, 'compare_json')}")
    return 0


def _add_flags(sub: argparse.ArgumentParser, keys) -> None:
    for key, kind, _, help_text in OPTIONS:
        if key in keys and help_text is not None:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                             choices=_CHOICES.get(key), help=help_text)


def build_parser() -> argparse.ArgumentParser:
    """The three subcommands, with a flag for every OPTIONS row that has help."""
    parser = argparse.ArgumentParser(
        prog="asianfb",
        description="Early exercise boundary of the American floating-strike "
                    "Asian call via front-fixing finite differences.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="march one configuration, write "
                                              "boundary/surface/summary files")
    refine = commands.add_parser("refine", help="mesh-refinement study with "
                                                "convergence ratios")
    compare = commands.add_parser("compare", help="run both engines and compare "
                                                  "boundary paths")
    common = [key for key in DEFAULTS if key not in _REFINE_ONLY]
    for sub in (solve, refine, compare):
        sub.add_argument("--config", help="flat key = value configuration file")
        _add_flags(sub, common)
    _add_flags(refine, _REFINE_ONLY)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        handler = {"solve": cmd_solve, "refine": cmd_refine, "compare": cmd_compare}
        return handler[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except native.KernelUnavailable as exc:
        print(f"kernel unavailable: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
