"""Command-line interface: solve / refine / compare.

Configuration is resolved in increasing precedence: built-in defaults,
a flat ``key = value`` config file (``--config``), command-line flags.
Each option is one row of OPTIONS, from which the defaults, the
config-file types and the flags are all derived, and resolve_config
returns one record with an attribute per OPTIONS key, beside the checked
objects built from them.
The environment variable ASIANFB_OUT, when set, overrides the output
directory; nothing else is read from the environment.

All outputs are flat files (CSV with 9-decimal fixed-point numbers and
one JSON summary per command) written deterministically: repeated runs
with the same configuration are byte-identical.  Wall time is reported
on stdout only so it never perturbs the files.

boundary.csv, surface.csv and compare.csv are written by native's
writers (native.write_table, native.write_surface), which format the
cells in C, and refine.csv, whose cells mix integers and empty cells,
by csv.writer.  solve streams surface.csv while its march runs: the
march stays on the calling thread, in one C call that publishes each
layer it stores in its layer count, and one worker thread runs
native.write_surface over the march's surface, which writes each chunk
of layers once the count says they are stored, and then puts the
finished file in place (_SurfaceStream).
Its files appear only when the march succeeds; a failed solve leaves the
output directory as it found it, apart from creating it.  Its stdout
wall_time is the march's, with the surface stream beside it, and
surface_tail the time the stream then ran past the march, until
surface.csv was in place.

Exit codes: 0 success, 2 configuration error (any ValueError: the
library raises it only for input it refuses, since a march hands back
each failure of its layers), 3 numerical failure (message carries the
failing layer), 4 the compiled kernel can be neither loaded nor built
(message names the missing C compiler, or the failed build command and
its first line of errors, and the cache directory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from ._kernels import active_name as kernel_backend, native
from .analysis import DEFAULT_PROBES, compare_engines, refinement_study, run_engine
from .errors import SolverError
from .mesh import DEFAULT_EPS_FINAL, make_grid
from .model import MarketParams
from .scheme import SchemeMode
from .solver_newton import NewtonConfig
from .solver_pc import PredictorConfig

__all__ = ["main"]


def _probe_spec(probes) -> str:
    """Probe times as --tau-probes spells them: "10,20,40"."""
    return ",".join(f"{t:g}" for t in probes)


# The options: (key, type, default, help).  A key is set from a config file
# as ``key = value`` and from the command line as --key (with - for _); a
# row without help is a config-file key with no flag.  A default that the
# library has is taken from it.
OPTIONS = (
    ("r", float, 0.06, "risk-free rate (1/year)"),
    ("q", float, 0.04, "continuous dividend rate (1/year)"),
    ("sigma", float, 0.2, "volatility (1/sqrt(year))"),
    ("T", float, 50.0, "maturity (years)"),
    ("N", int, 200, "number of spatial intervals"),
    ("M", int, None, "number of time layers (default ceil(2.5 N))"),
    ("L", float, None, "domain truncation length (default 5 ln rho(0))"),
    ("eps_final", float, DEFAULT_EPS_FINAL, "final-layer offset so tau_M = T - eps"),
    ("engine", str, "newton", "solver engine"),
    ("scheme_mode", str, SchemeMode.UPWIND_SINGULAR.value, "advection discretization"),
    ("tol", float, None,  # None: the engine's default, as for max_iter
     "engine tolerance (Newton step norm / predictor root)"),
    ("max_iter", int, None, "engine iteration cap"),
    ("tau_probes", str, _probe_spec(DEFAULT_PROBES),
     f"comma-separated probe times (default {_probe_spec(DEFAULT_PROBES)})"),
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
_NOT_REFINE = ("N", "M")  # refine's meshes come from base_N and levels
# Seconds the surface.csv writer sleeps, without the GIL, each time it
# finds that the march has not yet stored the layers of its next chunk
POLL_S = 2e-5


class ConfigError(ValueError):
    """Input the CLI itself refuses; main reports it as every ValueError."""


def _fmt(x: float) -> str:
    """Fixed 9-decimal rendering of a refine.csv cell; native's writers
    format the other tables' cells byte for byte alike."""
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


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """The run's record: an attribute per OPTIONS key (defaults, then the
    --config file, then flags, then ASIANFB_OUT), and the checked
    ``market``, ``scheme_mode`` (a SchemeMode), ``probes``, ``newton`` and
    ``predictor``.  Raises ValueError for input it refuses."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    cfg["out_dir"] = os.environ.get("ASIANFB_OUT") or cfg["out_dir"]

    for key, choices in _CHOICES.items():
        if cfg[key] not in choices:
            raise ConfigError(f"{key.replace('_', '-')} must be "
                              f"{' or '.join(map(repr, choices))}, got {cfg[key]!r}")
    market = MarketParams(r=cfg["r"], q=cfg["q"], sigma=cfg["sigma"], T=cfg["T"])
    probes = _parse_probes(cfg["tau_probes"], cfg["T"])
    limits = {key: cfg[key] for key in ("tol", "max_iter") if cfg[key] is not None}
    return SimpleNamespace(**dict(
        cfg, market=market, scheme_mode=SchemeMode(cfg["scheme_mode"]), probes=probes,
        newton=NewtonConfig(**limits),
        predictor=PredictorConfig(**{k.replace("tol", "root_tol"): v for k, v in limits.items()}),
    ))


def _config_echo(cfg: SimpleNamespace, grid) -> dict:
    """Fully-resolved configuration, embedded for reproducibility."""
    p = cfg.market
    return {
        "r": p.r, "q": p.q, "sigma": p.sigma, "T": p.T,
        "N": grid.N, "M": grid.M, "L": grid.L, "eps_final": grid.eps_final,
        "engine": cfg.engine, "scheme_mode": cfg.scheme_mode.value,
        "tol": cfg.tol, "max_iter": cfg.max_iter,
        "tau_probes": _probe_spec(cfg.probes),
        "out_dir": cfg.out_dir,
    }


def _provenance() -> dict:
    """Which kernel backend and package version produced a run's results."""
    return {"kernel_backend": kernel_backend(), "asianfb_version": __version__}


def _out_paths(cfg: SimpleNamespace, *keys: str) -> list[Path]:
    """The paths of a command's output files ``keys`` (file-name options
    of cfg), in its output directory, which this makes: once per command,
    before its marches.  Raises ConfigError naming the directory where it
    cannot be made (a path that names a file, or lies below one)."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out_dir}: {exc}") from exc
    return [out_dir / getattr(cfg, key) for key in keys]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_table(path: Path, header: str, columns) -> None:
    """The CSV table of equal-length float64 columns, every cell in fixed 9
    decimals (native.write_table)."""
    with path.open("wb") as fh:
        native.write_table(fh, header, np.column_stack(columns))


class _SurfaceStream:
    """surface.csv of one solve, written on one worker thread while the
    march runs on the calling thread.

    ``ready`` is the march's callback (see results.march), called once,
    before the first layer: it starts the worker, which opens the file
    under a temporary name in the output directory and writes it with
    native.write_surface, over the march's own surface array, while the
    march runs.  The writer formats each chunk of layers once the march's
    layer count, read through the march's reader of it, says they are
    stored, and while it has caught up with the march the worker sleeps
    POLL_S at a time, without the GIL; the march makes no call per layer.
    Once it has written the last chunk, the worker closes the file,
    removes an earlier ``path`` and renames the file to it.  ``finish()``,
    once the march has returned, joins the worker and raises what the
    worker raised.  Leaving the ``with`` block stops a worker still
    waiting, joins it and removes the temporary file, so a failed solve
    leaves no surface.csv of its own and any earlier one as it was.
    """

    def __init__(self, path: Path, taus: np.ndarray, xi: np.ndarray):
        self.path, self.taus, self.xi = path, taus, xi
        # one name per solve running at the same time, in any process or thread
        self.partial = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.part")
        self.stopped = False
        self.worker = self.error = None

    def ready(self, surface: np.ndarray, published) -> None:
        self.worker = threading.Thread(target=self._write, args=(surface, published))
        self.worker.start()

    def _write(self, surface, published) -> None:
        def stored(layers):
            while published() < layers:
                if self.stopped:
                    return False
                time.sleep(POLL_S)
            return True
        try:
            with self.partial.open("wb") as fh:
                native.write_surface(fh, self.taus, self.xi, surface, stored)
            # Renaming over an existing 3.9 MB surface.csv took about 2 ms
            # more than truncating and rewriting it (ext4, whose
            # auto_da_alloc starts writing a file renamed over another back);
            # removing the old file first costs what the rewrite did.
            if not self.stopped:  # the file is whole
                self.path.unlink(missing_ok=True)
                os.replace(self.partial, self.path)
        except BaseException as exc:  # raised on the calling thread by finish()
            self.error = exc

    def _join(self) -> None:
        if self.worker is not None:
            self.worker.join()

    def finish(self) -> None:
        self._join()
        if self.error is not None:
            raise self.error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stopped = True
        self._join()
        self.partial.unlink(missing_ok=True)


def cmd_solve(cfg: SimpleNamespace) -> int:
    grid = make_grid(cfg.market, cfg.N, cfg.M, cfg.L, cfg.eps_final)
    p = cfg.market
    surface_path, boundary_path, summary_path = _out_paths(
        cfg, "surface_csv", "boundary_csv", "summary_json")
    with _SurfaceStream(surface_path, grid.taus, grid.xi) as surface:
        started = time.perf_counter()
        result = run_engine(cfg.engine, p, grid, cfg.scheme_mode,
                            cfg.newton, cfg.predictor, ready=surface.ready)
        marched = time.perf_counter()
        surface.finish()
        tail = time.perf_counter() - marched
        elapsed = marched - started

    _write_table(boundary_path, "tau,rho,xf_t,t",
                 (result.taus, result.rho, 1.0 / result.rho, p.T - result.taus))

    record = result.diagnostics
    iterations = record.iterations
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
        "max_residual_f1": _round9(record.residual_f1.max()),
        "max_residual_f2": _round9(record.residual_f2.max()),
        # scale-free, so of rounding size: not rounded to 9 decimals
        "max_backward_error": float(record.backward_error.max()),
        "dominance_violations": int(record.dominance_violations.sum()),
        "onesided_rows_max": int(record.onesided_rows.max()),
        "predictor_fallback_layers": (np.flatnonzero(record.predictor_fallback) + 1).tolist(),
    }
    summary["outputs"] = {"boundary_csv": boundary_path.name,
                          "surface_csv": surface_path.name}
    summary["config"] = _config_echo(cfg, grid)
    summary.update(_provenance())
    _write_json(summary_path, summary)

    print(f"solve: engine={cfg.engine} N={grid.N} M={grid.M} "
          f"rho(0)={result.rho[0]:.9g} wall_time={elapsed:.3f}s surface_tail={tail:.4f}s")
    print(f"wrote {boundary_path}, {surface_path}, {summary_path}")
    return 0


def cmd_refine(cfg: SimpleNamespace) -> int:
    refine_path, = _out_paths(cfg, "refine_csv")
    started = time.perf_counter()
    report = refinement_study(
        cfg.market, base_N=cfg.base_N, levels=cfg.levels,
        mode=cfg.scheme_mode, engine=cfg.engine, probes=cfg.probes,
        L=cfg.L, eps_final=cfg.eps_final,
        newton_cfg=cfg.newton, pc_cfg=cfg.predictor,
    )
    elapsed = time.perf_counter() - started

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


def cmd_compare(cfg: SimpleNamespace) -> int:
    grid = make_grid(cfg.market, cfg.N, cfg.M, cfg.L, cfg.eps_final)
    compare_path, json_path = _out_paths(cfg, "compare_csv", "compare_json")
    started = time.perf_counter()
    record = compare_engines(cfg.market, grid, cfg.scheme_mode,
                             cfg.newton, cfg.predictor)
    elapsed = time.perf_counter() - started

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
    _write_json(json_path, payload)

    print(f"compare: max|rho_pc-rho_newton|={record.max_diff:.6g} "
          f"pc_below_fraction={record.pc_below_fraction:.3f} wall_time={elapsed:.3f}s")
    print(f"wrote {compare_path}, {json_path}")
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
    for sub, skip in ((solve, _REFINE_ONLY), (compare, _REFINE_ONLY), (refine, _NOT_REFINE)):
        sub.add_argument("--config", help="flat key = value configuration file")
        _add_flags(sub, [key for key in DEFAULTS if key not in skip])
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """main's parser, built by its first call and shared by every later
    call and thread: building one makes a help formatter per flag, each
    reading the terminal size, which cost about 1 ms a call, and parsing
    leaves the parser as it found it.  --help makes its formatter when it
    prints, so it reads the terminal as it is then."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        handler = {"solve": cmd_solve, "refine": cmd_refine, "compare": cmd_compare}
        return handler[args.command](cfg)
    except ValueError as exc:  # refused input: no march raises one
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
