"""Per-layer metrics of one traced CLI call (see tracer.py for the spans).

An *iterate* is one Newton iteration or one predictor-corrector layer
(a single frozen-coefficient solve), so ``*_per_iterate`` ratios compare
the work each engine does per linear solve step.  Kernel flops and bytes
are computed from the number of rows the Thomas kernel eliminated, not
measured: 8 flops per row (forward elimination and back substitution)
and 40 bytes per row (the three diagonals and the right-hand side read
once, the solution written once).
"""

from __future__ import annotations

import numpy as np

from perfbench.tracer import ALL_LAYERS, Tracer

FLOPS_PER_ROW = 8
BYTES_PER_ROW = 40
BANDS = ("first10", "plateau", "last10")
BAND_LAYERS = ("scheme", "tridiag", "kernels", "solver_newton", "solver_pc")

# Counts that must repeat exactly from one call to the next.
EXACT_COUNTS = (
    "cli.bytes_out", "scheme.calls", "tridiag.solves", "kernels.flops_computed",
    "kernels.bytes_computed", "solver_newton.iterations",
    "solver_newton.iters_per_layer_max", "solver_pc.root_iters", "solver_pc.fallback_layers",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _band_ms_per_layer(tr: Tracer) -> dict[tuple[str, str], float]:
    """(layer, band) -> self ms per time layer of that band, over both engines."""
    band_self = tr.band_self_s()
    counts = {band: sum(1 for tl in tr.time_layers if tl.band == band) for band in BANDS}
    return {(layer, band): _ratio(band_self.get((layer, band), 0.0) * 1e3, counts[band])
            for layer in ALL_LAYERS for band in BANDS}


def _layer_ms(tr: Tracer, engine: str) -> tuple[np.ndarray, list[str]]:
    layers = [tl for tl in tr.time_layers if tl.engine == engine]
    return np.array([(tl.end - tl.start) * 1e3 for tl in layers]), [tl.band for tl in layers]


def _engine_layer_metrics(tr: Tracer, engine: str, layer: str) -> dict:
    ms, bands = _layer_ms(tr, engine)
    out = {}
    for q, label in ((50, "p50"), (98, "p98")):
        out[f"{layer}.layer_ms_{label}"] = (float(np.percentile(ms, q)) if ms.size else 0.0, "ms")
    for band in BANDS:
        picked = ms[[b == band for b in bands]] if ms.size else ms
        out[f"{layer}.layer_ms_{band}"] = (float(picked.mean()) if picked.size else 0.0, "ms")
    return out


def layer_metrics(tr: Tracer, bytes_out: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    self_s = tr.layer_self_s()
    newton_iters = sum(tr.newton_iterations)
    pc_layers = sum(1 for tl in tr.time_layers if tl.engine == "pc")
    iterates = newton_iters + pc_layers
    scheme_calls = tr.entries("scheme")
    solves = tr.calls("tridiag", "thomas_solve")
    flops = FLOPS_PER_ROW * tr.kernel_rows

    m: dict[str, tuple[float, str]] = {f"{layer}.self_s": (self_s[layer], "s")
                                       for layer in ALL_LAYERS}
    m["cli.bytes_out"] = (bytes_out, "B")
    m["scheme.calls"] = (scheme_calls, "count")
    m["scheme.calls_per_iterate"] = (_ratio(scheme_calls, iterates), "calls/iter")
    m["tridiag.solves"] = (solves, "count")
    m["tridiag.solves_per_iterate"] = (_ratio(solves, iterates), "solves/iter")
    m["kernels.ns_per_row"] = (_ratio(self_s["kernels"] * 1e9, tr.kernel_rows), "ns")
    m["kernels.flops_computed"] = (flops, "flop")
    m["kernels.bytes_computed"] = (BYTES_PER_ROW * tr.kernel_rows, "B")
    m["kernels.gflops"] = (_ratio(flops / 1e9, self_s["kernels"]), "GFLOP/s")
    m["solver_newton.iterations"] = (newton_iters, "count")
    m["solver_newton.iters_per_layer_max"] = (max(tr.newton_iterations, default=0), "count")
    m.update(_engine_layer_metrics(tr, "newton", "solver_newton"))
    m["solver_pc.root_iters"] = (tr.pc_root_iters, "count")
    m["solver_pc.fallback_layers"] = (tr.pc_fallback_layers, "count")
    m.update(_engine_layer_metrics(tr, "pc", "solver_pc"))

    bands = _band_ms_per_layer(tr)
    for layer in BAND_LAYERS:
        for band in BANDS:
            m[f"{layer}.ms_per_layer_{band}"] = (bands[layer, band], "ms")
    return m


def band_table(tr: Tracer) -> str:
    """Self ms per time layer of each layer, by band: first 10, plateau, last 10."""
    bands = _band_ms_per_layer(tr)
    counts = [sum(1 for tl in tr.time_layers if tl.band == band) for band in BANDS]
    lines = [f"{'self ms/time layer':<20}" + "".join(f"{b:>12}" for b in BANDS),
             f"{'(time layers)':<20}" + "".join(f"{c:>12}" for c in counts)]
    for layer in ALL_LAYERS:
        lines.append(f"{layer:<20}" + "".join(f"{bands[layer, b]:>12.4f}" for b in BANDS))
    return "\n".join(lines)
