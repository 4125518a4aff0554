"""Benchmark workloads: which CLI command each one runs, with which inputs.

Every workload is a closed loop of ``asianfb.cli.main(argv)`` calls made
one after another from a single process (no worker processes).  The
workload seed fixes the market parameters passed to the CLI as flags:
seed 0 is the paper's reference point (r=0.06, q=0.04, sigma=0.2, T=50);
any other seed draws r from [0.05, 0.07], q from [0.03, 0.045] and sigma
from [0.18, 0.22] with T=50.  The box keeps r > q, so the default domain
length L = 5 ln rho(0) stays valid, and it keeps the Newton iteration
count within about 1 % of the reference point, so a run's work does not
depend much on its seed.
"""

from __future__ import annotations

import random

REFERENCE_PARAMS = {"r": 0.06, "q": 0.04, "sigma": 0.2, "T": 50.0}

# Why each workload exists; run.py --help and BENCHMARK.json repeat these.
WORKLOADS = {
    "solve-default": (
        "asianfb solve at defaults (Newton, N=200, M=500), writing the 3.9 MB "
        "surface.csv: output formatting and per-iterate Python overhead dominate"
    ),
    "compare-default": (
        "asianfb compare at defaults: the only workload that runs the "
        "predictor-corrector engine next to Newton"
    ),
}

# The scale of the reported times, which are the program's time divided by
# that of the pinned copy (perfbench/pinned_asianfb), paired call by call
# (see run.py): rounded medians of the pinned copy's time for one call of
# each workload and for a fresh interpreter importing its cli, over the
# runs made when the benchmark was defined, on a 2-vCPU Intel Xeon VM at
# 2.0 GHz with the pure kernel.  That VM's speed varied by up to 1.7x, so
# these are a fixed scale, not a measurement to compare against.
PINNED_CALL_S = {"solve-default": 1.5, "compare-default": 1.4}
PINNED_SETUP_S = 0.35

_COMMAND_FLAGS = {
    "solve-default": ["solve"],
    "compare-default": ["compare"],
}

# A small invocation of the same command, run once before timing so that
# lazy imports and first-call costs are paid outside the timed region.
_WARMUP_FLAGS = {
    "solve-default": ["solve", "--N", "20"],
    "compare-default": ["compare", "--N", "20"],
}


def market_params(seed: int) -> dict[str, float]:
    """Market parameters for a workload seed, rounded as passed to the CLI."""
    if seed == 0:
        return dict(REFERENCE_PARAMS)
    rng = random.Random(seed)
    drawn = {"r": rng.uniform(0.05, 0.07), "q": rng.uniform(0.03, 0.045),
             "sigma": rng.uniform(0.18, 0.22)}
    params = {key: round(value, 6) for key, value in drawn.items()}
    params["T"] = REFERENCE_PARAMS["T"]
    return params


def _param_flags(seed: int) -> list[str]:
    flags = []
    for key, value in market_params(seed).items():
        flags += [f"--{key}", repr(value)]
    return flags


def cli_argv(workload: str, seed: int, out_dir: str) -> list[str]:
    """The argv of one timed invocation of ``workload`` at ``seed``."""
    return _COMMAND_FLAGS[workload] + _param_flags(seed) + ["--out-dir", out_dir]


def warmup_argv(workload: str, seed: int, out_dir: str) -> list[str]:
    return _WARMUP_FLAGS[workload] + _param_flags(seed) + ["--out-dir", out_dir]
