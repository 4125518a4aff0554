#!/usr/bin/env python3
"""Record a paired performance comparison of this checkout into BENCH_<label>.json.

    python3 benchmarks/record.py LABEL --against DIR

It records this checkout against a second one at DIR (a ``git
worktree`` or an unpacked ``git archive`` of another commit; the tool
runs no git command).  For each N in ``PAIRED_SIZES`` it runs
``PAIRED_ROUNDS`` rounds; a round times one ``march_newton`` and one
``march_pc`` (reference point, upwind-singular, M = ceil(2.5 N)) in a
fresh process of each tree, in ABBA order (this tree first in even
rounds), each tree building and loading its kernel from a cache of its
own, and then, in the same process, the median of ``IN_PROCESS_REPEATS``
more marches of each engine, which spreads less than one fresh process's
first march.  Machine drift then reaches both sides of a round alike.
Per engine and N it writes each round's ratio (this tree's time over the
other's, so below 1 is faster), of the first marches and of the
in-process medians, each with its median and a bootstrap 95 % interval
of the median, and per engine and tree the least-squares line of the
median ms per layer (first marches) against N.  Each round also times
one default ``asianfb solve``, one default ``asianfb compare`` and one
default ``asianfb refine`` (``COMMANDS``, output files written), each in
a fresh process of each tree after a warm-up call of the same subcommand
at a small size (``WARMUP``), in the same ABBA order, right after that
tree's marches, and the file gets each command's per-round ratios with
their median and its bootstrap 95 % interval.  The file is written to
the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from asianfb.analysis import usable_cpus  # noqa: E402  (this checkout's)

REFERENCE = {"r": 0.06, "q": 0.04, "sigma": 0.2, "T": 50.0}
PAIRED_SIZES = (50, 200, 800)   # N of the paired recording
PAIRED_ROUNDS = 10              # R: rounds of the paired recording at each N
IN_PROCESS_REPEATS = 20         # marches per engine of a round's in-process median
BOOTSTRAP_SAMPLES = 2000        # resamples of the ratios for the 95 % interval
# the commands timed in each round of the paired recording, by name
COMMANDS = {"solve": ("solve",), "compare": ("compare",), "refine": ("refine",)}
# each subcommand's warm-up arguments: a small size (refine has no --N, so
# two small levels)
WARMUP = {"solve": ("--N", "20"), "compare": ("--N", "20"),
          "refine": ("--base-N", "8", "--levels", "2")}
OUT_DIR = ROOT    # where BENCH_<label>.json is written


def line_fit(sizes, ms_per_layer) -> dict:
    """Least-squares line ms per layer = intercept + slope N."""
    slope, intercept = statistics.linear_regression(sizes, ms_per_layer)
    return {"intercept_ms_per_layer": intercept, "slope_ms_per_layer_per_N": slope}


# One fresh-process sample: argv is the kernel cache, the parameters as JSON,
# N and the in-process repeats.  Small marches first pay the imports, the
# kernel load or build and first calls; then one march of each engine at N
# is timed, and then the median of the repeats of each engine.
PAIRED_CHILD = """
import json, statistics, sys, time
from pathlib import Path
import asianfb
from asianfb import MarketParams, make_grid, march_newton, march_pc
from asianfb._kernels import native
native.CACHE_DIR = Path(sys.argv[1])
p = MarketParams(**json.loads(sys.argv[2]))
marches = {"newton": march_newton, "pc": march_pc}
for march in marches.values():
    march(p, make_grid(p, N=20))
grid = make_grid(p, N=int(sys.argv[3]))

def timed(march):
    start = time.perf_counter()
    march(p, grid)
    return time.perf_counter() - start

times = {engine: timed(march) for engine, march in marches.items()}
medians = {engine: statistics.median(timed(march) for _ in range(int(sys.argv[4])))
           for engine, march in marches.items()}
print(json.dumps({"M": grid.M, "times_s": times, "median_s": medians,
                  "kernel_backend": asianfb.kernel_backend()}))
"""


# One fresh-process sample of a command: argv is the kernel cache, the
# output directory, the command's arguments and its warm-up arguments, both
# as JSON.  The same subcommand at a small size (WARMUP) first pays the
# imports, the kernel load or build and first calls; then the command is
# timed, its stdout discarded.
COMMAND_CHILD = """
import contextlib, io, json, sys, time
from pathlib import Path
import asianfb
from asianfb import cli
from asianfb._kernels import native
native.CACHE_DIR = Path(sys.argv[1])
out = ["--out-dir", sys.argv[2]]
argv, warmup = json.loads(sys.argv[3]), json.loads(sys.argv[4])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main([argv[0], *warmup, *out]) == 0
    start = time.perf_counter()
    assert cli.main([*argv, *out]) == 0
    elapsed = time.perf_counter() - start
print(json.dumps({"time_s": elapsed, "kernel_backend": asianfb.kernel_backend()}))
"""


def child_run(tree: Path, *argv: str) -> dict:
    """The JSON line printed by ``python -c argv...`` run on ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("ASIANFB_OUT", None)
    done = subprocess.run([sys.executable, "-c", *argv], env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout)


def paired_sample(tree: Path, cache: Path, n: int) -> dict:
    """Times of one fresh-process march of each engine at N, and the median
    of IN_PROCESS_REPEATS more in the same process, from ``tree``'s sources."""
    return child_run(tree, PAIRED_CHILD, str(cache), json.dumps(REFERENCE), str(n),
                     str(IN_PROCESS_REPEATS))


def command_sample(tree: Path, cache: Path, out: Path, argv: tuple[str, ...]) -> dict:
    """Time of one fresh-process ``asianfb argv...`` command, after a warm-up
    call of its subcommand with WARMUP's arguments, from ``tree``'s sources."""
    return child_run(tree, COMMAND_CHILD, str(cache), str(out), json.dumps(argv),
                     json.dumps(WARMUP[argv[0]]))


def median_interval(values: list[float]) -> list[float]:
    """Bootstrap 95 % interval of the median of ``values`` (fixed seed)."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(BOOTSTRAP_SAMPLES))
    return [medians[int(0.025 * BOOTSTRAP_SAMPLES)],
            medians[int(0.975 * BOOTSTRAP_SAMPLES) - 1]]


def paired(against: Path) -> dict:
    """ABBA rounds of fresh-process marches of this checkout and ``against``."""
    trees = {"this": ROOT, "against": against}
    runs, commands, backends = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in PAIRED_SIZES:
            for round_ in range(PAIRED_ROUNDS):
                order = ("this", "against") if round_ % 2 == 0 else ("against", "this")
                for side in order:
                    sample = paired_sample(trees[side], Path(tmp) / side, n)
                    backends[side] = sample.pop("kernel_backend")
                    runs.append({"N": n, "round": round_, "tree": side, **sample})
                    for name, argv in COMMANDS.items():
                        sample = command_sample(trees[side], Path(tmp) / side,
                                                Path(tmp) / "out", argv)
                        if sample.pop("kernel_backend") != backends[side]:
                            raise RuntimeError(f"{side}: {name} ran another kernel backend")
                        commands.append({"command": name, "N": n, "round": round_,
                                         "tree": side, **sample})
    engines = {}
    for engine in ("newton", "pc"):
        by_n, median_ms = [], {"this": [], "against": []}
        for n in PAIRED_SIZES:
            picked = [run for run in runs if run["N"] == n]
            times, medians = ({side: [run[key][engine] for run in picked if run["tree"] == side]
                               for side in trees} for key in ("times_s", "median_s"))
            ratios, in_process = ([mine / theirs for mine, theirs in zip(t["this"], t["against"])]
                                  for t in (times, medians))
            layers = picked[0]["M"]
            for side in trees:
                median_ms[side].append(1e3 * statistics.median(times[side]) / layers)
            by_n.append({"N": n, "M": layers, "this_s": times["this"],
                         "against_s": times["against"], "ratios": ratios,
                         "median_ratio": statistics.median(ratios),
                         "median_ratio_ci95": median_interval(ratios),
                         "in_process": {"repeats": IN_PROCESS_REPEATS,
                                        "this_median_s": medians["this"],
                                        "against_median_s": medians["against"],
                                        "ratios": in_process,
                                        "median_ratio": statistics.median(in_process),
                                        "median_ratio_ci95": median_interval(in_process)}})
            for label, ratio in (("", by_n[-1]), (" in process", by_n[-1]["in_process"])):
                print(f"paired {engine} N={n}{label}: median ratio {ratio['median_ratio']:.3f} "
                      f"(95 % {ratio['median_ratio_ci95'][0]:.3f} .. "
                      f"{ratio['median_ratio_ci95'][1]:.3f})", file=sys.stderr)
        fit = {side: line_fit(PAIRED_SIZES, median_ms[side]) for side in trees}
        fit["intercept_ratio"] = fit["this"]["intercept_ms_per_layer"] / \
            fit["against"]["intercept_ms_per_layer"]
        engines[engine] = {"by_N": by_n, "median_ms_per_layer": median_ms, "fit": fit}
    by_command = {}
    for name, argv in COMMANDS.items():
        picked = [run for run in commands if run["command"] == name]
        times = {side: [run["time_s"] for run in picked if run["tree"] == side]
                 for side in trees}
        ratios = [mine / theirs for mine, theirs in zip(times["this"], times["against"])]
        command = by_command[name] = {
            "argv": ["asianfb", *argv], "this_s": times["this"], "against_s": times["against"],
            "ratios": ratios, "median_ratio": statistics.median(ratios),
            "median_ratio_ci95": median_interval(ratios), "runs": picked}
        print(f"paired {' '.join(command['argv'])}: median ratio {command['median_ratio']:.3f} "
              f"(95 % {command['median_ratio_ci95'][0]:.3f} .. "
              f"{command['median_ratio_ci95'][1]:.3f})", file=sys.stderr)
    return {"rounds": PAIRED_ROUNDS, "sizes": list(PAIRED_SIZES), "order": "ABBA",
            "params": REFERENCE, "mode": "upwind-singular", "M": "ceil(2.5 N)",
            "ratio": "this tree's time over the other's, per round",
            "kernel_backend": backends, "engines": engines, "runs": runs,
            "commands": by_command}


def environment() -> dict:
    """Versions, the machine, and in ``nproc`` the CPUs this process may run
    on, which set the threads of compare and refine (analysis.usable_cpus)."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": usable_cpus(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--against", metavar="DIR", type=Path, required=True,
                        help="record paired against the checkout at DIR")
    args = parser.parse_args(argv)
    path = OUT_DIR / f"BENCH_{args.label}.json"
    record = {"label": args.label, "against": args.against.resolve().name,
              "environment": environment(), "paired": paired(args.against.resolve())}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
