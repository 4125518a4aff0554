#!/usr/bin/env python3
"""Record the performance trajectory of this checkout into BENCH_<label>.json.

    python3 benchmarks/record.py LABEL
    python3 benchmarks/record.py LABEL --against DIR

Without ``--against`` it measures, from the sources in ``src/`` of the
checkout it sits in:

* the benchmark: ``perfbench/run.py --workload all --trace 0`` with seed
  ``SEED`` for ``SECONDS`` per workload, keeping each workload's ``env:``
  line and result line;
* the time march: ``march_newton`` and ``march_pc`` on the reference point
  (upwind-singular mode, M = ceil(2.5 N)) at N = 50, 200, 800 and 1600,
  best of ``REPEATS`` runs, with seconds per layer and iteration counts,
  and per engine the least-squares line ms per layer = intercept + slope N
  (the intercept is the cost of a layer that does not grow with N);
* the default ``asianfb refine`` (N = 50 ... 800) as a whole process, with
  ``--jobs 1`` and ``--jobs 2``, best of ``REPEATS`` runs.

The settings are fixed, and written into the file, so BENCH files from
different checkouts compare.  Every run made is kept next to its best.
One small march of each engine runs first, so a first-use kernel build
is not timed.  The file is written to the root of the checkout.

With ``--against DIR`` it makes a paired recording of this checkout
against a second one at DIR (a ``git worktree`` or an unpacked
``git archive`` of another commit; the tool runs no git command).  For
each N in ``PAIRED_SIZES`` it runs ``PAIRED_ROUNDS`` rounds; a round
times one ``march_newton`` and one ``march_pc`` (reference point,
upwind-singular, M = ceil(2.5 N)) in a fresh process of each tree, in
ABBA order (this tree first in even rounds), each tree building and
loading its kernel from a cache of its own.  Machine drift then
reaches both sides of a round alike.  Per engine and N it writes each
round's ratio (this tree's time over the other's, so below 1 is
faster) with the median and a bootstrap 95 % interval of the median,
and per engine and tree the least-squares line of the median ms per
layer against N.  Each round also times one default ``asianfb solve``
(``SOLVE_ARGV``, output files written) in a fresh process of each tree,
in the same ABBA order, right after that tree's marches, and the file
gets the command's per-round ratios with their median and its bootstrap
95 % interval.  Nothing else is measured in this mode.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MARCH_SIZES = (50, 200, 800, 1600)
REFERENCE = {"r": 0.06, "q": 0.04, "sigma": 0.2, "T": 50.0}
SEED = 0          # perfbench workload seed
SECONDS = 50.0    # perfbench run length per workload
REPEATS = 3       # k: each march and refine is timed k times, best kept
PAIRED_SIZES = (50, 200, 800)   # N of the paired recording
PAIRED_ROUNDS = 10              # R: rounds of the paired recording at each N
BOOTSTRAP_SAMPLES = 2000        # resamples of the ratios for the 95 % interval
SOLVE_ARGV = ("solve",)          # the command timed in each round of the paired recording
OUT_DIR = ROOT    # where BENCH_<label>.json is written


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ASIANFB_OUT", None)
    return env


def perfbench() -> dict:
    """Each workload's env and --trace 0 result lines, as printed by perfbench."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=True)
    workloads, env = {}, None
    for line in done.stdout.splitlines():
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
        elif line.startswith("{") and env is not None:
            workloads[env["workload"]] = {"env": env, "result": json.loads(line)}
            env = None
    return {"seed": SEED, "seconds": SECONDS, "workloads": workloads}


def marches() -> list[dict]:
    """Best-of-``REPEATS`` march time per engine and N, with iteration counts."""
    from asianfb import MarketParams, make_grid, march_newton, march_pc

    p = MarketParams(**REFERENCE)
    engines = {"newton": march_newton, "pc": march_pc}
    for march in engines.values():
        march(p, make_grid(p, N=20))
    rows = []
    for n in MARCH_SIZES:
        grid = make_grid(p, N=n)
        for engine, march in engines.items():
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = march(p, grid)
                times.append(time.perf_counter() - start)
            iterations = [d.iterations for d in result.diagnostics]
            rows.append({
                "engine": engine, "N": n, "M": grid.M, "times_s": times,
                "best_s": min(times), "best_s_per_layer": min(times) / grid.M,
                "iterations": sum(iterations), "iterations_per_layer_max": max(iterations),
            })
            print(f"march {engine} N={n}: best {min(times):.3f} s "
                  f"({1e3 * min(times) / grid.M:.3f} ms/layer)", file=sys.stderr)
    return rows


def line_fit(sizes, ms_per_layer) -> dict:
    """Least-squares line ms per layer = intercept + slope N."""
    slope, intercept = statistics.linear_regression(sizes, ms_per_layer)
    return {"intercept_ms_per_layer": intercept, "slope_ms_per_layer_per_N": slope}


def layer_cost_fit(rows: list[dict]) -> dict:
    """Per engine, the least-squares fit of best ms per layer against N."""
    fit = {}
    for engine in dict.fromkeys(row["engine"] for row in rows):
        picked = [row for row in rows if row["engine"] == engine]
        fit[engine] = line_fit([row["N"] for row in picked],
                               [1e3 * row["best_s_per_layer"] for row in picked])
        print(f"fit {engine}: {fit[engine]['intercept_ms_per_layer']:.4f} ms/layer + "
              f"{1e3 * fit[engine]['slope_ms_per_layer_per_N']:.4f} us/layer per N",
              file=sys.stderr)
    return fit


# One fresh-process sample: argv is the kernel cache, the parameters as JSON
# and N.  Small marches first pay the imports, the kernel load or build and
# first calls; then one march of each engine at N is timed.
PAIRED_CHILD = """
import json, sys, time
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
times = {}
for engine, march in marches.items():
    start = time.perf_counter()
    march(p, grid)
    times[engine] = time.perf_counter() - start
print(json.dumps({"M": grid.M, "times_s": times, "kernel_backend": asianfb.kernel_backend()}))
"""


# One fresh-process sample of the command: argv is the kernel cache, the
# output directory and the command's arguments as JSON.  A solve at N = 20
# first pays the imports, the kernel load or build and first calls; then
# the command is timed, its stdout discarded.
SOLVE_CHILD = """
import contextlib, io, json, sys, time
from pathlib import Path
import asianfb
from asianfb import cli
from asianfb._kernels import native
native.CACHE_DIR = Path(sys.argv[1])
out = ["--out-dir", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--N", "20", *out]) == 0
    start = time.perf_counter()
    assert cli.main([*json.loads(sys.argv[3]), *out]) == 0
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
    """Times of one fresh-process march of each engine at N, from ``tree``'s sources."""
    return child_run(tree, PAIRED_CHILD, str(cache), json.dumps(REFERENCE), str(n))


def solve_sample(tree: Path, cache: Path, out: Path) -> dict:
    """Time of one fresh-process ``SOLVE_ARGV`` command, from ``tree``'s sources."""
    return child_run(tree, SOLVE_CHILD, str(cache), str(out), json.dumps(SOLVE_ARGV))


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
    runs, solves, backends = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in PAIRED_SIZES:
            for round_ in range(PAIRED_ROUNDS):
                order = ("this", "against") if round_ % 2 == 0 else ("against", "this")
                for side in order:
                    sample = paired_sample(trees[side], Path(tmp) / side, n)
                    backends[side] = sample.pop("kernel_backend")
                    runs.append({"N": n, "round": round_, "tree": side, **sample})
                    sample = solve_sample(trees[side], Path(tmp) / side, Path(tmp) / "out")
                    if sample.pop("kernel_backend") != backends[side]:
                        raise RuntimeError(f"{side}: the solve ran another kernel backend")
                    solves.append({"N": n, "round": round_, "tree": side, **sample})
    engines = {}
    for engine in ("newton", "pc"):
        by_n, median_ms = [], {"this": [], "against": []}
        for n in PAIRED_SIZES:
            picked = [run for run in runs if run["N"] == n]
            times = {side: [run["times_s"][engine] for run in picked if run["tree"] == side]
                     for side in trees}
            ratios = [mine / theirs for mine, theirs in zip(times["this"], times["against"])]
            layers = picked[0]["M"]
            for side in trees:
                median_ms[side].append(1e3 * statistics.median(times[side]) / layers)
            by_n.append({"N": n, "M": layers, "this_s": times["this"],
                         "against_s": times["against"], "ratios": ratios,
                         "median_ratio": statistics.median(ratios),
                         "median_ratio_ci95": median_interval(ratios)})
            print(f"paired {engine} N={n}: median ratio {by_n[-1]['median_ratio']:.3f} "
                  f"(95 % {by_n[-1]['median_ratio_ci95'][0]:.3f} .. "
                  f"{by_n[-1]['median_ratio_ci95'][1]:.3f})", file=sys.stderr)
        fit = {side: line_fit(PAIRED_SIZES, median_ms[side]) for side in trees}
        fit["intercept_ratio"] = fit["this"]["intercept_ms_per_layer"] / \
            fit["against"]["intercept_ms_per_layer"]
        engines[engine] = {"by_N": by_n, "median_ms_per_layer": median_ms, "fit": fit}
    times = {side: [run["time_s"] for run in solves if run["tree"] == side] for side in trees}
    ratios = [mine / theirs for mine, theirs in zip(times["this"], times["against"])]
    command = {"argv": ["asianfb", *SOLVE_ARGV], "this_s": times["this"],
               "against_s": times["against"], "ratios": ratios,
               "median_ratio": statistics.median(ratios),
               "median_ratio_ci95": median_interval(ratios), "runs": solves}
    print(f"paired {' '.join(command['argv'])}: median ratio {command['median_ratio']:.3f} "
          f"(95 % {command['median_ratio_ci95'][0]:.3f} .. "
          f"{command['median_ratio_ci95'][1]:.3f})", file=sys.stderr)
    return {"rounds": PAIRED_ROUNDS, "sizes": list(PAIRED_SIZES), "order": "ABBA",
            "params": REFERENCE, "mode": "upwind-singular", "M": "ceil(2.5 N)",
            "ratio": "this tree's time over the other's, per round",
            "kernel_backend": backends, "engines": engines, "runs": runs,
            "command": command}


def refine() -> dict:
    """Whole-process wall time of the default refine with --jobs 1 and 2."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in (1, 2):
            argv = [sys.executable, "-m", "asianfb.cli", "refine", "--jobs", str(jobs),
                    "--out-dir", tmp]
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL, check=True)
                times.append(time.perf_counter() - start)
            out[f"jobs{jobs}"] = {"times_s": times, "best_s": min(times)}
            print(f"refine --jobs {jobs}: best {min(times):.3f} s", file=sys.stderr)
    return out


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="record paired against the checkout at DIR")
    args = parser.parse_args(argv)
    path = OUT_DIR / f"BENCH_{args.label}.json"
    if args.against is not None:
        record = {"label": args.label, "against": args.against.resolve().name,
                  "environment": environment(), "paired": paired(args.against.resolve())}
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
        return 0

    sys.path.insert(0, str(SRC))
    import asianfb

    record = {"label": args.label, "git_commit": git_commit()}
    rows = marches()
    record["march"] = {"repeats": REPEATS, "params": REFERENCE,
                       "mode": "upwind-singular", "M": "ceil(2.5 N)",
                       "rows": rows, "fit": layer_cost_fit(rows)}
    record["kernel_backend"] = asianfb.kernel_backend()  # chosen by the marches above
    record["environment"] = environment()
    record["refine"] = {"repeats": REPEATS, "command": "asianfb refine --jobs J",
                        **refine()}
    record["perfbench"] = perfbench()
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
