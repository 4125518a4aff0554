#!/usr/bin/env python3
"""Record the performance trajectory of this checkout into BENCH_<label>.json.

    python3 benchmarks/record.py LABEL

It measures, from the sources in ``src/`` of the checkout it sits in:

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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def layer_cost_fit(rows: list[dict]) -> dict:
    """Per engine, the least-squares fit of best ms per layer against N."""
    fit = {}
    for engine in dict.fromkeys(row["engine"] for row in rows):
        picked = [row for row in rows if row["engine"] == engine]
        slope, intercept = statistics.linear_regression(
            [row["N"] for row in picked], [1e3 * row["best_s_per_layer"] for row in picked])
        fit[engine] = {"intercept_ms_per_layer": intercept, "slope_ms_per_layer_per_N": slope}
        print(f"fit {engine}: {intercept:.4f} ms/layer + {1e3 * slope:.4f} us/layer per N",
              file=sys.stderr)
    return fit


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


def git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import asianfb
    import numpy

    record = {"label": args.label, "git_commit": git_commit()}
    rows = marches()
    record["march"] = {"repeats": REPEATS, "params": REFERENCE,
                       "mode": "upwind-singular", "M": "ceil(2.5 N)",
                       "rows": rows, "fit": layer_cost_fit(rows)}
    record["kernel_backend"] = asianfb.kernel_backend()  # chosen by the marches above
    record["environment"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                             "nproc": os.cpu_count(), "machine": platform.machine()}
    record["refine"] = {"repeats": REPEATS, "command": "asianfb refine --jobs J",
                        **refine()}
    record["perfbench"] = perfbench()
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
