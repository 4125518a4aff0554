#!/usr/bin/env python3
"""Benchmark of the asianfb command line.

    python3 perfbench/run.py --workload solve-default --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1

Each workload (see workloads.py) is a closed loop of ``asianfb.cli.main``
calls made from this process, one after another, run from the source tree
in ``src/``.  Every call's outputs are checked (see check.py).

--trace 0 times the calls with nothing wrapped and reports the end-to-end
metrics.  A shared virtual machine can run up to 1.7x slower for minutes
at a time (seen on a 2-vCPU Intel Xeon VM), so the times are taken in
pairs: each call of the program is paired with the same call of
``pinned_asianfb``, a frozen copy of the program, made just before or
after it (the order alternates).  A time is reported as the median over
the pairs of the program's time over the copy's, times a fixed scale,
the copy's own time (``workloads.PINNED_CALL_S``, ``PINNED_SETUP_S``).
The metrics are ``wall_s`` (time of one call), ``setup_s`` (time for a
fresh interpreter to import ``asianfb.cli``, paired with importing the
copy) and ``peak_rss_mb`` (peak resident memory of this process, read
after the first call, which is not timed, and before the copy is
loaded).  The raw medians of both sides are printed too.  ``fail_frac``
is printed by name and carried by the ``attempted`` and ``failed``
fields of the result.

--trace 1 alternates untraced and traced calls and reports the per-layer
metrics of the traced ones (see tracer.py), including ``trace.overhead_s``,
the traced minus the untraced median wall time.  The spans of the last
traced call are written to ``.bench_out/spans-<workload>-seed<seed>.csv``.

The last line of stdout is the result as one JSON object; the line before
it records the environment (kernel backend, versions, nproc, git commit).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PINNED = "perfbench.pinned_asianfb"  # frozen copy of the program, the timing reference

sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402


def _result_line(failures: int, attempted: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import asianfb
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "kernel_backend": asianfb.kernel_backend(),
        "asianfb_version": asianfb.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_commit": _git_commit(),
    }


def _import_seconds(module: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def time_pair(index: int, own_call, pinned_call) -> tuple[float, float]:
    """(program, pinned copy) seconds of one pair; odd pairs run the copy first."""
    if index % 2:
        pinned = pinned_call()
        return own_call(), pinned
    own = own_call()
    return own, pinned_call()


def pair_ratios(own: list[float], pinned: list[float]) -> list[float]:
    """Each pair's time of the program divided by that of the pinned copy."""
    return [a / b for a, b in zip(own, pinned, strict=True)]


def measure_setup() -> float:
    """Fresh-interpreter import time of asianfb.cli, normalised by pairing.

    Each repeat imports ``asianfb.cli`` and ``PINNED.cli`` in fresh
    interpreters, in alternating order; the median ratio of the pairs
    scales ``workloads.PINNED_SETUP_S``.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    env.pop("ASIANFB_OUT", None)
    own, pinned = zip(*(time_pair(repeat, lambda: _import_seconds("asianfb.cli", env),
                                  lambda: _import_seconds(f"{PINNED}.cli", env))
                        for repeat in range(SETUP_REPEATS)))
    ratio = statistics.median(pair_ratios(own, pinned))
    print(f"setup_s: {SETUP_REPEATS} pairs, asianfb.cli median {statistics.median(own):.4f} s, "
          f"pinned median {statistics.median(pinned):.4f} s, median ratio {ratio:.4f}")
    return ratio * workloads.PINNED_SETUP_S


class Runner:
    """Runs and checks the invocations of one workload at one seed."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        import asianfb.cli
        from perfbench.check import check_invocation, load_references

        self.cli = asianfb.cli  # main is looked up per call, so tracing can wrap it
        self.pinned_cli = None    # loaded by load_pinned(), only for the timed pass
        self.check = check_invocation
        self.references = load_references()
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.attempted = 0
        self.failed = 0

    def invoke(self, argv: list[str], cli=None) -> tuple[float, int]:
        """Call a CLI (by default the program's) once in a fresh output directory.

        Returns (wall seconds, exit code).
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = (cli or self.cli).main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed invocation, not a crashed run
            sink.write(traceback.format_exc())
            code = -1
        wall = time.perf_counter() - start
        if code != 0:
            print(sink.getvalue(), file=sys.stderr)
        return wall, code

    def fail(self, reasons: list[str]) -> None:
        """Count one failure and print each of its reasons."""
        self.failed += 1
        for reason in reasons:
            print(f"FAIL call {self.attempted}: {reason}", file=sys.stderr)

    def run_checked(self, argv: list[str], check: bool = True) -> float:
        wall, code = self.invoke(argv)
        self.attempted += 1
        reasons = (self.check(self.workload, self.seed, code, self.out_dir, self.references)
                   if check else ([] if code == 0 else [f"exit status {code}"]))
        if reasons:
            self.fail(reasons)
        return wall

    def bytes_out(self) -> int:
        return sum(path.stat().st_size for path in self.out_dir.iterdir())

    def warm_up(self) -> None:
        """One small call of the same command, so lazy set-up is not timed."""
        self.run_checked(workloads.warmup_argv(self.workload, self.seed, str(self.out_dir)),
                         check=False)

    def load_pinned(self) -> None:
        """Import the pinned copy of the program and warm it up like the program."""
        self.pinned_cli = importlib.import_module(f"{PINNED}.cli")
        self.run_pinned(workloads.warmup_argv(self.workload, self.seed, str(self.out_dir)))

    def run_pinned(self, argv: list[str]) -> float:
        """Wall seconds of one call of the pinned copy, which must not fail."""
        wall, code = self.invoke(argv, self.pinned_cli)
        if code != 0:
            raise RuntimeError(f"the pinned copy {PINNED} exited {code}")
        return wall


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether to start another call or pair like the last, which took ``last``.

    The run may overrun ``seconds`` by half of one.
    """
    return time.perf_counter() - start + last / 2 < seconds


def timed_pass(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    """Paired calls of the program and its pinned copy (see the module docstring)."""
    argv = workloads.cli_argv(runner.workload, runner.seed, str(runner.out_dir))
    start = time.perf_counter()
    # The first full-size call in a process runs slower than later ones (its
    # pair ratio read 1.02-1.33 where later pairs read about 1): checked only.
    runner.run_checked(argv)
    # Read before the pinned copy is loaded, so only the program's memory counts.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.load_pinned()
    own, pinned = [], []
    while not own or _time_left(start, seconds, own[-1] + pinned[-1]):
        pair = time_pair(len(own), lambda: runner.run_checked(argv),
                         lambda: runner.run_pinned(argv))
        own.append(pair[0])
        pinned.append(pair[1])
    ratios = pair_ratios(own, pinned)
    ratio = statistics.median(ratios)
    print(f"wall_s: {len(own)} pairs, asianfb median {statistics.median(own):.4f} s "
          f"(min {min(own):.4f}, max {max(own):.4f}), pinned median "
          f"{statistics.median(pinned):.4f} s, pair ratios median {ratio:.4f}: "
          + " ".join(f"{r:.4f}" for r in ratios))
    return {"wall_s": (ratio * workloads.PINNED_CALL_S[runner.workload], "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def traced_pass(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    from perfbench import metrics, tracer

    argv = workloads.cli_argv(runner.workload, runner.seed, str(runner.out_dir))
    untraced, traced, per_call = [], [], []
    start = time.perf_counter()
    while not traced or _time_left(start, seconds, untraced[-1]):
        if len(untraced) <= len(traced):
            untraced.append(runner.run_checked(argv))
            continue
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            traced.append(runner.run_checked(argv))
        per_call.append(metrics.layer_metrics(tr, runner.bytes_out()))
        last = tr
    for name in metrics.EXACT_COUNTS:
        values = {call[name][0] for call in per_call}
        if len(values) > 1:
            runner.fail([f"count {name} differs between traced calls: {sorted(values)}"])
    combined = {name: (statistics.median(call[name][0] for call in per_call), unit)
                for name, (_, unit) in per_call[0].items()}
    combined["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    print(f"traced calls: {len(traced)}, untraced calls: {len(untraced)}, "
          f"traced wall median {statistics.median(traced):.4f} s")
    print(metrics.band_table(last))
    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"spans-{runner.workload}-seed{runner.seed}.csv"
    tracer.write_spans(last, spans_path)
    print(f"wrote {len(last.spans)} spans to {spans_path.relative_to(ROOT)}")
    return combined


def run_one(args) -> int:
    if not (SRC / "asianfb" / "cli.py").is_file():
        print(f"error: no asianfb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ASIANFB_OUT", None)  # the CLI would let it override --out-dir
    import asianfb
    if not Path(asianfb.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported asianfb from {asianfb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, out_dir)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{' '.join(workloads.cli_argv(args.workload, args.seed, '<out>'))}")
    try:
        metrics: dict[str, tuple[float, str]] = {}
        if not args.trace:
            metrics["setup_s"] = (measure_setup(), "s")
        runner.warm_up()
        if args.trace:
            metrics.update(traced_pass(runner, args.seconds))
        else:
            metrics.update(timed_pass(runner, args.seconds))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    fails = runner.failed
    print(f"fail_frac = {fails / runner.attempted:.6g} ratio "
          f"({fails} failed of {runner.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("env: " + json.dumps(environment(args)))
    print(_result_line(fails, runner.attempted, metrics))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    failures = attempted = 0
    combined: dict[str, tuple[float, str]] = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        attempted += result["attempted"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(failures, attempted, combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure for about this long; the last call (or pair of "
                             "calls) ends within half of one of it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
