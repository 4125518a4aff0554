#!/usr/bin/env python3
"""Record the reference outputs that check.py compares each call against.

    python3 perfbench/record_references.py --seeds 16

Runs every workload's command once per seed 0 .. seeds-1 and writes the
pinned values to perfbench/references.json.  Run it only on a commit
whose solver output is trusted: the references define "correct" for
every later run of the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from asianfb.cli import main as cli_main  # noqa: E402
from perfbench import check, workloads  # noqa: E402


def record_seed(seed: int, out_dir: Path) -> dict[str, list[float]]:
    ref: dict[str, list[float]] = {}
    for workload in workloads.WORKLOADS:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(workloads.cli_argv(workload, seed, str(out_dir)))
        reasons = check.check_invocation(workload, seed, code, out_dir, {})
        if reasons:
            raise SystemExit(f"seed {seed} {workload}: {reasons}")
        for name, values in check.extract(workload, out_dir).items():
            if name in ref and ref[name] != values:
                raise SystemExit(f"seed {seed}: {workload} disagrees with solve on {name}")
            ref[name] = values
    shutil.rmtree(out_dir, ignore_errors=True)
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=16, help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args()
    out_dir = ROOT / ".bench_out" / "record"
    refs = {}
    for seed in range(args.seeds):
        refs[str(seed)] = record_seed(seed, out_dir)
        print(f"seed {seed}: {workloads.market_params(seed)}", flush=True)
    check.REFERENCES_PATH.write_text(
        "{\n" + ",\n".join(f'"{seed}": {json.dumps(ref)}' for seed, ref in refs.items())
        + "\n}\n")
    print(f"wrote {check.REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
