#!/usr/bin/env python3
"""Compare benchmark results of two builds, per workload and metric.

    python3 perfbench/run.py --workload all --seed 1 > before.log   # on the parent
    python3 perfbench/run.py --workload all --seed 1 > after.log    # on the change
    python3 perfbench/compare.py before.log after.log

Each log holds the stdout of one or more runs of run.py.  Every result
line is paired with the ``env:`` line printed just before it.  The table
shows each side's median over its runs and the change as a share of the
first side.  A comparison whose two sides ran different kernel backends,
or mixed backends within one side, is flagged: the native and pure
kernels differ by 1.6-38x, so such a comparison measures the build, not
the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def read_log(path: str) -> tuple[dict, set[str]]:
    """(workload -> metric -> [values], kernel backends seen) from one log."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    backends: set[str] = set()
    env = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("env: "):
                env = json.loads(line[len("env: "):])
            elif line.startswith("{") and env is not None:
                result = json.loads(line)
                backends.add(env["kernel_backend"])
                for name, entry in result["metrics"].items():
                    values[env["workload"]][name].append(entry["value"])
                env = None
    return values, backends


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (a, backends_a), (b, backends_b) = read_log(argv[0]), read_log(argv[1])
    if len(backends_a | backends_b) > 1:
        print(f"WARNING: kernel backends differ ({argv[0]}: {sorted(backends_a)}, "
              f"{argv[1]}: {sorted(backends_b)}); this compares builds, not changes")
    print(f"{'workload':<18}{'metric':<36}{'n':>5}{'median a':>14}{'median b':>14}{'b/a-1':>9}")
    for workload in sorted(set(a) & set(b)):
        for name in a[workload]:
            if name not in b[workload]:
                continue
            ma, mb = statistics.median(a[workload][name]), statistics.median(b[workload][name])
            change = f"{mb / ma - 1:+.1%}" if ma else "n/a"
            n = min(len(a[workload][name]), len(b[workload][name]))
            print(f"{workload:<18}{name:<36}{n:>5}{ma:>14.6g}{mb:>14.6g}{change:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
