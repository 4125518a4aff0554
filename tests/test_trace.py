"""Smoke test of the benchmark's trace mode (perfbench/run.py --trace 1).

The tracer finds what it times by name: the functions in each module's
``__all__``, ``tridiag.thomas_solve``, each backend's ``thomas`` and the
marches, whose hook records their iterations.  Here ``solve`` and
``compare`` run at N = 16 under the tracer, and the per-layer counts
must match the marches they traced, so a renamed or moved hook fails
here.  The tracer opens a time layer at a call of
``solver_newton.newton_layer`` or ``solver_pc.predictor``, names that
no module defines: a march runs every layer in one native.march call,
the only way into the kernel's layers, so it opens none.
"""

import json
import sys
from pathlib import Path

from asianfb import cli

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import metrics, tracer  # noqa: E402

N = 16


def traced(command, out_dir):
    """Time layers per engine and per-layer metrics of one CLI call at N = 16."""
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        assert cli.main([command, "--N", str(N), "--out-dir", str(out_dir)]) == 0
    bytes_out = sum(path.stat().st_size for path in out_dir.iterdir())
    layers = tuple(sum(1 for tl in tr.time_layers if tl.engine == engine)
                   for engine in ("newton", "pc"))
    return layers, {name: value for name, (value, _) in
                    metrics.layer_metrics(tr, bytes_out).items()}


def test_traced_solve_and_compare(tmp_path):
    layers, m = traced("solve", tmp_path / "solve")
    iterations = json.loads((tmp_path / "solve" / "summary.json").read_text())["iterations"]
    assert layers == (0, 0)
    assert m["solver_newton.iterations"] == iterations["total"]
    # the compiled kernel runs each layer of either engine, eliminations
    # included, in its own C calls
    assert m["tridiag.solves"] == 0

    layers, m = traced("compare", tmp_path / "compare")
    assert layers == (0, 0)
    assert m["solver_newton.iterations"] == iterations["total"]
    assert m["solver_pc.root_iters"] > 0
    assert m["tridiag.solves"] == 0
    assert m["kernels.flops_computed"] == 0
