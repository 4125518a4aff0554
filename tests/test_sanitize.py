"""The compiled kernel under AddressSanitizer and UBSan.

The test builds thomas.c with native.CFLAGS plus SANITIZE into a
temporary cache, and runs CHILD, a fixed script over every entry point of
the kernel, in a fresh interpreter with both sanitizer runtimes preloaded.
The shipped build and its flags do not change.
"""

import os
import subprocess
import sys

from asianfb._kernels import native

from test_kernels import child_env

SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined,float-cast-overflow",
            "-fno-sanitize-recover=all")
RUNTIMES = ("libasan.so", "libubsan.so")
BUDGET_S = 10

# argv[1] is the cache that holds the sanitized build, argv[2] the flags it
# was built with (one string), argv[3] an empty output directory.
CHILD = r"""
import contextlib, io, sys
from pathlib import Path
import numpy as np
from asianfb import MarketParams, cli, make_grid, march_newton, march_pc
from asianfb._kernels import native
from asianfb.errors import LayerFailure
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig
from asianfb.solver_pc import PredictorConfig
from asianfb.tridiag import PIVOT_RTOL, SCHUR_FLOOR

native.CACHE_DIR, native.CFLAGS = Path(sys.argv[1]), tuple(sys.argv[2].split())
out = sys.argv[3]
p = MarketParams(r=0.06, q=0.04, sigma=0.2, T=50.0)
grid = make_grid(p, N=200)

# both engines' default marches, with and without diagnostics
for march in (march_newton, march_pc):
    full, lean = march(p, grid), march(p, grid, diagnostics=False)
    assert len(full.diagnostics) == grid.M
    assert full.rho.tobytes() == lean.rho.tobytes()

# a range replay of layers 11 .. 20 from the stored layers 0 .. 10
for engine, march, cfg in (("newton", march_newton, NewtonConfig()),
                           ("pc", march_pc, PredictorConfig())):
    whole = march(p, grid)
    frame = native.LayerFrame(grid, p, SchemeMode.UPWIND_SINGULAR)
    frame.set_limits({"tol": cfg.tol if engine == "newton" else cfg.root_tol,
                      "max_iter": cfg.max_iter, "pivot_rtol": PIVOT_RTOL,
                      "schur_floor": SCHUR_FLOOR, "diagnostics": 1})
    rho, surface = whole.rho.copy(), whole.surface.copy()
    rho[11:], surface[11:] = 0.0, 0.0
    rows = np.zeros((grid.M, native.OUT_SLOTS))
    assert native.march(frame, engine, grid.taus.copy(), rho, surface, rows,
                        first=10, stop=20) is None
    assert native.published(frame) == 21
    assert rho[:21].tobytes() == whole.rho[:21].tobytes()

# failed layers' records: a cap reached, no positive boundary, an overflow
small = make_grid(p, N=16)
huge_q = MarketParams(r=0.06, q=1e300, sigma=0.2, T=50.0)
pc_fails = MarketParams(r=0.08429, q=0.02863, sigma=0.4697, T=28.52)
failed = []
for march, market, g, cfg in (
        (march_newton, p, small, NewtonConfig(max_iter=1)),
        (march_pc, p, small, PredictorConfig(max_iter=1)),
        (march_pc, pc_fails, make_grid(pc_fails, N=23), PredictorConfig()),
        (march_newton, huge_q, make_grid(huge_q, 8, L=1.0), NewtonConfig()),
        (march_pc, huge_q, make_grid(huge_q, 8, L=1.0), PredictorConfig())):
    with np.errstate(all="ignore"):
        try:
            march(market, g, SchemeMode.UPWIND_SINGULAR, cfg)
        except LayerFailure as exc:
            failed.append(type(exc.__cause__).__name__)
assert failed == ["NoConvergence", "NoConvergence", "NonPositiveZ", "ValueError", "ValueError"]

# thomas at n = 1, 2, odd and even, with one and two right-hand sides
rng = np.random.default_rng(0)
for n in (1, 2, 7, 8, 199, 200):
    lower, upper = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    diag = rng.uniform(2.5, 4, n)
    for rhs in (rng.uniform(-1, 1, n), rng.uniform(-1, 1, (2, n))):
        x, fail = native.thomas(lower, diag, upper, rhs, PIVOT_RTOL)
        assert fail == -1 and x.shape == rhs.shape

# both writers on cells of +-DBL_MAX, the widest a cell gets, at one unit,
# at one whole chunk and at two
top = sys.float_info.max
def cells(*shape):
    return np.resize(np.array([top, -top]), shape)
def fixed9(row):
    return ",".join("%.9f" % x for x in row).encode() + b"\r\n"
for rows in (1, native.CHUNK_CELLS // 2, native.CHUNK_CELLS):
    table = cells(rows, 2)
    fh = io.BytesIO()
    native.write_table(fh, "a,b", table)
    assert fh.getvalue() == b"a,b\r\n" + b"".join(fixed9(row) for row in table)
for n, chunks in ((1, 1), (201, 2)):
    layers = chunks * (native.CHUNK_CELLS // (3 * n))
    taus, xi, pi = cells(layers), cells(n), cells(layers, n)
    fh = io.BytesIO()
    native.write_surface(fh, taus, xi, pi)
    lines = fh.getvalue().split(b"\r\n")
    assert len(lines) == 2 + layers * n
    assert lines[-2] + b"\r\n" == fixed9([taus[-1], xi[-1], pi[-1, -1]])

# the commands, with solve's surface stream ending on a chunk boundary
# (M + 1 = 494 layers of 201 nodes, 26 chunks of 19 layers)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["solve", "--N", "200", "--M", "493"], ["compare"],
                 ["refine", "--base-N", "25", "--levels", "3"]):
        assert cli.main([*argv, "--out-dir", out]) == 0
print("done")
"""


def runtime(name):
    """The path of the sanitizer runtime ``name`` that the compiler links."""
    done = subprocess.run([native.find_compiler(), f"-print-file-name={name}"],
                          capture_output=True, text=True, check=True)
    path = done.stdout.strip()
    assert os.path.isabs(path) and os.path.exists(path), \
        f"the sanitizer runtime {name} is not installed for {native.find_compiler()}"
    return path


def test_kernel_is_clean_under_address_and_undefined_sanitizers(tmp_path, monkeypatch):
    """Every entry point of a sanitized build runs without a report: the
    marches, a range replay, failed layers, thomas and both writers."""
    assert native.find_compiler() is not None, "no C compiler 'cc' on PATH"
    preload = ":".join(runtime(name) for name in RUNTIMES)
    flags = native.CFLAGS + SANITIZE
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native, "CFLAGS", flags)
    native._build(native.library_path())
    env = dict(child_env(), LD_PRELOAD=preload, ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="print_stacktrace=1")
    env.pop("ASIANFB_OUT", None)
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "cache"), " ".join(flags),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=BUDGET_S)
    report = done.stderr
    assert done.returncode == 0 and done.stdout == "done\n", report[-4000:]
    for marker in ("Sanitizer", "runtime error"):
        assert marker not in report, report[-4000:]
