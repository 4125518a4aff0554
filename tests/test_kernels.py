import contextlib
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asianfb
from asianfb import (MarketParams, _kernels, make_grid, march_newton, march_pc, scheme,
                     solver_newton, solver_pc, tridiag)
from asianfb._kernels import native, pure
from asianfb.errors import NoBracket, NoConvergence, ZeroPivot
from asianfb.mesh import GridSpec, LayerState, initial_layer
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig, newton_layer
from asianfb.solver_pc import PredictorConfig
from asianfb.tridiag import PIVOT_RTOL, thomas_solve

from _oracles import newton_layer_numpy, numpy_layers, predictor_numpy, pure_solve
from test_tridiag import random_dominant_system

PROPERTY = settings(derandomize=True, deadline=None, database=None)
SIZES = st.integers(min_value=1, max_value=400)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COLUMNS = st.sampled_from([1, 2])

# The two sides of the kernel contract, and the solve each gives
# tridiag.thomas_solve's errors on: the pure loop's and the compiled kernel's.
BACKENDS = [pure, native]
SOLVE = {pure: pure_solve, native: thomas_solve}


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """No kernel loaded, and an empty cache directory."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "CACHE_DIR", cache)
    monkeypatch.setattr(native, "_kernel", None)
    return cache


def fake_compiler(path, script):
    """An executable shell script at ``path``, for find_compiler to return."""
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(0o755)
    return str(path)


def cache_files(cache):
    return sorted(path.name for path in cache.iterdir()) if cache.exists() else []


class TestBackendSelection:
    def test_active_name(self):
        assert _kernels.active_name() == "native"
        assert asianfb.kernel_backend() == "native"

    def test_import_compiles_and_loads_nothing(self):
        probe = ("import asianfb.cli\n"
                 "from asianfb._kernels import native\n"
                 "print(native._kernel is None)")
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_first_elimination_builds_into_the_cache(self, empty_cache, monkeypatch):
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        thomas_solve(*sys_)
        assert native._kernel is not None
        assert cache_files(empty_cache) == [native.library_path().name]
        # a second process (here: a reset) loads the cached library, with no compiler
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native.load()
        assert native._kernel is not None

    def test_error_without_compiler(self, empty_cache, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        with pytest.raises(native.KernelUnavailable) as exc:
            thomas_solve(*sys_)
        assert isinstance(exc.value, OSError)
        assert str(exc.value) == ("no C compiler: asianfb builds its kernel thomas.c with 'cc', "
                                  f"which is not on PATH (kernel cache directory {empty_cache})")
        assert native._kernel is None
        assert cache_files(empty_cache) == []

    def test_error_when_the_build_fails(self, empty_cache, tmp_path, monkeypatch):
        failing = fake_compiler(tmp_path / "cc", "echo 'thomas.c:1: error: broken' >&2\n"
                                                 "echo 'second line' >&2\nexit 1\n")
        monkeypatch.setattr(native, "find_compiler", lambda: failing)
        with pytest.raises(native.KernelUnavailable) as exc:
            native.load()
        message = str(exc.value)
        assert message.startswith(f"building the kernel failed: {failing} -O2 ")
        assert message.endswith(": exit status 1: thomas.c:1: error: broken "
                                f"(kernel cache directory {empty_cache})")
        assert "\n" not in message and "second line" not in message
        assert native._kernel is None
        assert cache_files(empty_cache) == []  # no half-written library is left

    def test_error_when_the_fresh_build_does_not_load(self, empty_cache, tmp_path,
                                                      monkeypatch):
        # a corrupt cached file, and a "compiler" whose output does not load either
        junk = fake_compiler(tmp_path / "cc",
                             'while [ "$1" != -o ]; do shift; done\necho junk > "$2"\n')
        monkeypatch.setattr(native, "find_compiler", lambda: junk)
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        with pytest.raises(native.KernelUnavailable,
                           match="^the freshly built kernel does not load: .*"
                                 r"\(kernel cache directory .*\)$"):
            native.load()
        assert native._kernel is None
        assert cache_files(empty_cache) == [native.library_path().name]

    def test_error_with_a_broken_cache_and_no_compiler(self, empty_cache, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        with pytest.raises(native.KernelUnavailable, match="^no C compiler: .*'cc'"):
            native.load()
        assert native._kernel is None
        assert native.library_path().read_bytes() == b"not a shared library"

    def test_corrupt_cached_library_is_rebuilt(self, empty_cache):
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        x = thomas_solve(*sys_)
        assert native._kernel is not None
        assert np.array_equal(x, pure.thomas(*sys_, PIVOT_RTOL)[0])
        assert cache_files(empty_cache) == [native.library_path().name]
        assert native.library_path().read_bytes() != b"not a shared library"

    def test_concurrent_cold_builds(self, tmp_path):
        cache = tmp_path / "cache"
        start_at = time.time() + 1.0  # both interpreters are up by then
        children = [subprocess.Popen([sys.executable, "-c", BUILD_AND_SOLVE, str(cache),
                                      str(seed), repr(start_at)],
                                     env=child_env(), stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for seed in (1, 2)]
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert out.strip() == "True"
        assert len(cache_files(cache)) == 1  # one library, no temporary left behind


def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run([native.find_compiler(), *native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "thomas.so"), str(native.SOURCE)],
                          capture_output=True, text=True, timeout=native.BUILD_TIMEOUT_S)
    assert done.returncode == 0, done.stderr


# Build the kernel into an empty cache (argv[1]) from a fresh interpreter at a
# set time (argv[3]) and check one solve against the pure loop.
BUILD_AND_SOLVE = """
import sys, time
from pathlib import Path
import numpy as np
from asianfb._kernels import native, pure
native.CACHE_DIR = Path(sys.argv[1])
rng = np.random.default_rng(int(sys.argv[2]))
n = 300
args = (rng.uniform(-1, 1, n - 1), rng.uniform(2.5, 4, n), rng.uniform(-1, 1, n - 1),
        rng.uniform(-5, 5, (2, n)), 1e-14)
time.sleep(max(0.0, float(sys.argv[3]) - time.time()))
x, fail = native.thomas(*args)
x_pure, fail_pure = pure.thomas(*args)
print(fail == fail_pure == -1 and x.tobytes() == x_pure.tobytes())
"""


def child_env():
    """The environment of a child interpreter that imports this asianfb."""
    src = str(Path(asianfb.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def two_column_system(seed, n, coupling=1.0):
    """A random system with two right-hand sides; coupling > 1 gives up dominance."""
    rng = np.random.default_rng(seed)
    sys = random_dominant_system(rng, n)
    rhs = np.stack((sys.rhs, rng.uniform(-5, 5, n)))
    return sys.lower * coupling, sys.diag, sys.upper * coupling, rhs


def entry_at(n, where):
    """Index of the first, an inner or the last of n entries."""
    return {"first": 0, "inner": n // 2, "last": n - 1}[where]


def solve_or_fail(solve, lower, diag, upper, rhs):
    """(solution, None) or (None, index of the ZeroPivot raised)."""
    try:
        return solve(lower, diag, upper, rhs), None
    except ZeroPivot as exc:
        return None, exc.index


class TestTwoColumnKernel:
    """A (2, n) right-hand side is one elimination that equals two single solves.

    Each property runs on both sides of the contract.
    """

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, coupling=st.floats(min_value=0.0, max_value=4.0))
    def test_columns_bitwise_equal_single_solves(self, seed, n, coupling):
        lower, diag, upper, rhs = two_column_system(seed, n, coupling)
        for solve in SOLVE.values():
            both, fail = solve_or_fail(solve, lower, diag, upper, rhs)
            first, fail_first = solve_or_fail(solve, lower, diag, upper, rhs[0])
            second, fail_second = solve_or_fail(solve, lower, diag, upper, rhs[1])
            assert fail == fail_first == fail_second
            if fail is None:
                assert both.shape == (2, n)
                assert np.array_equal(both[0], first)
                assert np.array_equal(both[1], second)

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, where=st.sampled_from(["first", "inner", "last"]))
    def test_zero_pivot_reported_at_the_same_row(self, seed, n, where):
        lower, diag, upper, rhs = two_column_system(seed, n)
        row = entry_at(n, where)
        # rows above stay dominant; this row's pivot is 0 - 0 * cp = 0 exactly
        diag[row] = 0.0
        if row > 0:
            lower[row - 1] = 0.0
        for solve in SOLVE.values():
            for right in (rhs, rhs[0], rhs[1]):
                with pytest.raises(ZeroPivot) as exc:
                    solve(lower, diag, upper, right)
                assert exc.value.index == row

    @PROPERTY
    @given(seed=SEEDS, n=SIZES,
           field=st.sampled_from(["lower", "diag", "upper", "rhs0", "rhs1"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_input_rejected(self, seed, n, field, bad):
        lower, diag, upper, rhs = two_column_system(seed, n)
        target = {"lower": lower, "diag": diag, "upper": upper,
                  "rhs0": rhs[0], "rhs1": rhs[1]}[field]
        assume(target.size > 0)
        target[seed % target.size] = bad
        for solve in SOLVE.values():
            with pytest.raises(ValueError):
                solve(lower, diag, upper, rhs)


def kernel_input(seed, n, ncol, coupling=1.0):
    """thomas() arguments: a (possibly non-dominant) system with 1 or 2 columns."""
    lower, diag, upper, rhs = two_column_system(seed, n, coupling)
    return lower, diag, upper, (rhs[0] if ncol == 1 else rhs), PIVOT_RTOL


def assert_same_result(args):
    """native.thomas and pure.thomas give the same solution bits and failing row."""
    x, fail = native.thomas(*args)
    x_pure, fail_pure = pure.thomas(*args)
    assert fail == fail_pure
    assert x.shape == x_pure.shape == args[3].shape
    assert x.tobytes() == x_pure.tobytes()
    return fail


class TestNativeMatchesPure:
    """The compiled kernel against the pure loop as the oracle."""

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, ncol=COLUMNS,
           coupling=st.floats(min_value=0.0, max_value=4.0))
    def test_solution_bits_and_failing_row(self, seed, n, ncol, coupling):
        assert_same_result(kernel_input(seed, n, ncol, coupling))

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, ncol=COLUMNS,
           where=st.sampled_from(["first", "inner", "last"]))
    def test_zero_pivot_row(self, seed, n, ncol, where):
        lower, diag, upper, rhs, rtol = kernel_input(seed, n, ncol)
        row = entry_at(n, where)
        diag[row] = 0.0
        if row > 0:
            lower[row - 1] = 0.0
        assert assert_same_result((lower, diag, upper, rhs, rtol)) == row
        assert not native.thomas(lower, diag, upper, rhs, rtol)[0].any()


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("backend", BACKENDS, ids=["pure", "native"])
class TestKernelContract:
    """Each backend checks shapes and finiteness and takes the pivot floor itself."""

    def test_rejects_mismatched_shapes(self, backend):
        lower, diag, upper, rhs = np.ones(1), np.full(2, 3.0), np.ones(1), np.ones(2)
        off = [np.ones(0), np.ones(2), np.ones((1, 1))]  # too short, too long, not 1-D
        empty = np.ones(0)
        cases = [(bad, diag, upper, rhs) for bad in off] + \
            [(lower, diag, bad, rhs) for bad in off] + \
            [(lower, np.full((2, 1), 3.0), upper, rhs),
             (empty, empty, empty, empty), (empty, empty, empty, np.ones((2, 0)))] + \
            [(lower, diag, upper, np.ones(shape))
             for shape in ((1,), (3,), (1, 2), (3, 2), (2, 1), (2, 3), (2, 2, 2))]
        message = "system must have n >= 1 rows"
        for args in cases:
            with pytest.raises(ValueError, match=message):
                backend.thomas(*args, PIVOT_RTOL)
            with pytest.raises(ValueError, match=message):
                SOLVE[backend](*args)
        assert backend.thomas(lower, diag, upper, rhs, PIVOT_RTOL)[1] == -1

    @pytest.mark.parametrize("ncol", [1, 2])
    def test_non_finite_entry_names_its_array(self, backend, ncol):
        # the arrays are overwritten in place between solves, as the engines do
        lower, diag, upper, rhs, rtol = kernel_input(4, 9, ncol)
        targets = [("lower", lower), ("diag", diag), ("upper", upper)] + \
            [("rhs", column) for column in rhs.reshape(ncol, -1)]
        for name, target in targets:
            message = f"{name} contains non-finite values"
            for where in ("first", "inner", "last"):
                i = entry_at(target.size, where)
                for bad in NON_FINITE:
                    kept, target[i] = target[i], bad
                    with pytest.raises(ValueError, match=message):
                        backend.thomas(lower, diag, upper, rhs, rtol)
                    with pytest.raises(ValueError, match=message):
                        SOLVE[backend](lower, diag, upper, rhs)
                    target[i] = kept
        assert backend.thomas(lower, diag, upper, rhs, rtol)[1] == -1

    @pytest.mark.parametrize("field", ["lower", "diag", "upper", "rhs"])
    def test_non_finite_entry_wins_over_a_zero_pivot(self, backend, field):
        lower, diag, upper, rhs, rtol = kernel_input(5, 9, 2)
        diag[0] = 0.0  # the pivot of row 0
        target = {"lower": lower, "diag": diag, "upper": upper, "rhs": rhs[1]}[field]
        target[-1] = np.nan
        with pytest.raises(ValueError, match=f"{field} contains non-finite values"):
            backend.thomas(lower, diag, upper, rhs, rtol)

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(min_value=2, max_value=60), ncol=COLUMNS,
           where=st.sampled_from(["first", "inner", "last"]), sign=st.sampled_from([1.0, -1.0]))
    def test_pivot_at_the_floor_passes_and_one_ulp_below_fails(self, backend, seed, n, ncol,
                                                                where, sign):
        lower, diag, upper, rhs, rtol = kernel_input(seed, n, ncol)
        row = entry_at(n, where)
        # the pivot of this row is diag[row] exactly, and the rows below it
        # do not see it (cp[row] = 0)
        if row > 0:
            lower[row - 1] = 0.0
        if row < n - 1:
            upper[row] = 0.0
        diag[row] = 0.0
        floor = pure.pivot_floor(diag, rtol)
        assert floor == rtol * float(np.abs(diag).max())
        diag[row] = sign * floor
        x, fail = backend.thomas(lower, diag, upper, rhs, rtol)
        assert fail == -1 and np.isfinite(x).all()
        diag[row] = sign * np.nextafter(floor, 0.0)
        assert backend.thomas(lower, diag, upper, rhs, rtol)[1] == row

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_all_zero_diagonal_fails_at_row_0(self, backend, n):
        lower, _, upper, rhs, rtol = kernel_input(6, n, 2)
        diag = np.zeros(n)
        assert pure.pivot_floor(diag, rtol) == math.ulp(0.0)
        x, fail = backend.thomas(lower, diag, upper, rhs, rtol)
        assert fail == 0
        assert not x.any()


def count_constructions(monkeypatch, cls):
    """A list that gains one entry per ``cls`` constructed."""
    built = []
    init = cls.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.fixture
def bindings_built(monkeypatch):
    """A list that gains one entry per native.FrameBinding constructed;
    nothing cached."""
    monkeypatch.setattr(native, "_last_frame", None)
    return count_constructions(monkeypatch, native.FrameBinding)


class TestNativeCache:
    """native.newton_layer and native.pc_corrector bind a march's frame
    once; native.thomas binds the arrays of each call afresh."""

    @pytest.mark.parametrize("run, expected", [
        (march_newton, 1), (march_pc, 1), (asianfb.compare_engines, 2),
    ], ids=["newton", "pc", "compare"])
    def test_one_binding_per_march(self, params, bindings_built, run, expected):
        run(params, make_grid(params, N=50))
        assert len(bindings_built) == expected

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-matrix", "own-arrays"])
    def test_alternating_systems_overwritten_in_place(self, shared):
        # a frame's two right-hand sides share its J11 views (lower, diag and
        # upper), so they alone tell the two systems apart
        lower, diag, upper, rhs, _ = kernel_input(3, 60, 2)
        a = [lower, diag, upper, rhs]
        b = [lower, diag, upper, rhs[0].copy()] if shared else \
            [x.copy() for x in (lower, diag, upper, rhs[0])]
        rng = np.random.default_rng(5)
        solved = []
        # each system solved again after an overwrite, and the two alternated
        for step, system in enumerate((a, a, b, b, a, b, a, b)):
            if step:
                fresh = kernel_input(int(rng.integers(1000)), 60, system[3].ndim)
                for array, values in zip(system, fresh):
                    array[...] = values
            args = (*system, PIVOT_RTOL)
            x, fail = native.thomas(*args)
            x_pure, fail_pure = pure.thomas(*args)
            assert fail == fail_pure == -1
            assert x.tobytes() == x_pure.tobytes()
            solved.append((x, x_pure))
        # every solution is an array of its own, untouched by later solves
        assert all(x.tobytes() == x_pure.tobytes() for x, x_pure in solved)

    @pytest.mark.parametrize("ncol", [1, 2])
    def test_solvable_call_after_a_zero_pivot(self, ncol):
        args = lower, diag, upper, rhs, rtol = kernel_input(11, 50, ncol)
        kept = diag[20], lower[19]
        diag[20] = lower[19] = 0.0
        assert assert_same_result(args) == 20
        diag[20], lower[19] = kept
        assert assert_same_result(args) == -1


@pytest.mark.parametrize("backend", BACKENDS, ids=["pure", "native"])
def test_strided_input(backend):
    """Views with strides (and a column-major rhs) solve as their contiguous copies."""
    rng = np.random.default_rng(7)
    sys_ = random_dominant_system(rng, 40)
    rhs = np.stack((sys_.rhs, rng.uniform(-5, 5, 40)))
    wide = np.zeros((4, 2 * 40))
    wide[0, ::2], wide[1, :-2:2], wide[2, :-2:2] = sys_.diag, sys_.lower, sys_.upper
    strided = (wide[1, :-2:2], wide[0, ::2], wide[2, :-2:2])
    fortran = np.asfortranarray(rhs)
    assert not strided[1].flags.c_contiguous and not fortran.flags.c_contiguous
    solve = SOLVE[backend]
    got = solve(*strided, fortran)
    want = solve(sys_.lower, sys_.diag, sys_.upper, rhs)
    single = solve(*strided, rhs.T[:, 1])
    assert got.tobytes() == want.tobytes()
    assert single.tobytes() == want[1].tobytes()


class TestFixed9Rows:
    """native.fixed9_rows, the compiled CSV cell writer (the CSV tests
    compare whole files with csv.writer's)."""

    def test_lines_and_byte_count(self):
        cells = np.array([[0.0009765625, -0.0], [-1e-12, np.nextafter(4.5e6, 0.0)]])
        out = np.full(native.fixed9_bytes(2, 2), 255, np.uint8)
        size = native.fixed9_rows(cells, out)
        assert out[:size].tobytes() == \
            b"0.000976562,-0.000000000\r\n-0.000000000,4499999.999999999\r\n"
        assert out[size:].tobytes() == b"\xff" * (out.size - size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4.5e6, -4.5e6, 1e300])
    def test_hands_back_the_first_cell_it_cannot_format(self, bad):
        cells = np.zeros((3, 2))
        cells[1, 1] = cells[2, 0] = bad
        out = np.empty(native.fixed9_bytes(3, 2), np.uint8)
        assert native.fixed9_rows(cells, out) == -1 - 3

    def test_rejects_buffers_it_could_overrun(self):
        cells = np.zeros((4, 3))
        out = np.empty(native.fixed9_bytes(4, 3), np.uint8)
        for bad_cells in (cells.astype(np.float32), cells[:, ::2], np.asfortranarray(cells),
                          cells.ravel(), np.zeros((4, 0))):
            with pytest.raises(ValueError, match="cells"):
                native.fixed9_rows(bad_cells, out)
        for bad_out in (out[:-1], out.view(np.int8), out[::2].copy()[:0]):
            with pytest.raises(ValueError, match="out"):
                native.fixed9_rows(cells, bad_out)


# (r, q, sigma) at T = 50 of the bit-identity runs: the reference point and
# perfbench's workload seeds 2, 4, 68 and 89
BIT_IDENTITY_PARAMS = {
    "ref": (0.06, 0.04, 0.2),
    "seed2": (0.069121, 0.044217, 0.182262),
    "seed4": (0.054721, 0.031547, 0.195842),
    "seed68": (0.064833, 0.044112, 0.209896),
    "seed89": (0.051622, 0.039102, 0.219909),
}
# (N, M): criterion 6's grid, and N = 50 and 200 with M = ceil(2.5 N)
BIT_IDENTITY_GRIDS = {"N8M4": (8, 4), "N50": (50, None), "N200": (200, None)}
# pc runs only up to N = 50: it makes no Newton layer call, and its marches
# at N = 200 are the slowest of the numpy twins'
PC_GRIDS = ("N8M4", "N50")

# march_digest of each run (engine, mode, parameters, grid), recorded with the
# numpy Newton loop before Newton's layer had a compiled path; the compiled
# kernel and the numpy twins of its layers (tests/_oracles.py) must both
# still give these bits.
MARCH_DIGESTS = {
    ("newton", "central", "ref", "N8M4"): "1b2710f6184f5bc2",
    ("newton", "central", "ref", "N50"): "873d8111127bdf9f",
    ("newton", "central", "ref", "N200"): "e4b93f29da24e694",
    ("newton", "central", "seed2", "N8M4"): "9d52474b19fe0d52",
    ("newton", "central", "seed2", "N50"): "aacb851c86569370",
    ("newton", "central", "seed2", "N200"): "1e905863e97426db",
    ("newton", "central", "seed4", "N8M4"): "955d08f0cfcd6aa9",
    ("newton", "central", "seed4", "N50"): "2e56e65be0d365e5",
    ("newton", "central", "seed4", "N200"): "3fda9ec23aa24bd7",
    ("newton", "central", "seed68", "N8M4"): "84fc4325c4332e22",
    ("newton", "central", "seed68", "N50"): "ec782f00f10ea38a",
    ("newton", "central", "seed68", "N200"): "967b5682e32e0be6",
    ("newton", "central", "seed89", "N8M4"): "6847d4e7dc702390",
    ("newton", "central", "seed89", "N50"): "ea3e036e889756a6",
    ("newton", "central", "seed89", "N200"): "4e9f98bf5e1d2e36",
    ("newton", "upwind-singular", "ref", "N8M4"): "f9c3d9db20125c45",
    ("newton", "upwind-singular", "ref", "N50"): "05f4f4d6315f8e82",
    ("newton", "upwind-singular", "ref", "N200"): "f02ce560cf875cba",
    ("newton", "upwind-singular", "seed2", "N8M4"): "285c3cff7c5e5960",
    ("newton", "upwind-singular", "seed2", "N50"): "76caa6aeb81e8956",
    ("newton", "upwind-singular", "seed2", "N200"): "eb47d62b002c64e7",
    ("newton", "upwind-singular", "seed4", "N8M4"): "c8aa5bc6fe0d3cff",
    ("newton", "upwind-singular", "seed4", "N50"): "8be9a4ecc0cf5955",
    ("newton", "upwind-singular", "seed4", "N200"): "cb67a00d8017d53b",
    ("newton", "upwind-singular", "seed68", "N8M4"): "b42e6ae93451f0e2",
    ("newton", "upwind-singular", "seed68", "N50"): "af68347463294d7d",
    ("newton", "upwind-singular", "seed68", "N200"): "bc4a5f19f471a5a8",
    ("newton", "upwind-singular", "seed89", "N8M4"): "370a877fa4891e0c",
    ("newton", "upwind-singular", "seed89", "N50"): "d7e338569362ae9b",
    ("newton", "upwind-singular", "seed89", "N200"): "cb0f12b9a040f4f4",
    ("pc", "central", "ref", "N8M4"): "6cdc620a9b65f9fc",
    ("pc", "central", "ref", "N50"): "819a58dff82fcdcc",
    ("pc", "central", "seed2", "N8M4"): "2662b468c929c5cd",
    ("pc", "central", "seed2", "N50"): "6fe97e44459e1b3b",
    ("pc", "central", "seed4", "N8M4"): "7cdbf0ad026bc4da",
    ("pc", "central", "seed4", "N50"): "c9e67c269f6e906b",
    ("pc", "central", "seed68", "N8M4"): "9fbfabf18d4d30f6",
    ("pc", "central", "seed68", "N50"): "cf7cd20ed75a3ea2",
    ("pc", "central", "seed89", "N8M4"): "c117662909c080b8",
    ("pc", "central", "seed89", "N50"): "31168a9cb46f6ce7",
    ("pc", "upwind-singular", "ref", "N8M4"): "31e3af54450fe8be",
    ("pc", "upwind-singular", "ref", "N50"): "a173c372f3e656fe",
    ("pc", "upwind-singular", "seed2", "N8M4"): "fad76d07a63bf370",
    ("pc", "upwind-singular", "seed2", "N50"): "e6f50d2dd229a7bf",
    ("pc", "upwind-singular", "seed4", "N8M4"): "9e9d045c8c711577",
    ("pc", "upwind-singular", "seed4", "N50"): "cb3c1354b88e4244",
    ("pc", "upwind-singular", "seed68", "N8M4"): "72fcc8a90de7763d",
    ("pc", "upwind-singular", "seed68", "N50"): "3b09fd6a221ed453",
    ("pc", "upwind-singular", "seed89", "N8M4"): "8bc41e4f6cfe6a4d",
    ("pc", "upwind-singular", "seed89", "N50"): "4ba6b1558fb868c2",
}


def march_digest(march, p, grid, mode):
    """sha256 (16 hex digits) of a march: rho, the surface, every
    LayerDiagnostics field and, after each Newton layer, the frame's row
    buffers and its (2, n) right-hand side (F1 at the accepted z, J12 of
    the last iterate)."""
    digest = hashlib.sha256()

    def observed(*args, **kwargs):
        out = original(*args, **kwargs)
        frame = kwargs["frame"]
        for row in dataclasses.fields(frame._rows):
            digest.update(getattr(frame._rows, row.name).tobytes())
        digest.update(frame.pair_rhs.tobytes())
        return out

    original = solver_newton.newton_layer
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_newton, "newton_layer", observed)
        result = march(p, grid, mode)
    digest.update(result.rho.tobytes())
    digest.update(result.surface.tobytes())
    digest.update(np.array([dataclasses.astuple(d) for d in result.diagnostics],
                           dtype=float).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_bit_identical_across_backends(march, mode):
    """The kernel's march and the march on the numpy twins of its layers."""
    engine = "newton" if march is march_newton else "pc"
    for name, (r, q, sigma) in BIT_IDENTITY_PARAMS.items():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        for grid_name, (n, m) in BIT_IDENTITY_GRIDS.items():
            if engine == "pc" and grid_name not in PC_GRIDS:
                continue
            grid = make_grid(p, N=n, M=m)
            digests = []
            for layers in (contextlib.nullcontext(), numpy_layers()):
                with layers:
                    digests.append(march_digest(march, p, grid, mode))
            assert digests == [MARCH_DIGESTS[engine, mode.value, name, grid_name]] * 2, \
                (name, grid_name, digests)


def failing_layer(case, params, patch):
    """(params, grid, prev, cfg) of a first layer that fails with ``case``,
    which may need a module constant patched."""
    if case == "NonPositiveZ":  # an r < q set, where undamped Newton overshoots
        p = MarketParams(r=0.069, q=0.085, sigma=0.51, T=24.8)
        grid = GridSpec(N=100, M=2500, L=2.0, T=p.T)
        return p, grid, initial_layer(p, grid), NewtonConfig()
    grid = make_grid(params, N=16)
    prev = initial_layer(params, grid)
    cfg = NewtonConfig()
    if case == "ValueError":
        prev.y[grid.N // 2] = np.nan
    elif case == "ZeroPivot":
        patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "SingularSchur":
        patch.setattr(tridiag, "SCHUR_FLOOR", 1e300)
    else:
        cfg = NewtonConfig(max_iter=1)
    return params, grid, prev, cfg


@pytest.mark.parametrize("case", ["NonPositiveZ", "ValueError", "ZeroPivot", "SingularSchur",
                                  "NoConvergence"])
def test_newton_layer_fails_alike_on_both_backends(params, case):
    """Each failure raises the same class, message and attributes in the
    kernel's layer and in its numpy twin; the limits patched here reach the
    compiled path from Python."""
    raised = []
    for layer in (newton_layer, newton_layer_numpy):
        with pytest.MonkeyPatch.context() as patch:
            p, grid, prev, cfg = failing_layer(case, params, patch)
            with pytest.raises(Exception) as exc:
                layer(prev, float(grid.taus[1]), grid, p, SchemeMode.UPWIND_SINGULAR, cfg)
        raised.append((type(exc.value), str(exc.value), vars(exc.value)))
    assert raised[0] == raised[1]
    kind, message, attributes = raised[0]
    assert kind.__name__ == case
    if case == "NonPositiveZ":
        assert attributes["z"] == pytest.approx(-0.513934, abs=1e-6)
    elif case == "ValueError":
        assert message == "rhs contains non-finite values"
    elif case == "NoConvergence":
        assert attributes["iterations"] == 1
        assert attributes["last_step"] >= NewtonConfig().tol


def test_predictor_iterates_bit_identical_across_backends():
    """The predictor's root, and its first iterates through the last step
    that NoConvergence reports when max_iter cuts the loop short, are the
    same bits in the kernel and in its numpy twin from every layer of a
    march."""
    for r, q, sigma in BIT_IDENTITY_PARAMS.values():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        grid = make_grid(p, N=50)
        run = march_pc(p, grid)
        for j in range(grid.M):
            prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                              z=float(run.rho[j]))
            for max_iter in (1, 2, 3, 100):
                ended = []
                for predict in (solver_pc.predictor, predictor_numpy):
                    try:
                        pred = predict(prev, float(run.taus[j + 1]), grid, p,
                                       PredictorConfig(max_iter=max_iter))
                    except (NoBracket, NoConvergence) as exc:
                        ended.append((type(exc), str(exc), vars(exc)))
                    else:
                        ended.append((pred.z, pred.iterations))
                assert ended[0] == ended[1], (r, q, sigma, j, max_iter)


def pc_layer_case(case, params, patch):
    """(prev, tau_next, frame, cfg) of a first pc layer that ends with
    ``case``, which may need a module constant patched; NoBracket's is the
    final layer, where the predictor has no root."""
    grid = make_grid(params, N=16)
    prev, tau_next, cfg = initial_layer(params, grid), float(grid.taus[1]), PredictorConfig()
    if case == "NoBracket":
        run = march_pc(params, grid)
        j = grid.M - 1
        prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                          z=float(run.rho[j]))
        tau_next = float(grid.taus[grid.M])
    elif case == "NonPositiveZ":  # a steep previous layer: the Schur step overshoots past 0
        prev.y[1:-1] *= 20.0
    elif case == "ValueError":
        prev.y[grid.N // 2] = np.nan
    elif case == "ZeroPivot":
        patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "SingularSchur":
        patch.setattr(tridiag, "SCHUR_FLOOR", 1e300)
    elif case == "NoConvergence":
        cfg = PredictorConfig(max_iter=1)
    else:  # predictor() rejects a layer at maturity
        tau_next = params.T
    return prev, tau_next, scheme.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR), cfg


@pytest.mark.parametrize("case", ["NoBracket", "NonPositiveZ", "ValueError", "ZeroPivot",
                                  "SingularSchur", "NoConvergence", "PastMaturity"])
def test_pc_layer_fails_alike_on_both_backends(params, case):
    """Each pc layer that fails raises the same class, message and attributes
    in the kernel and on the numpy twins of its layer, and the one whose
    predictor finds no root (raising the same NoBracket) returns the same
    fallback layer; the limits patched here reach the compiled path from
    Python."""
    def raised(exc):
        return type(exc), str(exc), vars(exc)

    ended = []
    for layers in (contextlib.nullcontext(), numpy_layers()):
        with layers, pytest.MonkeyPatch.context() as patch:
            prev, tau_next, frame, cfg = pc_layer_case(case, params, patch)
            try:
                state, diag = solver_pc._layer(prev, tau_next, frame, cfg)
            except Exception as exc:
                ended.append(raised(exc))
            else:
                with pytest.raises(NoBracket) as exc:
                    solver_pc.predictor(prev, tau_next, frame.g, frame.p, cfg)
                ended.append((state.y.tobytes(), state.z, dataclasses.astuple(diag),
                              raised(exc.value)))
    assert ended[0] == ended[1]
    if case == "NoBracket":
        # the fallback layer is the corrector's from z_tilde = z_prev
        corrected, _ = solver_pc._correct(frame.start(prev, tau_next), prev.z)
        assert state.z == corrected.z
        assert diag.predictor_fallback and diag.iterations == 0
        return
    kind, message, attributes = ended[0]
    assert kind.__name__ == ("ValueError" if case == "PastMaturity" else case)
    if case == "NonPositiveZ":
        assert attributes["z"] < 0
    elif case == "ValueError":
        assert message == "rhs contains non-finite values"
    elif case == "NoConvergence":
        assert attributes["iterations"] == 1
        assert attributes["last_step"] >= PredictorConfig().root_tol
    elif case == "PastMaturity":
        assert message == f"tau_next must be < T; got {params.T}"


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_eliminations_enter_through_the_traced_entry_points(params, march):
    """A tracer counts solves and rows at tridiag.thomas_solve, as bound in
    the module that calls it, and at each backend's thomas.  Each engine's
    eliminations run inside its C calls per layer (native.newton_layer,
    native.pc_corrector), so neither march makes any there."""
    grid = make_grid(params, N=40)
    calls = []

    def counting(function):
        def counted(*args, **kwargs):
            calls.append(function)
            return function(*args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for backend in BACKENDS:
            patch.setattr(backend, "thomas", counting(backend.thomas))
        for name, module in list(sys.modules.items()):
            if name.startswith("asianfb") and \
                    getattr(module, "thomas_solve", None) is thomas_solve:
                patch.setattr(module, "thomas_solve", counting(thomas_solve))
        march(params, grid)
    assert calls == []


@pytest.mark.parametrize("march, module, opener",
                         [(march_newton, solver_newton, "newton_layer"),
                          (march_pc, solver_pc, "predictor")], ids=["newton", "pc"])
def test_each_layer_opens_through_its_traced_entry_point(params, monkeypatch, march,
                                                          module, opener):
    """A tracer set on solver_newton.newton_layer or solver_pc.predictor opens
    one time layer per call, numbered prev.j + 1 of the grid's M, so each
    march must look its opener up on the module at every layer, pc's
    fallback layers included."""
    grid = make_grid(params, N=50)
    opened = []

    def counting_opener(*args, **kwargs):
        prev = args[0] if args else kwargs["prev"]
        g = args[2] if len(args) > 2 else kwargs["g"]
        opened.append((prev.j + 1, g.M))
        return original(*args, **kwargs)

    original = getattr(module, opener)
    monkeypatch.setattr(module, opener, counting_opener)
    result = march(params, grid)
    assert opened == [(j, grid.M) for j in range(1, grid.M + 1)]
    if march is march_pc:
        assert any(d.predictor_fallback for d in result.diagnostics)
