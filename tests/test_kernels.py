import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asianfb
from asianfb import MarketParams, _kernels, make_grid, march_newton, march_pc, tridiag
from asianfb._kernels import native, pure
from asianfb.errors import (LayerFailure, NoConvergence, NonPositiveZ, SingularSchur, SolverError,
                            ZeroPivot)
from asianfb.mesh import GridSpec, LayerState, initial_layer
from asianfb.scheme import SchemeMode
from asianfb.solver_newton import NewtonConfig
from asianfb.solver_pc import PredictorConfig
from asianfb.tridiag import PIVOT_RTOL, thomas_solve

from _oracles import (LayerRows, correct_numpy, frame_start, numpy_layers, one_layer,
                      predictor_numpy, pure_solve, replay, set_limits)
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

    @pytest.mark.parametrize("how", ["mkstemp fails", "cache below a file"])
    def test_error_when_the_cache_cannot_be_written(self, empty_cache, tmp_path, monkeypatch,
                                                    how):
        if how == "mkstemp fails":
            def no_space(*args, **kwargs):
                raise OSError("no space left")

            monkeypatch.setattr(native.tempfile, "mkstemp", no_space)
            cache, reason = empty_cache, "no space left"
        else:
            (tmp_path / "file").write_text("")
            cache, reason = tmp_path / "file" / "cache", "[Errno 20] Not a directory"
            monkeypatch.setattr(native, "CACHE_DIR", cache)
        with pytest.raises(native.KernelUnavailable) as exc:
            native.load()
        message = str(exc.value)
        assert message.startswith(f"cannot write the kernel cache: {reason}")
        assert message.endswith(f" (kernel cache directory {cache})") and "\n" not in message
        assert native._kernel is None

    @pytest.mark.parametrize("how", ["not executable", "times out"])
    def test_error_when_the_compiler_cannot_run(self, empty_cache, tmp_path, monkeypatch, how):
        """A compiler that cannot be started, or that runs past the build
        timeout (and is killed), fails the build with one line and leaves no
        temporary file."""
        if how == "not executable":
            compiler = tmp_path / "cc"
            compiler.write_text("")
            compiler, reason = str(compiler), f"[Errno 13] Permission denied: '{compiler}'"
        else:
            compiler = fake_compiler(tmp_path / "cc", "exec sleep 30\n")
            monkeypatch.setattr(native, "BUILD_TIMEOUT_S", 0.2)
            reason = "timed out after 0.2 seconds"
        monkeypatch.setattr(native, "find_compiler", lambda: compiler)
        with pytest.raises(native.KernelUnavailable) as exc:
            native.load()
        message = str(exc.value)
        assert message.startswith(f"building the kernel failed: {compiler} -O2 ")
        assert f"{reason} (kernel cache directory {empty_cache})" in message
        assert "\n" not in message
        assert native._kernel is None
        assert cache_files(empty_cache) == []

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

    def test_fresh_build_removes_the_other_libraries(self, empty_cache, tmp_path,
                                                     monkeypatch):
        native.load()
        first = native.library_path()
        # the temporary file of a build under way in another process
        building = empty_cache / f".{first.stem}-concurrent.so"
        building.write_bytes(b"half written")
        source = tmp_path / "thomas.c"
        source.write_text(native.SOURCE.read_text() + "\n/* another source */\n")
        monkeypatch.setattr(native, "SOURCE", source)
        monkeypatch.setattr(native, "_kernel", None)
        native.load()
        assert native.library_path() != first
        assert cache_files(empty_cache) == sorted([building.name, native.library_path().name])
        assert building.read_bytes() == b"half written"

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


# Rows of a 7-row system whose pivots are exactly 0 in either direction of
# elimination (a zero diagonal entry with both its couplings 0), and the
# failing row the pure elimination reports when its chains meet at the last
# row (6) and at the middle row (3).  A zero row's cp is 0/0 = NaN, which
# makes every later pivot of its chain, and the meeting row's, NaN, and a NaN
# pivot is no failure: meeting at row 3, the upward chain's zero row 5 hides
# the zero of row 3, and row 5 is the lowest failing row.
ZERO_PIVOT_ROWS = {
    "down": ((1,), 1, 1),
    "meet": ((3,), 3, 3),
    "up": ((5,), 5, 5),
    "down and up": ((1, 5), 1, 1),
    "meet and up": ((3, 5), 3, 5),
}


@pytest.mark.parametrize("ncol", [1, 2])
@pytest.mark.parametrize("case", sorted(ZERO_PIVOT_ROWS))
def test_pure_elimination_reports_an_exact_zero_pivot(case, ncol):
    """An exactly zero pivot in the downward chain, at the meeting row or in
    the upward chain gives the pure elimination's failing row, with zeros,
    at meet = n - 1 as in native.thomas, and at meet = n // 2, dividing by
    it as C does rather than raising ZeroDivisionError."""
    rows, at_last, at_middle = ZERO_PIVOT_ROWS[case]
    n = 7
    lower, diag, upper = np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)
    for row in rows:
        diag[row] = lower[row - 1] = upper[row] = 0.0
    rhs = np.arange(1.0, ncol * n + 1).reshape(ncol, n).squeeze()
    assert assert_same_result((lower, diag, upper, rhs, PIVOT_RTOL)) == at_last
    for meet, expected in ((n - 1, at_last), (n // 2, at_middle)):
        x, fail = pure.thomas(lower, diag, upper, rhs, PIVOT_RTOL, meet=meet)
        assert fail == expected
        assert x.shape == rhs.shape and not x.any()


@pytest.mark.parametrize("meet, row", [(None, 1), (1, 1), (0, 0)])
def test_pure_elimination_meeting_row_zero_pivot(meet, row):
    """A system of two rows of ones: whichever row the chains meet at has
    the pivot 1 - 1 * 1 = 0 exactly and fails, row 1 by default as in
    native.thomas."""
    args = np.ones(1), np.ones(2), np.ones(1), np.ones(2), PIVOT_RTOL
    assert native.thomas(*args)[1] == 1
    x, fail = pure.thomas(*args, meet=meet)
    assert fail == row and not x.any()


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


# Marches each thread runs in test_marches_in_two_threads_match_the_marches_alone
THREAD_ROUNDS = 5


@pytest.fixture
def bindings_built(monkeypatch):
    """A list that gains one entry per native.LayerFrame constructed."""
    return count_constructions(monkeypatch, native.LayerFrame)


class TestNativeCache:
    """A march binds its frame once: it makes one native.LayerFrame, whose
    struct the layer functions share; native.thomas binds the arrays of
    each call afresh."""

    @pytest.mark.parametrize("run, expected", [
        (march_newton, 1), (march_pc, 1), (asianfb.compare_engines, 2),
    ], ids=["newton", "pc", "compare"])
    def test_one_binding_per_march(self, params, bindings_built, run, expected):
        run(params, make_grid(params, N=50))
        assert len(bindings_built) == expected

    def test_changed_limits_reach_a_bound_frame(self, params, bindings_built):
        """A frame's struct holds the limits of its last march, and a march
        with other limits (an engine's config, tridiag's floors) writes them
        before it runs, so a reused frame never runs on stale ones: here
        one-layer marches of both engines share one frame."""
        grid = make_grid(params, N=16)
        prev, tau_next = initial_layer(params, grid), float(grid.taus[1])
        frame = native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR)
        state, diag = one_layer(frame, NewtonConfig(), prev, tau_next)
        pc_state, pc_diag = one_layer(frame, PredictorConfig(), prev, tau_next)
        # pc's iterations are its predictor's
        assert diag.iterations > 1 and pc_diag.iterations > 1
        with pytest.raises(NoConvergence):
            one_layer(frame, NewtonConfig(max_iter=1), prev, tau_next)
        with pytest.raises(NoConvergence):
            one_layer(frame, PredictorConfig(max_iter=1), prev, tau_next)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
            with pytest.raises(ZeroPivot):
                one_layer(frame, NewtonConfig(), prev, tau_next)
            with pytest.raises(ZeroPivot):
                one_layer(frame, PredictorConfig(), prev, tau_next)
            patch.setattr(tridiag, "PIVOT_RTOL", PIVOT_RTOL)
            patch.setattr(tridiag, "SCHUR_FLOOR", 1e300)
            with pytest.raises(SingularSchur):
                one_layer(frame, PredictorConfig(), prev, tau_next)
        again, again_diag = one_layer(frame, NewtonConfig(), prev, tau_next)
        assert again.y.tobytes() == state.y.tobytes() and again.z == state.z
        assert again_diag.tobytes() == diag.tobytes()
        pc_again, pc_again_diag = one_layer(frame, PredictorConfig(), prev, tau_next)
        assert pc_again.y.tobytes() == pc_state.y.tobytes() and pc_again.z == pc_state.z
        assert pc_again_diag.tobytes() == pc_diag.tobytes()
        assert len(bindings_built) == 1

    def test_marches_in_two_threads_match_the_marches_alone(self, params, bindings_built):
        """A Newton march and a pc march run at once in two threads, each
        in the one frame it makes, give the bits they give alone: rho, the
        surface and every slot of the per-layer record."""
        grid = make_grid(params, N=50)
        marches = (march_newton, march_pc)

        def bits(result):
            return result.rho.tobytes(), result.surface.tobytes(), result.rows.tobytes()

        alone = [bits(march(params, grid)) for march in marches]
        start = threading.Barrier(len(marches), timeout=60)

        def rounds(march):
            start.wait()
            return [bits(march(params, grid)) for _ in range(THREAD_ROUNDS)]

        with concurrent.futures.ThreadPoolExecutor(len(marches)) as pool:
            together = list(pool.map(rounds, marches))
        assert together == [[bits] * THREAD_ROUNDS for bits in alone]
        assert len(bindings_built) == len(marches) * (1 + THREAD_ROUNDS)

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


def table_bytes(cells, header="a,b", chunk_cells=None):
    """The file native.write_table writes for ``cells``, and its writes,
    in chunks of ``chunk_cells`` cells (by default native's)."""
    class RecordingFile(io.BytesIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, data):
            self.sizes.append(memoryview(data).nbytes)
            return super().write(data)

    fh = RecordingFile()
    with pytest.MonkeyPatch.context() as patch:
        if chunk_cells is not None:
            patch.setattr(native, "CHUNK_CELLS", chunk_cells)
        native.write_table(fh, header, cells)
    return fh.getvalue(), fh.sizes


class TestFixed9Rows:
    """native.write_table, the compiled CSV table writer, and the checks
    of native.write_surface (the CSV tests compare whole files with
    csv.writer's)."""

    def test_lines_and_byte_count(self):
        cells = np.array([[0.0009765625, -0.0], [-1e-12, np.nextafter(4.5e6, 0.0)]])
        lines = [b"0.000976562,-0.000000000\r\n", b"-0.000000000,4499999.999999999\r\n"]
        data, sizes = table_bytes(cells)
        assert data == b"a,b\r\n" + b"".join(lines)
        assert sizes == [5, len(lines[0]) + len(lines[1])]
        # one row a chunk: each chunk starts at its offset into the checked cells
        data, sizes = table_bytes(cells, chunk_cells=1)
        assert data == b"a,b\r\n" + b"".join(lines)
        assert sizes == [5, *map(len, lines)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4.5e6, -4.5e6, 1e300])
    def test_hands_back_the_first_cell_it_cannot_format(self, bad):
        """The cells the writer once handed back to Python (non-finite, or
        of magnitude 4.5e6 and over) it now writes itself, as "%.9f" does,
        in whole-table and in chunked writes."""
        cells = np.zeros((3, 2))
        cells[1, 1] = cells[2, 0] = bad
        want = "a,b\r\n" + "".join("%.9f,%.9f\r\n" % tuple(row) for row in cells.tolist())
        for chunk_cells in (None, 1):
            assert table_bytes(cells, chunk_cells=chunk_cells)[0].decode() == want

    def test_matches_python_on_every_double_class(self):
        """Every cell as Python's "%.9f" writes it: 200 000 doubles from
        random bit patterns (NaNs, infinities, subnormals and integers of
        hundreds of digits among them), and the edges of each range, with
        either sign; 1 - ulp's fraction rounds up into its integer part."""
        edges = [0.0, math.nan, math.inf, 5e-324, math.nextafter(1.0, 0.0), 4.5e6,
                 math.nextafter(4.5e6, 0.0), math.nextafter(4.5e6, math.inf), 2.0**53,
                 math.nextafter(2.0**53, 0.0), math.nextafter(2.0**53, math.inf), 1e18,
                 math.nextafter(1e18, 0.0), math.nextafter(1e18, math.inf), 2.0**64,
                 sys.float_info.max]
        bits = np.random.default_rng(27).integers(0, 2**64, 200_000, np.uint64)
        cells = np.concatenate([edges, np.negative(edges), bits.view(np.float64)]).reshape(-1, 4)
        data, _ = table_bytes(cells, header="a,b,c,d")
        assert data.decode().split("\r\n") == \
            ["a,b,c,d"] + [",".join(["%.9f" % x for x in row]) for row in cells.tolist()] + [""]

    def test_rejects_buffers_it_could_overrun(self):
        cells = np.zeros((4, 3))
        for bad_cells in (cells.astype(np.float32), cells[:, ::2], np.asfortranarray(cells),
                          cells.ravel(), np.zeros((4, 0))):
            with pytest.raises(ValueError, match="cells"):
                native.write_table(io.BytesIO(), "a,b,c", bad_cells)

    def test_surface_rejects_arrays_it_could_overrun(self):
        """taus and xi are checked alike: float64, contiguous, one entry a
        layer or a node."""
        taus, xi, pi = np.zeros(3), np.zeros(2), np.zeros((3, 2))
        for name, good in (("taus", taus), ("xi", xi)):
            for bad in (good.astype(np.float32), np.zeros(2 * good.size)[::2],
                        np.zeros(good.size + 1), good.reshape(1, -1)):
                args = {"taus": taus, "xi": xi, "pi": pi, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    native.write_surface(io.BytesIO(), **args)
        for bad_pi in (pi.astype(np.float32), np.asfortranarray(pi), pi.ravel()):
            with pytest.raises(ValueError, match="^pi must be"):
                native.write_surface(io.BytesIO(), taus, xi, bad_pi)


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

# march_digest of each run (engine, mode, parameters, grid), re-recorded on
# the numpy twins (march_numpy) when the rows began to multiply by each
# layer's reciprocals 1/dt, 1/(T - tau) and 0.5/h, and Newton's layers 4 ..
# M - 1 to start from a three-layer extrapolation, and pc's again when its
# solves became two-ended eliminations; the compiled kernel and the numpy
# twins of its layers (tests/_oracles.py) must both give these bits.
MARCH_DIGESTS = {
    ("newton", "central", "ref", "N8M4"): "9aba15aba18895e7",
    ("newton", "central", "ref", "N50"): "24bed68d677d3d87",
    ("newton", "central", "ref", "N200"): "0d7ddd1cd10c0a27",
    ("newton", "central", "seed2", "N8M4"): "b4cc30280bd2d48f",
    ("newton", "central", "seed2", "N50"): "706b0ca4c9c641a7",
    ("newton", "central", "seed2", "N200"): "e479b8fd36a7b0b2",
    ("newton", "central", "seed4", "N8M4"): "8a970895fdddef64",
    ("newton", "central", "seed4", "N50"): "dc6d5d6e810290d4",
    ("newton", "central", "seed4", "N200"): "a94fcd0dcf452f53",
    ("newton", "central", "seed68", "N8M4"): "bcb0dfeaa0d9bc2e",
    ("newton", "central", "seed68", "N50"): "4eb0f18fdf773f46",
    ("newton", "central", "seed68", "N200"): "921f6381ec32188a",
    ("newton", "central", "seed89", "N8M4"): "b92462a3697ea5b0",
    ("newton", "central", "seed89", "N50"): "ccb9e9477add4668",
    ("newton", "central", "seed89", "N200"): "082399d60df061ed",
    ("newton", "upwind-singular", "ref", "N8M4"): "87d36f0e2327cb9f",
    ("newton", "upwind-singular", "ref", "N50"): "e905016e47fadfce",
    ("newton", "upwind-singular", "ref", "N200"): "b883a14cdc6480e1",
    ("newton", "upwind-singular", "seed2", "N8M4"): "13e08ed31b5c29f6",
    ("newton", "upwind-singular", "seed2", "N50"): "f87aceb873727bb5",
    ("newton", "upwind-singular", "seed2", "N200"): "0e98e59d62f53f36",
    ("newton", "upwind-singular", "seed4", "N8M4"): "9632204a65b3826e",
    ("newton", "upwind-singular", "seed4", "N50"): "8b7155ed22d81b6d",
    ("newton", "upwind-singular", "seed4", "N200"): "2f09141946b95224",
    ("newton", "upwind-singular", "seed68", "N8M4"): "05c42e09790bfeea",
    ("newton", "upwind-singular", "seed68", "N50"): "1caedec3e78a8073",
    ("newton", "upwind-singular", "seed68", "N200"): "23e94c8498cdb3be",
    ("newton", "upwind-singular", "seed89", "N8M4"): "e8164ddc3f20dc1f",
    ("newton", "upwind-singular", "seed89", "N50"): "b65d38385fd170ef",
    ("newton", "upwind-singular", "seed89", "N200"): "b700a5616e5110b9",
    ("pc", "central", "ref", "N8M4"): "2541ea8abc6f0d79",
    ("pc", "central", "ref", "N50"): "f2aec496ca490c97",
    ("pc", "central", "seed2", "N8M4"): "b87ffc18bb8d9993",
    ("pc", "central", "seed2", "N50"): "c528fc40b2de222d",
    ("pc", "central", "seed4", "N8M4"): "c16447ca34508fae",
    ("pc", "central", "seed4", "N50"): "5b989037c9fc447a",
    ("pc", "central", "seed68", "N8M4"): "9647d87e9191b3b8",
    ("pc", "central", "seed68", "N50"): "1fece036b7a4592c",
    ("pc", "central", "seed89", "N8M4"): "ec5fd7dceef8b262",
    ("pc", "central", "seed89", "N50"): "e807ccfdadaa5e54",
    ("pc", "upwind-singular", "ref", "N8M4"): "9726dcdd7f094545",
    ("pc", "upwind-singular", "ref", "N50"): "0375e40002aee250",
    ("pc", "upwind-singular", "seed2", "N8M4"): "6386293b4b13a15f",
    ("pc", "upwind-singular", "seed2", "N50"): "eef060697915ace7",
    ("pc", "upwind-singular", "seed4", "N8M4"): "94336b4ccc7e8aab",
    ("pc", "upwind-singular", "seed4", "N50"): "9a03065919598e03",
    ("pc", "upwind-singular", "seed68", "N8M4"): "6eb268196c0cba82",
    ("pc", "upwind-singular", "seed68", "N50"): "45a62b2f95cf5853",
    ("pc", "upwind-singular", "seed89", "N8M4"): "1c023ec9f1d7854b",
    ("pc", "upwind-singular", "seed89", "N50"): "890a0ea0fdc1c4ed",
}


# The per-layer record's fields that MARCH_DIGESTS covers, after each layer's
# index and tau: all that existed when the digests were recorded.
# test_march_bit_identical_across_backends holds the later backward_error to
# the numpy twins separately.
DIGEST_FIELDS = ("iterations", "residual_f1", "residual_f2", "initial_residual",
                 "onesided_rows", "dominance_violations", "predictor_fallback")


def diagnostics_bits(result):
    """The bytes that MARCH_DIGESTS hash of a march's per-layer record: for
    each layer j = 1 .. M, as float64, j, taus[j] and the DIGEST_FIELDS of
    its out[] row."""
    record = result.diagnostics
    return np.column_stack([np.arange(1, result.grid.M + 1), result.taus[1:],
                            *(record[name] for name in DIGEST_FIELDS)]).tobytes()


def march_digest(march, p, grid, mode, results=None, ready=None):
    """sha256 (16 hex digits) of a march: rho, the surface, its
    diagnostics_bits and, after each Newton layer,
    the frame's row buffers and its (2, n) right-hand side (F1 at the
    accepted z, J12 of the last iterate).  The march runs every layer in
    one call, so ``replay`` runs each Newton layer again through
    native.march (on the backend the march ran on) from the march's
    stored layers, as the march ran it, in a frame of its own, where its
    rows are read; each replayed layer must equal the stored one.
    ``results``, when given, is a list that gains the march's
    SolveResult, and ``ready`` is the march's callback."""
    digest = hashlib.sha256()
    result = march(p, grid, mode, ready=ready)
    if march is march_newton:
        frame = native.LayerFrame(grid, p, mode)
        rho, surface = result.rho.copy(), result.surface.copy()
        for j, stored in enumerate(result.diagnostics):
            state, diag = replay(frame, NewtonConfig(), result.taus, rho, surface, j)
            assert state.y.tobytes() == result.surface[j + 1].tobytes(), j
            assert state.z == result.rho[j + 1], j
            assert diag.tobytes() == stored.tobytes(), j
            for row in dataclasses.fields(LayerRows):
                digest.update(getattr(frame, row.name).tobytes())
            digest.update(frame.pair_rhs.tobytes())
    digest.update(result.rho.tobytes())
    digest.update(result.surface.tobytes())
    digest.update(diagnostics_bits(result))
    if results is not None:
        results.append(result)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_bit_identical_across_backends(march, mode):
    """The kernel's march and the march on the numpy twins of its layers,
    and the backward error of each of their layers."""
    engine = "newton" if march is march_newton else "pc"
    for name, (r, q, sigma) in BIT_IDENTITY_PARAMS.items():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        for grid_name, (n, m) in BIT_IDENTITY_GRIDS.items():
            if engine == "pc" and grid_name not in PC_GRIDS:
                continue
            grid = make_grid(p, N=n, M=m)
            digests, results = [], []
            for layers in (contextlib.nullcontext(), numpy_layers()):
                with layers:
                    digests.append(march_digest(march, p, grid, mode, results))
            assert digests == [MARCH_DIGESTS[engine, mode.value, name, grid_name]] * 2, \
                (name, grid_name, digests)
            errors = [run.diagnostics.backward_error for run in results]
            assert errors[0].tobytes() == errors[1].tobytes(), (name, grid_name)


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_rows_bit_identical_across_backends(params, march):
    """Every out[] slot of every layer in SolveResult.rows, which
    MARCH_DIGESTS do not hash, from the kernel's march and from the march
    on the numpy twins of its layers."""
    grid = make_grid(params, N=50)
    rows = []
    for layers in (contextlib.nullcontext(), numpy_layers()):
        with layers:
            rows.append(march(params, grid).rows.tobytes())
    assert rows[0] == rows[1]


# A first layer's tau_next so close to tau = 0 that 1/dt, and with it
# every diagonal entry, overflows, while the off-diagonals stay finite.
OVERFLOWING_STEP = 1e-310
# The pivot_rtol at which the first layer's first failing pivot is at row 2
# at the reference point, N = 16 (row 1's |pivot| / max |diag| reads 0.82),
# and every pivot after it fails too.
LATE_PIVOT_RTOL = 0.8
# The row that pc's first layer fails at there: its first frozen solve's
# two-ended elimination meets at row 7 of 15, whose pivot subtracts both
# chains' couplings and reads 0.61 of max |diag|, while both chains' pivots
# stay above 0.80
PC_LATE_PIVOT_ROW = 7
# Previous boundary values so large that z**2 overflows: C's pow(z, 2.0)
# returns inf there, where a float's ** raises OverflowError, and the layer
# ends with NonPositiveZ (z = 0)
HUGE_Z = (1e200, 1e300, 1e308)
HUGE_Z_CASES = [f"NonPositiveZ from z = {z:g}" for z in HUGE_Z]
# The failing layers' cases beyond one per exception class: the class each
# raises
LATER_FAILURES = {"ValueError in J11": "ValueError", "ValueError beside ZeroPivot": "ValueError",
                  "ZeroPivot past row 0": "ZeroPivot", **dict.fromkeys(HUGE_Z_CASES, "NonPositiveZ")}


def frame_bits(frame):
    """The bytes of a LayerFrame's row buffers and right-hand sides."""
    return b"".join(getattr(frame, name).tobytes() for name in
                    [row.name for row in dataclasses.fields(LayerRows)]
                    + ["pair_rhs", "single_rhs"])


def failing_layer(case, params, patch):
    """(params, grid, prev, tau_next, cfg) of a first layer that fails with
    ``case``, which may need a module constant patched."""
    if case == "NonPositiveZ":  # an r < q set, where undamped Newton overshoots
        p = MarketParams(r=0.069, q=0.085, sigma=0.51, T=24.8)
        grid = GridSpec(N=100, M=2500, L=2.0, T=p.T)
        return p, grid, initial_layer(p, grid), float(grid.taus[1]), NewtonConfig()
    grid = make_grid(params, N=16)
    prev, tau_next = initial_layer(params, grid), float(grid.taus[1])
    cfg = NewtonConfig()
    if case in ("ValueError", "ValueError beside ZeroPivot"):
        prev.y[grid.N // 2] = np.nan
        if case == "ValueError beside ZeroPivot":  # the non-finite entry wins
            patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "ValueError in J11":
        tau_next = OVERFLOWING_STEP
    elif case == "ZeroPivot":
        patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "ZeroPivot past row 0":
        patch.setattr(tridiag, "PIVOT_RTOL", LATE_PIVOT_RTOL)
    elif case == "SingularSchur":
        patch.setattr(tridiag, "SCHUR_FLOOR", 1e300)
    elif case in HUGE_Z_CASES:
        prev.z = HUGE_Z[HUGE_Z_CASES.index(case)]
    else:
        cfg = NewtonConfig(max_iter=1)
    return params, grid, prev, tau_next, cfg


@pytest.mark.parametrize("case", ["NonPositiveZ", "ValueError", "ValueError in J11",
                                  "ValueError beside ZeroPivot", "ZeroPivot",
                                  "ZeroPivot past row 0", "SingularSchur", "NoConvergence",
                                  *HUGE_Z_CASES])
def test_newton_layer_fails_alike_on_both_backends(params, case):
    """Each failure raises the same class, message and attributes in the
    kernel's layer and in its numpy twin, each a march of that one layer,
    and leaves the same row buffers and right-hand sides in its frame; the
    limits patched here reach the compiled path from Python."""
    raised = []
    for layers in (contextlib.nullcontext, numpy_layers):
        # the twin's numpy warns where the overflowing step makes infinities
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"), \
                layers():
            p, grid, prev, tau_next, cfg = failing_layer(case, params, patch)
            frame = native.LayerFrame(grid, p, SchemeMode.UPWIND_SINGULAR)
            with pytest.raises(Exception) as exc:
                one_layer(frame, cfg, prev, tau_next)
        raised.append((type(exc.value), str(exc.value), vars(exc.value), frame_bits(frame)))
    assert raised[0] == raised[1]
    kind, message, attributes, _ = raised[0]
    assert kind.__name__ == LATER_FAILURES.get(case, case)
    if case == "NonPositiveZ":
        assert attributes["z"] == pytest.approx(-0.513934, abs=1e-6)
    elif case in HUGE_Z_CASES:
        assert attributes["z"] == 0.0
    elif case in ("ValueError", "ValueError beside ZeroPivot"):
        assert message == "rhs contains non-finite values"
    elif case == "ValueError in J11":
        assert message == "diag contains non-finite values"
    elif case == "ZeroPivot past row 0":
        assert attributes["index"] == 2
    elif case == "NoConvergence":
        assert attributes["iterations"] == 1
        assert attributes["last_step"] >= NewtonConfig().tol


def test_predictor_iterates_bit_identical_across_backends():
    """The predictor's root, and its first iterates through the last step
    that NoConvergence reports when max_iter cuts the loop short, are the
    same bits in the kernel and in its numpy twin from every layer of a
    march: each layer replayed with max_iter 1, 2, 3 and 100 ends with
    the same NoConvergence, or the same layer from the same root (its
    iterations, or the fallback flag where the predictor finds none), and
    at the march's max_iter as the march stored it."""
    for r, q, sigma in BIT_IDENTITY_PARAMS.values():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        grid = make_grid(p, N=50)
        run = march_pc(p, grid)
        frame = native.LayerFrame(grid, p, SchemeMode.UPWIND_SINGULAR)
        for j in range(grid.M):
            for max_iter in (1, 2, 3, 100):
                ended = []
                for layers in (contextlib.nullcontext(), numpy_layers()):
                    try:
                        with layers:
                            state, diag = replay(frame, PredictorConfig(max_iter=max_iter),
                                                 run.taus, run.rho.copy(), run.surface.copy(), j)
                    except NoConvergence as exc:
                        ended.append((type(exc), str(exc), vars(exc)))
                    else:
                        ended.append((state.y.tobytes(), state.z, diag))
                assert ended[0] == ended[1], (r, q, sigma, j, max_iter)
            assert ended[0] == (run.surface[j + 1].tobytes(), run.rho[j + 1],
                                run.diagnostics[j]), (r, q, sigma, j)


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
    elif case in ("ValueError", "ValueError beside ZeroPivot"):
        prev.y[grid.N // 2] = np.nan
        if case == "ValueError beside ZeroPivot":  # the non-finite entry wins
            patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "ValueError in J11":
        tau_next = OVERFLOWING_STEP
    elif case == "ZeroPivot":
        patch.setattr(tridiag, "PIVOT_RTOL", 1.0)
    elif case == "ZeroPivot past row 0":
        patch.setattr(tridiag, "PIVOT_RTOL", LATE_PIVOT_RTOL)
    elif case == "SingularSchur":
        patch.setattr(tridiag, "SCHUR_FLOOR", 1e300)
    elif case == "NoConvergence":
        cfg = PredictorConfig(max_iter=1)
    elif case in HUGE_Z_CASES:
        prev.z = HUGE_Z[HUGE_Z_CASES.index(case)]
    else:  # pc_predictor rejects a layer at maturity
        tau_next = params.T
    return prev, tau_next, native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR), cfg


@pytest.mark.parametrize("case", ["NoBracket", "NonPositiveZ", "ValueError", "ValueError in J11",
                                  "ValueError beside ZeroPivot", "ZeroPivot",
                                  "ZeroPivot past row 0", "SingularSchur", "NoConvergence",
                                  "PastMaturity", *HUGE_Z_CASES])
def test_pc_layer_fails_alike_on_both_backends(params, case):
    """Each pc layer that fails raises the same class, message and attributes
    in the kernel and on the numpy twins of its layer, each a march of
    that one layer, leaving the same row buffers and right-hand sides in
    its frame, and the one whose predictor finds no root (NoBracket: its
    twin's result is the fallback, z_prev with no iterations) returns the
    same fallback layer; the limits patched here reach the compiled path
    from Python."""
    ended = []
    for layers in (contextlib.nullcontext, numpy_layers):
        # the twins' numpy warns where the overflowing step makes infinities
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"), \
                layers():
            prev, tau_next, frame, cfg = pc_layer_case(case, params, patch)
            try:
                state, diag = one_layer(frame, cfg, prev, tau_next)
            except Exception as exc:
                ended.append((type(exc), str(exc), vars(exc), frame_bits(frame)))
            else:
                ended.append((state.y.tobytes(), state.z, diag, frame_bits(frame)))
    assert ended[0] == ended[1]
    if case == "NoBracket":
        assert predictor_numpy(prev, tau_next, frame.g, frame.p, cfg) == (prev.z, 0, True)
        # the fallback layer is the corrector's from z_tilde = z_prev
        corrected, _ = correct_numpy(prev, tau_next, frame, prev.z)
        assert state.z == corrected.z
        assert diag.predictor_fallback and diag.iterations == 0
        return
    kind, message, attributes, _ = ended[0]
    assert kind.__name__ == ("ValueError" if case == "PastMaturity" else
                             LATER_FAILURES.get(case, case))
    if case == "NonPositiveZ":
        assert attributes["z"] < 0
    elif case in HUGE_Z_CASES:
        assert attributes["z"] == 0.0
    elif case in ("ValueError", "ValueError beside ZeroPivot"):
        assert message == "rhs contains non-finite values"
    elif case == "ValueError in J11":
        assert message == "diag contains non-finite values"
    elif case == "ZeroPivot past row 0":
        assert attributes["index"] == PC_LATE_PIVOT_ROW
    elif case == "NoConvergence":
        assert attributes["iterations"] == 1
        assert attributes["last_step"] >= PredictorConfig().root_tol
    elif case == "PastMaturity":
        assert message == f"tau_next must be < T; got {params.T} with T={params.T}"


def small_frame(params, n, mode, exp_neg_xi=None):
    """A LayerFrame of n interior rows, n below the 3 that GridSpec's N >= 4
    allows among them: a namespace of N = n + 1 nodes on [0, 1] holds all
    that a frame, a march of its layers and their twins read of a grid.
    ``exp_neg_xi``, when given, stands for e^{-xi_i} at the interior
    nodes."""
    h = 1.0 / (n + 1)
    if exp_neg_xi is None:
        exp_neg_xi = np.exp(-h * np.arange(1, n + 1))
    grid = types.SimpleNamespace(N=n + 1, h=h, exp_neg_xi=np.array(exp_neg_xi, dtype=float))
    return native.LayerFrame(grid, params, mode)


def small_layer(n):
    """(prev, tau_next) of a layer of n interior rows: a previous layer
    that rises from the Dirichlet value -1 to 0."""
    xi = np.linspace(0.0, 1.0, n + 2)
    return LayerState(j=1, tau=1.0, y=-(1.0 - xi)**2, z=1.5), 1.2


def layer_ends(params, n, mode, cfg=PredictorConfig(), **frame):
    """How the small layer of n rows ends in a march of that one layer of
    cfg's engine (pc's by default, or Newton's with a NewtonConfig), in
    the kernel and on the numpy twins, each in a small_frame of its own:
    (state y bytes, z, the record of its out[] row) or the exception's
    (class, message, attributes), each with the frame's buffers."""
    prev, tau_next = small_layer(n)
    ended = []
    for layers in (contextlib.nullcontext, numpy_layers):
        layer = small_frame(params, n, mode, **frame)
        try:
            with layers():
                state, diag = one_layer(layer, cfg, prev, tau_next)
        except Exception as exc:
            ended.append((type(exc), str(exc), vars(exc), frame_bits(layer)))
        else:
            ended.append((state.y.tobytes(), state.z, diag, frame_bits(layer)))
    return ended


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_ended_corrector_bit_identical_at_the_smallest_sizes(params, n, mode):
    """pc's layer, whose corrector's three solves eliminate from both ends
    and meet at row n // 2, gives its twins' layer, diagnostics and frame
    buffers bit for bit where the meeting row is an end row (n = 1: both
    ends; n = 2: the last row) and on both sides of the odd/even split
    (n = 3, 4); and the layer it solves has a row-wise backward error of
    rounding size."""
    kernel, oracle = layer_ends(params, n, mode)
    assert kernel == oracle
    assert kernel[2].backward_error <= 1e-15


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [3, 4])
def test_newton_layer_bit_identical_at_the_smallest_grids(params, n, mode):
    """Newton's layer, whose sweep meets at its last row, gives its twin's
    layer, diagnostics and frame buffers bit for bit at n = 3 and 4 rows,
    the smallest grids GridSpec allows (N = 4 and 5)."""
    kernel, oracle = layer_ends(params, n, mode, NewtonConfig())
    assert kernel == oracle
    assert kernel[2].iterations >= 1 and kernel[2].backward_error <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_two_ended_zero_pivot_names_the_lowest_row(params, monkeypatch, n):
    """A pc solve whose pivots fall below the floor at several rows names
    the lowest of them, in the kernel and in its twin alike, not the first
    that the sweep takes: with row 0 upwinded onto a diagonal 200 times the
    others, every later row fails at pivot_rtol 0.5, and at n = 3 the
    upward chain's row 2 is eliminated before the meeting row 1."""
    monkeypatch.setattr(tridiag, "PIVOT_RTOL", 0.5)
    exp_neg_xi = [1e4] + [math.exp(-(i + 1) / (n + 1)) for i in range(1, n)]
    kernel, oracle = layer_ends(params, n, SchemeMode.UPWIND_SINGULAR,
                                    exp_neg_xi=exp_neg_xi)
    assert kernel == oracle
    assert kernel[0] is ZeroPivot and kernel[2]["index"] == 1


@pytest.mark.parametrize("pivot_rtol", [PIVOT_RTOL, 1.0], ids=["alone", "beside ZeroPivot"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_ended_solve_names_a_non_finite_entry(params, monkeypatch, n, pivot_rtol):
    """A NaN in the previous layer reaches the frozen solve's right-hand
    side at every size, and both the kernel and its twin name that array
    with the same ValueError, also where a pivot falls below the floor."""
    monkeypatch.setattr(tridiag, "PIVOT_RTOL", pivot_rtol)
    prev, tau_next = small_layer(n)
    prev.y[n] = np.nan
    ended = []
    for layers in (contextlib.nullcontext, numpy_layers):
        frame = small_frame(params, n, SchemeMode.UPWIND_SINGULAR)
        with pytest.raises(ValueError) as exc, layers():
            one_layer(frame, PredictorConfig(), prev, tau_next)
        ended.append((str(exc.value), frame_bits(frame)))
    assert ended[0] == ended[1]
    assert ended[0][0] == "rhs contains non-finite values"


# The engines whose C layers build a frame's z-free part (thomas.c's
# frame_start) before they run: Newton's layer, and pc's corrector, after
# its predictor
START_CONFIGS = {"newton": NewtonConfig(), "pc": PredictorConfig()}
# The buffers that frame_start fills, and those it fills only in central mode,
# where frame_rows leaves them as they are
START_BUFFERS = ("ds", "half_ds_h", "rhs")
CENTRAL_BUFFERS = ("diag", "dc", "onesided")



class TestFrameStart:
    """Each engine's C layer, replayed through native.march, builds its
    frame's z-free part in the frame's buffers bit for bit as the oracle
    frame_start does, and refuses the layers that frame_start refuses
    with its messages."""

    @PROPERTY
    @given(r=st.floats(0.05, 0.07), q=st.floats(0.03, 0.045), sigma=st.floats(0.18, 0.22),
           T=st.floats(0.5, 60.0), n=st.integers(4, 24), mode=st.sampled_from(list(SchemeMode)),
           engine=st.sampled_from(sorted(START_CONFIGS)), data=st.data())
    def test_buffers_bit_identical_to_the_oracle(self, r, q, sigma, T, n, mode, engine, data):
        p = MarketParams(r=r, q=q, sigma=sigma, T=T)
        grid = make_grid(p, N=n)
        # the last layer, to tau_M = T - eps_final, or any other
        j = data.draw(st.one_of(st.just(grid.M - 1), st.integers(0, grid.M - 1)), label="j")
        run = march_newton(p, grid, mode)
        prev = LayerState(j=j, tau=float(run.taus[j]), y=run.surface[j].copy(),
                          z=float(run.rho[j]))
        tau_next = float(run.taus[j + 1])
        frame = native.LayerFrame(grid, p, mode)
        with contextlib.suppress(SolverError):  # the frame is built before the layer runs
            replay(frame, START_CONFIGS[engine], run.taus, run.rho.copy(), run.surface.copy(), j)
        oracle = native.LayerFrame(grid, p, mode)
        frame_start(oracle, prev, tau_next)
        names = START_BUFFERS + (CENTRAL_BUFFERS if mode is SchemeMode.CENTRAL else ())
        for name in names:
            assert getattr(frame, name).tobytes() == getattr(oracle, name).tobytes(), name

    @pytest.mark.parametrize("engine", sorted(START_CONFIGS))
    def test_refused_layers_raise_the_oracles_messages(self, params, engine):
        grid = make_grid(params, N=16)
        first = initial_layer(params, grid)
        later = LayerState(j=1, tau=float(grid.taus[1]), y=first.y, z=first.z)
        cases = [(first, params.T, f"tau_next must be < T; got {params.T} with T={params.T}"),
                 (first, params.T + 1.0,
                  f"tau_next must be < T; got {params.T + 1.0} with T={params.T}"),
                 (first, math.nan, f"tau_next must be < T; got nan with T={params.T}"),
                 (later, later.tau,
                  f"non-positive time step: tau_next={later.tau}, prev tau={later.tau}"),
                 (later, 0.0, f"non-positive time step: tau_next=0.0, prev tau={later.tau}")]
        for prev, tau_next, message in cases:
            for oracle in (False, True):
                frame = native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR)
                with pytest.raises(ValueError) as exc:
                    if oracle:
                        frame_start(frame, prev, tau_next)
                    else:
                        one_layer(frame, START_CONFIGS[engine], prev, tau_next)
                assert str(exc.value) == message, (oracle, tau_next)


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_eliminations_enter_through_the_traced_entry_points(params, march):
    """A tracer counts solves and rows at tridiag.thomas_solve, as bound in
    the module that calls it, and at each backend's thomas.  Each engine's
    eliminations run inside its one C call (native.march), so neither
    march makes any there."""
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


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_a_march_is_one_native_call(params, monkeypatch, march):
    """A march runs every layer, pc's fallback layers included, in one
    native.march call over the whole time mesh, with a ``ready`` callback
    or without, and makes no call per layer from Python: the callback runs
    once."""
    grid = make_grid(params, N=50)
    marches = []

    def counting_march(*args, **kwargs):
        marches.append((args[1], kwargs.get("first", 0), kwargs.get("stop")))
        return original(*args, **kwargs)

    original = native.march
    monkeypatch.setattr(native, "march", counting_march)
    ready = ReadyRecorder()
    result = march(params, grid)
    assert march(params, grid, ready=ready).rows.tobytes() == result.rows.tobytes()
    assert marches == [("newton" if march is march_newton else "pc", 0, None)] * 2
    assert ready.counts == [0] and ready.published() == grid.M + 1
    assert len(result.diagnostics) == grid.M
    if march is march_pc:
        assert result.diagnostics.predictor_fallback.any()


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_diagnostics_read_the_march_rows_in_place(params, march):
    """SolveResult.diagnostics copies nothing: it is the march's rows,
    one record per layer, whose field of each native.OUT_FIELDS name is
    the column of rows at that name's place."""
    result = march(params, make_grid(params, N=50))
    record = result.diagnostics
    assert len(record) == result.grid.M and np.shares_memory(record, result.rows)
    for k, name in enumerate(native.OUT_FIELDS):
        assert getattr(record, name).tobytes() == result.rows[:, k].tobytes(), name
    assert record[-1].iterations == result.rows[-1, native.OUT_FIELDS.index("iterations")]


class ReadyRecorder:
    """A march's ``ready`` callback that keeps each call's count of
    published layers, a copy of layer 0, to hold against the finished
    march, and the reader of the count, to read once the march has
    returned."""

    def __init__(self):
        self.counts, self.stored, self.published = [], [], None

    def __call__(self, surface, published):
        self.counts.append(published())
        self.stored.append(surface[:1].copy())
        self.published = published


# Where a march's layers run, and are replayed: in the kernel, and on the
# numpy twins
BACKEND_LAYERS = (contextlib.nullcontext, numpy_layers)


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_counted_march_gives_the_one_call_bits(march, mode):
    """A march with a ``ready`` callback and without one gives the
    MARCH_DIGESTS bits, in the kernel and on the numpy twins; its callback
    is called once, before any layer, with layer 0 stored and final and
    the count at 0, and the count reads M + 1 once the march has
    returned."""
    engine = "newton" if march is march_newton else "pc"
    for name, (r, q, sigma) in BIT_IDENTITY_PARAMS.items():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        for grid_name in PC_GRIDS:
            n, m = BIT_IDENTITY_GRIDS[grid_name]
            grid = make_grid(p, N=n, M=m)
            for layers in BACKEND_LAYERS:
                for ready in (None, ReadyRecorder()):
                    runs = []
                    with layers():
                        digest = march_digest(march, p, grid, mode, runs, ready)
                    assert digest == MARCH_DIGESTS[engine, mode.value, name, grid_name], \
                        (name, grid_name, layers, ready)
                    if ready is not None:
                        assert ready.counts == [0]
                        assert ready.stored[0].tobytes() == runs[0].surface[:1].tobytes()
                        assert ready.published() == grid.M + 1


SKIPPED_SLOTS = [native.OUT_FIELDS.index(name)
                 for name in ("residual_f1", "residual_f2", "backward_error")]


@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_without_diagnostics_gives_the_same_bits(march, mode):
    """A march with diagnostics=False (the frame's diagnostics 0, so its
    layers skip the passes that only fill diagnostics) stores the rho and
    surface bits of the march with them, at every MARCH_DIGESTS set of
    N8M4 and N50, and the same out[] slots apart from the skipped ones,
    which read NaN; the numpy twins' march gives the same rows."""
    keep = [k for k in range(native.OUT_SLOTS) if k not in SKIPPED_SLOTS]
    for name, (r, q, sigma) in BIT_IDENTITY_PARAMS.items():
        p = MarketParams(r=r, q=q, sigma=sigma, T=50.0)
        for grid_name in PC_GRIDS:
            n, m = BIT_IDENTITY_GRIDS[grid_name]
            grid = make_grid(p, N=n, M=m)
            full, lean = (march(p, grid, mode, diagnostics=kept) for kept in (True, False))
            assert lean.rho.tobytes() == full.rho.tobytes(), (name, grid_name)
            assert lean.surface.tobytes() == full.surface.tobytes(), (name, grid_name)
            assert lean.rows[:, keep].tobytes() == full.rows[:, keep].tobytes(), (name, grid_name)
            assert np.isnan(lean.rows[:, SKIPPED_SLOTS]).all(), (name, grid_name)
            if grid_name == "N8M4":
                with numpy_layers():
                    twin = march(p, grid, mode, diagnostics=False)
                assert twin.rows.tobytes() == lean.rows.tobytes(), (name, grid_name)


def late_failing_march(engine):
    """(march, params, grid, cfg) of a march that fails in its last layers:
    Newton's at perfbench seed 981's parameters at the default grid, with
    NoConvergence at layer 499 of 500 (the 2-cycle of ROADMAP item 1),
    and pc's with NonPositiveZ at layer 57 of 58."""
    if engine == "newton":
        p = MarketParams(r=0.068354, q=0.030826, sigma=0.194063, T=50.0)
        return march_newton, p, make_grid(p, N=200), NewtonConfig()
    return failing_march(engine)


@pytest.mark.parametrize("engine", ["newton", "pc"])
def test_counted_march_fails_as_the_one_call_march(engine):
    """A march that fails late raises the same LayerFailure (layer, tau and
    cause) with a ``ready`` callback as without one, and the count stops
    at the failing layer: it counts the layers stored before it, and the
    callback was called once, before any layer."""
    raised = []
    for ready in (None, ReadyRecorder()):
        march, p, grid, cfg = late_failing_march(engine)
        with pytest.raises(LayerFailure) as exc:
            march(p, grid, SchemeMode.UPWIND_SINGULAR, cfg, ready=ready)
        failure = exc.value
        raised.append((failure.layer, failure.tau, str(failure), type(failure.cause),
                       str(failure.cause), vars(failure.cause)))
        if ready is not None:
            assert ready.counts == [0]
            assert ready.published() == failure.layer
    assert raised[0] == raised[1]
    layer, tau, _, cause, _, _ = raised[0]
    assert (layer, cause) == ((499, NoConvergence) if engine == "newton" else
                              (57, NonPositiveZ))
    assert tau == grid.taus[layer]


@pytest.mark.parametrize("layers", BACKEND_LAYERS, ids=["kernel", "numpy"])
@pytest.mark.parametrize("engine", ["newton", "pc"])
def test_a_march_without_a_reader_publishes_its_count(params, engine, layers):
    """Every march publishes its layer count in its frame, read or not, in
    the kernel and on the numpy twins (_oracles.march_numpy): 0 before the
    frame's first march, M + 1 after a whole march, stop + 1 after a range
    first .. stop - 1, and the failed layer after a failure (Newton's
    layer 4 with max_iter = 1 in a range from layer 3, pc's layer 57 of
    58)."""
    grid = make_grid(params, N=16)
    cfg = NewtonConfig() if engine == "newton" else PredictorConfig()
    with layers():
        frame = native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR)
        set_limits(frame, cfg)
        arrays = march_arrays(grid)
        start = initial_layer(params, grid)
        arrays["rho"][0], arrays["surface"][0] = start.z, start.y
        assert native.published(frame) == 0
        assert native.march(frame, engine, *arrays.values()) is None
        assert native.published(frame) == grid.M + 1
        assert native.march(frame, engine, *arrays.values(), first=2, stop=5) is None
        assert native.published(frame) == 6
        if engine == "newton":
            set_limits(frame, NewtonConfig(max_iter=1))
            failure = native.march(frame, engine, *arrays.values(), first=3)
            assert failure[0] == 4
        else:
            _, p, grid, cfg = failing_march(engine)
            frame = native.LayerFrame(grid, p, SchemeMode.UPWIND_SINGULAR)
            set_limits(frame, cfg)
            arrays = march_arrays(grid)
            start = initial_layer(p, grid)
            arrays["rho"][0], arrays["surface"][0] = start.z, start.y
            failure = native.march(frame, engine, *arrays.values())
            assert failure[0] == 57
        assert native.published(frame) == failure[0]


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_rows_do_not_depend_on_the_heap(params, march):
    """Two marches after the heap was filled with different values give
    the same rows bytes, ``failure`` 0 on every layer, in the kernel and
    on the numpy twins."""
    grid = make_grid(params, N=50)
    for layers in BACKEND_LAYERS:
        rows = []
        for junk in (1.4e-258, -7.0):
            dirty = np.full((grid.M, native.OUT_SLOTS), junk)
            del dirty
            with layers():
                rows.append(march(params, grid).rows)
        assert rows[0].tobytes() == rows[1].tobytes(), layers
        assert not native.records(rows[0]).failure.any(), layers


def march_arrays(grid):
    """Arrays that native.march takes for a march on ``grid``, each of the
    right type and shape: taus, rho, surface and rows."""
    return {"taus": grid.taus.copy(), "rho": np.zeros(grid.M + 1),
            "surface": np.zeros((grid.M + 1, grid.N + 1)),
            "rows": np.zeros((grid.M, native.OUT_SLOTS))}


# Arrays native.march refuses: its taus of another type, layout or shape
# (a taus longer or shorter than the other arrays does not fit them), and
# one case of each other array
BAD_MARCH_ARRAYS = {
    "taus float32": ("taus", lambda g: g.taus.astype(np.float32)),
    "taus strided": ("taus", lambda g: np.repeat(g.taus, 2)[::2]),
    "taus 2-D": ("taus", lambda g: g.taus.reshape(1, -1)),
    "taus longer": ("taus", lambda g: np.append(g.taus, g.T)),
    "taus shorter": ("taus", lambda g: g.taus[:-1].copy()),
    "rho": ("rho", lambda g: np.zeros(g.M)),
    "surface": ("surface", lambda g: np.zeros((g.N + 1, g.M + 1)).T),
    "rows": ("rows", lambda g: np.zeros((g.M, native.OUT_SLOTS), np.float32)),
}


@pytest.mark.parametrize("case", sorted(BAD_MARCH_ARRAYS))
def test_native_march_rejects_arrays_it_could_overrun(params, case):
    """native.march checks the caller's arrays before any pointer reaches
    C."""
    grid = make_grid(params, N=16)
    frame = native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR)
    name, bad = BAD_MARCH_ARRAYS[case]
    arrays = march_arrays(grid)
    arrays[name] = bad(grid)
    with pytest.raises(ValueError, match=name):
        native.march(frame, "newton", *arrays.values())


@pytest.mark.parametrize("first, stop", [(-1, 1), (0, 0), (3, 2), (0, "M + 1"), ("M", "M + 1")])
def test_native_march_rejects_a_range_outside_its_arrays(params, first, stop):
    """native.march runs layer steps first .. stop - 1 only where
    0 <= first < stop <= M, and refuses any other range before any
    pointer reaches C; the arrays are left as they were."""
    grid = make_grid(params, N=16)
    frame = native.LayerFrame(grid, params, SchemeMode.UPWIND_SINGULAR)
    steps = {"M": grid.M, "M + 1": grid.M + 1}
    arrays = march_arrays(grid)
    with pytest.raises(ValueError, match="layer steps"):
        native.march(frame, "newton", *arrays.values(), first=steps.get(first, first),
                     stop=steps.get(stop, stop))
    assert not arrays["rho"].any() and not arrays["surface"].any()


def failing_march(engine, case="limit"):
    """(march, params, grid, cfg) of a march that fails: in the "limit"
    case Newton's at layer 1 with max_iter = 1, pc's with NonPositiveZ at
    layer 57 of 58; in the "overflow" case either engine's at layer 1,
    where q = 1e300 makes the rows' advection overflow, so an elimination
    meets a non-finite entry."""
    if case == "overflow":
        p = MarketParams(r=0.06, q=1e300, sigma=0.2, T=50.0)
        cfg = NewtonConfig() if engine == "newton" else PredictorConfig()
        return march_newton if engine == "newton" else march_pc, p, make_grid(p, 8, L=1.0), cfg
    if engine == "newton":
        p = MarketParams(r=0.06, q=0.04, sigma=0.2, T=50.0)
        return march_newton, p, make_grid(p, N=16), NewtonConfig(max_iter=1)
    p = MarketParams(r=0.08429, q=0.02863, sigma=0.4697, T=28.52)
    return march_pc, p, make_grid(p, N=23), PredictorConfig()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("engine", ["newton", "pc"])
def test_failing_march_raises_the_oracle_marches_failure(engine):
    """A march that fails raises the same LayerFailure from the kernel's
    march as from the oracle march on the numpy twins: the same layer and
    tau, and a cause of the same class, message and attributes.  A march
    whose elimination meets a non-finite entry fails so too, with the
    ValueError that names the array as its cause."""
    for case in ("limit", "overflow"):
        raised = []
        for layers in (contextlib.nullcontext(), numpy_layers()):
            with layers:
                march, p, grid, cfg = failing_march(engine, case)
                with pytest.raises(LayerFailure) as exc:
                    march(p, grid, SchemeMode.UPWIND_SINGULAR, cfg)
            failure = exc.value
            raised.append((failure.layer, failure.tau, str(failure), type(failure.cause),
                           str(failure.cause), vars(failure.cause)))
        assert raised[0] == raised[1], case
        layer, tau, _, cause, message, attributes = raised[0]
        if case == "overflow":
            array = "lower" if engine == "newton" else "rhs"
            assert (layer, cause, message) == (1, ValueError,
                                               f"{array} contains non-finite values")
        elif engine == "newton":
            assert (layer, cause) == (1, NoConvergence) and attributes["iterations"] == 1
        else:
            assert (layer, cause) == (57, NonPositiveZ) and attributes["z"] < 0
        assert tau == grid.taus[layer]


def recorded_rows(patch):
    """A list that gains the rows array of each native.march call made
    while ``patch`` holds."""
    seen = []
    march_in_c = native.march

    def recording(frame, engine, taus, rho, surface, rows, *args, **kwargs):
        seen.append(rows)
        return march_in_c(frame, engine, taus, rho, surface, rows, *args, **kwargs)
    patch.setattr(native, "march", recording)
    return seen


# The first-layer failures of each engine, besides failing_march's, that
# give it each failure class (failing_layer's for Newton, pc_layer_case's
# for pc)
RECORD_LAYER_CASES = {
    "newton": ["NonPositiveZ", "ZeroPivot past row 0", "SingularSchur", "ValueError in J11"],
    "pc": ["NoConvergence", "ZeroPivot past row 0", "SingularSchur", "ValueError in J11"],
}


@pytest.mark.parametrize("engine", ["newton", "pc"])
def test_failed_layers_row_is_its_failure_record(params, engine):
    """After a failed march, the failing layer's row of the march's rows
    holds what the raised cause carries: ZeroPivot's index, NonPositiveZ's
    z, NoConvergence's last step with its iterations (the cap reached) in
    ``iterations``, SingularSchur's denominator, and the index in
    native.ARRAYS of the array that a non-finite entry's ValueError
    names."""
    causes = set()
    for case in ["limit", "overflow", *RECORD_LAYER_CASES[engine]]:
        with pytest.MonkeyPatch.context() as patch:
            rows = recorded_rows(patch)
            if case in ("limit", "overflow"):
                march, p, grid, cfg = failing_march(engine, case)
                with pytest.raises(LayerFailure) as exc:
                    march(p, grid, SchemeMode.UPWIND_SINGULAR, cfg)
                layer, cause = exc.value.layer, exc.value.cause
            else:
                if engine == "newton":
                    p, grid, prev, tau_next, cfg = failing_layer(case, params, patch)
                    frame = native.LayerFrame(grid, p, SchemeMode.UPWIND_SINGULAR)
                else:
                    prev, tau_next, frame, cfg = pc_layer_case(case, params, patch)
                with pytest.raises(Exception) as exc:
                    one_layer(frame, cfg, prev, tau_next)
                layer, cause = 1, exc.value
        row = native.records(rows[-1])[layer - 1]
        value = row.failure
        if isinstance(cause, ZeroPivot):
            assert value == cause.index > 0, case
        elif isinstance(cause, NonPositiveZ):
            assert value == cause.z, case
        elif isinstance(cause, NoConvergence):
            assert (value, row.iterations) == (cause.last_step, cause.iterations)
            assert cause.iterations == cfg.max_iter, case
        elif isinstance(cause, SingularSchur):
            assert str(cause).startswith(f"Schur denominator {value:.3e} at"), case
        else:
            assert type(cause) is ValueError, case
            assert str(cause) == f"{native.ARRAYS[int(value)]} contains non-finite values"
            assert value == (1 if case == "ValueError in J11" else
                             0 if engine == "newton" else 3), case
        causes.add(type(cause))
    assert causes == {ZeroPivot, NonPositiveZ, NoConvergence, SingularSchur, ValueError}


@pytest.mark.parametrize("engine", ["newton", "pc"])
def test_march_without_diagnostics_fails_as_the_march_with_them(engine):
    """A failing march raises the same LayerFailure (layer, tau and cause)
    with diagnostics=False as with diagnostics."""
    for case in ("limit", "overflow"):
        raised = []
        for kept in (True, False):
            march, p, grid, cfg = failing_march(engine, case)
            with pytest.raises(LayerFailure) as exc:
                march(p, grid, SchemeMode.UPWIND_SINGULAR, cfg, diagnostics=kept)
            failure = exc.value
            raised.append((failure.layer, failure.tau, str(failure), type(failure.cause),
                           vars(failure.cause)))
        assert raised[0] == raised[1], case


@pytest.mark.parametrize("limit, value, cause", [("PIVOT_RTOL", 1.0, ZeroPivot),
                                                 ("SCHUR_FLOOR", 1e300, SingularSchur)])
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_reads_tridiags_limits_at_the_call(params, monkeypatch, march, limit, value,
                                                 cause):
    """tridiag's PIVOT_RTOL and SCHUR_FLOOR, as they are when a march is
    called, reach its frame's struct: the march fails at layer 1."""
    monkeypatch.setattr(tridiag, limit, value)
    with pytest.raises(LayerFailure) as exc:
        march(params, make_grid(params, N=16))
    assert exc.value.layer == 1 and type(exc.value.cause) is cause


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_refuses_a_grid_built_for_another_maturity(params, march):
    """A grid built for T = 25 does not march the market of T = 50, where
    it would run to another problem's boundary: the march raises the
    ValueError that names both maturities before its first layer."""
    grid = GridSpec(N=20, M=50, L=asianfb.default_domain_length(params), T=25.0)
    ready = ReadyRecorder()
    with pytest.raises(ValueError, match=r"T=25\.0.* T=50\.0"):
        march(params, grid, ready=ready)
    assert ready.counts == []


def test_pc_march_with_fallback_layers_matches_the_oracle_march(params):
    """A pc march whose last layers fall back to z_tilde = z_prev gives the
    oracle march's rho, surface and every slot of the per-layer record."""
    grid = make_grid(params, N=50)
    runs = []
    for layers in (contextlib.nullcontext(), numpy_layers()):
        with layers:
            runs.append(march_pc(params, grid))
    kernel, oracle = runs
    assert kernel.diagnostics.predictor_fallback.any()
    assert kernel.rho.tobytes() == oracle.rho.tobytes()
    assert kernel.surface.tobytes() == oracle.surface.tobytes()
    assert kernel.rows.tobytes() == oracle.rows.tobytes()
