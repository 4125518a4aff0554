import contextlib
import dataclasses
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
from asianfb import _kernels, make_grid, march_newton, march_pc, solver_newton, solver_pc
from asianfb._kernels import native, pure
from asianfb.errors import ZeroPivot
from asianfb.scheme import SchemeMode
from asianfb.tridiag import TridiagonalSystem, _pivot_floor, thomas_solve

from test_tridiag import random_dominant_system

PROPERTY = settings(derandomize=True, deadline=None, database=None)
SIZES = st.integers(min_value=1, max_value=400)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COLUMNS = st.sampled_from([1, 2])

# Only a missing C compiler may skip the compiled-kernel tests.
HAS_CC = native.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler")
RUNNABLE = [pure, native] if HAS_CC else [pure]


@contextlib.contextmanager
def backend_in_use(module):
    """Run thomas_solve on ``module`` (pure or native) inside the block."""
    if module is native:
        assert native.load()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_active", module)
        yield


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """No kernel chosen or loaded, and an empty cache directory."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "CACHE_DIR", cache)
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(_kernels, "_active", None)
    return cache


def cache_files(cache):
    return sorted(path.name for path in cache.iterdir()) if cache.exists() else []


class TestBackendSelection:
    @needs_cc
    def test_active_name(self):
        assert _kernels.active() is native
        assert _kernels.active_name() == "native"
        assert asianfb.kernel_backend() == "native"

    def test_import_compiles_and_loads_nothing(self):
        probe = ("import asianfb.cli\n"
                 "from asianfb import _kernels\n"
                 "print(_kernels._active is None and _kernels.native._kernel is None)")
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    @needs_cc
    def test_first_elimination_builds_into_the_cache(self, empty_cache, monkeypatch):
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        thomas_solve(sys_)
        assert _kernels.active() is native
        assert cache_files(empty_cache) == [native.library_path().name]
        # a second process (here: a reset) loads the cached library, with no compiler
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        assert native.load()

    def test_pure_without_compiler(self, empty_cache, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        x = thomas_solve(sys_)
        assert _kernels.active() is pure
        assert asianfb.kernel_backend() == "pure"
        assert np.array_equal(x, pure.thomas(sys_.lower, sys_.diag, sys_.upper, sys_.rhs,
                                             _pivot_floor(sys_.diag))[0])
        assert cache_files(empty_cache) == []

    def test_pure_when_the_build_fails(self, empty_cache, tmp_path, monkeypatch):
        failing = tmp_path / "cc"
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        monkeypatch.setattr(native, "find_compiler", lambda: str(failing))
        assert _kernels.active_name() == "pure"
        assert cache_files(empty_cache) == []  # no half-written library is left

    def test_pure_when_the_load_fails(self, empty_cache, tmp_path, monkeypatch):
        # a corrupt cached file, and a "compiler" whose output does not load either
        junk = tmp_path / "cc"
        junk.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\necho junk > "$2"\n')
        junk.chmod(0o755)
        monkeypatch.setattr(native, "find_compiler", lambda: str(junk))
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        assert _kernels.active_name() == "pure"
        assert cache_files(empty_cache) == [native.library_path().name]

    def test_pure_when_the_cached_file_does_not_load_and_no_compiler(self, empty_cache,
                                                                     monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        assert _kernels.active_name() == "pure"
        assert native.library_path().read_bytes() == b"not a shared library"

    @needs_cc
    def test_corrupt_cached_library_is_rebuilt(self, empty_cache):
        empty_cache.mkdir()
        native.library_path().write_bytes(b"not a shared library")
        sys_ = random_dominant_system(np.random.default_rng(0), 12)
        x = thomas_solve(sys_)
        assert _kernels.active_name() == "native"
        assert np.array_equal(x, pure.thomas(sys_.lower, sys_.diag, sys_.upper, sys_.rhs,
                                             _pivot_floor(sys_.diag))[0])
        assert cache_files(empty_cache) == [native.library_path().name]
        assert native.library_path().read_bytes() != b"not a shared library"

    @needs_cc
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
            assert out.strip() == "native True"
        assert len(cache_files(cache)) == 1  # one library, no temporary left behind


# Build the kernel into an empty cache (argv[1]) from a fresh interpreter at a
# set time (argv[3]) and check one solve against the pure kernel.
BUILD_AND_SOLVE = """
import sys, time
from pathlib import Path
import numpy as np
from asianfb import _kernels
from asianfb._kernels import native, pure
native.CACHE_DIR = Path(sys.argv[1])
rng = np.random.default_rng(int(sys.argv[2]))
n = 300
args = (rng.uniform(-1, 1, n - 1), rng.uniform(2.5, 4, n), rng.uniform(-1, 1, n - 1),
        rng.uniform(-5, 5, (2, n)), 1e-14)
time.sleep(max(0.0, float(sys.argv[3]) - time.time()))
name = _kernels.active_name()
x, fail = native.thomas(*args)
x_pure, fail_pure = pure.thomas(*args)
print(name, fail == fail_pure == -1 and x.tobytes() == x_pure.tobytes())
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


def solve_or_fail(lower, diag, upper, rhs):
    """(solution, None) or (None, index of the ZeroPivot raised)."""
    try:
        return thomas_solve(TridiagonalSystem(lower, diag, upper, rhs)), None
    except ZeroPivot as exc:
        return None, exc.index


class TestTwoColumnKernel:
    """A (2, n) right-hand side is one elimination that equals two single solves.

    Each property runs on every backend this machine can run.
    """

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, coupling=st.floats(min_value=0.0, max_value=4.0))
    def test_columns_bitwise_equal_single_solves(self, seed, n, coupling):
        lower, diag, upper, rhs = two_column_system(seed, n, coupling)
        for backend in RUNNABLE:
            with backend_in_use(backend):
                both, fail = solve_or_fail(lower, diag, upper, rhs)
                first, fail_first = solve_or_fail(lower, diag, upper, rhs[0])
                second, fail_second = solve_or_fail(lower, diag, upper, rhs[1])
            assert fail == fail_first == fail_second
            if fail is None:
                assert both.shape == (2, n)
                assert np.array_equal(both[0], first)
                assert np.array_equal(both[1], second)

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, where=st.sampled_from(["first", "inner", "last"]))
    def test_zero_pivot_reported_at_the_same_row(self, seed, n, where):
        lower, diag, upper, rhs = two_column_system(seed, n)
        row = {"first": 0, "inner": n // 2, "last": n - 1}[where]
        # rows above stay dominant; this row's pivot is 0 - 0 * cp = 0 exactly
        diag[row] = 0.0
        if row > 0:
            lower[row - 1] = 0.0
        for backend in RUNNABLE:
            for right in (rhs, rhs[0], rhs[1]):
                with backend_in_use(backend), pytest.raises(ZeroPivot) as exc:
                    thomas_solve(TridiagonalSystem(lower, diag, upper, right))
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
        with pytest.raises(ValueError):
            TridiagonalSystem(lower, diag, upper, rhs)


def kernel_input(seed, n, ncol, coupling=1.0):
    """thomas() arguments: a (possibly non-dominant) system with 1 or 2 columns."""
    lower, diag, upper, rhs = two_column_system(seed, n, coupling)
    return lower, diag, upper, (rhs[0] if ncol == 1 else rhs), _pivot_floor(diag)


def assert_same_result(args):
    """native.thomas and pure.thomas give the same solution bits and failing row."""
    x, fail = native.thomas(*args)
    x_pure, fail_pure = pure.thomas(*args)
    assert fail == fail_pure
    assert x.shape == x_pure.shape == args[3].shape
    assert x.tobytes() == x_pure.tobytes()
    return fail


@needs_cc
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
        lower, diag, upper, rhs, floor = kernel_input(seed, n, ncol)
        row = {"first": 0, "inner": n // 2, "last": n - 1}[where]
        diag[row] = 0.0
        if row > 0:
            lower[row - 1] = 0.0
        assert assert_same_result((lower, diag, upper, rhs, floor)) == row
        assert not native.thomas(lower, diag, upper, rhs, floor)[0].any()

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, ncol=COLUMNS,
           field=st.sampled_from(["lower", "diag", "upper", "rhs"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_values_propagate_like_pure(self, seed, n, ncol, field, bad):
        # thomas_solve rejects these before any kernel runs; the kernels
        # themselves must still agree on them (NaN payloads aside)
        lower, diag, upper, rhs, floor = kernel_input(seed, n, ncol)
        target = {"lower": lower, "diag": diag, "upper": upper, "rhs": rhs.reshape(-1)}[field]
        assume(target.size > 0)
        target[seed % target.size] = bad
        x, fail = native.thomas(lower, diag, upper, rhs, floor)
        x_pure, fail_pure = pure.thomas(lower, diag, upper, rhs, floor)
        assert fail == fail_pure
        assert np.array_equal(x, x_pure, equal_nan=True)
        with backend_in_use(native), pytest.raises(ValueError):
            thomas_solve(TridiagonalSystem(lower, diag, upper, rhs))

    def test_rejects_mismatched_shapes(self):
        diag = np.ones(4)
        for lower, rhs in ((np.ones(2), np.ones(4)), (np.ones(3), np.ones(5)),
                           (np.ones(3), np.ones((3, 4)))):
            with pytest.raises(ValueError):
                native.thomas(lower, diag, np.ones(3), rhs, 1e-14)


@pytest.fixture
def bindings_built(monkeypatch):
    """A list that gains one entry per native.Binding constructed; nothing cached."""
    built = []
    init = native.Binding.__init__

    def counting_init(self, *arrays):
        built.append(1)
        init(self, *arrays)

    monkeypatch.setattr(native.Binding, "__init__", counting_init)
    monkeypatch.setattr(native, "_last", None)
    return built


@needs_cc
class TestNativeCache:
    """native.thomas reuses the Binding of the last call's arrays, and only it."""

    @pytest.mark.parametrize("run, expected", [
        (march_newton, 1), (march_pc, 1), (asianfb.compare_engines, 2),
    ], ids=["newton", "pc", "compare"])
    def test_one_binding_per_march(self, params, bindings_built, run, expected):
        with backend_in_use(native):
            run(params, make_grid(params, N=50))
        assert len(bindings_built) == expected

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-matrix", "own-arrays"])
    def test_alternating_systems_overwritten_in_place(self, shared):
        # a frame's pair and single systems share lower, diag and upper, so
        # their right-hand sides alone tell them apart
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
            args = (*system, _pivot_floor(system[1]))
            x, fail = native.thomas(*args)
            x_pure, fail_pure = pure.thomas(*args)
            assert fail == fail_pure == -1
            assert x.tobytes() == x_pure.tobytes()
            solved.append((x, x_pure))
        # every solution is an array of its own, untouched by later solves
        assert all(x.tobytes() == x_pure.tobytes() for x, x_pure in solved)

    @pytest.mark.parametrize("ncol", [1, 2])
    def test_solvable_call_after_a_zero_pivot(self, ncol):
        lower, diag, upper, rhs, floor = kernel_input(11, 50, ncol)
        kept = diag[20], lower[19]
        diag[20] = lower[19] = 0.0
        assert assert_same_result((lower, diag, upper, rhs, floor)) == 20
        diag[20], lower[19] = kept
        assert assert_same_result((lower, diag, upper, rhs, floor)) == -1


BACKENDS = [pure, pytest.param(native, marks=needs_cc)]


@pytest.mark.parametrize("backend", BACKENDS, ids=["pure", "native"])
def test_strided_input(backend):
    """Views with strides (and a column-major rhs) solve as their contiguous copies."""
    rng = np.random.default_rng(7)
    sys_ = random_dominant_system(rng, 40)
    rhs = np.stack((sys_.rhs, rng.uniform(-5, 5, 40)))
    wide = np.zeros((4, 2 * 40))
    wide[0, ::2], wide[1, :-2:2], wide[2, :-2:2] = sys_.diag, sys_.lower, sys_.upper
    strided = TridiagonalSystem(wide[1, :-2:2], wide[0, ::2], wide[2, :-2:2],
                                np.asfortranarray(rhs))
    assert not strided.diag.flags.c_contiguous and not strided.rhs.flags.c_contiguous
    with backend_in_use(backend):
        got = thomas_solve(strided)
        want = thomas_solve(TridiagonalSystem(sys_.lower, sys_.diag, sys_.upper, rhs))
        single = thomas_solve(TridiagonalSystem(wide[1, :-2:2], wide[0, ::2],
                                                wide[2, :-2:2], rhs.T[:, 1]))
    assert got.tobytes() == want.tobytes()
    assert single.tobytes() == want[1].tobytes()


@needs_cc
@pytest.mark.parametrize("mode", list(SchemeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_march_bit_identical_across_backends(params, march, mode):
    grid = make_grid(params, N=50)
    results = []
    for backend in (pure, native):
        with backend_in_use(backend):
            results.append(march(params, grid, mode))
    by_pure, by_native = results
    assert by_native.rho.tobytes() == by_pure.rho.tobytes()
    assert by_native.surface.tobytes() == by_pure.surface.tobytes()
    assert [dataclasses.astuple(d) for d in by_native.diagnostics] == \
        [dataclasses.astuple(d) for d in by_pure.diagnostics]


@pytest.mark.parametrize("march", [march_newton, march_pc], ids=["newton", "pc"])
def test_eliminations_enter_through_the_traced_entry_points(params, monkeypatch, march):
    """Every elimination calls tridiag.thomas_solve, as bound in the module
    that calls it, and the active backend's thomas with diag second, which
    is where a tracer set on those names counts solves and rows."""
    grid = make_grid(params, N=40)
    backend = _kernels.active()
    kernel_rows, solves = [], []

    def counting_kernel(*args, **kwargs):
        kernel_rows.append(len(args[1]))
        return kernel(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return thomas_solve(*args, **kwargs)

    kernel = backend.thomas
    monkeypatch.setattr(backend, "thomas", counting_kernel)
    for name, module in list(sys.modules.items()):
        if name.startswith("asianfb") and getattr(module, "thomas_solve", None) is thomas_solve:
            monkeypatch.setattr(module, "thomas_solve", counting_solve)
    result = march(params, grid)
    if march is march_newton:  # one (2, n) elimination per Newton iteration
        expected = sum(d.iterations for d in result.diagnostics)
    else:  # frozen solve, Schur column, frozen solve at the corrected z
        expected = 3 * grid.M
    assert len(kernel_rows) == len(solves) == expected
    assert set(kernel_rows) == {grid.N - 1}


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
