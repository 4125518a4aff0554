import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asianfb import _kernels
from asianfb.errors import ZeroPivot
from asianfb.tridiag import TridiagonalSystem, thomas_solve

from test_tridiag import random_dominant_system

PROPERTY = settings(derandomize=True, deadline=None, database=None)
SIZES = st.integers(min_value=1, max_value=400)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestBackendSelection:
    def test_active_name(self):
        assert _kernels.native is None
        assert _kernels.active_name() == "pure"


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
    """A (2, n) right-hand side is one elimination that equals two single solves."""

    @PROPERTY
    @given(seed=SEEDS, n=SIZES, coupling=st.floats(min_value=0.0, max_value=4.0))
    def test_columns_bitwise_equal_single_solves(self, seed, n, coupling):
        lower, diag, upper, rhs = two_column_system(seed, n, coupling)
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
        for right in (rhs, rhs[0], rhs[1]):
            with pytest.raises(ZeroPivot) as exc:
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
