import numpy as np
import pytest

from asianfb.errors import ZeroPivot
from asianfb.tridiag import thomas_solve

from _oracles import System, dense_solve, dense_tridiag, tridiag_matvec


def system(lower, diag, upper, rhs):
    """A System of float arrays from sequences."""
    return System(*(np.asarray(a, dtype=float) for a in (lower, diag, upper, rhs)))


def random_dominant_system(rng, n):
    lower = rng.uniform(-1, 1, n - 1)
    upper = rng.uniform(-1, 1, n - 1)
    diag = np.zeros(n)
    diag[0] = abs(upper[0]) if n > 1 else 0.0
    if n > 1:
        diag[1:-1] = np.abs(lower[:-1]) + np.abs(upper[1:])
        diag[-1] = abs(lower[-1])
    diag += rng.uniform(0.5, 2.0, n)
    diag *= rng.choice([-1.0, 1.0], n)
    rhs = rng.uniform(-5, 5, n)
    return System(lower, diag, upper, rhs)


class TestThomasSolve:
    def test_identity(self):
        sys = system([0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0], [3.0, -2.0, 7.0])
        assert np.array_equal(thomas_solve(*sys), [3.0, -2.0, 7.0])

    def test_symmetric_two_by_two(self):
        sys = system([1.0], [2.0, 2.0], [1.0], [3.0, 3.0])
        assert thomas_solve(*sys) == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_single_row(self):
        sys = system([], [4.0], [], [2.0])
        assert thomas_solve(*sys) == pytest.approx([0.5])

    def test_matches_dense_oracle(self, rng):
        sys = random_dominant_system(rng, 50)
        x = thomas_solve(*sys)
        x_dense = dense_solve(sys)
        assert np.max(np.abs(x - x_dense)) <= 1e-12 * np.max(np.abs(x_dense))

    def test_residual_contract(self, rng):
        for n in (2, 7, 33, 120):
            sys = random_dominant_system(rng, n)
            x = thomas_solve(*sys)
            resid = np.max(np.abs(tridiag_matvec(sys, x) - sys.rhs))
            assert resid <= 1e-10 * (1.0 + np.max(np.abs(sys.rhs)))

    def test_unit_vector_recovery(self, rng):
        n = 20
        sys = random_dominant_system(rng, n)
        for k in (0, 7, n - 1):
            e = np.zeros(n)
            e[k] = 1.0
            probe = sys._replace(rhs=tridiag_matvec(sys, e))
            assert np.max(np.abs(thomas_solve(*probe) - e)) <= 1e-10

    def test_scaling_invariance(self, rng):
        sys = random_dominant_system(rng, 31)
        ref = thomas_solve(*sys)
        for scale in (1e-8, 3.7, -2.0, 1e8):
            scaled = [scale * a for a in sys]
            assert thomas_solve(*scaled) == pytest.approx(ref, rel=1e-12)

    def test_zero_pivot_detection(self):
        # elimination: second pivot = 1 - 1*1 = 0
        sys = system([1.0], [1.0, 1.0], [1.0], [1.0, 1.0])
        with pytest.raises(ZeroPivot) as exc:
            thomas_solve(*sys)
        assert exc.value.index == 1

        # the same vanishing pivot on an inner row of a longer system
        inner = system([1.0, 1.0], [1.0, 1.0, 5.0], [1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ZeroPivot) as exc:
            thomas_solve(*inner)
        assert exc.value.index == 1

        lead = system([1.0], [0.0, 5.0], [1.0], [1.0, 1.0])
        with pytest.raises(ZeroPivot) as exc:
            thomas_solve(*lead)
        assert exc.value.index == 0

        # an all-zero diagonal makes the relative pivot floor 0
        for zero in (system([], [0.0], [], [1.0]),
                     system([0.0], [0.0, 0.0], [0.0], [1.0, 1.0])):
            with pytest.raises(ZeroPivot) as exc:
                thomas_solve(*zero)
            assert exc.value.index == 0

    def test_deterministic(self, rng):
        sys = random_dominant_system(rng, 64)
        assert np.array_equal(thomas_solve(*sys), thomas_solve(*sys))


class TestTridiagonalSystem:
    """The system a solve is given: checked by the solve itself (the shape
    checks are test_kernels' TestKernelContract), and the dense oracle."""

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            thomas_solve(*system([np.nan], [1.0, 1.0], [0.0], [1.0, 1.0]))

    def test_dense_assembly_matches_matvec(self, rng):
        sys = random_dominant_system(rng, 9)
        x = rng.uniform(-1, 1, 9)
        dense = dense_tridiag(sys.lower, sys.diag, sys.upper)
        assert dense @ x == pytest.approx(tridiag_matvec(sys, x), rel=1e-14)
