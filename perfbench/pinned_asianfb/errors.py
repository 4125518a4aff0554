"""Solver exception types."""


class SolverError(Exception):
    """Base class for numerical failures raised by the engines."""


class ZeroPivot(SolverError):
    """Thomas elimination hit a pivot below the stability floor."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero pivot in tridiagonal elimination at row {index}")


class NoBracket(SolverError):
    """The scalar predictor residual has no sign change in the search bracket."""


class NoConvergence(SolverError):
    """Iteration cap reached before meeting the stopping tolerance."""

    def __init__(self, iterations: int, last_step: float):
        self.iterations = iterations
        self.last_step = last_step
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last update {last_step:.3e})"
        )


class NonPositiveZ(SolverError):
    """A free-boundary iterate left the positive half-line."""

    def __init__(self, z: float):
        self.z = z
        super().__init__(f"free-boundary ratio became non-positive (z={z:.6g})")


class SingularSchur(SolverError):
    """The scalar Schur complement of the layer Jacobian vanished."""


class LayerFailure(SolverError):
    """A time-marching step failed; carries the 1-based layer index."""

    def __init__(self, layer: int, tau: float, cause: SolverError):
        self.layer = layer
        self.tau = tau
        self.cause = cause
        super().__init__(f"layer {layer} (tau={tau:.6g}) failed: {cause}")
