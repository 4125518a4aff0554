"""Early exercise boundary of American floating-strike Asian calls.

Front-fixing finite-difference solver for the fixed-domain formulation
of the free boundary problem, with a predictor-corrector engine and a
Newton engine sharing the same implicit scheme.
"""

from ._kernels import active_name as kernel_backend
from .analysis import compare_engines, reconstruct_value, refinement_study
from .errors import (
    LayerFailure,
    NoBracket,
    NoConvergence,
    NonPositiveZ,
    SingularSchur,
    SolverError,
    ZeroPivot,
)
from .mesh import GridSpec, LayerState, default_domain_length, initial_layer, make_grid
from .model import MarketParams, rho_initial
from .results import SolveResult
from .scheme import SchemeMode
from .solver_newton import NewtonConfig, march_newton
from .solver_pc import PredictorConfig, march_pc

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "LayerFailure",
    "LayerState",
    "MarketParams",
    "NewtonConfig",
    "NoBracket",
    "NoConvergence",
    "NonPositiveZ",
    "PredictorConfig",
    "SchemeMode",
    "SingularSchur",
    "SolveResult",
    "SolverError",
    "ZeroPivot",
    "compare_engines",
    "default_domain_length",
    "initial_layer",
    "kernel_backend",
    "make_grid",
    "march_newton",
    "march_pc",
    "reconstruct_value",
    "refinement_study",
    "rho_initial",
]
