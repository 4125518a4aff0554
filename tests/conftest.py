import numpy as np
import pytest

from asianfb import MarketParams, make_grid, march_newton, march_pc
from asianfb._kernels import native


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernel into a temporary cache, not the source tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "CACHE_DIR", tmp_path_factory.mktemp("kernel_cache"))
        yield native.CACHE_DIR


@pytest.fixture(scope="session")
def params():
    """Reference parameter set used throughout: r=0.06, q=0.04, sigma=0.2, T=50."""
    return MarketParams(r=0.06, q=0.04, sigma=0.2, T=50.0)


@pytest.fixture(scope="session")
def default_grid(params):
    return make_grid(params, N=200)


@pytest.fixture(scope="session")
def newton_default(params, default_grid):
    """Newton march on the default configuration (upwind-singular mode)."""
    return march_newton(params, default_grid)


@pytest.fixture(scope="session")
def pc_default(params, default_grid):
    return march_pc(params, default_grid)


@pytest.fixture(scope="session")
def toy_grid(params):
    """Small N=8, M=4 problem used by the dense and fixed-point oracles."""
    return make_grid(params, N=8, M=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
