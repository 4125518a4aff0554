"""Kernel backend selection.

The Thomas solve sits in the innermost loop of the time marchers (two
solves per Newton iteration per layer), so it is provided both as a
Cython extension and as a pure-Python fallback.  The compiled kernel is
preferred when present; both perform the identical sequence of IEEE
double operations, so results do not depend on the backend.
"""

from . import pure

try:
    from . import _native as native
except ImportError:
    native = None

_active = native if native is not None else pure


def active():
    """Return the kernel module currently in use."""
    return _active


def active_name() -> str:
    return "native" if _active is native else "pure"


def select(name: str):
    """Switch backend ("native" or "pure"); returns the previous name.

    Used by the benchmark and the backend-equivalence tests; the solvers
    themselves always go through ``active()``.
    """
    global _active
    previous = active_name()
    if name == "native":
        if native is None:
            raise ValueError("compiled kernel is not available")
        _active = native
    elif name == "pure":
        _active = pure
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    return previous
