"""Global numerical configuration.

The only physical constant in play is hbar; everything in the library works
in natural units by default (hbar = 1).  hbar is a context variable, so an
override holds in the current thread or task only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BadParameter

_HBAR = ContextVar("hbar", default=1.0)

# Dense matrices only; scenarios stay well below this.
DIM_CAP = 4096


def get_hbar() -> float:
    return _HBAR.get()


@contextmanager
def hbar(value: float):
    """Temporarily override hbar (used by the CLI and tests)."""
    if not (value > 0 and math.isfinite(value)):
        raise BadParameter(f"hbar must be positive and finite, got {value}")
    old = get_hbar()
    _HBAR.set(float(value))
    try:
        yield
    finally:
        _HBAR.set(old)
