"""Global numerical configuration.

The only physical constant in play is hbar; everything in the library works
in natural units by default (hbar = 1).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from .errors import BadParameter

_HBAR = 1.0

# Dense matrices only; scenarios stay well below this.
DIM_CAP = 4096


def get_hbar() -> float:
    return _HBAR


def set_hbar(value: float) -> None:
    global _HBAR
    if not (value > 0 and math.isfinite(value)):
        raise BadParameter(f"hbar must be positive and finite, got {value}")
    _HBAR = float(value)


@contextmanager
def hbar(value: float):
    """Temporarily override hbar (used by the CLI and tests)."""
    global _HBAR
    old = _HBAR
    set_hbar(value)
    try:
        yield
    finally:
        _HBAR = old
