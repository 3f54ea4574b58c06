"""Information vectors: phase-gauged agents for pure i-operators.

A vector carries an arbitrary overall phase that the operator it stands
for does not; a deterministic gauge (first non-negligible component made
real and positive) picks one representative so round trips are testable.
The vector is only an agent for the operator, not a state of anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotPure
from .iop import InfoOperator, is_pure, pure_iop, unit_vector

GAUGE_FLOOR = 1e-12


@dataclass(frozen=True)
class InfoVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", linalg.frozen(self.amplitudes))


def gauge_fix(amplitudes) -> InfoVector:
    """Normalize and rotate so the first component above the floor is real > 0."""
    v = unit_vector(amplitudes)
    pivot = v[np.flatnonzero(np.abs(v) > GAUGE_FLOOR)[0]]
    return InfoVector(amplitudes=v * (abs(pivot) / pivot))


def to_iop(v: InfoVector) -> InfoOperator:
    """|psi><psi|; any phase on the vector drops out."""
    return pure_iop(v.amplitudes)


def from_iop(rho: InfoOperator) -> InfoVector:
    """Gauge-fixed agent of a pure operator; its top eigenvector."""
    if not is_pure(rho):
        raise NotPure("only pure i-operators have a vector agent")
    return gauge_fix(rho.spectrum.eigenvectors[:, -1])

