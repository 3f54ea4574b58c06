"""Random operators for randomized invariant checks.

Shared by `iopsim selftest` and the test suite.  Every draw takes the
generator explicitly, so a seeded `numpy.random.Generator` reproduces the
same operators in the same order.
"""

from __future__ import annotations

import numpy as np

from .dynamics import UnitaryOp, unitary
from .iop import InfoOperator, pure_iop, validate


def _ginibre(rng, d) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_iop(rng, d) -> InfoOperator:
    """Full-rank i-operator A A^dag / tr(A A^dag) from a Ginibre matrix A."""
    a = _ginibre(rng, d)
    m = a @ a.conj().T
    return validate(m / np.trace(m).real)


def random_unitary(rng, d) -> UnitaryOp:
    """Haar-distributed unitary: QR of a Ginibre matrix, phases fixed by R."""
    q, r = np.linalg.qr(_ginibre(rng, d))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return unitary(q)


def random_pure(rng, d) -> InfoOperator:
    return pure_iop(rng.normal(size=d) + 1j * rng.normal(size=d))
