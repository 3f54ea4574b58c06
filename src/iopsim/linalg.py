"""Dense complex-matrix substrate.

Everything above this module is expressed through a handful of primitives:
Hermitian eigendecomposition, the matrix exponential of a Hermitian
generator, Kronecker products, partial traces and Frobenius distances.
Matrices are plain complex numpy arrays; helpers here validate shape and
finiteness at the entry points.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DIM_CAP, get_hbar
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotFinite,
    NotHermitian,
    NotUnitary,
)

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9  # bound on ||V^dag V - I|| for unitaries and isometries


class HermEigen(NamedTuple):
    """Spectral form sum_i w_i v_i v_i^dag, eigenvalues ascending.

    `eigenvectors` may be thin: r <= d orthonormal columns, one per
    eigenvalue, spanning a subspace that holds the whole operator.
    """

    eigenvalues: np.ndarray   # real, ascending, length r
    eigenvectors: np.ndarray  # d x r, orthonormal columns


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a complex 2-D array, checking finiteness and the size cap."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
    if max(a.shape) > DIM_CAP:
        raise DimensionMismatch(f"dimension {max(a.shape)} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix contains NaN or Inf entries")
    return a


def require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - a.conj().T))


def is_hermitian(a: np.ndarray) -> bool:
    return hermiticity_defect(a) <= HERMITICITY_TOL * max(1.0, float(np.linalg.norm(a)))


def hermitian(m) -> np.ndarray:
    """`m` as a complex array, checked finite, square and Hermitian.

    Not symmetrized.  The one place NotHermitian reports the defect.
    """
    a = as_cmatrix(m)
    require_square(a)
    if not is_hermitian(a):
        raise NotHermitian(f"hermiticity defect {hermiticity_defect(a):.3e}")
    return a


def eigh(a: np.ndarray, vectors: bool = True):
    """eigh, or eigvalsh if not `vectors`, of a matrix known to be Hermitian.

    The one call site of numpy's eigensolvers; LinAlgError -> NoConvergence.
    """
    try:
        if vectors:
            return HermEigen(*np.linalg.eigh(a))
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def herm_eig(a) -> HermEigen:
    """Eigendecomposition of `a` after the :func:`hermitian` entry check."""
    return eigh(hermitian(a))


def mat_exp_herm_generator(h, t: float) -> np.ndarray:
    """exp(-i t h / hbar) for Hermitian h, via eigendecomposition.

    Computed spectrally rather than by series so the result is unitary
    up to roundoff.
    """
    w, v = herm_eig(h)
    phases = np.exp(-1j * t * w / get_hbar())
    return (v * phases) @ v.conj().T


def kron(a, b) -> np.ndarray:
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def partial_trace(ab, dim_a: int, dim_b: int, over: str) -> np.ndarray:
    """Partial trace of a (dim_a * dim_b)-dimensional square matrix.

    `over` selects which factor to trace out: "A" or "B".
    """
    ab = as_cmatrix(ab)
    n = require_square(ab)
    if n != dim_a * dim_b:
        raise DimensionMismatch(f"dim {n} != {dim_a} * {dim_b}")
    t = ab.reshape(dim_a, dim_b, dim_a, dim_b)
    if over == "A":
        return np.einsum("ijil->jl", t)
    if over == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"over must be 'A' or 'B', got {over!r}")


def frobenius_dist(a, b) -> float:
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def unitarity_defect(u: np.ndarray) -> float:
    """||U^dag U - I||; for a thin U (d x r) this is its isometry defect."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))


def checked_spectrum(e: HermEigen) -> HermEigen:
    """`e` with finite, ascending eigenvalues and isometric eigenvectors.

    The eigenvector columns must be orthonormal to UNITARITY_TOL
    (NotUnitary otherwise), one per eigenvalue and no more than rows.
    """
    w = np.asarray(e.eigenvalues, dtype=float)
    v = as_cmatrix(e.eigenvectors)
    if w.ndim != 1 or w.size != v.shape[1] or w.size > v.shape[0]:
        raise DimensionMismatch(
            f"{np.shape(w)} eigenvalues for eigenvectors of shape {v.shape}")
    if not np.isfinite(w).all():
        raise NotFinite("eigenvalues contain NaN or Inf")
    if (w[1:] < w[:-1]).any():
        raise ValueError("eigenvalues must be in ascending order")
    defect = unitarity_defect(v)
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"isometry defect {defect:.3e}")
    return HermEigen(w, v)
