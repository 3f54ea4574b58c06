"""Time development of i-operators.

Evolution is always unitary conjugation by the propagator of a Hermitian
generator.  A residual check compares a sampled trajectory against the
equation of motion i hbar d(rho)/dt = [H, rho].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .config import get_hbar
from .errors import (BadParameter, DimensionMismatch, InsufficientPoints,
                     NotFinite, NotUnitary)
from .iop import InfoOperator, validate


@dataclass(frozen=True)
class HamiltonianOp:
    """A Hermitian H, checked by `linalg.hermitian`, then symmetrized."""

    matrix: np.ndarray

    def __post_init__(self):
        a = linalg.hermitian(self.matrix)
        object.__setattr__(self, "matrix", linalg.frozen((a + a.conj().T) / 2))


@dataclass(frozen=True)
class UnitaryOp:
    """A square matrix, of size `dim`; built by `unitary`, which checks it unitary.

    `defect` bounds its exact ||U^dag U - I||_F when `unitary` proved one,
    and is None otherwise.  `blocks` (k x s x s) stacks U's blocks on the
    index groups it never couples (`linalg.paying_groups`) when they are
    k contiguous groups of one size s, and `evolve` applies them to every
    V.  Only `unitary` sets these, so a UnitaryOp built or `replace`d any
    other way holds None for each, and `evolve` checks U V densely.
    """

    matrix: np.ndarray
    defect: float | None = field(default=None, init=False)
    blocks: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.frozen(self.matrix))
        linalg.require_square(self.matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class FourierUnitary:
    """F^-1 diag(phases) F on the first n = len(phases) indices and the
    identity on the rest, F the DFT; built by `fourier_unitary`, which
    checks it.

    `evolve` applies it by FFT, O(n log n) per column, so no d x d array
    is built; `matrix` is built on first read, as the circulant whose
    first column is the inverse DFT of the phases.
    """

    dim: int
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", linalg.frozen(self.phases))

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.phases.size
        column = np.fft.ifft(self.phases)
        k = np.arange(n)
        a = np.eye(self.dim, dtype=complex)
        a[:n, :n] = column[(k[:, None] - k) % n]
        a.setflags(write=False)
        return a


def unitary(m) -> UnitaryOp:
    """`m` checked unitary to UNITARITY_TOL (NotUnitary otherwise).

    The check's bound is kept as `defect`.  When `linalg.paying_groups`
    finds groups, the check forms only their blocks' Grams, exactly those
    of U^dag U: O(sum_g |g|^3) in place of O(d^3).  The one decision of
    how U is applied: its stacked `blocks`, when kept, serve every V.
    """
    a = linalg.frozen(linalg.as_cmatrix(m))
    u = UnitaryOp(matrix=a)
    groups = linalg.paying_groups(a)
    blocks = groups and [a[np.ix_(g, g)] for g in groups]
    if groups and all(g.size == u.dim // len(groups) and g[-1] - g[0] == g.size - 1
                      for g in groups):
        object.__setattr__(u, "blocks", linalg.frozen(np.stack(blocks)))
    object.__setattr__(u, "defect", linalg.checked_isometry(
        a, name="unitarity", blocks=blocks))
    return u


def fourier_unitary(phases, dim: int) -> FourierUnitary:
    """F^-1 diag(phases) F on indices < len(phases) <= dim, the identity
    on the rest, checked unitary to UNITARITY_TOL.

    The DFT diagonalizes it, so its exact ||U^dag U - I||_F is
    ||(|phases_k|^2 - 1)_k|| (Gray, Toeplitz and Circulant Matrices: A
    Review, 2006): NotUnitary above the tolerance.
    """
    lam = np.asarray(phases, dtype=complex)
    if lam.ndim != 1 or lam.size > dim:
        raise DimensionMismatch(f"phases of shape {lam.shape} for dim {dim}")
    if not np.isfinite(lam).all():
        raise NotFinite("phases contain NaN or Inf")
    defect = float(np.linalg.norm(lam.real ** 2 + lam.imag ** 2 - 1))
    if defect > linalg.UNITARITY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e}")
    return FourierUnitary(dim=dim, phases=lam)


def _product(u: UnitaryOp | FourierUnitary, v: np.ndarray) -> np.ndarray:
    """U V for a d x r V, fresh and read-only: by FFT for a FourierUnitary,
    with the rows past its phases copied through; else as one matmul of
    the stacked `u.blocks` when `unitary` kept them: rows g are U[g, g] V[g].

    Row i of the dense product sums U[i, j] V[j] over every j, and the
    terms outside i's group are exact zeros, so this skips only zeros.
    Any other U V is the dense product (README, Conventions).
    """
    if isinstance(u, FourierUnitary):
        n = u.phases.size
        out = v.astype(complex)
        out[:n] = np.fft.ifft(u.phases[:, None] * np.fft.fft(v[:n], axis=0), axis=0)
    elif u.blocks is None:
        out = u.matrix @ v
    else:
        out = np.empty(v.shape, dtype=complex)
        k, s, _ = u.blocks.shape
        np.matmul(u.blocks, v.reshape(k, s, -1), out=out.reshape(k, s, -1))
    out.setflags(write=False)
    return out


def evolve(rho: InfoOperator, u: UnitaryOp | FourierUnitary) -> InfoOperator:
    """U rho U^dag, validated as the spectral form (w, U V) of rho's (w, V).

    No eigensolver runs: the eigenvalues carry over and the eigenvectors
    rotate, O(d^2 r) for a rank-r spectrum, O(d^2 r / k) when U has k
    stacked `blocks`, O(d log d r) for a FourierUnitary.  When a
    UnitaryOp U and V both carry an isometry-defect bound, that of U V
    is carried from them (`linalg.product_defect_bound`), with no Gram
    product; otherwise, or when that bound cannot settle UNITARITY_TOL,
    the dense check on U V runs, so it still catches a UnitaryOp that is
    not unitary, step for step as a check at every step would.
    """
    if rho.dim != u.dim:
        raise DimensionMismatch(f"operator dim {rho.dim} != unitary dim {u.dim}")
    w, v = rho.spectrum
    bound = None
    if (isinstance(u, UnitaryOp) and u.defect is not None
            and rho.isometry_defect is not None):
        bound = linalg.product_defect_bound(u.defect, rho.isometry_defect, *v.shape)
    return validate(linalg.HermEigen(w, _product(u, v)), bound)


def propagator(h: HamiltonianOp, t0: float, t1: float) -> UnitaryOp:
    """exp(-i (t1 - t0) H / hbar), as (V exp(-i t w / hbar)) V^dag from one
    `linalg.eigh` of the H that `HamiltonianOp` checked: computed
    spectrally rather than by series, so it is unitary up to roundoff.
    t1 < t0 gives reverse-time development."""
    w, v = linalg.eigh(h.matrix)
    phases = np.exp(-1j * (t1 - t0) * w / get_hbar())
    return unitary((v * phases) @ v.conj().T)


def motion_residual(h: HamiltonianOp, rhos, dt: float) -> float:
    """Max deviation from the equation of motion of operators sampled
    every `dt`.

    Uses central differences at interior points, so samples generated
    by the propagator show an O(dt^2) residual, while a discontinuous jump
    shows up as O(1/dt).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise BadParameter(f"time step must be positive and finite, got {dt}")
    mats = [rho.matrix for rho in rhos]
    if len(mats) < 3:
        raise InsufficientPoints(f"need >= 3 points, got {len(mats)}")
    hm, hbar = h.matrix, get_hbar()
    return max(float(np.linalg.norm(1j * hbar * (nxt - prev) / (2 * dt)
                                    - (hm @ here - here @ hm)))
               for prev, here, nxt in zip(mats, mats[1:], mats[2:]))
