"""Time development of i-operators.

Evolution is always unitary conjugation by the propagator of a Hermitian
generator.  A residual check compares a sampled trajectory against the
equation of motion i hbar d(rho)/dt = [H, rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import get_hbar
from .errors import DimensionMismatch, InsufficientPoints
from .iop import InfoOperator, validate

TIME_SPACING_RTOL = 1e-9  # np.allclose bounds on uneven trajectory time steps
TIME_SPACING_ATOL = 1e-12


@dataclass(frozen=True)
class HamiltonianOp:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class UnitaryOp:
    """A d x d unitary; built by `unitary`, which checks it.

    `defect` bounds its exact ||U^dag U - I||_F when `unitary` proved one,
    and is None otherwise.
    """

    dim: int
    matrix: np.ndarray
    defect: float | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)


def hamiltonian(m) -> HamiltonianOp:
    a = linalg.hermitian(m)
    return HamiltonianOp(dim=a.shape[0], matrix=(a + a.conj().T) / 2)


def unitary(m, known_defect=None) -> UnitaryOp:
    """`m` checked unitary to UNITARITY_TOL (NotUnitary otherwise).

    `known_defect`, a bound on the exact ||U^dag U - I||_F that the caller
    proved, replaces the dense check when it is within the tolerance.
    """
    a = linalg.as_cmatrix(m)
    d = linalg.require_square(a)
    if known_defect is None or not known_defect <= linalg.UNITARITY_TOL:
        known_defect = linalg.checked_isometry(a, name="unitarity")
    return UnitaryOp(dim=d, matrix=a, defect=known_defect)


def evolve(rho: InfoOperator, u: UnitaryOp) -> InfoOperator:
    """U rho U^dag, validated as the spectral form (w, U V) of rho's (w, V).

    No eigensolver runs: the eigenvalues carry over and the eigenvectors
    rotate, O(d^2 r) for a rank-r spectrum.  When U and V both carry an
    isometry-defect bound, that of U V is carried from them
    (`linalg.product_defect_bound`), with no Gram product; otherwise, or
    when that bound cannot settle UNITARITY_TOL, the dense check on U V
    runs, so it still catches a UnitaryOp that is not unitary, step for
    step as a check at every step would.
    """
    if rho.dim != u.dim:
        raise DimensionMismatch(f"operator dim {rho.dim} != unitary dim {u.dim}")
    w, v = rho.spectrum
    bound = None
    if u.defect is not None and rho.isometry_defect is not None:
        bound = linalg.product_defect_bound(u.defect, rho.isometry_defect, *v.shape)
    return validate(linalg.HermEigen(w, u.matrix @ v), known_defect=bound)


def propagator(h: HamiltonianOp, t0: float, t1: float) -> UnitaryOp:
    """exp(-i (t1 - t0) H / hbar).  t1 < t0 gives reverse-time development."""
    return unitary(linalg.mat_exp_herm_generator(h.matrix, t1 - t0))


def motion_residual(h: HamiltonianOp, rho_traj) -> float:
    """Max deviation of a trajectory from the equation of motion.

    Uses central differences at interior points, so trajectories generated
    by the propagator show an O(dt^2) residual, while a discontinuous jump
    shows up as O(1/dt).
    """
    traj = list(rho_traj)
    if len(traj) < 3:
        raise InsufficientPoints(f"need >= 3 points, got {len(traj)}")
    times = np.array([t for t, _ in traj], dtype=float)
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("trajectory times must be strictly increasing")
    if not np.allclose(dts, dts[0], rtol=TIME_SPACING_RTOL,
                       atol=TIME_SPACING_ATOL):
        raise ValueError("trajectory times must be uniformly spaced")
    dt = float(dts[0])
    hbar = get_hbar()
    hm = h.matrix
    worst = 0.0
    for i in range(1, len(traj) - 1):
        prev = traj[i - 1][1].matrix
        here = traj[i][1].matrix
        nxt = traj[i + 1][1].matrix
        deriv = (nxt - prev) / (2 * dt)
        commutator = hm @ here - here @ hm
        worst = max(worst, float(np.linalg.norm(1j * hbar * deriv - commutator)))
    return worst
