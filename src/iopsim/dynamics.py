"""Time development of i-operators.

Evolution is always unitary conjugation.  Unitaries come either from a
single Hermitian generator, or from a piecewise-constant schedule of
generators (used for interactions that switch on and off).  A residual
check compares a sampled trajectory against the equation of motion
i hbar d(rho)/dt = [H, rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import get_hbar
from .errors import DimensionMismatch, InsufficientPoints, NotUnitary
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
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def hamiltonian(m) -> HamiltonianOp:
    a = linalg.hermitian(m)
    return HamiltonianOp(dim=a.shape[0], matrix=(a + a.conj().T) / 2)


def unitary(m) -> UnitaryOp:
    a = linalg.as_cmatrix(m)
    d = linalg.require_square(a)
    defect = linalg.unitarity_defect(a)
    if defect > linalg.UNITARITY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e}")
    return UnitaryOp(dim=d, matrix=a)


def evolve(rho: InfoOperator, u: UnitaryOp) -> InfoOperator:
    """U rho U^dag, validated as the spectral form (w, U V) of rho's (w, V).

    No eigensolver runs: the eigenvalues carry over and the eigenvectors
    rotate, O(d^2 r) for a rank-r spectrum.  validate's isometry check on
    U V catches a UnitaryOp that is not unitary.
    """
    if rho.dim != u.dim:
        raise DimensionMismatch(f"operator dim {rho.dim} != unitary dim {u.dim}")
    w, v = rho.spectrum
    return validate(linalg.HermEigen(w, u.matrix @ v))


def propagator(h: HamiltonianOp, t0: float, t1: float) -> UnitaryOp:
    """exp(-i (t1 - t0) H / hbar).  t1 < t0 gives reverse-time development."""
    return UnitaryOp(dim=h.dim, matrix=linalg.mat_exp_herm_generator(h.matrix, t1 - t0))


def schedule_propagator(segments) -> UnitaryOp:
    """Ordered product of propagators for (duration, HamiltonianOp) segments.

    Models piecewise-constant time dependence, e.g. an interaction term
    that vanishes outside a finite window.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("schedule must contain at least one segment")
    dim = segments[0][1].dim
    u = np.eye(dim, dtype=complex)
    for duration, h in segments:
        if h.dim != dim:
            raise DimensionMismatch("schedule segments have mixed dimensions")
        u = linalg.mat_exp_herm_generator(h.matrix, duration) @ u
    return UnitaryOp(dim=dim, matrix=u)


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
