"""Time development of i-operators.

Evolution is always unitary conjugation by the propagator of a Hermitian
generator.  A residual check compares a sampled trajectory against the
equation of motion i hbar d(rho)/dt = [H, rho].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import get_hbar
from .errors import DimensionMismatch, InsufficientPoints
from .iop import InfoOperator, validate

TIME_SPACING_RTOL = 1e-9  # np.allclose bounds on uneven trajectory time steps
TIME_SPACING_ATOL = 1e-12
# what one group's products cost in numpy call overhead beyond their
# arithmetic, in complex multiply-adds: fit to U V timed per group and
# dense for d = 32-256 and groups of 1-128 indices (README, Conventions)
GROUP_COST = 100_000


@dataclass(frozen=True)
class HamiltonianOp:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.frozen(self.matrix))


@dataclass(frozen=True)
class UnitaryOp:
    """A d x d unitary; built by `unitary`, which checks it.

    `defect` bounds its exact ||U^dag U - I||_F when `unitary` proved one,
    and is None otherwise.  `groups` holds the index groups U never
    couples, when `unitary` found more than one and rotating them one by
    one pays (`_grouped_pays`): each a sorted index array, with
    U[i, j] == 0 exactly for i and j in different groups, the finest
    partition U leaves exactly decoupled (`linalg.index_groups`).  Only
    `unitary` sets either, so a UnitaryOp built or `replace`d any other
    way holds None for both, and `evolve` checks U V and forms it densely.
    """

    dim: int
    matrix: np.ndarray
    defect: float | None = field(default=None, init=False)
    groups: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.frozen(self.matrix))


def hamiltonian(m) -> HamiltonianOp:
    a = linalg.hermitian(m)
    return HamiltonianOp(dim=a.shape[0], matrix=(a + a.conj().T) / 2)


def unitary(m, known_defect=None) -> UnitaryOp:
    """`m` checked unitary to UNITARITY_TOL (NotUnitary otherwise).

    `known_defect`, a bound on the exact ||U^dag U - I||_F that the caller
    proved, replaces the dense check when it is within the tolerance.
    The dense check also reads U's zero pattern for its `groups`, O(d^2)
    beside the check's O(d^3), once d^3 exceeds two groups' GROUP_COST:
    below that no partition can pay.  A proven bound skips both: the
    two-slit ring propagator's pattern is one group, and reading it would
    add about a sixth to a two-slit run (README, Conventions).
    """
    a = linalg.as_cmatrix(linalg.frozen(m, dtype=complex))
    d = linalg.require_square(a)
    groups = None
    if known_defect is None or not known_defect <= linalg.UNITARITY_TOL:
        known_defect = linalg.checked_isometry(a, name="unitarity")
        if d ** 3 > 2 * GROUP_COST:
            groups = linalg.index_groups(a)
    u = UnitaryOp(dim=d, matrix=a)
    object.__setattr__(u, "defect", known_defect)
    if groups is not None and _grouped_pays(groups, d, d):
        object.__setattr__(u, "groups", groups)
    return u


def _grouped_pays(groups, d: int, r: int) -> bool:
    """Whether U V for a d x r V costs less one group at a time: the dense
    product's d^2 r multiply-adds against sum_g |g|^2 r and a GROUP_COST
    per group."""
    return len(groups) * GROUP_COST < (d * d - sum(g.size ** 2 for g in groups)) * r


def _product(u: UnitaryOp, v: np.ndarray) -> np.ndarray:
    """U V, one group g of `u.groups` at a time when that pays: rows g are
    U[g, g] V[g].

    Row i of the dense product sums U[i, j] V[j] over every j, and the
    terms outside i's group are exact zeros, so this skips only zeros.
    A contiguous group is multiplied as views, straight into the result,
    which beat gathering it in 10 of 10 condensed-chain pairs (README,
    Conventions); any other group is gathered.
    """
    a, groups = u.matrix, u.groups
    if groups is None or not _grouped_pays(groups, *v.shape):
        return a @ v
    out = np.empty(v.shape, dtype=complex)
    for g in groups:
        if g[-1] - g[0] == g.size - 1:
            g = slice(g[0], g[-1] + 1)
            np.matmul(a[g, g], v[g], out=out[g])
        else:
            out[g] = a.take(g, axis=0).take(g, axis=1) @ v.take(g, axis=0)
    return out


def evolve(rho: InfoOperator, u: UnitaryOp) -> InfoOperator:
    """U rho U^dag, validated as the spectral form (w, U V) of rho's (w, V).

    No eigensolver runs: the eigenvalues carry over and the eigenvectors
    rotate, O(d^2 r) for a rank-r spectrum, or O(sum_g |g|^2 r) when U
    has decoupled `groups`.  When U and V both carry an
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
    return validate(linalg.HermEigen(w, _product(u, v)), bound)


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
