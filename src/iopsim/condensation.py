"""Condensation structures.

A condensation structure is a labeled family of mutually orthogonal
projectors summing to identity, valid over a declared time period.  While
the dynamics respects the structure (block-diagonal unitaries), the
probability of each label is a constant of the motion, and conditioning on
a label projects and renormalizes into that subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import linalg
from .dynamics import UnitaryOp
from .errors import DimensionMismatch, UnknownLabel, ZeroProbabilityLabel
from .iop import InfoOperator, condition, validate
from .serialize import fields_of, matrix_from_json, matrix_to_json

PROJECTOR_TOL = 1e-10
CONDENSED_TOL = 1e-9
BLOCK_TOL = 1e-9


@dataclass(frozen=True)
class CondensationStructure:
    dim: int
    labels: tuple
    projectors: tuple   # of read-only complex arrays
    period: tuple       # (tau1, tau2)
    # Orthonormal basis whose consecutive column groups, of ranks[i]
    # columns, span the subspaces in label order; derived, never passed.
    basis: np.ndarray = field(init=False, compare=False, repr=False)
    ranks: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        projs = tuple(linalg.as_cmatrix(p) for p in self.projectors)
        if len(labels) != len(projs) or not projs:
            raise ValueError("labels and projectors must be nonempty and aligned")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        tau1, tau2 = float(self.period[0]), float(self.period[1])
        if not tau1 < tau2:
            raise ValueError(f"period must satisfy tau1 < tau2, got {self.period}")
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for p in projs:
            if p.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"projector shape {p.shape} != dim {self.dim}")
            if np.linalg.norm(p @ p - p) > PROJECTOR_TOL or not linalg.is_hermitian(p):
                raise ValueError("projectors must be Hermitian and idempotent")
            total += p
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if np.linalg.norm(p @ q) > PROJECTOR_TOL:
                    raise ValueError("projectors must be mutually orthogonal")
        if np.linalg.norm(total - np.eye(self.dim)) > PROJECTOR_TOL:
            raise ValueError("projectors must sum to identity")
        for p in projs:
            p.setflags(write=False)
        # sum_i i P_i has eigenvalue i exactly on subspace i, so one eigh
        # sorts an eigenbasis into the subspaces in label order
        w, basis = linalg.eigh(sum(i * p for i, p in enumerate(projs)))
        ranks = np.bincount(np.rint(w).astype(int), minlength=len(projs))
        basis.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "period", (tau1, tau2))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))

    @classmethod
    def from_index_blocks(cls, dim, blocks, period=(0.0, 1.0)):
        """Structure whose subspaces are spans of basis-index groups.

        `blocks` maps label -> iterable of basis indices.
        """
        projs = []
        for idx in blocks.values():
            p = np.zeros((dim, dim), dtype=complex)
            p[list(idx), list(idx)] = 1.0
            projs.append(p)
        return cls(dim=dim, labels=tuple(blocks), projectors=tuple(projs),
                   period=period)

    def lift(self, dim_left: int) -> "CondensationStructure":
        """Same structure on a composite space, acting on the right factor."""
        eye = np.eye(dim_left, dtype=complex)
        return CondensationStructure(
            dim=dim_left * self.dim,
            labels=self.labels,
            projectors=tuple(np.kron(eye, p) for p in self.projectors),
            period=self.period,
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": [str(m) for m in self.labels],
            "period": list(self.period),
            "projectors": [matrix_to_json(p) for p in self.projectors],
        }

    @classmethod
    def from_json(cls, obj) -> "CondensationStructure":
        with fields_of("condensation structure"):
            tau1, tau2 = obj["period"]
            projectors = tuple(matrix_from_json(p) for p in obj["projectors"])
            fields = dict(dim=int(obj["dim"]), labels=tuple(obj["labels"]),
                          projectors=projectors, period=(float(tau1), float(tau2)))
            hash(fields["labels"])  # a label must be hashable: no JSON list or object
        return cls(**fields)


def _check_dims(rho: InfoOperator, c: CondensationStructure):
    if rho.dim != c.dim:
        raise DimensionMismatch(f"operator dim {rho.dim} != structure dim {c.dim}")


def label_probabilities(rho: InfoOperator, c: CondensationStructure):
    """tr(P^m rho P^m) per label.

    The projectors are complete, so the values always sum to tr rho = 1,
    inter-subspace coherences or not.  Each is computed as the O(d^2) inner
    product <P^m, rho> = tr(P^m rho), equal to tr(P^m rho P^m) because
    P^m is a Hermitian idempotent.
    """
    _check_dims(rho, c)
    return [
        (m, float(np.vdot(p, rho.matrix).real))
        for m, p in zip(c.labels, c.projectors)
    ]


def _blocks(c: CondensationStructure):
    """The block basis as one isometry B_m (d x rank) per label, in label order."""
    return np.split(c.basis, np.cumsum(c.ranks)[:-1], axis=1)


def condition_on_label(rho: InfoOperator, c: CondensationStructure, m) -> InfoOperator:
    """P^m rho P^m, renormalized: the description after learning the label.

    With P^m = B_m B_m^dag, the spectral form is (w, B_m Q) for the
    eigendecomposition Q w Q^dag of the rank x rank block B_m^dag rho B_m.
    """
    _check_dims(rho, c)
    try:
        b = _blocks(c)[c.labels.index(m)]
    except ValueError:
        raise UnknownLabel(f"unknown label {m!r}") from None
    weight, block = condition(rho.matrix, b.conj().T)
    if block is None:
        raise ZeroProbabilityLabel(f"label {m!r} has weight {weight:.3e}")
    w, q = linalg.eigh(block)
    return validate(linalg.HermEigen(w, b @ q))


def block_projected(rho: InfoOperator, c: CondensationStructure) -> InfoOperator:
    """sum_m P^m rho P^m: rho with inter-subspace coherences removed.

    Its spectrum is the union of the spectra of the blocks B_m^dag rho B_m.
    """
    _check_dims(rho, c)
    blocks = _blocks(c)
    spectra = [linalg.eigh(b.conj().T @ rho.matrix @ b) for b in blocks]
    w = np.concatenate([s.eigenvalues for s in spectra])
    v = np.hstack([b @ s.eigenvectors for b, s in zip(blocks, spectra)])
    order = np.argsort(w, kind="stable")
    return validate(linalg.HermEigen(w[order], v[:, order]))


def is_condensed_form(rho: InfoOperator, c: CondensationStructure) -> bool:
    _check_dims(rho, c)
    total = sum(p @ rho.matrix @ p for p in c.projectors)
    return float(np.linalg.norm(rho.matrix - total)) <= CONDENSED_TOL


def _coupling(u: UnitaryOp, c: CondensationStructure) -> np.ndarray:
    """k x k matrix of ||P^i U P^j||_F over the k subspaces of c.

    With B the structure's block basis, P^i U P^j = B_i (B_i^dag U B_j)
    B_j^dag, and the isometries keep the Frobenius norm, so each entry is
    the norm of one block of W = B^dag U B: two products in all, instead
    of two for every pair of subspaces.
    """
    if u.dim != c.dim:
        raise DimensionMismatch(f"unitary dim {u.dim} != structure dim {c.dim}")
    w = c.basis.conj().T @ u.matrix @ c.basis
    # member[a, i] = 1 iff basis column a lies in subspace i
    member = np.repeat(np.eye(len(c.ranks)), c.ranks, axis=0)
    return np.sqrt(member.T @ (w.real ** 2 + w.imag ** 2) @ member)


def respects_condensation(u: UnitaryOp, c: CondensationStructure) -> bool:
    """True iff u never couples distinct subspaces (block-diagonal).

    Under this criterion the label probabilities are invariants of the
    evolution.
    """
    coupling = _coupling(u, c)
    np.fill_diagonal(coupling, 0.0)
    return not np.any(coupling > BLOCK_TOL)


def finest_respected_structure(
        u: UnitaryOp, candidate: CondensationStructure) -> CondensationStructure:
    """Coarsen a candidate partition until the unitary respects it.

    Candidate blocks m, n are merged whenever ||P^m U P^n|| exceeds
    BLOCK_TOL; merging follows connected components of that coupling graph,
    and a merged label is its members' labels joined by "+" as strings.
    If nothing merges, `candidate` itself is returned, labels unchanged.
    """
    k = len(candidate.projectors)
    # self-loops on the diagonal leave the components unchanged
    n_comp, comp = connected_components(_coupling(u, candidate) > BLOCK_TOL,
                                        directed=False)
    if n_comp == k:
        return candidate
    labels, projs = [], []
    for g in range(n_comp):
        members = [i for i in range(k) if comp[i] == g]
        labels.append("+".join(str(candidate.labels[i]) for i in members))
        projs.append(sum(candidate.projectors[i] for i in members))
    return CondensationStructure(
        dim=candidate.dim, labels=tuple(labels), projectors=tuple(projs),
        period=candidate.period,
    )
