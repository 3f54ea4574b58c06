"""Condensation structures.

A condensation structure is a labeled partition of the basis indices
0..dim-1 into groups: label m stands for the span of its group, whose
projector P^m is the 0/1 diagonal on the group (an empty group has rank
0).  While the dynamics respects the structure (block-diagonal
unitaries), the probability of each label is a constant of the motion,
and conditioning on a label projects and renormalizes into that
subspace.  Every operation indexes the operator or unitary by the
groups; other orthogonal subspaces become such a partition once the
operator and unitary are rotated into a basis adapted to them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .dynamics import UnitaryOp
from .errors import (BadParameter, DimensionMismatch, UnknownLabel,
                     ZeroProbabilityLabel)
from .iop import InfoOperator, _from_spectrum, condition, validate

BLOCK_TOL = 1e-9


@dataclass(frozen=True)
class CondensationStructure:
    dim: int
    labels: tuple
    blocks: tuple       # one sorted tuple of basis indices per label

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer))
                or self.dim < 1):
            raise BadParameter(f"dim must be a positive integer, got {self.dim!r}")
        labels = tuple(self.labels)
        try:
            blocks = tuple(tuple(sorted(operator.index(j) for j in g))
                           for g in self.blocks)
        except TypeError:
            raise BadParameter(
                f"block indices must be integers: {self.blocks!r}") from None
        if len(labels) != len(blocks) or not blocks:
            raise BadParameter("labels and blocks must be nonempty and aligned")
        if len(set(labels)) != len(labels):
            raise BadParameter("labels must be distinct")
        flat = sorted(j for g in blocks for j in g)
        if flat and not 0 <= flat[0] <= flat[-1] < self.dim:
            raise DimensionMismatch(
                f"block indices {flat[0]}..{flat[-1]} outside [0, {self.dim})")
        if flat != list(range(self.dim)):
            raise BadParameter("blocks must hold each basis index exactly once")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_index_blocks(cls, dim, blocks):
        """Structure whose subspaces are spans of basis-index groups.

        `blocks` maps label -> iterable of basis indices.
        """
        return cls(dim=dim, labels=tuple(blocks), blocks=tuple(blocks.values()))

    def lift(self, dim_left: int) -> "CondensationStructure":
        """Same structure on a composite space, acting on the right factor."""
        return CondensationStructure(
            dim=dim_left * self.dim,
            labels=self.labels,
            blocks=tuple(tuple(i * self.dim + j for i in range(dim_left) for j in g)
                         for g in self.blocks))

    @cached_property
    def _owner(self) -> np.ndarray:
        """owner[j] is the position of the label whose group holds index j."""
        owner = np.empty(self.dim, dtype=int)
        for i, g in enumerate(self.blocks):
            owner[list(g)] = i
        owner.setflags(write=False)
        return owner


def _check_dims(rho: InfoOperator, c: CondensationStructure):
    if rho.dim != c.dim:
        raise DimensionMismatch(f"operator dim {rho.dim} != structure dim {c.dim}")


def label_probabilities(rho: InfoOperator, c: CondensationStructure):
    """tr(P^m rho P^m) per label: the sum of rho's diagonal over the group.

    The diagonal is read from rho's spectrum, so no matrix is built.  The
    groups partition the indices, so the values always sum to tr rho = 1,
    inter-subspace coherences or not.
    """
    _check_dims(rho, c)
    sums = np.bincount(c._owner, weights=rho.diagonal(), minlength=len(c.blocks))
    return [(m, float(p)) for m, p in zip(c.labels, sums)]


def _group_blocks(rho: InfoOperator, groups) -> list:
    """rho[g, g] per index group g, from rho's spectrum (w, V) as
    `iop._from_spectrum` forms (V[g] w) V[g]^dag: no d x d matrix is built."""
    w, v = rho.spectrum
    return [_from_spectrum(w, v[g]) for g in groups]


def condition_on_label(rho: InfoOperator, c: CondensationStructure, m) -> InfoOperator:
    """P^m rho P^m, renormalized: the description after learning the label.

    Only the rank x rank block rho[g, g] of the label's group g is
    conditioned and diagonalized.
    """
    _check_dims(rho, c)
    try:
        g = list(c.blocks[c.labels.index(m)])
    except ValueError:
        raise UnknownLabel(f"unknown label {m!r}") from None
    weight, block = condition(_group_blocks(rho, [g])[0])
    if block is None:
        raise ZeroProbabilityLabel(f"label {m!r} has weight {weight:.3e}")
    return validate(*linalg.grouped_eigh([block], [g], c.dim))


def block_projected(rho: InfoOperator, c: CondensationStructure) -> InfoOperator:
    """sum_m P^m rho P^m: rho with inter-subspace coherences removed.

    Its spectrum is the union of the spectra of the group blocks rho[g, g].
    """
    _check_dims(rho, c)
    groups = [list(g) for g in c.blocks]
    return validate(*linalg.grouped_eigh(_group_blocks(rho, groups), groups, c.dim))


def is_condensed_form(rho: InfoOperator, c: CondensationStructure) -> bool:
    """True iff the entries of rho outside the group blocks are negligible."""
    _check_dims(rho, c)
    owner = c._owner
    outside = rho.matrix[owner[:, None] != owner[None, :]]
    return float(np.linalg.norm(outside)) <= BLOCK_TOL


def _coupling(u: UnitaryOp, c: CondensationStructure) -> np.ndarray:
    """k x k matrix of ||P^i U P^j||_F over the k groups of c.

    P^i U P^j keeps the entries of U in the rows of group i and the
    columns of group j, so the squared norms are the group sums
    member^T |U|^2 member, with member the d x k 0/1 membership matrix.
    """
    if u.dim != c.dim:
        raise DimensionMismatch(f"unitary dim {u.dim} != structure dim {c.dim}")
    member = np.eye(len(c.blocks))[c._owner]
    return np.sqrt(member.T @ (u.matrix.real ** 2 + u.matrix.imag ** 2) @ member)


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
    BLOCK_TOL; merging follows connected components of that coupling graph
    (`linalg.index_groups`), and a merged label is its members' labels
    joined by "+" as strings.
    If nothing merges, `candidate` itself is returned, labels unchanged.
    """
    k = len(candidate.blocks)
    comps = linalg.index_groups(_coupling(u, candidate) > BLOCK_TOL) or (range(k),)
    if len(comps) == k:
        return candidate
    return CondensationStructure(
        dim=candidate.dim,
        labels=tuple("+".join(str(candidate.labels[i]) for i in c) for c in comps),
        blocks=tuple([j for i in c for j in candidate.blocks[i]] for c in comps))
