"""Composite systems and branch decomposition.

A composite operator on S (x) T can be decomposed over the condensation
subspaces of the T factor: each label m carries a weight, an object-side
operator, an apparatus-side operator, and a separability residual.  The
residual is reported, not assumed zero, so the separable-branch form is a
checkable property of the dynamics rather than an imposed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .condensation import CondensationStructure
from .errors import BadParameter, DimensionMismatch
from .iop import TRACE_TOL, InfoOperator, condition, entropy, validate
from .serialize import matrix_to_json


@dataclass(frozen=True)
class CompositeSpec:
    dim_s: int
    dim_t: int
    t_structure: CondensationStructure

    def __post_init__(self):
        if self.t_structure.dim != self.dim_t:
            raise DimensionMismatch(
                f"structure dim {self.t_structure.dim} != dim_t {self.dim_t}"
            )


@dataclass(frozen=True)
class Branch:
    label: object
    weight: float
    rho_s: InfoOperator
    rho_t: InfoOperator
    residual: float


@dataclass(frozen=True)
class BranchDecomposition:
    branches: tuple

    def __post_init__(self):
        bs = tuple(self.branches)
        if any(b.weight < 0 or b.residual < 0 for b in bs):
            raise BadParameter("weights and residuals must be nonnegative")
        if bs and abs(sum(b.weight for b in bs) - 1.0) > TRACE_TOL:
            raise BadParameter("branch weights must sum to 1")
        object.__setattr__(self, "branches", bs)

    def to_json(self) -> dict:
        return {
            "branches": [
                {
                    "label": str(b.label),
                    "weight": b.weight,
                    "residual": b.residual,
                    "rho_s": matrix_to_json(b.rho_s.matrix),
                    "rho_t": matrix_to_json(b.rho_t.matrix),
                }
                for b in self.branches
            ]
        }


def compose(rho_s: InfoOperator, rho_t: InfoOperator) -> InfoOperator:
    """Tensor product of descriptions; entropy is additive."""
    return validate(np.kron(rho_s.matrix, rho_t.matrix))


def branch_decompose(rho_st: InfoOperator, spec: CompositeSpec) -> BranchDecomposition:
    """Decompose over the T-factor condensation subspaces.

    For each label with nonzero weight, slices out the rows and columns
    that I (x) P^m keeps, splits that block by partial traces, and records
    how far the block is from the separable product; the T-side operator
    is embedded back into dim_t x dim_t.  Each weight is the trace that
    `condition` measured, not rescaled: zero-weight labels are omitted,
    so the weights sum to tr rho minus at most ZERO_WEIGHT_FLOOR a label.
    """
    ds, dt = spec.dim_s, spec.dim_t
    if rho_st.dim != ds * dt:
        raise DimensionMismatch(f"dim {rho_st.dim} != {ds} * {dt}")
    t = rho_st.matrix.reshape(ds, dt, ds, dt)
    branches = []
    for m, g in zip(spec.t_structure.labels, map(list, spec.t_structure.blocks)):
        r = len(g)
        weight, block = condition(t[:, g][:, :, :, g].reshape(ds * r, ds * r))
        if block is None:
            continue
        rho_s = validate(linalg.partial_trace(block, ds, r, over="B"))
        rho_t = np.zeros((dt, dt), dtype=complex)
        rho_t[np.ix_(g, g)] = linalg.partial_trace(block, ds, r, over="A")
        rho_t = validate(rho_t)
        product = np.kron(rho_s.matrix, rho_t.matrix[np.ix_(g, g)])
        distance = float(np.linalg.norm(block - product))
        branches.append(Branch(m, weight, rho_s, rho_t, weight * distance))
    return BranchDecomposition(branches=tuple(branches))


def unconditional_object(b: BranchDecomposition) -> InfoOperator:
    """Weight-averaged object operator: the description ignoring the label."""
    if not b.branches:
        raise BadParameter("decomposition has no branches")
    total = sum(br.weight * br.rho_s.matrix for br in b.branches)
    return validate(total)


def entropy_additivity_defect(rho_s: InfoOperator, rho_t: InfoOperator) -> float:
    """|E[rho_s (x) rho_t] - E[rho_s] - E[rho_t]|, zero up to roundoff."""
    return abs(entropy(compose(rho_s, rho_t)) - entropy(rho_s) - entropy(rho_t))
