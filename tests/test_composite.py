import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import linalg
from iopsim.composite import (
    Branch,
    BranchDecomposition,
    CompositeSpec,
    branch_decompose,
    compose,
    entropy_additivity_defect,
    unconditional_object,
)
from iopsim.condensation import CondensationStructure, label_probabilities
from iopsim.iop import Mixture, entropy, is_pure, max_iop, pure_iop, validate

from conftest import projectors, random_iop, random_pure


@pytest.fixture
def t_structure():
    # two 2-dim condensation subspaces on a 4-dim apparatus factor
    return CondensationStructure.from_index_blocks(
        4, {"+": [0, 1], "-": [2, 3]})


class TestCompose:
    def test_max_times_max(self):
        out = compose(max_iop(2), max_iop(3))
        np.testing.assert_allclose(out.matrix, max_iop(6).matrix)

    def test_pure_times_pure(self, rng):
        assert is_pure(compose(random_pure(rng, 2), random_pure(rng, 3)))

    def test_straight_mode_block_pattern(self):
        # mixture (x) straight-mode projector occupies the two central
        # diagonal slots of the 6x6 composite
        rho_s = max_iop(2)
        rho_t0 = pure_iop([0, 1, 0])
        out = compose(rho_s, rho_t0)
        expected = np.zeros((6, 6))
        expected[1, 1] = expected[4, 4] = 0.5
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_entropy_additive(self, seed):
        rng = np.random.default_rng(seed)
        assert entropy_additivity_defect(
            random_iop(rng, 3), random_iop(rng, 2)) <= 1e-9

    def test_lifted_label_probabilities_match(self, rng, t_structure):
        rho_s = random_iop(rng, 3)
        rho_t = random_iop(rng, 4)
        joint = compose(rho_s, rho_t)
        lifted = t_structure.lift(dim_left=3)
        on_joint = dict(label_probabilities(joint, lifted))
        on_t = dict(label_probabilities(rho_t, t_structure))
        assert all(abs(on_joint[m] - on_t[m]) <= 1e-10 for m in on_t)


class TestBranchDecompose:
    def test_single_branch_separable(self, rng, t_structure):
        rho_s = random_iop(rng, 2)
        rho_t_plus = validate(
            np.pad(random_iop(rng, 2).matrix, ((0, 2), (0, 2))))
        joint = compose(rho_s, rho_t_plus)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        out = branch_decompose(joint, spec)
        assert len(out.branches) == 1
        b = out.branches[0]
        assert b.label == "+"
        assert np.isclose(b.weight, 1.0)
        assert b.residual <= 1e-10
        assert linalg.frobenius_dist(b.rho_s.matrix, rho_s.matrix) <= 1e-10

    def test_two_branch_mixture(self, rng, t_structure):
        rho_a = random_iop(rng, 2)
        rho_b = random_iop(rng, 2)
        t_plus = validate(np.pad(random_iop(rng, 2).matrix, ((0, 2), (0, 2))))
        t_minus = validate(np.pad(random_iop(rng, 2).matrix, ((2, 0), (2, 0))))
        joint = validate(0.4 * compose(rho_a, t_plus).matrix
                         + 0.6 * compose(rho_b, t_minus).matrix)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        out = branch_decompose(joint, spec)
        by_label = {b.label: b for b in out.branches}
        assert np.isclose(by_label["+"].weight, 0.4)
        assert np.isclose(by_label["-"].weight, 0.6)
        assert all(b.residual <= 1e-10 for b in out.branches)

    def test_entangled_branch_reports_residual(self, t_structure):
        # object and the inside of one subspace maximally entangled
        psi = np.zeros(8, dtype=complex)  # S dim 2, T dim 4
        psi[0 * 4 + 0] = 1 / math.sqrt(2)   # |0>|t0>
        psi[1 * 4 + 1] = 1 / math.sqrt(2)   # |1>|t1>
        joint = pure_iop(psi)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        out = branch_decompose(joint, spec)
        assert len(out.branches) == 1
        assert out.branches[0].residual > 0.1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weights_and_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        structure = CondensationStructure.from_index_blocks(
            4, {"+": [0, 1], "-": [2, 3]})
        rho = random_iop(rng, 8)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=structure)
        out = branch_decompose(rho, spec)
        assert abs(sum(b.weight for b in out.branches) - 1.0) <= 1e-9
        projected = sum(
            np.kron(np.eye(2), p) @ rho.matrix @ np.kron(np.eye(2), p)
            for p in projectors(structure))
        rebuilt = sum(b.weight * np.kron(b.rho_s.matrix, b.rho_t.matrix)
                      for b in out.branches)
        assert (np.linalg.norm(projected - rebuilt)
                <= sum(b.residual for b in out.branches) + 1e-9)


class TestUnconditionalObject:
    def test_balanced_spin_branches(self, t_structure):
        up = pure_iop([1, 0])
        down = pure_iop([0, 1])
        t_plus = pure_iop([1, 0, 0, 0])
        t_minus = pure_iop([0, 0, 1, 0])
        joint = validate(0.5 * compose(up, t_minus).matrix
                         + 0.5 * compose(down, t_plus).matrix)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        out = unconditional_object(branch_decompose(joint, spec))
        np.testing.assert_allclose(out.matrix, max_iop(2).matrix, atol=1e-12)

    def test_single_branch(self, rng, t_structure):
        rho_s = random_iop(rng, 2)
        t_plus = validate(np.pad(random_iop(rng, 2).matrix, ((0, 2), (0, 2))))
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        out = unconditional_object(branch_decompose(compose(rho_s, t_plus), spec))
        assert linalg.frobenius_dist(out.matrix, rho_s.matrix) <= 1e-10

    def test_matches_partial_trace_when_separable(self, rng, t_structure):
        rho = validate(
            0.5 * compose(random_iop(rng, 2),
                          validate(np.pad(random_iop(rng, 2).matrix,
                                          ((0, 2), (0, 2))))).matrix
            + 0.5 * compose(random_iop(rng, 2),
                            validate(np.pad(random_iop(rng, 2).matrix,
                                            ((2, 0), (2, 0))))).matrix)
        spec = CompositeSpec(dim_s=2, dim_t=4, t_structure=t_structure)
        decomp = branch_decompose(rho, spec)
        assert all(b.residual <= 1e-9 for b in decomp.branches)
        projected = sum(
            np.kron(np.eye(2), p) @ rho.matrix @ np.kron(np.eye(2), p)
            for p in projectors(t_structure))
        traced = linalg.partial_trace(projected, 2, 4, over="B")
        assert linalg.frobenius_dist(
            unconditional_object(decomp).matrix, traced) <= 1e-8


class TestQuantizationAxisIndifference:
    def test_z_and_x_mixtures_identical(self):
        up, down = np.array([1, 0]), np.array([0, 1])
        right = np.array([1, 1]) / math.sqrt(2)
        left = np.array([1, -1]) / math.sqrt(2)
        z_mix = (np.outer(up, up) + np.outer(down, down)) / 2
        x_mix = (np.outer(right, right) + np.outer(left, left)) / 2
        assert np.linalg.norm(z_mix - x_mix) <= 1e-12


class TestBranchWeightSum:
    def test_shares_the_mixture_bound(self):
        # the bound is iop.TRACE_TOL (1e-10), as for Mixture: the trace of
        # sum_i p_i rho_i is sum_i p_i
        rho = max_iop(2)
        ok = Branch("a", 0.5, rho, rho, 0.0), Branch("b", 0.5 + 5e-11, rho, rho, 0.0)
        assert len(BranchDecomposition(ok).branches) == 2
        off = Branch("a", 0.5, rho, rho, 0.0), Branch("b", 0.5 + 5e-10, rho, rho, 0.0)
        with pytest.raises(ValueError):
            BranchDecomposition(off)
        with pytest.raises(ValueError):
            Mixture(weights=(0.5, 0.5 + 5e-10), components=(rho, rho))
