import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.sparse.csgraph import connected_components

from iopsim import linalg
from iopsim.condensation import (
    BLOCK_TOL,
    CondensationStructure,
    _coupling,
    _group_blocks,
    block_projected,
    condition_on_label,
    finest_respected_structure,
    is_condensed_form,
    label_probabilities,
    respects_condensation,
)
from iopsim.dynamics import UnitaryOp, evolve, unitary
from iopsim.errors import DimensionMismatch, ZeroProbabilityLabel
from iopsim.iop import max_iop, pure_iop, validate

from conftest import projectors, random_iop, random_unitary


@pytest.fixture
def structure():
    return CondensationStructure.from_index_blocks(
        4, {"+": [0, 1], "-": [2, 3]})


def block_diag_unitary(rng, sizes):
    dim = sum(sizes)
    u = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for size in sizes:
        u[offset:offset + size, offset:offset + size] = \
            random_unitary(rng, size).matrix
        offset += size
    return UnitaryOp(matrix=u)


class TestStructureValidation:
    def test_requires_completeness(self):
        with pytest.raises(ValueError):
            CondensationStructure(dim=3, labels=("a",), blocks=((0, 1),))

    def test_requires_orthogonality(self):
        with pytest.raises(ValueError):
            CondensationStructure(dim=2, labels=("a", "b"), blocks=((0,), (0,)))

    @pytest.mark.parametrize("blocks, error", [
        ({"a": [0], "b": [-1]}, DimensionMismatch),
        ({"a": [0], "b": [1, 2]}, DimensionMismatch),
        ({"a": [0], "b": [1.0]}, ValueError),
        ({"a": [0, 1], "b": [1]}, ValueError),
        ({"a": [0], "b": []}, ValueError),
    ], ids=["negative", "past-dim", "float", "duplicate", "missing"])
    def test_bad_index_is_typed(self, blocks, error):
        with pytest.raises(error):
            CondensationStructure.from_index_blocks(2, blocks)

    @pytest.mark.parametrize("dim, blocks", [
        (2.0, {"a": [0, 1]}),
        ("2", {"a": [0, 1]}),
        (True, {"a": [0]}),
        (0, {"a": []}),
        (-1, {"a": []}),
        (None, {"a": [0]}),
    ], ids=["float", "str", "bool", "zero", "negative", "none"])
    def test_bad_dim_is_typed(self, dim, blocks):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            CondensationStructure.from_index_blocks(dim, blocks)

    def test_numpy_integer_dim_is_accepted(self):
        c = CondensationStructure.from_index_blocks(np.int64(2), {"a": [0, 1]})
        assert c.blocks == ((0, 1),)

    def test_empty_group_is_rank_zero(self):
        c = CondensationStructure.from_index_blocks(2, {"a": [1, 0], "b": []})
        assert c.blocks == ((0, 1), ())
        probs = dict(label_probabilities(max_iop(2), c))
        assert probs == {"a": 1.0, "b": 0.0}


@st.composite
def partitions(draw, min_dim=1):
    """Structure on a shuffled partition of the basis indices into
    non-contiguous groups of 0 to 3 indices each."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
        lambda ranks: sum(ranks) >= min_dim))
    order = draw(st.permutations(range(sum(ranks))))
    edges = np.cumsum([0, *ranks])
    return CondensationStructure.from_index_blocks(
        sum(ranks), {f"b{i}": order[a:b]
                     for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))})


def sandwich_coupling(u, c):
    """Oracle for _coupling: the dense ||P^i U P^j||_F loop."""
    return np.array([[np.linalg.norm(p @ u.matrix @ q) for q in projectors(c)]
                     for p in projectors(c)])


def sandwich_finest(u, c, threshold=BLOCK_TOL):
    """Oracle for finest_respected_structure: (labels, projectors)."""
    k = len(projectors(c))
    adj = np.zeros((k, k), dtype=bool)
    for i, p in enumerate(projectors(c)):
        for j, q in enumerate(projectors(c)):
            if i != j and np.linalg.norm(p @ u.matrix @ q) > threshold:
                adj[i, j] = adj[j, i] = True
    n_comp, comp = connected_components(adj, directed=False)
    groups = [[i for i in range(k) if comp[i] == g] for g in range(n_comp)]
    return (tuple("+".join(str(c.labels[i]) for i in g) for g in groups),
            [sum(projectors(c)[i] for i in g) for g in groups])


class TestBlockBasis:
    """The index-block paths against their dense sandwich oracles."""

    @given(seed=st.integers(0, 2**32 - 1), c=partitions())
    @settings(max_examples=60, deadline=None)
    def test_coupling_matches_sandwich(self, seed, c):
        u = random_unitary(np.random.default_rng(seed), c.dim)
        np.testing.assert_allclose(_coupling(u, c), sandwich_coupling(u, c),
                                   rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), c=partitions(),
           groups=st.lists(st.integers(0, 2), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_decisions_match_sandwich(self, seed, c, groups):
        # U is block-diagonal over unions of groups: groups with one tag
        # are coupled, groups with different tags are not
        rng = np.random.default_rng(seed)
        groups = groups[:len(c.blocks)]
        u = np.zeros((c.dim, c.dim), dtype=complex)
        for tag in set(groups):
            idx = [j for g, h in zip(c.blocks, groups) if h == tag for j in g]
            if idx:
                u[np.ix_(idx, idx)] = random_unitary(rng, len(idx)).matrix
        u = UnitaryOp(matrix=u)
        oracle = sandwich_coupling(u, c)
        off = oracle[~np.eye(len(c.blocks), dtype=bool)]
        # keep every coupling well away from the threshold
        assume(np.all((off < BLOCK_TOL / 1000) | (off > BLOCK_TOL * 1000)))
        assert respects_condensation(u, c) == bool(np.all(off <= BLOCK_TOL))
        finest = finest_respected_structure(u, c)
        labels, oracle = sandwich_finest(u, c)
        assert finest.labels == labels
        for p, q in zip(projectors(finest), oracle):
            np.testing.assert_array_equal(p, q)

    @given(seed=st.integers(0, 2**32 - 1), c=partitions())
    @settings(max_examples=60, deadline=None)
    def test_label_probabilities_match_sandwich(self, seed, c):
        rho = random_iop(np.random.default_rng(seed), c.dim)
        got = dict(label_probabilities(rho, c))
        for m, p in zip(c.labels, projectors(c)):
            assert abs(got[m] - np.trace(p @ rho.matrix @ p).real) <= 1e-12

    def test_label_probabilities_match_the_group_sums(self, rng):
        # one weighted bincount over the index owners in place of a sum per
        # group: the same terms in another order, so they agree to d u
        c = CondensationStructure.from_index_blocks(
            128, {b: range(b, 128, 8) for b in range(8)})
        rho = random_iop(rng, 128)
        diag = rho.diagonal()
        for (_, p), g in zip(label_probabilities(rho, c), c.blocks):
            assert abs(p - diag[list(g)].sum()) <= 128 * 2.0 ** -53

    @given(seed=st.integers(0, 2**32 - 1), c=partitions())
    @settings(max_examples=60, deadline=None)
    def test_condensed_form_matches_sandwich(self, seed, c):
        rng = np.random.default_rng(seed)
        rho = random_iop(rng, c.dim)
        projected = sum(p @ rho.matrix @ p for p in projectors(c))
        assert is_condensed_form(rho, c) == bool(
            np.linalg.norm(rho.matrix - projected) <= BLOCK_TOL)
        assert is_condensed_form(validate(projected), c)

    @given(c=partitions(), dim_left=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_lift_is_kron_with_identity(self, c, dim_left):
        lifted = c.lift(dim_left)
        eye = np.eye(dim_left)
        for p, q in zip(projectors(lifted), projectors(c)):
            np.testing.assert_array_equal(p, np.kron(eye, q))


class TestLabelProbabilities:
    def test_coherent_operator_sums_to_one(self, structure):
        # inter-subspace coherences do not change the sum: tr rho = 1
        rho = pure_iop([1, 0, 1, 0])
        assert not is_condensed_form(rho, structure)
        probs = dict(label_probabilities(rho, structure))
        assert abs(sum(probs.values()) - 1.0) <= 1e-12
        assert np.isclose(probs["+"], 0.5)

    def test_mixture_weights(self, structure):
        rho_plus = pure_iop([1, 1, 0, 0])
        rho_minus = pure_iop([0, 0, 1, 1])
        rho = validate(0.3 * rho_plus.matrix + 0.7 * rho_minus.matrix)
        probs = dict(label_probabilities(rho, structure))
        assert np.isclose(probs["+"], 0.3)
        assert np.isclose(probs["-"], 0.7)

    def test_concentrated_operator(self, structure):
        probs = dict(label_probabilities(pure_iop([1, 0, 0, 0]), structure))
        assert np.isclose(probs["+"], 1.0)
        assert np.isclose(probs["-"], 0.0)

    def test_chain_reads_the_diagonal_of_its_matrix(self, rng):
        # each evolve step keeps the diagonal |V|^2 w that validate formed;
        # after 50 steps of a stacked 8 x 16 block unitary it still gives
        # the group sums of the diagonal of the matrix built from the
        # spectrum
        c = CondensationStructure.from_index_blocks(
            128, {b: range(16 * b, 16 * b + 16) for b in range(8)})
        u = unitary(block_diag_unitary(rng, [16] * 8).matrix)
        assert u.blocks is not None
        rho = random_iop(rng, 128)
        for _ in range(50):
            rho = evolve(rho, u)
        probs = np.array([p for _, p in label_probabilities(rho, c)])
        diag = np.diag(rho.matrix).real
        sums = np.array([diag[list(g)].sum() for g in c.blocks])
        assert np.max(np.abs(probs - sums)) <= 1e-15

    def test_max_operator_sees_subspace_dims(self):
        structure = CondensationStructure.from_index_blocks(
            5, {"a": [0, 1, 2], "b": [3, 4]})
        probs = dict(label_probabilities(max_iop(5), structure))
        assert np.isclose(probs["a"], 3 / 5)
        assert np.isclose(probs["b"], 2 / 5)


class TestConditionOnLabel:
    def test_projects_and_renormalizes(self):
        structure = CondensationStructure.from_index_blocks(
            3, {"a": [0, 1], "b": [2]})
        out = condition_on_label(max_iop(3), structure, "a")
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5, 0.0]),
                                   atol=1e-12)

    def test_inside_subspace_unchanged(self, structure):
        rho = pure_iop([1, 1j, 0, 0])
        out = condition_on_label(rho, structure, "+")
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_zero_probability_label(self, structure):
        with pytest.raises(ZeroProbabilityLabel):
            condition_on_label(pure_iop([1, 0, 0, 0]), structure, "-")

    def test_indicator_distribution(self, structure, rng):
        rho = random_iop(rng, 4)
        out = condition_on_label(rho, structure, "+")
        probs = dict(label_probabilities(out, structure))
        assert np.isclose(probs["+"], 1.0)
        assert np.isclose(probs["-"], 0.0, atol=1e-12)


class TestGroupBlocks:
    @pytest.mark.parametrize("blocks", [
        {"+": [0, 1], "-": [2, 3]},
        {"even": [0, 2, 4], "odd": [1, 3, 5]},
        {b: range(16 * b, 16 * b + 16) for b in range(8)},
    ], ids=["4", "6-interleaved", "128"])
    def test_blocks_are_those_of_the_matrix(self, rng, blocks):
        # each group's block is formed from the spectrum of an evolved
        # operator, which holds no matrix; it equals the block of the
        # matrix built from that spectrum
        d = sum(len(g) for g in blocks.values())
        c = CondensationStructure.from_index_blocks(d, blocks)
        rho = evolve(random_iop(rng, d), random_unitary(rng, d))
        groups = [list(g) for g in c.blocks]
        formed = _group_blocks(rho, groups)
        assert "matrix" not in vars(rho)
        for g, b in zip(groups, formed):
            assert np.max(np.abs(b - rho.matrix[np.ix_(g, g)])) <= 1e-15

    def test_projections_build_no_matrix(self, rng):
        c = CondensationStructure.from_index_blocks(
            128, {b: range(16 * b, 16 * b + 16) for b in range(8)})
        rho = evolve(random_iop(rng, 128), unitary(
            block_diag_unitary(rng, [16] * 8).matrix))
        block_projected(rho, c)
        condition_on_label(rho, c, 3)
        assert "matrix" not in vars(rho)


class TestCondensedForm:
    def test_block_diagonal_true(self, structure, rng):
        rho = block_projected(random_iop(rng, 4), structure)
        assert is_condensed_form(rho, structure)

    def test_cross_superposition_false(self, structure):
        assert not is_condensed_form(pure_iop([1, 0, 1, 0]), structure)

    def test_block_projection_idempotent(self, structure, rng):
        rho = random_iop(rng, 4)
        once = block_projected(rho, structure)
        twice = block_projected(once, structure)
        assert linalg.frobenius_dist(once.matrix, twice.matrix) <= 1e-12


class TestRespectsCondensation:
    def test_identity(self, structure):
        assert respects_condensation(
            UnitaryOp(matrix=np.eye(4, dtype=complex)), structure)

    def test_swap_false(self, structure):
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 2] = swap[2, 0] = swap[1, 3] = swap[3, 1] = 1.0
        assert not respects_condensation(UnitaryOp(matrix=swap), structure)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_block_diagonal_preserves_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        structure = CondensationStructure.from_index_blocks(
            4, {"+": [0, 1], "-": [2, 3]})
        u = block_diag_unitary(rng, [2, 2])
        assert respects_condensation(u, structure)
        rho = random_iop(rng, 4)
        before = dict(label_probabilities(rho, structure))
        after = dict(label_probabilities(evolve(rho, u), structure))
        assert all(abs(after[m] - before[m]) <= 1e-9 for m in before)


class TestFinestStructure:
    def test_block_diagonal_unitary_keeps_partition(self, structure, rng):
        u = block_diag_unitary(rng, [2, 2])
        finest = finest_respected_structure(u, structure)
        assert set(finest.labels) == {"+", "-"}

    def test_mixing_unitary_merges_blocks(self, structure, rng):
        u = random_unitary(rng, 4)
        finest = finest_respected_structure(u, structure)
        assert len(finest.labels) == 1
        assert respects_condensation(u, finest)

    def test_result_always_respected(self, rng):
        candidate = CondensationStructure.from_index_blocks(
            6, {str(k): [2 * k, 2 * k + 1] for k in range(3)})
        u = block_diag_unitary(rng, [4, 2])  # couples the first two blocks
        finest = finest_respected_structure(u, candidate)
        assert respects_condensation(u, finest)
        assert len(finest.labels) == 2

    def test_no_merge_returns_candidate(self, rng):
        candidate = CondensationStructure.from_index_blocks(
            6, {k: [2 * k, 2 * k + 1] for k in range(3)})
        u = block_diag_unitary(rng, [2, 2, 2])
        finest = finest_respected_structure(u, candidate)
        assert finest is candidate
        # labels keep their type; only merged labels are joined strings
        assert finest.labels == (0, 1, 2)
        merged = finest_respected_structure(block_diag_unitary(rng, [4, 2]),
                                            candidate)
        assert merged.labels == ("0+1", "2")

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_chain_of_couplings_merges_like_the_oracle(self, k):
        # block j couples only to block j + 1 (a Givens rotation across
        # their boundary), so merging all k needs paths of length k - 1;
        # a one-way coupling (a shear, not unitary) merges as well
        c = CondensationStructure.from_index_blocks(
            2 * k, {j: [2 * j, 2 * j + 1] for j in range(k)})
        u = np.eye(2 * k, dtype=complex)
        for j in range(k - 1):
            g = np.eye(2 * k, dtype=complex)
            g[2 * j + 1, 2 * j + 1] = g[2 * j + 2, 2 * j + 2] = math.cos(0.3)
            g[2 * j + 1, 2 * j + 2], g[2 * j + 2, 2 * j + 1] = -math.sin(0.3), math.sin(0.3)
            u = g @ u
        for matrix in (u, np.eye(2 * k) + np.eye(2 * k, k=1)):
            op = UnitaryOp(matrix=matrix.astype(complex))
            labels, _ = sandwich_finest(op, c)
            assert finest_respected_structure(op, c).labels == labels
            assert len(labels) == 1
