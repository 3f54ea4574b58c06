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
    block_projected,
    condition_on_label,
    finest_respected_structure,
    is_condensed_form,
    label_probabilities,
    respects_condensation,
)
from iopsim.dynamics import UnitaryOp, evolve
from iopsim.errors import ParseError, ZeroProbabilityLabel
from iopsim.iop import max_iop, pure_iop, validate

from conftest import random_iop, random_unitary


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
    return UnitaryOp(dim=dim, matrix=u)


class TestStructureValidation:
    def test_requires_completeness(self):
        with pytest.raises(ValueError):
            CondensationStructure(
                dim=3, labels=("a",), projectors=(np.diag([1.0, 1.0, 0.0]),),
                period=(0.0, 1.0))

    def test_requires_orthogonality(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError):
            CondensationStructure(dim=2, labels=("a", "b"), projectors=(p, p),
                                  period=(0.0, 1.0))

    def test_json_round_trip(self, structure):
        again = CondensationStructure.from_json(structure.to_json())
        assert again.labels == structure.labels
        for p, q in zip(again.projectors, structure.projectors):
            np.testing.assert_allclose(p, q)


def rotated_structure(rng, ranks):
    """Structure on the column groups of a Haar unitary: not index blocks."""
    v = random_unitary(rng, sum(ranks)).matrix
    edges = np.cumsum([0, *ranks])
    projectors = tuple(v[:, a:b] @ v[:, a:b].conj().T
                       for a, b in zip(edges[:-1], edges[1:]))
    structure = CondensationStructure(
        dim=sum(ranks), labels=tuple(f"b{i}" for i in range(len(ranks))),
        projectors=projectors, period=(0.0, 1.0))
    return structure, v, edges


def sandwich_coupling(u, c):
    """Oracle for _coupling: the dense ||P^i U P^j||_F loop."""
    return np.array([[np.linalg.norm(p @ u.matrix @ q) for q in c.projectors]
                     for p in c.projectors])


def sandwich_finest(u, c, threshold=BLOCK_TOL):
    """Oracle for finest_respected_structure: (labels, projectors)."""
    k = len(c.projectors)
    adj = np.zeros((k, k), dtype=bool)
    for i, p in enumerate(c.projectors):
        for j, q in enumerate(c.projectors):
            if i != j and np.linalg.norm(p @ u.matrix @ q) > threshold:
                adj[i, j] = adj[j, i] = True
    n_comp, comp = connected_components(adj, directed=False)
    groups = [[i for i in range(k) if comp[i] == g] for g in range(n_comp)]
    return (tuple("+".join(str(c.labels[i]) for i in g) for g in groups),
            [sum(c.projectors[i] for i in g) for g in groups])


ranks_strategy = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
    lambda ranks: sum(ranks) >= 1)


class TestBlockBasis:
    """The block-basis paths against their dense sandwich oracles."""

    def test_basis_spans_the_subspaces(self, rng):
        c, _, _ = rotated_structure(rng, [2, 0, 3, 1])
        assert c.ranks == (2, 0, 3, 1)
        b = c.basis
        np.testing.assert_allclose(b.conj().T @ b, np.eye(6), atol=1e-12)
        edges = np.cumsum([0, *c.ranks])
        for p, a, z in zip(c.projectors, edges[:-1], edges[1:]):
            np.testing.assert_allclose(b[:, a:z] @ b[:, a:z].conj().T, p,
                                       atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), ranks=ranks_strategy)
    @settings(max_examples=60, deadline=None)
    def test_coupling_matches_sandwich(self, seed, ranks):
        rng = np.random.default_rng(seed)
        c, _, _ = rotated_structure(rng, ranks)
        u = random_unitary(rng, c.dim)
        np.testing.assert_allclose(_coupling(u, c), sandwich_coupling(u, c),
                                   rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), ranks=ranks_strategy,
           groups=st.lists(st.integers(0, 2), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_decisions_match_sandwich(self, seed, ranks, groups):
        # U is block-diagonal over unions of subspaces: blocks in one group
        # are coupled, blocks in different groups are not
        rng = np.random.default_rng(seed)
        c, v, edges = rotated_structure(rng, ranks)
        groups = groups[:len(ranks)]
        inner = np.zeros((c.dim, c.dim), dtype=complex)
        for g in set(groups):
            cols = np.concatenate([np.arange(edges[i], edges[i + 1])
                                   for i, h in enumerate(groups) if h == g])
            if cols.size:
                inner[np.ix_(cols, cols)] = random_unitary(rng, cols.size).matrix
        u = UnitaryOp(dim=c.dim, matrix=v @ inner @ v.conj().T)
        oracle = sandwich_coupling(u, c)
        off = oracle[~np.eye(len(ranks), dtype=bool)]
        # keep every coupling well away from the threshold
        assume(np.all((off < BLOCK_TOL / 1000) | (off > BLOCK_TOL * 1000)))
        assert respects_condensation(u, c) == bool(np.all(off <= BLOCK_TOL))
        finest = finest_respected_structure(u, c)
        labels, projectors = sandwich_finest(u, c)
        assert finest.labels == labels
        for p, q in zip(finest.projectors, projectors):
            np.testing.assert_allclose(p, q, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), ranks=ranks_strategy)
    @settings(max_examples=60, deadline=None)
    def test_label_probabilities_match_sandwich(self, seed, ranks):
        rng = np.random.default_rng(seed)
        c, _, _ = rotated_structure(rng, ranks)
        rho = random_iop(rng, c.dim)
        got = dict(label_probabilities(rho, c))
        for m, p in zip(c.labels, c.projectors):
            assert abs(got[m] - np.trace(p @ rho.matrix @ p).real) <= 1e-12


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
            UnitaryOp(dim=4, matrix=np.eye(4, dtype=complex)), structure)

    def test_swap_false(self, structure):
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 2] = swap[2, 0] = swap[1, 3] = swap[3, 1] = 1.0
        assert not respects_condensation(UnitaryOp(dim=4, matrix=swap), structure)

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


class TestFromJsonErrors:
    @pytest.mark.parametrize("obj", [
        {"dim": 2},
        {"dim": "two", "labels": ["a"], "period": [0, 1], "projectors": []},
        {"dim": 1, "labels": ["a"], "period": [0], "projectors": []},
        {"dim": 1, "labels": ["a"], "period": [0, "x"], "projectors": []},
        {"dim": 1, "labels": ["a"], "period": [0, 1], "projectors": 5},
        [1, 2],
        {"dim": 1, "labels": [["a"]], "period": [0, 1],
         "projectors": [{"dim": 1, "entries": [[1, 0]]}]},
    ], ids=["missing-keys", "dim-not-int", "period-too-short",
            "period-not-number", "projectors-not-list", "not-an-object",
            "label-not-hashable"])
    def test_malformed_is_parse_error(self, obj):
        with pytest.raises(ParseError):
            CondensationStructure.from_json(obj)

    def test_well_formed_invalid_is_value_error(self, structure):
        obj = structure.to_json()
        obj["period"] = [1.0, 0.0]
        with pytest.raises(ValueError):
            CondensationStructure.from_json(obj)
