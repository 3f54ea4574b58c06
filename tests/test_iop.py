import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import linalg
from iopsim.composite import CompositeSpec, branch_decompose
from iopsim.condensation import (
    CondensationStructure,
    block_projected,
    condition_on_label,
)
from iopsim.dynamics import evolve
from iopsim.errors import (
    DimensionMismatch,
    IopsimError,
    NoConvergence,
    NotFinite,
    NotPositive,
    NotUnitary,
    ResultNotIOperator,
    SupportViolation,
    TraceNotOne,
    UnknownLabel,
    ZeroProbabilityLabel,
    ZeroProbabilityOutcome,
    ZeroVector,
    ZeroWeight,
)
from iopsim.iop import (
    POSITIVITY_TOL,
    SUPPORT_EIGENVALUE_FLOOR,
    ZERO_WEIGHT_FLOOR,
    Contraction,
    Mixture,
    _from_spectrum,
    condition,
    contract,
    contraction_from_max,
    contraction_from_mixture,
    decompose,
    entropy,
    is_pure,
    max_iop,
    pure_iop,
    validate,
)
from iopsim.measurement import MeasurementSystem, post_measurement_object

from conftest import projectors, random_iop, random_pure, random_unitary
from test_condensation import partitions


class TestValidate:
    def test_accepts_maximum_operator(self):
        rho = validate(np.eye(2) / 2)
        assert rho.dim == 2

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceNotOne):
            validate(np.diag([0.7, 0.4]))

    def test_rejects_indefinite(self):
        # eigenvalues 1.1 and -0.1
        with pytest.raises(NotPositive):
            validate(np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_clamps_tiny_negative_eigenvalue(self):
        eps = 5e-11
        rho = validate(np.diag([1.0 + eps, -eps]))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= 0
        assert np.isclose(np.trace(rho.matrix).real, 1.0)
        # clamping moves no eigenvalue by more than the tolerance
        assert np.all(np.abs(w - np.array([0.0, 1.0 + eps])) <= 1e-10)

    def test_eigensolver_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            validate(np.eye(2) / 2)


class TestPureIop:
    @pytest.mark.parametrize("psi", [[np.nan, 1.0], [1.0, np.inf],
                                     [complex(0, np.nan), 1.0]])
    def test_rejects_non_finite(self, psi):
        with pytest.raises(NotFinite):
            pure_iop(psi)

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            pure_iop([0.0, 0.0])


class TestMaxIop:
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_is_uniform(self, d):
        rho = max_iop(d)
        np.testing.assert_allclose(rho.matrix, np.eye(d) / d)

    def test_equals_uniform_projector_mixture(self):
        # (1/3)(sum of the three s_z eigenprojectors) is the same operator
        parts = [pure_iop(e) for e in np.eye(3)]
        total = sum(p.matrix for p in parts) / 3
        np.testing.assert_allclose(total, max_iop(3).matrix, atol=1e-15)


class TestEntropy:
    def test_pure_is_zero(self, rng):
        assert entropy(random_pure(rng, 5)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_max_is_log_d(self, d):
        assert np.isclose(entropy(max_iop(d)), math.log(d))

    def test_two_level_mixture(self):
        assert np.isclose(entropy(validate(np.diag([0.5, 0.5, 0.0]))),
                          math.log(2))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_range_and_unitary_invariance(self, seed, d):
        rng = np.random.default_rng(seed)
        rho = random_iop(rng, d)
        e = entropy(rho)
        assert -1e-12 <= e <= math.log(d) + 1e-9
        u = random_unitary(rng, d)
        rotated = validate(u.matrix @ rho.matrix @ u.matrix.conj().T)
        assert abs(entropy(rotated) - e) <= 1e-9


class TestIsPure:
    def test_random_projector(self, rng):
        assert is_pure(random_pure(rng, 4))

    def test_max_is_not(self):
        assert not is_pure(max_iop(2))

    def test_near_pure_mixture(self):
        # tr rho^2 = 0.998002, outside the tolerance
        assert not is_pure(validate(np.diag([0.999, 0.001])))


class TestContract:
    def test_unitary_is_contracting(self, rng):
        rho = random_iop(rng, 4)
        u = random_unitary(rng, 4)
        out = contract(rho, Contraction.from_matrix(u.matrix))
        assert np.isclose(np.trace(out.matrix).real, 1.0)

    def test_identity_fixes(self, rng):
        rho = random_iop(rng, 3)
        out = contract(rho, Contraction.from_matrix(np.eye(3)))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_diagonal_rescale(self):
        k = Contraction.from_matrix(np.diag([math.sqrt(1.4), math.sqrt(0.6)]))
        out = contract(max_iop(2), k)
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)

    def test_non_contracting_operator_rejected(self, rng):
        rho = random_iop(rng, 2)
        for k in (Contraction.from_matrix(2 * np.eye(2)),
                  Contraction(q=np.eye(2), s=np.full(2, 2.0), w=np.eye(2))):
            with pytest.raises(ResultNotIOperator):
                contract(rho, k)

    def test_source_dimension_checked(self):
        with pytest.raises(DimensionMismatch, match="source dim 2 != 3"):
            contract(max_iop(3), contraction_from_max(max_iop(2)))

    def test_dense_entry_keeps_k(self, rng):
        k = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        c = Contraction.from_matrix(k)
        assert c.source_dim == 2
        np.testing.assert_array_equal(c.k, k)


class TestContractionFromMax:
    def test_self_contraction(self):
        k = contraction_from_max(max_iop(3))
        np.testing.assert_allclose(k.k @ k.k.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_target(self):
        k = contraction_from_max(validate(np.diag([0.7, 0.3])))
        np.testing.assert_allclose(k.k, np.diag([math.sqrt(1.4), math.sqrt(0.6)]),
                                   atol=1e-12)

    def test_pure_target(self):
        k = contraction_from_max(pure_iop([1, 0]))
        np.testing.assert_allclose(k.k, np.diag([math.sqrt(2), 0.0]), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed, d):
        target = random_iop(np.random.default_rng(seed), d)
        k = contraction_from_max(target)
        out = contract(max_iop(d), k)
        assert linalg.frobenius_dist(out.matrix, target.matrix) <= 1e-9


class TestContractionFromMixture:
    def test_component_recovery(self):
        plus = pure_iop([1, 0, 0])
        minus = pure_iop([0, 0, 1])
        whole = validate((plus.matrix + minus.matrix) / 2)
        for part in (plus, minus):
            k = contraction_from_mixture(whole, part)
            out = contract(whole, k)
            assert linalg.frobenius_dist(out.matrix, part.matrix) <= 1e-10

    def test_whole_equals_part(self, rng):
        rho = random_iop(rng, 4)
        k = contraction_from_mixture(rho, rho)
        out = contract(rho, k)
        assert linalg.frobenius_dist(out.matrix, rho.matrix) <= 1e-10

    def test_disjoint_support_rejected(self):
        whole = validate(np.diag([0.5, 0.5, 0.0]))
        part = pure_iop([0, 0, 1])
        with pytest.raises(SupportViolation):
            contraction_from_mixture(whole, part)

    def test_part_equal_to_whole_near_the_floor(self):
        # eigenvalues 5e-11 and 2e-10 straddle SUPPORT_EIGENVALUE_FLOOR: the
        # part's 2e-10 eigenvector, from a second decomposition, leans ~1e-6
        # onto the whole's sub-floor one, but carries ~1e-5 of amplitude
        rng = np.random.default_rng(0)
        c = CondensationStructure.from_index_blocks(3, {"all": [0, 1, 2]})
        rejected = 0
        for _ in range(200):
            v = random_unitary(rng, 3).matrix
            whole = validate(v @ np.diag([5e-11, 2e-10, 1 - 2.5e-10]) @ v.conj().T)
            part = condition_on_label(whole, c, "all")
            try:
                contraction_from_mixture(whole, part)
            except SupportViolation:
                rejected += 1
        assert rejected == 0

    @pytest.mark.parametrize("part", [
        [1, 0, 1e-4],           # amplitude 1e-4 outside the support
        [0, 1, 1j],             # half its weight outside
    ])
    def test_weight_outside_the_support_rejected(self, part):
        whole = validate(np.diag([0.5, 0.5, 0.0]))
        with pytest.raises(SupportViolation, match="weighted residual"):
            contraction_from_mixture(whole, pure_iop(part))

    def test_small_eigenvalue_outside_the_support_rejected(self):
        # weight 1e-9 on a direction the whole lacks: amplitude 3e-5
        whole = validate(np.diag([0.5, 0.5, 0.0]))
        part = validate(np.diag([1 - 1e-9, 0.0, 1e-9]))
        with pytest.raises(SupportViolation):
            contraction_from_mixture(whole, part)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    @settings(max_examples=80, deadline=None)
    def test_random_mixture_round_trip(self, seed, d):
        rng = np.random.default_rng(seed)
        comps = [random_iop(rng, d) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        whole = validate(sum(w * c.matrix for w, c in zip(weights, comps)))
        for part in comps:
            k = contraction_from_mixture(whole, part)
            out = contract(whole, k)
            assert linalg.frobenius_dist(out.matrix, part.matrix) <= 1e-8


class TestMixture:
    def test_decompose_returns_pairs(self):
        plus = pure_iop([1, 0, 0])
        minus = pure_iop([0, 0, 1])
        mix = Mixture(weights=(0.5, 0.5), components=(plus, minus))
        pairs = decompose(mix)
        assert [w for w, _ in pairs] == [0.5, 0.5]

    def test_single_component(self, rng):
        rho = random_iop(rng, 3)
        pairs = decompose(Mixture(weights=(1.0,), components=(rho,)))
        assert pairs == [(1.0, rho)]

    def test_remix_is_identity(self, rng):
        comps = tuple(random_iop(rng, 3) for _ in range(4))
        weights = (0.1, 0.2, 0.3, 0.4)
        mix = Mixture(weights=weights, components=comps)
        remixed = sum(w * c.matrix for w, c in decompose(mix))
        assert linalg.frobenius_dist(remixed, mix.combined().matrix) <= 1e-10

    def test_rejects_zero_weight(self, rng):
        with pytest.raises(ValueError):
            Mixture(weights=(1.0, 0.0),
                    components=(random_iop(rng, 2), random_iop(rng, 2)))


class TestConditioning:
    """`iop.condition` makes the one zero-weight decision for every caller."""

    def test_weight_at_floor_is_zero(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        assert condition(m * ZERO_WEIGHT_FLOOR)[1] is None
        weight, block = condition(m * 2 * ZERO_WEIGHT_FLOOR)
        assert weight == 2 * ZERO_WEIGHT_FLOOR
        np.testing.assert_allclose(block, m)

    def test_every_caller_shares_the_floor(self):
        # label "-" / outcome "down" / branch "-" carry weight 5e-13 <= floor
        rho = validate(np.diag([1 - 5e-13, 5e-13]))
        ms = MeasurementSystem.projective(
            {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])})
        structure = CondensationStructure.from_index_blocks(2, {"+": [0], "-": [1]})
        with pytest.raises(ZeroProbabilityOutcome):
            post_measurement_object(ms, rho, "down")
        with pytest.raises(ZeroProbabilityLabel):
            condition_on_label(rho, structure, "-")
        spec = CompositeSpec(dim_s=1, dim_t=2, t_structure=structure)
        assert [b.label for b in branch_decompose(rho, spec).branches] == ["+"]
        assert issubclass(ZeroProbabilityLabel, ZeroWeight)
        assert issubclass(ZeroProbabilityOutcome, ZeroWeight)

    def test_unknown_label_is_typed(self):
        ms = MeasurementSystem.projective(
            {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])})
        structure = CondensationStructure.from_index_blocks(2, {"+": [0], "-": [1]})
        with pytest.raises(IopsimError, match="unknown label 'zz'"):
            post_measurement_object(ms, max_iop(2), "zz")
        with pytest.raises(IopsimError, match="unknown label 'zz'"):
            condition_on_label(max_iop(2), structure, "zz")
        assert issubclass(UnknownLabel, KeyError)


KINDS = ["rank1", "straddling", "clamped", "generic"]


def raw_spectrum(rng, d, kind):
    """(w, V): ascending eigenvalues summing to 1 and orthonormal columns.

    rank1 is thin (one column); straddling puts one eigenvalue just below
    or just above SUPPORT_EIGENVALUE_FLOOR; clamped has a minimum
    eigenvalue in [-POSITIVITY_TOL, 0), which validate clamps to zero.
    """
    v = random_unitary(rng, d).matrix
    if kind == "rank1":
        return np.ones(1), v[:, :1]
    low = {"straddling": [rng.choice([0.5, 2.0]) * SUPPORT_EIGENVALUE_FLOOR],
           "clamped": [-rng.uniform(0.01, 1.0) * POSITIVITY_TOL],
           "generic": []}[kind]
    rest = rng.dirichlet(np.ones(d - len(low))) * (1.0 - sum(low))
    return np.sort(np.concatenate([low, rest])), v


def dense(w, v):
    return (v * w) @ v.conj().T


def holds_matrix(rho):
    """Whether rho's dense matrix has been built (or was given) yet."""
    return "matrix" in vars(rho)


def round_trip(whole, k):
    """K whole K^dag before validation, which renormalizes only if it clamps."""
    return k @ whole.matrix @ k.conj().T


def dense_mixture_contraction(whole, part):
    """K from both full decompositions, paired in ascending order: the
    oracle for contraction_from_mixture on stored, possibly thin, spectra."""
    ww, wv = np.linalg.eigh(whole.matrix)
    pw, pv = np.linalg.eigh(part.matrix)
    ok = ww > SUPPORT_EIGENVALUE_FLOOR
    ratios = np.zeros(whole.dim)
    ratios[ok] = np.clip(pw[ok], 0.0, None) / ww[ok]
    return (pv * np.sqrt(ratios)) @ wv.conj().T


class TestSpectralForm:
    """Paths that read or build a stored spectrum against dense validation."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           kind=st.sampled_from(KINDS))
    @settings(max_examples=120, deadline=None)
    def test_validate_matches_dense(self, seed, d, kind):
        w, v = raw_spectrum(np.random.default_rng(seed), d, kind)
        fast = validate(linalg.HermEigen(w, v))
        assert linalg.frobenius_dist(fast.matrix, validate(dense(w, v)).matrix) <= 1e-12
        assert fast.spectrum.eigenvalues[0] >= 0
        assert abs(np.sum(fast.spectrum.eigenvalues) - 1.0) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           kind=st.sampled_from(KINDS))
    @settings(max_examples=120, deadline=None)
    def test_evolve_matches_dense(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        rho = validate(linalg.HermEigen(*raw_spectrum(rng, d, kind)))
        u = random_unitary(rng, d)
        for r in (rho, validate(rho.matrix)):
            dense_out = validate(u.matrix @ r.matrix @ u.matrix.conj().T)
            assert linalg.frobenius_dist(evolve(r, u).matrix, dense_out.matrix) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), c=partitions(min_dim=2),
           kind=st.sampled_from(KINDS))
    @settings(max_examples=120, deadline=None)
    def test_conditioning_and_thin_parts_match_dense(self, seed, c, kind):
        rng = np.random.default_rng(seed)
        rho = validate(linalg.HermEigen(*raw_spectrum(rng, c.dim, kind)))
        whole = block_projected(rho, c)
        oracle = sum(p @ rho.matrix @ p for p in projectors(c))
        assert linalg.frobenius_dist(whole.matrix, validate(oracle).matrix) <= 1e-12
        for m, p, g in zip(c.labels, projectors(c), c.blocks):
            block = condition(p @ rho.matrix @ p)[1]
            if block is None:
                with pytest.raises(ZeroProbabilityLabel):
                    condition_on_label(rho, c, m)
                continue
            part = condition_on_label(rho, c, m)
            assert part.spectrum.eigenvectors.shape == (c.dim, len(g))
            assert linalg.frobenius_dist(part.matrix, validate(block).matrix) <= 1e-12
            k = contraction_from_mixture(whole, part).k
            assert linalg.frobenius_dist(
                round_trip(whole, k),
                round_trip(whole, dense_mixture_contraction(whole, part))) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           rank=st.integers(1, 6), kind=st.sampled_from(KINDS),
           route=st.sampled_from(["max", "mixture", "unitary"]))
    @settings(max_examples=200, deadline=None)
    def test_contract_matches_dense(self, seed, d, rank, kind, route):
        """Factored and dense-entry contract against validate(K rho K^dag).

        max: the maximum operator contracted to a target of `kind`;
        mixture: a whole of rank min(rank, d), dense-validated (so it may
        clamp), contracted to its part of `kind`; unitary: an operator of
        `kind` under K = Q W^dag, which is not Hermitian.
        """
        rng = np.random.default_rng(seed)
        op = validate(linalg.HermEigen(*raw_spectrum(rng, d, kind)))
        if route == "max":
            rho, k = max_iop(d), contraction_from_max(op)
        elif route == "mixture":
            m = min(rank, d)
            b = random_unitary(rng, d).matrix[:, :m]
            part, other = (validate(linalg.HermEigen(w, b @ v)) for w, v in (
                raw_spectrum(rng, m, kind if m > 1 else "rank1"),
                raw_spectrum(rng, m, "generic")))
            p = rng.uniform(0.2, 0.8)
            rho = validate(p * part.matrix + (1 - p) * other.matrix)
            k = contraction_from_mixture(rho, part)
        else:
            rho = op
            k = Contraction(q=random_unitary(rng, d).matrix, s=np.ones(d),
                            w=random_unitary(rng, d).matrix)
        oracle = validate(k.k @ rho.matrix @ k.k.conj().T)
        for kk in (k, Contraction.from_matrix(k.k)):
            assert linalg.frobenius_dist(contract(rho, kk).matrix, oracle.matrix) <= 1e-12

    def test_caller_spectrum_is_copied(self):
        # a write to the caller's arrays after the check reaches nothing
        # that was checked
        w, v = np.array([0.5, 0.5]), np.eye(2, dtype=complex)
        rho = validate(linalg.HermEigen(w, v))
        v[:, 0] *= 3
        w[0] = 9.0
        assert np.array_equal(rho.diagonal(), [0.5, 0.5])
        assert not any(a.flags.writeable for a in rho.spectrum)

    def test_thin_part_of_a_rank_deficient_whole(self):
        # whole has rank 2 in d = 4; the thin part must pair with its top
        a, b = np.eye(4)[0], np.eye(4)[2]
        whole = validate(0.3 * np.outer(a, a) + 0.7 * np.outer(b, b))
        for psi in (a, b):
            part = pure_iop(psi)
            back = contract(whole, contraction_from_mixture(whole, part))
            assert linalg.frobenius_dist(back.matrix, part.matrix) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           kind=st.sampled_from(KINDS))
    @settings(max_examples=60, deadline=None)
    def test_matrix_is_built_on_first_read(self, seed, d, kind):
        w, v = raw_spectrum(np.random.default_rng(seed), d, kind)
        rho = validate(linalg.HermEigen(w, v))
        # only the clamp path builds the matrix at once, to renormalize it
        assert holds_matrix(rho) == (kind == "clamped")
        built = rho.matrix
        if kind != "clamped":
            assert np.array_equal(built, _from_spectrum(*rho.spectrum))
        assert built is rho.matrix and not built.flags.writeable
        assert np.max(np.abs(rho.diagonal() - built.diagonal().real)) <= 1e-15

    @pytest.mark.parametrize("v", [np.array([[1.0, 0.6], [0.0, 0.8]]),
                                   2 * np.eye(2)[:, :1]],
                             ids=["not-orthogonal", "not-unit"])
    def test_non_isometric_eigenvectors_rejected(self, v):
        with pytest.raises(NotUnitary, match="isometry defect"):
            validate(linalg.HermEigen(np.full(v.shape[1], 1.0 / v.shape[1]), v))

    def test_trace_is_that_of_the_matrix_built(self):
        # columns of squared norm 1 + 5e-10 pass the isometry check (defect
        # 7.1e-10) but lift the trace sum_i w_i |v_i|^2 past TRACE_TOL
        # although sum(w) is 1
        v = math.sqrt(1 + 5e-10) * np.eye(2)
        with pytest.raises(TraceNotOne):
            validate(linalg.HermEigen(np.array([0.5, 0.5]), v))

    @pytest.mark.parametrize("w, v, error, message", [
        ([0.6, 0.4], np.eye(2), ValueError, "ascending"),
        ([0.5, np.nan], np.eye(2), NotFinite, "NaN"),
        ([1.0], np.eye(2), DimensionMismatch, "eigenvalues for eigenvectors"),
    ], ids=["descending", "nan", "one-value-two-columns"])
    def test_malformed_spectrum_rejected(self, w, v, error, message):
        with pytest.raises(error, match=message):
            validate(linalg.HermEigen(np.array(w), v))

    @pytest.mark.parametrize("make", [
        lambda: validate(np.diag([0.7, 0.2, 0.1]).astype(complex)),
        lambda: max_iop(3),
    ], ids=["validate", "max-iop"])
    def test_every_constructor_stores_its_spectrum(self, make):
        rho = make()
        assert holds_matrix(rho)
        w, v = rho.spectrum
        assert linalg.frobenius_dist(dense(w, v), rho.matrix) <= 1e-15
        assert not (w.flags.writeable or v.flags.writeable)

    def test_pure_iop_builds_its_matrix_on_first_read(self):
        rng = np.random.default_rng(11)
        for psi in (np.array([1, 1j, 0.5]),
                    rng.normal(size=513) + 1j * rng.normal(size=513)):
            rho = pure_iop(psi)
            w, v = rho.spectrum
            assert not holds_matrix(rho)
            assert not (w.flags.writeable or v.flags.writeable)
            built = rho.matrix
            assert np.array_equal(built, _from_spectrum(w, v))
            unit = psi / np.linalg.norm(psi)
            assert np.max(np.abs(built - np.outer(unit, unit.conj()))) <= 1e-15
            assert built is rho.matrix and not built.flags.writeable
