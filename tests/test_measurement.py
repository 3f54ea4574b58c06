import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import dynamics, linalg, scenarios
from iopsim.composite import Branch
from iopsim.errors import (
    DimensionMismatch,
    NotDefinitive,
    NotFinite,
    NotHermitian,
    NotUnitary,
    SupportViolation,
    ZeroProbabilityOutcome,
)
from iopsim.iop import (
    ZERO_WEIGHT_FLOOR,
    condition,
    contraction_from_mixture,
    max_iop,
    pure_iop,
    validate,
)
from iopsim.measurement import (
    MeasurementSystem,
    Observable,
    completeness_defect,
    estimate_probabilities,
    expectation,
    is_definitive,
    observable,
    outcome_probabilities,
    post_measurement_object,
)

from conftest import (
    dense_k,
    kraus_from_branches,
    random_iop,
    random_pure,
    random_unitary,
)
from test_iop import KINDS, raw_spectrum


@pytest.fixture
def z_system():
    return MeasurementSystem.projective(
        {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])},
        f={"up": 0.5, "down": -0.5})


class TestConstruction:
    def test_projective_is_definitive(self, z_system):
        assert is_definitive(z_system)
        assert completeness_defect(z_system) <= 1e-12

    def test_incomplete_family_detected(self):
        ms = MeasurementSystem(dim_s=2, labels=("a",),
                               kraus=(np.diag([1.0, 0.0]),), f={"a": 1.0})
        assert not is_definitive(ms)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSystem(dim_s=2, labels=("a", "a"),
                              kraus=(np.eye(2), np.eye(2)), f={"a": 1.0})

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch, match="Kraus shape"):
            MeasurementSystem(dim_s=2, labels=("a", "b"),
                              kraus=(np.eye(2), np.eye(3)), f={})

    def test_non_finite_rejected(self):
        with pytest.raises(NotFinite):
            MeasurementSystem(dim_s=2, labels=("a",),
                              kraus=(np.diag([1.0, np.nan]),), f={})

    def test_caller_arrays_stay_writable(self):
        # a write to the caller's arrays after the check reaches nothing
        # that was checked
        k = np.eye(2, dtype=complex)
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        for kraus in ((k,), stack):
            ms = MeasurementSystem(dim_s=2, labels=tuple(range(len(kraus))),
                                   kraus=kraus, f={})
            assert ms.kraus.shape == (len(kraus), 2, 2)
            assert not ms.kraus.flags.writeable
            assert completeness_defect(ms) == 0.0
        obs = Observable(matrix=k)
        assert not obs.matrix.flags.writeable
        assert k.flags.writeable and stack.flags.writeable
        k[0, 0] = 5
        stack[0] *= 3
        assert completeness_defect(ms) == 0.0
        assert obs.matrix[0, 0] == 1.0

    def test_read_only_stack_kept_without_copy(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        stack.setflags(write=False)
        ms = MeasurementSystem(dim_s=2, labels=("a", "b"), kraus=stack, f={})
        assert ms.kraus is stack


    def test_routes_are_copied_and_the_stack_built_on_first_read(self):
        # K = |2><0| + |0><1|
        rows, cols = np.array([2, 0]), np.array([0, 1])
        ms = MeasurementSystem(dim_s=3, labels=("k",), routes=((rows, cols),), f={})
        assert "kraus" not in vars(ms)
        rows[0] = 1  # reaches nothing that was checked
        assert all(not a.flags.writeable for a in ms.routes[0])
        assert np.array_equal(ms.kraus[0], [[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        assert not ms.kraus.flags.writeable
        assert completeness_defect(ms) == 1.0  # index 2 is no col

    @pytest.mark.parametrize("labels, routes, error, match", [
        (("a",), (([0, 0], [0, 1]),), ValueError, "repeats an index"),
        (("a",), (([0, 1], [1, 1]),), ValueError, "repeats an index"),
        (("a",), ((np.array([0, 1], dtype=np.uint64),
                   np.array([1, 1], dtype=np.uint64)),),
         ValueError, "repeats an index"),
        (("a",), (([0, 2], [0, 1]),), DimensionMismatch, "outside"),
        (("a",), (([0], [-1]),), DimensionMismatch, "outside"),
        (("a", "b"), (([0], [0]),), ValueError, "aligned"),
        ((), (), ValueError, "nonempty"),
        (("a",), (([0, 1], [0]),), ValueError, "one length"),
        (("a",), (([0.0], [0]),), ValueError, "integers"),
    ], ids=["repeated-row", "repeated-col", "repeated-uint64-col",
            "index-past-dim", "negative-index", "labels-misaligned", "empty",
            "ragged-pair", "float-index"])
    def test_malformed_routes_raise_typed_errors(self, labels, routes, error, match):
        # the errors the dense constructor raises for the same faults, never
        # an IndexError from numpy
        with pytest.raises(error, match=match):
            MeasurementSystem(dim_s=2, labels=labels, routes=routes, f={})

    def test_route_edges_pass(self):
        # an empty route and the last index, dim - 1, are both accepted
        empty = np.array([], dtype=int)
        ms = MeasurementSystem(dim_s=3, labels=("none", "swap"),
                               routes=((empty, empty), ([2, 0], [0, 2])), f={})
        assert ms.routes[0][0].size == 0 and ms.routes[0][0].dtype == np.intp
        assert np.array_equal(ms.kraus[1], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_one_array_as_rows_and_cols(self):
        # checked and stored once, a copy of the caller's array, and
        # rejected with the errors two arrays get
        sites = np.array([2, 0])
        ms = MeasurementSystem(dim_s=3, labels=("p",), routes=((sites, sites),), f={})
        rows, cols = ms.routes[0]
        assert rows is cols and rows is not sites and np.array_equal(rows, [2, 0])
        for bad, error in ((np.array([1, 1]), ValueError),
                           (np.array([0, 3]), DimensionMismatch),
                           (np.array([0.0]), ValueError)):
            with pytest.raises(error):
                MeasurementSystem(dim_s=3, labels=("p",), routes=((bad, bad),), f={})

    @pytest.mark.parametrize("given", [{}, {"kraus": (np.eye(2),),
                                            "routes": (([0, 1], [0, 1]),)}],
                             ids=["neither", "both"])
    def test_one_form_required(self, given):
        with pytest.raises(ValueError, match="either"):
            MeasurementSystem(dim_s=2, labels=("a",), f={}, **given)


class TestOutcomeProbabilities:
    def test_born_rule_brute_force(self, rng, z_system):
        # oracle: diagonal matrix elements in the measurement basis
        rho = random_iop(rng, 2)
        probs = dict(outcome_probabilities(z_system, rho))
        assert np.isclose(probs["up"], rho.matrix[0, 0].real)
        assert np.isclose(probs["down"], rho.matrix[1, 1].real)

    def test_non_projective_family(self):
        # M+ = diag(sqrt(0.9), 0), M- = diag(sqrt(0.1), 1) is definitive
        ms = MeasurementSystem(
            dim_s=2, labels=("+", "-"),
            kraus=(np.diag([math.sqrt(0.9), 0.0]),
                   np.diag([math.sqrt(0.1), 1.0])),
            f={"+": 1.0, "-": -1.0})
        assert is_definitive(ms)
        probs = dict(outcome_probabilities(ms, pure_iop([1, 0])))
        assert np.isclose(probs["+"], 0.9)
        assert np.isclose(probs["-"], 0.1)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_definitive_probabilities_normalize(self, seed, d):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, d)
        ms = MeasurementSystem.projective(
            {str(j): np.outer(u.matrix[:, j], u.matrix[:, j].conj())
             for j in range(d)})
        probs = outcome_probabilities(ms, random_iop(rng, d))
        total = sum(v for _, v in probs)
        assert abs(total - 1.0) <= 1e-9
        assert all(v >= -1e-12 for _, v in probs)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
           n=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_sandwich_trace(self, seed, d, n):
        # oracle: tr(M rho M^dag) on the non-projective square-root family
        # of a random mixture, evaluated on an unrelated operator
        rng = np.random.default_rng(seed)
        comps = [random_iop(rng, d) for _ in range(n)]
        weights = rng.dirichlet(np.ones(n))
        whole = validate(sum(w * c.matrix for w, c in zip(weights, comps)))
        branches = [
            Branch(label=str(i), weight=float(w), rho_s=c, rho_t=c, residual=0.0)
            for i, (w, c) in enumerate(zip(weights, comps))
        ]
        ms = kraus_from_branches(branches, whole)
        rho = random_iop(rng, d)
        got = dict(outcome_probabilities(ms, rho))
        for m, k in zip(ms.labels, ms.kraus):
            assert abs(got[m] - np.trace(k @ rho.matrix @ k.conj().T).real) <= 1e-12


class TestPostMeasurement:
    def test_projects_to_eigenstate(self, z_system):
        out = post_measurement_object(z_system, max_iop(2), "up")
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_repeatability(self, rng, z_system):
        # measuring again after conditioning gives the same outcome surely
        out = post_measurement_object(z_system, random_iop(rng, 2), "down")
        probs = dict(outcome_probabilities(z_system, out))
        assert np.isclose(probs["down"], 1.0)

    def test_zero_probability_outcome(self, z_system):
        with pytest.raises(ZeroProbabilityOutcome):
            post_measurement_object(z_system, pure_iop([1, 0]), "down")

    def test_unknown_label(self, z_system):
        with pytest.raises(KeyError):
            post_measurement_object(z_system, max_iop(2), "sideways")


RHO_KINDS = ["rank2", *KINDS]
ROUTED = ["routed", "routed-incomplete", "routed-overlap"]
FAMILIES = ["projective", "unitary-projector", "branches", "screen", *ROUTED]


def spectral_operator(rng, d, kind):
    """validate of a spectral form: thin rank 1 or 2, straddling the support
    floor, clamped, or generic full rank (see test_iop.raw_spectrum)."""
    if kind == "rank2":
        v = random_unitary(rng, d).matrix[:, :2]
        return validate(linalg.HermEigen(np.sort(rng.dirichlet(np.ones(2))), v))
    return validate(linalg.HermEigen(*raw_spectrum(rng, d, kind)))


def routed_family(rng, d, kind):
    """One to three partial permutations held as routes, each row set drawn
    at random.  "routed" splits 0..d-1 among the labels as cols, so the
    family is complete; "routed-incomplete" leaves some cols out;
    "routed-overlap" draws each label's cols on its own, so labels share
    cols and miss some."""
    k = int(rng.integers(1, 4))
    if kind == "routed-overlap":
        cols = [rng.choice(d, size=rng.integers(0, d + 1), replace=False)
                for _ in range(k)]
    else:
        owner = rng.integers(0, k + (kind == "routed-incomplete"), size=d)
        cols = [np.flatnonzero(owner == i) for i in range(k)]
    routes = tuple((rng.choice(d, size=c.size, replace=False), c) for c in cols)
    return MeasurementSystem(dim_s=d, labels=tuple(range(k)), routes=routes, f={})


def dense_twin(ms):
    """The same family given as its dense Kraus stack, K^m[rows, cols] = 1."""
    stack = np.zeros((len(ms.labels), ms.dim_s, ms.dim_s), dtype=complex)
    for k, (rows, cols) in zip(stack, ms.routes):
        k[rows, cols] = 1.0
    return MeasurementSystem(dim_s=ms.dim_s, labels=ms.labels, kraus=stack, f=ms.f)


def kraus_family(rng, d, family):
    if family in ROUTED:
        return routed_family(rng, d, family)
    if family == "screen":
        sites = rng.choice(d - 1, size=rng.integers(1, d), replace=False)
        return scenarios._slit_screen(d - 1, np.sort(sites).tolist())
    if family == "branches":
        comps = [random_iop(rng, d) for _ in range(2)]
        weights = rng.dirichlet(np.ones(2))
        whole = validate(sum(w * c.matrix for w, c in zip(weights, comps)))
        return kraus_from_branches(
            [Branch(label=str(i), weight=float(w), rho_s=c, rho_t=c, residual=0.0)
             for i, (w, c) in enumerate(zip(weights, comps))], whole)
    basis = random_unitary(rng, d).matrix
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(0, d),
                              replace=False))
    kraus = [basis[:, g] @ basis[:, g].conj().T
             for g in np.split(np.arange(d), cuts)]
    if family == "unitary-projector":
        kraus = [random_unitary(rng, d).matrix @ k for k in kraus]
    return MeasurementSystem(dim_s=d, labels=tuple(range(len(kraus))),
                             kraus=tuple(kraus), f={})


COMPLETENESS_KINDS = ["dense", "diagonal", "permuted-diagonal", "mixed-row",
                      "isometry", "incomplete"]


def gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def structured_family(rng, d, kind):
    """One to three Kraus operators whose rows are dense, hold one entry
    (or none), or mix the two.  "isometry" is a complete dense family (the
    d x d blocks of a (k d) x d isometry); "incomplete" is a projective
    family of 0/1 diagonals with one projector left out."""
    k = int(rng.integers(1, 4))
    if kind == "isometry":
        kraus = np.split(np.linalg.qr(gaussian(rng, (k * d, d)))[0], k)
    elif kind == "incomplete":
        owner = rng.integers(0, k + 1, size=d)
        kraus = [np.diag((owner == i).astype(complex)) for i in range(k)]
    else:
        kraus = gaussian(rng, (k, d, d)) / math.sqrt(k * d)
        if kind != "dense":
            # diagonal, with some rows left empty
            diagonal = kraus * np.eye(d) * (rng.random((k, d, 1)) < 0.8)
            if kind == "permuted-diagonal":
                diagonal = diagonal[:, rng.permutation(d)]
            if kind == "mixed-row":
                diagonal = np.where(rng.random((k, d, 1)) < 0.5, kraus, diagonal)
            kraus = diagonal
    return MeasurementSystem(dim_s=d, labels=tuple(range(len(kraus))),
                             kraus=tuple(kraus), f={})


def dense_completeness_defect(ms):
    """Oracle: ||sum_m (M^m)^dag M^m - I|| from one dense product per operator."""
    return float(np.linalg.norm(sum(k.conj().T @ k for k in ms.kraus)
                                - np.eye(ms.dim_s)))


class TestCompleteness:
    """completeness_defect stacks the rows of every Kraus operator; the oracle
    forms the dense (M^m)^dag M^m of each."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
           kind=st.sampled_from(COMPLETENESS_KINDS + FAMILIES))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        ms = (kraus_family(rng, d, kind) if kind in FAMILIES
              else structured_family(rng, d, kind))
        if ms.routes is None:
            assert abs(completeness_defect(ms) - dense_completeness_defect(ms)) <= 1e-12
            return
        # a routed defect counts integers: it is the dense one exactly, and
        # 0.0 when the cols partition 0..d-1
        assert completeness_defect(ms) == dense_completeness_defect(ms)
        assert completeness_defect(dense_twin(ms)) == completeness_defect(ms)
        cols = np.sort(np.concatenate([c for _, c in ms.routes]))
        if np.array_equal(cols, np.arange(d)):
            assert completeness_defect(ms) == 0.0

    @pytest.mark.parametrize("d", [2, 5, 16])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_one_operator_family_is_definitive_iff_unitary(self, d, factor):
        # K = c U has K^dag K - I = (c^2 - 1) I, of norm factor UNITARITY_TOL:
        # completeness of [K] and unitarity of K are one decision
        u = random_unitary(np.random.default_rng(d), d).matrix
        k = u * math.sqrt(1 + factor * linalg.UNITARITY_TOL / math.sqrt(d))
        ms = MeasurementSystem(dim_s=d, labels=("k",), kraus=(k,), f={})
        try:
            dynamics.unitary(k)
            unitary = True
        except NotUnitary:
            unitary = False
        assert is_definitive(ms) == unitary == (factor < 1)

    @pytest.mark.parametrize("grid_n, slits", [
        (16, ((0, 16),)),
        (16, ((3, 5),)),
        (64, ((20, 22), (42, 44))),
        (257, ((80, 84), (172, 176))),
        (512, ((160, 176), (336, 352))),
    ], ids=["all-open", "16", "64", "257", "512"])
    def test_slit_screen_is_exactly_complete(self, grid_n, slits):
        sites = [j for a, b in slits for j in range(a, b)]
        ms = scenarios._slit_screen(grid_n, sites)
        assert completeness_defect(ms) == 0.0
        assert dense_completeness_defect(ms) == 0.0


class TestSpectralMeasurement:
    """outcome_probabilities and post_measurement_object read rho.spectrum;
    the oracles are the dense tr(K rho K^dag) and validate(K rho K^dag / w)."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 7),
           kind=st.sampled_from(RHO_KINDS), family=st.sampled_from(FAMILIES))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sandwich(self, seed, d, kind, family):
        rng = np.random.default_rng(seed)
        rho = spectral_operator(rng, d, kind)
        ms = kraus_family(rng, d, family)
        probs = dict(outcome_probabilities(ms, rho))
        if ms.routes is not None:
            # the gather against the same family's dense product
            twin = dense_twin(ms)
            assert np.array_equal(ms.kraus, twin.kraus)
            for m, p in outcome_probabilities(twin, rho):
                assert abs(probs[m] - p) <= 1e-12
                try:
                    dense = post_measurement_object(twin, rho, m)
                except ZeroProbabilityOutcome:
                    with pytest.raises(ZeroProbabilityOutcome):
                        post_measurement_object(ms, rho, m)
                    continue
                # compared before the division by the weight, as below
                assert p * linalg.frobenius_dist(
                    post_measurement_object(ms, rho, m).matrix,
                    dense.matrix) <= 1e-12
        for m, k in zip(ms.labels, ms.kraus):
            weight, block = condition(k @ rho.matrix @ k.conj().T)
            assert abs(probs[m] - weight) <= 1e-12
            if block is None:
                with pytest.raises(ZeroProbabilityOutcome):
                    post_measurement_object(ms, rho, m)
                continue
            out = post_measurement_object(ms, rho, m)
            # both sides divide K rho K^dag, rounded to ~1e-16, by the
            # weight: compare them before that division
            assert weight * linalg.frobenius_dist(
                out.matrix, validate(block).matrix) <= 1e-12
            # the result keeps rho's rank: no d x d spectrum is built
            assert out.spectrum.eigenvectors.shape == rho.spectrum.eigenvectors.shape

    @pytest.mark.parametrize("factor, zero", [(0.99, True), (1.01, False)],
                             ids=["below-floor", "above-floor"])
    def test_zero_weight_floor_decides_as_dense(self, factor, zero):
        # the outcome projects onto rho's eigenvector of weight factor * floor
        rng = np.random.default_rng(7)
        v = random_unitary(rng, 4).matrix[:, :2]
        eps = factor * ZERO_WEIGHT_FLOOR
        rho = validate(linalg.HermEigen(np.array([eps, 1 - eps]), v))
        p0 = np.outer(v[:, 0], v[:, 0].conj())
        ms = MeasurementSystem(dim_s=4, labels=("low", "rest"),
                               kraus=(p0, np.eye(4) - p0), f={})
        assert (condition(p0 @ rho.matrix @ p0.conj().T)[1] is None) == zero
        if zero:
            with pytest.raises(ZeroProbabilityOutcome):
                post_measurement_object(ms, rho, "low")
        else:
            out = post_measurement_object(ms, rho, "low")
            assert linalg.frobenius_dist(out.matrix, p0) <= 1e-12


class TestObservable:
    def test_spin_half_z(self, z_system):
        obs = observable(z_system)
        np.testing.assert_allclose(obs.matrix, np.diag([0.5, -0.5]), atol=1e-12)

    @pytest.mark.parametrize("matrix, error", [
        (np.zeros((2, 3)), DimensionMismatch),
        ([[1.0, 2.0], [3.0, 4.0]], NotHermitian),
        (np.diag([1.0, np.nan]), NotFinite),
        (np.ones(2), DimensionMismatch),
    ], ids=["two-by-three", "nested-list", "nan", "one-dimensional"])
    def test_entry_is_the_hermitian_check(self, matrix, error):
        with pytest.raises(error):
            Observable(matrix=matrix)

    def test_nested_list_accepted(self):
        obs = Observable(matrix=[[1, 1j], [-1j, 0]])
        assert obs.matrix.dtype == complex and not obs.matrix.flags.writeable

    def test_expectation_matches_weighted_probabilities(self, rng, z_system):
        rho = random_iop(rng, 2)
        obs = observable(z_system)
        probs = dict(outcome_probabilities(z_system, rho))
        weighted = sum(z_system.f[m] * probs[m] for m in z_system.labels)
        assert abs(expectation(obs, rho) - weighted) <= 1e-12

    def test_requires_definitive(self):
        ms = MeasurementSystem(dim_s=2, labels=("a",),
                               kraus=(np.diag([1.0, 0.0]),), f={"a": 1.0})
        with pytest.raises(NotDefinitive):
            observable(ms)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_expectation_identity_random_basis(self, seed, d):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, d)
        fmap = {str(j): float(rng.normal()) for j in range(d)}
        ms = MeasurementSystem.projective(
            {str(j): np.outer(u.matrix[:, j], u.matrix[:, j].conj())
             for j in range(d)}, f=fmap)
        rho = random_iop(rng, d)
        probs = dict(outcome_probabilities(ms, rho))
        weighted = sum(fmap[m] * probs[m] for m in fmap)
        assert abs(expectation(observable(ms), rho) - weighted) <= 1e-9


class TestEstimateProbabilities:
    def test_deterministic_given_seed(self, z_system):
        a = estimate_probabilities(z_system, max_iop(2), 1000, seed=7)
        b = estimate_probabilities(z_system, max_iop(2), 1000, seed=7)
        assert a == b

    def test_frequencies_sum_to_one(self, rng, z_system):
        freqs = estimate_probabilities(z_system, random_iop(rng, 2), 500, seed=3)
        assert np.isclose(sum(v for _, v in freqs), 1.0)

    def test_converges_within_binomial_bound(self, z_system):
        n = 100_000
        rho = validate(np.diag([0.25, 0.75]))
        freqs = dict(estimate_probabilities(z_system, rho, n, seed=11))
        for m, p in (("up", 0.25), ("down", 0.75)):
            assert abs(freqs[m] - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_rejects_non_definitive(self):
        ms = MeasurementSystem(dim_s=2, labels=("a",),
                               kraus=(np.diag([1.0, 0.0]),), f={"a": 1.0})
        with pytest.raises(NotDefinitive):
            estimate_probabilities(ms, max_iop(2), 10, seed=0)


class TestKrausFromBranches:
    def _branches(self):
        up = pure_iop([1, 0])
        down = pure_iop([0, 1])
        return [
            Branch(label="-", weight=0.5, rho_s=up, rho_t=up, residual=0.0),
            Branch(label="+", weight=0.5, rho_s=down, rho_t=down, residual=0.0),
        ]

    def test_definitive_despite_degenerate_whole(self):
        # the whole is I/2 with a fully degenerate spectrum; the canonical
        # square-root family is still complete
        ms = kraus_from_branches(self._branches(), max_iop(2))
        assert is_definitive(ms)

    def test_reproduces_branch_statistics(self):
        ms = kraus_from_branches(self._branches(), max_iop(2),
                                 f={"-": -0.5, "+": 0.5})
        probs = dict(outcome_probabilities(ms, max_iop(2)))
        assert np.isclose(probs["-"], 0.5)
        assert np.isclose(probs["+"], 0.5)
        out = post_measurement_object(ms, max_iop(2), "-")
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_mixture_recovery(self, seed):
        rng = np.random.default_rng(seed)
        comps = [random_iop(rng, 3) for _ in range(2)]
        weights = rng.dirichlet(np.ones(2))
        whole = validate(sum(w * c.matrix for w, c in zip(weights, comps)))
        branches = [
            Branch(label=str(i), weight=float(w), rho_s=c, rho_t=c, residual=0.0)
            for i, (w, c) in enumerate(zip(weights, comps))
        ]
        ms = kraus_from_branches(branches, whole)
        for i, (w, c) in enumerate(zip(weights, comps)):
            k = ms.kraus[i]
            out = k @ whole.matrix @ k.conj().T
            assert np.isclose(np.trace(out).real, w, atol=1e-8)
            assert linalg.frobenius_dist(out / w, c.matrix) <= 1e-7


class TestSupportFloor:
    def test_kraus_support_matches_contraction_support(self):
        # whole has eigenvalue 5e-13 <= ZERO_WEIGHT_FLOOR along e1: both
        # constructions treat e1 as outside its support
        whole = validate(np.diag([1 - 5e-13, 5e-13]))
        branches = [
            Branch(label="0", weight=1 - 5e-13, rho_s=pure_iop([1, 0]),
                   rho_t=max_iop(1), residual=0.0),
            Branch(label="1", weight=5e-13, rho_s=pure_iop([0, 1]),
                   rho_t=max_iop(1), residual=0.0),
        ]
        ms = kraus_from_branches(branches, whole)
        for k in ms.kraus:
            assert np.linalg.norm(k @ np.array([0, 1])) == 0.0
        with pytest.raises(SupportViolation):
            contraction_from_mixture(whole, pure_iop([0, 1]))
        k = dense_k(contraction_from_mixture(whole, pure_iop([1, 0])))
        assert np.linalg.norm(k @ np.array([0, 1])) == 0.0
