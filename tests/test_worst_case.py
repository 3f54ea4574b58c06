"""Worst-case search for four of the paper's identities.

Each property test steers Hypothesis towards its largest residual with
`hypothesis.target` (Löscher and Sagonas, "Targeted property-based
testing", ISSTA 2017) and prints the worst residual it saw next to the
tolerance the identity is held to (run with `-s` to see it).  Every
operator has one eigenvalue drawn log-uniformly in magnitude, of either
sign, from a tenth of ZERO_WEIGHT_FLOOR to ten times POSITIVITY_TOL, so
it falls below, between and above both thresholds of `validate`.  It is
given as a spectral form, or as a matrix that is Haar-rotated blocks on
shuffled index groups at d >= 59, where `validate` may diagonalize the
groups one by one.
"""

import math

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from iopsim import linalg
from iopsim.composite import CompositeSpec, branch_decompose, compose
from iopsim.condensation import CondensationStructure, label_probabilities
from iopsim.dynamics import evolve, unitary
from iopsim.errors import NotPositive
from iopsim.iop import (
    POSITIVITY_TOL,
    ZERO_WEIGHT_FLOOR,
    contract,
    contraction_from_max,
    max_iop,
    pure_iop,
    validate,
)
from iopsim.measurement import (
    MeasurementSystem,
    expectation,
    observable,
    outcome_probabilities,
)
from iopsim.scenarios import STERN_TOLS, _slit_screen, stern_gerlach_unitary

from conftest import random_unitary
from test_measurement import routed_family

# acceptance criterion 3's bounds: the round trip from the maximum
# operator, and sum_m f(m) p(m) against tr(O rho); acceptance criterion
# 4's bound on label-weight drift; stern-gerlach's own separability bound
ROUND_TRIP_TOL = 1e-8
BORN_TOL = 1e-9
LABEL_WEIGHT_TOL = 1e-9
SEPARABILITY_TOL = STERN_TOLS["branch_separability"]
# within this relative band of -POSITIVITY_TOL a dense eigh's rounding
# may put the smallest eigenvalue on either side
BAND = 1e-3

SEEDS = st.integers(0, 2**32 - 1)
# (d, groups): a spectral form at small d, or a block-aligned matrix
SHAPES = st.one_of(st.tuples(st.integers(2, 8), st.just(0)),
                   st.tuples(st.integers(59, 128), st.integers(2, 4)))
LOWS = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                 st.floats(math.log10(ZERO_WEIGHT_FLOOR / 10),
                           math.log10(10 * POSITIVITY_TOL)))


def drawn_operator(rng, d, groups, low):
    """validate of an operator whose eigenvalues are `low` and d - 1 more
    summing to 1 - max(low, 0), so it has unit trace once clamped: a
    spectral form for groups == 0, else a matrix of Haar-rotated blocks
    on that many shuffled index groups.  None where `low` lies past
    -POSITIVITY_TOL and validate raises NotPositive."""
    rest = rng.dirichlet(np.ones(d - 1)) * (1 - max(low, 0.0))
    w = np.sort(np.append(rest, low))
    if groups:
        a = np.zeros((d, d), dtype=complex)
        for g, part in zip(np.array_split(rng.permutation(d), groups),
                           np.array_split(rng.permutation(w), groups)):
            q = random_unitary(rng, g.size).matrix
            a[np.ix_(g, g)] = (q * part) @ q.conj().T
    else:
        a = linalg.HermEigen(w, random_unitary(rng, d).matrix)
    try:
        rho = validate(a)
    except NotPositive:
        assert low < -POSITIVITY_TOL * (1 - BAND)
        return None
    assert low >= -POSITIVITY_TOL * (1 + BAND)
    return rho


def measurement_system(rng, d, family):
    """A complete Kraus family on d with a normal scale value per label:
    projectors onto a Haar basis cut into at most four groups, the same
    each after a Haar unitary (dense), or a partial-permutation family or
    a slit screen (routed)."""
    if family == "routed":
        routes = routed_family(rng, d, "routed").routes
    elif family == "screen":
        sites = np.sort(rng.choice(d - 1, size=rng.integers(1, d), replace=False))
        routes = _slit_screen(d - 1, sites).routes
    else:
        routes = None
        basis = random_unitary(rng, d).matrix
        kraus = [basis[:, g] @ basis[:, g].conj().T
                 for g in np.array_split(np.arange(d), rng.integers(1, 5))]
        if family == "unitary-projector":
            kraus = [random_unitary(rng, d).matrix @ k for k in kraus]
    labels = tuple(range(len(kraus) if routes is None else len(routes)))
    f = dict(zip(labels, rng.normal(size=len(labels))))
    if routes is None:
        return MeasurementSystem(dim_s=d, labels=labels, kraus=kraus, f=f)
    return MeasurementSystem(dim_s=d, labels=labels, routes=routes, f=f)


def test_contraction_from_the_maximum_operator():
    # contract(max_iop(d), contraction_from_max(rho)) gives rho back
    worst = []

    @given(seed=SEEDS, shape=SHAPES, low=LOWS)
    @settings(max_examples=150, deadline=None)
    def search(seed, shape, low):
        rho = drawn_operator(np.random.default_rng(seed), *shape, low)
        if rho is None:
            return
        back = contract(max_iop(rho.dim), contraction_from_max(rho))
        residual = linalg.frobenius_dist(back.matrix, rho.matrix)
        target(residual)
        worst.append(residual)
        assert residual <= ROUND_TRIP_TOL

    search()
    print(f"\ncontraction from the maximum operator: worst residual "
          f"{max(worst):.3e}, tolerance {ROUND_TRIP_TOL:.0e}")


def test_born_rule_consistency():
    # sum_m f(m) p(m) equals tr(O rho) for O = sum_m f(m) (M^m)^dag M^m
    worst = []

    @given(seed=SEEDS, shape=SHAPES, low=LOWS,
           family=st.sampled_from(["projective", "unitary-projector",
                                   "routed", "screen"]))
    @settings(max_examples=150, deadline=None)
    def search(seed, shape, low, family):
        rng = np.random.default_rng(seed)
        rho = drawn_operator(rng, *shape, low)
        if rho is None:
            return
        ms = measurement_system(rng, rho.dim, family)
        weighted = sum(ms.f[m] * p for m, p in outcome_probabilities(ms, rho))
        residual = abs(weighted - expectation(observable(ms), rho))
        target(residual)
        worst.append(residual)
        assert residual <= BORN_TOL

    search()
    print(f"\nBorn-rule consistency: worst residual {max(worst):.3e}, "
          f"tolerance {BORN_TOL:.0e}")


def test_label_weights_under_block_diagonal_chains():
    # the label weights of a condensation structure stay constant along a
    # chain of evolutions by a unitary that never couples its groups: k
    # contiguous groups of one size, which `unitary` stacks where that
    # pays, or k contiguous groups of random sizes, applied densely
    worst = []
    routes = {"stacked": 0, "dense": 0}

    @given(seed=SEEDS, groups=st.sampled_from([0, 2, 3, 4]), low=LOWS,
           k=st.integers(2, 8), equal=st.booleans(), steps=st.integers(1, 20),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def search(seed, groups, low, k, equal, steps, data):
        rng = np.random.default_rng(seed)
        size = data.draw(st.integers(-(-59 // k), 128 // k), label="size")
        d = k * size
        cuts = (np.arange(1, k) * size if equal
                else np.sort(rng.choice(np.arange(1, d), k - 1, replace=False)))
        blocks = np.split(np.arange(d), cuts)
        rho = drawn_operator(rng, d, groups, low)
        if rho is None:
            return
        a = np.zeros((d, d), dtype=complex)
        for g in blocks:
            a[np.ix_(g, g)] = random_unitary(rng, g.size).matrix
        u = unitary(a)
        routes["dense" if u.blocks is None else "stacked"] += 1
        structure = CondensationStructure.from_index_blocks(
            d, {m: g.tolist() for m, g in enumerate(blocks)})
        initial = np.array([p for _, p in label_probabilities(rho, structure)])
        residual = 0.0
        for _ in range(steps):
            rho = evolve(rho, u)
            now = np.array([p for _, p in label_probabilities(rho, structure)])
            residual = max(residual, float(np.abs(now - initial).max()))
        target(residual)
        worst.append(residual)
        assert residual <= LABEL_WEIGHT_TOL

    search()
    print(f"\nlabel weights under block-diagonal chains: worst residual "
          f"{max(worst):.3e}, tolerance {LABEL_WEIGHT_TOL:.0e} "
          f"(stacked {routes['stacked']}, dense {routes['dense']} unitaries)")


def test_separable_deflection_branches():
    # the deflection unitary splits any 2 x 2 object operator, coherent
    # ones included, into branches that are each a separable product
    worst = []
    u = stern_gerlach_unitary()
    spec = CompositeSpec(dim_s=2, dim_t=3, t_structure=(
        CondensationStructure.from_index_blocks(3, {"+": [0], "0": [1], "-": [2]})))

    @given(seed=SEEDS, low=LOWS)
    @settings(max_examples=150, deadline=None)
    def search(seed, low):
        rho_s = drawn_operator(np.random.default_rng(seed), 2, 0, low)
        if rho_s is None:
            return
        rho_st = evolve(compose(rho_s, pure_iop([0, 1, 0])), u)
        residual = max(b.residual for b in branch_decompose(rho_st, spec).branches)
        target(residual)
        worst.append(residual)
        assert residual <= SEPARABILITY_TOL

    search()
    print(f"\nseparable deflection branches: worst residual {max(worst):.3e}, "
          f"tolerance {SEPARABILITY_TOL:.0e}")
