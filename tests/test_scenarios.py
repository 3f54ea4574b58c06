import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iopsim import config, dynamics, linalg, scenarios
from iopsim.errors import BadParameter, BadSlitGeometry, IopsimError
from iopsim.iop import ZERO_WEIGHT_FLOOR
from iopsim.measurement import completeness_defect
from iopsim.scenarios import (
    INTERFERENCE_FLOOR,
    SCENARIOS,
    cat,
    spin_one_example,
    stern_gerlach,
    stern_gerlach_unitary,
    two_slit,
)
from iopsim.serialize import dumps


class TestSternGerlach:
    def test_all_checks_pass(self):
        report = stern_gerlach()
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]

    def test_unitary_is_unitary(self):
        u = stern_gerlach_unitary()
        assert linalg.unitarity_defect(u.matrix) <= 1e-12

    def test_balanced_prior_probabilities(self):
        report = stern_gerlach(p_up_prior=0.5)
        exact = report.outputs["exact_probabilities"]
        assert np.isclose(exact["up"], 0.5)
        assert np.isclose(exact["down"], 0.5)

    def test_biased_prior(self):
        report = stern_gerlach(p_up_prior=0.8)
        assert report.all_pass()
        exact = report.outputs["exact_probabilities"]
        assert np.isclose(exact["up"], 0.8)

    def test_pure_up_prior_single_branch(self):
        report = stern_gerlach(p_up_prior=1.0)
        assert report.all_pass()
        labels = [b["label"] for b in report.outputs["branches"]["branches"]]
        assert labels == ["-"]

    @pytest.mark.parametrize("p", [1e-300, 1e-13, 5e-13])
    def test_prior_at_or_below_the_zero_weight_floor(self, p):
        # branch_decompose omits the "-" branch of weight p: it counts as
        # weight 0, and conditioning on it is vacuous
        report = stern_gerlach(p_up_prior=p)
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]
        labels = [b["label"] for b in report.outputs["branches"]["branches"]]
        assert labels == ["+"]
        assert any(c.description.startswith("post_measurement_object (vacuous")
                   for c in report.checks)

    def test_bad_prior_rejected(self):
        with pytest.raises(BadParameter):
            stern_gerlach(p_up_prior=1.5)

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(BadParameter):
            stern_gerlach(tol_overrides={"no_such_check": 1.0})


class TestCat:
    def test_all_checks_pass(self):
        report = cat()
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]

    def test_probabilities_track_weights(self):
        report = cat(p_plus=0.3)
        for step in report.outputs["probabilities"]:
            assert np.isclose(step["+"], 0.3, atol=1e-9)
            assert np.isclose(step["-"], 0.7, atol=1e-9)

    def test_coherent_probabilities_still_defined(self):
        report = cat()
        coherent = report.outputs["coherent_probabilities"]
        assert np.isclose(sum(coherent.values()), 1.0)

    def test_label_trajectory_alternates(self):
        # the swap pulse moves the walker to the other subspace each leg
        report = cat(p_plus=0.9)
        traj = report.outputs["label_trajectory"]
        assert traj == ["+", "-", "+"]

    def test_degenerate_weights_pass(self):
        assert cat(p_plus=0.0).all_pass()
        assert cat(p_plus=1.0).all_pass()

    def test_bad_steps_rejected(self):
        with pytest.raises(BadParameter):
            cat(steps=0)
        with pytest.raises(BadParameter, match=r"steps must be in \[1, 10000\]"):
            cat(steps=scenarios.CAT_MAX_STEPS + 1)


def priors():
    """Priors in [0, 1], weighted to the edges and the zero-weight floor."""
    near_floor = st.floats(ZERO_WEIGHT_FLOOR / 10, ZERO_WEIGHT_FLOOR * 10)
    return (st.sampled_from([0.0, 1.0, 1e-300, ZERO_WEIGHT_FLOOR, 1 - 1e-12])
            | near_floor | near_floor.map(lambda p: 1.0 - p)
            | st.floats(0.0, 1.0))


class TestPriorSweep:
    """Every valid prior gives a report or a typed IopsimError, never
    another exception.  Some priors near the zero-weight floor still fail
    a check or raise (ROADMAP item 2), so no verdict is asserted."""

    @given(p_up=priors(), mc_samples=st.integers(1, 10**6),
           seed=st.integers(0, 2**32 - 1))
    @example(p_up=1e-13, mc_samples=10_000, seed=0)
    @example(p_up=0.999999999999, mc_samples=10_000, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_stern_gerlach(self, p_up, mc_samples, seed):
        try:
            report = stern_gerlach(p_up_prior=p_up, mc_samples=mc_samples,
                                   seed=seed)
        except IopsimError:
            return
        assert report.checks

    @given(p_plus=priors(), steps=st.integers(1, 40))
    @example(p_plus=2e-12, steps=20)
    @settings(max_examples=100, deadline=None)
    def test_cat(self, p_plus, steps):
        try:
            report = cat(p_plus=p_plus, steps=steps)
        except IopsimError:
            return
        assert report.checks


class TestSpinOne:
    def test_all_checks_pass(self):
        report = spin_one_example()
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]

    def test_entropies(self):
        report = spin_one_example()
        assert np.isclose(report.outputs["entropy_mixture"], math.log(2))
        assert np.isclose(report.outputs["entropy_max"], math.log(3))

    def test_transposition_note_present(self):
        report = spin_one_example()
        assert any("transposed" in note for note in report.notes)


@st.composite
def slit_geometries(draw):
    """A grid of 16 to 96 sites and one to three slits anywhere on it, in
    order and disjoint, touching or not; a zero-width slit is drawn too."""
    grid_n = draw(st.integers(16, 96))
    n = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(0, grid_n),
                                min_size=2 * n, max_size=2 * n)))
    return grid_n, tuple(zip(cuts[::2], cuts[1::2]))


class TestTwoSlit:
    def test_all_checks_pass(self):
        report = two_slit()
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]

    def test_contrast_strictly_larger(self):
        report = two_slit()
        assert (report.outputs["contrast_coherent"]
                > report.outputs["contrast_incoherent"])

    def test_intensities_normalized(self):
        report = two_slit()
        assert np.isclose(sum(report.outputs["intensity_coherent"]), 1.0)
        assert np.isclose(sum(report.outputs["intensity_incoherent"]), 1.0)

    def test_explicit_passage_probability(self):
        report = two_slit(p_pass=0.25)
        assert report.all_pass()
        assert np.isclose(report.outputs["passage_probability"], 0.25)

    def test_single_slit_has_no_interference_term(self):
        report = two_slit(slit_positions=((40, 44),))
        assert report.all_pass()
        term = next(c for c in report.checks
                    if c.description.startswith("interference_term"))
        assert term.passed
        assert report.outputs["interference_term"] <= INTERFERENCE_FLOOR

    def test_two_slits_have_an_interference_term(self):
        report = two_slit()
        term = next(c for c in report.checks
                    if c.description.startswith("interference_term"))
        assert term.passed and "vacuous" not in term.description
        assert report.outputs["interference_term"] > 1e3 * INTERFERENCE_FLOOR

    @pytest.mark.parametrize("kwargs, hbar_value", [
        ({"grid_n": 256}, 2.5),
        ({"grid_n": 256, "slit_positions": ((80, 84), (172, 176))}, 1.0),
    ], ids=["grid-256-hbar-2.5", "grid-256-far-slits"])
    def test_all_checks_pass_before_the_wavefronts_meet(self, kwargs, hbar_value):
        # no two wavefronts have met yet, and every check still passes
        with config.hbar(hbar_value):
            report = two_slit(**kwargs)
        assert report.all_pass()

    def test_wide_slits_on_a_small_grid_pass(self):
        # coherent central-window contrast below incoherent: the contrast
        # is an output, not a law, while the interference term is there
        report = two_slit(grid_n=52, slit_positions=((3, 24), (28, 37)), steps=15)
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]
        assert (report.outputs["contrast_coherent"]
                < report.outputs["contrast_incoherent"])
        assert report.outputs["interference_term"] > INTERFERENCE_FLOOR

    @pytest.mark.parametrize("grid_n, slits, steps", [
        (16, ((0, 1), (1, 2)), 1),
        (32, ((10, 11), (13, 14)), 20),
    ], ids=["adjacent", "three-apart"])
    def test_single_sites_at_odd_distance_do_not_interfere(self, grid_n, slits, steps):
        # on an even ring every path between the two sites has odd length,
        # so their cross term i^m J J is imaginary and drops out of the
        # intensity: the fronts meet, yet coherent equals incoherent
        report = two_slit(grid_n=grid_n, slit_positions=slits, steps=steps)
        assert report.all_pass()
        assert report.outputs["interference_term"] <= INTERFERENCE_FLOOR
        term = next(c for c in report.checks
                    if c.description.startswith("interference_term"))
        assert "vacuous" in term.description

    @given(geometry=slit_geometries(), steps=st.integers(1, 60),
           p_pass=st.none() | st.floats(0.0, 1.0, exclude_min=True))
    @example(geometry=(16, ((0, 16),)), steps=1, p_pass=None)  # all open
    @example(geometry=(64, ((0, 1), (63, 64))), steps=60, p_pass=1.0)
    @example(geometry=(17, ((3, 4), (6, 7))), steps=2, p_pass=None)
    @example(geometry=(16, ((3, 5),)), steps=1, p_pass=ZERO_WEIGHT_FLOOR)
    @settings(max_examples=150, deadline=None)
    def test_every_check_passes_across_geometry(self, geometry, steps, p_pass):
        # a zero-width slit or a prior at or below the zero-weight floor
        # is rejected up front; every other input passes every check
        grid_n, slits = geometry
        invalid = (any(a == b for a, b in slits)
                   or p_pass is not None and p_pass <= ZERO_WEIGHT_FLOOR)
        try:
            report = two_slit(grid_n=grid_n, p_pass=p_pass,
                              slit_positions=slits, steps=steps)
        except (BadSlitGeometry, BadParameter):
            assert invalid
            return
        assert not invalid
        assert report.all_pass(), [c.description for c in report.checks
                                   if not c.passed]
        assert report.checks[0].description == "screen_completeness"
        assert report.checks[0].residual == 0.0

    def test_bench_geometry_checks_interference(self):
        report = two_slit(grid_n=512, slit_positions=((160, 176), (336, 352)),
                          steps=160)
        assert report.all_pass()
        assert not any("vacuous" in c.description for c in report.checks)

    def test_overlapping_slits_rejected(self):
        with pytest.raises(BadSlitGeometry):
            two_slit(slit_positions=((40, 44), (42, 46)))

    def test_out_of_range_slit_rejected(self):
        with pytest.raises(BadSlitGeometry):
            two_slit(grid_n=64, slit_positions=((60, 70),))

    def test_tiny_grid_rejected(self):
        with pytest.raises(BadSlitGeometry):
            two_slit(grid_n=8)

    def test_modeling_note_present(self):
        report = two_slit()
        assert any("assumption" in note for note in report.notes)

    @pytest.mark.parametrize("grid_n, sites", [
        (128, [40, 41, 42, 43, 84, 85, 86, 87]),
        (64, [0, 1, 62, 63]),
        (16, list(range(16))),
    ], ids=["default", "edge-slits", "no-blocked-site"])
    def test_screen_matches_dense_swap(self, grid_n, sites):
        # oracle: the absorbing operator as a dense swap times I - P
        dim = grid_n + 1
        p_pass = np.diag([1.0 if j in sites else 0.0 for j in range(dim)])
        m_abs = np.eye(dim) - p_pass
        blocked = [j for j in range(grid_n) if j not in sites]
        if blocked:
            swap = np.eye(dim)
            swap[[blocked[0], grid_n]] = swap[[grid_n, blocked[0]]]
            m_abs = swap @ m_abs
        screen = scenarios._slit_screen(grid_n, sites)
        assert np.array_equal(screen.kraus[0], p_pass)
        assert np.array_equal(screen.kraus[1], m_abs)
        assert completeness_defect(screen) == 0.0


def dense_ring_hamiltonian(grid_n):
    """Oracle: nearest-neighbour hopping on the periodic grid, flag decoupled."""
    h = np.zeros((grid_n + 1, grid_n + 1), dtype=complex)
    for j in range(grid_n):
        h[j, (j + 1) % grid_n] = -1.0
        h[(j + 1) % grid_n, j] = -1.0
    return dynamics.hamiltonian(h)


def dense_ring_propagator(grid_n, t):
    return dynamics.propagator(dense_ring_hamiltonian(grid_n), 0.0, t)


class TestRingPropagator:
    """The DFT propagator against exp(-i t H / hbar) of the dense ring."""

    @pytest.mark.parametrize("grid_n", [16, 64, 256])
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("t", [20.0, -7.5], ids=["forward", "reverse"])
    def test_matches_dense_eigensolver(self, grid_n, hbar, t):
        with config.hbar(hbar):
            fast = scenarios._ring_propagator(grid_n, t).matrix
            oracle = dense_ring_propagator(grid_n, t).matrix
        assert np.max(np.abs(fast - oracle)) <= 1e-12

    @pytest.mark.parametrize("grid_n", [16, 17, 128, 513])
    def test_equals_the_index_circulant(self, grid_n):
        # oracle: the first column indexed by (i - j) mod n
        u = scenarios._ring_propagator(grid_n, 20.0).matrix
        column = u[:grid_n, 0]
        k = np.arange(grid_n)
        assert np.array_equal(u[:grid_n, :grid_n],
                              column[(k[:, None] - k) % grid_n])
        assert u[grid_n, grid_n] == 1.0
        assert not u[grid_n, :grid_n].any() and not u[:grid_n, grid_n].any()

    @pytest.mark.parametrize("kwargs", [
        {},
        {"grid_n": 256, "slit_positions": ((80, 84), (172, 176))},
    ], ids=["default", "grid-256"])
    def test_scenario_matches_dense_route(self, monkeypatch, kwargs):
        fast = two_slit(**kwargs)
        monkeypatch.setattr(scenarios, "_ring_propagator", dense_ring_propagator)
        dense = two_slit(**kwargs)
        for key in ("intensity_coherent", "intensity_incoherent"):
            assert np.max(np.abs(np.subtract(fast.outputs[key],
                                             dense.outputs[key]))) <= 1e-12
        assert [c.description for c in fast.checks] == [
            c.description for c in dense.checks]
        for a, b in zip(fast.checks, dense.checks):
            assert abs(a.residual - b.residual) <= 1e-12, a.description


class TestReports:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_report_serializes(self, name):
        kwargs = {"mc_samples": 2000} if name == "stern-gerlach" else {}
        report = SCENARIOS[name](**kwargs)
        text = dumps(report.to_json())
        assert '"all_pass": true' in text

    def test_deterministic_outputs(self):
        a = dumps(stern_gerlach(seed=5).to_json())
        b = dumps(stern_gerlach(seed=5).to_json())
        assert a == b

    def test_different_seed_changes_frequencies_only(self):
        a = stern_gerlach(seed=1)
        b = stern_gerlach(seed=2)
        assert a.outputs["exact_probabilities"] == b.outputs["exact_probabilities"]
        assert (a.outputs["sampled_frequencies"]
                != b.outputs["sampled_frequencies"])


class TestVerdicts:
    """A check passes exactly when its residual is within its tolerance."""

    @pytest.mark.parametrize("name, kwargs", [
        ("stern-gerlach", {}),
        ("stern-gerlach", {"p_up_prior": 1.0}),
        ("cat", {}),
        ("spin-one", {}),
        ("two-slit", {}),
        # a geometry whose interference checks are vacuous
        ("two-slit", {"grid_n": 256, "slit_positions": ((80, 84), (172, 176))}),
    ], ids=["stern-gerlach", "stern-gerlach-p-up-1", "cat", "spin-one",
            "two-slit", "two-slit-grid-256"])
    def test_passed_iff_residual_within_tolerance(self, name, kwargs):
        for check in SCENARIOS[name](**kwargs).checks:
            assert check.passed == (check.residual <= check.tolerance), check

    @pytest.mark.parametrize("name, tol", [
        ("stern-gerlach", "interaction_dissolves_condensation"),
        ("cat", "superposition_not_condensed"),
        ("spin-one", "disjoint_support_rejected"),
        ("two-slit", "interference_term"),
    ])
    def test_yes_no_checks_take_no_tolerance(self, name, tol):
        with pytest.raises(BadParameter, match="unknown tolerance names"):
            SCENARIOS[name](tol_overrides={tol: 1.0})
        checks = [c for c in SCENARIOS[name]().checks
                  if c.description.startswith(tol)]
        assert len(checks) == 1 and checks[0].tolerance == 0.0


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _claim_rows():
    """(claim, scenario, check names) of each README claims-table row."""
    text = README.read_text()
    table = text[text.index("| claim | scenario | checks |"):].split("\n\n")[0]
    for line in table.splitlines()[2:]:
        claim, scenario, checks = (c.strip() for c in line.strip("|").split("|"))
        yield claim, scenario.strip("`"), re.findall(r"`([a-z_]+)`", checks)


def test_readme_claims_table_names_reported_checks():
    rows = list(_claim_rows())
    assert {claim[:3] for claim, _, _ in rows} == {"(a)", "(b)", "(c)", "(d)"}
    for claim, scenario, checks in rows:
        if scenario not in SCENARIOS:
            assert checks == [], claim
            continue
        report = SCENARIOS[scenario]()
        reported = {c.description.split(" ")[0] for c in report.checks}
        assert checks and set(checks) <= reported, (claim, scenario)
