import math

import numpy as np
import pytest

from iopsim import linalg
from iopsim.errors import BadParameter, BadSlitGeometry
from iopsim.scenarios import (
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

    def test_single_slit_no_contrast_check(self):
        report = two_slit(slit_positions=((40, 44),))
        assert report.all_pass()
        names = [c.description for c in report.checks]
        assert not any("interference_contrast" in n for n in names)

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
        # a geometry whose interference_contrast check fails
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
        ("two-slit", "interference_contrast"),
    ])
    def test_yes_no_checks_take_no_tolerance(self, name, tol):
        with pytest.raises(BadParameter, match="unknown tolerance names"):
            SCENARIOS[name](tol_overrides={tol: 1.0})
        checks = [c for c in SCENARIOS[name]().checks
                  if c.description.startswith(tol)]
        assert len(checks) == 1 and checks[0].tolerance == 0.0
