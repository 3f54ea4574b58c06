import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import linalg
from iopsim.errors import NotFinite, NotPure, ZeroVector
from iopsim.ivec import InfoVector, from_iop, gauge_fix, to_iop
from iopsim.iop import is_pure, max_iop, pure_iop

from conftest import random_pure


class TestGaugeFix:
    def test_normalizes(self):
        v = gauge_fix([3.0, 4.0])
        assert np.isclose(np.linalg.norm(v.amplitudes), 1.0)

    def test_first_component_real_positive(self):
        v = gauge_fix([1j, 1.0])
        assert v.amplitudes[0].real > 0
        assert abs(v.amplitudes[0].imag) <= 1e-15

    def test_leading_zeros_skipped(self):
        v = gauge_fix([0.0, -1.0, 1.0])
        assert v.amplitudes[1].real > 0

    def test_phase_families_collapse(self):
        base = np.array([1.0, 1j]) / math.sqrt(2)
        for phase in np.exp(1j * np.linspace(0, 2 * math.pi, 7)):
            v = gauge_fix(phase * base)
            np.testing.assert_allclose(v.amplitudes, gauge_fix(base).amplitudes,
                                       atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            gauge_fix([0.0, 0.0])

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
           log_norm=st.floats(-300.0, -12.0))
    @settings(max_examples=60, deadline=None)
    def test_tiny_vector_is_not_zero(self, seed, d, log_norm):
        # one rule with pure_iop: only a zero or non-finite norm is rejected
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = psi / np.linalg.norm(psi) * 10.0 ** log_norm
        assert linalg.frobenius_dist(to_iop(gauge_fix(v)).matrix,
                                     pure_iop(v).matrix) <= 1e-15
        assert linalg.frobenius_dist(pure_iop(v).matrix, pure_iop(psi).matrix) <= 1e-15

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [1.0, -np.inf]])
    def test_non_finite_rejected(self, amplitudes):
        with pytest.raises(NotFinite):
            gauge_fix(amplitudes)


class TestRoundTrip:
    def test_to_iop_is_pure(self):
        assert is_pure(to_iop(gauge_fix([1.0, 1j, 0.5])))

    def test_phase_drops_out(self):
        a = to_iop(gauge_fix([1.0, 1j]))
        b = to_iop(InfoVector(amplitudes=np.array([1.0, 1j]) * np.exp(0.3j)
                                         / math.sqrt(2)))
        assert linalg.frobenius_dist(a.matrix, b.matrix) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_operator_vector_operator(self, seed, d):
        rho = random_pure(np.random.default_rng(seed), d)
        again = to_iop(from_iop(rho))
        assert linalg.frobenius_dist(again.matrix, rho.matrix) <= 1e-9

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_vector_operator_vector(self, seed, d):
        rng = np.random.default_rng(seed)
        v = gauge_fix(rng.normal(size=d) + 1j * rng.normal(size=d))
        again = from_iop(to_iop(v))
        assert np.linalg.norm(again.amplitudes - v.amplitudes) <= 1e-8

    def test_mixed_operator_rejected(self):
        with pytest.raises(NotPure):
            from_iop(max_iop(2))
