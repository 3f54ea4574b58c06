import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import linalg
from iopsim.config import get_hbar, hbar
from iopsim.dynamics import HamiltonianOp, propagator
from iopsim.errors import DimensionMismatch, NotHermitian

from conftest import random_hermitian


class TestHermEig:
    """`eigh` after the `hermitian` entry check."""

    def test_diagonal_input(self):
        w, v = linalg.eigh(linalg.hermitian(np.diag([2.0, 1.0])))
        np.testing.assert_allclose(w, [1.0, 2.0])
        # eigenvectors are the permuted identity
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-12)

    def test_identity(self):
        w, _ = linalg.eigh(linalg.hermitian(np.eye(3)))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, _ = linalg.eigh(linalg.hermitian(x))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, d):
        a = random_hermitian(np.random.default_rng(seed), d)
        w, v = linalg.eigh(linalg.hermitian(a))
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)


def _exp(h, t):
    """exp(-i t h / hbar) as `dynamics.propagator` forms it."""
    return propagator(HamiltonianOp(h), 0.0, t).matrix


class TestMatExp:
    def test_zero_generator(self):
        np.testing.assert_allclose(_exp(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-14)

    def test_eigenvalue_phases(self):
        with hbar(1.0):
            u = _exp(np.diag([math.pi, 0.0]), 1.0)
        np.testing.assert_allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_hbar_rescales_phase(self):
        with hbar(2.0):
            u = _exp(np.diag([math.pi, 0.0]), 1.0)
        np.testing.assert_allclose(u, np.diag([-1j, 1.0]), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_result_unitary(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 5)
        u = _exp(h, float(rng.normal()))
        assert linalg.unitarity_defect(u) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_semigroup(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        t1, t2 = rng.normal(size=2)
        whole = _exp(h, t1 + t2)
        split = _exp(h, t1) @ _exp(h, t2)
        assert np.linalg.norm(whole - split) <= 1e-9

    def test_hbar_override_stays_in_its_thread(self):
        seen = []
        worker = threading.Thread(target=lambda: seen.append(get_hbar()))
        with hbar(2.5):
            worker.start()
            worker.join(timeout=10)
            assert get_hbar() == 2.5
        assert not worker.is_alive()
        assert seen == [1.0]


class TestPartialTrace:
    def test_separable(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b / np.trace(b)
        out = linalg.partial_trace(np.kron(a, b), 2, 3, over="B")
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_full_trace_composes(self, rng):
        ab = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        reduced = linalg.partial_trace(ab, 2, 3, over="A")
        assert np.isclose(np.trace(reduced), np.trace(ab))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linear_and_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        c = complex(rng.normal(), rng.normal())
        combined = linalg.partial_trace(x + c * y, 2, 3, over="B")
        parts = (linalg.partial_trace(x, 2, 3, over="B")
                 + c * linalg.partial_trace(y, 2, 3, over="B"))
        np.testing.assert_allclose(combined, parts, atol=1e-10)
        assert np.isclose(np.trace(combined), np.trace(x + c * y))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(5), 2, 3, over="A")


class TestFrobeniusDist:
    def test_zero_on_equal(self, rng):
        a = rng.normal(size=(3, 3))
        assert linalg.frobenius_dist(a, a) == 0.0

    def test_identity_to_zero(self):
        assert np.isclose(linalg.frobenius_dist(np.eye(2), np.zeros((2, 2))),
                          math.sqrt(2))

    def test_orthogonal_projectors(self):
        assert np.isclose(
            linalg.frobenius_dist(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            math.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.frobenius_dist(np.eye(2), np.eye(3))


class TestFrozen:
    def test_caller_array_is_copied(self):
        a = np.eye(2, dtype=complex)
        for entries in (a, a[:], linalg.frozen(a)[:]):
            out = linalg.frozen(entries)
            assert not out.flags.writeable
            assert not np.shares_memory(out, a)
        assert a.flags.writeable

    def test_conversion_frozen_as_made(self):
        out = linalg.frozen([[1, 0], [0, 1]], dtype=complex)
        assert out.dtype == complex and not out.flags.writeable

    def test_read_only_owner_kept(self):
        a = np.eye(2, dtype=complex)
        a.setflags(write=False)
        assert linalg.frozen(a) is a


def extended_rank_one_dist(a, b):
    """Oracle: ||a a^dag - b b^dag||_F formed densely in extended precision."""
    a, b = (np.asarray(x, dtype=np.clongdouble) for x in (a, b))
    diff = np.outer(a, a.conj()) - np.outer(b, b.conj())
    return float(np.sqrt(np.sum(diff.real ** 2 + diff.imag ** 2)))


class TestRankOneDist:
    @pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-2])
    def test_matches_extended_precision(self, delta):
        # a = e^{i theta} (b + delta n): the phase drops out, and near
        # delta = 0 a cancelling formula keeps only half the digits
        rng = np.random.default_rng(513)
        b, n = (x / np.linalg.norm(x) for x in
                (rng.normal(size=(2, 513)) + 1j * rng.normal(size=(2, 513))))
        a = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (b + delta * n)
        oracle = extended_rank_one_dist(a, b)
        assert abs(linalg.rank_one_dist(a, b) - oracle) <= 1e-15 + 1e-9 * oracle

    def test_orthogonal_and_zero_vectors(self):
        e0, e1 = np.eye(2, dtype=complex)
        assert linalg.rank_one_dist(e0, e1) == pytest.approx(math.sqrt(2))
        assert linalg.rank_one_dist(2 * e0, np.zeros(2)) == pytest.approx(4.0)


class TestDefectBounds:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_isometry_bound_covers_the_measured_defect(self, seed, n, data):
        r = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        v, _ = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))
        measured = linalg.unitarity_defect(v)
        bound = linalg.checked_isometry(v)
        assert bound >= measured
        assert linalg.measured_bound(bound, n, r) >= measured


class TestUnitarityDefect:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
           isometry=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_keeps_the_bits_of_numpy_norm(self, seed, n, isometry, data):
        # square and thin inputs, near-isometries (where G - I is all
        # rounding) and general ones, with signed zeros in both parts
        r = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        if isometry:
            u = np.linalg.qr(u)[0]
        for part in (u.real, u.imag):
            hit = rng.random(part.shape) < 0.3
            part[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
        oracle = float(np.linalg.norm(u.conj().T @ u - np.eye(r)))
        assert linalg.unitarity_defect(u) == oracle

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (1, 1)])
    def test_negative_zero_matrix(self, shape):
        u = np.full(shape, complex(-0.0, -0.0))
        assert linalg.unitarity_defect(u) == math.sqrt(shape[1])
