import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iopsim import dynamics, linalg
from iopsim.condensation import CondensationStructure
from iopsim.config import hbar
from iopsim.dynamics import (
    HamiltonianOp,
    UnitaryOp,
    evolve,
    fourier_unitary,
    motion_residual,
    propagator,
    unitary,
)
from iopsim.errors import (
    BadParameter,
    DimensionMismatch,
    InsufficientPoints,
    IopsimError,
    NotFinite,
    NotUnitary,
)
from iopsim.iop import entropy, is_pure, max_iop, pure_iop, validate
from iopsim.scenarios import _ring_propagator

from conftest import random_hermitian, random_iop, random_pure, random_unitary


class TestEvolve:
    def test_identity_unitary(self, rng):
        rho = random_iop(rng, 3)
        out = evolve(rho, UnitaryOp(matrix=np.eye(3, dtype=complex)))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_preserves_spectrum_entropy_purity(self, seed, d):
        rng = np.random.default_rng(seed)
        rho = random_iop(rng, d)
        u = random_unitary(rng, d)
        out = evolve(rho, u)
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(out.matrix)
        assert np.max(np.abs(before - after)) <= 1e-9
        assert abs(entropy(out) - entropy(rho)) <= 1e-9
        assert is_pure(out) == is_pure(rho)

    def test_pure_stays_pure(self, rng):
        out = evolve(random_pure(rng, 4), random_unitary(rng, 4))
        assert is_pure(out)


class TestPropagator:
    def test_zero_interval(self, rng):
        h = HamiltonianOp(random_hermitian(rng, 3))
        u = propagator(h, 1.5, 1.5)
        np.testing.assert_allclose(u.matrix, np.eye(3), atol=1e-12)

    def test_eigenphases(self):
        with hbar(1.0):
            u = propagator(HamiltonianOp(np.diag([math.pi, 0.0])), 0.0, 1.0)
        np.testing.assert_allclose(u.matrix, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_reverse_is_adjoint(self, rng):
        h = HamiltonianOp(random_hermitian(rng, 4))
        fwd = propagator(h, 0.0, 0.7)
        back = propagator(h, 0.7, 0.0)
        assert linalg.frobenius_dist(back.matrix, fwd.matrix.conj().T) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed):
        rng = np.random.default_rng(seed)
        h = HamiltonianOp(random_hermitian(rng, 4))
        t0, t1, t2 = np.sort(rng.normal(size=3))
        whole = propagator(h, t0, t2)
        split = propagator(h, t1, t2).matrix @ propagator(h, t0, t1).matrix
        assert linalg.frobenius_dist(whole.matrix, split) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_continuity_at_small_times(self, rng, eps):
        h = HamiltonianOp(random_hermitian(rng, 4))
        u = propagator(h, 0.0, eps)
        assert linalg.unitarity_defect(u.matrix) <= 1e-10
        assert np.linalg.norm(u.matrix - np.eye(4)) <= 2 * eps * np.linalg.norm(h.matrix)


class TestMotionResidual:
    def _samples(self, h, rho0, dt, n):
        return [evolve(rho0, propagator(h, 0.0, k * dt)) for k in range(n)]

    def test_stationary_commuting_state(self):
        h = HamiltonianOp(np.diag([1.0, 2.0]))
        assert motion_residual(h, [max_iop(2)] * 3, 0.1) <= 1e-10

    def test_second_order_convergence(self, rng):
        h = HamiltonianOp(random_hermitian(rng, 3))
        rho0 = random_iop(rng, 3)
        r_coarse = motion_residual(h, self._samples(h, rho0, 0.02, 9), 0.02)
        r_fine = motion_residual(h, self._samples(h, rho0, 0.01, 17), 0.01)
        assert r_fine <= r_coarse / 3.0  # ~4x for halved step

    def test_jump_flagged(self, rng):
        h = HamiltonianOp(random_hermitian(rng, 3))
        rho0 = random_iop(rng, 3)
        dt = 0.01
        samples = self._samples(h, rho0, dt, 9)
        smooth = motion_residual(h, samples, dt)
        samples[4] = random_iop(np.random.default_rng(99), 3)
        assert motion_residual(h, samples, dt) > 100 * max(smooth, 1e-6)

    def test_too_few_points(self, rng):
        h = HamiltonianOp(random_hermitian(rng, 2))
        with pytest.raises(InsufficientPoints):
            motion_residual(h, [max_iop(2)] * 2, 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_bad_step_is_typed(self, dt):
        h = HamiltonianOp(np.diag([1.0, 2.0]))
        with pytest.raises(BadParameter, match="positive and finite"):
            motion_residual(h, [max_iop(2)] * 3, dt)


class TestUnitaryCheck:
    def test_non_unitary_is_typed(self):
        with pytest.raises(NotUnitary, match="unitarity defect"):
            unitary(np.diag([1.0, 2.0]))
        assert issubclass(NotUnitary, IopsimError)

    def test_evolve_checks_the_isometry(self):
        # unit columns at 45 degrees: U rho U^dag keeps trace and positivity
        # for rho = I/2, so only the isometry check can reject it
        s = 1 / math.sqrt(2)
        u = UnitaryOp(matrix=np.array([[1.0, s], [0.0, s]], dtype=complex))
        with pytest.raises(NotUnitary, match="isometry defect"):
            evolve(max_iop(2), u)

    def test_unitary_accepted(self, rng):
        u = random_unitary(rng, 3).matrix
        assert np.array_equal(unitary(u).matrix, u)

    def test_caller_array_stays_writable(self):
        # a write to the caller's array after the check leaves the checked
        # operator, and the defect it carries, as they were
        u = np.eye(3, dtype=complex)
        ops = (unitary(u), UnitaryOp(matrix=u), HamiltonianOp(u))
        assert all(not op.matrix.flags.writeable for op in ops)
        assert u.flags.writeable
        u[0, 0] = 5
        assert all(op.matrix[0, 0] == 1.0 for op in ops)
        assert linalg.unitarity_defect(ops[0].matrix) <= ops[0].defect


def _random_phases(rng, n):
    return np.exp(2j * np.pi * rng.uniform(size=n))


class TestFourierUnitary:
    """F^-1 diag(phases) F on the first n indices, the identity on the rest."""

    @pytest.mark.parametrize("phases, dim, error, match", [
        ([1.0, np.nan, 1.0], 3, NotFinite, "NaN or Inf"),
        ([1.0, 1j, np.inf], 4, NotFinite, "NaN or Inf"),
        (np.ones(5), 4, DimensionMismatch, r"shape \(5,\) for dim 4"),
        (np.ones((2, 2)), 4, DimensionMismatch, r"shape \(2, 2\)"),
        # |lam|^2 - 1 = 2e-9 at one phase, twice the tolerance
        ([1.0, 1.0 + 1e-9, 1j], 3, NotUnitary, "unitarity defect 2.0"),
        ([0.0, 1.0], 2, NotUnitary, "unitarity defect 1.0"),
    ], ids=["nan", "inf", "more-phases-than-dim", "not-a-vector",
            "off-the-circle", "zero-phase"])
    def test_bad_phases_are_typed(self, phases, dim, error, match):
        with pytest.raises(error, match=match):
            fourier_unitary(phases, dim)
        assert issubclass(error, IopsimError)

    def test_defect_within_the_tolerance_is_accepted(self):
        # |lam|^2 - 1 = 2e-10 at one phase
        u = fourier_unitary([1.0, 1.0 + 1e-10, -1.0], 4)
        assert linalg.unitarity_defect(u.matrix) <= linalg.UNITARITY_TOL

    @pytest.mark.parametrize("n, d", [(16, 16), (16, 17), (15, 19), (1, 3)])
    def test_product_matches_its_matrix(self, rng, n, d):
        # the FFT product against the dense form, which is built only on
        # first read; the rows past the phases are copied through
        u = fourier_unitary(_random_phases(rng, n), d)
        v = random_unitary(rng, d).matrix[:, :3]
        out = dynamics._product(u, v)
        assert "matrix" not in vars(u)
        assert np.max(np.abs(out - u.matrix @ v)) <= 1e-14
        assert np.array_equal(out[n:], v[n:])
        assert not u.matrix.flags.writeable
        assert linalg.unitarity_defect(u.matrix) <= 1e-13

    @pytest.mark.parametrize("n", [16, 17, 128, 513])
    def test_batched_columns_equal_single_products(self, rng, n):
        # the FFT along axis 0 runs one plan per column, so a column of a
        # batch is the product of that column alone, bit for bit
        u = fourier_unitary(_random_phases(rng, n), n + 1)
        for k in range(1, 6):
            v = rng.normal(size=(n + 1, k)) + 1j * rng.normal(size=(n + 1, k))
            batch = dynamics._product(u, v)
            for j in range(k):
                alone = dynamics._product(u, v[:, j:j + 1])
                assert np.array_equal(batch[:, j], alone[:, 0]), (k, j)

    def test_evolve_measures_the_product(self, rng, monkeypatch):
        # no bound is carried for the FFT's rounding: validate measures
        # the d x r Gram of U V, and the bound it keeps covers it
        u = fourier_unitary(_random_phases(rng, 32), 33)
        rho = _spectral_iop(rng, 33, 2)
        assert rho.isometry_defect is not None
        shapes = []

        def counted(v, _defect=linalg.unitarity_defect):
            shapes.append(v.shape)
            return _defect(v)

        monkeypatch.setattr(linalg, "unitarity_defect", counted)
        out = evolve(rho, u)
        assert shapes == [(33, 2)]
        assert out.isometry_defect >= counted(out.spectrum.eigenvectors)
        assert "matrix" not in vars(u)

    def test_caller_array_stays_writable(self):
        phases = np.ones(3, dtype=complex)
        u = fourier_unitary(phases, 3)
        phases[0] = 5
        assert u.phases[0] == 1 and not u.phases.flags.writeable


def _spectral_iop(rng, d, rank):
    """A rank-`rank` operator validated from a spectral form."""
    q, _ = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))
    w = np.sort(rng.dirichlet(np.ones(rank)))
    return validate(linalg.HermEigen(w, q))


def _unitary_from(source, rng, d, t):
    if source == "haar":
        return random_unitary(rng, d)
    if source == "propagator":
        return propagator(HamiltonianOp(random_hermitian(rng, d)), 0.0, t)
    return _ring_propagator(d - 1, t)


class TestCarriedIsometryBound:
    """evolve carries the isometry defect of U V as a bound, no Gram product."""

    @given(seed=st.integers(0, 2**32 - 1),
           source=st.sampled_from(["haar", "propagator", "ring"]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bound_covers_the_dense_defect(self, seed, source, data):
        rng = np.random.default_rng(seed)
        d = data.draw(st.integers(17, 513) if source == "ring"
                      else st.integers(1, 48), label="d")
        u = _unitary_from(source, rng, d, data.draw(st.floats(0.1, 40.0), label="t"))
        rank = data.draw(st.integers(1, d), label="rank")
        rho = (random_iop(rng, d) if data.draw(st.booleans(), label="matrix")
               else _spectral_iop(rng, d, rank))
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            rho = evolve(rho, u)
            v = rho.spectrum.eigenvectors
            dense = linalg.unitarity_defect(v)
            assert rho.isometry_defect >= dense
            assert linalg.measured_bound(rho.isometry_defect, *v.shape) >= dense

    @pytest.mark.parametrize("d, rank, share", [
        (4, 4, 0.9), (16, 2, 0.9), (8, 4, 0.3), (64, 64, 0.3), (32, 0, 0.9),
        (32, 0, 0.3)])
    def test_rejects_at_the_step_a_dense_check_first_fails(self, d, rank, share):
        # U = Q D Q^dag with D = diag(1 + e, 1 / (1 + e), ...) has defect
        # about 2 e sqrt(d), a share of the tolerance.  On equal weights
        # over pairs of Q's columns the trace moves only at second order,
        # so the isometry check decides: evolve must accept every step the
        # dense check on U V accepts and reject the first one it rejects.
        # Rank 0 stands for the matrix-validated I / d.
        rng = np.random.default_rng(d + rank)
        q = random_unitary(rng, d).matrix
        e = share / 2 * linalg.UNITARITY_TOL / math.sqrt(d)
        scale = np.tile([1 + e, 1 / (1 + e)], d // 2)
        u = unitary((q * scale) @ q.conj().T)
        rho = (validate(np.eye(d) / d) if rank == 0
               else validate(linalg.HermEigen(np.full(rank, 1 / rank), q[:, :rank])))
        for step in range(1, 200):
            v = rho.spectrum.eigenvectors
            if linalg.unitarity_defect(u.matrix @ v) > linalg.UNITARITY_TOL:
                with pytest.raises(NotUnitary, match="isometry defect"):
                    evolve(rho, u)
                break
            rho = evolve(rho, u)
        else:
            pytest.fail("the dense check never failed")
        assert step > 1

    def test_unitary_records_its_defect(self, rng):
        u = random_unitary(rng, 8)
        assert u.defect >= linalg.unitarity_defect(u.matrix)


def test_only_proven_bounds_are_carried(rng):
    # an eigh-validated or pure operator and a directly built UnitaryOp
    # carry no bound; evolve then measures U V once and carries that
    assert validate(np.eye(2) / 2).isometry_defect is None
    assert pure_iop([1, 0]).isometry_defect is None
    assert max_iop(2).isometry_defect == 0.0
    assert UnitaryOp(matrix=np.eye(2, dtype=complex)).defect is None
    rho = evolve(random_iop(rng, 3), random_unitary(rng, 3))
    assert rho.isometry_defect >= linalg.unitarity_defect(rho.spectrum.eigenvectors)


def _block_unitary(rng, groups):
    """A unitary with a Haar block on each index group and zeros elsewhere."""
    d = sum(len(g) for g in groups)
    u = np.zeros((d, d), dtype=complex)
    for g in groups:
        u[np.ix_(g, g)] = random_unitary(rng, len(g)).matrix
    return u


def _givens_layers(d, offsets, theta=0.7):
    """Real rotations on the pairs (j, j + 1), j = o, o + 2, ..., one layer per
    offset o, multiplied in order."""
    u = np.eye(d, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    for o in offsets:
        layer = np.eye(d, dtype=complex)
        for j in range(o, d - 1, 2):
            layer[j:j + 2, j:j + 2] = [[c, -s], [s, c]]
        u = u @ layer
    return u


BLOCKS_8X16 = [list(range(16 * b, 16 * b + 16)) for b in range(8)]
# blocks 0 and 4 merged: groups of two sizes, so none is stacked
MERGED = [BLOCKS_8X16[0] + BLOCKS_8X16[4], *BLOCKS_8X16[1:4], *BLOCKS_8X16[5:]]
PLUS_MINUS = CondensationStructure.from_index_blocks(4, {"+": [0, 1], "-": [2, 3]})
LIFTED = [list(g) for g in PLUS_MINUS.lift(4).blocks]
LIFTED_128 = [list(g) for g in PLUS_MINUS.lift(32).blocks]
CAT_SWAP = np.eye(4, dtype=complex)[[2, 3, 0, 1]]


class TestBlockwiseEvolve:
    """`unitary` finds the index groups U never couples, and evolve rotates
    their stacked blocks whenever it kept them, else forms the dense
    product: bit for bit U V either way."""

    @pytest.mark.parametrize("build, groups", [
        (lambda rng: unitary(_block_unitary(rng, BLOCKS_8X16)), BLOCKS_8X16),
        (lambda rng: unitary(_block_unitary(rng, MERGED)), MERGED),
        (lambda rng: unitary(_block_unitary(rng, LIFTED)), LIFTED),
        (lambda rng: unitary(CAT_SWAP), [[0, 2], [1, 3]]),
        # one exact zero, at (2, 0), in a connected pattern
        (lambda rng: unitary(_givens_layers(3, [0, 1])), None),
        # a pentadiagonal band: one chain through all 64 indices
        (lambda rng: unitary(_givens_layers(64, [0, 1])), None),
    ], ids=["blocks-8x16", "merged", "lifted", "cat-swap", "one-zero", "banded"])
    def test_equals_the_dense_product(self, rng, monkeypatch, build, groups):
        # with no cost per group, every partition found is kept, at any d;
        # only the 8 x 16 one is contiguous groups of one size, so stacked
        monkeypatch.setattr(linalg, "GROUP_COST", 0)
        u = build(rng)
        assert not u.matrix.all()
        found = linalg.paying_groups(u.matrix)
        assert (found is None if groups is None
                else [list(g) for g in found] == groups)
        assert (u.blocks is not None) == (groups is BLOCKS_8X16)
        for rho in (random_iop(rng, u.dim), random_pure(rng, u.dim)):
            out = evolve(rho, u)
            assert np.array_equal(out.spectrum.eigenvectors,
                                  u.matrix @ rho.spectrum.eigenvectors)

    def test_groups_are_kept_where_they_pay(self, rng):
        # below d^3 = 2 GROUP_COST no pattern is read; a partition is kept
        # when it pays for a square V
        for groups in (BLOCKS_8X16, LIFTED_128):
            u = unitary(_block_unitary(rng, groups))
            assert [list(g) for g in linalg.paying_groups(u.matrix)] == groups
        for small in (_block_unitary(rng, LIFTED), CAT_SWAP):
            assert linalg.paying_groups(unitary(small).matrix) is None
        # 64 groups of 2 cost more than the dense product
        assert linalg.paying_groups(unitary(_givens_layers(128, [0])).matrix) is None

    def test_stacked_blocks_serve_a_thin_v(self, rng):
        # `unitary` alone decides the route: once it stacks the blocks,
        # a pure state (r = 1) is rotated by them and never reads U's
        # matrix, which is made all NaN here
        a = _block_unitary(rng, BLOCKS_8X16)
        u = unitary(a)
        object.__setattr__(u, "matrix", np.full_like(a, np.nan))
        rho = random_pure(rng, 128)
        out = evolve(rho, u)
        assert np.array_equal(out.spectrum.eigenvectors, a @ rho.spectrum.eigenvectors)

    @pytest.mark.parametrize("factor", [0.3, 0.9, 0.99, 1.01, 1.1, 3.0])
    def test_grouped_check_gives_the_dense_verdict(self, rng, factor):
        # block 1 of the 8 x 16 unitary becomes Q diag(1 + e, 1 / (1 + e),
        # 1, ...) Q^dag, a defect of about 2 sqrt(2) e = factor x
        # UNITARITY_TOL; the check measured group by group must accept and
        # reject as the dense ||U^dag U - I|| does
        bad = _block_unitary(rng, BLOCKS_8X16)
        q = random_unitary(rng, 16).matrix
        e = factor * linalg.UNITARITY_TOL / (2 * math.sqrt(2))
        bad[16:32, 16:32] = (q * np.r_[1 + e, 1 / (1 + e), np.ones(14)]) @ q.conj().T
        dense = linalg.unitarity_defect(bad)
        assert (dense > linalg.UNITARITY_TOL) == (factor > 1)
        if factor > 1:
            with pytest.raises(NotUnitary, match="unitarity defect"):
                unitary(bad)
        else:
            u = unitary(bad)
            assert linalg.paying_groups(u.matrix) is not None and u.defect >= dense

    def test_zero_free_unitary_has_no_groups(self, rng):
        assert linalg.paying_groups(random_unitary(rng, 64).matrix) is None

    def test_only_unitary_sets_groups_and_bound(self, rng):
        u = unitary(_block_unitary(rng, BLOCKS_8X16))
        moved = dataclasses.replace(u, matrix=random_unitary(rng, 128).matrix)
        assert moved.blocks is None and moved.defect is None
        with pytest.raises(TypeError):
            UnitaryOp(matrix=u.matrix, blocks=u.blocks)

    @pytest.mark.parametrize("thin, step", [(False, 1), (True, 2)],
                             ids=["max-iop", "pair"])
    def test_off_block_fails_at_the_dense_step(self, rng, monkeypatch, thin, step):
        # block 1 of four 8 x 8 blocks is Q D Q^dag with D = diag(1 + e,
        # 1 / (1 + e), ...), a defect of about 2 e sqrt(8) = 1.7
        # UNITARITY_TOL.  Built directly it carries no bound; evolving by it
        # group by group must raise NotUnitary at the step the dense product
        # does: at once for I / d, at step 2 for equal weights on a pair of
        # Q's columns (defect about 2 e sqrt(2) per step, trace moved only
        # at second order).
        monkeypatch.setattr(linalg, "GROUP_COST", 0)
        groups = [list(range(8 * b, 8 * b + 8)) for b in range(4)]
        good = unitary(_block_unitary(rng, groups))
        q = random_unitary(rng, 8).matrix
        e = 0.3 * linalg.UNITARITY_TOL
        bad = good.matrix.copy()
        bad[8:16, 8:16] = (q * np.tile([1 + e, 1 / (1 + e)], 4)) @ q.conj().T
        v = np.zeros((32, 2), dtype=complex)
        v[8:16] = q[:, :2]

        def failure(u):
            rho = (validate(linalg.HermEigen(np.full(2, 0.5), v)) if thin
                   else max_iop(32))
            for n in range(1, 100):
                try:
                    rho = evolve(rho, u)
                except IopsimError as exc:
                    return n, type(exc)
            return None

        blockwise = UnitaryOp(matrix=bad)
        found = linalg.paying_groups(good.matrix)
        object.__setattr__(blockwise, "blocks", linalg.frozen(
            np.stack([bad[np.ix_(g, g)] for g in found])))
        assert len(found) == 4 and good.blocks is not None
        assert failure(blockwise) == failure(UnitaryOp(matrix=bad)) == (
            step, NotUnitary)
