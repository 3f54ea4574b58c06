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
    hamiltonian,
    motion_residual,
    propagator,
    unitary,
)
from iopsim.errors import InsufficientPoints, IopsimError, NotUnitary
from iopsim.iop import entropy, is_pure, max_iop, pure_iop, validate
from iopsim.scenarios import _ring_propagator

from conftest import random_hermitian, random_iop, random_pure, random_unitary


class TestEvolve:
    def test_identity_unitary(self, rng):
        rho = random_iop(rng, 3)
        out = evolve(rho, UnitaryOp(dim=3, matrix=np.eye(3, dtype=complex)))
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
        h = hamiltonian(random_hermitian(rng, 3))
        u = propagator(h, 1.5, 1.5)
        np.testing.assert_allclose(u.matrix, np.eye(3), atol=1e-12)

    def test_eigenphases(self):
        with hbar(1.0):
            u = propagator(hamiltonian(np.diag([math.pi, 0.0])), 0.0, 1.0)
        np.testing.assert_allclose(u.matrix, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_reverse_is_adjoint(self, rng):
        h = hamiltonian(random_hermitian(rng, 4))
        fwd = propagator(h, 0.0, 0.7)
        back = propagator(h, 0.7, 0.0)
        assert linalg.frobenius_dist(back.matrix, fwd.matrix.conj().T) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed):
        rng = np.random.default_rng(seed)
        h = hamiltonian(random_hermitian(rng, 4))
        t0, t1, t2 = np.sort(rng.normal(size=3))
        whole = propagator(h, t0, t2)
        split = propagator(h, t1, t2).matrix @ propagator(h, t0, t1).matrix
        assert linalg.frobenius_dist(whole.matrix, split) <= 1e-9

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_continuity_at_small_times(self, rng, eps):
        h = hamiltonian(random_hermitian(rng, 4))
        u = propagator(h, 0.0, eps)
        assert linalg.unitarity_defect(u.matrix) <= 1e-10
        assert np.linalg.norm(u.matrix - np.eye(4)) <= 2 * eps * np.linalg.norm(h.matrix)


class TestMotionResidual:
    def _trajectory(self, h, rho0, dt, n):
        states = [(k * dt, evolve(rho0, propagator(h, 0.0, k * dt)))
                  for k in range(n)]
        return states

    def test_stationary_commuting_state(self):
        h = hamiltonian(np.diag([1.0, 2.0]))
        rho = max_iop(2)
        traj = [(0.0, rho), (0.1, rho), (0.2, rho)]
        assert motion_residual(h, traj) <= 1e-10

    def test_second_order_convergence(self, rng):
        h = hamiltonian(random_hermitian(rng, 3))
        rho0 = random_iop(rng, 3)
        r_coarse = motion_residual(h, self._trajectory(h, rho0, 0.02, 9))
        r_fine = motion_residual(h, self._trajectory(h, rho0, 0.01, 17))
        assert r_fine <= r_coarse / 3.0  # ~4x for halved step

    def test_jump_flagged(self, rng):
        h = hamiltonian(random_hermitian(rng, 3))
        rho0 = random_iop(rng, 3)
        dt = 0.01
        traj = self._trajectory(h, rho0, dt, 9)
        jumped = random_iop(np.random.default_rng(99), 3)
        traj[4] = (traj[4][0], jumped)
        smooth = motion_residual(h, self._trajectory(h, rho0, dt, 9))
        assert motion_residual(h, traj) > 100 * max(smooth, 1e-6)

    def test_too_few_points(self, rng):
        h = hamiltonian(random_hermitian(rng, 2))
        with pytest.raises(InsufficientPoints):
            motion_residual(h, [(0.0, max_iop(2)), (0.1, max_iop(2))])


class TestUnitaryCheck:
    def test_non_unitary_is_typed(self):
        with pytest.raises(NotUnitary, match="unitarity defect"):
            unitary(np.diag([1.0, 2.0]))
        assert issubclass(NotUnitary, IopsimError)

    def test_evolve_checks_the_isometry(self):
        # unit columns at 45 degrees: U rho U^dag keeps trace and positivity
        # for rho = I/2, so only the isometry check can reject it
        s = 1 / math.sqrt(2)
        u = UnitaryOp(dim=2, matrix=np.array([[1.0, s], [0.0, s]], dtype=complex))
        with pytest.raises(NotUnitary, match="isometry defect"):
            evolve(max_iop(2), u)

    def test_unitary_accepted(self, rng):
        u = random_unitary(rng, 3).matrix
        assert np.array_equal(unitary(u).matrix, u)

    def test_caller_array_stays_writable(self):
        # a write to the caller's array after the check leaves the checked
        # operator, and the defect it carries, as they were
        u = np.eye(3, dtype=complex)
        ops = (unitary(u), UnitaryOp(dim=3, matrix=u), HamiltonianOp(dim=3, matrix=u))
        assert all(not op.matrix.flags.writeable for op in ops)
        assert u.flags.writeable
        u[0, 0] = 5
        assert all(op.matrix[0, 0] == 1.0 for op in ops)
        assert linalg.unitarity_defect(ops[0].matrix) <= ops[0].defect


def _spectral_iop(rng, d, rank):
    """A rank-`rank` operator validated from a spectral form."""
    q, _ = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))
    w = np.sort(rng.dirichlet(np.ones(rank)))
    return validate(linalg.HermEigen(w, q))


def _unitary_from(source, rng, d, t):
    if source == "haar":
        return random_unitary(rng, d)
    if source == "propagator":
        return propagator(hamiltonian(random_hermitian(rng, d)), 0.0, t)
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
        assert unitary(np.eye(3), known_defect=0.0).defect == 0.0
        # a claimed bound above the tolerance is checked densely
        with pytest.raises(NotUnitary, match="unitarity defect"):
            unitary(np.diag([1.0, 2.0]), known_defect=1.0)


def test_only_proven_bounds_are_carried(rng):
    # an eigh-validated or pure operator and a directly built UnitaryOp
    # carry no bound; evolve then measures U V once and carries that
    assert validate(np.eye(2) / 2).isometry_defect is None
    assert pure_iop([1, 0]).isometry_defect is None
    assert max_iop(2).isometry_defect == 0.0
    assert UnitaryOp(dim=2, matrix=np.eye(2, dtype=complex)).defect is None
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
# blocks 0 and 4 merged: one gathered group among contiguous ones
MERGED = [BLOCKS_8X16[0] + BLOCKS_8X16[4], *BLOCKS_8X16[1:4], *BLOCKS_8X16[5:]]
PLUS_MINUS = CondensationStructure.from_index_blocks(4, {"+": [0, 1], "-": [2, 3]})
LIFTED = [list(g) for g in PLUS_MINUS.lift(4).blocks]
LIFTED_128 = [list(g) for g in PLUS_MINUS.lift(32).blocks]
CAT_SWAP = np.eye(4, dtype=complex)[[2, 3, 0, 1]]


class TestBlockwiseEvolve:
    """`unitary` finds the index groups U never couples, and evolve rotates
    each on its own where that pays, bit for bit the dense product U V."""

    @pytest.mark.parametrize("build, groups", [
        (lambda rng: unitary(_block_unitary(rng, BLOCKS_8X16)), BLOCKS_8X16),
        (lambda rng: unitary(_block_unitary(rng, MERGED)), MERGED),
        (lambda rng: unitary(_block_unitary(rng, LIFTED)), LIFTED),
        (lambda rng: unitary(CAT_SWAP), [[0, 2], [1, 3]]),
        # one exact zero, at (2, 0), in a connected pattern
        (lambda rng: unitary(_givens_layers(3, [0, 1])), None),
        # a pentadiagonal band: one chain through all 64 indices
        (lambda rng: unitary(_givens_layers(64, [0, 1])), None),
        # a proven bound skips the pattern
        (lambda rng: _ring_propagator(16, 3.0), None),
    ], ids=["blocks-8x16", "merged", "lifted", "cat-swap", "one-zero", "banded",
            "ring"])
    def test_equals_the_dense_product(self, rng, monkeypatch, build, groups):
        # with no cost per group, every partition found is used, at any d
        monkeypatch.setattr(dynamics, "GROUP_COST", 0)
        u = build(rng)
        assert not u.matrix.all()
        assert (u.groups is None if groups is None
                else [list(g) for g in u.groups] == groups)
        for rho in (random_iop(rng, u.dim), random_pure(rng, u.dim)):
            out = evolve(rho, u)
            assert np.array_equal(out.spectrum.eigenvectors,
                                  u.matrix @ rho.spectrum.eigenvectors)

    def test_groups_are_kept_where_they_pay(self, rng):
        # below d^3 = 2 GROUP_COST no pattern is read; a partition is kept
        # when it pays for a square V, and used when it pays for this V
        for groups in (BLOCKS_8X16, LIFTED_128):
            u = unitary(_block_unitary(rng, groups))
            assert [list(g) for g in u.groups] == groups
            assert dynamics._grouped_pays(u.groups, 128, 128)
            assert not dynamics._grouped_pays(u.groups, 128, 1)
        for small in (_block_unitary(rng, LIFTED), CAT_SWAP):
            assert unitary(small).groups is None
        # 64 groups of 2 cost more than the dense product
        assert unitary(_givens_layers(128, [0])).groups is None

    def test_zero_free_unitary_has_no_groups(self, rng):
        assert random_unitary(rng, 64).groups is None

    def test_only_unitary_sets_groups_and_bound(self, rng):
        u = unitary(_block_unitary(rng, BLOCKS_8X16))
        moved = dataclasses.replace(u, matrix=random_unitary(rng, 128).matrix)
        assert moved.groups is None and moved.defect is None
        with pytest.raises(TypeError):
            UnitaryOp(dim=128, matrix=u.matrix, groups=u.groups)

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
        monkeypatch.setattr(dynamics, "GROUP_COST", 0)
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

        blockwise = UnitaryOp(dim=32, matrix=bad)
        object.__setattr__(blockwise, "groups", good.groups)
        assert len(blockwise.groups) == 4
        assert failure(blockwise) == failure(UnitaryOp(dim=32, matrix=bad)) == (
            step, NotUnitary)
