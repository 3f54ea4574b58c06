import numpy as np
import pytest

from iopsim.iop import ZERO_WEIGHT_FLOOR, Contraction
from iopsim.measurement import MeasurementSystem

# the generators live in the library; tests import them from here
from iopsim.ensembles import (  # noqa: F401
    random_iop,
    random_pure,
    random_unitary,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_hermitian(rng, d):
    """(A + A^dag) / 2 for a Ginibre matrix A; only the tests draw one."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def contraction_from_matrix(k):
    """A dense K (target x source) as the factored contraction (I, 1, K^dag):
    the dense oracle's way into `contract`."""
    k = np.asarray(k, dtype=complex)
    return Contraction(q=np.eye(k.shape[0]), s=np.ones(k.shape[0]), w=k.conj().T)


def dense_k(c):
    """The dense K = q diag(s) w^dag of a factored contraction."""
    return (c.q * c.s) @ c.w.conj().T


def projectors(c):
    """The 0/1 diagonal projector P^m of each group of structure `c`."""
    return tuple(np.diag(np.isin(np.arange(c.dim), g).astype(complex))
                 for g in c.blocks)


def kraus_from_branches(branches, whole, f=None):
    """Canonical Kraus family realizing a branch decomposition of `whole`.

    For each branch (label m, weight p, object operator rho_m) this builds
    M^m = (p rho_m)^(1/2) whole^(-1/2) on the support of `whole`, so that
    M^m whole (M^m)^dag = p rho_m exactly and the family is complete on
    that support.
    """
    w, v = whole.spectrum
    inv_sqrt = np.zeros_like(w)
    pos = w > ZERO_WEIGHT_FLOOR
    inv_sqrt[pos] = 1.0 / np.sqrt(w[pos])
    whole_m12 = (v * inv_sqrt) @ v.conj().T
    labels, kraus = [], []
    for br in branches:
        bw, bv = br.rho_s.spectrum
        root = (bv * np.sqrt(bw * br.weight)) @ bv.conj().T
        labels.append(br.label)
        kraus.append(root @ whole_m12)
    fmap = f if f is not None else {m: float(i) for i, m in enumerate(labels)}
    return MeasurementSystem(dim_s=whole.dim, labels=tuple(labels),
                             kraus=tuple(kraus), f=fmap)
