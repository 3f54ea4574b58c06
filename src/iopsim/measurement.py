"""Measurement systems, observables, and outcome sampling.

A definitive measurement system is a labeled Kraus family {M^m} with
sum_m (M^m)^dag M^m = I, together with a real scale-value function f(m).
Outcome probabilities are tr(M rho M^dag); conditioning on an outcome
applies the corresponding map and renormalizes.  The observable is the
Hermitian combination sum_m f(m) (M^m)^dag M^m, whose trace against rho
reproduces the f-weighted outcome statistics.

Sampling uses numpy's seedable PCG64 generator.  For parallel sampling,
derive independent child seeds with numpy.random.SeedSequence(seed).spawn
rather than sharing one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotDefinitive,
    NotHermitian,
    UnknownLabel,
    ZeroProbabilityOutcome,
)
from .iop import InfoOperator, condition, validate

COMPLETENESS_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSystem:
    dim_s: int
    labels: tuple
    kraus: tuple          # one operator per label
    f: dict               # label -> real scale value

    def __post_init__(self):
        labels = tuple(self.labels)
        ops = tuple(linalg.as_cmatrix(k) for k in self.kraus)
        if len(labels) != len(ops) or not ops:
            raise ValueError("labels and Kraus operators must be nonempty and aligned")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        for k in ops:
            if k.shape != (self.dim_s, self.dim_s):
                raise DimensionMismatch(f"Kraus shape {k.shape} != dim {self.dim_s}")
            k.setflags(write=False)
        fmap = {m: float(self.f[m]) for m in labels} if self.f else {}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "f", fmap)

    @classmethod
    def projective(cls, projectors: dict, f=None) -> "MeasurementSystem":
        """Measurement from an orthonormal projector family, label -> P."""
        labels = tuple(projectors)
        dim = linalg.require_square(linalg.as_cmatrix(next(iter(projectors.values()))))
        fmap = f if f is not None else {m: float(i) for i, m in enumerate(labels)}
        return cls(dim_s=dim, labels=labels,
                   kraus=tuple(projectors[m] for m in labels), f=fmap)


@dataclass(frozen=True)
class Observable:
    matrix: np.ndarray

    def __post_init__(self):
        if not linalg.is_hermitian(self.matrix):
            raise NotHermitian("observable must be Hermitian")
        self.matrix.setflags(write=False)


def completeness_defect(ms: MeasurementSystem) -> float:
    """||sum_m (M^m)^dag M^m - I||_F, computed as R^dag R for R the rows of
    every Kraus operator stacked.

    A row with at most one nonzero entry adds only |entry|^2 to the
    diagonal; only rows with two or more nonzeros enter the one dense
    product.  A family of diagonal and row-permuted diagonal operators
    thus costs O(d^2), a dense one the same product as sum_m M^dag M.
    """
    d = ms.dim_s
    rows = np.concatenate(ms.kraus)
    nonzero = rows != 0
    single = nonzero.sum(axis=1) <= 1
    diagonal = -1.0
    if single.any():
        # column and value of each single row's one nonzero (column 0,
        # value 0 for an empty row)
        r = np.flatnonzero(single)
        j = nonzero[r].argmax(axis=1)
        entries = rows[r, j]
        diagonal = np.bincount(j, entries.real ** 2 + entries.imag ** 2,
                               minlength=d) - 1.0
        rows = rows[~single]
    total = rows.conj().T @ rows
    total.flat[::d + 1] += diagonal
    return float(np.linalg.norm(total))


def is_definitive(ms: MeasurementSystem) -> bool:
    return completeness_defect(ms) <= COMPLETENESS_TOL


def outcome_probabilities(ms: MeasurementSystem, rho: InfoOperator):
    """tr(M^m rho (M^m)^dag) per label; sums to 1 for definitive systems.

    Read from rho's spectral form (w, V): each is sum_j w_j |M^m v_j|^2,
    from one batched product M V, so a rank-r operator costs O(d^2 r) per
    label.
    """
    if rho.dim != ms.dim_s:
        raise DimensionMismatch(f"operator dim {rho.dim} != system dim {ms.dim_s}")
    w, v = rho.spectrum
    kv = np.matmul(ms.kraus, v)
    probs = np.einsum("mij,mij->mj", kv.conj(), kv).real @ w
    return [(m, float(p)) for m, p in zip(ms.labels, probs)]


def post_measurement_object(ms: MeasurementSystem, rho: InfoOperator, m) -> InfoOperator:
    """The description adopted once the scale value m is known.

    Built from rho's spectral form (w, V) with no d x d eigensolver: a
    thin QR of K V sqrt(w) = Q R gives K rho K^dag = Q (R R^dag) Q^dag, so
    only the r x r block R R^dag is conditioned and diagonalized,
    S lam S^dag, and the result is the spectral form (lam, Q S).  A
    rank-r rho costs O(d^2 r).
    """
    if rho.dim != ms.dim_s:
        raise DimensionMismatch(f"operator dim {rho.dim} != system dim {ms.dim_s}")
    try:
        k = ms.kraus[ms.labels.index(m)]
    except ValueError:
        raise UnknownLabel(f"unknown label {m!r}") from None
    w, v = rho.spectrum
    q, r = np.linalg.qr((k @ v) * np.sqrt(w))
    weight, block = condition(r @ r.conj().T)
    if block is None:
        raise ZeroProbabilityOutcome(f"outcome {m!r} has probability {weight:.3e}")
    lam, s = linalg.eigh(block)
    return validate(linalg.HermEigen(lam, q @ s))


def observable(ms: MeasurementSystem) -> Observable:
    """sum_m f(m) (M^m)^dag M^m for a definitive system.

    When every Kraus operator is a projector, the scale values are exactly
    the eigenvalues; in general they are not.
    """
    if not is_definitive(ms):
        raise NotDefinitive(f"completeness defect {completeness_defect(ms):.3e}")
    total = sum(ms.f[m] * k.conj().T @ k for m, k in zip(ms.labels, ms.kraus))
    total = (total + total.conj().T) / 2
    return Observable(matrix=total)


def expectation(obs: Observable, rho: InfoOperator) -> float:
    if rho.dim != obs.matrix.shape[0]:
        raise DimensionMismatch(
            f"operator dim {rho.dim} != observable dim {obs.matrix.shape[0]}"
        )
    value = complex(np.trace(obs.matrix @ rho.matrix))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def estimate_probabilities(ms: MeasurementSystem, rho: InfoOperator,
                           n: int, seed: int):
    """Empirical outcome frequencies from n independent draws.

    Deterministic given the seed.  Different seeds give different, equally
    valid, frequency descriptions.
    """
    if not is_definitive(ms):
        raise NotDefinitive(f"completeness defect {completeness_defect(ms):.3e}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    probs = outcome_probabilities(ms, rho)
    p = np.clip(np.array([v for _, v in probs]), 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, p)
    return [(m, counts[i] / n) for i, (m, _) in enumerate(probs)]
