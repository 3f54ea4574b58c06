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
from functools import cached_property

import numpy as np

from . import linalg
from .config import DIM_CAP
from .errors import (
    DimensionMismatch,
    NotDefinitive,
    NotFinite,
    UnknownLabel,
    ZeroProbabilityOutcome,
)
from .iop import InfoOperator, condition, validate

IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True, init=False)
class MeasurementSystem:
    """A labeled Kraus family {K^m}, one real scale value per label.  Given
    as `kraus`, one d x d operator per label, it is stored as one read-only
    (m, d, d) stack; given as `routes`, one (rows, cols) index pair per
    label with distinct rows and distinct cols, it is the partial
    permutations K^m = sum_k |rows[k]><cols[k]|, stored as those indices,
    and its `kraus` stack is built on first read."""

    dim_s: int
    labels: tuple
    f: dict               # label -> real scale value
    routes: tuple | None  # ((rows, cols), ...) per label, or None

    def __init__(self, dim_s, labels, kraus=None, f=None, routes=None):
        labels = tuple(labels)
        if (kraus is None) == (routes is None):
            raise ValueError("give either Kraus operators or routes")
        if len(labels) != len(kraus if routes is None else routes) or not labels:
            raise ValueError("labels and Kraus operators must be nonempty and aligned")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if dim_s > DIM_CAP:
            raise DimensionMismatch(f"dimension {dim_s} exceeds cap {DIM_CAP}")
        if routes is None:
            for k in kraus:
                if np.shape(k) != (dim_s, dim_s):
                    raise DimensionMismatch(f"Kraus shape {np.shape(k)} != dim {dim_s}")
            stack = linalg.frozen(kraus, dtype=complex)  # stacked once
            if not np.isfinite(stack).all():
                raise NotFinite("Kraus operators contain NaN or Inf entries")
            self.__dict__["kraus"] = stack
        else:
            routes = tuple(_route(pair, dim_s) for pair in routes)
        fmap = {m: float(f[m]) for m in labels} if f else {}
        vars(self).update(dim_s=dim_s, labels=labels, f=fmap, routes=routes)

    @cached_property
    def kraus(self) -> np.ndarray:
        stack = _kraus_times(self, np.eye(self.dim_s))  # K^m I, gathered
        stack.setflags(write=False)
        return stack

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
        object.__setattr__(self, "matrix",
                           linalg.frozen(linalg.hermitian(self.matrix)))


def _route(pair, dim: int) -> tuple:
    """(rows, cols) as read-only index arrays, checked: 1-D integer arrays
    of one length, in [0, dim), neither repeating an index."""
    route = tuple(np.asarray(a) for a in pair)
    if len(route) != 2 or route[0].ndim != 1 or route[0].shape != route[1].shape:
        raise ValueError("a route is a pair of 1-D index arrays of one length")
    for a in route:
        if a.size and a.dtype.kind not in "iu":
            raise ValueError(f"route indices must be integers, got {a.dtype}")
        if a.size and not 0 <= a.min() <= a.max() < dim:
            raise DimensionMismatch(f"route index outside [0, {dim})")
        if np.unique(a).size != a.size:
            raise ValueError("a route repeats an index within one label")
    return tuple(linalg.frozen(a, dtype=np.intp) for a in route)


def _kraus_times(ms: MeasurementSystem, v: np.ndarray, k=slice(None)) -> np.ndarray:
    """K^m V for the label at index k, or for every label as one stack: a
    gather of V's rows for a routed family, a product for a dense one."""
    if ms.routes is None:
        return np.matmul(ms.kraus[k], v)
    out = np.zeros((len(ms.labels), *v.shape), dtype=complex)
    for out_m, (rows, cols) in zip(out, ms.routes):
        out_m[rows] = v[cols]
    return out[k]


def completeness_defect(ms: MeasurementSystem) -> float:
    """||sum_m (M^m)^dag M^m - I||_F: for a routed family one bincount of
    its cols, O(d) and exact; for a dense one the isometry defect of R,
    the rows of every operator stacked (a view of the stored (m, d, d)
    stack), since sum_m (M^m)^dag M^m = R^dag R."""
    d = ms.dim_s
    if ms.routes is not None:
        cols = np.concatenate([cols for _, cols in ms.routes])
        return float(np.linalg.norm(np.bincount(cols, minlength=d) - 1.0))
    return linalg.unitarity_defect(ms.kraus.reshape(-1, d))


def is_definitive(ms: MeasurementSystem) -> bool:
    return completeness_defect(ms) <= linalg.UNITARITY_TOL


def outcome_probabilities(ms: MeasurementSystem, rho: InfoOperator):
    """tr(M^m rho (M^m)^dag) per label; sums to 1 for definitive systems.

    Read from rho's spectral form (w, V): each is sum_j w_j |M^m v_j|^2,
    from one batched product M V, so a rank-r operator costs O(d^2 r) per
    label, or O(d r) for a routed family, whose M V is a gather.
    """
    if rho.dim != ms.dim_s:
        raise DimensionMismatch(f"operator dim {rho.dim} != system dim {ms.dim_s}")
    w, v = rho.spectrum
    kv = _kraus_times(ms, v)
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
        k = ms.labels.index(m)
    except ValueError:
        raise UnknownLabel(f"unknown label {m!r}") from None
    w, v = rho.spectrum
    q, r = np.linalg.qr(_kraus_times(ms, v, k) * np.sqrt(w))
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
