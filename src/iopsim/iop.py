"""Information-operator algebra.

An information operator (i-operator) is a Hermitian, unit-trace, positive
semidefinite matrix on a finite Hilbert space.  This module implements
validation, entropy, probabilistic decomposition, and the constructive
expansion/contraction machinery: any i-operator is a contraction of the
maximum one, and every component of a mixture is a contraction of the mix.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .config import DIM_CAP
from .errors import (BadParameter, DimensionMismatch, NotFinite, NotPositive,
                     ResultNotIOperator, SupportViolation, TraceNotOne,
                     ZeroVector)

TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
SUPPORT_RESIDUAL_TOL = 1e-8
PURITY_TOL = 1e-9
ZERO_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class InfoOperator:
    """Validated i-operator: built by validate, max_iop or pure_iop only.

    `spectrum` is its spectral form as the constructor found it, with
    nonnegative ascending eigenvalues; it may be thin (pure_iop keeps
    one column).  `matrix` is the one the constructor had in hand
    (`validate` of an unclamped matrix, `max_iop`), or else
    `_from_spectrum(w, V)` built on first read.
    `isometry_defect` bounds the exact ||V^dag V - I||_F of the
    spectrum's V when the constructor proved one (`validate` of a
    spectral form or by groups, `max_iop`), and is None otherwise.
    """

    dim: int
    spectrum: linalg.HermEigen
    known_matrix: InitVar[np.ndarray | None] = None
    isometry_defect: float | None = None
    known_diagonal: InitVar[np.ndarray | None] = None

    def __post_init__(self, known_matrix, known_diagonal):
        # every array is taken through `linalg.frozen`, so a later write
        # to a caller's array cannot reach what was checked
        object.__setattr__(self, "spectrum", linalg.HermEigen(
            *(linalg.frozen(a) for a in self.spectrum)))
        if known_matrix is not None:
            self.__dict__["matrix"] = linalg.frozen(known_matrix)
        if known_diagonal is not None:
            self.__dict__["_diagonal"] = linalg.frozen(known_diagonal)

    @cached_property
    def matrix(self) -> np.ndarray:
        a = _from_spectrum(*self.spectrum)
        a.setflags(write=False)
        return a

    @cached_property
    def _diagonal(self) -> np.ndarray:
        w, v = self.spectrum
        return linalg.frozen((v.real ** 2 + v.imag ** 2) @ w)

    def diagonal(self) -> np.ndarray:
        """|V|^2 w, the real diagonal of `matrix`, formed once (`validate`
        of a spectral form hands over the one it formed)."""
        return self._diagonal


@dataclass(frozen=True)
class Contraction:
    """A contracting operator K = q diag(s) w^dag: K rho K^dag shrinks rho;
    `q` (target x n) has orthonormal columns, `s` holds n scales and `w`
    is source x n."""

    q: np.ndarray
    s: np.ndarray
    w: np.ndarray

    @property
    def source_dim(self) -> int:
        return self.w.shape[0]


def validate(m, known_defect=None) -> InfoOperator:
    """Validate a matrix, or a spectral form `linalg.HermEigen`, as an i-operator.

    Eigenvalues in [-POSITIVITY_TOL, 0) are clamped to zero and nothing is
    rescaled; anything below the tolerance raises NotPositive.  This keeps
    operators produced by long evolutions and Kraus maps usable without
    silently accepting genuinely indefinite matrices.  TRACE_TOL bounds the
    trace of the operator returned: an unclamped matrix keeps its own, and
    any other is sum_i w_i |v_i|^2 with its matrix built on first read.  A
    spectral form needs no eigensolver: its eigenvalues must be finite and
    ascending, one per column of V (at least one column, DIM_CAP rows at
    most, no fewer than columns), whose columns `linalg.checked_isometry`
    checks orthonormal; `known_defect`, a bound on their ||V^dag V - I||_F
    that the caller proved (`dynamics.evolve` carries one), spares the
    dense check unless it cannot settle UNITARITY_TOL.  A matrix's
    `linalg.paying_groups` are diagonalized one by one, with a bound.
    """
    defect = moduli = diagonal = None
    if isinstance(m, linalg.HermEigen):
        w = linalg._as_array(m.eigenvalues, float)
        v = linalg._as_array(m.eigenvectors, complex)
        if (w.ndim != 1 or v.ndim != 2 or w.size != v.shape[1]
                or not 1 <= w.size <= v.shape[0] <= DIM_CAP):
            raise DimensionMismatch(
                f"{np.shape(w)} eigenvalues for eigenvectors of shape {v.shape}")
        # V is read once, for |V|^2: a sum of nonnegative terms, finite
        # unless V holds a NaN or Inf (or an entry the isometry check rejects)
        moduli = v.real ** 2 + v.imag ** 2
        if not math.isfinite(moduli.sum()) and not np.isfinite(v).all():
            raise NotFinite("eigenvectors contain NaN or Inf")
        if not np.isfinite(w).all():
            raise NotFinite("eigenvalues contain NaN or Inf")
        if (w[1:] < w[:-1]).any():
            raise BadParameter("eigenvalues must be in ascending order")
        defect, a = linalg.checked_isometry(v, known_defect), None
    else:
        a = linalg.hermitian(m)
        a = (a + a.conj().T) / 2
        groups = linalg.paying_groups(a)
        if groups is not None:
            (w, v), defect = linalg.grouped_eigh(
                [a[np.ix_(g, g)] for g in groups], groups, len(a))
        else:
            w, v = linalg.eigh(a)
    if w[0] < -POSITIVITY_TOL:
        raise NotPositive(f"minimum eigenvalue {w[0]:.3e}")
    if w[0] < 0:
        w, a = np.clip(w, 0.0, None), None
    if a is None:  # the trace sum_i w_i |v_i|^2, summed over |V|^2 w
        diagonal = (v.real ** 2 + v.imag ** 2 if moduli is None else moduli) @ w
    tr = float(diagonal.sum() if a is None else np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr!r} differs from 1 by {abs(tr - 1.0):.3e}")
    return InfoOperator(dim=v.shape[0], spectrum=linalg.HermEigen(w, v),
                        known_matrix=a, isometry_defect=defect,
                        known_diagonal=diagonal)


def _from_spectrum(w, v) -> np.ndarray:
    """(V w) V^dag, symmetrized so that it is exactly Hermitian; formed on
    the rows where V is nonzero when that scan pays (the rest are zeros)."""
    if v.size * len(v) > linalg.GROUP_COST and not (rows := v.any(axis=1)).all():
        a = np.zeros((len(v), len(v)), dtype=complex)
        a[np.ix_(rows, rows)] = _from_spectrum(w, v[rows])
        return a
    a = (v * w) @ v.conj().T
    # in place on the fresh product: (a + a^dag) / 2 bit for bit, one
    # d x d temporary fewer
    a += a.conj().T
    a /= 2
    return a


def max_iop(d: int) -> InfoOperator:
    """The maximum i-operator (1/d) I; it describes every d-dim system."""
    if d < 1:
        raise BadParameter(f"dimension must be >= 1, got {d}")
    if d > DIM_CAP:
        raise DimensionMismatch(f"dimension {d} exceeds cap {DIM_CAP}")
    spectrum = linalg.HermEigen(np.full(d, 1.0 / d), np.eye(d, dtype=complex))
    return InfoOperator(dim=d, spectrum=spectrum,
                        known_matrix=np.eye(d, dtype=complex) / d,
                        isometry_defect=0.0)


def unit_vector(psi) -> np.ndarray:
    """psi / ||psi|| for a nonzero finite psi, first scaled exactly by the
    power of two that takes its top modulus into [1/2, 1): nothing underflows."""
    v = linalg._as_array(psi, complex).ravel()
    if v.size > DIM_CAP:
        raise DimensionMismatch(f"dimension {v.size} exceeds cap {DIM_CAP}")
    top = float(np.abs(v).max(initial=0.0))
    if not math.isfinite(top):
        raise NotFinite(f"vector entry of modulus {top} is not finite")
    if top == 0:
        raise ZeroVector("zero vector has no associated pure operator")
    v = np.ldexp(v.view(float), -math.frexp(top)[1]).view(complex)
    return v / np.linalg.norm(v)


def pure_iop(psi) -> InfoOperator:
    """|psi><psi| for a (not necessarily normalized) nonzero finite vector."""
    v = unit_vector(psi)
    return InfoOperator(dim=v.size, spectrum=linalg.HermEigen(np.ones(1), v[:, None]))


def condition(m: np.ndarray):
    """(w, m / w) for w = tr m; (w, None) if w <= ZERO_WEIGHT_FLOOR.

    The one zero-weight decision; nothing is validated.
    """
    weight = float(np.trace(m).real)
    return weight, (m / weight if weight > ZERO_WEIGHT_FLOOR else None)


def entropy(rho: InfoOperator) -> float:
    """-tr(rho log rho), with 0 log 0 = 0.  Lies in [0, log dim]."""
    w = rho.spectrum.eigenvalues
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))


def is_pure(rho: InfoOperator) -> bool:
    purity = float(np.sum(rho.spectrum.eigenvalues ** 2))
    return abs(purity - 1.0) <= PURITY_TOL


def contract(rho: InfoOperator, k: Contraction) -> InfoOperator:
    """K rho K^dag, validated.  Fails if K is not contracting for this rho.

    With K = q diag(s) w^dag and rho = V diag(lam) V^dag, K rho K^dag is
    q g g^dag q^dag for the n x r matrix g = s (w^dag V sqrt(lam)).  The
    n x n core g g^dag = U mu U^dag gives its spectral form (mu, q U), so
    the cost is O(d n r) and `rho.matrix` is not read.
    """
    if k.source_dim != rho.dim:
        raise DimensionMismatch(f"contraction source dim {k.source_dim} != {rho.dim}")
    lam, v = rho.spectrum
    g = k.s[:, None] * ((k.w.conj().T @ v) * np.sqrt(lam))
    mu, u = linalg.eigh(g @ g.conj().T)
    try:
        return validate(linalg.HermEigen(mu, k.q @ u))
    except (TraceNotOne, NotPositive) as exc:
        raise ResultNotIOperator(
            f"K rho K^dag is not an i-operator for this rho: {exc}"
        ) from exc


def contraction_from_max(target: InfoOperator) -> Contraction:
    """K mapping the maximum i-operator to `target`: V diag(sqrt(lam d)) V^dag."""
    w, v = target.spectrum
    return Contraction(q=v, s=np.sqrt(w * target.dim), w=v)


def contraction_from_mixture(whole: InfoOperator, part: InfoOperator) -> Contraction:
    """K mapping a mixture to one of its components.

    Valid whenever `part` appears in some convex mixture equal to `whole`,
    which is checked operationally as support(part) within support(whole):
    each eigenpair (p_j, v_j) of `part` may put at most
    SUPPORT_RESIDUAL_TOL of sqrt(p_j) v_j outside the support, the part's
    own amplitude there, so an eigenvector of tiny weight that leans out
    through rounding passes.
    The stored spectra, thin or not, are paired from the top (an absent
    eigenvalue is zero); eigenvalue ratios set the scale factors, with a
    zero factor wherever `whole` has (numerically) zero weight.
    """
    if whole.dim != part.dim:
        raise DimensionMismatch(f"dims differ: {whole.dim} vs {part.dim}")
    ww, wv = whole.spectrum
    pw, pv = part.spectrum
    sup = wv[:, ww > ZERO_WEIGHT_FLOOR]
    checked = np.flatnonzero(pw > ZERO_WEIGHT_FLOOR)
    vecs = pv[:, checked] * np.sqrt(pw[checked])
    # sup^dag vecs over the rows where vecs is nonzero, when that scan
    # pays: every other term is exactly zero
    rows = vecs.any(axis=1) if sup.size * len(checked) > linalg.GROUP_COST else slice(None)
    residuals = np.linalg.norm(vecs - sup @ (sup[rows].conj().T @ vecs[rows]), axis=0)
    outside = np.flatnonzero(residuals > SUPPORT_RESIDUAL_TOL)
    if outside.size:
        j = outside[0]
        raise SupportViolation(
            f"part eigenvector {checked[j]} lies outside the mixture's support "
            f"(weighted residual {residuals[j]:.3e})"
        )
    n = min(ww.size, pw.size)
    ww, wv, pw, pv = ww[-n:], wv[:, -n:], pw[-n:], pv[:, -n:]
    ratios = np.divide(pw, ww, out=np.zeros(n), where=ww > ZERO_WEIGHT_FLOOR)
    return Contraction(q=pv, s=np.sqrt(ratios), w=wv)


@dataclass(frozen=True)
class Mixture:
    """Convex combination sum_i p_i rho_i of same-dimension i-operators."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        ws = tuple(map(float, linalg._as_array(self.weights, float)))
        comps = tuple(self.components)
        if len(ws) != len(comps) or not comps:
            raise BadParameter("weights and components must be nonempty and aligned")
        if any(w <= 0 for w in ws):
            raise BadParameter("all mixture weights must be positive")
        if abs(sum(ws) - 1.0) > TRACE_TOL:  # tr sum_i p_i rho_i = sum_i p_i
            raise BadParameter(f"weights sum to {sum(ws)!r}, not 1")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise DimensionMismatch(f"components have mixed dims {sorted(dims)}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "components", comps)

    def combined(self) -> InfoOperator:
        total = sum(w * c.matrix for w, c in zip(self.weights, self.components))
        return validate(total)


def decompose(rho: Mixture):
    """Return the (weight, component) pairs of a mixture.

    Each component describes the system with its weight as probability;
    re-mixing the pairs reproduces the combined operator exactly.
    """
    return list(zip(rho.weights, rho.components))
