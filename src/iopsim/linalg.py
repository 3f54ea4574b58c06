"""Dense complex-matrix substrate.

Everything above this module is expressed through a handful of primitives:
Hermitian eigendecomposition, partial traces and Frobenius distances.
Matrices are plain complex numpy arrays; helpers here validate shape and
finiteness at the entry points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import DIM_CAP
from .errors import (BadParameter, DimensionMismatch, NoConvergence,
                     NotFinite, NotHermitian, NotUnitary)

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9  # bound on ||V^dag V - I|| for unitaries and isometries
UNIT_ROUNDOFF = 2.0 ** -53  # float64, round to nearest
# what one index group's kernel calls cost in numpy call overhead beyond
# their arithmetic, in complex multiply-adds; it gates grouped eigh, block
# Grams and row scans (README, Conventions, times them against dense)
GROUP_COST = 100_000


class HermEigen(NamedTuple):
    """Spectral form sum_i w_i v_i v_i^dag, eigenvalues ascending.

    `eigenvectors` may be thin: r <= d orthonormal columns, one per
    eigenvalue, spanning a subspace that holds the whole operator.
    """

    eigenvalues: np.ndarray   # real, ascending, length r
    eigenvectors: np.ndarray  # d x r, orthonormal columns


def _as_array(entries, dtype) -> np.ndarray:
    try:  # what numpy cannot read as numbers is a BadParameter
        return np.asarray(entries, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"not an array of numbers: {exc}") from exc


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a complex 2-D array, checking finiteness and the size cap."""
    a = _as_array(entries, complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
    if max(a.shape) > DIM_CAP:
        raise DimensionMismatch(f"dimension {max(a.shape)} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        raise NotFinite("matrix contains NaN or Inf entries")
    return a


def frozen(entries, dtype=None) -> np.ndarray:
    """`entries` as a read-only array that no writable array aliases.

    A conversion that made a new array is frozen as made.  An array of the
    caller's is kept only when it is already read-only and owns its
    memory, which is how a builder hands over what it filled without a
    copy; any other is copied, so the caller's array stays writable and a
    later write to it cannot reach what a constructor checked.
    """
    a = np.asarray(entries, dtype=dtype)
    if a.base is not None or (a is entries and a.flags.writeable):
        a = a.copy()
    a.setflags(write=False)
    return a


def require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    return a.shape[0]


def index_groups(a: np.ndarray) -> tuple | None:
    """The connected components of the graph joining i and j wherever
    a[i, j] or a[j, i] is nonzero, each a sorted read-only index array,
    ordered by smallest member; None when there is only one.

    Breadth first, one frontier at a time: each row of the pattern is read
    once, so O(d^2) in all.  A matrix with no zero is one group at once.
    """
    if a.all():
        return None
    nonzero = a != 0
    linked = nonzero | nonzero.T
    unseen = np.ones(len(a), dtype=bool)
    groups = []
    while unseen.any():
        before = unseen.copy()
        frontier = unseen.argmax(keepdims=True)
        while frontier.size:
            unseen[frontier] = False
            frontier = (linked[frontier].any(axis=0) & unseen).nonzero()[0]
        g = (before ^ unseen).nonzero()[0]
        if g.size == len(a):
            return None
        g.setflags(write=False)
        groups.append(g)
    return tuple(groups)


def paying_groups(a: np.ndarray) -> tuple | None:
    """The `index_groups` of a square `a` when its kernels cost less one
    group at a time, else None: the one cost test of grouped `eigh`,
    block Grams and stacked products.  k groups pay when k GROUP_COST is
    under the (d^2 - sum_g |g|^2) d multiply-adds they spare against a
    square V; none can pay while d^3 <= 2 GROUP_COST, so none is read."""
    d = len(a)
    groups = index_groups(a) if d ** 3 > 2 * GROUP_COST else None
    if groups is None:
        return None
    spared = (d * d - sum(g.size ** 2 for g in groups)) * d
    return groups if len(groups) * GROUP_COST < spared else None


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - a.conj().T))


def hermitian(m) -> np.ndarray:
    """`m` as a complex array, checked finite, square and Hermitian.

    Not symmetrized.  The one place NotHermitian reports the defect.
    """
    a = as_cmatrix(m)
    require_square(a)
    defect = hermiticity_defect(a)
    if not defect <= HERMITICITY_TOL * max(1.0, float(np.linalg.norm(a))):
        raise NotHermitian(f"hermiticity defect {defect:.3e}")
    return a


def eigh(a: np.ndarray) -> HermEigen:
    """Eigendecomposition of a matrix known to be Hermitian.

    The one call site of numpy's eigensolver; LinAlgError -> NoConvergence.
    """
    try:
        return HermEigen(*np.linalg.eigh(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def grouped_eigh(blocks, groups, dim: int):
    """(spectrum, isometry bound) of the Hermitian `blocks` on their index
    `groups`, zero elsewhere: the union of the blocks' spectra, the
    eigenvectors of group g's block on rows g, in the columns where its
    eigenvalues sort (Golub and Van Loan, Matrix Computations, 2013,
    sections 7.1 and 8.1).  Columns of different groups have disjoint
    rows, so the root sum of squares of each block's own bound bounds the
    union's defect: no d-row Gram is formed.
    """
    spectra = [eigh(a) for a in blocks]
    w = np.concatenate([e.eigenvalues for e in spectra])
    order = np.argsort(w, kind="stable")
    v = np.zeros((dim, w.size), dtype=complex)
    starts = np.cumsum([len(g) for g in groups])[:-1]
    for g, cols, (_, q) in zip(groups, np.split(np.argsort(order), starts), spectra):
        v[np.ix_(g, cols)] = q
    bound = math.sqrt(sum(checked_isometry(q) ** 2 for _, q in spectra))
    return HermEigen(w[order], v), bound


def partial_trace(ab, dim_a: int, dim_b: int, over: str) -> np.ndarray:
    """Partial trace of a (dim_a * dim_b)-dimensional square matrix.

    `over` selects which factor to trace out: "A" or "B".
    """
    ab = as_cmatrix(ab)
    n = require_square(ab)
    if n != dim_a * dim_b:
        raise DimensionMismatch(f"dim {n} != {dim_a} * {dim_b}")
    t = ab.reshape(dim_a, dim_b, dim_a, dim_b)
    if over == "A":
        return np.einsum("ijil->jl", t)
    if over == "B":
        return np.einsum("ijkj->ik", t)
    raise BadParameter(f"over must be 'A' or 'B', got {over!r}")


def frobenius_dist(a, b) -> float:
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def rank_one_dist(a: np.ndarray, b: np.ndarray) -> float:
    """||a a^dag - b b^dag||_F from the vectors, with no d x d matrix.

    With a rotated by the phase of <a|b>, so that <a|b> >= 0, x = a - b and
    y = a + b give a a^dag - b b^dag = (x y^dag + y x^dag) / 2 and a
    squared norm (||x||^2 ||y||^2 + (Re <x|y>)^2) / 2: two nonnegative
    terms, so nothing cancels, and the result is accurate relative to
    ||x|| ||y|| even where a and b agree to the last bits.  The textbook
    sqrt(|a|^4 + |b|^4 - 2 |<a|b>|^2) cancels there and keeps only half
    the digits.
    """
    ab = np.vdot(a, b)
    if ab != 0:
        a = a * (ab / abs(ab))
    x, y = a - b, a + b
    xy = np.vdot(x, y).real
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    return float(math.sqrt(((nx * ny) ** 2 + xy ** 2) / 2))


def unitarity_defect(u: np.ndarray) -> float:
    """||U^dag U - I||; for a thin U (d x r) this is its isometry defect,
    I taken off in place and the norm summed as `np.linalg.norm` sums it."""
    x = (u.conj().T @ u).ravel()
    x[:: u.shape[1] + 1] -= 1
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative rounding of k chained operations."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _product_rounding(n: int) -> float:
    """c with |fl(A B) - A B| <= c |A| |B| entrywise, inner dimension n.

    Each complex entry's real and imaginary parts are sums of 2n real
    products, in any order: c = sqrt(2) gamma_2n (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sections 3.1 and 3.6).
    """
    return math.sqrt(2) * _gamma(2 * n)


def measured_bound(bound: float, n: int, r: int) -> float:
    """The most `unitarity_defect` returns for an n x r V of exact defect <= bound.

    ||V||_F^2 = tr(V^dag V) <= r + sqrt(r) bound bounds the Gram's rounding;
    the norm and the subtraction of I add a relative gamma_{2 r^2 + 4}.
    """
    c = _product_rounding(n)
    return (1 + _gamma(2 * r * r + 4)) * (bound + c * (r + math.sqrt(r) * bound))


def _defect_bound(measured: float, n: int, r: int) -> float:
    """Exact defect of an n x r V whose `unitarity_defect` is `measured`:
    :func:`measured_bound` solved for the bound."""
    c = _product_rounding(n)
    return ((measured / (1 - _gamma(2 * r * r + 4)) + c * r)
            / (1 - c * math.sqrt(r)))


def product_defect_bound(du: float, dv: float, d: int, r: int) -> float:
    """Bound on the exact isometry defect of the computed U V, no product formed.

    U is d x d of exact defect <= du, V is d x r of exact defect <= dv.
    Exactly, (UV)^dag UV - I = (V^dag V - I) + V^dag (U^dag U - I) V has
    norm <= dv + du (1 + dv).  Rounding adds F with ||F|| <= eps =
    c ||U||_F ||V||_F, and ||UV||_2 <= sqrt((1 + du)(1 + dv)) makes that
    2 ||UV||_2 eps + eps^2.
    """
    eps = _product_rounding(d) * math.sqrt((d + math.sqrt(d) * du)
                                           * (r + math.sqrt(r) * dv))
    return (du * (1 + dv) + dv
            + 2 * math.sqrt((1 + du) * (1 + dv)) * eps + eps * eps)


def checked_isometry(v: np.ndarray, bound: float | None = None,
                     name: str = "isometry", blocks=None) -> float:
    """A bound on the exact ||V^dag V - I||_F of `v`, checked to UNITARITY_TOL.

    The one isometry decision.  A proven `bound` settles it while the most
    `unitarity_defect(v)` could then return stays within UNITARITY_TOL;
    otherwise `unitarity_defect(v)` is computed and decides (NotUnitary
    above the tolerance), and the bound it implies replaces `bound`.
    Either way the decision is that of the dense check.  A `v` that is
    `blocks` on index groups and zero elsewhere has its blocks' Grams on
    them: the check measures those, of inner dimension at most n.
    """
    n, r = v.shape
    if bound is None or not measured_bound(bound, n, r) <= UNITARITY_TOL:
        measured = (unitarity_defect(v) if blocks is None
                    else math.hypot(*map(unitarity_defect, blocks)))
        if measured > UNITARITY_TOL:
            raise NotUnitary(f"{name} defect {measured:.3e}")
        bound = _defect_bound(measured, n, r)
    return bound

