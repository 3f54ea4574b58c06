"""Seeded input generator for the benchmark.

Builds raw numpy arrays only; nothing here calls iopsim, so every library
call, including the validation of these inputs, happens inside a timed
item.  The distributions are those of tests/conftest.py: complex Ginibre
matrices for operators (a a^dag / tr) and QR of a Ginibre matrix with the
phases of diag(R) divided out for unitaries.  The same seed gives the
same inputs.
"""

from __future__ import annotations

import json

import numpy as np

SWEEP_DIMS = (2, 3, 4, 8)


def ginibre(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def iop_matrix(rng, d):
    a = ginibre(rng, d)
    m = a @ a.conj().T
    return m / np.trace(m).real


def unitary_matrix(rng, d):
    q, r = np.linalg.qr(ginibre(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def complex_vector(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def block_unitary(rng, n_blocks, block):
    u = np.zeros((n_blocks * block, n_blocks * block), dtype=complex)
    for b in range(n_blocks):
        s = slice(b * block, (b + 1) * block)
        u[s, s] = unitary_matrix(rng, block)
    return u


def givens(d, j, k, theta):
    """Real rotation by theta in the (j, k) coordinate plane."""
    g = np.eye(d, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    g[j, j] = g[k, k] = c
    g[j, k], g[k, j] = -s, s
    return g


def sweep_item(rng, d):
    """Raw inputs for one acceptance-criterion-3 pipeline at dimension d."""
    basis = unitary_matrix(rng, d)
    return {
        "d": d,
        "rho": iop_matrix(rng, d),
        "u": unitary_matrix(rng, d),
        "other": iop_matrix(rng, d),
        "projectors": {str(j): np.outer(basis[:, j], basis[:, j].conj())
                       for j in range(d)},
        "f": {str(j): float(rng.normal()) for j in range(d)},
        "psi": complex_vector(rng, d),
    }


def condensed_item(rng, n_blocks=8, block=16, dim_s=8, dim_t=16, t_blocks=4):
    """Raw inputs for one condensed-chain item.

    A block-diagonal unitary, the same unitary times one Givens rotation
    coupling two distinct blocks, a full-rank start operator, and a
    separable-branch composite operator sum_m w_m rho_s^m (x) rho_t^m whose
    apparatus parts live in distinct T-blocks.
    """
    d = n_blocks * block
    u = block_unitary(rng, n_blocks, block)
    a, b = rng.choice(n_blocks, size=2, replace=False)
    j = a * block + rng.integers(block)
    k = b * block + rng.integers(block)
    coupled = u @ givens(d, j, k, rng.uniform(0.3, 1.2))
    tb = dim_t // t_blocks
    weights = rng.dirichlet(np.ones(t_blocks))
    rho_st = np.zeros((dim_s * dim_t, dim_s * dim_t), dtype=complex)
    for m in range(t_blocks):
        rho_t = np.zeros((dim_t, dim_t), dtype=complex)
        s = slice(m * tb, (m + 1) * tb)
        rho_t[s, s] = iop_matrix(rng, tb)
        rho_st += weights[m] * np.kron(iop_matrix(rng, dim_s), rho_t)
    return {
        "blocks": {str(b): range(b * block, (b + 1) * block)
                   for b in range(n_blocks)},
        "u": u,
        "coupled": coupled,
        "rho": iop_matrix(rng, d),
        "t_blocks": {str(m): range(m * tb, (m + 1) * tb)
                     for m in range(t_blocks)},
        "dim_s": dim_s,
        "dim_t": dim_t,
        "rho_st": rho_st,
    }


def operator_file_text(rng, count=100, d_min=2, d_max=32):
    """JSON list of `count` i-operators, dimensions spread over [d_min, d_max].

    Written in the library's wire format ({"dim", "entries": [[re, im]]},
    keys sorted, indent 2) without calling the library.
    """
    ops = []
    for i in range(count):
        d = d_min + (i * (d_max - d_min)) // (count - 1)
        m = iop_matrix(rng, d)
        ops.append({"dim": d, "entries": [[float(z.real), float(z.imag)]
                                          for z in m.ravel()]})
    return json.dumps(ops, sort_keys=True, indent=2) + "\n"
