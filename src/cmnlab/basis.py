"""Orthonormal Hermitian operator bases (identity-first) and expectation
tensors of multipartite states."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import EPS_HERM, DensityMatrix


@lru_cache(maxsize=None)
def normalized_generalized_gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis of dimension d: a read-only (d², d, d)
    array of Hermitian operators, orthonormal under the Hilbert–Schmidt
    inner product, with ops[0] = 1/√d and all later elements traceless.

    Order: identity/√d, then symmetric off-diagonal generators (j<k
    lexicographic), antisymmetric ones, then the diagonal generators.
    """
    if d < 2:
        raise ValueError("party dimension must be >= 2")
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1 / np.sqrt(2)
        ops.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1j / np.sqrt(2)
        m[k, j] = 1j / np.sqrt(2)
        ops.append(m)
    for l in range(1, d):
        diag = np.array([1.0] * l + [-l] + [0.0] * (d - l - 1))
        m = np.diag(diag).astype(complex) / np.sqrt(l * (l + 1))
        ops.append(m)
    arr = np.array(ops)
    arr.setflags(write=False)
    return arr


def basis_expectations(rho: DensityMatrix) -> np.ndarray:
    """Real N-way array of expectations ⟨B¹_{i₁} ⊗ … ⊗ Bᴺ_{i_N}⟩, with Bᵏ
    the Gell-Mann basis of party k's dimension.

    Entry (i₁, …, i_N) is trace(ρ · ⊗ₖ Bᵏ[iₖ]); the imaginary
    residue of every entry is checked against side·EPS_HERM/2 before being
    discarded. The one-row case of :func:`expectations_stack`.
    """
    return expectations_stack(rho.data[None], rho.dims)[0]


def expectations_stack(data, dims) -> np.ndarray:
    """:func:`basis_expectations` of each matrix in the stack ``data``
    (shape (k, side, side), every state over ``dims``); shape (k, d₁², …).
    Raises ValueError for the first matrix whose imaginary residue exceeds
    side·EPS_HERM/2: Im tr(ρB) = tr(KB) with K = (ρ - ρ†)/2 and ‖B‖_F = 1, so
    it is at most ‖K‖_F ≤ side·EPS_HERM/2 on a matrix that passes the state
    check's Hermiticity test."""
    dims = tuple(dims)
    n = len(dims)
    # each matrix as a 2N-axis tensor after the stack axis. After k
    # contractions the axes are: the stack, the rows then the columns of
    # parties k.., and the basis indices of parties 0..k-1. A transpose
    # (cheaper than np.moveaxis) puts party k's (column, row) pair last, and
    # one matmul of the flattened pair with B[(m, l), i] = O_i[m, l] appends
    # its basis index: tr(ρ·O) = Σ O[m, l] ρ[l, m].
    t = data.reshape((len(data),) + dims * 2)
    for k, d in enumerate(dims):
        ops = normalized_generalized_gell_mann(d).reshape(d * d, d * d).T
        col = n - k + 1
        t = t.transpose([a for a in range(t.ndim) if a not in (1, col)] + [col, 1])
        t = (t.reshape(-1, d * d) @ ops).reshape(t.shape[:-2] + (d * d,))
    residue, tol = np.abs(t.imag), data.shape[-1] * EPS_HERM / 2
    if residue.max(initial=0) > tol:
        residue = residue.reshape(len(t), -1).max(axis=1)
        first = residue[residue > tol][0]
        raise ValueError(f"imaginary residue {first:.3e} exceeds tolerance")
    return np.ascontiguousarray(t.real)
