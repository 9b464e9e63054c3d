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
    # each matrix as a 2N-axis tensor after the stack axis; contract each
    # party's (row, col) pair with its operator stack, accumulating one
    # basis-index axis per party.
    t = data.reshape((len(data),) + dims * 2)
    for k in range(n):
        # after k contractions axes 1..k are basis indices; party k's row
        # axis sits at position k + 1 and its column axis at position n + 1.
        # tr(ρ·O) pairs O's first matrix index with the column axis.
        ops = normalized_generalized_gell_mann(dims[k])
        t = np.tensordot(ops, t, axes=([1, 2], [n + 1, k + 1]))
        t = np.moveaxis(t, 0, k + 1)
    residue, tol = np.abs(t.imag), data.shape[-1] * EPS_HERM / 2
    if residue.max(initial=0) > tol:
        residue = residue.reshape(len(t), -1).max(axis=1)
        first = residue[residue > tol][0]
        raise ValueError(f"imaginary residue {first:.3e} exceeds tolerance")
    return np.ascontiguousarray(t.real)
