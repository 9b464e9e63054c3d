"""State constructors: the SIC-POVM/Bell saturating state, GHZ/W families,
classical states and seeded random separable/bi-separable samplers."""

from __future__ import annotations

import numpy as np

from .basis import normalized_generalized_gell_mann
from .linalg import (
    BlochVector,
    DensityMatrix,
    PureState,
    bloch_to_qubit,
    hermitize,
    kron_all,
)
from .tensor import Bipartition

TETRAHEDRON = (
    np.array([1.0, -1.0, 1.0]) / np.sqrt(3),
    np.array([1.0, 1.0, -1.0]) / np.sqrt(3),
    np.array([-1.0, 1.0, 1.0]) / np.sqrt(3),
    np.array([-1.0, -1.0, -1.0]) / np.sqrt(3),
)

_BELL_VECTORS = (
    np.array([1, 0, 0, 1]) / np.sqrt(2),
    np.array([0, 1, 1, 0]) / np.sqrt(2),
    np.array([1, 0, 0, -1]) / np.sqrt(2),
    np.array([0, 1, -1, 0]) / np.sqrt(2),
)


def sic_povm_qubit(i: int) -> DensityMatrix:
    """The i-th (1-based) qubit SIC-POVM state; Bloch vectors form a regular
    tetrahedron on the unit sphere."""
    if i not in (1, 2, 3, 4):
        raise ValueError("SIC-POVM index must be in 1..4")
    return bloch_to_qubit(BlochVector(TETRAHEDRON[i - 1]))


def bell(i: int) -> PureState:
    """The i-th (1-based) Bell state in the order Φ⁺, Ψ⁺, Φ⁻, Ψ⁻."""
    if i not in (1, 2, 3, 4):
        raise ValueError("Bell index must be in 1..4")
    return PureState((2, 2), _BELL_VECTORS[i - 1].astype(complex))


def rho1() -> DensityMatrix:
    """Three-qubit bi-separable state pairing SIC-POVM state i on party A
    with Bell projector i on parties B, C; saturates the bi-separable CMN
    bound for every bipartition. The index pairing is load-bearing."""
    total = np.zeros((8, 8), dtype=complex)
    for i in range(1, 5):
        b = bell(i).amplitudes
        total += np.kron(sic_povm_qubit(i).data, np.outer(b, b.conj()))
    return DensityMatrix((2, 2, 2), total / 4)


def ghz(n: int, d: int = 2) -> PureState:
    """Generalized GHZ state (|0…0⟩ + … + |d-1…d-1⟩)/√d on n parties."""
    if n < 2:
        raise ValueError("GHZ needs at least two parties")
    amp = np.zeros(d**n, dtype=complex)
    for k in range(d):
        idx = sum(k * d**j for j in range(n))
        amp[idx] = 1
    return PureState((d,) * n, amp / np.sqrt(d))


def w_state(n: int) -> PureState:
    """W state: equal superposition of all single-excitation basis states."""
    if n < 2:
        raise ValueError("W state needs at least two parties")
    amp = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amp[2**k] = 1
    return PureState((2,) * n, amp / np.sqrt(n))


def maximally_mixed(dims) -> DensityMatrix:
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    return DensityMatrix(dims, np.eye(side, dtype=complex) / side)


def classical_state(dims, probs) -> DensityMatrix:
    """State diagonal in the computational product basis (zero discord)."""
    dims = tuple(int(d) for d in dims)
    probs = np.asarray(probs, dtype=float)
    if probs.size != int(np.prod(dims)) or abs(probs.sum() - 1) > 1e-12:
        raise ValueError("need one probability per basis state, summing to 1")
    return DensityMatrix(dims, np.diag(probs).astype(complex))


def haar_pure(dim, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dims, rank, seed) -> DensityMatrix:
    """Normalized Wishart state of the given rank."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    g = rng.normal(size=(side, rank)) + 1j * rng.normal(size=(side, rank))
    m = g @ g.conj().T
    return DensityMatrix(dims, hermitize(m / m.trace().real))


def _random_product_projector(group_dims, rng):
    vecs = [haar_pure(d, rng) for d in group_dims]
    v = vecs[0]
    for u in vecs[1:]:
        v = np.kron(v, u)
    return np.outer(v, v.conj())


def random_fully_separable(dims, k_terms, seed) -> DensityMatrix:
    """Convex mixture of k Haar-random product pure states with flat
    Dirichlet weights."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    weights = rng.dirichlet(np.ones(k_terms))
    side = int(np.prod(dims))
    total = np.zeros((side, side), dtype=complex)
    for w in weights:
        total += w * _random_product_projector(dims, rng)
    return DensityMatrix(dims, hermitize(total))


def random_biseparable(dims, part: Bipartition, k_terms, seed) -> DensityMatrix:
    """Convex mixture of k pure states that are products across ``part``
    (each factor Haar-random on its group's joint space)."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    d_a, d_b = part.side_dims(dims)
    weights = rng.dirichlet(np.ones(k_terms))
    total = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        va = haar_pure(d_a, rng)
        vb = haar_pure(d_b, rng)
        v = np.kron(va, vb)
        total += w * np.outer(v, v.conj())
    # columns are ordered side_a then side_b; permute back to party order
    order = list(part.side_a) + list(part.side_b)
    perm = np.argsort(order)
    block_dims = [dims[i] for i in order]
    n = len(dims)
    t = total.reshape(block_dims + block_dims)
    t = np.transpose(t, list(perm) + [n + p for p in perm])
    return DensityMatrix(dims, hermitize(t.reshape(d_a * d_b, d_a * d_b)))


def _random_bloch_state(d, rng, radius=0.5):
    """State I/d + r·G with a random interior Bloch vector, chosen so that
    both the state and its Bloch-negated partner are PSD."""
    basis = normalized_generalized_gell_mann(d)
    r = rng.normal(size=d * d - 1)
    r *= radius * rng.uniform(0, 1) / np.linalg.norm(r)
    pert = np.tensordot(r, basis.ops[1:], axes=(0, 0))
    for _ in range(60):
        plus = np.eye(d) / d + pert
        minus = np.eye(d) / d - pert
        lo = min(
            np.linalg.eigvalsh(hermitize(plus)).min(),
            np.linalg.eigvalsh(hermitize(minus)).min(),
        )
        if lo >= 1e-6:
            return hermitize(plus), hermitize(minus)
        pert = pert / 2
    raise RuntimeError("could not shrink Bloch perturbation into the state body")


def random_fully_separable_sfnf(dims, seed, n_blocks=3) -> DensityMatrix:
    """Fully-separable state that is in strong filter normal form by
    construction.

    Each block mixes sign-flipped product states ρ(±r_1) ⊗ … ⊗ ρ(±r_N)
    uniformly over even-parity sign patterns: every correlation with an
    identity index cancels exactly, while the all-party correlation survives
    as an outer product of the local Bloch vectors. The SFNF conditions are
    linear, so a convex mixture of blocks is again SFNF (and gives the
    interior tensor rank above one).
    """
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    side = int(np.prod(dims))
    weights = rng.dirichlet(np.ones(n_blocks))
    total = np.zeros((side, side), dtype=complex)
    for w in weights:
        pairs = [_random_bloch_state(d, rng) for d in dims]
        block = np.zeros((side, side), dtype=complex)
        count = 0
        for bits in range(2**n):
            signs = [(bits >> k) & 1 for k in range(n)]
            if sum(signs) % 2:
                continue
            block += kron_all([pairs[k][signs[k]] for k in range(n)])
            count += 1
        total += w * block / count
    return DensityMatrix(dims, hermitize(total))


ZOO = {
    "rho1": lambda: rho1(),
    "ghz-3-2": lambda: ghz(3, 2).to_density(),
    "ghz-2-2": lambda: ghz(2, 2).to_density(),
    "w-3": lambda: w_state(3).to_density(),
    "bell-phi-plus": lambda: bell(1).to_density(),
    "maximally-mixed-3q": lambda: maximally_mixed((2, 2, 2)),
    "maximally-mixed-2q": lambda: maximally_mixed((2, 2)),
    "classical-cc": lambda: classical_state((2, 2), (0.4, 0.1, 0.2, 0.3)),
    "classical-ccc": lambda: classical_state(
        (2, 2, 2), (0.2, 0.05, 0.1, 0.15, 0.05, 0.25, 0.1, 0.1)
    ),
}


def from_name(name: str) -> DensityMatrix:
    """Look up a zoo state by its registry identifier."""
    try:
        return ZOO[name]()
    except KeyError:
        raise KeyError(
            f"unknown zoo state {name!r}; available: {', '.join(sorted(ZOO))}"
        ) from None
