"""State constructors: the SIC-POVM/Bell saturating state, GHZ/W families,
classical states and seeded random separable/bi-separable samplers."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .basis import normalized_generalized_gell_mann
from .linalg import (
    BlochVector,
    DensityMatrix,
    PureState,
    bloch_to_qubit,
    check_density_stack,
    hermitize,
    permute_parties,
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
    side = math.prod(dims)
    return DensityMatrix(dims, np.eye(side, dtype=complex) / side)


def classical_state(dims, probs) -> DensityMatrix:
    """State diagonal in the computational product basis (zero discord)."""
    dims = tuple(int(d) for d in dims)
    probs = np.asarray(probs, dtype=float)
    if probs.size != math.prod(dims) or abs(probs.sum() - 1) > 1e-12:
        raise ValueError("need one probability per basis state, summing to 1")
    return DensityMatrix(dims, np.diag(probs).astype(complex))


def random_density(dims, rank, seed) -> DensityMatrix:
    """Normalized Wishart state of the given rank."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    side = math.prod(dims)
    g = rng.normal(size=(side, rank)) + 1j * rng.normal(size=(side, rank))
    m = g @ g.conj().T
    return DensityMatrix(dims, hermitize(m / m.trace().real))


def random_fully_separable(dims, k_terms, seed) -> DensityMatrix:
    """Convex mixture of k Haar-random product pure states with flat
    Dirichlet weights; the one-row case of :func:`_product_mixture_stack`
    with one group per party."""
    groups = [(p,) for p in range(len(dims))]
    return DensityMatrix(dims, _product_mixture_stack(dims, groups, k_terms, [seed])[0])


def random_biseparable(dims, part: Bipartition, k_terms, seed) -> DensityMatrix:
    """Convex mixture of k pure states that are products across ``part``
    (each factor Haar-random on its group's joint space); the one-row case
    of :func:`random_biseparable_stack`."""
    return DensityMatrix(dims, random_biseparable_stack(dims, part, k_terms, [seed])[0])


def random_biseparable_stack(dims, part: Bipartition, k_terms, seeds) -> np.ndarray:
    """One :func:`random_biseparable` sample per seed, as a validated stack
    of density matrices (shape (len(seeds), side, side))."""
    return _product_mixture_stack(dims, [part.side_a, part.side_b], k_terms, seeds)


def _product_mixture_stack(dims, groups, k_terms, seeds) -> np.ndarray:
    """One convex mixture of k pure states that are products across the
    party ``groups`` (each factor Haar-random on its group's joint space) per
    seed, as a validated stack of density matrices.

    Each row draws from ``default_rng(seed)``: flat Dirichlet weights, then
    per term and group the real and then the imaginary parts of the group's
    vector. Consecutive normal draws concatenate, so one ``normal`` call per
    row yields all of them."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    dims = tuple(int(d) for d in dims)
    sizes = [math.prod(dims[p] for p in group) for group in groups]
    rows = len(seeds)
    weights = np.empty((rows, k_terms))
    g = np.empty((rows, k_terms, 2 * sum(sizes)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        weights[row] = rng.dirichlet(np.ones(k_terms))
        g[row] = rng.normal(size=(k_terms, 2 * sum(sizes)))
    v = np.ones((rows, k_terms, 1))
    for start, d in zip(accumulate((2 * d for d in sizes), initial=0), sizes):
        u = g[..., start:start + d] + 1j * g[..., start + d:start + 2 * d]
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = (v[..., :, None] * u[..., None, :]).reshape(rows, k_terms, -1)
    total = (v * weights[..., None]).swapaxes(1, 2) @ v.conj()
    # columns are ordered group by group; permute back to party order
    order = [p for group in groups for p in group]
    data = hermitize(permute_parties(total, [dims[p] for p in order], np.argsort(order)))
    check_density_stack(data)
    return data


def _shrink_into_body(pert, d):
    """Halve, in place, each perturbation P of the stack ``pert`` the least
    k >= 0 times that puts each eigenvalue 1/d ± λ(P)/2^k of 1/d ± P/2^k at
    or above 1e-6; scaling by 2^-k is exact. Where max|λ|/2^k is within
    rounding of 1/d - 1e-6, k may be one fewer or more than a loop that
    halves until eigvalsh of both signs passes would give."""
    frac, exp = np.frexp(np.abs(np.linalg.eigvalsh(pert)).max(axis=1) / (1 / d - 1e-6))
    k = np.maximum(exp - (frac == 0.5), 0)  # the least k >= 0 with that ratio <= 2^k
    pert *= np.ldexp(1.0, -k)[:, None, None]


# Bloch-vector blocks mixed into each SFNF sample (see the stack sampler).
SFNF_BLOCKS = 3


def random_fully_separable_sfnf(dims, seed) -> DensityMatrix:
    """Fully-separable state that is in strong filter normal form by
    construction; the one-row case of
    :func:`random_fully_separable_sfnf_stack`."""
    return DensityMatrix(dims, random_fully_separable_sfnf_stack(dims, [seed])[0])


def random_fully_separable_sfnf_stack(dims, seeds) -> np.ndarray:
    """One SFNF fully-separable sample per seed, as a validated stack of
    density matrices (shape (len(seeds), side, side)).

    Each block mixes sign-flipped product states ρ(±r_1) ⊗ … ⊗ ρ(±r_N)
    uniformly over even-parity sign patterns, with ρ(±r) = 1/d ± r·G a state
    of random interior Bloch vector r (halved as often as both signs need).
    Every correlation with an identity index cancels exactly, and the
    mixture is ⊗(1/d) + ⊗(r·G) term for term, so a block costs two
    Kronecker products. The SFNF conditions are linear, so a convex mixture
    of blocks is again SFNF (and gives the interior tensor rank above one).

    Row t draws from ``default_rng(seeds[t])``: flat Dirichlet block
    weights, then per block and party a Gaussian direction and a uniform
    fraction of the Bloch radius 0.5.
    """
    dims = tuple(int(d) for d in dims)
    rows = len(seeds)
    side = math.prod(dims)
    weights = np.empty((rows, SFNF_BLOCKS))
    dirs = [np.empty((rows, SFNF_BLOCKS, d * d - 1)) for d in dims]
    frac = np.empty((rows, SFNF_BLOCKS, len(dims)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        weights[row] = rng.dirichlet(np.ones(SFNF_BLOCKS))
        for b in range(SFNF_BLOCKS):
            for k, d in enumerate(dims):
                dirs[k][row, b] = rng.normal(size=d * d - 1)
                frac[row, b, k] = rng.uniform(0, 1)
    prod = np.ones((rows, SFNF_BLOCKS, 1, 1))  # ⊗(r·G), one Kronecker factor per party
    for k, d in enumerate(dims):
        r = dirs[k] * (0.5 * frac[..., k] / np.linalg.norm(dirs[k], axis=-1))[..., None]
        ops = normalized_generalized_gell_mann(d)[1:]
        pert = np.tensordot(r, ops, axes=(2, 0)).reshape(-1, d, d)
        _shrink_into_body(pert, d)
        pert = hermitize(pert).reshape(rows, SFNF_BLOCKS, d, d)
        a = prod.shape[-1]
        prod = (prod[..., :, None, :, None] * pert[..., None, :, None, :]).reshape(
            rows, SFNF_BLOCKS, a * d, a * d)
    total = (weights.sum(axis=1) / side)[:, None, None] * np.eye(side)
    total = total + np.einsum("rb,rbij->rij", weights, prod)
    data = hermitize(total)
    check_density_stack(data)
    return data


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
