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
    check_density_stack,
    hermitize,
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
    (each factor Haar-random on its group's joint space); the one-row case
    of :func:`random_biseparable_stack`."""
    return DensityMatrix(dims, random_biseparable_stack(dims, part, k_terms, [seed])[0])


def random_biseparable_stack(dims, part: Bipartition, k_terms, seeds) -> np.ndarray:
    """One :func:`random_biseparable` sample per seed, as a validated stack
    of density matrices (shape (len(seeds), side, side)).

    Each row draws from ``default_rng(seed)``: flat Dirichlet weights, then
    per term the real and imaginary parts of the side-A vector and then of
    the side-B vector. Consecutive normal draws concatenate, so one
    ``normal`` call per row yields all of them."""
    if k_terms < 1:
        raise ValueError("k_terms must be >= 1")
    dims = tuple(int(d) for d in dims)
    d_a, d_b = part.side_dims(dims)
    rows = len(seeds)
    weights = np.empty((rows, k_terms))
    g = np.empty((rows, k_terms, 2 * (d_a + d_b)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        weights[row] = rng.dirichlet(np.ones(k_terms))
        g[row] = rng.normal(size=(k_terms, 2 * (d_a + d_b)))
    va = g[..., :d_a] + 1j * g[..., d_a:2 * d_a]
    vb = g[..., 2 * d_a:2 * d_a + d_b] + 1j * g[..., 2 * d_a + d_b:]
    va /= np.linalg.norm(va, axis=-1, keepdims=True)
    vb /= np.linalg.norm(vb, axis=-1, keepdims=True)
    v = (va[..., :, None] * vb[..., None, :]).reshape(rows, k_terms, d_a * d_b)
    total = (v * weights[..., None]).swapaxes(1, 2) @ v.conj()
    # columns are ordered side_a then side_b; permute back to party order
    order = list(part.side_a) + list(part.side_b)
    perm = np.argsort(order)
    n = len(dims)
    t = total.reshape((rows,) + tuple(dims[i] for i in order) * 2)
    t = np.transpose(t, [0] + [1 + p for p in perm] + [1 + n + p for p in perm])
    data = hermitize(t.reshape(rows, d_a * d_b, d_a * d_b))
    check_density_stack(data)
    return data


def _shrink_into_body(pert, d):
    """Halve, in place, each perturbation of the stack ``pert`` until both
    1/d + pert and 1/d - pert have eigenvalues >= 1e-6 (at most 60 times)."""
    body = np.eye(d) / d
    todo = np.arange(len(pert))
    for _ in range(60):
        both = np.concatenate([body + pert[todo], body - pert[todo]])
        lo = np.linalg.eigvalsh(hermitize(both)).min(axis=1).reshape(2, -1).min(axis=0)
        todo = todo[~(lo >= 1e-6)]
        if not len(todo):
            return
        pert[todo] = pert[todo] / 2
    raise RuntimeError("could not shrink Bloch perturbation into the state body")


def random_fully_separable_sfnf(dims, seed, n_blocks=3) -> DensityMatrix:
    """Fully-separable state that is in strong filter normal form by
    construction; the one-row case of
    :func:`random_fully_separable_sfnf_stack`."""
    return DensityMatrix(dims, random_fully_separable_sfnf_stack(dims, [seed], n_blocks)[0])


def random_fully_separable_sfnf_stack(dims, seeds, n_blocks=3) -> np.ndarray:
    """One SFNF fully-separable sample per seed, as a validated stack of
    density matrices (shape (len(seeds), side, side)).

    Each block mixes sign-flipped product states ρ(±r_1) ⊗ … ⊗ ρ(±r_N)
    uniformly over even-parity sign patterns, with ρ(±r) = 1/d ± r·G a state
    of random interior Bloch vector r (halved until both signs are PSD).
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
    side = int(np.prod(dims))
    weights = np.empty((rows, n_blocks))
    dirs = [np.empty((rows, n_blocks, d * d - 1)) for d in dims]
    frac = np.empty((rows, n_blocks, len(dims)))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        weights[row] = rng.dirichlet(np.ones(n_blocks))
        for b in range(n_blocks):
            for k, d in enumerate(dims):
                dirs[k][row, b] = rng.normal(size=d * d - 1)
                frac[row, b, k] = rng.uniform(0, 1)
    prod = np.ones((rows, n_blocks, 1, 1))  # ⊗(r·G), one Kronecker factor per party
    for k, d in enumerate(dims):
        r = dirs[k] * (0.5 * frac[..., k] / np.linalg.norm(dirs[k], axis=-1))[..., None]
        ops = normalized_generalized_gell_mann(d).ops[1:]
        pert = np.tensordot(r, ops, axes=(2, 0)).reshape(-1, d, d)
        _shrink_into_body(pert, d)
        pert = hermitize(pert).reshape(rows, n_blocks, d, d)
        a = prod.shape[-1]
        prod = (prod[..., :, None, :, None] * pert[..., None, :, None, :]).reshape(
            rows, n_blocks, a * d, a * d)
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
