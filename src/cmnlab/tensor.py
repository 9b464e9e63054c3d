"""Correlation tensor of a multipartite state and its structural surgery:
matricization over bipartitions, of the whole tensor or of its interior."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .basis import basis_expectations, expectations_stack
from .linalg import EPS_TRACE, DensityMatrix


@dataclass(frozen=True)
class Bipartition:
    """A split of parties 0..N-1 into two nonempty complementary groups."""

    side_a: tuple
    side_b: tuple

    def __post_init__(self):
        a = tuple(sorted(set(int(i) for i in self.side_a)))
        b = tuple(sorted(set(int(i) for i in self.side_b)))
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise ValueError("both sides of a bipartition must be nonempty")
        n = len(a) + len(b)
        if set(a) & set(b) or set(a) | set(b) != set(range(n)):
            raise ValueError("sides must be disjoint and cover all parties")
        # an attribute, not a field: equality, hash and repr read the sides only
        fmt = lambda side: "".join(chr(ord("A") + i) for i in side)
        object.__setattr__(self, "_label", f"{fmt(a)}|{fmt(b)}")

    @classmethod
    def of(cls, side_a, n_parties):
        a = set(int(i) for i in side_a)
        if not a <= set(range(n_parties)):
            raise ValueError(f"party indices {sorted(a)} are not all in 0..{n_parties - 1}")
        return cls(a, set(range(n_parties)) - a)

    @property
    def n_parties(self):
        return len(self.side_a) + len(self.side_b)

    def label(self):
        return self._label

    def side_dims(self, dims):
        """Hilbert-space dimensions (d_A, d_B) of the two sides."""
        return math.prod(dims[i] for i in self.side_a), math.prod(dims[i] for i in self.side_b)


@lru_cache(maxsize=None)
def iter_bipartitions(n_parties):
    """All bipartitions of n parties, one per unordered split (party 0 is
    always on side_a), in deterministic order: one tuple per n."""
    rest = range(1, n_parties)
    return tuple(Bipartition.of((0,) + extra, n_parties)
                 for size in range(n_parties - 1) for extra in combinations(rest, size))


@dataclass(frozen=True)
class CorrelationTensor:
    """Real N-way array of cross-correlations, one axis per party; axis k
    has length dims[k]² with index 0 reserved for the identity operator."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        data = np.asarray(self.data, dtype=float)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if data.shape != tuple(d * d for d in dims):
            raise ValueError("tensor shape does not match dims profile")
        _check_vertex(data[None], dims)

    @property
    def n_parties(self):
        return len(self.dims)


def _check_vertex(data, dims):
    """Raise ValueError for the first tensor of the stack ``data`` whose
    trace, read off its vertex entry tr ρ/√∏d_i, is more than EPS_TRACE from 1."""
    vertex = data[(slice(None),) + (0,) * len(dims)]
    root = math.sqrt(math.prod(dims))
    tol = EPS_TRACE + 1e-12  # 1e-12 covers the rounding of this sum and the trace check's
    err = np.abs(vertex * root - 1)
    if err.max(initial=0) > tol:
        first = vertex[err > tol][0]
        raise ValueError(f"vertex entry {first:.15g} differs from {1 / root:.15g}")


def build(rho: DensityMatrix) -> CorrelationTensor:
    """Correlation tensor of ``rho`` in the per-party Gell-Mann bases; the
    one-row case of :func:`build_stack` (the tensor checks its vertex)."""
    return CorrelationTensor(rho.dims, basis_expectations(rho))


def build_stack(data, dims) -> np.ndarray:
    """Correlation tensors of a stack of states over ``dims`` (shape
    (k, side, side)), with the imaginary-residue and vertex checks of
    :func:`build` on every one; shape (k, d₁², …)."""
    dims = tuple(dims)
    t = expectations_stack(data, dims)
    _check_vertex(t, dims)
    return t


def _matricize_array(data, part: Bipartition):
    # Mixed-radix composite indices with the FIRST listed party varying
    # fastest on each side: for column sides (B, C) the composite column
    # index is j + d_B²·k. Axes before the last n_parties ones are batch
    # axes and are kept in front.
    lead = data.ndim - part.n_parties
    axes = list(range(lead)) + [lead + i for i in part.side_a[::-1] + part.side_b[::-1]]
    rows = math.prod(data.shape[lead + i] for i in part.side_a)
    return np.transpose(data, axes).reshape(data.shape[:lead] + (rows, -1))


def matricize(t: CorrelationTensor, part: Bipartition) -> np.ndarray:
    """Flatten the tensor into a (∏_{i∈A} d_i²) × (∏_{j∈B} d_j²) matrix."""
    if part.n_parties != t.n_parties:
        raise ValueError("bipartition does not match the tensor's party count")
    return _matricize_array(t.data, part)


def matricize_interior(t: CorrelationTensor, part: Bipartition) -> np.ndarray:
    """Flatten the interior of the tensor (every identity-index hyperplane
    removed: the object bounded by the dVH criterion) with the same index
    conventions as :func:`matricize`."""
    if part.n_parties != t.n_parties:
        raise ValueError("bipartition does not match the tensor's party count")
    return _matricize_array(t.data[(slice(1, None),) * t.n_parties], part)

