"""Correlation tensor of a multipartite state and its structural surgery:
matricization over bipartitions, interior extraction, face extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .basis import basis_expectations, canonical_bases, expectations_stack
from .linalg import DensityMatrix

VERTEX_TOL = 1e-12


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

    @classmethod
    def of(cls, side_a, n_parties):
        a = sorted(set(int(i) for i in side_a))
        b = sorted(set(range(n_parties)) - set(a))
        return cls(tuple(a), tuple(b))

    @property
    def n_parties(self):
        return len(self.side_a) + len(self.side_b)

    def label(self):
        fmt = lambda side: "".join(chr(ord("A") + i) for i in side)
        return f"{fmt(self.side_a)}|{fmt(self.side_b)}"

    def side_dims(self, dims):
        """Hilbert-space dimensions (d_A, d_B) of the two sides."""
        return math.prod(dims[i] for i in self.side_a), math.prod(dims[i] for i in self.side_b)


def iter_bipartitions(n_parties):
    """All bipartitions of n parties, one per unordered split (party 0 is
    always on side_a), in deterministic order."""
    rest = range(1, n_parties)
    for size in range(0, n_parties - 1):
        for extra in combinations(rest, size):
            yield Bipartition.of((0,) + extra, n_parties)


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

    @property
    def vertex(self):
        return float(self.data[(0,) * len(self.dims)])


@dataclass(frozen=True)
class InteriorTensor:
    """Correlation tensor restricted to all-traceless indices (every axis
    index >= 1); the object bounded by the dVH criterion."""

    dims: tuple
    data: np.ndarray = field(repr=False)


def _check_vertex(data, dims):
    """Raise ValueError for the first tensor of the stack ``data`` whose
    vertex entry is not ∏ 1/√d_i."""
    vertex = data[(slice(None),) + (0,) * len(dims)]
    expected = 1 / math.sqrt(math.prod(dims))
    err = np.abs(vertex - expected)
    if err.max(initial=0) > VERTEX_TOL:
        first = vertex[err > VERTEX_TOL][0]
        raise ValueError(f"vertex entry {first:.15g} differs from {expected:.15g}")


def build(rho: DensityMatrix) -> CorrelationTensor:
    """Correlation tensor of ``rho`` in the canonical per-party bases; the
    one-row case of :func:`build_stack` (the tensor checks its vertex)."""
    return CorrelationTensor(rho.dims, basis_expectations(rho, canonical_bases(rho.dims)))


def build_stack(data, dims) -> np.ndarray:
    """Correlation tensors of a stack of states over ``dims`` (shape
    (k, side, side)), with the imaginary-residue and vertex checks of
    :func:`build` on every one; shape (k, d₁², …)."""
    dims = tuple(dims)
    t = expectations_stack(data, dims, canonical_bases(dims))
    _check_vertex(t, dims)
    return t


def _matricize_array(data, dims, part: Bipartition):
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
    return _matricize_array(t.data, t.dims, part)


def interior(t: CorrelationTensor) -> InteriorTensor:
    """Subtensor with every identity-index hyperplane removed."""
    sl = tuple(slice(1, None) for _ in t.dims)
    return InteriorTensor(t.dims, np.ascontiguousarray(t.data[sl]))


def matricize_interior(w: InteriorTensor, part: Bipartition) -> np.ndarray:
    """Flatten an interior tensor with the same index conventions as
    :func:`matricize`."""
    return _matricize_array(w.data, w.dims, part)


def face(t: CorrelationTensor, dropped: int) -> np.ndarray:
    """Tensor face obtained by fixing the dropped party's index at the
    identity; equals 1/√d_dropped times the correlation tensor of the
    reduced state over the remaining parties."""
    if t.n_parties < 2:
        raise ValueError("faces require at least two parties")
    if not 0 <= dropped < t.n_parties:
        raise ValueError(f"party index {dropped} out of range")
    return np.ascontiguousarray(np.take(t.data, 0, axis=dropped))
