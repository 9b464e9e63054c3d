"""FNF/SFNF predicates and the SLOCC filtering iteration that drives local
reductions to the maximally mixed state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, hermitize, trace_distance
from .tensor import Bipartition, CorrelationTensor

RANK_TOL = 1e-8
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 500


class FilteringError(RuntimeError):
    """Raised when a state cannot be brought to filter normal form."""


@dataclass(frozen=True)
class NormalFormStatus:
    is_fnf_per_partition: dict
    is_sfnf: bool
    max_residual: float


def _single_party_residual(data, dims, parties):
    """Largest |entry| over tensor entries with exactly one non-identity
    index, that index belonging to one of ``parties``."""
    worst = 0.0
    for p in parties:
        sl = tuple(slice(1, None) if i == p else 0 for i in range(len(dims)))
        worst = max(worst, float(np.abs(data[sl]).max()))
    return worst


def fnf_residual(t: CorrelationTensor, part: Bipartition) -> float:
    """Largest single-party correlation magnitude, split over the partition
    (⟨A_i ⊗ 1⟩ and ⟨1 ⊗ B_j⟩ patterns)."""
    return max(
        _single_party_residual(t.data, t.dims, part.side_a),
        _single_party_residual(t.data, t.dims, part.side_b),
    )


def is_fnf(t: CorrelationTensor, part: Bipartition, tol=DEFAULT_TOL) -> bool:
    """True iff every single-party traceless observable has vanishing
    expectation (within tol)."""
    return fnf_residual(t, part) <= tol


def sfnf_residual(t: CorrelationTensor) -> float:
    """Largest |entry| with at least one identity index, vertex excluded."""
    mask = np.zeros(t.data.shape, dtype=bool)
    for axis in range(t.n_parties):
        sl = [slice(None)] * t.n_parties
        sl[axis] = 0
        mask[tuple(sl)] = True
    mask[(0,) * t.n_parties] = False
    return float(np.abs(t.data[mask]).max())


def is_sfnf(t: CorrelationTensor, tol=DEFAULT_TOL) -> bool:
    """True iff only all-party correlations (and the vertex) are nonzero."""
    return sfnf_residual(t) <= tol


def normal_form_status(t: CorrelationTensor, tol=DEFAULT_TOL) -> NormalFormStatus:
    from .tensor import iter_bipartitions

    per_part = {}
    worst = 0.0
    for part in iter_bipartitions(t.n_parties):
        res = fnf_residual(t, part)
        per_part[part] = res <= tol
        worst = max(worst, res)
    return NormalFormStatus(per_part, is_sfnf(t, tol), max(worst, sfnf_residual(t)))


def _inverse_sqrt(m, rank_tol, label):
    w, v = np.linalg.eigh(hermitize(m))
    if w.min() <= rank_tol:
        raise FilteringError(
            f"filtering not possible: reduction of {label} is rank deficient "
            f"(min eigenvalue {w.min():.3e})"
        )
    return (v * w**-0.5) @ v.conj().T


def filter_to_fnf(
    rho: DensityMatrix,
    max_iters=DEFAULT_MAX_ITERS,
    tol=DEFAULT_TOL,
    groups=None,
    history=None,
) -> DensityMatrix:
    """Bring ``rho`` to filter normal form by cyclic local filtering.

    Sweeps the party ``groups`` (default: each party separately) applying
    the filter (d_g · ρ_g)^{-1/2} on each group in turn, until every group
    reduction is within ``tol`` trace distance of 1/d_g. A bipartition can
    be passed as two groups to reach FNF with respect to that cut.

    The iteration works on one group-major copy of ρ (the parties of group
    0 first, then group 1, ...): a group reduction is one einsum trace and a
    filter two broadcast matmuls, and the layout is undone once at the end.
    Groups must be disjoint; a party in no group is never filtered.

    If ``history`` is a list, the product of the normalized reduction
    determinants det(d_g ρ_g) is appended after every sweep; this product is
    a standard non-decreasing convergence diagnostic.
    """
    dims = rho.dims
    n = len(dims)
    if groups is None:
        groups = [(p,) for p in range(n)]
    groups = [tuple(sorted(int(p) for p in g)) for g in groups]
    order = [p for g in groups for p in g]
    if len(set(order)) != len(order):
        raise ValueError(f"filtering groups must be disjoint, got {groups}")
    order += [p for p in range(n) if p not in order]
    side = rho.dim
    sizes = [math.prod(dims[p] for p in g) for g in groups]
    # (L, D, R): product of the group dimensions before, at and after group k
    before = [math.prod(sizes[:k]) for k in range(len(sizes))]
    blocks = [(L, D, side // (L * D)) for L, D in zip(before, sizes)]
    axes = order + [n + p for p in order]
    m = rho.data.reshape(dims + dims).transpose(axes).reshape(side, side)
    labels = ["party " + "+".join(str(p) for p in g) for g in groups]

    def reduction(m, k):
        L, D, R = blocks[k]
        return np.einsum("aibajb->ij", m.reshape(L, D, R, L, D, R))

    def det_product(reds):
        return math.prod(float(np.linalg.det(d_g * red).real) for d_g, red in zip(sizes, reds))

    def residual(reds):
        return max((trace_distance(red, np.eye(d_g) / d_g) for d_g, red in zip(sizes, reds)),
                   default=0.0)

    # one set of reductions per sweep serves the history, the residual and
    # the next sweep's first filter
    reds = [reduction(m, k) for k in range(len(groups))]
    if history is not None:
        history.append(det_product(reds))
    res = residual(reds)
    sweeps = 0
    while res > tol:
        if sweeps >= max_iters:
            raise FilteringError(
                f"filtering did not converge in {max_iters} sweeps "
                f"(last residual {res:.3e})"
            )
        for k, (L, D, R) in enumerate(blocks):
            red = reds[0] if k == 0 else reduction(m, k)
            f = _inverse_sqrt(D * red, RANK_TOL, labels[k])
            m = (f @ m.reshape(L, D, R * side)).reshape(side * L, D, R)
            m = (f.conj() @ m).reshape(side, side)
            m = m / m.trace().real
        reds = [reduction(m, k) for k in range(len(groups))]
        if history is not None:
            history.append(det_product(reds))
        res = residual(reds)
        sweeps += 1
    back = np.argsort(axes)
    data = m.reshape([dims[p] for p in order] * 2).transpose(back).reshape(side, side)
    return DensityMatrix(dims, hermitize(data))
