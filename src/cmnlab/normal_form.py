"""FNF/SFNF predicates and the SLOCC filtering iteration that drives local
reductions to the maximally mixed state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    apply_local,
    hermitize,
    partial_trace_raw,
    trace_distance,
)
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


def _group_reduction(data, dims, group):
    return partial_trace_raw(data, dims, group)


def _inverse_sqrt(m, rank_tol, label):
    w, v = np.linalg.eigh(hermitize(m))
    if w.min() <= rank_tol:
        raise FilteringError(
            f"filtering not possible: reduction of {label} is rank deficient "
            f"(min eigenvalue {w.min():.3e})"
        )
    return v @ np.diag(w**-0.5) @ v.conj().T


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

    If ``history`` is a list, the product of the normalized reduction
    determinants det(d_g ρ_g) is appended after every sweep; this product is
    a standard non-decreasing convergence diagnostic.
    """
    dims = rho.dims
    if groups is None:
        groups = [(p,) for p in range(len(dims))]
    groups = [tuple(sorted(int(p) for p in g)) for g in groups]
    data = rho.data.copy()

    def group_dim(g):
        return int(np.prod([dims[p] for p in g]))

    def reductions(data):
        return [_group_reduction(data, dims, g) for g in groups]

    def det_product(reds):
        out = 1.0
        for g, red in zip(groups, reds):
            out *= float(np.linalg.det(group_dim(g) * red).real)
        return out

    def residual(reds):
        worst = 0.0
        for g, red in zip(groups, reds):
            d_g = group_dim(g)
            worst = max(worst, trace_distance(red, np.eye(d_g) / d_g))
        return worst

    # one set of reductions per sweep serves the history, the residual and
    # the next sweep's first filter
    reds = reductions(data)
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
        for k, g in enumerate(groups):
            d_g = group_dim(g)
            red = reds[0] if k == 0 else _group_reduction(data, dims, g)
            label = "party " + "+".join(str(p) for p in g)
            f = _inverse_sqrt(d_g * red, RANK_TOL, label)
            data = apply_local(f, data, g, dims)
            data = data / data.trace().real
        reds = reductions(data)
        if history is not None:
            history.append(det_product(reds))
        res = residual(reds)
        sweeps += 1
    return DensityMatrix(dims, hermitize(data))
