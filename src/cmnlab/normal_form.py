"""FNF/SFNF predicates and the SLOCC filtering iteration that drives local
reductions to the maximally mixed state."""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, hermitize
from .tensor import Bipartition, CorrelationTensor

RANK_TOL = 1e-8
# a rank-deficient reduction's min eigenvalue at or below this magnitude is
# rounding noise, and its digits would only echo the summation order
EIG_NOISE = 1e-12
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 500


class FilteringError(RuntimeError):
    """Raised when a state cannot be brought to filter normal form."""


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


def _rank_deficient(label, w_min):
    shown = f"{w_min:.3e}" if abs(w_min) > EIG_NOISE else f"within {EIG_NOISE:g} of 0"
    return (f"filtering not possible: reduction of {label} is rank deficient "
            f"(min eigenvalue {shown})")


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
    be passed as two groups to reach FNF with respect to that cut. Groups
    must be disjoint; a party in no group is never filtered. Raises
    FilteringError when a reduction is rank deficient or ``max_iters``
    sweeps do not converge.

    If ``history`` is a list, the product of the normalized reduction
    determinants det(d_g ρ_g) is appended after every sweep; this product is
    a standard non-decreasing convergence diagnostic.

    The one-row case of :func:`filter_stack`.
    """
    rows = None if history is None else [[]]
    data, _, errors = filter_stack(rho.data[None], rho.dims, groups, max_iters, tol, rows)
    if history is not None:
        history.extend(rows[0])
    if errors[0] is not None:
        raise FilteringError(errors[0])
    return DensityMatrix(rho.dims, data[0])


def filter_stack(data, dims, groups=None, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL,
                 history=None):
    """:func:`filter_to_fnf` on each matrix of the stack ``data`` (shape
    (k, side, side), every state over ``dims``) at once.

    Returns ``(filtered, sweeps, errors)``: the filtered stack (Hermitian,
    not validated as states), the sweep count of each row, and for each row
    None or the text of the FilteringError that :func:`filter_to_fnf` raises
    on it (its ``filtered`` row is then NaN). A row leaves the stack when it
    converges, so its sweep count is that of its own run. If ``history`` is
    a list of k lists, each row's determinant products go to its own list.

    The iteration works on one group-major copy of each ρ (the parties of
    group 0 first, then group 1, ...): a group reduction is one einsum trace
    and a filter two broadcast matmuls, and the layout is undone once at the
    end.
    """
    dims = tuple(dims)
    n = len(dims)
    if groups is None:
        groups = [(p,) for p in range(n)]
    groups = [tuple(sorted(int(p) for p in g)) for g in groups]
    order = [p for g in groups for p in g]
    if len(set(order)) != len(order):
        raise ValueError(f"filtering groups must be disjoint, got {groups}")
    order += [p for p in range(n) if p not in order]
    k = len(data)
    side = math.prod(dims)
    sizes = [math.prod(dims[p] for p in g) for g in groups]
    # (L, D, R): product of the group dimensions before, at and after group k
    before = [math.prod(sizes[:g]) for g in range(len(sizes))]
    blocks = [(L, D, side // (L * D)) for L, D in zip(before, sizes)]
    mixed = [np.eye(D) / D for D in sizes]
    axes = order + [n + p for p in order]
    m = data.reshape((k,) + dims * 2).transpose([0] + [1 + a for a in axes]).reshape(k, side, side)
    labels = ["party " + "+".join(str(p) for p in g) for g in groups]

    def _finish(out):
        """Undo the group-major layout."""
        back = [0] + [1 + b for b in np.argsort(axes)]
        out = out.reshape((k,) + tuple(dims[p] for p in order) * 2).transpose(back)
        return hermitize(out.reshape(k, side, side))

    def reduction(m, g):
        L, D, R = blocks[g]
        return np.einsum("kaibajb->kij", m.reshape(len(m), L, D, R, L, D, R))

    def reductions(m):
        return [reduction(m, g) for g in range(len(blocks))]

    # eigh and eigvalsh read one triangle of their (Hermitian up to
    # rounding) input, so the reductions are not hermitized first
    def residual(reds):
        """Largest trace distance of a group reduction from 1/d_g, per row."""
        res = np.zeros(len(m))
        for red, eye in zip(reds, mixed):
            res = np.maximum(res, np.abs(np.linalg.eigvalsh(red - eye)).sum(axis=1) / 2)
        return res

    def record(reds):
        dets = np.ones(len(idx))
        for D, red in zip(sizes, reds):
            dets = dets * np.linalg.det(D * red).real
        for i, det in zip(idx, dets):
            history[i].append(float(det))

    out = np.full_like(m, np.nan)
    sweeps = np.zeros(k, dtype=int)
    errors = [None] * k
    idx = np.arange(k)  # the input row of each row still iterating
    # one set of reductions per sweep serves the history, the residual and
    # the next sweep's first filter
    reds = reductions(m)
    if history is not None:
        record(reds)
    res = residual(reds)
    sweep = 0
    while len(idx):
        done = ~(res > tol)
        if sweep >= max_iters:
            for i, r in zip(idx[~done], res[~done]):
                errors[i] = (f"filtering did not converge in {max_iters} sweeps "
                             f"(last residual {r:.3e})")
            out[idx[done]] = m[done]
            sweeps[idx] = sweep
            break
        if done.any():
            out[idx[done]] = m[done]
            sweeps[idx[done]] = sweep
            go = ~done
            m, idx, reds = m[go], idx[go], [red[go] for red in reds]
            if not len(idx):
                break
        for g, (L, D, R) in enumerate(blocks):
            red = reds[0] if g == 0 else reduction(m, g)
            w, v = np.linalg.eigh(D * red)
            bad = w[:, 0] <= RANK_TOL  # eigh sorts ascending
            if bad.any():
                for i, w_min in zip(idx[bad], w[bad, 0]):
                    errors[i] = _rank_deficient(labels[g], w_min)
                    sweeps[i] = sweep
                go = ~bad
                m, idx, w, v = m[go], idx[go], w[go], v[go]
                if not len(idx):
                    return _finish(out), sweeps, errors
            f = (v * w[:, None, :] ** -0.5) @ v.conj().swapaxes(1, 2)
            rows = len(m)
            m = (f[:, None] @ m.reshape(rows, L, D, R * side)).reshape(rows, side * L, D, R)
            m = (f.conj()[:, None] @ m).reshape(rows, side, side)
            m = m / m.trace(axis1=1, axis2=2).real[:, None, None]
        sweep += 1
        reds = reductions(m)
        if history is not None:
            record(reds)
        res = residual(reds)
    return _finish(out), sweeps, errors
