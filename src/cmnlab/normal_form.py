"""The FNF residual of a cut, the SLOCC filtering iteration that drives
local reductions to the maximally mixed state, and its failure texts."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, hermitize, permute_parties
from .tensor import iter_bipartitions

RANK_TOL = 1e-8
# a rank-deficient reduction's min eigenvalue at or below this magnitude is
# rounding noise, and its digits would only echo the summation order
EIG_NOISE = 1e-12
DEFAULT_TOL = 1e-9
# the sweep budget: the last checkpoint, where every running row fails
MAX_SWEEPS = 500
# A run whose residual falls like a power of the sweep count k, not
# geometrically, has stalled (on the boundary of the scalable set, as W-n's
# two-qubit reductions do): at each k in STALL_SWEEPS a running row whose
# log2(res_{k/2} / res_k) is below STALL_EXPONENT stops. RESULTS.md gives
# the margin measured on runs that converge.
STALL_SWEEPS = (64, 128, 256)
STALL_EXPONENT = 1.25


class FilteringError(RuntimeError):
    """Raised when a state cannot be brought to filter normal form."""


@lru_cache(maxsize=None)
def _side_masks(n):
    """The two sides of each cut of n parties, in :func:`iter_bipartitions`
    order, as bit masks with party i at bit n - 1 - i; shape (cuts, 2)."""
    masks = np.array([[sum(1 << (n - 1 - p) for p in side) for side in (part.side_a, part.side_b)]
                      for part in iter_bipartitions(n)])
    masks.setflags(write=False)
    return masks


def fnf_residuals(tensors):
    """The FNF residual of each correlation tensor of the stack ``tensors``
    (shape (k, d₁², …)) across each cut, in :func:`iter_bipartitions`
    order; shape (k, number of cuts). A cut's residual is the largest
    |entry| whose non-identity indices all lie on one side of the cut,
    vertex excluded: zero iff both side reductions are maximally mixed,
    which is FNF across the cut.

    A set of parties' face is the slice of the tensor whose index is the
    identity on every other party. With the vertex zeroed, reducing each
    party axis to two entries, its identity entry and its largest, leaves
    the largest |entry| of every face on a (2,)*n grid, party i at bit
    n - 1 - i; a cut's residual is the larger of its two sides' faces."""
    k, n = len(tensors), tensors.ndim - 1
    faces = np.abs(tensors)
    faces[(slice(None),) + (0,) * n] = 0  # the vertex
    for axis in range(1, n + 1):
        faces = np.concatenate([faces.take([0], axis=axis), faces.max(axis=axis, keepdims=True)],
                               axis=axis)
    return faces.reshape(k, 2**n)[:, _side_masks(n)].max(axis=2)


def group_label(group):
    """How a filtering error text names a party group."""
    return "party " + "+".join(str(p) for p in group)


def _rank_deficient(label, w_min):
    shown = f"{w_min:.3e}" if abs(w_min) > EIG_NOISE else f"within {EIG_NOISE:g} of 0"
    return (f"filtering not possible: reduction of {label} is rank deficient "
            f"(min eigenvalue {shown})")


def _stalled(sweep, res, alpha):
    return (f"filtering stalled after {sweep} sweeps: residual {res:.1e} "
            f"falls like k^{-alpha:.1f}, not geometrically")


def filter_to_fnf(rho: DensityMatrix, tol=DEFAULT_TOL, groups=None, history=None) -> DensityMatrix:
    """Bring ``rho`` to filter normal form by cyclic local filtering.

    Sweeps the party ``groups`` (default: each party separately) applying
    the filter (d_g · ρ_g)^{-1/2} on each group in turn, until every group
    reduction is within ``tol`` trace distance of 1/d_g. A bipartition can
    be passed as two groups to reach FNF with respect to that cut. Groups
    must be disjoint; a party in no group is never filtered. Raises
    FilteringError when a reduction is rank deficient, when the residual
    falls only like a power of the sweep count (see ``STALL_SWEEPS``), or
    when ``MAX_SWEEPS`` sweeps do not converge.

    If ``history`` is a list, the product of the normalized reduction
    determinants det(d_g ρ_g) is appended as each sweep starts, also the
    sweep where filtering stops or fails; this product is a standard
    non-decreasing convergence diagnostic.

    The one-row case of :func:`filter_stack`.
    """
    data, _, errors = filter_stack(rho.data[None], rho.dims, groups, tol,
                                   None if history is None else [history])
    if errors[0] is not None:
        raise FilteringError(errors[0])
    return DensityMatrix(rho.dims, data[0])


def filter_cuts(cuts, tol=DEFAULT_TOL):
    """Filter each (dims, matrix, part) of ``cuts``, a state over ``dims``, to
    FNF across its cut: for each, the filtered matrix (Hermitian, not
    validated as a state: an ill-conditioned filter can leave it slightly
    indefinite), or the text of the FilteringError that
    ``filter_to_fnf(DensityMatrix(dims, matrix), tol, [part.side_a,
    part.side_b])`` raises.

    Each matrix is permuted so that side A's parties come first, and the
    cuts that then share |A| and dims share one :func:`filter_stack` call,
    which gets each distinct permuted matrix once. Each cut that holds a
    matrix gets its result, permuted back to the cut's own party order, or
    its text, naming the cut's own parties.
    """
    shapes, seen, out = {}, {}, [None] * len(cuts)
    for i, (dims, data, part) in enumerate(cuts):
        order = part.side_a + part.side_b
        key = (len(part.side_a), tuple(dims[p] for p in order))
        row = permute_parties(np.asarray(data, complex), dims, order)  # one dtype for the bytes
        raw = row.tobytes()
        # diagonals hash far faster than matrices; equal ones compare bytes
        same = seen.setdefault((key, row.diagonal().tobytes()), [])
        held = next((held for other, held in same if other == raw), None)
        if held is None:
            same.append((raw, held := []))
            shapes.setdefault(key, []).append((row, held))
        held.append((i, order))
    for (k, dims), rows in shapes.items():
        groups = (tuple(range(k)), tuple(range(k, len(dims))))
        filtered, _, errors = filter_stack(np.stack([row for row, _ in rows]), dims, groups,
                                           tol, labels=("{0}", "{1}"))
        for (_, held), row, err in zip(rows, filtered, errors):
            for i, order in held:
                out[i] = (err.format(group_label(order[:k]), group_label(order[k:])) if err
                          else permute_parties(row, dims, [order.index(p) for p in sorted(order)]))
    return out


@lru_cache(maxsize=None)
def _layout(dims, groups):
    """:func:`filter_stack`'s static layout of ``dims`` split into ``groups``
    (tuples of parties, or None for one group per party): the group-major
    party order (None when it is party order), the side, each group's (L, D,
    R) block (the products of the group dimensions before, at and after it)
    and each group's label."""
    n = len(dims)
    if groups is None:
        groups = [(p,) for p in range(n)]
    groups = [tuple(sorted(int(p) for p in g)) for g in groups]
    order = [p for g in groups for p in g]
    if len(set(order)) != len(order):
        raise ValueError(f"filtering groups must be disjoint, got {groups}")
    order += [p for p in range(n) if p not in order]
    side = math.prod(dims)
    sizes = [math.prod(dims[p] for p in g) for g in groups]
    before = [math.prod(sizes[:g]) for g in range(len(sizes))]
    blocks = [(L, D, side // (L * D)) for L, D in zip(before, sizes)]
    return (None if order == list(range(n)) else tuple(order), side, blocks,
            tuple(group_label(g) for g in groups))


def filter_stack(data, dims, groups=None, tol=DEFAULT_TOL, history=None, labels=None):
    """:func:`filter_to_fnf` on each matrix of the stack ``data`` (shape
    (k, side, side), every state over ``dims``) at once.

    Returns ``(filtered, sweeps, errors)``: the filtered stack (Hermitian,
    not validated as states), the sweep count of each row, and for each row
    None or the text of the FilteringError that :func:`filter_to_fnf` raises
    on it (its ``filtered`` row is then NaN). A row leaves the stack when it
    converges, fails or reaches a checkpoint where it stalls, so its sweep
    count is that of its own run. If ``history`` is a list of k lists, each
    row's determinant products go to its own list. ``labels``, if given,
    holds how the error texts name each group (by default, by the group's
    parties).

    The iteration works on one group-major copy of each ρ (the parties of
    group 0 first, then group 1, ...; no copy when the groups already are in
    party order): a group reduction is one einsum trace, and the layout is
    undone once at the end. A group's filter F = 1_L ⊗ f ⊗ 1_R multiplies
    each of ρ's L row blocks, read as a D × R·side matrix, by f, so F·ρ·F†
    is taken as (F·(F·ρ)†)†: two matmuls batched over the same k·L row
    blocks, each followed by a conjugate transpose. The last transpose is
    not skipped: F·(F·ρ)† is F·ρ†·F†, and iterating on ρ†, which equals ρ
    only up to rounding, converges on fewer ill-conditioned cuts.
    """
    dims = tuple(dims)
    groups = None if groups is None else tuple(tuple(g) for g in groups)
    order, side, blocks, default_labels = _layout(dims, groups)
    labels = labels or default_labels
    m = data if order is None else permute_parties(data, dims, order)

    def reduction(m, g):
        L, D, R = blocks[g]
        return np.einsum("kaibajb->kij", m.reshape(len(m), L, D, R, L, D, R))

    # eigh and eigvalsh read one triangle of their (Hermitian up to
    # rounding) input, so the reductions are not hermitized first
    def residual(res, exact):
        """Largest trace distance Σ|w - 1|/(2D) of a group reduction from
        1/D, w the eigenvalues of D times it, per row, given group 0's in
        ``res``. Exact if ``exact``; else a row above tol may hold less."""
        for c in range(1, len(blocks)):
            ask = exact | ~(res > tol)
            if not ask.any():
                break
            D = blocks[c][1]
            w = np.linalg.eigvalsh(D * reduction(m, c)[ask])
            res[ask] = np.maximum(res[ask], np.abs(w - 1).sum(axis=1) / (2 * D))
        return res

    def record():
        dets = np.ones(len(idx))
        for c, (_, D, _) in enumerate(blocks):
            dets = dets * np.linalg.det(D * reduction(m, c)).real
        for i, det in zip(idx, dets):
            history[i].append(float(det))

    out = np.full_like(m, np.nan)
    sweeps = np.zeros(len(m), dtype=int)
    errors = [None] * len(m)
    idx = np.arange(len(m))  # the rows still iterating
    half = np.zeros(len(m))  # each row's residual at the last snapshot sweep
    step = 0  # one step filters one group
    while len(idx):
        sweep, g = divmod(step, len(blocks))
        L, D, R = blocks[g]
        if g == 0 and history is not None:
            record()
        w, v = np.linalg.eigh(D * reduction(m, g))
        if g == 0:
            # group 0's filter's eigh gives its residual; the residual's
            # value is read at the checkpoints, their snapshots and the
            # budget, and elsewhere only its side of tol
            exact = sweep in STALL_SWEEPS or 2 * sweep in STALL_SWEEPS or sweep >= MAX_SWEEPS
            res = residual(np.abs(w - 1).sum(axis=1) / (2 * D), exact)
            # a row stops here once converged, at a checkpoint sweep if it
            # has stalled, and at the budget (the last checkpoint) anyway
            stop = done = ~(res > tol)
            if sweep in STALL_SWEEPS:
                alpha = np.log2(half[idx] / res)
                stop = stop | (alpha < STALL_EXPONENT)
            if sweep >= MAX_SWEEPS:
                stop = np.ones_like(done)
            if 2 * sweep in STALL_SWEEPS:
                half[idx] = res
        bad = w[:, 0] <= RANK_TOL  # eigh sorts ascending
        leave = stop | bad if g == 0 else bad
        # the one place where rows leave: a converged row keeps its matrix,
        # and any other fails with the first reason that applies
        if leave.any():
            kept = done if g == 0 else np.zeros_like(leave)
            out[idx[kept]] = m[kept]
            sweeps[idx[leave]] = sweep
            for j in np.flatnonzero(leave & ~kept):
                if g or not stop[j]:
                    errors[idx[j]] = _rank_deficient(labels[g], w[j, 0])
                elif sweep >= MAX_SWEEPS:
                    errors[idx[j]] = (f"filtering did not converge in {sweep} sweeps "
                                      f"(last residual {res[j]:.3e})")
                else:
                    errors[idx[j]] = _stalled(sweep, res[j], alpha[j])
            go = ~leave
            m, idx, w, v = m[go], idx[go], w[go], v[go]
            if not len(idx):
                break
        f = ((v * w[:, None, :] ** -0.5) @ v.conj().swapaxes(1, 2))[:, None]
        # F·m·F† as (F·(F·m)†)†: twice f on each row block, then the
        # conjugate transpose
        for _ in range(2):
            m = f @ m.reshape(len(idx), L, D, R * side)
            m = np.conjugate(m.reshape(len(idx), side, side).swapaxes(1, 2), order="C")
        m /= m.trace(axis1=1, axis2=2).real[:, None, None]
        step += 1
    ok = np.array([e is None for e in errors], dtype=bool)
    done = out[ok]
    if order is not None:  # back to party order
        back = [order.index(p) for p in sorted(order)]
        done = permute_parties(done, [dims[p] for p in order], back)
    out[ok] = hermitize(done)
    return out, sweeps, errors
