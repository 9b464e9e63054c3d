"""Separability bounds on the correlation minor norm, the dVH trace-norm
criterion, and the detection sweep over every reduced state."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np

from .cmn import CmnParams, elementary_symmetric, minor_norm
from .linalg import DensityMatrix, density_violations, partial_trace_raw, singular_values
from .normal_form import DEFAULT_TOL, filter_cuts, fnf_residuals
from .tensor import Bipartition, _matricize_array, build_stack, iter_bipartitions

EPS_CMP = 1e-9  # relative comparison tolerance for value-vs-bound verdicts
FILTER_BAND = 1e-6  # relative margin a filtered report must exceed to be violated (empirical)
FILTERED = "after SLOCC filtering"  # the note that starts a filtered report's reason


@dataclass(frozen=True)
class BoundReport:
    """Verdict of one criterion on one partition."""

    partition: Bipartition
    criterion: str
    value: float
    bound: float
    violated: bool
    saturated: bool
    preconditions_met: bool
    reason: str = ""

    def partition_label(self):
        return self.partition.label()


def compare(value, bound):
    """Classify value against bound with the relative tolerance EPS_CMP:
    (violated, saturated), as bools for scalars and elementwise for arrays.

    Saturation (|value - bound| within tolerance) is never reported as a
    violation.
    """
    scale = np.maximum(np.maximum(np.abs(bound), np.abs(value)), 1e-300)
    rel = np.subtract(value, bound) / scale
    flags = rel > EPS_CMP, np.abs(rel) <= EPS_CMP
    return tuple(map(bool, flags)) if np.ndim(rel) == 0 else flags


def bisep_bound_inf(d_a, d_b, h) -> float:
    """Bound on M_{h,∞} for bi-separable states in FNF under the A/B cut: the
    fully-separable bound of the two-party profile (d_A, d_B)."""
    return fullsep_bound_inf((d_a, d_b), h)


def bisep_preconditions_inf(d_a, d_b, h):
    d = min(d_a, d_b)
    if h * h < d_a * d_b and h != d * d:  # at h = d^2 this is the p=1 test
        return False, f"h={h} below sqrt(d_A d_B)={math.sqrt(d_a * d_b):g}"
    if h > d * d:
        return False, f"h={h} exceeds d^2={d * d}"
    return True, ""


def bisep_bound_p1(d_a, d_b, h) -> float:
    """Bound on M_{h,1} for bi-separable states in FNF under the A/B cut: the
    fully-separable bound of the two-party profile (d_A, d_B)."""
    if h < 2:
        raise ValueError("the p=1 bound needs h > 1")
    return fullsep_bound_p1((d_a, d_b), h, min(d_a, d_b) ** 2)


def bisep_preconditions_p1(d_a, d_b, h):
    d, big = min(d_a, d_b), max(d_a, d_b)
    if h <= 1:
        return False, "h must exceed 1"
    if h > d * d:
        return False, f"h={h} exceeds d^2={d * d}"
    if big > d**3:
        # only the tightness guarantee needs D <= d^3; the bound still holds
        return True, f"tightness condition D<=d^3 not met (D={big}, d={d})"
    return True, ""


def fullsep_bound_inf(dims, h) -> float:
    """Bound on M_{h,∞} for fully-separable states in SFNF, any matricization."""
    if h < 2:
        raise ValueError("the p=inf bound needs h >= 2")
    # alpha * beta^(h-1) / (h-1)^(h-1) as one square root of a ratio of exact
    # integers, so clean cases like 1/1728 come out exactly rounded
    num = math.prod((d - 1) ** (h - 1) for d in dims)
    den = math.prod(d**h for d in dims)
    big = (h - 1) ** (h - 1)  # past the float range from h = 145, where the bound is subnormal
    return math.sqrt(num / den) / big if h <= 144 else math.sqrt(num / den) * (1 / big)


def fullsep_preconditions_inf(dims, h, min_side_sq):
    need = math.prod(d - 1 for d in dims)  # h >= prod(sqrt(d_i-1)), in integers
    if h * h < need and h != min_side_sq:  # at h = d^2 this is the p=1 test
        return False, f"h={h} below prod(sqrt(d_i-1))={math.sqrt(need):g}"
    if h < 2:  # reached only by h = 1 on qubits, where need is 1
        return False, "h must exceed 1"
    if h > min_side_sq:
        return False, f"h={h} exceeds d^2={min_side_sq}"
    return True, ""


def fullsep_bound_p1(dims, h, min_side_sq) -> float:
    """Bound on M_{h,1} for fully-separable states in SFNF; ``min_side_sq``
    is d² of the chosen matricization."""
    if h == min_side_sq:  # S_h of h values is their product
        return fullsep_bound_inf(dims, h)
    alpha, beta = 1 / math.sqrt(math.prod(dims)), dvh_fullsep_bound(dims)
    xs = [alpha] + [beta / (min_side_sq - 1)] * (min_side_sq - 1)
    return elementary_symmetric(h, xs)


def fullsep_preconditions_p1(dims, h, min_side_sq):
    if h < 1:
        return False, "h must be >= 1"
    if h > min_side_sq:
        return False, f"h={h} exceeds d^2={min_side_sq}"
    return True, ""


def dvh_fullsep_bound(dims) -> float:
    """dVH trace-norm bound for fully-separable states (every matricization)."""
    # one square root of a ratio of exact integers, as in fullsep_bound_inf
    return math.sqrt(math.prod(d - 1 for d in dims) / math.prod(dims))


def dvh_bisep_bound_3qubit() -> float:
    """dVH trace-norm bound for three-qubit bi-separable states."""
    return math.sqrt(3 / 8)


@dataclass(frozen=True)
class Criterion:
    """A separability criterion: its value on one cut, and the bound that no
    state of its ``kind`` ("bisep" across the cut, or "full") exceeds when the
    preconditions hold. ``p`` is the Schatten exponent of M_{h,p}, which
    assumes the (S)FNF, or None for the dVH trace norm, which assumes no
    normal form. ``bound`` and ``preconditions`` take (dims, d_A, d_B, h);
    ``preconditions`` returns (ok, reason)."""

    kind: str
    p: float | None
    bound: Callable
    preconditions: Callable

    def values(self, tensors, part, h):
        """For each correlation tensor in the stack ``tensors`` (shape
        (k, d₁², …)), M_{h,p} of its matricization across the cut, or the
        dVH trace norm of its interior's, from one batched SVD."""
        return self.from_spectra(singular_values(self.matrices(tensors, part)), h)

    def matrices(self, tensors, part):
        """Each tensor's matricization across the cut (its interior's for dVH)."""
        if self.p is None:
            tensors = tensors[(slice(None),) + (slice(1, None),) * part.n_parties]
        return _matricize_array(tensors, part)

    def from_spectra(self, sigma, h):
        """The values of the :meth:`matrices` whose spectra are the rows of ``sigma``."""
        if self.p is None:
            return sigma.sum(axis=1)
        return minor_norm(sigma, CmnParams(h, self.p))


def _dvh_bisep_preconditions(dims, d_a, d_b, h):
    if tuple(dims) == (2, 2, 2):
        return True, ""
    return False, "dVH bi-separable bound is only known for (2,2,2)"


CRITERIA = {
    "cmn-bisep-inf": Criterion(
        "bisep", math.inf,
        lambda dims, d_a, d_b, h: bisep_bound_inf(d_a, d_b, h),
        lambda dims, d_a, d_b, h: bisep_preconditions_inf(d_a, d_b, h)),
    "cmn-bisep-p1": Criterion(
        "bisep", 1.0,
        lambda dims, d_a, d_b, h: bisep_bound_p1(d_a, d_b, h),
        lambda dims, d_a, d_b, h: bisep_preconditions_p1(d_a, d_b, h)),
    "cmn-full-inf": Criterion(
        "full", math.inf,
        lambda dims, d_a, d_b, h: fullsep_bound_inf(dims, h),
        lambda dims, d_a, d_b, h: fullsep_preconditions_inf(dims, h, min(d_a, d_b) ** 2)),
    "cmn-full-p1": Criterion(
        "full", 1.0,
        lambda dims, d_a, d_b, h: fullsep_bound_p1(dims, h, min(d_a, d_b) ** 2),
        lambda dims, d_a, d_b, h: fullsep_preconditions_p1(dims, h, min(d_a, d_b) ** 2)),
    "dvh-full": Criterion(
        "full", None,
        lambda dims, d_a, d_b, h: dvh_fullsep_bound(dims),
        lambda dims, d_a, d_b, h: (True, "")),
    "dvh-bisep": Criterion(
        "bisep", None,
        lambda dims, d_a, d_b, h: dvh_bisep_bound_3qubit(),
        _dvh_bisep_preconditions),
}
# the M_{h,p} entry of each (kind, p)
_CMN_NAMES = {(c.kind, c.p): name for name, c in CRITERIA.items() if c.p is not None}


@dataclass(frozen=True)
class DetectConfig:
    """Detection sweep configuration. ``h = None`` selects h = d² per
    matricization; ``ps`` chooses which Schatten exponents to evaluate."""

    h: int | None = None
    ps: tuple = (math.inf, 1.0)
    filter: bool = True
    recursive: bool = True
    fnf_tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class DetectionVerdict:
    dims: tuple
    reports: tuple  # one BoundReport per (partition, criterion)
    reduced: tuple  # (kept_parties, DetectionVerdict) pairs; shared across paths
    not_fully_separable: bool
    bi_entangled_partitions: tuple

    def subsets(self):
        """(parties, verdict) for each distinct reduced state, with parties as
        indices into this state's parties, in first-visit (depth-first) order."""
        seen = {}

        def visit(verdict, parties):
            for keep, sub in verdict.reduced:
                key = tuple(parties[k] for k in keep)
                if key not in seen:
                    seen[key] = sub
                    visit(sub, key)

        visit(self, tuple(range(len(self.dims))))
        return list(seen.items())


@lru_cache(maxsize=None)
def _cut_plan(dims, j, h, ps, kind):
    """The ``kind`` entries on cut ``j`` of :func:`iter_bipartitions`: the M_{h,p}
    entry of ``kind`` for each p in ``ps``, in order, then, in the full sweep,
    every dVH entry. Each is (criterion name, h, whether the cut's normal-form
    gate applies, preconditions hold, reason, bound, the spectrum length)."""
    part = iter_bipartitions(len(dims))[j]
    d_a, d_b = part.side_dims(dims)
    h = min(d_a, d_b) ** 2 if h is None else h
    # (name, whether the gate applies, reason it is inconclusive whatever the state)
    jobs = [(_CMN_NAMES[kind, p], True, "") if (kind, p) in _CMN_NAMES else
            (f"cmn-{kind}-p{p:g}", False, f"no separability bound for p={p:g}") for p in ps]
    if kind == "full":
        # the dVH trace norms need no normal form, so they read the unfiltered tensor
        jobs += [(name, False, "") for name, c in CRITERIA.items() if c.p is None]
    plan = []
    for name, gated, fail in jobs:
        ok, why = (False, fail) if fail else CRITERIA[name].preconditions(dims, d_a, d_b, h)
        bound = float(CRITERIA[name].bound(dims, d_a, d_b, h)) if ok else None
        if ok and bound < sys.float_info.min:  # a subnormal or zero bound certifies nothing
            ok, why, bound = False, f"h={h} bound {bound:.3g} is below the normal float range", None
        size = [d * d - (ok and CRITERIA[name].p is None) for d in dims]  # dVH: the interior
        rank = min(math.prod(size[i] for i in part.side_a), math.prod(size[i] for i in part.side_b))
        plan.append((name, h, gated, ok, why, bound, rank))
    return plan


def _state_reports(states, checked, cfg):
    """The reports of each state of ``states`` (content -> matrix), one tuple
    per state, keyed like ``states``. The matrices whose contents are not in
    ``checked``, and the matrices that :func:`filter_cuts` returns, are
    checked and built as one stack per dims; the text of the first invariant
    a matrix violates (:func:`density_violations`, per row) gates every
    report that would read it. Each stack's FNF residuals come from one pass
    over it. The cuts whose residual exceeds ``cfg.fnf_tol`` are filtered
    side-wise, each (stack, cut position, whole or interior) matricization
    is cut once, and the spectra that the reports read come from one SVD per
    matrix shape."""
    tol, ps = cfg.fnf_tol, tuple(cfg.ps)
    stacks, at, lost = {}, {}, {}  # at: key -> (stack, row, FNF residual of each cut)

    def admit(items, what):  # key -> (dims, matrix), one stack per dims
        by_dims = {}
        for key, (dims, _) in items.items():
            by_dims.setdefault(dims, []).append(key)
        for dims, keys in by_dims.items():
            rows = np.stack([items[key][1] for key in keys])
            todo = [i for i, key in enumerate(keys) if key not in checked]
            texts = density_violations(rows[todo]) if todo else []
            lost.update((keys[i], f"{what} state failed the state checks: {why}")
                        for i, why in zip(todo, texts) if why)
            ok = [i for i, key in enumerate(keys) if key not in lost]
            stacks[dims, what] = build_stack(rows if len(ok) == len(keys) else rows[ok], dims)
            table = fnf_residuals(stacks[dims, what]).tolist()
            at.update((keys[i], ((dims, what), row, table[row])) for row, i in enumerate(ok))

    admit({m: (m[0], states[m]) for m in states}, "reduced")
    # only an M_{h,p} entry reads the filtered tensor
    wanted = cfg.filter and any(("bisep", p) in _CMN_NAMES for p in cfg.ps)
    cuts = [(m, j) for m in states if m in at and wanted
            for j, r in enumerate(at[m][2]) if r > tol]
    out = filter_cuts([(m[0], states[m], iter_bipartitions(len(m[0]))[j]) for m, j in cuts], tol)
    lost.update((cut, o) for cut, o in zip(cuts, out) if isinstance(o, str))
    admit({cut: (cut[0][0], o) for cut, o in zip(cuts, out) if not isinstance(o, str)},
          "filtered")

    matrices, pending, reports = {}, {}, {}  # (stack, j, interior) -> [criterion, part, {row: i}]
    for m in states:
        lost_m = lost.get(m, "")  # gates every report of the state
        own = [] if lost_m else at[m][2]
        # every proper subset of the parties is one side of a cut, so the
        # largest unfiltered cut residual is the SFNF residual
        sfnf = max(own, default=0.0)
        sfnf_gate = lost_m or ("" if sfnf <= tol else f"not in SFNF (residual {sfnf:.3e})")
        node = reports[m] = []
        for kind in ("bisep", "full"):
            for j, part in enumerate(iter_bipartitions(len(m[0]))):
                src, gate, note = at.get(m), sfnf_gate, ""
                if kind == "bisep" and not lost_m:
                    r = own[j]
                    if (m, j) in at:
                        src, note = at[m, j], FILTERED
                        r = src[2][j]
                    gate = "" if r <= tol else lost.get((m, j), f"not in FNF (residual {r:.3e})")
                for name, h, gated, ok, why, bound, rank in _cut_plan(m[0], j, cfg.h, ps, kind):
                    if lost_m or gated and gate or not ok:
                        why, nan = lost_m or (gate if gated and gate else why), math.nan
                        node.append(BoundReport(part, name, nan, nan, False, False, False, why))
                        continue
                    key = (src[0], j, CRITERIA[name].p is None)
                    rows = matrices.setdefault(key, [CRITERIA[name], part, {}])[2]
                    pending.setdefault((name, h, rank), []).append(
                        (node, len(node), key, rows.setdefault(src[1], len(rows)), bound,
                         "; ".join(filter(None, (note if gated else "", why)))))
                    node.append(part)  # until its value is known

    # one SVD per matrix shape, then one value and compare call per (criterion, h, rank)
    by_shape, spectra = {}, {}
    for key, (criterion, part, rows) in matrices.items():
        tensors = stacks[key[0]]
        if list(rows) != list(range(len(tensors))):  # only the rows some report reads
            tensors = tensors[list(rows)]
        mats = criterion.matrices(tensors, part)
        by_shape.setdefault(mats.shape[1:], []).append((key, mats))
    for group in by_shape.values():
        sigma = singular_values(np.concatenate([mats for _, mats in group]))
        ends = accumulate(len(mats) for _, mats in group)
        spectra.update((key, sigma[end - len(mats):end]) for (key, mats), end in zip(group, ends))
    for (name, h, _), entries in pending.items():
        sigma = np.stack([spectra[key][i] for _, _, key, i, _, _ in entries])
        values = CRITERIA[name].from_spectra(sigma, h)
        violated, saturated = compare(values, np.array([e[4] for e in entries]))
        rows = zip(entries, values.tolist(), violated.tolist(), saturated.tolist())
        for (node, i, _, _, bound, why), value, v, s in rows:
            # a filtered state lies a residual away from the FNF that the bound assumes
            if v and why.startswith(FILTERED) and value - bound <= FILTER_BAND * bound:
                v, s = False, True
                why = why.replace(FILTERED, f"{FILTERED}; within the empirical filtering band", 1)
            node[i] = BoundReport(node[i], name, value, bound, v, s, True, why)
    return {m: tuple(node) for m, node in reports.items()}


def detect(rho: DensityMatrix, cfg: DetectConfig = DetectConfig()) -> DetectionVerdict:
    """Run every separability criterion on ``rho`` and on each of its
    reductions down to bipartite states.

    Reductions trace out one party at a time, so the subsets of parties form
    a DAG. Each subset is reduced from its first parent in depth-first order
    (the subset plus its largest missing party), once per distinct parent
    state and kept positions. The reports are a function of the state's
    bytes, so the DAG's distinct states (one per subset size on a
    permutation-symmetric state) are analyzed together, in one pass, and
    the subsets holding equal states share one reports tuple; a reduction
    is traced as a plain matrix and checked as a state there, once. The
    verdicts are then assembled smallest subset first: each subset gets its
    own, which reads its own reductions, and every path through the DAG
    shares it."""
    n = len(rho.dims)
    if n < 2:
        raise ValueError(f"detect needs at least two parties, got {n}")
    whole = tuple(range(n))
    content = {whole: (rho.dims, rho.data.tobytes())}  # each subset's state content
    matrix = {content[whole]: rho.data}  # each distinct state's matrix, by content
    traced = {}  # (parent's content, kept positions) -> the reduced state's content
    for size in range(n - 1, 1 if cfg.recursive else n, -1):
        for subset in combinations(range(n), size):
            parent = tuple(sorted(subset + (max(set(whole) - set(subset)),)))
            keep = tuple(parent.index(p) for p in subset)
            edge = content[parent], keep
            if edge not in traced:
                data = partial_trace_raw(matrix[content[parent]], content[parent][0], keep)
                traced[edge] = tuple(rho.dims[p] for p in subset), data.tobytes()
                matrix.setdefault(traced[edge], data)
            content[subset] = traced[edge]
    reports_of = _state_reports(matrix, {content[whole]}, cfg)
    own = {}  # each distinct state's bi-entangled cuts, and whether its own reports rule out
    for m, reports in reports_of.items():  # full separability
        bi_entangled = tuple(sorted({r.partition_label() for r in reports if r.violated
                                     and CRITERIA[r.criterion].kind == "bisep"}))
        own[m] = bi_entangled, bool(bi_entangled) or any(
            r.violated and CRITERIA[r.criterion].kind == "full" for r in reports)
    verdicts = {}
    for parties in sorted(content, key=len):
        bi_entangled, not_full = own[content[parties]]
        reduced = tuple(
            (keep, verdicts[tuple(parties[i] for i in keep)])
            for keep in reversed(list(combinations(range(len(parties)), len(parties) - 1)))
        ) if cfg.recursive and len(parties) > 2 else ()
        # entanglement anywhere in a reduction rules out full separability too
        not_full = not_full or any(sub.not_fully_separable or sub.bi_entangled_partitions
                                   for _, sub in reduced)
        verdicts[parties] = DetectionVerdict(content[parties][0], reports_of[content[parties]],
                                             reduced, not_full, bi_entangled)
    return verdicts[whole]
