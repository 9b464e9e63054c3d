"""Separability bounds on the correlation minor norm, the dVH trace-norm
criterion, and the detection sweep over every reduced state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmn import CmnParams, cmn, elementary_symmetric
from .linalg import DensityMatrix, partial_trace, singular_values
from .normal_form import FilteringError, filter_to_fnf, fnf_residual, sfnf_residual
from .tensor import (
    build,
    interior,
    iter_bipartitions,
    matricize,
    matricize_interior,
)

EPS_CMP = 1e-9  # relative comparison tolerance for value-vs-bound verdicts

CRITERIA = (
    "cmn-bisep-inf",
    "cmn-bisep-p1",
    "cmn-full-inf",
    "cmn-full-p1",
    "dvh-full",
    "dvh-bisep",
)


@dataclass(frozen=True)
class BoundReport:
    """Verdict of one criterion on one partition."""

    partition: object  # Bipartition or the string "full"
    criterion: str
    value: float
    bound: float
    violated: bool
    saturated: bool
    preconditions_met: bool
    reason: str = ""

    def partition_label(self):
        return self.partition if isinstance(self.partition, str) else self.partition.label()


def compare(value, bound):
    """Classify value against bound with the relative tolerance EPS_CMP.

    Saturation (|value - bound| within tolerance) is never reported as a
    violation.
    """
    scale = max(abs(bound), abs(value), 1e-300)
    rel = (value - bound) / scale
    saturated = abs(rel) <= EPS_CMP
    violated = (not saturated) and rel > EPS_CMP
    return violated, saturated


def _report(partition, criterion, value, bound, ok=True, reason=""):
    if ok:
        violated, saturated = compare(value, bound)
    else:
        violated = saturated = False
    return BoundReport(partition, criterion, float(value), float(bound), violated,
                       saturated, ok, reason)


def bisep_bound_inf(d_a, d_b, h) -> float:
    """Bound on M_{h,∞} for bi-separable states in FNF under the A/B cut."""
    if h < 2:
        raise ValueError("the p=inf bound needs h >= 2")
    # alpha * beta^(h-1) / (h-1)^(h-1) arranged as a single square root of a
    # ratio of integers, so clean cases like 1/1728 come out exactly rounded
    num = ((d_a - 1) * (d_b - 1)) ** (h - 1)
    den = (d_a * d_b) ** h
    return math.sqrt(num / den) / (h - 1) ** (h - 1)


def bisep_preconditions_inf(d_a, d_b, h):
    d = min(d_a, d_b)
    if h < math.sqrt(d_a * d_b):
        return False, f"h={h} below sqrt(d_A d_B)={math.sqrt(d_a * d_b):g}"
    if h > d * d:
        return False, f"h={h} exceeds d^2={d * d}"
    return True, ""


def bisep_bound_p1(d_a, d_b, h) -> float:
    """Bound on M_{h,1} for bi-separable states in FNF under the A/B cut."""
    if h < 2:
        raise ValueError("the p=1 bound needs h > 1")
    d2 = min(d_a, d_b) ** 2
    alpha = 1 / math.sqrt(d_a * d_b)
    beta = math.sqrt((d_a - 1) * (d_b - 1) / (d_a * d_b))
    xs = [alpha] + [beta / (d2 - 1)] * (d2 - 1)
    return elementary_symmetric(h, xs)


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
    num = int(np.prod([(d - 1) ** (h - 1) for d in dims]))
    den = int(np.prod([d**h for d in dims]))
    return math.sqrt(num / den) / (h - 1) ** (h - 1)


def fullsep_preconditions_inf(dims, h, min_side_sq):
    need = float(np.prod([math.sqrt(d - 1) for d in dims]))
    if h < need:
        return False, f"h={h} below prod(sqrt(d_i-1))={need:g}"
    if h > min_side_sq:
        return False, f"h={h} exceeds d^2={min_side_sq}"
    return True, ""


def fullsep_bound_p1(dims, h, min_side_sq) -> float:
    """Bound on M_{h,1} for fully-separable states in SFNF; ``min_side_sq``
    is d² of the chosen matricization."""
    alpha = float(np.prod([1 / math.sqrt(d) for d in dims]))
    beta = float(np.prod([math.sqrt((d - 1) / d) for d in dims]))
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
    return float(np.prod([math.sqrt((d - 1) / d) for d in dims]))


def dvh_interior_sum(w_flat) -> float:
    """Trace norm (sum of singular values) of a matricized interior tensor."""
    return float(singular_values(w_flat).sum())


def dvh_bisep_bound_3qubit() -> float:
    """dVH trace-norm bound for three-qubit bi-separable states."""
    return math.sqrt(3 / 8)


@dataclass(frozen=True)
class DetectConfig:
    """Detection sweep configuration. ``h = None`` selects h = d² per
    matricization; ``ps`` chooses which Schatten exponents to evaluate."""

    h: int | None = None
    ps: tuple = (math.inf, 1.0)
    filter: bool = True
    recursive: bool = True
    fnf_tol: float = 1e-9
    filter_max_iters: int = 500


@dataclass(frozen=True)
class DetectionVerdict:
    dims: tuple
    reports: tuple  # per-partition and "full" BoundReports
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

    def all_reports(self):
        out = list(self.reports)
        for _, sub in self.subsets():
            out.extend(sub.reports)
        return out


def _h_for(cfg, min_side_sq):
    return min_side_sq if cfg.h is None else cfg.h


def _has_bound(p):
    return math.isinf(p) or p == 1


def _criterion(kind, p):
    return f"cmn-{kind}-inf" if math.isinf(p) else f"cmn-{kind}-p{p:g}"


def _unbounded(part, kind, p):
    """Inconclusive report for a p with no known separability bound."""
    return _report(part, _criterion(kind, p), math.nan, math.nan, ok=False,
                   reason=f"no separability bound for p={p:g}")


def _bisep_reports(tensor, dims, part, cfg, rho):
    reports = []
    fnf_res = fnf_residual(tensor, part)
    work = tensor
    fnf_note = ""
    failed = ""
    # only a bounded p reads the filtered tensor
    if fnf_res > cfg.fnf_tol and cfg.filter and any(map(_has_bound, cfg.ps)):
        try:
            filtered = filter_to_fnf(
                rho,
                max_iters=cfg.filter_max_iters,
                tol=cfg.fnf_tol,
                groups=[part.side_a, part.side_b],
            )
            work = build(filtered)
            fnf_res = fnf_residual(work, part)
            fnf_note = "after SLOCC filtering; "
        except FilteringError as exc:
            failed = str(exc)
    fnf_ok = fnf_res <= cfg.fnf_tol

    d_a = int(np.prod([dims[i] for i in part.side_a]))
    d_b = int(np.prod([dims[i] for i in part.side_b]))
    m = matricize(work, part)
    min_side_sq = min(d_a, d_b) ** 2
    h = _h_for(cfg, min_side_sq)
    for p in cfg.ps:
        if not _has_bound(p):
            reports.append(_unbounded(part, "bisep", p))
            continue
        crit = _criterion("bisep", p)
        if math.isinf(p):
            ok, why = bisep_preconditions_inf(d_a, d_b, h)
        else:
            ok, why = bisep_preconditions_p1(d_a, d_b, h)
        if not fnf_ok:
            ok, why = False, failed or f"not in FNF (residual {fnf_res:.3e})"
        if not ok:
            reports.append(_report(part, crit, math.nan, math.nan, ok=False, reason=why))
            continue
        value = cmn(m, CmnParams(h, p))
        bound = bisep_bound_inf(d_a, d_b, h) if math.isinf(p) else bisep_bound_p1(d_a, d_b, h)
        reports.append(_report(part, crit, value, bound, reason=fnf_note + why))
    return reports


def _fullsep_reports(tensor, dims, cfg):
    reports = []
    sfnf_res = sfnf_residual(tensor)
    sfnf_ok = sfnf_res <= cfg.fnf_tol
    w = interior(tensor)
    dvh_bound = dvh_fullsep_bound(dims)
    for part in iter_bipartitions(len(dims)):
        d_a = int(np.prod([dims[i] for i in part.side_a]))
        d_b = int(np.prod([dims[i] for i in part.side_b]))
        min_side_sq = min(d_a, d_b) ** 2
        h = _h_for(cfg, min_side_sq)
        m = matricize(tensor, part)
        for p in cfg.ps:
            if not _has_bound(p):
                reports.append(_unbounded(part, "full", p))
                continue
            crit = _criterion("full", p)
            if math.isinf(p):
                ok, why = fullsep_preconditions_inf(dims, h, min_side_sq)
            else:
                ok, why = fullsep_preconditions_p1(dims, h, min_side_sq)
            if not sfnf_ok:
                ok, why = False, f"not in SFNF (residual {sfnf_res:.3e})"
            if not ok:
                reports.append(_report(part, crit, math.nan, math.nan, ok=False, reason=why))
                continue
            value = cmn(m, CmnParams(h, p))
            bound = (fullsep_bound_inf(dims, h) if math.isinf(p)
                     else fullsep_bound_p1(dims, h, min_side_sq))
            reports.append(_report(part, crit, value, bound, reason=why))
        # dVH needs no normal-form assumption
        w_flat = matricize_interior(w, part)
        reports.append(_report(part, "dvh-full", dvh_interior_sum(w_flat), dvh_bound))
        if tuple(dims) == (2, 2, 2):
            reports.append(_report(part, "dvh-bisep", dvh_interior_sum(w_flat),
                                   dvh_bisep_bound_3qubit()))
        else:
            reports.append(_report(part, "dvh-bisep", math.nan, math.nan, ok=False,
                                   reason="dVH bi-separable bound is only known for (2,2,2)"))
    return reports


def detect(rho: DensityMatrix, cfg: DetectConfig = DetectConfig()) -> DetectionVerdict:
    """Run every separability criterion on ``rho`` and on each of its
    reductions down to bipartite states.

    Reductions trace out one party at a time, so the subsets of parties form
    a DAG: a subset reached along several paths is analyzed once, from the
    state on the first path that reaches it, and every later path shares
    that verdict."""
    return _detect(rho, tuple(range(len(rho.dims))), cfg, {})


def _detect(rho, parties, cfg, seen):
    """``parties`` names rho's parties in the outermost state; ``seen`` maps
    every subset analyzed so far to its verdict."""
    dims = rho.dims
    tensor = build(rho)
    reports = []
    for part in iter_bipartitions(len(dims)):
        reports.extend(_bisep_reports(tensor, dims, part, cfg, rho))
    reports.extend(_fullsep_reports(tensor, dims, cfg))

    reduced = []
    if cfg.recursive and len(dims) > 2:
        for dropped in range(len(dims)):
            keep = tuple(i for i in range(len(dims)) if i != dropped)
            key = tuple(parties[i] for i in keep)
            if key not in seen:
                seen[key] = _detect(partial_trace(rho, keep), key, cfg, seen)
            reduced.append((keep, seen[key]))

    bi_entangled = tuple(sorted(
        {r.partition_label() for r in reports
         if r.violated and r.criterion in ("cmn-bisep-inf", "cmn-bisep-p1", "dvh-bisep")}
    ))
    # entanglement anywhere in a reduction rules out full separability too
    not_full = any(
        r.violated and r.criterion in ("cmn-full-inf", "cmn-full-p1", "dvh-full")
        for r in reports
    ) or bool(bi_entangled) or any(
        sub.not_fully_separable or sub.bi_entangled_partitions for _, sub in reduced
    )
    return DetectionVerdict(dims, tuple(reports), tuple(reduced), not_full, bi_entangled)
