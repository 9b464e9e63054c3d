"""Separability bounds on the correlation minor norm, the dVH trace-norm
criterion, and the detection sweep over every reduced state."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cmn import CmnParams, elementary_symmetric, spectrum_power
from .linalg import DensityMatrix, partial_trace, singular_values
from .normal_form import FilteringError, filter_to_fnf, fnf_residual, sfnf_residual
from .tensor import _matricize_array, build, iter_bipartitions

EPS_CMP = 1e-9  # relative comparison tolerance for value-vs-bound verdicts


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

    def value(self, tensor, part, h):
        """M_{h,p} of the cut's matricization, or the dVH trace norm of its
        interior; the one-row case of :meth:`values`."""
        return float(self.values(tensor.data[None], tensor.dims, part, h)[0])

    def values(self, tensors, dims, part, h):
        """:meth:`value` of each correlation tensor over ``dims`` in the
        stack ``tensors`` (shape (k, d₁², …)), from one batched SVD."""
        if self.p is None:
            sl = (slice(None),) + (slice(1, None),) * part.n_parties
            return singular_values(_matricize_array(tensors[sl], dims, part)).sum(axis=1)
        params = CmnParams(h, self.p)
        power = spectrum_power(singular_values(_matricize_array(tensors, dims, part)), params)
        return power if math.isinf(self.p) else power ** (1 / self.p)


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
    fnf_tol: float = 1e-9


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


def _cut_reports(tensor, dims, part, cfg, kind, gate, note=""):
    """Reports on one cut: the M_{h,p} entry of ``kind`` for each p in
    ``cfg.ps``, in order, then, in the full sweep, every dVH entry. A
    nonempty ``gate`` says why ``tensor`` is not in the normal form that the
    M_{h,p} bounds assume; ``note`` prefixes their reasons otherwise."""
    jobs = []  # (name, reason it is inconclusive whatever its preconditions, reason prefix)
    for p in cfg.ps:
        name = _CMN_NAMES.get((kind, p))
        if name is None:
            jobs.append((f"cmn-{kind}-p{p:g}", f"no separability bound for p={p:g}", ""))
        else:
            jobs.append((name, gate, note))
    if kind == "full":
        # the dVH trace norms need no normal form, so they read the unfiltered tensor
        jobs.extend((name, "", "") for name, c in CRITERIA.items() if c.p is None)

    d_a, d_b = part.side_dims(dims)
    h = min(d_a, d_b) ** 2 if cfg.h is None else cfg.h
    reports = []
    for name, fail, prefix in jobs:
        ok, why = (False, fail) if fail else CRITERIA[name].preconditions(dims, d_a, d_b, h)
        if not ok:
            reports.append(BoundReport(part, name, math.nan, math.nan, False, False, False, why))
            continue
        value = float(CRITERIA[name].value(tensor, part, h))
        bound = float(CRITERIA[name].bound(dims, d_a, d_b, h))
        reports.append(BoundReport(part, name, value, bound, *compare(value, bound), True,
                                   prefix + why))
    return reports


def _bisep_reports(tensor, dims, part, cfg, rho):
    fnf_res = fnf_residual(tensor, part)
    note = failed = ""
    # only an M_{h,p} entry reads the filtered tensor
    if (fnf_res > cfg.fnf_tol and cfg.filter
            and any(("bisep", p) in _CMN_NAMES for p in cfg.ps)):
        try:
            filtered = filter_to_fnf(rho, tol=cfg.fnf_tol, groups=[part.side_a, part.side_b])
            tensor = build(filtered)
            fnf_res = fnf_residual(tensor, part)
            note = "after SLOCC filtering; "
        except FilteringError as exc:
            failed = str(exc)
    gate = "" if fnf_res <= cfg.fnf_tol else failed or f"not in FNF (residual {fnf_res:.3e})"
    return _cut_reports(tensor, dims, part, cfg, "bisep", gate, note)


def _fullsep_reports(tensor, dims, cfg):
    sfnf_res = sfnf_residual(tensor)
    gate = "" if sfnf_res <= cfg.fnf_tol else f"not in SFNF (residual {sfnf_res:.3e})"
    reports = []
    for part in iter_bipartitions(len(dims)):
        reports.extend(_cut_reports(tensor, dims, part, cfg, "full", gate))
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
         if r.violated and CRITERIA[r.criterion].kind == "bisep"}
    ))
    # entanglement anywhere in a reduction rules out full separability too
    not_full = any(
        r.violated and CRITERIA[r.criterion].kind == "full" for r in reports
    ) or bool(bi_entangled) or any(
        sub.not_fully_separable or sub.bi_entangled_partitions for _, sub in reduced
    )
    return DetectionVerdict(dims, tuple(reports), tuple(reduced), not_full, bi_entangled)
