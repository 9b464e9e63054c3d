"""Independent brute-force oracles (compound matrices, PPT) and Monte Carlo
soundness audits over the zoo's random state families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import zoo
from .bounds import CRITERIA, compare
from .linalg import DensityMatrix, check_density_stack, hermitize
from .normal_form import filter_stack
from .tensor import Bipartition, build_stack


class AuditInputError(ValueError):
    """An audit request that names no family or criterion, whose criterion
    does not apply to the family, or that asks for fewer than one trial or
    gives a negative seed."""


@dataclass(frozen=True)
class AuditReport:
    family: str
    criterion: str
    trials: int
    violations: int
    worst_margin: float  # max of (value - bound)/bound over trials
    seed: int
    rejected: int = 0  # samples redrawn because filtering failed
    worst_seed: int | None = None  # seed of the worst-margin sample, redraw offset included


def compound_matrix(m, h):
    """h-th compound matrix: all h×h minors, subsets ordered lexicographically
    (Cauchy–Binet convention)."""
    m = np.asarray(m)
    rows, cols = m.shape
    if not 1 <= h <= min(rows, cols):
        raise ValueError(f"h={h} out of range for a {rows}x{cols} matrix")
    row_sets = list(combinations(range(rows), h))
    col_sets = list(combinations(range(cols), h))
    out = np.empty((len(row_sets), len(col_sets)), dtype=m.dtype)
    for a, rs in enumerate(row_sets):
        block = m[list(rs), :]
        for b, cs in enumerate(col_sets):
            out[a, b] = np.linalg.det(block[:, list(cs)])
    return out


def schatten_norm(m, p):
    sigma = np.linalg.svd(np.asarray(m), compute_uv=False)
    if math.isinf(p):
        return float(sigma.max()) if sigma.size else 0.0
    return float((sigma**p).sum() ** (1 / p))


def elementary_symmetric_bruteforce(h, xs):
    """Subset-enumeration oracle for S_h; exponential, test use only."""
    xs = list(xs)
    return float(sum(np.prod([xs[i] for i in subset])
                     for subset in combinations(range(len(xs)), h)))


def ppt_check(rho: DensityMatrix, part: Bipartition, tol=1e-10) -> bool:
    """True iff the partial transpose over side_b is positive semidefinite."""
    dims = list(rho.dims)
    n = len(dims)
    t = rho.data.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in part.side_b:
        axes[p], axes[n + p] = axes[n + p], axes[p]
    side = rho.dim
    pt = np.transpose(t, axes).reshape(side, side)
    return bool(np.linalg.eigvalsh(hermitize(pt)).min() >= -tol)


# Trials are sampled, filtered and scored as stacks of this many states.
CHUNK = 256
# A sample whose filtering fails is redrawn from seed + REDRAW * attempt.
REDRAW = 10_000_019
MAX_ATTEMPTS = 8

FAMILIES = {
    "fully-separable-sfnf-222": ((2, 2, 2), "full"),
    "fully-separable-sfnf-223": ((2, 2, 3), "full"),
    "biseparable-filtered-222": ((2, 2, 2), "bisep"),
    "biseparable-filtered-223": ((2, 2, 3), "bisep"),
    "ghz-mixtures-222": ((2, 2, 2), "entangled"),
}


# A sampler maps (dims, the A|rest cut, the trials' seeds) to (validated
# states as one stack, the seed each state was drawn from, number of draws
# rejected on the way).
def _sample_fullsep_sfnf(dims, part, seeds):
    return zoo.random_fully_separable_sfnf_stack(dims, seeds), seeds, 0


def _sample_bisep_filtered(dims, part, seeds):
    side = math.prod(dims)
    states = np.empty((len(seeds), side, side), dtype=complex)
    drawn = seeds.copy()
    todo = np.arange(len(seeds))
    rejected = 0
    for attempt in range(MAX_ATTEMPTS):
        drawn[todo] = seeds[todo] + REDRAW * attempt
        rho = zoo.random_biseparable_stack(dims, part, 24, drawn[todo])
        filtered, _, errors = filter_stack(rho, dims, groups=[part.side_a, part.side_b])
        failed = np.array([e is not None for e in errors], dtype=bool)
        check_density_stack(filtered[~failed])
        states[todo[~failed]] = filtered[~failed]
        rejected += int(failed.sum())
        todo = todo[failed]
        if not len(todo):
            return states, drawn, rejected
    raise RuntimeError("could not produce a filtered bi-separable sample")


def _sample_ghz_mixtures(dims, part, seeds):
    ghz_rho = zoo.ghz(len(dims), 2).to_density().data
    noise = np.eye(ghz_rho.shape[0]) / ghz_rho.shape[0]
    p = np.array([np.random.default_rng(s).uniform(0.6, 1.0) for s in seeds])[:, None, None]
    states = p * ghz_rho + (1 - p) * noise
    check_density_stack(states)
    return states, seeds, 0


_SAMPLERS = {"full": _sample_fullsep_sfnf, "bisep": _sample_bisep_filtered,
             "entangled": _sample_ghz_mixtures}


def separability_audit(family: str, criterion: str, trials: int, seed: int) -> AuditReport:
    """Sample ``trials`` states from the family, apply the required normal
    form preprocessing, and count bound violations of the criterion on the
    A|rest cut at h = d². Raises AuditInputError before any sampling when
    the request cannot be audited.

    Trial t draws from seed + t, plus REDRAW times the attempt when its
    filtering failed. Trials run in stacks of CHUNK, each sampled,
    filtered, built and scored at once, with every per-state check of the
    one-state path."""
    if family not in FAMILIES:
        raise AuditInputError(
            f"unknown family {family!r}; available: {', '.join(sorted(FAMILIES))}")
    if criterion not in CRITERIA:
        raise AuditInputError(f"unknown criterion {criterion!r}; available: {', '.join(CRITERIA)}")
    if trials < 1:
        raise AuditInputError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise AuditInputError(f"seed must be >= 0, got {seed}")
    dims, kind = FAMILIES[family]
    part = Bipartition.of((0,), len(dims))
    entry = CRITERIA[criterion]
    if entry.kind == "full" and kind == "bisep":
        raise AuditInputError(
            f"{criterion} bounds fully separable states, but {family} samples "
            "bi-separable ones")
    d_a, d_b = part.side_dims(dims)
    h = min(d_a, d_b) ** 2
    ok, why = entry.preconditions(dims, d_a, d_b, h)
    if not ok:
        raise AuditInputError(f"{criterion} does not apply to {family}: {why}")
    bound = entry.bound(dims, d_a, d_b, h)

    violations = rejected = 0
    worst, worst_seed = -math.inf, None
    for start in range(0, trials, CHUNK):
        # exact Python integers: int64 seeds past 2^63 - 1 turn float or wrap
        seeds = np.arange(seed + start, seed + min(start + CHUNK, trials), dtype=object)
        states, drawn, redrawn = _SAMPLERS[kind](dims, part, seeds)
        rejected += redrawn
        values = entry.values(build_stack(states, dims), part, h)
        margins = (values - bound) / max(abs(bound), 1e-300)
        violations += int(np.count_nonzero(compare(values, bound)[0]))
        i = int(np.argmax(margins))
        if margins[i] > worst:
            worst, worst_seed = float(margins[i]), int(drawn[i])
    return AuditReport(family, criterion, trials, violations, worst, seed, rejected, worst_seed)
