"""detect as a DAG over party subsets whose distinct states are analyzed
in one pass: each reduced state is analyzed once, and every report equals
the per-cut walk kept here as the oracle (one cut, one filtering and one SVD
at a time)."""

import importlib
import math

import numpy as np
import pytest

from cmnlab import bounds, linalg, normal_form, report, zoo
from cmnlab.bounds import CRITERIA, BoundReport, DetectConfig, DetectionVerdict, compare, detect
from cmnlab.linalg import partial_trace
from cmnlab.normal_form import FilteringError, filter_to_fnf
from cmnlab.tensor import Bipartition, build, iter_bipartitions

from conftest import fnf_residual, random_density, sfnf_residual

CMN_NAMES = {(c.kind, c.p): name for name, c in CRITERIA.items() if c.p is not None}


def cut_reports(tensor, dims, part, cfg, kind, gate, note=""):
    """The reports of one cut, each value from its own SVD."""
    jobs = []
    for p in cfg.ps:
        name = CMN_NAMES.get((kind, p))
        if name is None:
            jobs.append((f"cmn-{kind}-p{p:g}", f"no separability bound for p={p:g}", ""))
        else:
            jobs.append((name, gate, note))
    if kind == "full":
        jobs.extend((name, "", "") for name, c in CRITERIA.items() if c.p is None)
    d_a, d_b = part.side_dims(dims)
    h = min(d_a, d_b) ** 2 if cfg.h is None else cfg.h
    reports = []
    for name, fail, prefix in jobs:
        ok, why = (False, fail) if fail else CRITERIA[name].preconditions(dims, d_a, d_b, h)
        if not ok:
            reports.append(BoundReport(part, name, math.nan, math.nan, False, False, False, why))
            continue
        value = float(CRITERIA[name].values(tensor.data[None], part, h)[0])
        bound = float(CRITERIA[name].bound(dims, d_a, d_b, h))
        reports.append(BoundReport(part, name, value, bound, *compare(value, bound), True,
                                   "; ".join(filter(None, (prefix, why)))))
    return reports


def bisep_reports(tensor, dims, part, cfg, rho):
    """One cut's bi-separable reports, filtering the state side-wise alone."""
    fnf_res = fnf_residual(tensor, part)
    note = failed = ""
    if (fnf_res > cfg.fnf_tol and cfg.filter
            and any(("bisep", p) in CMN_NAMES for p in cfg.ps)):
        try:
            filtered = filter_to_fnf(rho, tol=cfg.fnf_tol, groups=[part.side_a, part.side_b])
            tensor = build(filtered)
            fnf_res = fnf_residual(tensor, part)
            note = "after SLOCC filtering"
        except FilteringError as exc:
            failed = str(exc)
    gate = "" if fnf_res <= cfg.fnf_tol else failed or f"not in FNF (residual {fnf_res:.3e})"
    return cut_reports(tensor, dims, part, cfg, "bisep", gate, note)


def fullsep_reports(tensor, dims, cfg):
    sfnf_res = sfnf_residual(tensor)
    gate = "" if sfnf_res <= cfg.fnf_tol else f"not in SFNF (residual {sfnf_res:.3e})"
    reports = []
    for part in iter_bipartitions(len(dims)):
        reports.extend(cut_reports(tensor, dims, part, cfg, "full", gate))
    return reports


def oracle_detect(rho, cfg=DetectConfig(), seen=None, parties=None):
    """The depth-first walk, one cut at a time. With a dict ``seen``, a
    subset reached again shares the verdict of its first visit; with None,
    every path is analyzed anew (the tree walk)."""
    dims = rho.dims
    parties = tuple(range(len(dims))) if parties is None else parties
    tensor = build(rho)
    reports = []
    for part in iter_bipartitions(len(dims)):
        reports.extend(bisep_reports(tensor, dims, part, cfg, rho))
    reports.extend(fullsep_reports(tensor, dims, cfg))
    reduced = []
    if cfg.recursive and len(dims) > 2:
        for dropped in range(len(dims)):
            keep = tuple(i for i in range(len(dims)) if i != dropped)
            key = tuple(parties[i] for i in keep)
            if seen is None:
                sub = oracle_detect(partial_trace(rho, keep), cfg, None, key)
            elif key in seen:
                sub = seen[key]
            else:
                sub = seen[key] = oracle_detect(partial_trace(rho, keep), cfg, seen, key)
            reduced.append((keep, sub))
    bi_entangled = tuple(sorted(
        {r.partition_label() for r in reports
         if r.violated and r.criterion in ("cmn-bisep-inf", "cmn-bisep-p1", "dvh-bisep")}
    ))
    not_full = any(
        r.violated and r.criterion in ("cmn-full-inf", "cmn-full-p1", "dvh-full")
        for r in reports
    ) or bool(bi_entangled) or any(
        sub.not_fully_separable or sub.bi_entangled_partitions for _, sub in reduced
    )
    return DetectionVerdict(dims, tuple(reports), tuple(reduced), not_full, bi_entangled)


def first_occurrences(tree):
    """(parties, node) for the first occurrence of each subset in the tree's
    depth-first order, parties in the root's indices."""
    out = {}

    def visit(node, parties):
        for keep, sub in node.reduced:
            key = tuple(parties[k] for k in keep)
            out.setdefault(key, sub)
            visit(sub, key)

    visit(tree, tuple(range(len(tree.dims))))
    return list(out.items())


def schema2_entry(parties, node):
    return {
        "parties": list(parties),
        "dims": list(node.dims),
        "reports": [report.bound_report_to_dict(r) for r in node.reports],
        "not_fully_separable": node.not_fully_separable,
        "bi_entangled_partitions": list(node.bi_entangled_partitions),
    }


def distinct_nodes(v):
    seen = {}
    stack = [v]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(sub for _, sub in node.reduced)
    return seen


def report_fields(r):
    """Every field of a report, each float as its exact bits."""
    return (r.partition_label(), r.criterion, np.float64(r.value).tobytes(),
            np.float64(r.bound).tobytes(), r.violated, r.saturated, r.preconditions_met,
            r.reason)


def assert_same_verdict(got, want):
    nodes_got = [((), got)] + got.subsets()
    nodes_want = [((), want)] + first_occurrences(want)
    assert [p for p, _ in nodes_got] == [p for p, _ in nodes_want]
    for (_, g), (_, w) in zip(nodes_got, nodes_want):
        assert g.dims == w.dims
        assert [report_fields(r) for r in g.reports] == [report_fields(r) for r in w.reports]
        assert g.not_fully_separable == w.not_fully_separable
        assert g.bi_entangled_partitions == w.bi_entangled_partitions
        assert [keep for keep, _ in g.reduced] == [keep for keep, _ in w.reduced]


STATES = (
    [(name, lambda name=name: zoo.from_name(name)) for name in sorted(zoo.ZOO)]
    + [(f"ghz-{n}", lambda n=n: zoo.ghz(n).to_density()) for n in (3, 4, 5, 6)]
    + [(f"random-{''.join(map(str, dims))}-{seed}",
        lambda dims=dims, seed=seed: random_density(dims, math.prod(dims), seed))
       for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2)) for seed in (11, 12)]
)
# the zoo (W-3 among it), GHZ-3..6, W-4, and seeded random states at full
# rank and at rank 2
ORACLE_STATES = (
    STATES[:len(zoo.ZOO) + 4]
    + [("w-4", lambda: zoo.w_state(4).to_density())]
    + [(f"random-{''.join(map(str, dims))}-rank{rank}",
        lambda dims=dims, rank=rank: random_density(dims, rank, 13))
       for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2), (2, 3), (3, 3))
       for rank in (math.prod(dims), 2)]
)
CONFIGS = [DetectConfig(), DetectConfig(h=2), DetectConfig(ps=(1.0,)),
           DetectConfig(filter=False), DetectConfig(recursive=False)]


@pytest.mark.parametrize("name,make", ORACLE_STATES, ids=[s[0] for s in ORACLE_STATES])
def test_level_walk_matches_per_cut_oracle(name, make):
    rho = make()
    for cfg in CONFIGS:
        assert_same_verdict(detect(rho, cfg), oracle_detect(rho, cfg, {}))


@pytest.mark.parametrize("name,make", STATES, ids=[s[0] for s in STATES])
def test_dag_matches_nested_walk(name, make):
    rho = make()
    got = detect(rho)
    want = oracle_detect(rho)
    assert_same_verdict(got, want)
    entries = report.verdict_to_dict(got)["reduced"]
    expected = [schema2_entry(parties, node) for parties, node in first_occurrences(want)]
    assert report.dumps(entries) == report.dumps(expected)
    # the library view: every (keep, sub) pair of the tree, subs shared
    all_reports = list(got.reports) + [r for _, sub in got.subsets() for r in sub.reports]
    assert len(all_reports) == len(got.reports) + sum(
        len(node.reports) for _, node in first_occurrences(want))


def test_filter_failures_name_the_cut_sides():
    """A cut filtered in a permuted stack keeps the text filter_to_fnf
    writes on the state itself: AC|B of W-3 is rank deficient on side B."""
    w3 = zoo.w_state(3).to_density()
    v = detect(w3, DetectConfig(recursive=False))
    ac_b = Bipartition.of((0, 2), 3)
    reasons = {r.reason for r in v.reports
               if r.partition == ac_b and r.criterion == "cmn-bisep-inf"}
    with pytest.raises(FilteringError) as err:
        filter_to_fnf(w3, groups=[ac_b.side_a, ac_b.side_b])
    assert reasons == {str(err.value)}
    # the permuted stack filters parties 0+1 of (A, C, B)
    assert "reduction of party 0+2 is" in str(err.value)


def counted(calls, key, fn):
    """``fn``, appending the first argument of each call to ``calls[key]``."""
    def wrapper(*args, **kwargs):
        calls.setdefault(key, []).append(args[0])
        return fn(*args, **kwargs)
    return wrapper


def test_ghz6_calls_scale_with_levels_times_shapes(monkeypatch):
    """GHZ-6 is permutation symmetric, so each level (subset size) of its
    subset DAG holds one distinct state: detect builds 5 tensors, not 57, and filters
    56 rows, not 286 (each of them rank deficient, so none is built). A level of m parties has m - 1 cut shapes (|A|) and
    2(m - 1) matrix shapes (whole and interior matricizations), so the call
    counts are bounded by sums over the levels, not by the 301 cuts."""
    calls = {}
    monkeypatch.setattr(normal_form, "filter_stack",
                        counted(calls, "filter", normal_form.filter_stack))
    monkeypatch.setattr(bounds, "build_stack", counted(calls, "build", bounds.build_stack))
    monkeypatch.setattr(bounds, "_state_reports",
                        counted(calls, "states", bounds._state_reports))
    # the package's name cmn is the function, not its module
    for module in (bounds, importlib.import_module("cmnlab.cmn")):
        monkeypatch.setattr(module, "singular_values",
                            counted(calls, "svd", module.singular_values))
    v = detect(zoo.ghz(6).to_density())
    assert v.not_fully_separable
    levels = range(2, 7)
    assert len(calls["states"]) == 1  # one pass over the distinct states
    assert sum(map(len, calls["states"])) == sum(map(len, calls["build"])) == len(levels)
    assert 0 < sum(map(len, calls["filter"])) <= 56
    assert 0 < len(calls["filter"]) <= sum(m - 1 for m in levels)
    assert 0 < len(calls["svd"]) <= sum(2 * (m - 1) for m in levels)


@pytest.mark.parametrize("rho,traces", [
    (zoo.ghz(6).to_density(), 6 + 5 + 4 + 3),
    (zoo.ghz(5).to_density(), 5 + 4 + 3),
    (random_density((2, 2, 2, 2), 16, 14), 4 + 6),
])
def test_each_distinct_reduction_is_traced_once(monkeypatch, rho, traces):
    """A subset is traced from its first parent with the largest missing
    party dropped. On GHZ-n every parent of a level of m parties holds the
    same state, so the level needs one trace per position that party can
    take in the parent (m + 1), not one per subset (56 on GHZ-6). A random
    state's reductions are all distinct."""
    calls = {}
    monkeypatch.setattr(bounds, "partial_trace_raw",
                        counted(calls, "trace", bounds.partial_trace_raw))
    detect(rho)
    assert len(calls["trace"]) == traces


def test_random_state_analyzes_every_subset(monkeypatch):
    """No two reductions of a random (2,2,2,2) state are equal, so all 11
    states are analyzed: the whole state and its 10 reductions."""
    calls = {}
    monkeypatch.setattr(bounds, "_state_reports",
                        counted(calls, "states", bounds._state_reports))
    v = detect(random_density((2, 2, 2, 2), 16, 14))
    assert len(calls["states"]) == 1
    assert sum(map(len, calls["states"])) == 11 == len(distinct_nodes(v))
    assert len({id(node.reports) for node in distinct_nodes(v).values()}) == 11


def test_ghz5_subsets_of_one_size_share_reports():
    v = detect(zoo.ghz(5).to_density())
    by_size = {}
    for parties, sub in v.subsets():
        by_size.setdefault(len(parties), []).append(sub)
    assert sorted(len(subs) for subs in by_size.values()) == [5, 10, 10]
    for subs in by_size.values():
        assert all(sub.reports is subs[0].reports for sub in subs)
        # each subset has its own verdict, which reads its own reductions
        assert len({id(sub) for sub in subs}) == len(subs)
    doc = report.verdict_to_dict(v)
    for size, subs in by_size.items():
        lists = [e["reports"] for e in doc["reduced"] if len(e["parties"]) == size]
        assert all(entry is lists[0] for entry in lists)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ghz_analyzes_each_subset_once(n):
    v = detect(zoo.ghz(n).to_density())
    # every subset of >= 2 parties, the whole state included
    assert len(distinct_nodes(v)) == 2**n - n - 1
    assert len(v.subsets()) == 2**n - n - 2
    parties = [p for p, _ in v.subsets()]
    assert len(set(parties)) == len(parties)
    assert all(len(p) >= 2 for p in parties)


def test_detect_hashes_no_cut(monkeypatch):
    """detect keys each cut by its position among the state's cuts, and each
    cut carries its label, so no Bipartition is hashed on the way."""
    hashed = []

    def counted_hash(part, plain=Bipartition.__hash__):
        hashed.append(part)
        return plain(part)

    monkeypatch.setattr(Bipartition, "__hash__", counted_hash)
    detect(zoo.ghz(6).to_density())
    assert len(hashed) == 0


def test_schema2_parties_and_local_labels():
    doc = report.verdict_to_dict(detect(zoo.ghz(4).to_density()))
    assert report.SCHEMA_VERSION == 2
    assert list(doc) == ["dims", "reports", "reduced", "not_fully_separable",
                         "bi_entangled_partitions"]
    first = doc["reduced"][0]
    # depth first: drop party 0, then party 1 of what is left
    assert [e["parties"] for e in doc["reduced"][:2]] == [[1, 2, 3], [2, 3]]
    assert first["dims"] == [2, 2, 2]
    # labels are the entry's own: A is party 1 of the whole state
    assert {r["partition"] for r in first["reports"]} == {"A|BC", "AB|C", "AC|B"}


def test_finite_p_without_bound_is_inconclusive():
    a_bc = Bipartition.of((0,), 3)
    cfg = DetectConfig(h=2, ps=(0.5,))
    flagged = 0
    for seed in range(100):
        v = detect(zoo.random_biseparable((2, 2, 2), a_bc, 24, seed), cfg)
        flagged += "A|BC" in v.bi_entangled_partitions
        all_reports = list(v.reports) + [r for _, sub in v.subsets() for r in sub.reports]
        cmn_reports = [r for r in all_reports if r.criterion.startswith("cmn-")]
        assert {r.criterion for r in cmn_reports} == {"cmn-bisep-p0.5", "cmn-full-p0.5"}
        assert not any(r.preconditions_met for r in cmn_reports)
        assert all(r.reason == "no separability bound for p=0.5" for r in cmn_reports)
    assert flagged == 0


def test_finite_p_keeps_bounded_exponents():
    v = detect(zoo.rho1(), DetectConfig(ps=(math.inf, 2.0, 1.0), recursive=False))
    full = [r.criterion for r in v.reports if r.criterion.startswith("cmn-full")]
    assert full[:3] == ["cmn-full-inf", "cmn-full-p2", "cmn-full-p1"]
    assert v.not_fully_separable


@pytest.mark.parametrize("rho,checks", [
    (zoo.ghz(6).to_density(), 4),
    (zoo.rho1(), 1),
    (random_density((2, 2, 2, 2), 16, 14), 10 + 25),
])
def test_each_distinct_state_is_checked_once(monkeypatch, rho, checks):
    """The caller's state is not checked again; each distinct reduction and
    each filtered row is checked once: GHZ-6 has four distinct reductions
    and filters none, rho1's three are one state, and the random state's
    10 reductions are all distinct and 25 of their cuts are filtered. The
    count is of rows checked, since filtered rows are checked as stacks."""
    calls = {}
    check = counted(calls, "check", linalg.density_violations)
    monkeypatch.setattr(linalg, "density_violations", check)
    monkeypatch.setattr(bounds, "density_violations", check)
    detect(rho)
    assert sum(map(len, calls.get("check", []))) == checks


def test_a_filtered_row_that_fails_the_checks_gates_only_its_cut(monkeypatch):
    """The filtered rows of one dims are checked as one stack. In a stack
    where item 1's seed-1 A|BC row is not positive semidefinite, that cut
    alone gets the per-row failure text, and every report equals, bit for
    bit, what each state gets when it is analyzed alone."""
    from conftest import item1_state

    rhos = [item1_state(1), random_density((2, 2, 2), 8, 45), random_density((2, 2, 2), 3, 46)]
    states = {(rho.dims, rho.data.tobytes()): rho.data for rho in rhos}
    checked = {}
    monkeypatch.setattr(bounds, "density_violations",
                        counted(checked, "rows", bounds.density_violations))
    got = bounds._state_reports(states, set(states), DetectConfig())
    assert [len(rows) for rows in checked["rows"]] == [7]  # one (2,2,2) stack, which fails
    want = {m: bounds._state_reports({m: data}, {m}, DetectConfig())[m]
            for m, data in states.items()}
    assert list(got) == list(want)
    for key in got:
        assert [report_fields(r) for r in got[key]] == [report_fields(r) for r in want[key]]
    failed = {(i, r.partition_label()) for i, key in enumerate(got) for r in got[key]
              if r.reason.startswith("filtered state failed the state checks: not positive")}
    assert failed == {(0, "A|BC")}
    assert sum(r.reason.startswith("after SLOCC filtering") for r in got[list(got)[1]]) > 0
