"""detect as a DAG over party subsets: each reduced state is analyzed once,
and the result matches the nested walk that re-analyzes a subset on every
path reaching it, kept here as the oracle."""

import math

import pytest

from cmnlab import report, zoo
from cmnlab.bounds import (
    DetectConfig,
    DetectionVerdict,
    _bisep_reports,
    _fullsep_reports,
    detect,
)
from cmnlab.linalg import partial_trace
from cmnlab.tensor import Bipartition, build, iter_bipartitions

from conftest import random_density


def nested_detect(rho, cfg=DetectConfig()):
    """The tree walk: drop one party at a time and analyze every path anew."""
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
            reduced.append((keep, nested_detect(partial_trace(rho, keep), cfg)))
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


STATES = (
    [(name, lambda name=name: zoo.from_name(name)) for name in sorted(zoo.ZOO)]
    + [(f"ghz-{n}", lambda n=n: zoo.ghz(n).to_density()) for n in (3, 4, 5, 6)]
    + [(f"random-{''.join(map(str, dims))}-{seed}",
        lambda dims=dims, seed=seed: random_density(dims, math.prod(dims), seed))
       for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2)) for seed in (11, 12)]
)


@pytest.mark.parametrize("name,make", STATES, ids=[s[0] for s in STATES])
def test_dag_matches_nested_walk(name, make):
    rho = make()
    got = detect(rho)
    want = nested_detect(rho)
    assert got.not_fully_separable == want.not_fully_separable
    assert got.bi_entangled_partitions == want.bi_entangled_partitions
    # repr compares every float bit for bit, NaN included
    assert repr(got.reports) == repr(want.reports)
    entries = report.verdict_to_dict(got)["reduced"]
    expected = [schema2_entry(parties, node) for parties, node in first_occurrences(want)]
    assert report.dumps(entries) == report.dumps(expected)
    # the library view: every (keep, sub) pair of the tree, subs shared
    assert [keep for keep, _ in got.reduced] == [keep for keep, _ in want.reduced]
    all_reports = list(got.reports) + [r for _, sub in got.subsets() for r in sub.reports]
    assert len(all_reports) == len(got.reports) + sum(
        len(node.reports) for _, node in first_occurrences(want))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ghz_analyzes_each_subset_once(n):
    v = detect(zoo.ghz(n).to_density())
    # every subset of >= 2 parties, the whole state included
    assert len(distinct_nodes(v)) == 2**n - n - 1
    assert len(v.subsets()) == 2**n - n - 2
    parties = [p for p, _ in v.subsets()]
    assert len(set(parties)) == len(parties)
    assert all(len(p) >= 2 for p in parties)


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
