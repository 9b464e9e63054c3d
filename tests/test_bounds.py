import math

import numpy as np
import pytest

from cmnlab.bounds import (
    CRITERIA,
    DetectConfig,
    bisep_bound_inf,
    bisep_bound_p1,
    bisep_preconditions_inf,
    bisep_preconditions_p1,
    compare,
    detect,
    dvh_bisep_bound_3qubit,
    dvh_fullsep_bound,
    dvh_interior_sum,
    fullsep_bound_inf,
    fullsep_bound_p1,
)
from cmnlab.cmn import elementary_symmetric
from cmnlab.tensor import Bipartition, build, interior, matricize_interior
from cmnlab.zoo import ghz, maximally_mixed, rho1

from conftest import random_density


class TestBisepBounds:
    def test_inf_saturating_case(self):
        assert abs(bisep_bound_inf(2, 4, 4) - 1 / (64 * 3 * math.sqrt(3))) < 1e-15

    def test_inf_two_qubits(self):
        assert abs(bisep_bound_inf(2, 2, 4) - 0.5 * (1 / 6) ** 3) < 1e-15

    def test_inf_precondition_guard(self):
        ok, why = bisep_preconditions_inf(2, 4, 2)
        assert not ok and "sqrt" in why
        assert bisep_preconditions_inf(2, 4, 4) == (True, "")

    def test_p1_full_minor_equals_inf(self):
        assert abs(bisep_bound_p1(2, 4, 4) - bisep_bound_inf(2, 4, 4)) < 1e-15

    def test_p1_formula_oracle(self):
        # alpha = 1/sqrt(d_A d_B), beta = sqrt((d_A-1)(d_B-1)/(d_A d_B))
        alpha, beta = 0.5, 0.5
        expected = elementary_symmetric(2, [alpha] + [beta / 3] * 3)
        assert abs(bisep_bound_p1(2, 2, 2) - expected) < 1e-15

    def test_p1_guard(self):
        ok, _ = bisep_preconditions_p1(2, 2, 1)
        assert not ok


class TestFullsepBounds:
    def test_inf_three_qubits(self):
        assert abs(fullsep_bound_inf((2, 2, 2), 4) - 1 / 1728) < 1e-18

    def test_bipartite_reduction_matches_bisep(self):
        for h in (2, 3, 4):
            assert abs(fullsep_bound_inf((2, 2), h) - bisep_bound_inf(2, 2, h)) < 1e-15
            assert abs(fullsep_bound_p1((2, 2), h, 4) - bisep_bound_p1(2, 2, h)) < 1e-15

    def test_inf_h2(self):
        alpha = 2**-1.5
        beta = 2**-1.5
        assert abs(fullsep_bound_inf((2, 2, 2), 2) - alpha * beta) < 1e-15

    def test_p1_three_qubits_full_minor(self):
        assert abs(fullsep_bound_p1((2, 2, 2), 4, 4) - 1 / 1728) < 1e-18

    def test_p1_h2_expansion_oracle(self):
        alpha = beta = 2**-1.5
        expected = elementary_symmetric(2, [alpha] + [beta / 3] * 3)
        assert abs(fullsep_bound_p1((2, 2, 2), 2, 4) - expected) < 1e-15


class TestDvh:
    def test_fullsep_bound_three_qubits(self):
        assert abs(dvh_fullsep_bound((2, 2, 2)) - 2**-1.5) < 1e-15

    def test_bisep_bound(self):
        assert abs(dvh_bisep_bound_3qubit() - math.sqrt(3 / 8)) < 1e-15

    def test_rho1_saturates_bisep(self):
        t = build(rho1())
        for part in (Bipartition.of((0,), 3), Bipartition.of((1,), 3)):
            s = dvh_interior_sum(matricize_interior(interior(t), part))
            assert abs(s - dvh_bisep_bound_3qubit()) <= 1e-9

    def test_maximally_mixed_interior_sum_zero(self):
        t = build(maximally_mixed((2, 2, 2)))
        w = matricize_interior(interior(t), Bipartition.of((0,), 3))
        assert dvh_interior_sum(w) <= 1e-14


class TestCompare:
    def test_saturation_never_violates(self):
        violated, saturated = compare(1.0, 1.0 + 1e-12)
        assert saturated and not violated

    def test_clear_violation(self):
        violated, saturated = compare(2.0, 1.0)
        assert violated and not saturated

    def test_below_bound(self):
        violated, saturated = compare(0.5, 1.0)
        assert not violated and not saturated


class TestDetect:
    def test_rho1_verdict(self):
        v = detect(rho1())
        assert v.not_fully_separable
        assert v.bi_entangled_partitions == ()
        bisep = [r for r in v.reports if r.criterion.startswith("cmn-bisep")]
        assert bisep and all(r.saturated for r in bisep)
        full = [r for r in v.reports if r.criterion == "cmn-full-inf"]
        assert full and all(r.violated for r in full)
        dvh_b = [r for r in v.reports if r.criterion == "dvh-bisep"]
        assert dvh_b and all(r.saturated for r in dvh_b)

    def test_maximally_mixed_clean(self):
        v = detect(maximally_mixed((2, 2, 2)))
        assert not v.not_fully_separable
        assert v.bi_entangled_partitions == ()
        assert not any(r.violated for r in v.all_reports())

    def test_ghz_regression(self):
        # regression fixture: which criteria fire on GHZ3
        v = detect(ghz(3, 2).to_density())
        assert v.not_fully_separable
        assert v.bi_entangled_partitions == ("AB|C", "AC|B", "A|BC")
        fired = {(r.partition_label(), r.criterion) for r in v.reports if r.violated}
        assert ("A|BC", "cmn-bisep-inf") in fired
        assert ("A|BC", "dvh-full") in fired
        # GHZ is not SFNF, so the fully-separable CMN bounds are inconclusive
        full = [r for r in v.reports if r.criterion == "cmn-full-inf"]
        assert all(not r.preconditions_met for r in full)
        assert all("SFNF" in r.reason for r in full)

    def test_reports_cover_the_registry(self):
        v = detect(ghz(3, 2).to_density())
        assert {r.criterion for r in v.reports} == set(CRITERIA)

    def test_recursion_reaches_bipartite_reductions(self):
        v = detect(rho1())
        assert len(v.reduced) == 3
        for keep, sub in v.reduced:
            assert sub.dims == (2, 2)
            assert sub.reduced == ()

    def test_detected_states_are_npt_somewhere(self):
        # PPT is a one-sided sanity oracle at these dimensions
        from cmnlab.audit import ppt_check
        from cmnlab.tensor import iter_bipartitions

        rho = ghz(3, 2).to_density()
        assert detect(rho).not_fully_separable
        assert any(not ppt_check(rho, p) for p in iter_bipartitions(3))
        # the SIC/Bell mixture is the documented exception: PPT under every
        # cut (indeed biseparable per cut) yet still flagged, which is the
        # whole point of that construction
        rho = rho1()
        assert detect(rho).not_fully_separable
        assert all(ppt_check(rho, p) for p in iter_bipartitions(3))

    def test_non_recursive_config(self):
        v = detect(maximally_mixed((2, 2, 2)), DetectConfig(recursive=False))
        assert v.reduced == ()

    def test_single_p_config(self):
        v = detect(maximally_mixed((2, 2, 2)), DetectConfig(ps=(1.0,), recursive=False))
        assert not any(r.criterion.endswith("-inf") and r.criterion.startswith("cmn")
                       for r in v.reports)


def test_soundness_sample_fullsep():
    # small inline audit; the full Monte Carlo lives in the acceptance suite
    from cmnlab.audit import separability_audit

    rep = separability_audit("fully-separable-sfnf-222", "cmn-full-inf", 100, 1)
    assert rep.violations == 0


def test_soundness_sample_bisep():
    from cmnlab.audit import separability_audit

    rep = separability_audit("biseparable-filtered-222", "cmn-bisep-inf", 50, 2)
    assert rep.violations == 0


@pytest.mark.parametrize("name", ["cmn-bisep-inf", "cmn-bisep-p1", "cmn-full-inf",
                                  "cmn-full-p1", "dvh-full", "dvh-bisep"])
def test_criterion_values_match_per_tensor_oracle(name):
    """Each row of the batched values equals M_{h,p} of that tensor's
    matricization (or the dVH trace norm of its interior), and value() is
    its one-row case."""
    from cmnlab.bounds import CRITERIA
    from cmnlab.cmn import CmnParams, cmn
    from cmnlab.tensor import matricize

    entry = CRITERIA[name]
    dims = (2, 2, 2)
    part = Bipartition.of((1,), 3)
    tensors = [build(random_density(dims, 3, 230 + s)) for s in range(4)]
    values = entry.values(np.stack([t.data for t in tensors]), dims, part, 4)
    assert values.shape == (4,)
    for value, t in zip(values, tensors):
        if entry.p is None:
            want = dvh_interior_sum(matricize_interior(interior(t), part))
        else:
            want = cmn(matricize(t, part), CmnParams(4, entry.p))
        assert abs(value - want) <= 1e-15
        assert entry.value(t, part, 4) == value
