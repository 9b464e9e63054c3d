import math

import numpy as np
import pytest

from cmnlab.audit import (
    AuditInputError,
    compound_matrix,
    elementary_symmetric_bruteforce,
    ppt_check,
    schatten_norm,
    separability_audit,
)
from cmnlab.bounds import CRITERIA
from cmnlab.cmn import CmnParams, cmn, elementary_symmetric
from cmnlab.linalg import DensityMatrix, singular_values
from cmnlab.tensor import Bipartition, build, iter_bipartitions, matricize
from cmnlab.zoo import bell, ghz, random_fully_separable_sfnf, rho1

from conftest import random_density


class TestCompoundMatrix:
    def test_h1_is_the_matrix(self, rng):
        m = rng.normal(size=(3, 4))
        assert np.abs(compound_matrix(m, 1) - m).max() < 1e-14

    def test_full_order_is_determinant(self, rng):
        m = rng.normal(size=(4, 4))
        c = compound_matrix(m, 4)
        assert c.shape == (1, 1)
        assert abs(c[0, 0] - np.linalg.det(m)) < 1e-12

    def test_multiplicativity(self, rng):
        # Cauchy-Binet: C_h(AB) = C_h(A) C_h(B)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 4))
        lhs = compound_matrix(a @ b, 2)
        rhs = compound_matrix(a, 2) @ compound_matrix(b, 2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_singular_values_are_products(self, rng):
        m = rng.normal(size=(4, 4))
        sv = singular_values(m)
        c_sv = np.sort(singular_values(compound_matrix(m, 2)))[::-1]
        prods = np.sort([sv[i] * sv[j] for i in range(4) for j in range(i + 1, 4)])[::-1]
        assert np.abs(c_sv - prods).max() < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            compound_matrix(np.eye(3), 4)


class TestCmnEqualsCompoundSchatten:
    def test_random_matrices(self, rng):
        # the defining identity: M_{h,p}(m) = ||C_h(m)||_p
        for shape in [(4, 4), (4, 16), (9, 9)]:
            m = rng.normal(size=shape)
            for h in (1, 2, 3):
                for p in (1.0, 2.0, math.inf):
                    lhs = cmn(m, CmnParams(h, p))
                    rhs = schatten_norm(compound_matrix(m, h), p)
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_on_state_matricization(self):
        m = matricize(build(rho1()), Bipartition.of((0,), 3))
        lhs = cmn(m, CmnParams(4, 1.0))
        rhs = schatten_norm(compound_matrix(m, 4), 1.0)
        assert abs(lhs - rhs) <= 1e-12


def test_elementary_symmetric_bruteforce_agrees(rng):
    xs = rng.uniform(0.1, 2.0, size=7)
    for h in (1, 3, 7):
        a = elementary_symmetric(h, xs)
        b = elementary_symmetric_bruteforce(h, xs)
        assert abs(a - b) <= 1e-10 * abs(b)


class TestPptCheck:
    def test_bell_is_npt(self):
        assert not ppt_check(bell(1).to_density(), Bipartition.of((0,), 2))

    def test_maximally_mixed_is_ppt(self):
        from cmnlab.zoo import maximally_mixed

        assert ppt_check(maximally_mixed((2, 2)), Bipartition.of((0,), 2))

    def test_ghz_npt_everywhere(self):
        rho = ghz(3, 2).to_density()
        for p in iter_bipartitions(3):
            assert not ppt_check(rho, p)

    def test_separable_sample_is_ppt(self):
        rho = random_fully_separable_sfnf((2, 2, 2), 13)
        for p in iter_bipartitions(3):
            assert ppt_check(rho, p)

    def test_transpose_side_symmetry(self):
        # transposing side_a vs side_b gives congruent spectra
        rho = random_density((2, 2), 2, 31)
        a = ppt_check(rho, Bipartition((0,), (1,)))
        b = ppt_check(rho, Bipartition((1,), (0,)))
        assert a == b


class TestAudits:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="available"):
            separability_audit("nope", "cmn-full-inf", 1, 0)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            separability_audit("fully-separable-sfnf-222", "nope", 1, 0)

    def test_fullsep_families_clean(self):
        for family in ("fully-separable-sfnf-222", "fully-separable-sfnf-223"):
            for criterion in ("cmn-full-inf", "cmn-full-p1", "dvh-full"):
                rep = separability_audit(family, criterion, 25, 5)
                assert rep.violations == 0
                assert rep.worst_margin <= 0 + 1e-9

    def test_bisep_families_clean(self):
        for family in ("biseparable-filtered-222", "biseparable-filtered-223"):
            for criterion in ("cmn-bisep-inf", "cmn-bisep-p1"):
                rep = separability_audit(family, criterion, 10, 5)
                assert rep.violations == 0

    def test_entangled_family_fires(self):
        # completeness spot-check: noisy GHZ mixtures must violate the
        # bi-separable bound most of the time
        rep = separability_audit("ghz-mixtures-222", "cmn-bisep-inf", 20, 7)
        assert rep.violations >= 15
        assert rep.worst_margin > 0

    def test_rejected_before_sampling(self, monkeypatch):
        from cmnlab import audit

        def no_sampling(*args):
            raise AssertionError("sampled a request that cannot be audited")

        monkeypatch.setattr(audit.zoo, "random_fully_separable_sfnf_stack", no_sampling)
        for criterion, trials, match in (("dvh-bisep", 5, r"only known for \(2,2,2\)"),
                                         ("nope", 5, "available: cmn-bisep-inf"),
                                         ("cmn-full-inf", 0, "trials"),
                                         ("cmn-full-inf", -3, "trials")):
            with pytest.raises(AuditInputError, match=match):
                separability_audit("fully-separable-sfnf-223", criterion, trials, 0)

    def test_full_criteria_rejected_on_bisep_families(self, monkeypatch):
        from cmnlab import audit

        def no_sampling(*args):
            raise AssertionError("sampled a request that cannot be audited")

        monkeypatch.setattr(audit.zoo, "random_biseparable_stack", no_sampling)
        full = [name for name, entry in CRITERIA.items() if entry.kind == "full"]
        assert full
        for family in ("biseparable-filtered-222", "biseparable-filtered-223"):
            for criterion in full:
                with pytest.raises(AuditInputError, match="samples bi-separable"):
                    separability_audit(family, criterion, 5, 0)

    def test_ghz_mixtures_accept_every_criterion(self):
        for criterion in CRITERIA:
            rep = separability_audit("ghz-mixtures-222", criterion, 2, 4)
            assert rep.trials == 2

    def test_report_fields(self):
        rep = separability_audit("fully-separable-sfnf-222", "cmn-full-inf", 3, 9)
        assert rep.trials == 3 and rep.seed == 9
        assert rep.family == "fully-separable-sfnf-222"


def test_filtered_audits_make_no_eigvalsh_call(monkeypatch):
    """Filtering decides its residual from its own eigh and Frobenius bounds,
    and the state checks from a Cholesky certificate: no eigvalsh runs."""
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    for family in ("biseparable-filtered-222", "biseparable-filtered-223"):
        rep = separability_audit(family, "cmn-bisep-inf", 256, 2026)
        assert rep.trials == 256
    assert calls == []
    separability_audit("fully-separable-sfnf-223", "cmn-full-inf", 256, 2026)
    assert calls  # the counter sees the SFNF sampler's eigvalsh per party


class TestWitnessedInequalities:
    def test_am_gm_on_sfnf_samples(self):
        # the p=1 bound dominates the p=inf bound pathway: S_h of the
        # singular values is at least binom(n,h) times the h-th power mean
        from math import comb

        for seed in range(5):
            rho = random_fully_separable_sfnf((2, 2, 2), 500 + seed)
            sv = singular_values(matricize(build(rho), Bipartition.of((0,), 3)))
            n = sv.size
            for h in (2, 3):
                s_h = elementary_symmetric(h, sv)
                gm = float(np.prod(sv) ** (h / n)) if np.all(sv > 0) else 0.0
                assert s_h >= comb(n, h) * gm - 1e-12

    def test_schur_concavity_witness(self):
        # averaging two singular values never lowers S_2
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            sv = rng.uniform(0.1, 1.0, size=5)
            mixed = sv.copy()
            mixed[0] = mixed[1] = (sv[0] + sv[1]) / 2
            assert elementary_symmetric(2, mixed) >= elementary_symmetric(2, sv) - 1e-12


class TestSamplerRejections:
    def test_filtering_failures_are_counted(self, monkeypatch):
        from cmnlab import audit
        from cmnlab.normal_form import FilteringError

        real = audit.filter_stack
        calls = []

        def flaky(data, dims, **kwargs):
            filtered, sweeps, errors = real(data, dims, **kwargs)
            for row in range(len(data)):  # one entry per filtered state
                calls.append(1)
                if len(calls) % 3 == 1:  # the first draw of every trial fails
                    errors[row] = str(FilteringError("rank deficient"))
            return filtered, sweeps, errors

        monkeypatch.setattr(audit, "filter_stack", flaky)
        rep = separability_audit("biseparable-filtered-222", "cmn-bisep-inf", 4, 3)
        assert rep.rejected == len(calls) - 4
        assert rep.rejected >= 2

    def test_other_errors_propagate(self, monkeypatch):
        from cmnlab import audit

        def broken(*args, **kwargs):
            raise ZeroDivisionError("a bug, not a rejected sample")

        monkeypatch.setattr(audit, "filter_stack", broken)
        with pytest.raises(ZeroDivisionError):
            separability_audit("biseparable-filtered-222", "cmn-bisep-inf", 1, 3)

    def test_unfiltered_families_reject_nothing(self):
        rep = separability_audit("fully-separable-sfnf-222", "cmn-full-inf", 3, 9)
        assert rep.rejected == 0


def _one_row_margin(family, criterion, drawn_seed):
    """Margin of the sample drawn from ``drawn_seed``, through the one-state
    samplers, filter_to_fnf, build and Criterion.values."""
    from cmnlab import audit
    from cmnlab.normal_form import filter_to_fnf
    from cmnlab.zoo import random_biseparable

    dims, kind = audit.FAMILIES[family]
    part = Bipartition.of((0,), len(dims))
    if kind == "full":
        rho = random_fully_separable_sfnf(dims, drawn_seed)
    elif kind == "bisep":
        rho = random_biseparable(dims, part, 24, drawn_seed)
        rho = filter_to_fnf(rho, groups=[part.side_a, part.side_b])
    else:
        rho = audit._SAMPLERS[kind](dims, part, np.array([drawn_seed]))[0][0]
        rho = DensityMatrix(dims, rho)
    entry = CRITERIA[criterion]
    d_a, d_b = part.side_dims(dims)
    h = min(d_a, d_b) ** 2
    bound = entry.bound(dims, d_a, d_b, h)
    return (entry.values(build(rho).data[None], part, h)[0] - bound) / abs(bound)


class TestWorstSeed:
    @pytest.mark.parametrize("family,criterion", [
        ("fully-separable-sfnf-223", "cmn-full-inf"),
        ("fully-separable-sfnf-222", "dvh-full"),
        ("biseparable-filtered-222", "cmn-bisep-p1"),
        ("biseparable-filtered-223", "cmn-bisep-inf"),
        ("ghz-mixtures-222", "dvh-bisep"),
    ])
    def test_redrawing_worst_seed_reproduces_worst_margin(self, family, criterion):
        rep = separability_audit(family, criterion, 300, 41)  # two chunks
        assert 41 <= rep.worst_seed < 341
        assert abs(_one_row_margin(family, criterion, rep.worst_seed) - rep.worst_margin) <= 1e-12

    def test_worst_seed_includes_the_redraw_offset(self, monkeypatch):
        from cmnlab import audit

        real = audit.filter_stack
        calls = []

        def first_call_fails(data, dims, **kwargs):
            filtered, sweeps, errors = real(data, dims, **kwargs)
            calls.append(len(data))
            if len(calls) == 1:
                errors = ["rank deficient"] * len(data)
            return filtered, sweeps, errors

        monkeypatch.setattr(audit, "filter_stack", first_call_fails)
        rep = separability_audit("biseparable-filtered-222", "cmn-bisep-inf", 6, 50)
        assert rep.rejected == 6 and calls == [6, 6]
        assert 50 + audit.REDRAW <= rep.worst_seed < 56 + audit.REDRAW
        margin = _one_row_margin("biseparable-filtered-222", "cmn-bisep-inf", rep.worst_seed)
        assert abs(margin - rep.worst_margin) <= 1e-12


@pytest.mark.parametrize("family,criterion", [
    ("fully-separable-sfnf-222", "cmn-full-p1"),
    ("biseparable-filtered-223", "cmn-bisep-inf"),
    ("ghz-mixtures-222", "cmn-bisep-inf"),
])
def test_chunks_match_the_one_state_path(monkeypatch, family, criterion):
    """Small chunks, so a 10-trial audit spans three stacks (the last one
    short): the report equals a trial-by-trial run of the one-state path."""
    from cmnlab import audit
    from cmnlab.bounds import EPS_CMP

    monkeypatch.setattr(audit, "CHUNK", 4)
    rep = separability_audit(family, criterion, 10, 60)
    margins = [_one_row_margin(family, criterion, 60 + t) for t in range(10)]
    assert rep.violations == sum(m > EPS_CMP for m in margins)
    assert abs(rep.worst_margin - max(margins)) <= 1e-12
    assert rep.worst_seed == 60 + int(np.argmax(margins))
