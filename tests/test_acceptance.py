"""End-to-end acceptance suite. Each test covers one numbered criterion and
prints a single pass/fail line that bypasses pytest's output capture, so the
summary is visible in a plain `pytest -v` run."""

import math
import time

import numpy as np
import pytest

from cmnlab.audit import (
    compound_matrix,
    elementary_symmetric_bruteforce,
    schatten_norm,
    separability_audit,
)
from cmnlab.basis import canonical_bases
from cmnlab.bounds import (
    bisep_bound_inf,
    bisep_bound_p1,
    detect,
    dvh_bisep_bound_3qubit,
    dvh_fullsep_bound,
    dvh_interior_sum,
    fullsep_bound_inf,
    fullsep_bound_p1,
)
from cmnlab.cmn import CmnParams, cmn, elementary_symmetric
from cmnlab.discord import (
    OptimizerCfg,
    bipartite_discord_cmn,
    global_discord_cmn,
    measure_state,
    measurement_from_angles,
)
from cmnlab.linalg import DensityMatrix, partial_trace, singular_values, trace_distance
from cmnlab.normal_form import FilteringError, filter_to_fnf
from cmnlab.tensor import (
    Bipartition,
    build,
    interior,
    iter_bipartitions,
    matricize,
    matricize_interior,
)
from cmnlab.zoo import bell, classical_state, random_fully_separable_sfnf, rho1

from conftest import random_density


def _criterion(capfd, number, label, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capfd.disabled():
        print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def test_criterion_1_rho1_reproduction(capfd):
    def body():
        start = time.perf_counter()
        value = 1 / (64 * 3 * math.sqrt(3))
        t = build(rho1())
        for part in iter_bipartitions(3):
            m = matricize(t, part)
            got = cmn(m, CmnParams(4, math.inf))
            assert abs(got - value) <= 1e-9 * value
            assert abs(got - bisep_bound_inf(2, 4, 4)) <= 1e-9 * value
            s = dvh_interior_sum(matricize_interior(interior(t), part))
            assert abs(s - math.sqrt(3 / 8)) <= 1e-9
            assert abs(s - dvh_bisep_bound_3qubit()) <= 1e-9
        assert time.perf_counter() - start < 1.0

    _criterion(capfd, 1, "rho1 saturating values", body)


def test_criterion_2_fullsep_detection_on_rho1(capfd):
    def body():
        start = time.perf_counter()
        assert fullsep_bound_inf((2, 2, 2), 4) == 1 / 1728
        assert 1 / (64 * 3 * math.sqrt(3)) > 1 / 1728
        assert math.sqrt(3 / 8) > 2**-1.5
        assert abs(dvh_fullsep_bound((2, 2, 2)) - 2**-1.5) < 1e-15
        v = detect(rho1())
        assert v.not_fully_separable
        full = [r for r in v.reports if r.criterion == "cmn-full-inf"]
        assert full and all(r.violated for r in full)
        dvh = [r for r in v.reports if r.criterion == "dvh-full"]
        assert dvh and all(r.violated for r in dvh)
        assert time.perf_counter() - start < 1.0

    _criterion(capfd, 2, "rho1 not fully separable", body)


# pinned from the subset-enumeration oracle on the exact spectrum
# {1/(2 sqrt 2), 1/(2 sqrt 6) x3}; see RESULTS.md for the table
S_H_TABLE = {
    2: (0.34150635094610976, 0.34150635094610959, 0.16666666666666669),
    3: (0.052699346542156383, 0.052699346542156349, 0.016368212527466383),
    4: (0.0030070326520293018, 0.0030070326520292992, 0.00057870370370370389),
}


def test_criterion_3_p1_table(capfd):
    def body():
        sv = singular_values(matricize(build(rho1()), Bipartition.of((0,), 3)))
        for h, (s_pinned, bisep_pinned, full_pinned) in S_H_TABLE.items():
            s_h = elementary_symmetric(h, sv)
            brute = elementary_symmetric_bruteforce(h, sv)
            assert abs(s_h - brute) <= 1e-12
            assert abs(s_h - s_pinned) <= 1e-12
            assert abs(bisep_bound_p1(2, 4, h) - bisep_pinned) <= 1e-15
            assert abs(fullsep_bound_p1((2, 2, 2), h, 4) - full_pinned) <= 1e-15
            # saturation of the bi-separable p=1 bound at every order, and
            # violation of the fully-separable one
            assert abs(s_h - bisep_pinned) <= 1e-9 * s_h
            assert s_h > full_pinned
        # the externally quoted pair (1/(8 sqrt 3), 1/24) is recorded as an
        # open question in RESULTS.md, not asserted against any bound; both
        # numbers are individual pairwise products of the spectrum
        assert abs(sv[0] * sv[1] - 1 / (8 * math.sqrt(3))) <= 1e-12
        assert abs(sv[1] * sv[2] - 1 / 24) <= 1e-12

    _criterion(capfd, 3, "p=1 elementary symmetric table", body)


@pytest.mark.parametrize("family,criteria,trials", [
    ("fully-separable-sfnf-222", ("cmn-full-inf", "cmn-full-p1", "dvh-full"), 10_000),
    ("fully-separable-sfnf-223", ("cmn-full-inf", "cmn-full-p1", "dvh-full"), 2_000),
    ("biseparable-filtered-222", ("cmn-bisep-inf", "cmn-bisep-p1"), 10_000),
    ("biseparable-filtered-223", ("cmn-bisep-inf", "cmn-bisep-p1"), 2_000),
])
def test_criterion_4_soundness(capfd, family, criteria, trials):
    def body():
        for criterion in criteria:
            rep = separability_audit(family, criterion, trials, 2026)
            assert rep.violations == 0, (
                f"{family}/{criterion}: {rep.violations} violations, "
                f"worst margin {rep.worst_margin:.3e}"
            )

    _criterion(capfd, 4, f"soundness audit {family}", body)


def test_criterion_5_oracle_equivalence(capfd):
    def body():
        rng = np.random.default_rng(505)
        # CMN against the compound-matrix Schatten norm
        for shape in [(4, 4), (4, 16), (9, 9)]:
            for _ in range(200):
                m = rng.normal(size=shape)
                h = rng.integers(1, min(shape) + 1)
                p = rng.choice([1.0, 2.0, math.inf])
                lhs = cmn(m, CmnParams(int(h), float(p)))
                rhs = schatten_norm(compound_matrix(m, int(h)), float(p))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
        # flattening against the direct bipartite construction
        bases = canonical_bases((2, 2, 2))
        for seed in range(100):
            rho = random_density((2, 2, 2), 4, 5000 + seed)
            m = matricize(build(rho), Bipartition.of((0,), 3))
            direct = np.empty((4, 16))
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        op = np.kron(np.kron(bases[0].ops[i], bases[1].ops[j]), bases[2].ops[k])
                        direct[i, 4 * k + j] = np.trace(rho.data @ op).real
            assert np.abs(m - direct).max() <= 1e-12

    _criterion(capfd, 5, "oracle equivalence", body)


def test_criterion_6_sfnf_spectrum_relation(capfd):
    def body():
        for seed in range(100):
            dims = (2, 2, 2) if seed % 2 else (2, 2, 3)
            rho = random_fully_separable_sfnf(dims, 6000 + seed)
            t = build(rho)
            vertex = float(np.prod([1 / math.sqrt(d) for d in dims]))
            for part in iter_bipartitions(len(dims)):
                full = np.sort(singular_values(matricize(t, part)))
                w = singular_values(matricize_interior(interior(t), part))
                pad = len(full) - len(w) - 1
                expected = np.sort(np.concatenate([w, [vertex], np.zeros(pad)]))
                assert np.abs(full - expected).max() <= 1e-10

    _criterion(capfd, 6, "SFNF spectrum relation", body)


def test_criterion_7_discord(capfd):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        part = Bipartition.of((0,), 2)
        # singular-value dominance over 1000 random (state, measurement) pairs
        for trial in range(1000):
            rho = random_density((2, 2), int(rng.integers(1, 5)), 7000 + trial)
            fam = measurement_from_angles((2, 2), rng.uniform(0, 2 * math.pi, size=4))
            before = singular_values(matricize(build(rho), part))
            after = singular_values(matricize(build(measure_state(rho, fam)), part))
            assert np.all(after <= before + 1e-10)
        # discord is never meaningfully negative
        fast = OptimizerCfg(restarts=4, init_step=0.4, min_step=1e-4)
        for seed in range(10):
            rho = random_density((2, 2), 3, 7700 + seed)
            res = global_discord_cmn(rho, part, CmnParams(2, 1.0), fast)
            assert res.value >= -1e-6
        # classical states have zero discord at h <= 2
        for seed in range(50):
            probs = rng.dirichlet(np.ones(4))
            rho = classical_state((2, 2), probs)
            for h in (1, 2):
                res = global_discord_cmn(rho, part, CmnParams(h, 1.0), fast)
                assert abs(res.value) <= 1e-6
        # Bell-state one-sided discord against a 1 degree grid oracle
        rho = bell(1).to_density()
        params = CmnParams(2, 1.0)
        from cmnlab.cmn import cmn_power
        from cmnlab.discord import MeasurementFamily, computational_measurement

        base = cmn_power(matricize(build(rho), part), params)
        best = -math.inf
        stacks0 = computational_measurement((2, 2)).projectors
        for theta_deg in range(0, 181):
            for phi_deg in range(0, 360):
                sub = measurement_from_angles(
                    (2,), [math.radians(theta_deg), math.radians(phi_deg)]
                )
                fam = MeasurementFamily((2, 2), (sub.projectors[0], stacks0[1]))
                after = measure_state(rho, fam, parties=(0,))
                best = max(best, cmn_power(matricize(build(after), part), params))
        oracle = base - best
        res = bipartite_discord_cmn(rho, part, "a", params, OptimizerCfg(restarts=8))
        assert abs(res.value - oracle) <= 1e-4
        assert abs(res.value - 1.25) <= 1e-4
        assert time.perf_counter() - start < 300

    _criterion(capfd, 7, "discord properties", body)


def test_criterion_8_normal_form(capfd):
    def body():
        for seed in range(1000):
            hist = []
            rho = random_density((2, 2, 2), 8, 8000 + seed)
            out = filter_to_fnf(rho, history=hist)
            for p in range(3):
                red = partial_trace(out, [p])
                assert trace_distance(red.data, np.eye(2) / 2) <= 1e-9
            assert np.diff(hist).min() >= -1e-12
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1
        bad = DensityMatrix((2, 2, 2), np.kron(np.kron(zero, np.eye(2) / 2), np.eye(2) / 2))
        with pytest.raises(FilteringError, match="rank deficient"):
            filter_to_fnf(bad)

    _criterion(capfd, 8, "filter normal form", body)


def test_criterion_9_rho2_documented_as_unreproducible(capfd):
    def body():
        import pathlib

        text = (pathlib.Path(__file__).parent.parent / "RESULTS.md").read_text()
        for token in ("0.4982", "0.4784", "3.0549e-3"):
            assert token in text
        assert "not reproducible" in text.lower()

    _criterion(capfd, 9, "rho2 gap documented", body)
