import math

import numpy as np
import pytest

from cmnlab.cmn import SV_CLAMP, CmnParams, cmn, elementary_symmetric, spectrum_power
from cmnlab.tensor import Bipartition, build, matricize
from cmnlab.zoo import bell, rho1


def _clamped(sigma):
    """The clamp rule: zero the singular values below SV_CLAMP times the
    largest."""
    sigma = np.asarray(sigma, dtype=float).copy()
    if sigma.size and sigma.max() > 0:
        sigma[sigma < SV_CLAMP * sigma.max()] = 0.0
    return sigma


def _cmn_from_spectrum(sigma, params):
    """M_{h,p} of one precomputed singular spectrum."""
    power = float(spectrum_power(sigma, params)[0])
    return power if math.isinf(params.p) else power ** (1 / params.p)


class TestElementarySymmetric:
    def test_s1(self):
        assert elementary_symmetric(1, [1, 2, 3]) == 6

    def test_full_product(self):
        assert elementary_symmetric(3, [1, 2, 3]) == 6

    def test_against_pair_enumeration(self, rng):
        xs = rng.uniform(0.1, 2.0, size=6)
        brute = sum(xs[i] * xs[j] for i in range(6) for j in range(i + 1, 6))
        assert abs(elementary_symmetric(2, xs) - brute) <= 1e-12 * abs(brute)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric(4, [1, 2, 3])
        with pytest.raises(ValueError):
            elementary_symmetric(0, [1, 2, 3])

    def test_long_input_stays_stable(self, rng):
        xs = rng.uniform(0.5, 1.5, size=40)
        # Vieta cross-check: S_h are (+/-) coefficients of prod (t - x_i)
        coeffs = np.poly(xs)
        for h in (1, 5, 17):
            assert abs(elementary_symmetric(h, xs) - abs(coeffs[h])) <= 1e-9 * abs(coeffs[h])


class TestCmn:
    def test_bell_full_minor_inf(self):
        m = matricize(build(bell(1).to_density()), Bipartition.of((0,), 2))
        assert abs(cmn(m, CmnParams(4, math.inf)) - 1 / 16) < 1e-12

    def test_rho1_matches_reference_value(self):
        value = 1 / (64 * 3 * math.sqrt(3))
        for part in ((0,), (1,), (2,)):
            m = matricize(build(rho1()), Bipartition.of(part, 3))
            assert abs(cmn(m, CmnParams(4, math.inf)) - value) <= 1e-9 * value

    def test_zero_matrix(self):
        for h in (1, 2, 4):
            assert cmn(np.zeros((4, 4)), CmnParams(h, math.inf)) == 0

    def test_p1_equals_pinf_at_full_minor_order(self):
        m = matricize(build(rho1()), Bipartition.of((0,), 3))
        v_inf = cmn(m, CmnParams(4, math.inf))
        v_one = cmn(m, CmnParams(4, 1.0))
        assert abs(v_inf - v_one) <= 1e-12

    def test_finite_p_interpolates(self, rng):
        m = rng.normal(size=(4, 4))
        sv = np.linalg.svd(m, compute_uv=False)
        v = cmn(m, CmnParams(2, 2.0))
        brute = math.sqrt(sum((sv[i] * sv[j]) ** 2 for i in range(4) for j in range(i + 1, 4)))
        assert abs(v - brute) <= 1e-10 * brute

    def test_monotone_in_each_singular_value(self, rng):
        sv = np.sort(rng.uniform(0.1, 1.0, size=4))[::-1]
        for params in (CmnParams(2, 1.0), CmnParams(3, math.inf), CmnParams(2, 2.0)):
            base = _cmn_from_spectrum(sv, params)
            for k in range(4):
                bumped = sv.copy()
                bumped[k] *= 1.3
                assert _cmn_from_spectrum(bumped, params) >= base - 1e-14

    def test_transpose_invariance(self, rng):
        m = rng.normal(size=(4, 9))
        for params in (CmnParams(2, 1.0), CmnParams(4, math.inf)):
            assert abs(cmn(m, params) - cmn(m.T, params)) <= 1e-12

    def test_h_beyond_spectrum_rejected(self):
        with pytest.raises(ValueError):
            cmn(np.eye(3), CmnParams(4, 1.0))


class TestSpectrumPower:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
    def test_rows_match_scalar_sweep(self, p, rng):
        # each row equals the clamp / sort / S_h of one spectrum at a time,
        # with the same arithmetic, so the values agree exactly
        sigma = rng.uniform(0, 1, size=(7, 5))
        sigma[2, 3] = 1e-14  # clamped
        sigma[4] = 0.0
        for h in range(1, 6):
            got = spectrum_power(sigma, CmnParams(h, p))
            for row, value in zip(sigma, got):
                s = np.sort(_clamped(row))[::-1]
                want = np.prod(s[:h]) if math.isinf(p) else elementary_symmetric(h, s**p)
                assert value == want

    def test_cmn_of_a_stack_is_cmn_of_each_matrix(self, rng):
        ms = rng.normal(size=(5, 4, 9))
        ms[3] = 0.0
        for params in (CmnParams(2, 1.0), CmnParams(3, math.inf), CmnParams(4, 2.0),
                       CmnParams(4, 1.5), CmnParams(3, 0.7), CmnParams(2, 3.0)):
            got = cmn(ms, params)
            assert got.shape == (5,)
            for m, value in zip(ms, got):
                assert cmn(m, params) == value

    def test_h_beyond_row_length_rejected(self):
        with pytest.raises(ValueError):
            spectrum_power(np.ones((2, 3)), CmnParams(4, 1.0))


class TestParams:
    def test_invalid(self):
        with pytest.raises(ValueError):
            CmnParams(0, 1.0)
        with pytest.raises(ValueError):
            CmnParams(2, -1.0)


def _loop_elementary_symmetric(h, xs):
    """The coefficient sweep as an explicit double loop, the oracle for the
    vectorized kernel."""
    xs = np.asarray(xs, dtype=float)
    e = np.zeros(h + 1)
    e[0] = 1.0
    for x in xs:
        for j in range(h, 0, -1):
            e[j] += x * e[j - 1]
    return float(e[h])


class TestOneSweepKernel:
    def test_matches_loop_exactly(self, rng):
        for n in (1, 2, 4, 9, 16):
            for scale in (1e-3, 1.0, 1e3, 1e200):
                xs = rng.uniform(0, 1, size=n) * scale  # unsorted, may overflow
                for h in range(1, n + 1):
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = _loop_elementary_symmetric(h, xs)
                        got = elementary_symmetric(h, xs)
                    assert got == want or (math.isnan(got) and math.isnan(want))

    def test_bound_shaped_input_matches_loop(self):
        # [alpha] + [beta / (d^2 - 1)] * (d^2 - 1), as the p = 1 bounds use it
        for d2 in (4, 9, 16):
            xs = [0.25] + [0.75 / (d2 - 1)] * (d2 - 1)
            for h in range(1, d2 + 1):
                assert elementary_symmetric(h, xs) == _loop_elementary_symmetric(h, xs)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_cmn_from_spectrum_matches_loop(self, p, rng):
        for _ in range(50):
            sigma = rng.uniform(0, 1, size=6)
            sigma[rng.integers(6)] = 1e-14  # clamped
            s = np.sort(_clamped(sigma))[::-1]
            for h in range(1, 7):
                want = _loop_elementary_symmetric(h, s**p)
                if p != 1.0:
                    want = want ** (1 / p)
                assert _cmn_from_spectrum(sigma, CmnParams(h, p)) == want

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_h_beyond_spectrum_rejected_for_every_p(self, p):
        with pytest.raises(ValueError):
            spectrum_power(np.ones((2, 3)), CmnParams(4, p))
        with pytest.raises(ValueError):
            _cmn_from_spectrum(np.ones(3), CmnParams(4, p))
