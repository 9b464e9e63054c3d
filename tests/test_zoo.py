import math

import numpy as np
import pytest

from cmnlab.basis import normalized_generalized_gell_mann
from cmnlab.linalg import DensityMatrix, hermitize, partial_trace, pauli, singular_values
from cmnlab.normal_form import DEFAULT_TOL
from cmnlab.tensor import Bipartition, build, iter_bipartitions, matricize
from cmnlab.zoo import (
    TETRAHEDRON,
    ZOO,
    bell,
    classical_state,
    from_name,
    ghz,
    maximally_mixed,
    random_biseparable,
    random_biseparable_stack,
    random_density,
    random_fully_separable,
    random_fully_separable_sfnf,
    random_fully_separable_sfnf_stack,
    rho1,
    sic_povm_qubit,
    w_state,
)

from conftest import sfnf_residual


class TestSicPovm:
    def test_bloch_vectors_unit_length(self):
        for r in TETRAHEDRON:
            assert abs(np.linalg.norm(r) - 1) < 1e-14

    def test_pairwise_overlaps(self):
        # tetrahedral symmetry: tr(rho_i rho_j) = 1/3 off the diagonal
        states = [sic_povm_qubit(i).data for i in range(1, 5)]
        for i in range(4):
            for j in range(4):
                ov = np.trace(states[i] @ states[j]).real
                expected = 1.0 if i == j else 1 / 3
                assert abs(ov - expected) < 1e-12

    def test_sum_is_twice_identity(self):
        total = sum(sic_povm_qubit(i).data for i in range(1, 5))
        assert np.abs(total - 2 * np.eye(2)).max() < 1e-12

    def test_pure(self):
        for i in range(1, 5):
            rho = sic_povm_qubit(i).data
            assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_index_guard(self):
        with pytest.raises(ValueError):
            sic_povm_qubit(0)


class TestBell:
    def test_orthonormal(self):
        vs = [bell(i).amplitudes for i in range(1, 5)]
        g = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.abs(g - np.eye(4)).max() < 1e-14

    def test_order(self):
        assert np.abs(bell(1).amplitudes - np.array([1, 0, 0, 1]) / math.sqrt(2)).max() < 1e-14
        assert np.abs(bell(2).amplitudes - np.array([0, 1, 1, 0]) / math.sqrt(2)).max() < 1e-14
        assert np.abs(bell(3).amplitudes - np.array([1, 0, 0, -1]) / math.sqrt(2)).max() < 1e-14
        assert np.abs(bell(4).amplitudes - np.array([0, 1, -1, 0]) / math.sqrt(2)).max() < 1e-14


def _rho1_reference():
    """Independent 8x8 assembly from (1 + r.sigma)/2 and explicit Bell
    projectors, bypassing the zoo constructors."""
    sigma = np.stack([pauli("x"), pauli("y"), pauli("z")])
    bells = [
        np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
        np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
        np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
        np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
    ]
    total = np.zeros((8, 8), dtype=complex)
    for r, b in zip(TETRAHEDRON, bells):
        local = (np.eye(2) + np.tensordot(r, sigma, axes=(0, 0))) / 2
        total += np.kron(local, np.outer(b, b.conj())) / 4
    return total


class TestRho1:
    def test_matches_reference_assembly(self):
        assert np.abs(rho1().data - _rho1_reference()).max() < 1e-14

    def test_pinned_entries(self):
        rho = rho1().data
        # diagonal: (2 +/- 1/sqrt(3)) / 16 pattern from the z components
        lo = (1 - 1 / math.sqrt(3)) / 8
        hi = (1 + 1 / math.sqrt(3)) / 8
        assert np.abs(np.diag(rho).real - np.array(
            [hi, lo, lo, hi, lo, hi, hi, lo]) / 2 * 2).max() < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-14

    def test_singular_spectrum(self):
        # each matricization has spectrum {1/(2 sqrt 2), 1/(2 sqrt 6) x3}
        t = build(rho1())
        for part in iter_bipartitions(3):
            sv = singular_values(matricize(t, part))[:4]
            expected = np.array([1 / (2 * math.sqrt(2))] + [1 / (2 * math.sqrt(6))] * 3)
            assert np.abs(np.sort(sv)[::-1] - expected).max() < 1e-12

    def test_is_sfnf(self):
        assert sfnf_residual(build(rho1())) <= DEFAULT_TOL

    def test_reductions_maximally_mixed(self):
        for p in range(3):
            red = partial_trace(rho1(), [p])
            assert np.abs(red.data - np.eye(2) / 2).max() < 1e-13


class TestPureFamilies:
    def test_ghz_amplitudes(self):
        amp = ghz(3, 2).amplitudes
        assert abs(amp[0] - 2**-0.5) < 1e-14
        assert abs(amp[7] - 2**-0.5) < 1e-14
        assert np.abs(amp[1:7]).max() < 1e-14

    def test_ghz_qutrit(self):
        amp = ghz(2, 3).amplitudes
        nz = np.flatnonzero(np.abs(amp) > 1e-14)
        assert list(nz) == [0, 4, 8]

    def test_w_state(self):
        amp = w_state(3).amplitudes
        nz = np.flatnonzero(np.abs(amp) > 1e-14)
        assert list(nz) == [1, 2, 4]
        assert abs(np.linalg.norm(amp) - 1) < 1e-14

    def test_guards(self):
        with pytest.raises(ValueError):
            ghz(1)
        with pytest.raises(ValueError):
            w_state(1)


class TestSamplers:
    def test_determinism(self):
        a = random_density((2, 2, 2), 4, 7)
        b = random_density((2, 2, 2), 4, 7)
        assert np.abs(a.data - b.data).max() == 0

    def test_fully_separable_is_valid(self):
        rho = random_fully_separable((2, 2, 3), 5, 3)
        assert rho.dims == (2, 2, 3)

    def test_biseparable_is_ppt_across_cut(self):
        from cmnlab.audit import ppt_check

        part = Bipartition.of((1,), 3)
        for seed in range(5):
            rho = random_biseparable((2, 2, 2), part, 6, seed)
            assert ppt_check(rho, part)

    def test_biseparable_party_order(self):
        # building across C|AB then reducing must give a product structure
        # between C and AB, not between A and BC
        part = Bipartition.of((2,), 3)
        rho = random_biseparable((2, 2, 2), part, 1, 11)
        # rank-1 mixture: the state is a pure product across the cut
        m = matricize(build(rho), part)
        assert singular_values(m)[1] < 1e-10

    def test_sfnf_sampler(self):
        for dims in [(2, 2, 2), (2, 2, 3)]:
            for seed in range(3):
                rho = random_fully_separable_sfnf(dims, seed)
                t = build(rho)
                assert sfnf_residual(t) <= DEFAULT_TOL

    def test_sfnf_sampler_interior_nontrivial(self):
        rho = random_fully_separable_sfnf((2, 2, 2), 9)
        m = matricize(build(rho), Bipartition.of((0,), 3))
        assert singular_values(m)[1] > 1e-6


class TestRegistry:
    def test_all_entries_valid(self):
        for name in ZOO:
            rho = from_name(name)
            assert isinstance(rho, DensityMatrix)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            from_name("nope")

    def test_classical_guard(self):
        with pytest.raises(ValueError):
            classical_state((2, 2), (0.5, 0.5, 0.5, 0.5))

    def test_maximally_mixed(self):
        rho = maximally_mixed((2, 3))
        assert abs(np.trace(rho.data) - 1) < 1e-14


def _bloch_pair(d, rng, radius=0.5):
    """1/d ± r·G for a random interior Bloch vector r, halved until both
    signs are PSD: the per-party draw of the SFNF sampler."""
    basis = normalized_generalized_gell_mann(d)
    r = rng.normal(size=d * d - 1)
    r *= radius * rng.uniform(0, 1) / np.linalg.norm(r)
    pert = np.tensordot(r, basis[1:], axes=(0, 0))
    for _ in range(60):
        plus = np.eye(d) / d + pert
        minus = np.eye(d) / d - pert
        lo = min(np.linalg.eigvalsh(hermitize(plus)).min(),
                 np.linalg.eigvalsh(hermitize(minus)).min())
        if lo >= 1e-6:
            return hermitize(plus), hermitize(minus)
        pert = pert / 2
    raise RuntimeError("could not shrink Bloch perturbation into the state body")


def _sfnf_oracle(dims, seed, n_blocks=3):
    """The per-state SFNF sampler: each block averages the 2^(n-1)
    even-parity sign patterns of product states, one Kronecker product per
    pattern."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    side = int(np.prod(dims))
    total = np.zeros((side, side), dtype=complex)
    for w in rng.dirichlet(np.ones(n_blocks)):
        pairs = [_bloch_pair(d, rng) for d in dims]
        block = np.zeros((side, side), dtype=complex)
        count = 0
        for bits in range(2**n):
            signs = [(bits >> k) & 1 for k in range(n)]
            if sum(signs) % 2:
                continue
            term = pairs[0][signs[0]]
            for k in range(1, n):
                term = np.kron(term, pairs[k][signs[k]])
            block += term
            count += 1
        total += w * block / count
    return hermitize(total)


def _biseparable_oracle(dims, part, k_terms, seed):
    """The per-term bi-separable sampler: one Haar vector per side and term,
    drawn in turn, mixed with flat Dirichlet weights."""
    rng = np.random.default_rng(seed)
    d_a, d_b = part.side_dims(dims)
    weights = rng.dirichlet(np.ones(k_terms))
    total = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        va = rng.normal(size=d_a) + 1j * rng.normal(size=d_a)
        vb = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        total += w * np.outer(v, v.conj())
    order = list(part.side_a) + list(part.side_b)
    perm = np.argsort(order)
    n = len(dims)
    t = total.reshape([dims[i] for i in order] * 2)
    t = np.transpose(t, list(perm) + [n + p for p in perm])
    return hermitize(t.reshape(d_a * d_b, d_a * d_b))


def _fully_separable_oracle(dims, k_terms, seed):
    """The per-term fully-separable sampler: one Haar vector per party and
    term, drawn in turn, Kronecker-multiplied and mixed with flat Dirichlet
    weights."""
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    weights = rng.dirichlet(np.ones(k_terms))
    total = np.zeros((side, side), dtype=complex)
    for w in weights:
        v = np.ones(1)
        for d in dims:
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            v = np.kron(v, u / np.linalg.norm(u))
        total += w * np.outer(v, v.conj())
    return hermitize(total)


@pytest.mark.parametrize("dims", [(2, 2, 3), (3, 3), (2, 3, 2, 2)])
def test_fully_separable_matches_per_term_oracle(dims):
    from cmnlab.audit import ppt_check

    for k_terms in (1, 5, 24):
        for seed in range(10):
            rho = random_fully_separable(dims, k_terms, seed)
            assert np.abs(rho.data - _fully_separable_oracle(dims, k_terms, seed)).max() <= 1e-15
            assert all(ppt_check(rho, part) for part in iter_bipartitions(len(dims)))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
def test_sfnf_stack_matches_sign_pattern_oracle(dims):
    seeds = list(range(300, 350))
    stack = random_fully_separable_sfnf_stack(dims, seeds)
    assert stack.shape == (50,) + (int(np.prod(dims)),) * 2
    for row, seed in zip(stack, seeds):
        assert np.abs(row - _sfnf_oracle(dims, seed)).max() <= 1e-15
    for seed in seeds[:3]:
        one = random_fully_separable_sfnf(dims, seed).data
        assert np.abs(one - _sfnf_oracle(dims, seed)).max() <= 1e-15


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
@pytest.mark.parametrize("side_a", [(0,), (2,)])
def test_biseparable_stack_matches_per_term_oracle(dims, side_a):
    part = Bipartition.of(side_a, 3)
    seeds = list(range(400, 450))
    stack = random_biseparable_stack(dims, part, 24, seeds)
    for row, seed in zip(stack, seeds):
        assert np.abs(row - _biseparable_oracle(dims, part, 24, seed)).max() <= 1e-15
    for seed in seeds[:3]:
        one = random_biseparable(dims, part, 24, seed).data
        assert np.abs(one - _biseparable_oracle(dims, part, 24, seed)).max() <= 1e-15


def test_stack_samplers_validate_every_row(monkeypatch):
    from cmnlab import linalg, zoo

    calls = []
    real = linalg.check_density_stack
    monkeypatch.setattr(zoo, "check_density_stack", lambda data: calls.append(len(data)) or real(data))
    random_fully_separable_sfnf_stack((2, 2, 2), [1, 2, 3])
    random_biseparable_stack((2, 2, 2), Bipartition.of((0,), 3), 4, [1, 2])
    assert calls == [3, 2]


def _eigvalsh_shrink(pert, d):
    """The Bloch halving loop, halving until eigvalsh of both signs passes:
    the oracle for the closed form in zoo._shrink_into_body."""
    body = np.eye(d) / d
    todo = np.arange(len(pert))
    for _ in range(60):
        both = np.concatenate([body + pert[todo], body - pert[todo]])
        lo = np.linalg.eigvalsh(hermitize(both)).min(axis=1).reshape(2, -1).min(axis=0)
        todo = todo[~(lo >= 1e-6)]
        if not len(todo):
            return
        pert[todo] = pert[todo] / 2
    raise RuntimeError("could not shrink Bloch perturbation into the state body")


def test_shrink_into_body_matches_eigvalsh_loop(monkeypatch):
    from cmnlab import zoo

    seen = []
    real = zoo._shrink_into_body

    def spy(pert, d):
        before = pert.copy()
        real(pert, d)
        seen.append((d, before, pert.copy()))

    monkeypatch.setattr(zoo, "_shrink_into_body", spy)
    random_fully_separable_sfnf_stack((2, 2, 3), np.arange(2026, 2026 + 256))
    halved = 0
    for d, before, after in seen:
        want = before.copy()
        _eigvalsh_shrink(want, d)
        assert want.tobytes() == after.tobytes()
        halved += int((before != after).any(axis=(1, 2)).sum())
    assert [d for d, _, _ in seen] == [2, 2, 3] and halved  # qutrit halving fired


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_halving_matches_eigvalsh_loop(d):
    """Perturbations r·G with Bloch radii up to 2, four times the sampler's,
    so that every d gets rows halved once or several times; a zero
    perturbation is left as it is."""
    from cmnlab import zoo

    rng = np.random.default_rng(2000 + d)
    r = rng.normal(size=(3000, d * d - 1))
    r *= (rng.uniform(0, 2, size=3000) / np.linalg.norm(r, axis=1))[:, None]
    r[0] = 0
    pert = np.tensordot(r, normalized_generalized_gell_mann(d)[1:], axes=(1, 0))
    want, got = pert.copy(), pert.copy()
    _eigvalsh_shrink(want, d)
    zoo._shrink_into_body(got, d)
    assert want.tobytes() == got.tobytes()
    assert not got[0].any()
    halvings = np.rint(np.log2(np.abs(pert).max(axis=(1, 2))[1:]
                               / np.abs(got).max(axis=(1, 2))[1:]))
    assert (halvings >= 1).sum() >= 300 and halvings.max() >= 2
