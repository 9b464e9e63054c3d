import numpy as np
import pytest
from itertools import combinations, product

from cmnlab.basis import normalized_generalized_gell_mann
from cmnlab.linalg import DensityMatrix, singular_values
from cmnlab.tensor import (
    Bipartition,
    CorrelationTensor,
    build,
    iter_bipartitions,
    matricize,
    matricize_interior,
)
from cmnlab.zoo import bell, ghz, maximally_mixed, rho1, random_fully_separable_sfnf
from cmnlab.linalg import partial_trace

from conftest import random_density


class TestBipartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bipartition((), (0, 1))
        with pytest.raises(ValueError):
            Bipartition((0,), (0, 1))

    def test_of(self):
        p = Bipartition.of((2,), 3)
        assert p.side_a == (2,) and p.side_b == (0, 1)
        assert p.label() == "C|AB"

    @pytest.mark.parametrize("side_a,n", [((2,), 2), ((0, 3), 3), ((-1,), 2)])
    def test_of_rejects_a_party_out_of_range(self, side_a, n):
        # filling side B from range(n) would make a stray index a cut of n + 1 parties
        with pytest.raises(ValueError, match="not all in"):
            Bipartition.of(side_a, n)

    def test_enumeration_counts(self):
        assert len(list(iter_bipartitions(2))) == 1
        assert len(list(iter_bipartitions(3))) == 3
        assert len(list(iter_bipartitions(4))) == 7

    @pytest.mark.parametrize("n", range(2, 8))
    def test_enumeration_is_one_tuple_of_the_old_cuts(self, n):
        """One tuple per n, holding the cuts and labels that the generator
        it replaced yielded, in its order; the stored label is no field."""
        def old_cuts(n):
            letters = lambda side: "".join(chr(ord("A") + i) for i in side)
            for size in range(0, n - 1):
                for extra in combinations(range(1, n), size):
                    a = (0,) + extra
                    b = tuple(i for i in range(1, n) if i not in extra)
                    yield a, b, f"{letters(a)}|{letters(b)}"

        cuts = iter_bipartitions(n)
        assert cuts is iter_bipartitions(n)
        assert [(p.side_a, p.side_b, p.label()) for p in cuts] == list(old_cuts(n))
        for p in cuts:
            assert p == Bipartition(set(p.side_a), set(p.side_b))
            assert hash(p) == hash((p.side_a, p.side_b))
            assert repr(p) == f"Bipartition(side_a={p.side_a!r}, side_b={p.side_b!r})"


class TestBuild:
    def test_maximally_mixed(self):
        t = build(maximally_mixed((2, 2, 2)))
        data = t.data.copy()
        assert abs(data[0, 0, 0] - 2**-1.5) < 1e-14
        data[0, 0, 0] = 0
        assert np.abs(data).max() < 1e-14

    def test_rho1_is_diagonal(self):
        t = build(rho1())
        for idx in np.ndindex(4, 4, 4):
            if len(set(idx)) > 1:
                assert abs(t.data[idx]) < 1e-12

    def test_ghz_entries_match_trace_oracle(self):
        rho = ghz(3, 2).to_density()
        t = build(rho)
        bases = [normalized_generalized_gell_mann(d) for d in (2, 2, 2)]
        for idx in [(0, 0, 0), (3, 3, 0), (3, 0, 3), (0, 3, 3), (1, 1, 1), (2, 2, 1)]:
            op = np.kron(np.kron(bases[0][idx[0]], bases[1][idx[1]]), bases[2][idx[2]])
            oracle = np.trace(rho.data @ op).real
            assert abs(t.data[idx] - oracle) < 1e-12
        assert abs(t.data[3, 3, 0] - 2**-1.5) < 1e-12


class TestMatricize:
    def test_shape(self):
        t = build(random_density((2, 2, 2), 4, 0))
        m = matricize(t, Bipartition.of((0,), 3))
        assert m.shape == (4, 16)
        m = matricize(t, Bipartition.of((0, 2), 3))
        assert m.shape == (16, 4)

    def test_flattening_layout(self):
        # columns composite over (B, C) with B varying fastest
        t = build(random_density((2, 2, 2), 6, 1))
        m = matricize(t, Bipartition.of((0,), 3))
        for i, j, k in product(range(4), repeat=3):
            assert m[i, 4 * k + j] == t.data[i, j, k]

    def test_matches_direct_bipartite_construction(self):
        # independent oracle: composite operator basis {B_j ⊗ C_k} traced
        # directly against the state
        rho = random_density((2, 2, 2), 5, 2)
        t = build(rho)
        m = matricize(t, Bipartition.of((0,), 3))
        bases = [normalized_generalized_gell_mann(d) for d in (2, 2, 2)]
        direct = np.empty((4, 16))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    op = np.kron(np.kron(bases[0][i], bases[1][j]), bases[2][k])
                    direct[i, 4 * k + j] = np.trace(rho.data @ op).real
        assert np.abs(m - direct).max() <= 1e-12

    def test_pure_product_state_is_rank_one(self):
        from cmnlab.zoo import random_fully_separable

        rho = random_fully_separable((2, 2, 2), 1, 9)
        for part in iter_bipartitions(3):
            sv = singular_values(matricize(build(rho), part))
            assert sv[1] <= 1e-10


class TestInterior:
    def test_maximally_mixed(self):
        w = matricize_interior(build(maximally_mixed((2, 2))), Bipartition.of((0,), 2))
        assert np.abs(w).max() < 1e-14

    def test_bell(self):
        w = matricize_interior(build(bell(1).to_density()), Bipartition.of((0,), 2))
        assert np.abs(w - np.diag([0.5, -0.5, 0.5])).max() < 1e-12

    def test_shape_must_match_the_dims_profile(self):
        with pytest.raises(ValueError, match="does not match dims profile"):
            CorrelationTensor((2, 2), np.zeros((4, 9)))

    def test_party_count_mismatch_rejected(self):
        t = build(bell(1).to_density())
        for flatten in (matricize, matricize_interior):
            with pytest.raises(ValueError, match="party count"):
                flatten(t, Bipartition.of((0,), 3))

    def test_rho1_interior_sum(self):
        t = build(rho1())
        for part in iter_bipartitions(3):
            w = matricize_interior(t, part)
            assert abs(singular_values(w).sum() - np.sqrt(3 / 8)) < 1e-12


class TestFace:
    def test_face_equals_scaled_reduced_tensor(self):
        # fixing one party's index at the identity leaves 1/sqrt(d) times
        # the correlation tensor of the other parties' reduction
        for seed in range(3):
            rho = random_density((2, 2, 2), 6, 40 + seed)
            t = build(rho)
            for axis in range(3):
                keep = [i for i in range(3) if i != axis]
                reduced_tensor = build(partial_trace(rho, keep))
                got = np.take(t.data, 0, axis=axis) * np.sqrt(2)
                assert np.abs(got - reduced_tensor.data).max() <= 1e-12


def test_spectrum_invariant_under_local_orthogonal_mixing(rng):
    # conjugating each party's traceless sector by a random orthogonal
    # matrix is a change of operator basis; matricization spectra must not move
    rho = random_density((2, 2, 2), 5, 77)
    t = build(rho)
    data = t.data.copy()
    for axis in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        block = np.eye(4)
        block[1:, 1:] = q
        data = np.tensordot(block, data, axes=(1, axis))
        data = np.moveaxis(data, 0, axis)
    for part in iter_bipartitions(3):
        ref = singular_values(matricize(t, part))
        from cmnlab.tensor import _matricize_array

        rot = singular_values(_matricize_array(data, part))
        assert np.abs(ref - rot).max() <= 1e-9


def test_sfnf_spectrum_contains_interior_plus_vertex():
    # spectrum of the full matricization = interior spectrum plus the vertex
    # singular value, for states in strong filter normal form
    for seed in range(5):
        rho = random_fully_separable_sfnf((2, 2, 2), 100 + seed)
        t = build(rho)
        for part in iter_bipartitions(3):
            full = np.sort(singular_values(matricize(t, part)))
            w = singular_values(matricize_interior(t, part))
            expected = np.sort(np.concatenate([w, [2**-1.5], np.zeros(len(full) - len(w) - 1)]))
            assert np.abs(full - expected).max() <= 1e-10


def test_build_stack_rows_equal_build():
    from cmnlab.tensor import build_stack

    rhos = [random_density((2, 2, 3), 4, 210 + s) for s in range(4)]
    stack = build_stack(np.stack([r.data for r in rhos]), (2, 2, 3))
    for row, rho in zip(stack, rhos):
        assert np.abs(row - build(rho).data).max() <= 1e-15


def test_build_stack_checks_every_row():
    from cmnlab.tensor import build_stack

    good = random_density((2, 2), 4, 220).data
    bad = good.copy()
    bad[0, 1] += 1e-3j  # not Hermitian: its expectations pick up an imaginary part
    with pytest.raises(ValueError, match="imaginary residue"):
        build_stack(np.stack([good, bad]), (2, 2))
    with pytest.raises(ValueError, match="vertex entry"):
        build_stack(np.stack([good, 2 * good]), (2, 2))


@pytest.mark.parametrize("sign", [1, -1])
def test_every_trace_the_state_check_accepts_builds(sign):
    from cmnlab.linalg import EPS_TRACE
    from cmnlab.tensor import build_stack

    data = random_density((2, 2, 2), 8, 230).data * (1 + sign * 0.999 * EPS_TRACE)
    rho = DensityMatrix((2, 2, 2), data)
    vertex = build(rho).data[0, 0, 0]
    assert abs(vertex * 8**0.5 - data.trace().real) <= 1e-15
    assert np.array_equal(build_stack(data[None], (2, 2, 2))[0], build(rho).data)
