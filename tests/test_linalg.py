import functools
import itertools
import math

import numpy as np
import pytest

from cmnlab.cmn import CmnParams, _sorted_spectrum_power
from cmnlab.linalg import (
    BlochVector,
    DensityMatrix,
    ValidationError,
    apply_local,
    bloch_to_qubit,
    PureState,
    check_density_stack,
    density_violations,
    partial_trace,
    permute_parties,
    singular_values,
)
from cmnlab.zoo import bell, rho1

from conftest import random_density


class TestKron:
    def test_identity(self):
        assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        assert np.allclose(np.kron(p, p), np.diag([1.0, 0, 0, 0]))

    def test_elementwise_oracle(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # brute-force block assembly: block (i,j) is a_ij * b
        expected = np.block([[a[i, j] * b for j in range(2)] for i in range(2)])
        assert np.abs(np.kron(a, b) - expected).max() < 1e-15

    def test_mixed_product_property(self, rng):
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestPartialTrace:
    def test_bell_reduction_maximally_mixed(self):
        red = partial_trace(bell(1).to_density(), [0])
        assert np.abs(red.data - np.eye(2) / 2).max() < 1e-14

    def test_product_state(self, rng):
        rho_a = random_density((2,), 2, 1)
        rho_b = random_density((3,), 3, 2)
        joint = DensityMatrix((2, 3), np.kron(rho_a.data, rho_b.data))
        red = partial_trace(joint, [0])
        assert np.abs(red.data - rho_a.data).max() < 1e-14

    def test_rho1_bc_reduction_is_bell_average(self):
        # direct summation over the four Bell projectors
        expected = sum(
            np.outer(bell(i).amplitudes, bell(i).amplitudes.conj()) for i in range(1, 5)
        ) / 4
        red = partial_trace(rho1(), [1, 2])
        assert np.abs(red.data - expected).max() < 1e-14
        assert np.abs(expected - np.eye(4) / 4).max() < 1e-14

    def test_trace_preserved_on_random_states(self):
        for seed in range(10):
            rho = random_density((2, 3, 2), 6, seed)
            red = partial_trace(rho, [0, 2])
            assert abs(red.data.trace() - 1) <= 1e-12

    def test_bad_keep(self):
        rho = random_density((2, 2), 2, 0)
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [5])


class TestBlochToQubit:
    def test_origin(self):
        rho = bloch_to_qubit(BlochVector(np.zeros(3)))
        assert np.allclose(rho.data, np.eye(2) / 2)

    def test_tetrahedron_vertex_matches_printed_matrix(self):
        s3 = np.sqrt(3)
        expected = 0.5 * np.array(
            [[(s3 + 1) / s3, (1 + 1j) / s3], [(1 - 1j) / s3, (s3 - 1) / s3]]
        )
        rho = bloch_to_qubit(BlochVector(np.array([1, -1, 1]) / s3))
        assert np.abs(rho.data - expected).max() < 1e-14

    def test_north_pole(self):
        rho = bloch_to_qubit(BlochVector(np.array([0.0, 0.0, 1.0])))
        assert np.allclose(rho.data, np.diag([1.0, 0.0]))

    def test_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            BlochVector(np.array([1.0, 1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="exactly 3 components"):
            BlochVector(np.zeros(2))

    def test_plain_sequence_is_read_as_a_bloch_vector(self):
        rho = bloch_to_qubit([0.0, 0.0, -1.0])
        assert np.array_equal(rho.data, np.diag([0.0, 1.0]))


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(4)), np.ones(4))

    def test_symmetric_diag(self):
        sv = singular_values(np.diag([3.0, -2.0]))
        assert sv.shape == (2,) and np.allclose(sv, [3, 2])

    def test_eigen_oracle(self, rng):
        m = rng.normal(size=(4, 16))
        sq = np.sort(singular_values(m))[::-1] ** 2
        eig = np.sort(np.linalg.eigvalsh(m @ m.T))[::-1]
        assert np.abs(sq - eig).max() < 1e-10

    def test_descending_nonnegative_permutation_invariant(self, rng):
        m = rng.normal(size=(5, 7))
        sv = singular_values(m)
        assert (sv >= 0).all() and (np.diff(sv) <= 1e-15).all()
        perm = m[rng.permutation(5)][:, rng.permutation(7)]
        assert np.abs(singular_values(perm) - sv).max() <= 1e-10



EPS = np.finfo(float).eps


def _rank1(rng, k, n):
    """(k, 2, n) row pairs r and λr, rounded as floats are."""
    r = rng.normal(size=(k, 1, n))
    return np.concatenate([r, rng.normal(size=(k, 1, 1)) * r], axis=1)


class TestTwoRowSingularValues:
    """singular_values on stacks of 2×n and n×2 matrices, the shapes that a
    measured qubit's dephased matricizations take."""

    SHAPES = [shape for k, n in zip(range(5, 13), range(2, 10)) for shape in ((k, 2, n), (k, n, 2))]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_lapack_oracle(self, rng, shape):
        # the oracle: LAPACK's symmetric eigensolver on each 2×2 Gram matrix
        m = rng.normal(size=shape) * rng.uniform(0.1, 10, size=(shape[0], 1, 1))
        rows = m if shape[1] == 2 else m.swapaxes(-1, -2)
        want = np.linalg.eigvalsh(rows @ rows.swapaxes(-1, -2))[:, ::-1]
        got = singular_values(m)
        assert got.shape == (shape[0], 2)
        assert (np.abs(got ** 2 - want) <= 8 * EPS * got[:, :1] ** 2).all()
        assert (got[:, 0] >= got[:, 1]).all() and (got >= 0).all()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank1_pairs_clamp_as_lapack(self, rng, transpose):
        for n in range(2, 10):
            m = _rank1(rng, 40, n)
            if transpose:
                m = m.swapaxes(-1, -2)
            got = singular_values(m)
            assert (got[:, 1] <= 4 * EPS * got[:, 0]).all()
            for p in (1.0, 2.0, math.inf):
                # SV_CLAMP zeroes what rounding leaves of σ₂, so h = 2 reads 0
                assert (_sorted_spectrum_power(got, CmnParams(2, p)) == 0).all()

    def test_zero_matrices_and_first_rows(self, rng):
        m = rng.normal(size=(6, 2, 3))
        m[[1, 4]] = 0
        m[2, 0] = 0
        got = singular_values(m)
        assert np.array_equal(got[[1, 4]], np.zeros((2, 2)))
        assert got[2, 1] == 0 and np.isclose(got[2, 0], np.linalg.norm(m[2, 1]), rtol=1e-15)
        assert np.array_equal(singular_values(np.zeros((2, 5))), np.zeros(2))

    def test_zero_second_row(self, rng):
        m = rng.normal(size=(4, 2, 5))
        m[:, 1] = 0
        norms = np.linalg.norm(m[:, 0], axis=-1)
        assert np.array_equal(singular_values(m)[:, 1], np.zeros(4))
        assert np.allclose(singular_values(m)[:, 0], norms, rtol=1e-15, atol=0)

    def test_orthogonal_rows_of_equal_norm(self, rng):
        for n in range(2, 10):
            q = np.linalg.qr(rng.normal(size=(n, 2)))[0]  # orthonormal columns
            scale = rng.uniform(0.1, 10)
            sv = singular_values(scale * q.T)
            assert sv[0] >= sv[1] and np.abs(sv - scale).max() <= 4 * EPS * scale

    def test_one_row_or_column_stays_with_lapack(self, rng):
        for shape in ((5, 2, 1), (5, 1, 2)):
            m = rng.normal(size=shape)
            got = singular_values(m)
            assert got.shape == (5, 1)
            assert np.allclose(got[:, 0], np.linalg.norm(m.reshape(5, 2), axis=1), rtol=1e-15)

    def test_nan_raises_as_lapack(self, rng):
        for shape in ((4, 2, 3), (4, 3, 2), (2, 2)):
            m = rng.normal(size=shape)
            m[..., 1, 0] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                singular_values(m)

    def test_inf_spectra_as_lapack(self, rng):
        # LAPACK gives the matrix that holds inf a NaN spectrum, raises nothing,
        # and leaves the stack's other spectra as they are alone
        m = rng.normal(size=(4, 2, 3))
        m[2, 1, 0] = np.inf
        got = singular_values(m)
        assert np.isnan(got[2]).all()
        rest = [0, 1, 3]
        assert np.array_equal(got[rest], singular_values(m[rest]))

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_entries(self, rng, scale):
        # nothing over- or underflows: the spectra scale with the entries
        m = rng.normal(size=(9, 2, 9))
        m[::2, 1] = m[::2, 0] * 0.5 + m[::2, 1] * 1e-9  # σ₂ ~ 1e-9 σ₁
        want = singular_values(m) * scale
        got = singular_values(m * scale)
        assert np.isfinite(got).all() and (got[:, 1] > 0).all()
        assert (np.abs(got - want) <= 8 * EPS * want[:, :1]).all()


class TestDensityMatrixValidation:
    def test_not_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix((2,), m)

    def test_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix((2,), np.eye(2, dtype=complex))

    def test_not_psd(self):
        with pytest.raises(ValidationError, match="semidefinite"):
            DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry(self, entry):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix((2,), m)

    def test_shape_must_match_dims(self):
        with pytest.raises(ValidationError, match=r"shape \(2, 2\) does not match dims \(2, 2\)"):
            DensityMatrix((2, 2), np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("amplitudes,message", [
        (np.ones(3) / np.sqrt(3), "length does not match dims"),
        (np.array([1.0, 1.0, 0.0, 0.0]), r"not normalized \(norm 1.41421356237\)"),
    ])
    def test_pure_state_checks(self, amplitudes, message):
        with pytest.raises(ValidationError, match=message):
            PureState((2, 2), amplitudes)

    def test_data_is_immutable(self):
        rho = random_density((2,), 2, 0)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 0


def test_apply_local_matches_embedded_operator(rng):
    rho = random_density((2, 3, 2), 5, 3)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    full = np.kron(np.kron(np.eye(2), op), np.eye(2))
    expected = full @ rho.data @ full.conj().T
    got = apply_local(op, rho.data, [1], (2, 3, 2))
    assert np.abs(got - expected).max() < 1e-12


class TestDensityStackCheck:
    def _bad_rows(self):
        good = random_density((2, 2), 4, 3).data
        skew = good.copy()
        skew[0, 1] += 1e-6
        heavy = good * 1.01
        negative = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        return good, [skew, heavy, negative]

    def test_first_bad_row_raises_the_one_state_text(self):
        good, bad = self._bad_rows()
        for row in bad:
            with pytest.raises(ValidationError) as one:
                DensityMatrix((2, 2), row)
            with pytest.raises(ValidationError) as stacked:
                check_density_stack(np.stack([good, row, good]))
            assert str(stacked.value) == str(one.value)
        with pytest.raises(ValidationError, match="Hermitian"):
            check_density_stack(np.stack([good] + bad))

    def test_first_bad_row_wins_over_a_later_non_finite_row(self):
        good = random_density((2, 2), 4, 3).data
        skew = good.copy()
        skew[0, 1] += 0.1
        nan = good.copy()
        nan[2, 2] = np.nan
        with pytest.raises(ValidationError) as err:
            check_density_stack(np.stack([good, skew, nan]))
        assert str(err.value) == "not Hermitian (residual 1.000e-01)"

    def test_each_row_gets_its_own_text(self):
        good, bad = self._bad_rows()
        inf = good.copy()
        inf[0, 3] = np.inf
        rows = [good, *bad, inf, good]
        texts = []
        for row in rows:
            try:
                DensityMatrix((2, 2), row)
                texts.append("")
            except ValidationError as exc:
                texts.append(str(exc))
        assert texts[0] == texts[-1] == "" and all(texts[1:-1])
        assert density_violations(np.stack(rows)) == texts

    def test_valid_stack_passes(self):
        stack = np.stack([random_density((2, 3), r, 5).data for r in (1, 3, 6)])
        check_density_stack(stack)
        assert density_violations(stack) == ["", "", ""]

    @staticmethod
    def _with_min_eig(lam, seed):
        """A 4x4 unit-trace Hermitian matrix whose smallest eigenvalue is lam."""
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
        return q @ np.diag([lam, 0.2, 0.3, 0.5 - lam]) @ q.conj().T

    @staticmethod
    def _count_eigvalsh(monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @pytest.mark.parametrize("lam,eigvalsh_calls", [(-0.4e-9, 0), (-0.9e-9, 1)])
    def test_accepts_min_eigenvalue_within_tolerance(self, monkeypatch, lam, eigvalsh_calls):
        # the Cholesky certificate covers -EPS_PSD/2; below it eigvalsh decides
        calls = self._count_eigvalsh(monkeypatch)
        check_density_stack(np.stack([self._with_min_eig(0.1, 1), self._with_min_eig(lam, 2)]))
        assert len(calls) == eigvalsh_calls

    def test_rejects_min_eigenvalue_beyond_tolerance_naming_the_first_bad_row(self):
        good = self._with_min_eig(0.1, 1)
        with pytest.raises(ValidationError) as err:
            check_density_stack(self._with_min_eig(-1.1e-9, 2)[None])
        assert str(err.value) == "not positive semidefinite (min eigenvalue -1.100e-09)"
        rows = [good, self._with_min_eig(-0.5e-9, 3), self._with_min_eig(-1.1e-9, 4),
                self._with_min_eig(-3e-9, 5)]
        with pytest.raises(ValidationError) as err:
            check_density_stack(np.stack(rows))
        assert str(err.value) == "not positive semidefinite (min eigenvalue -1.100e-09)"


class TestPermuteParties:
    @staticmethod
    def _factors(rng, dims):
        # integer entries, so every product of entries, in any order, is exact
        return [rng.integers(-4, 5, (d, d)) + 1j * rng.integers(-4, 5, (d, d)) for d in dims]

    def test_product_reorders_its_factors(self, rng):
        a, b, c = self._factors(rng, (2, 3, 2))
        out = permute_parties(np.kron(np.kron(a, b), c), (2, 3, 2), (2, 0, 1))
        assert np.array_equal(out, np.kron(np.kron(c, a), b))

    def test_stack_reorders_each_row(self, rng):
        rows = [self._factors(rng, (2, 3, 2)) for _ in range(4)]
        stack = np.stack([np.kron(np.kron(a, b), c) for a, b, c in rows])
        want = np.stack([np.kron(np.kron(c, a), b) for a, b, c in rows])
        assert np.array_equal(permute_parties(stack, (2, 3, 2), (2, 0, 1)), want)

    @pytest.mark.parametrize("dims,order", [((2, 3, 2), (2, 0, 1)), ((2, 2, 3, 2), (1, 3, 0, 2))])
    def test_inverse_order_restores_the_input(self, rng, dims, order):
        side = int(np.prod(dims))
        stack = rng.normal(size=(3, side, side)) + 1j * rng.normal(size=(3, side, side))
        there = permute_parties(stack, dims, order)
        back = permute_parties(there, [dims[p] for p in order], np.argsort(order))
        assert np.array_equal(back, stack)
        assert np.array_equal(permute_parties(there[0], [dims[p] for p in order],
                                              np.argsort(order)), stack[0])

    @pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 2, 2), (2, 3, 2, 2), (2, 2, 3, 2, 2)])
    def test_every_order_reorders_the_factors_of_a_product(self, rng, dims):
        factors = self._factors(rng, dims)
        kron = lambda mats: functools.reduce(np.kron, mats)
        data = kron(factors)
        for order in itertools.permutations(range(len(dims))):
            want = kron([factors[p] for p in order])
            assert np.array_equal(permute_parties(data, dims, order), want)
            assert np.array_equal(permute_parties(data[None], list(dims), order)[0], want)
