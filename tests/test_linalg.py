import numpy as np
import pytest

from cmnlab.linalg import (
    BlochVector,
    DensityMatrix,
    ValidationError,
    apply_local,
    bloch_to_qubit,
    check_density_stack,
    partial_trace,
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


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(4)), np.ones(4))

    def test_symmetric_diag(self):
        assert np.allclose(singular_values(np.diag([3.0, -2.0])), [3, 2])

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

    def test_valid_stack_passes(self):
        check_density_stack(np.stack([random_density((2, 3), r, 5).data for r in (1, 3, 6)]))
