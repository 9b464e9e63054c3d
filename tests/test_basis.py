import numpy as np
import pytest

from cmnlab.basis import basis_expectations, canonical_bases, normalized_generalized_gell_mann
from cmnlab.linalg import DensityMatrix, pauli
from cmnlab.zoo import bell, maximally_mixed

from conftest import random_density


def test_qubit_basis_is_normalized_pauli():
    basis = normalized_generalized_gell_mann(2)
    expected = [np.eye(2), pauli("x"), pauli("y"), pauli("z")]
    for op, ref in zip(basis.ops, expected):
        assert np.abs(op - ref / np.sqrt(2)).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gram_matrix_is_identity(d):
    basis = normalized_generalized_gell_mann(d)
    assert np.abs(basis.gram() - np.eye(d * d)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_identity_first_then_traceless(d):
    basis = normalized_generalized_gell_mann(d)
    assert np.abs(basis.ops[0] - np.eye(d) / np.sqrt(d)).max() < 1e-15
    for op in basis.ops[1:]:
        assert abs(np.trace(op)) <= 1e-12
        assert np.abs(op - op.conj().T).max() < 1e-14


def test_small_dimension_rejected():
    with pytest.raises(ValueError):
        normalized_generalized_gell_mann(1)


def test_maximally_mixed_three_qubits():
    t = basis_expectations(maximally_mixed((2, 2, 2)), canonical_bases((2, 2, 2)))
    assert abs(t[0, 0, 0] - 2 ** (-1.5)) < 1e-14
    t = t.copy()
    t[0, 0, 0] = 0
    assert np.abs(t).max() < 1e-14


def test_bell_state_correlation_matrix():
    t = basis_expectations(bell(1).to_density(), canonical_bases((2, 2)))
    # direct trace oracle over the four Pauli pairs
    rho = bell(1).to_density().data
    paulis = [np.eye(2), pauli("x"), pauli("y"), pauli("z")]
    oracle = np.array(
        [[np.trace(rho @ np.kron(a, b)).real / 2 for b in paulis] for a in paulis]
    )
    assert np.abs(t - oracle).max() < 1e-12
    assert np.abs(t - np.diag([0.5, 0.5, -0.5, 0.5])).max() < 1e-12


def test_product_state_factorizes():
    rho_a = random_density((2,), 2, 11)
    rho_b = random_density((3,), 2, 12)
    joint = DensityMatrix((2, 3), np.kron(rho_a.data, rho_b.data))
    t = basis_expectations(joint, canonical_bases((2, 3)))
    va = basis_expectations(rho_a, canonical_bases((2,)))
    vb = basis_expectations(rho_b, canonical_bases((3,)))
    assert np.abs(t - np.outer(va, vb)).max() < 1e-12


def test_reconstruction_completeness():
    for seed, dims in [(0, (2, 2)), (1, (2, 3)), (2, (2, 2, 2))]:
        rho = random_density(dims, int(np.prod(dims)), seed)
        bases = canonical_bases(dims)
        t = basis_expectations(rho, bases)
        rebuilt = np.zeros_like(rho.data)
        for idx in np.ndindex(*t.shape):
            op = bases[0].ops[idx[0]]
            for k in range(1, len(dims)):
                op = np.kron(op, bases[k].ops[idx[k]])
            rebuilt = rebuilt + t[idx] * op
        assert np.abs(rebuilt - rho.data).max() <= 1e-9


def test_vertex_value_for_any_state():
    for seed, dims in [(5, (2, 2)), (6, (3, 2)), (7, (2, 2, 3))]:
        rho = random_density(dims, 4, seed)
        t = basis_expectations(rho, canonical_bases(dims))
        expected = np.prod([1 / np.sqrt(d) for d in dims])
        assert abs(t[(0,) * len(dims)] - expected) <= 1e-12


def test_dimension_mismatch_rejected():
    rho = random_density((2, 2), 2, 0)
    with pytest.raises(ValueError):
        basis_expectations(rho, canonical_bases((2, 3)))
    with pytest.raises(ValueError):
        basis_expectations(rho, canonical_bases((2,)))
