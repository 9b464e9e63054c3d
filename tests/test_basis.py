import itertools
import math

import numpy as np
import pytest

from cmnlab.basis import basis_expectations, expectations_stack, normalized_generalized_gell_mann
from cmnlab.linalg import DensityMatrix
from cmnlab.zoo import bell, maximally_mixed

from conftest import pauli, random_density


def test_qubit_basis_is_normalized_pauli():
    basis = normalized_generalized_gell_mann(2)
    expected = [np.eye(2), pauli("x"), pauli("y"), pauli("z")]
    for op, ref in zip(basis, expected):
        assert np.abs(op - ref / np.sqrt(2)).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gram_matrix_is_identity(d):
    basis = normalized_generalized_gell_mann(d)
    flat = basis.reshape(d * d, -1)
    assert np.abs((flat @ flat.conj().T).real - np.eye(d * d)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_identity_first_then_traceless(d):
    basis = normalized_generalized_gell_mann(d)
    assert np.abs(basis[0] - np.eye(d) / np.sqrt(d)).max() < 1e-15
    for op in basis[1:]:
        assert abs(np.trace(op)) <= 1e-12
        assert np.abs(op - op.conj().T).max() < 1e-14


def test_small_dimension_rejected():
    with pytest.raises(ValueError):
        normalized_generalized_gell_mann(1)


def test_maximally_mixed_three_qubits():
    t = basis_expectations(maximally_mixed((2, 2, 2)))
    assert abs(t[0, 0, 0] - 2 ** (-1.5)) < 1e-14
    t = t.copy()
    t[0, 0, 0] = 0
    assert np.abs(t).max() < 1e-14


def test_bell_state_correlation_matrix():
    t = basis_expectations(bell(1).to_density())
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
    t = basis_expectations(joint)
    va = basis_expectations(rho_a)
    vb = basis_expectations(rho_b)
    assert np.abs(t - np.outer(va, vb)).max() < 1e-12


def test_reconstruction_completeness():
    for seed, dims in [(0, (2, 2)), (1, (2, 3)), (2, (2, 2, 2))]:
        rho = random_density(dims, int(np.prod(dims)), seed)
        bases = [normalized_generalized_gell_mann(d) for d in dims]
        t = basis_expectations(rho)
        rebuilt = np.zeros_like(rho.data)
        for idx in np.ndindex(*t.shape):
            op = bases[0][idx[0]]
            for k in range(1, len(dims)):
                op = np.kron(op, bases[k][idx[k]])
            rebuilt = rebuilt + t[idx] * op
        assert np.abs(rebuilt - rho.data).max() <= 1e-9


def test_vertex_value_for_any_state():
    for seed, dims in [(5, (2, 2)), (6, (3, 2)), (7, (2, 2, 3))]:
        rho = random_density(dims, 4, seed)
        t = basis_expectations(rho)
        expected = np.prod([1 / np.sqrt(d) for d in dims])
        assert abs(t[(0,) * len(dims)] - expected) <= 1e-12


@pytest.mark.parametrize("pattern", ["off-diagonal-ones", "xxx"])
def test_every_hermiticity_residual_the_state_check_accepts_builds(pattern):
    # ρ + i·c·S with S real symmetric is 2c|S_jk| from Hermitian in entry jk:
    # 0.999·EPS_HERM in every entry where S is ±1 (off the diagonal, so that
    # the trace stays real)
    from cmnlab.linalg import EPS_HERM
    from cmnlab.tensor import build

    x = pauli("x").real
    s = np.ones((8, 8)) - np.eye(8) if pattern == "off-diagonal-ones" else np.kron(np.kron(x, x), x)
    base = random_density((2, 2, 2), 8, 240)
    rho = DensityMatrix((2, 2, 2), base.data + 0.4995j * EPS_HERM * s)
    t = build(rho)
    assert np.abs(t.data - basis_expectations(base)).max() <= 1e-15


def expectations_oracle(data, dims):
    """tr(ρ · B¹_{i₁} ⊗ … ⊗ Bᴺ_{i_N}) of each matrix of ``data``, entry by
    entry, with the imaginary parts kept."""
    bases = [normalized_generalized_gell_mann(d) for d in dims]
    out = np.empty((len(data),) + tuple(d * d for d in dims), dtype=complex)
    for index in itertools.product(*(range(d * d) for d in dims)):
        op = bases[0][index[0]]
        for basis, i in zip(bases[1:], index[1:]):
            op = np.kron(op, basis[i])
        out[(slice(None),) + index] = np.trace(data @ op, axis1=1, axis2=2)
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_stack_matches_the_entrywise_oracle(dims):
    side = math.prod(dims)
    data = np.stack([random_density(dims, side, seed).data for seed in range(5)])
    want = expectations_oracle(data, dims)
    got = expectations_stack(data, dims)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want.real).max() <= 1e-15


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_stack_names_the_first_row_over_the_residue_tolerance(dims):
    # rows 3 and 4 carry i·c·S with S real symmetric, c below EPS_HERM/2 in row
    # 2 (under the tolerance) and far above it in rows 3 and 4 (twice as large)
    from cmnlab.linalg import EPS_HERM

    side = math.prod(dims)
    s = np.ones((side, side))
    data = np.stack([random_density(dims, side, seed).data for seed in range(5)])
    for row, c in [(2, 0.4 * EPS_HERM), (3, 1e-4), (4, 2e-4)]:
        data[row] = data[row] + 1j * c * s
    residue = np.abs(expectations_oracle(data, dims).imag).reshape(5, -1).max(axis=1)
    assert residue[2] <= side * EPS_HERM / 2 < residue[3] < residue[4]
    with pytest.raises(ValueError, match=f"imaginary residue {residue[3]:.3e} exceeds"):
        expectations_stack(data, dims)
