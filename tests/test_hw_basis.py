import numpy as np
import pytest

from hwsep import ValidationError, basis, displacement, observable, verify_orthogonality
from hwsep.hw_basis import basis_labels

from reference_data import PRINTED_D3, SIGMA_X, SIGMA_Y, SIGMA_Z


def test_displacement_qubit_shift():
    np.testing.assert_array_equal(displacement(2, 0, 1), SIGMA_X)


def test_displacement_qubit_phase():
    np.testing.assert_allclose(displacement(2, 1, 0), SIGMA_Z, atol=1e-15)


def test_displacement_qutrit_phase():
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(displacement(3, 1, 0), np.diag([1, w, w * w]), atol=1e-15)


def test_displacement_entry_formula():
    d = 5
    dm = displacement(d, 3, 2)
    for k in range(d):
        for j in range(d):
            expected = np.exp(2j * np.pi * k * 3 / d) if j == (k + 2) % d else 0.0
            assert dm[k, j] == pytest.approx(expected, abs=1e-15)


def test_displacement_orthogonality():
    d = 4
    ops = [displacement(d, l, m) for l in range(d) for m in range(d)]
    gram = np.array([[np.trace(a @ b.conj().T) for b in ops] for a in ops])
    np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-12)


def test_displacement_index_errors():
    with pytest.raises(ValidationError):
        displacement(3, 3, 0)
    with pytest.raises(ValidationError):
        displacement(3, 0, -1)
    with pytest.raises(ValidationError):
        displacement(1, 0, 0)


def test_observable_identity_slot():
    np.testing.assert_array_equal(observable(3, 0, 0), np.eye(3))


def test_observable_diagonal_qutrit():
    np.testing.assert_allclose(observable(3, 1, 0), PRINTED_D3[(1, 0)], atol=1e-12)


def test_observable_offdiagonal_qutrit():
    np.testing.assert_allclose(observable(3, 0, 1), PRINTED_D3[(0, 1)], atol=1e-12)


def test_observable_qubit_11():
    np.testing.assert_allclose(observable(2, 1, 1), -SIGMA_Y, atol=1e-15)


def test_qubit_basis_is_pauli():
    b = basis(2)
    assert b.labels == ((0, 1), (1, 0), (1, 1))
    np.testing.assert_allclose(b[0], SIGMA_X, atol=1e-15)
    np.testing.assert_allclose(b[1], SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(b[2], -SIGMA_Y, atol=1e-15)


def test_basis_ordering():
    assert basis_labels(3) == ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


@pytest.mark.parametrize("d", range(2, 9))
def test_orthogonality(d):
    tol = 1e-12 if d <= 3 else 1e-10
    assert verify_orthogonality(d) < tol


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthogonality_rescaled(d):
    assert verify_orthogonality(d, "rescaled") < 1e-10


def test_rescaled_gram_is_two_identity():
    elems = basis(4, "rescaled").elements
    gram = np.einsum("aij,bji->ab", elems, elems).real
    np.testing.assert_allclose(gram, 2 * np.eye(15), atol=1e-10)


@pytest.mark.parametrize("d", range(2, 7))
def test_traceless_hermitian(d):
    for q in basis(d):
        assert abs(q.trace()) < 1e-12
        assert np.abs(q - q.conj().T).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_full_operator_basis_is_independent(d):
    ops = [np.eye(d, dtype=complex)] + [q for q in basis(d)]
    gram = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
    assert np.linalg.matrix_rank(gram) == d * d


@pytest.mark.parametrize("d", [2, 3, 5])
def test_rescaled_is_scaled_standard(d):
    std = basis(d).elements
    resc = basis(d, "rescaled").elements
    np.testing.assert_array_equal(resc, np.sqrt(2 / d) * std)


def test_plain_convention_reproduces_printed_qutrit_list():
    b = basis(3, convention="plain")
    for (l, m), q in zip(b.labels, b.elements):
        np.testing.assert_allclose(q, PRINTED_D3[(l, m)], atol=1e-12)


def test_plain_convention_is_not_orthogonal():
    """The printed qutrit list has Tr{Q(1,1) Q(2,2)} = 3 sin(2 pi/3)."""
    b = basis(3, convention="plain")
    overlap = np.trace(b[3] @ b[7]).real  # labels (1,1) and (2,2)
    assert overlap == pytest.approx(3 * np.sin(2 * np.pi / 3), abs=1e-12)
    assert verify_orthogonality(3, convention="plain") > 2.5


def test_conventions_agree_when_phase_vanishes():
    # the phase twist only affects pairs with l*m != 0
    for l, m in [(0, 1), (0, 2), (1, 0), (2, 0)]:
        np.testing.assert_allclose(
            observable(3, l, m), observable(3, l, m, convention="plain"), atol=1e-15
        )


def test_invalid_arguments():
    with pytest.raises(ValidationError):
        basis(1)
    # d, l and m are whole numbers: 2.5 and 1.5 are refused, 1.0 is read as 1
    with pytest.raises(ValidationError):
        basis(2.5)
    with pytest.raises(ValidationError):
        verify_orthogonality(2.5)
    with pytest.raises(ValidationError):
        displacement(3, 1.5, 0)
    np.testing.assert_array_equal(displacement(3, 0, 1.0), displacement(3, 0, 1))
    with pytest.raises(ValidationError):
        basis(3, "weird")
    with pytest.raises(ValidationError):
        observable(3, 0, 1, convention="nope")
