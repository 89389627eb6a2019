from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwsep import DensityMatrix, ValidationError, eig_hermitian, partial_trace, partial_transpose, trace_norm
from hwsep.states import ghz, product, random_density

BELL = ghz(2)


def test_trace_norm_identity():
    assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_hermitian_diag():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_eigenvalue_oracle():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 7))
    # independent oracle: singular values from the spectrum of M M^T
    # (the 5x5 Gram side is full rank, so no sqrt-of-clipped-zero noise)
    expected = np.sqrt(np.maximum(np.linalg.eigvalsh(m @ m.T), 0.0)).sum()
    assert trace_norm(m) == pytest.approx(expected, rel=1e-9)


def test_trace_norm_orthogonal_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-8)


@settings(deadline=None, max_examples=50)
@given(
    u=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    v=arrays(np.float64, 6, elements=st.floats(-10, 10)),
)
def test_trace_norm_rank_one(u, v):
    """||u v^t||_tr = ||u||_2 ||v||_2 for any real vectors."""
    got = trace_norm(np.outer(u, v))
    assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), abs=1e-9)


def test_trace_norm_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((5, 4, 16))
    norms = trace_norm(stack)
    assert norms.shape == (5,)
    assert norms.tolist() == [trace_norm(m) for m in stack]  # bit for bit
    assert type(trace_norm(stack[0])) is float


@pytest.mark.parametrize("shape", [(2, 7), (7, 2), (4, 256), (3, 5, 9)])
def test_trace_norm_is_taken_in_the_tall_orientation(shape):
    # a wide matrix goes to the SVD as its transposed view, so M and M^T give the same sums, bit for bit
    m = np.random.default_rng(sum(shape)).standard_normal(shape)
    tall = m if shape[-2] >= shape[-1] else m.swapaxes(-1, -2)
    expected = np.linalg.svd(np.ascontiguousarray(tall), compute_uv=False).sum(axis=-1)
    for matrix in (m, m.swapaxes(-1, -2), np.ascontiguousarray(m.swapaxes(-1, -2))):
        assert np.asarray(trace_norm(matrix)).tobytes() == expected.tobytes()


def test_eig_hermitian_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    stack = g + np.swapaxes(g, -1, -2).conj()
    evals = eig_hermitian(stack)
    assert evals.shape == (3, 5)
    for h, e in zip(stack, evals):
        np.testing.assert_array_equal(eig_hermitian(h), e)
    stack[1, 0, 1] += 1.0
    with pytest.raises(ValidationError):
        eig_hermitian(stack)


def test_eig_hermitian_sorted():
    np.testing.assert_allclose(eig_hermitian(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])


def test_eig_hermitian_sigma_x():
    np.testing.assert_allclose(eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex)), [-1.0, 1.0])


def test_eig_hermitian_trace_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = g + g.conj().T
    assert eig_hermitian(h).sum() == pytest.approx(h.trace().real, abs=1e-9)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_rejects_nan():  # a NaN deviation passed the test; the eigenvalues came out [0, -0]
    with pytest.raises(ValidationError, match="requires a Hermitian matrix, deviation nan"):
        eig_hermitian([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "m,dev",
    [([[np.inf, 0.0], [0.0, 1.0]], "nan"), ([[1.0, np.inf], [np.inf, 1.0]], "nan"), ([[0, 1e308], [-1e308, 0]], "inf")],
)
def test_eig_hermitian_refuses_infinities_without_a_warning(m, dev):
    # pytest turns warnings into errors: inf - inf warned of an invalid value, which surfaced instead of the refusal
    with pytest.raises(ValidationError, match=f"requires a Hermitian matrix, deviation {dev}"):
        eig_hermitian(m)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_trace_norm_rejects_non_finite_entries(entry):  # NaN was a NumericalError, an infinity gave NaN
    m = np.eye(2)
    m[0, 1] = entry
    with pytest.raises(ValidationError, match="trace_norm requires finite entries"):
        trace_norm(m)
    with pytest.raises(ValidationError, match="trace_norm requires finite entries"):
        trace_norm(np.stack([np.eye(2), m]))


def test_partial_transpose_product_state():
    rho_a = random_density(2, 10)
    rho_b = random_density(3, 11)
    rho = product([rho_a, rho_b])
    got = partial_transpose(rho, 2)
    np.testing.assert_allclose(got, np.kron(rho_a.matrix, rho_b.matrix.T), atol=1e-12)


@pytest.mark.parametrize("subsystem", [1, 2])
def test_partial_transpose_involution(subsystem):
    # a PPT state, so the intermediate result is itself a valid state
    from hwsep.states import horodecki_2x4

    rho = horodecki_2x4(0.6)
    once = partial_transpose(rho, subsystem)
    twice = partial_transpose(DensityMatrix(once, rho.dims), subsystem)
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-14)


def test_partial_transpose_bell_negative_eigenvalue():
    eigs = eig_hermitian(partial_transpose(BELL, 2))
    assert eigs[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rho = DensityMatrix(random_density(8, 13).matrix, (2, 4))
    pt = partial_transpose(rho, 1)
    assert pt.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pt - pt.conj().T).max() < 1e-12


def test_partial_transpose_index_error():
    with pytest.raises(ValidationError):
        partial_transpose(BELL, 3)
    with pytest.raises(ValidationError):
        partial_transpose(ghz(3), 1)  # not bipartite
    with pytest.raises(ValidationError):
        partial_transpose(BELL, True)  # a flag, not subsystem 1


def test_partial_trace_product():
    rho_a = random_density(2, 20)
    rho_b = random_density(4, 21)
    rho = product([rho_a, rho_b])
    np.testing.assert_allclose(partial_trace(rho, 1).matrix, rho_a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, 2).matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_bell():
    np.testing.assert_allclose(partial_trace(BELL, 1).matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_is_trace_preserving():
    rho = DensityMatrix(random_density(8, 22).matrix, (2, 4))
    assert partial_trace(rho, 2).matrix.trace().real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_index_error():
    with pytest.raises(ValidationError):
        partial_trace(BELL, 0)
    with pytest.raises(ValidationError):
        partial_trace(BELL, True)


class TestDensityMatrixValidation:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert rho.dim == 4
        assert rho.n_parties == 2
        assert rho.purity() == pytest.approx(0.25)

    def test_rejects_non_hermitian(self):
        m = np.eye(2) / 2
        m[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValidationError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))
        for dims in ((2.9, 2.1), (True, 4)):  # not truncated to (2, 2) or read as (1, 4)
            with pytest.raises(ValidationError, match="subsystem dimension must be a whole number"):
                DensityMatrix(np.eye(4) / 4, dims)
        with pytest.raises(ValidationError, match="dims must be a collection"):
            DensityMatrix(np.eye(2) / 2, 2)
        with pytest.raises(ValidationError, match="dims must name at least one subsystem"):
            DensityMatrix(np.eye(1), ())  # a state of no parties
        for matrix, dims in (([[1.0]], (7, 7905747460161236407)), (np.eye(8) / 8, (8, 2305843009213693953))):
            with pytest.raises(ValidationError, match="imply dimension"):  # their int64 products wrap to 1 and 8
                DensityMatrix(matrix, dims)

    @pytest.mark.parametrize(
        "matrix",
        [
            [["0.5", "0"], ["0", "0.5"]],
            [[True, False], [False, False]],
            [[True, 0], [0, 0]],  # NumPy alone reads it as an int array, |0><0|
            np.array([[True, 0], [0, 0]], dtype=object),
            [[None, 0], [0, 1]],
        ],
    )
    def test_rejects_text_and_bool_entries(self, matrix):
        with pytest.raises(ValidationError, match="density matrix entries must be numbers"):
            DensityMatrix(matrix, (2,))

    def test_object_entries_convert(self):  # numbers that are not bools convert one by one
        half = Fraction(1, 2)
        assert DensityMatrix(np.array([[half, 0], [0, half]], dtype=object), (2,)).purity() == 0.5
        assert DensityMatrix([[0.5 + 0j, 0j], [0j, 0.5 + 0j]], (2,)).purity() == 0.5

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="density matrix must be square"):
            DensityMatrix(np.eye(4)[:2] / 2, (2,))

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = np.nan
        with pytest.raises(ValidationError):
            DensityMatrix(m, (2,))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
