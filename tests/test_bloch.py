import numpy as np
import pytest

from hwsep import (
    DensityMatrix,
    ValidationError,
    basis,
    build_W,
    decompose_bipartite,
    decompose_single,
    matricize,
    partial_trace,
    purity_from_bloch,
    reconstruct_bipartite,
)
from hwsep.bloch import BlochDecomposition, BlochVector
from hwsep.states import ghz, horodecki_2x4, product, random_density, random_pure, random_separable

from paper_layout import reference_s, reference_w


def maximally_mixed(dims):
    total = int(np.prod(dims))
    return DensityMatrix(np.eye(total) / total, dims)


def as_bipartite(rho, dims):
    return DensityMatrix(rho.matrix, dims)


class TestDecomposeSingle:
    def test_maximally_mixed_is_origin(self):
        r = decompose_single(maximally_mixed((4,)))
        np.testing.assert_allclose(r.coeffs, 0.0, atol=1e-14)

    def test_computational_basis_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
        r = decompose_single(rho)
        # ordering (0,1), (1,0), (1,1): only the sigma_z coefficient survives
        np.testing.assert_allclose(r.coeffs, [0.0, 1.0, 0.0], atol=1e-14)
        assert r.norm == pytest.approx(1.0)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pure_state_norm(self, d):
        for seed in range(20):
            r = decompose_single(random_pure(d, seed))
            assert abs(r.norm - np.sqrt(d - 1)) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pure_state_norm_rescaled(self, d):
        for seed in range(20):
            r = decompose_single(random_pure(d, seed), "rescaled")
            assert abs(r.norm - np.sqrt(d * (d - 1) / 2)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mixed_state_norm_bounded(self, d):
        for seed in range(20):
            r = decompose_single(random_density(d, seed))
            assert r.norm <= np.sqrt(d - 1) + 1e-9

    def test_defines_expansion_coefficients(self):
        # rho must equal (1/d)(I + sum r_lm Q(l,m)) for both normalizations
        rho = random_density(3, 99)
        for normalization in ("standard", "rescaled"):
            r = decompose_single(rho, normalization)
            q = basis(3, normalization).elements
            rebuilt = (np.eye(3) + np.einsum("a,aij->ij", r.coeffs, q)) / 3
            np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-12)

    def test_rejects_multipartite(self):
        with pytest.raises(ValidationError):
            decompose_single(maximally_mixed((2, 2)))


class TestPurity:
    def test_maximally_mixed(self):
        assert purity_from_bloch(decompose_single(maximally_mixed((3,)))) == pytest.approx(1 / 3)

    def test_pure_qubit(self):
        r = BlochVector(2, "standard", np.array([0.0, 1.0, 0.0]))
        assert purity_from_bloch(r) == pytest.approx(1.0)

    def test_matches_direct_trace(self):
        for seed in range(50):
            rho = random_density(4, seed)
            assert purity_from_bloch(decompose_single(rho)) == pytest.approx(rho.purity(), abs=1e-9)

    def test_rejects_rescaled(self):
        with pytest.raises(ValidationError):
            purity_from_bloch(decompose_single(random_density(3, 0), "rescaled"))


class TestDecomposeBipartite:
    def test_maximally_mixed_vanishes(self):
        dec = decompose_bipartite(maximally_mixed((2, 4)))
        assert np.abs(dec.r.coeffs).max() < 1e-14
        assert np.abs(dec.s.coeffs).max() < 1e-14
        assert np.abs(dec.t).max() < 1e-14

    def test_bell_correlation_matrix(self):
        dec = decompose_bipartite(ghz(2))
        np.testing.assert_allclose(dec.t, np.diag([1.0, 1.0, -1.0]), atol=1e-14)
        np.testing.assert_allclose(dec.r.coeffs, 0.0, atol=1e-14)

    def test_product_state_factorizes(self):
        for seed in range(10):
            rho = product([random_density(2, seed), random_density(4, seed + 100)])
            dec = decompose_bipartite(rho)
            np.testing.assert_allclose(dec.t, np.outer(dec.r.coeffs, dec.s.coeffs), atol=1e-10)

    def test_marginals_match_partial_trace(self):
        rho = as_bipartite(random_density(9, 5), (3, 3))
        dec = decompose_bipartite(rho)
        np.testing.assert_allclose(
            dec.r.coeffs, decompose_single(partial_trace(rho, 1)).coeffs, atol=1e-10
        )
        np.testing.assert_allclose(
            dec.s.coeffs, decompose_single(partial_trace(rho, 2)).coeffs, atol=1e-10
        )

    def test_rescaled_scaling(self):
        rho = horodecki_2x4(0.7)
        std = decompose_bipartite(rho)
        resc = decompose_bipartite(rho, "rescaled")
        np.testing.assert_allclose(resc.r.coeffs, np.sqrt(2 / 2) * std.r.coeffs, atol=1e-12)
        np.testing.assert_allclose(resc.s.coeffs, np.sqrt(4 / 2) * std.s.coeffs, atol=1e-12)
        np.testing.assert_allclose(resc.t, (np.sqrt(8) / 2) * std.t, atol=1e-12)

    def test_rejects_single_system(self):
        with pytest.raises(ValidationError):
            decompose_bipartite(random_density(4, 0))


class TestReconstruct:
    def test_zero_coefficients_give_maximally_mixed(self):
        tensor = np.zeros((4, 9))
        tensor[0, 0] = 1.0
        dec = BlochDecomposition(dims=(2, 3), normalization="standard", tensor=tensor)
        np.testing.assert_allclose(reconstruct_bipartite(dec).matrix, np.eye(6) / 6, atol=1e-14)

    def test_round_trip_horodecki(self):
        rho = horodecki_2x4(0.9)
        rebuilt = reconstruct_bipartite(decompose_bipartite(rho))
        assert np.linalg.norm(rebuilt.matrix - rho.matrix) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_round_trip_random(self, dims, normalization):
        total = int(np.prod(dims))
        for seed in range(25):
            rho = as_bipartite(random_density(total, seed), dims)
            rebuilt = reconstruct_bipartite(decompose_bipartite(rho, normalization))
            assert np.linalg.norm(rebuilt.matrix - rho.matrix) < 1e-10

    def test_rejects_inconsistent_shapes(self):
        dec = BlochDecomposition(dims=(2, 3), normalization="standard", tensor=np.zeros((4, 8)))
        with pytest.raises(ValidationError):
            reconstruct_bipartite(dec)


class TestCoefficientTensor:
    def test_matches_s_matrix_bipartite(self):
        rho = as_bipartite(random_density(8, 42), (2, 4))
        alpha, beta = 0.8, 1.1
        w = build_W(rho, (beta, alpha))
        np.testing.assert_allclose(matricize(w, [1]), reference_s(rho, alpha, beta, 1, "standard"), atol=1e-13)

    def test_matches_s_matrix_rescaled_m0(self):
        rho = as_bipartite(random_density(9, 43), (3, 3))
        w = build_W(rho, (0.0, 0.0), "rescaled")
        expected = reference_s(rho, 0.0, 0.0, 1, "rescaled")
        np.testing.assert_allclose(matricize(w, [1]), expected, atol=1e-13)
        np.testing.assert_array_equal(w[1:, 1:], decompose_bipartite(rho, "rescaled").t)

    @pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_matches_paper_layout(self, dims, normalization):
        rho = DensityMatrix(random_density(int(np.prod(dims)), len(dims)).matrix, dims)
        alphas = (0.4, 1.1, 0.8, 1.7, 0.6)[: len(dims)]
        w = build_W(rho, alphas, normalization)
        np.testing.assert_allclose(w, reference_w(rho, alphas, 1, normalization), rtol=0, atol=1e-12)

    def test_identity_slot_value(self):
        rho = product([random_density(2, 1), random_density(2, 2), random_density(2, 3)])
        alphas = (0.3, 0.7, 1.5)
        w = build_W(rho, alphas)
        assert w[0, 0, 0] == pytest.approx(np.prod(alphas), abs=1e-12)

    def test_product_of_maximally_mixed(self):
        rho = maximally_mixed((2, 2, 2))
        w = build_W(rho, (0.5, 0.5, 0.5))
        expected = np.zeros((4, 4, 4))
        expected[0, 0, 0] = 0.125
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_ghz_pure_correlations(self):
        w = build_W(ghz(3), (1.0, 1.0, 1.0))
        # slot 0 is the identity, slot 1 is Q(0,1) = sigma_x, slot 2 is Q(1,0) = sigma_z
        assert w[1, 1, 1] == pytest.approx(1.0, abs=1e-12)
        assert w[2, 2, 2] == pytest.approx(0.0, abs=1e-12)

    def test_separable_tensor_matches_direct_trace(self):
        _, rho = random_separable((2, 2, 2), 4, 7)
        w = build_W(rho, (1.0, 1.0, 1.0))
        b = basis(2).elements
        slots = np.concatenate([np.eye(2, dtype=complex)[None], b])
        direct = np.zeros((4, 4, 4))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    op = np.kron(np.kron(slots[i], slots[j]), slots[k])
                    direct[i, j, k] = np.trace(rho.matrix @ op).real
        np.testing.assert_allclose(w, direct, atol=1e-12)

    def test_argument_validation(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(ValidationError):
            build_W(rho, (1.0,))  # wrong number of alphas
        with pytest.raises(ValidationError):
            build_W(rho, (1.0, -0.5))  # negative alpha
        for bad in (np.nan, np.inf, -np.inf, True):
            with pytest.raises(ValidationError, match="weights"):
                build_W(rho, (1.0, bad))
