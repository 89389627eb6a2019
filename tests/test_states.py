import math

import numpy as np
import pytest

from hwsep import DensityMatrix, ValidationError, eig_hermitian, partial_trace, partial_transpose
from hwsep.states import (
    StateFamily,
    ghz,
    horodecki_2x4,
    horodecki_mix_family,
    mix,
    product,
    random_density,
    random_pure,
    random_separable,
    xi_state,
)


class TestHorodecki:
    def test_trace_one_any_b(self):
        for b in np.linspace(0.05, 0.95, 19):
            assert horodecki_2x4(b).matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_entries_b09(self):
        rho = horodecki_2x4(0.9).matrix
        assert rho[0, 0].real == pytest.approx(0.9 / 7.3, rel=1e-12)
        assert rho[4, 4].real == pytest.approx(0.95 / 7.3, rel=1e-12)
        assert rho[4, 7].real == pytest.approx(np.sqrt(1 - 0.81) / 2 / 7.3, rel=1e-12)
        assert rho[0, 5].real == pytest.approx(0.9 / 7.3, rel=1e-12)

    def test_positive_semidefinite(self):
        for b in (0.1, 0.5, 0.9):
            assert eig_hermitian(horodecki_2x4(b).matrix)[0] >= -1e-12

    @pytest.mark.parametrize("b", np.arange(0.05, 1.0, 0.05))
    def test_ppt_both_cuts(self, b):
        rho = horodecki_2x4(float(b))
        for subsystem in (1, 2):
            assert eig_hermitian(partial_transpose(rho, subsystem))[0] >= -1e-10

    def test_rejects_bad_b(self):
        for b in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValidationError, match=r"b must lie in \(0, 1\)"):
                horodecki_2x4(b)

    @pytest.mark.parametrize("b", ["0.5", None, True, math.nan, math.inf, 0.5j, pytest.param(10**400, id="10**400")])
    def test_b_is_a_finite_real_number(self, b):
        for make in (horodecki_2x4, horodecki_mix_family):
            with pytest.raises(ValidationError, match="b must be a finite real number"):
                make(b)


class TestXiState:
    def test_entries(self):
        rho = xi_state().matrix
        for i, j in [(0, 0), (0, 5), (5, 0), (5, 5)]:
            assert rho[i, j].real == pytest.approx(0.5, abs=1e-12)
        assert np.abs(rho).sum() == pytest.approx(2.0, abs=1e-12)

    def test_pure(self):
        assert xi_state().purity() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_across_qubit_cut(self):
        np.testing.assert_allclose(partial_trace(xi_state(), 1).matrix, np.eye(2) / 2, atol=1e-12)


class TestMix:
    def test_endpoints(self):
        a, b = xi_state(), horodecki_2x4(0.9)
        np.testing.assert_array_equal(mix(0.0, a, b).matrix, b.matrix)
        np.testing.assert_array_equal(mix(1.0, a, b).matrix, a.matrix)

    def test_interior_is_valid(self):
        rho = mix(0.37, xi_state(), horodecki_2x4(0.4))
        assert isinstance(rho, DensityMatrix)  # constructor re-validates

    def test_errors(self):
        with pytest.raises(ValidationError, match=r"mixing weight must lie in \[0, 1\]"):
            mix(1.2, xi_state(), horodecki_2x4(0.5))
        with pytest.raises(ValidationError):
            mix(0.5, ghz(2), horodecki_2x4(0.5))


def test_family_generator():
    fam = horodecki_mix_family(0.9)
    assert fam.describe() == {"family": "horodecki-mix", "b": 0.9}
    np.testing.assert_array_equal(fam.state(0.0).matrix, horodecki_2x4(0.9).matrix)
    np.testing.assert_array_equal(fam.state(1.0).matrix, xi_state().matrix)



class TestAffineFamily:
    def test_state_is_bit_identical_to_mix(self):
        for b in (0.1, 0.5, 0.9):
            fam = horodecki_mix_family(b)
            assert fam.endpoints is not None
            base, xi = horodecki_2x4(b), xi_state()
            for x in np.linspace(0.0, 1.0, 23).tolist() + [0.22621243993, 1 / 3]:
                np.testing.assert_array_equal(fam.state(x).matrix, mix(x, xi, base).matrix)

    def test_endpoints_are_kept_as_a_tuple(self):
        a, b = random_density(4, 1), random_density(4, 2)
        fam = StateFamily("pair", endpoints=[a, b])
        assert fam.endpoints == (a, b)
        assert fam.generator is None
        np.testing.assert_array_equal(fam.state(0.25).matrix, mix(0.25, b, a).matrix)

    def test_endpoints_may_be_any_collection(self):
        a, b = random_density(4, 1), random_density(4, 2)
        assert StateFamily("pair", endpoints=(rho for rho in (a, b))).endpoints == (a, b)
        assert StateFamily("pair", endpoints=iter([a, b])).endpoints == (a, b)

    @pytest.mark.parametrize("endpoints", [5, ghz(2), (), (ghz(2),), iter([ghz(2)] * 3)])
    def test_endpoints_not_two_are_refused_with_the_family_message(self, endpoints):
        with pytest.raises(ValidationError) as info:
            StateFamily("x", endpoints=endpoints)
        assert str(info.value) == "family 'x': endpoints must be two DensityMatrix"

    def test_generator_only_family(self):
        fam = StateFamily("gen", generator=lambda x: mix(x, ghz(2), ghz(2)))
        assert fam.endpoints is None
        assert fam.state(0.5).dims == (2, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"generator": lambda x: ghz(2), "endpoints": (ghz(2), ghz(2))},
            {"generator": "not callable"},
            {"endpoints": (ghz(2),)},
            {"endpoints": (ghz(2), ghz(2), ghz(2))},
            {"endpoints": (ghz(2), np.eye(4) / 4)},
            {"endpoints": ghz(2)},
            {"endpoints": (ghz(2), xi_state())},
        ],
    )
    def test_malformed_family_is_a_validation_error(self, kwargs):
        with pytest.raises(ValidationError):
            StateFamily("x", **kwargs)

    def test_rejects_mixing_weight_outside_the_unit_interval(self):
        with pytest.raises(ValidationError):
            horodecki_mix_family(0.9).state(1.5)

    # True == 1, but not a weight
    @pytest.mark.parametrize("x", ["0.3", None, True, np.bool_(False), math.nan, pytest.param(10**400, id="10**400")])
    def test_mixing_weight_is_a_finite_real_number(self, x):
        fam = horodecki_mix_family(0.9)
        for call in (fam.state, lambda x: mix(x, *fam.endpoints)):
            with pytest.raises(ValidationError, match="mixing weight must be a finite real number"):
                call(x)

    def test_real_numbers_of_any_type_are_read(self):
        fam = horodecki_mix_family(0.9)
        for x in (1, np.float32(0.5), np.int64(0)):
            np.testing.assert_array_equal(fam.state(x).matrix, fam.state(float(x)).matrix)


class TestGHZ:
    def test_two_qubits_is_bell(self):
        rho = ghz(2)
        assert rho.dims == (2, 2)
        assert rho.matrix[0, 3].real == pytest.approx(0.5)

    def test_purity(self):
        assert ghz(4).purity() == pytest.approx(1.0, abs=1e-12)

    def test_single_party_reduction(self):
        rho = ghz(3)
        two_vs_rest = DensityMatrix(rho.matrix, (2, 4))
        np.testing.assert_allclose(partial_trace(two_vs_rest, 1).matrix, np.eye(2) / 2, atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            ghz(1)
        with pytest.raises(ValidationError):
            ghz(2.5)


class TestRandomStates:
    def test_pure_has_unit_purity(self):
        assert random_pure(3, 7).purity() == pytest.approx(1.0, abs=1e-12)

    def test_density_is_valid(self):
        rho = random_density(4, 8)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        assert eig_hermitian(rho.matrix)[0] >= -1e-12

    def test_seed_determinism(self):
        a = random_density(5, 123).matrix
        b = random_density(5, 123).matrix
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, random_density(5, 124).matrix)

    def test_separable_ensemble(self):
        ens, rho = random_separable((2, 4), 10, 3)
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(ens.factors) == 10
        assert all(len(term) == 2 for term in ens.factors)
        np.testing.assert_allclose(ens.assemble().matrix, rho.matrix, atol=1e-14)
        # separable implies PPT
        assert eig_hermitian(partial_transpose(rho, 2))[0] >= -1e-10

    def test_separable_multipartite(self):
        _, rho = random_separable((2, 2, 2), 5, 4)
        assert rho.dims == (2, 2, 2)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
    def test_separable_is_bit_identical_to_per_vector_draws(self, dims):
        def per_vector(dims, k_terms, seed):
            """One draw per real or imaginary part and a Kronecker-product loop."""
            rng = np.random.default_rng(seed)
            weights = rng.exponential(size=k_terms)
            weights /= weights.sum()
            factors = []
            for _ in range(k_terms):
                term = []
                for d in dims:
                    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    term.append(v / np.linalg.norm(v))
                factors.append(term)
            rho = np.zeros((math.prod(dims),) * 2, dtype=complex)
            for p, vecs in zip(weights, factors):
                psi = vecs[0]
                for v in vecs[1:]:
                    psi = np.kron(psi, v)
                rho += p * np.outer(psi, psi.conj())
            return weights, factors, rho

        for seed in range(200):
            k_terms = 1 + seed % 20
            ens, rho = random_separable(dims, k_terms, seed)
            weights, factors, matrix = per_vector(dims, k_terms, seed)
            assert np.array_equal(ens.weights, weights)
            for term, expected in zip(ens.factors, factors, strict=True):
                for v, w in zip(term, expected, strict=True):
                    assert v.dtype == w.dtype and np.array_equal(v, w)
            assert np.array_equal(rho.matrix, matrix)

    def test_separable_argument_validation(self):
        with pytest.raises(ValidationError):
            random_separable((2, 4), 0, 1)
        with pytest.raises(ValidationError):
            random_separable((1, 4), 3, 1)
        with pytest.raises(ValidationError):
            random_separable((2.5, 2), 3, 0)  # not truncated to (2, 2)
        with pytest.raises(ValidationError, match="dims must name at least one subsystem"):
            random_separable((), 2, 0)
        with pytest.raises(ValidationError, match="dims must be a collection"):
            random_separable(2, 2, 0)
        with pytest.raises(ValidationError):
            random_separable((2, 2), 2.5, 0)
        with pytest.raises(ValidationError):
            random_pure(2.5, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.nan, None, "1", True])
    def test_seed_is_a_whole_number(self, seed):
        for make in (lambda: random_pure(2, seed), lambda: random_density(2, seed)):
            with pytest.raises(ValidationError, match="seed"):
                make()
        with pytest.raises(ValidationError, match="seed"):
            random_separable((2, 2), 2, seed)

    @pytest.mark.parametrize("k_terms", [10**20, 2**57])  # refused before any draw is made
    def test_terms_past_one_array_are_a_validation_error(self, k_terms):
        with pytest.raises(ValidationError, match="k_terms"):
            random_separable((2, 2), k_terms, 0)

    def test_whole_float_sizes_are_read_as_ints(self):
        for made, expected in ((random_density(3.0, 0), random_density(3, 0)), (ghz(3.0), ghz(3))):
            assert made.dims == expected.dims
            np.testing.assert_array_equal(made.matrix, expected.matrix)


def test_product_concatenates_dims():
    rho = product([random_density(2, 0), random_density(3, 1), random_density(2, 2)])
    assert rho.dims == (2, 3, 2)
    assert rho.matrix.shape == (12, 12)
    with pytest.raises(ValidationError):
        product([])


@pytest.mark.parametrize("factors", [5, None])
def test_product_refuses_factors_that_are_not_a_collection(factors):  # they were a TypeError
    with pytest.raises(ValidationError, match=f"product requires a collection of DensityMatrix factors, got {factors}"):
        product(factors)


@pytest.mark.parametrize(
    "call,what,kind",
    [
        (lambda rho: mix(0.5, "a", rho), "mix", "str"),  # mix and product ended in an AttributeError
        (lambda rho: mix(0.5, rho, rho.matrix), "mix", "ndarray"),
        (lambda rho: product([np.eye(2) / 2]), "product", "ndarray"),
        (lambda rho: product([rho, None]), "product", "NoneType"),
        (lambda rho: StateFamily("f", endpoints=(rho, rho.matrix)), "family 'f': each endpoint", "ndarray"),
    ],
)
def test_a_subject_that_is_not_a_state_is_refused(call, what, kind):
    with pytest.raises(ValidationError, match=rf"^{what} needs a DensityMatrix, got {kind}$"):
        call(ghz(2))
