import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwsep import (
    DensityMatrix,
    ValidationError,
    check_ppt,
    check_theorem1,
    check_theorem2,
    compare,
    criteria,
    decompose_bipartite,
    decompose_single,
    make_check,
    matricize,
    optimize_params,
    partial_trace,
    partial_transpose,
    theorem2_bound,
    trace_norm,
)
from hwsep.criteria import REGISTRY, S_ROWS, all_bipartitions
from hwsep.states import ghz, horodecki_2x4, mix, product, random_density, random_pure, random_separable, xi_state

from paper_layout import closed_form_s_bound, reference_s, reference_w


def as_dm(mat, dims):
    return DensityMatrix(mat, dims)


def rho_x(x, b=0.9):
    return mix(x, xi_state(), horodecki_2x4(b))


REFERENCE_PARAMS = dict(alpha=0.5, beta=np.sqrt(2 / 11), m=1)


class TestBuildS:
    """The S matrix is the two-party coefficient tensor with weights (beta, alpha)."""

    def test_trivial_block_structure(self):
        s = make_check("hw", alpha=1.0, beta=1.0, m=1).linear(as_dm(np.eye(4) / 4, (2, 2)))[0]
        assert s.shape == (4, 4)
        assert s[0, 0] == 1.0
        assert np.abs(s).sum() == 1.0
        assert trace_norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_m_zero_degenerates_to_t(self):
        rho = horodecki_2x4(0.5)
        dec = decompose_bipartite(rho)
        s = make_check("hw", alpha=0.0, beta=0.0, m=0).linear(rho)[0]
        np.testing.assert_array_equal(s[1:, 1:], dec.t)
        assert not s[0].any() and not s[:, 0].any()
        v = check_theorem1(rho, 0.3, 0.7, 0)
        assert v.value == pytest.approx(trace_norm(dec.t), rel=1e-12)

    def test_blocks(self):
        rho = as_dm(random_density(8, 0).matrix, (2, 4))
        dec = decompose_bipartite(rho)
        s = make_check("hw", alpha=0.4, beta=1.2, m=1).linear(rho)[0]
        assert s.shape == (4, 16)
        assert s[0, 0] == pytest.approx(0.4 * 1.2)
        np.testing.assert_allclose(s[1:, 0], 0.4 * dec.r.coeffs)
        np.testing.assert_allclose(s[0, 1:], 1.2 * dec.s.coeffs)
        np.testing.assert_array_equal(s[1:, 1:], dec.t)
        np.testing.assert_allclose(s, reference_s(rho, 0.4, 1.2, 1, "standard"), rtol=0, atol=1e-13)

    def test_pure_product_is_rank_one(self):
        rho = product([random_pure(2, 5), random_pure(4, 6)])
        s = make_check("hw", alpha=0.9, beta=1.4, m=1).linear(rho)[0]
        singular = np.linalg.svd(s, compute_uv=False)
        assert singular[1] <= 1e-9

    def test_rejects_negative_weights(self):
        rho = horodecki_2x4(0.5)
        with pytest.raises(ValidationError):
            make_check("thm2", alphas=(1.0, -0.1), m=1)
        with pytest.raises(ValidationError):
            check_theorem1(rho, 1.0, 1.0, -1)
        with pytest.raises(ValidationError):
            check_theorem1(rho, -0.1, 1.0, 0)  # m = 0 zeroes the weights; the sign is still checked

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        rho = horodecki_2x4(0.5)
        with pytest.raises(ValidationError):
            make_check("thm2", alphas=(1.0, bad), m=1)
        with pytest.raises(ValidationError):
            make_check("thm2", alphas=(bad, 1.0), m=1)
        with pytest.raises(ValidationError):
            check_theorem1(rho, bad, 1.0, 0)


class TestTheorem1Bound:
    """The bipartite bound is theorem2_bound with two parties and weights (beta, alpha)."""

    def test_example_value(self):
        got = theorem2_bound((2, 4), (np.sqrt(2 / 11), 0.5), 1)
        assert got == pytest.approx(13 / (2 * np.sqrt(11)), rel=1e-12)

    def test_zero_weights(self):
        assert theorem2_bound((2, 2), (0.0, 0.0), 1) == pytest.approx(1.0)

    def test_rescaled_m0_equals_correlation_bound(self):
        got = theorem2_bound((2, 4), (0.5, 0.5), 0, "rescaled")
        assert got == pytest.approx(0.5 * np.sqrt(24), rel=1e-12)
        assert got == pytest.approx(0.5 * np.sqrt(2 * 4 * 1 * 3), rel=1e-12)

    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_matches_closed_form(self, normalization):
        rng = np.random.default_rng(5)
        for d1, d2 in [(2, 2), (2, 4), (3, 3), (3, 5), (5, 7)]:
            for m in (0, 1, 2, 3, 32):
                alpha, beta = np.exp(rng.uniform(-3, 10, 2))
                got = theorem2_bound((d1, d2), (beta, alpha), m, normalization)
                expected = closed_form_s_bound(d1, d2, alpha, beta, m, normalization)
                assert got == pytest.approx(expected, rel=1e-15, abs=0)

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValidationError):
            theorem2_bound((2, 2), (1.0, 1.0), 1, "gell-mann")

    def test_whole_numbers_past_int64(self):
        assert theorem2_bound((2, 2), (1, 1), 2**70) == math.sqrt(2**70 + 1) ** 2

    @pytest.mark.parametrize(
        "alphas,m",
        [
            ((np.int64(2), 1.0), 2**70),  # was refused as past float range: numpy reads 2**70 as an int64
            ((np.array([2]), 1.0), 2**70),
            ((2**70, 1.0), np.array([1])),
            ((np.int64(2**40), 1.0), np.int64(1)),  # was 1.414: the int64 product wrapped past 2**63
            ((np.uint64(2**63), np.uint64(2**40)), np.uint64(2)),  # was 1.0
            ((np.float16(60000), 1.0), 1),  # was refused as past float range: float16 arithmetic overflowed
            ((np.float32(1e30), np.float16(2)), 3),
        ],
    )
    def test_a_python_int_meets_numpy_integers(self, alphas, m):
        """Every numpy number is read as float64, whatever its dtype, so the bound is that of the same values."""
        k, weights = float(np.ravel(m)[0]), [float(np.ravel(a)[0]) for a in alphas]
        expected = math.prod(math.sqrt(k * a * a + 1) for a in weights)
        assert np.ravel(theorem2_bound((2, 2), alphas, m)).tolist() == [expected]

    def test_arrays_give_the_scalar_bounds(self):
        ms, alphas = np.array([[0.0], [3.0], [1e20]]), np.array([0.0, 0.5, 7.0])
        got = theorem2_bound((3, 5), (alphas, 2 * alphas), ms, "rescaled")
        for i, m in enumerate((0, 3, 10**20)):
            for j, a in enumerate(alphas.tolist()):
                assert got[i, j] == theorem2_bound((3, 5), (a, 2 * a), m, "rescaled")

    @pytest.mark.parametrize(
        "alphas,m,message",
        [
            ((1.0, 1.0), -1, "m must be a whole number >= 0"),  # was 0.0
            ((np.array([1.0, 2.0]), 1.0), np.array([[1.0], [-1.0]]), "m must be a whole number >= 0"),
            ((1e160, 1e160), 1, "past float range"),
            ((1e300, 1.0), 4, "past float range"),
            ((np.float64(1e160), 1.0), 1, "past float range"),  # a numpy scalar, which warns on overflow
            ((np.array([1.0, 1e200]), 1e200), np.array([[1.0]]), "past float range"),
            ((np.array([1.0, 1.3e154]), 1.3e154), np.array([[1.0], [2.0]]), "past float range"),  # m = 2 overflows
        ],
    )
    def test_refuses_negative_m_and_a_bound_past_float_range(self, alphas, m, message):
        with pytest.raises(ValidationError, match=message):
            theorem2_bound((2, 2), alphas, m)  # pytest turns an overflow warning into an error

    _M, _WEIGHT, _DIM = "m must be a whole number >= 0", "weights must be finite, nonnegative", "subsystem dimension"

    @pytest.mark.parametrize(
        "dims,alphas,m,message",
        [
            ((2, 2), (1.0, 1.0), True, _M),
            ((2, 2), (1.0, 1.0), np.True_, _M),
            ((2, 2), (1.0, 1.0), np.array([[True], [False]]), _M),
            ((2, 2), (True, 1.0), 1, _WEIGHT),
            ((2, 2), (np.True_, 1.0), 1, _WEIGHT),
            ((2, 2), (np.array([True, False]), 1.0), np.array([[1.0]]), _WEIGHT),
            ((2, 2), (1.0, 1.0), "1", _M),
            ((2, 2), (1.0, 1.0), np.array(["1"]), _M),
            ((2, 2), ("0.5", 1.0), 1, _WEIGHT),
            ((2, 2), (np.array(["0.5"]), 1.0), np.array([1.0]), _WEIGHT),
            ((2, 2), (1.0, 1.0), math.nan, _M),
            ((2, 2), (1.0, 1.0), np.array([[1.0], [math.nan]]), _M),
            ((2, 2), (math.nan, 1.0), 1, _WEIGHT),
            ((2, 2), (np.array([0.5, math.nan]), 1.0), np.array([[1.0]]), _WEIGHT),
            ((2, 2), (-1.0, 1.0), 1, _WEIGHT),
            ((2, 2), (np.array([0.5, -0.5]), 1.0), np.array([[1.0]]), _WEIGHT),
            ((2, 2), (1.0, 1.0), 1.5, _M),
            ((2, 2), (1.0, 1.0), np.array([[1.0], [1.5]]), _M),
            pytest.param((2, 2), (1.0, 1.0), 10**400, "m must lie within float range", id="m=10**400"),
            pytest.param((2, 2), (1.0, 1.0), np.array([1, 10**400], dtype=object), "m must lie", id="[1, 10**400]"),
            ((2.5, 2), (1.0, 1.0), 1, _DIM),
            (np.array([2.5, 2.0]), (np.array([1.0, 2.0]), 1.0), np.array([[1.0]]), _DIM),
            ((2, 2), None, 1, "alphas must be a collection of weights, one per party, got None"),  # was a TypeError
            ((2, 2), ([1.0, [2.0]], 1.0), 1, _WEIGHT),  # a ragged weight; was numpy's ValueError
            ((2, 2), ([np.True_, 1.0], 1.0), 1, _WEIGHT),  # a bool in a list; was a TypeError
        ],
    )
    def test_reads_its_inputs_with_the_parsers(self, dims, alphas, m, message):
        with pytest.raises(ValidationError, match=message):
            theorem2_bound(dims, alphas, m)

    @settings(deadline=None, max_examples=200)
    @given(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(),
            st.booleans(),
            st.text(max_size=4),
        )
    )
    def test_refuses_a_weight_exactly_when_make_check_does(self, v):
        """Apart from a bound past float range, which only the bound refuses."""
        try:
            make_check("hw", alpha=v, beta=1.0, m=1)
            made = True
        except ValidationError:
            made = False
        try:
            theorem2_bound((2, 2), (1.0, v), 1)
            bounded = True
        except ValidationError as exc:
            bounded = "past float range" in str(exc)
        assert made == bounded

    @pytest.mark.parametrize("name", [*S_ROWS, "thm2"])
    def test_a_verdict_bound_is_theorem2_bound(self, name):
        """A verdict's bound is theorem2_bound at its dims, weights, m and normalization, to the last bit."""
        row, rng = REGISTRY[name], np.random.default_rng(21)
        normalizations = ("standard", "rescaled") if "normalization" in row.optional else (None,)
        for seed in range(6):
            draws = np.exp(rng.uniform(-3, 8, 3)).tolist()
            given = {"alpha": draws[0], "beta": draws[1], "alphas": draws, "m": int(rng.integers(row.min_m, 40))}
            _, rho = random_separable((2, 3) if name != "thm2" else (2, 2, 3), 2, seed)
            for normalization in normalizations:
                params = {key: given[key] for key in row.required}
                check = make_check(name, **params, **({"normalization": normalization} if normalization else {}))
                bound = check(rho).bound
                expected = theorem2_bound(rho.dims, check.weights, check.m, check.normalization)
                assert type(bound) is float and bound.hex() == float(expected).hex()


class TestCheckTheorem1:
    def test_detects_mixed_family_at_x03(self):
        v = check_theorem1(rho_x(0.3), **REFERENCE_PARAMS)
        assert v.verdict == "ENTANGLED"
        assert v.value > v.bound

    def test_inconclusive_at_x01(self):
        v = check_theorem1(rho_x(0.1), **REFERENCE_PARAMS)
        assert v.verdict == "INCONCLUSIVE"

    def test_separable_states_never_flagged(self):
        rng = np.random.default_rng(17)
        for seed in range(25):
            _, rho = random_separable((2, 4), 8, seed)
            alpha, beta = rng.uniform(0, 2, 2)
            m = int(rng.integers(0, 4))
            assert not check_theorem1(rho, alpha, beta, m).entangled
            if m >= 1:
                assert not make_check("isc", alpha=alpha, beta=beta, m=m)(rho).entangled

    def test_verdict_record(self):
        v = check_theorem1(rho_x(0.5), **REFERENCE_PARAMS)
        assert v.criterion == "hw"
        assert v.params["normalization"] == "standard"
        assert set(v.to_dict()) == {"criterion", "value", "bound", "verdict", "params"}


class TestBaselines:
    def test_vb_bell(self):
        v = make_check("vb")(ghz(2))
        assert v.value == pytest.approx(3.0, abs=1e-10)
        assert v.bound == pytest.approx(1.0, abs=1e-12)
        assert v.entangled

    def test_vb_maximally_mixed(self):
        v = make_check("vb")(as_dm(np.eye(9) / 9, (3, 3)))
        assert v.value == pytest.approx(0.0, abs=1e-12)
        assert not v.entangled

    def test_isc_requires_m(self):
        with pytest.raises(ValidationError):
            make_check("isc", alpha=1.0, beta=1.0, m=0)(ghz(2))

    def test_isc_pure_product_equality(self):
        rho = product([random_pure(2, 1), random_pure(4, 2)])
        v = make_check("isc", alpha=0.8, beta=1.3, m=2)(rho)
        assert abs(v.value - v.bound) < 1e-9
        assert not v.entangled

    def test_lb_bound_2x4(self):
        v = make_check("lb")(horodecki_2x4(0.9))
        assert v.bound == pytest.approx(np.sqrt(14), rel=1e-12)
        assert v.params["m"] == 1 and v.params["alpha"] == 1.0

    def test_lb_bell(self):
        assert make_check("lb")(ghz(2)).entangled

    def test_normalization_consistency(self):
        rho = as_dm(random_density(8, 3).matrix, (2, 4))
        t_std = decompose_bipartite(rho).t
        t_resc = decompose_bipartite(rho, "rescaled").t
        assert trace_norm(t_std) * np.sqrt(8) / 2 == pytest.approx(trace_norm(t_resc), abs=1e-9)

    def test_zero_weights_reduce_to_correlation_norm(self):
        rho = rho_x(0.4)
        dec = decompose_bipartite(rho)
        v = check_theorem1(rho, 0.0, 0.0, 3)
        assert v.value == pytest.approx(trace_norm(dec.t), abs=1e-10)


def gell_mann_like(d):
    """Orthogonal traceless Hermitian basis with Tr{G G'} = d*delta, built
    independently of the package (symmetric/antisymmetric pairs plus
    diagonal matrices), for cross-validating basis independence."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            mats.append(asym)
    for j in range(1, d):
        diag = np.zeros(d)
        diag[:j] = 1.0
        diag[j] = -j
        mats.append(np.diag(diag / np.linalg.norm(diag) * np.sqrt(2)).astype(complex))
    return [m * np.sqrt(d / 2) for m in mats]


class TestBasisIndependence:
    """Criterion values must not depend on which orthogonal basis is used."""

    def test_s_matrix_value_matches_gell_mann_computation(self):
        rho = rho_x(0.3)
        d1, d2 = rho.dims
        ga, gb = gell_mann_like(d1), gell_mann_like(d2)
        r = np.array([np.trace(rho.matrix @ np.kron(q, np.eye(d2))).real for q in ga])
        s = np.array([np.trace(rho.matrix @ np.kron(np.eye(d1), q)).real for q in gb])
        t = np.array(
            [[np.trace(rho.matrix @ np.kron(qa, qb)).real for qb in gb] for qa in ga]
        )
        alpha, beta, m = 0.5, np.sqrt(2 / 11), 1
        s_mat = np.zeros((m + len(r), m + len(s)))
        s_mat[:m, :m] = alpha * beta
        s_mat[:m, m:] = beta * s
        s_mat[m:, :m] = alpha * r[:, None]
        s_mat[m:, m:] = t
        independent = trace_norm(s_mat)
        assert check_theorem1(rho, alpha, beta, m).value == pytest.approx(independent, abs=1e-10)

    def test_correlation_norms_match(self):
        rho = horodecki_2x4(0.9)
        ga, gb = gell_mann_like(2), gell_mann_like(4)
        t = np.array(
            [[np.trace(rho.matrix @ np.kron(qa, qb)).real for qb in gb] for qa in ga]
        )
        dec = decompose_bipartite(rho)
        assert trace_norm(t) == pytest.approx(trace_norm(dec.t), abs=1e-10)


class TestPPT:
    @pytest.mark.parametrize("b", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_bound_entangled_family_is_ppt(self, b):
        v = check_ppt(horodecki_2x4(b))
        assert v.verdict == "INCONCLUSIVE"
        assert v.value <= 1e-10  # -min eigenvalue

    def test_bell(self):
        v = check_ppt(ghz(2))
        assert v.entangled
        assert v.value == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        rho = product([random_density(2, 0), random_density(4, 1)])
        assert not check_ppt(rho).entangled

    def test_subsystem_invariance(self):
        for x in (0.0, 0.3, 0.8):
            v1 = check_ppt(rho_x(x), subsystem=1)
            v2 = check_ppt(rho_x(x), subsystem=2)
            assert v1.verdict == v2.verdict
            assert v1.value == pytest.approx(v2.value, abs=1e-10)


class TestPPTBoundary:
    """On 2x2 and 2x3, PPT is separability (Peres 1996; Horodecki 1996).

    A separable state mixed towards a random pure (entangled, NPT) state and
    bisected onto the PPT boundary from the PPT side is therefore a separable
    state on the boundary of the separable set, where no check may say ENTANGLED.
    """

    CHECKS = [
        *(
            make_check("hw", alpha=alpha, beta=beta, m=m, normalization=normalization)
            for alpha, beta, m in [(0.5, math.sqrt(2 / 11), 1), (1, 1, 1), (0, 0, 1), (2, 0.3, 2), (0.2, 1.5, 3)]
            for normalization in ("standard", "rescaled")
        ),
        make_check("vb"),
        make_check("lb"),
        make_check("isc", alpha=0.8, beta=1.1, m=1),
        make_check("thm2", alphas=(0.7, 1.3), m=2),
        make_check("ppt", subsystem=1),
        make_check("ppt", subsystem=2),
    ]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_no_check_flags_a_separable_boundary_state(self, dims):
        d, rng = math.prod(dims), np.random.default_rng(sum(dims))

        def min_eig_pt(mat):
            return np.linalg.eigvalsh(mat.reshape(*dims, *dims).transpose(0, 3, 2, 1).reshape(d, d))[0]

        for seed in range(130):
            inner = random_separable(dims, 2 * d, seed)[1].matrix
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            outer = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
            assert min_eig_pt(inner) > 0 > min_eig_pt(outer)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if min_eig_pt((1 - mid) * inner + mid * outer) >= 0 else (lo, mid)
            mat = (1 - lo) * inner + lo * outer
            assert 0 <= min_eig_pt(mat) < 1e-12  # on the boundary, from the PPT side
            rho = DensityMatrix(mat, dims)
            assert not any(check(rho).entangled for check in self.CHECKS)


class TestMatricize:
    def test_two_axes_is_plain_reshape(self):
        w = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(matricize(w, [1]), w)
        np.testing.assert_array_equal(matricize(w.tolist(), [1]), w)  # a nested list was an AttributeError

    def test_single_entry_bookkeeping(self):
        arr = np.zeros((2, 2, 2))
        arr[1, 0, 1] = 4.0
        m = matricize(arr, [1])
        assert m.shape == (2, 4)
        assert m[1, 0 * 2 + 1] == 4.0

    def test_rank_one_trace_norm(self):
        rng = np.random.default_rng(4)
        u, v, w_ = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        tensor = np.einsum("i,j,k->ijk", u, v, w_)
        m = matricize(tensor, [1, 3])
        expected = np.linalg.norm(u) * np.linalg.norm(w_) * np.linalg.norm(v)
        assert trace_norm(m) == pytest.approx(expected, rel=1e-9)

    def test_rejects_empty_or_full(self):
        w = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            matricize(w, [])
        with pytest.raises(ValidationError):
            matricize(w, [1, 2])
        with pytest.raises(ValidationError):
            matricize(w, [3])
        # party indices are whole numbers, not truncated: [1.5] is not party 1, [True, 2.9] not {1, 2}
        with pytest.raises(ValidationError):
            matricize(np.arange(16.0).reshape(4, 4), [1.5])
        with pytest.raises(ValidationError):
            matricize(np.zeros((4, 4, 4)), [True, 2.9])


class TestTheorem2:
    def test_bipartition_enumeration(self):
        assert all_bipartitions(2) == [(1,)]
        assert all_bipartitions(3) == [(1,), (1, 2), (1, 3)]
        assert len(all_bipartitions(4)) == 7

    def test_ghz_is_detected(self):
        verdicts = check_theorem2(ghz(3), (1.0, 1.0, 1.0), 1)
        assert len(verdicts) == 3
        assert all(v.bound == pytest.approx(2 ** 1.5, rel=1e-12) for v in verdicts)
        assert any(v.entangled for v in verdicts)

    def test_pure_product_equality_all_partitions(self):
        rho = product([random_pure(2, 11), random_pure(2, 12), random_pure(2, 13)])
        for v in check_theorem2(rho, (0.7, 1.1, 0.4), 2):
            assert abs(v.value - v.bound) < 1e-8
            assert not v.entangled

    def test_matches_theorem1_for_two_parties(self):
        # every S row is thm2 on two parties with weights (beta, alpha), to the last bit
        rows = [
            ("hw", dict(alpha=0.6, beta=1.2, m=2), (1.2, 0.6), 2, "standard"),
            ("hw", dict(alpha=0.6, beta=1.2, m=2, normalization="rescaled"), (1.2, 0.6), 2, "rescaled"),
            ("isc", dict(alpha=0.9, beta=0.4, m=3), (0.4, 0.9), 3, "rescaled"),
            ("vb", {}, (0.0, 0.0), 1, "rescaled"),  # zero weights: m = 0 and m = 1 give the same tensor and bound
            ("lb", {}, (1.0, 1.0), 1, "rescaled"),
        ]
        states = [as_dm(random_density(8, seed).matrix, (2, 4)) for seed in range(10)]
        states += [as_dm(random_density(9, 77).matrix, (3, 3)), rho_x(0.3)]
        states += [product([random_pure(2, 1), random_pure(3, 2)])]
        for criterion, params, weights, m, normalization in rows:
            for rho in states:
                v1 = make_check(criterion, **params)(rho)
                (v2,) = check_theorem2(rho, weights, m, normalization=normalization)
                assert (v2.value, v2.bound, v2.verdict) == (v1.value, v1.bound, v1.verdict), criterion

    def test_matches_theorem1_rescaled(self):
        rho = as_dm(random_density(9, 77).matrix, (3, 3))
        alpha, beta, m = 0.9, 0.4, 1
        v2 = check_theorem2(rho, (beta, alpha), m, normalization="rescaled")[0]
        v1 = check_theorem1(rho, alpha, beta, m, normalization="rescaled")
        assert v2.value == pytest.approx(v1.value, abs=1e-10)
        assert v2.bound == pytest.approx(v1.bound, abs=1e-10)

    def test_separable_ensembles_not_flagged(self):
        for seed in range(10):
            _, rho = random_separable((2, 2, 2), 6, seed)
            assert not any(v.entangled for v in check_theorem2(rho, (1.0, 1.0, 1.0), 1))

    def test_explicit_partition(self):
        verdicts = check_theorem2(ghz(3), (1.0, 1.0, 1.0), 1, partitions=[(1, 3), (3, 1, 1)])
        assert len(verdicts) == 2
        assert verdicts[0].params["partition"] == [1, 3]
        assert verdicts[1].params["partition"] == [1, 3]  # as matricized: sorted, without repeats
        assert verdicts[1].value == verdicts[0].value

    def test_nine_qubit_ghz(self):
        (v,) = check_theorem2(ghz(9), (1,) * 9, 1, partitions=[(1,)])
        assert v.value == pytest.approx(2**5.5, rel=1e-12)
        assert v.bound == pytest.approx(2**4.5, rel=1e-15)
        assert v.entangled

    def test_requires_m_and_parties(self):
        with pytest.raises(ValidationError):
            check_theorem2(ghz(3), (1.0, 1.0, 1.0), 0)
        with pytest.raises(ValidationError):
            check_theorem2(random_density(4, 0), (1.0,), 1)


class TestPartyCount:
    """Every criterion checks a state's party count in one place, and the error names the criterion."""

    @pytest.mark.parametrize(
        "criterion,params",
        [
            ("hw", dict(alpha=0.5, beta=0.4, m=1)),
            ("isc", dict(alpha=0.5, beta=0.4, m=1)),
            ("vb", {}),
            ("lb", {}),
            ("ppt", {}),
        ],
    )
    @pytest.mark.parametrize("dims", [(3,), (2, 2, 2)], ids=["one-party", "three-party"])
    def test_two_party_rows_reject_other_party_counts(self, criterion, params, dims):
        rho = as_dm(random_density(math.prod(dims), 5).matrix, dims)
        check = make_check(criterion, **params)
        for evaluate in (check, check.linear):
            with pytest.raises(ValidationError, match=f"criterion {criterion} needs a state of 2 parties") as err:
                evaluate(rho)
            assert "check_theorem2" not in str(err.value)

    @pytest.mark.parametrize("alphas", [(), (1.0,)])
    def test_thm2_needs_two_weights_when_bound(self, alphas):
        with pytest.raises(ValidationError, match="criterion thm2 needs one weight per party, two or more"):
            make_check("thm2", alphas=alphas, m=1)

    def test_thm2_needs_one_party_per_weight(self):
        check = make_check("thm2", alphas=(1.0, 1.0), m=1)
        with pytest.raises(ValidationError, match="criterion thm2 needs a state of 2 parties"):
            check(ghz(3))
        with pytest.raises(ValidationError, match="criterion thm2 needs a state of 3 parties"):
            check_theorem2(ghz(2), (1.0, 1.0, 1.0), 1)
        with pytest.raises(ValidationError, match="one weight per party"):
            theorem2_bound((2, 4, 2), (1, 1), 1)  # not the two-party bound of the first two

    @pytest.mark.parametrize("partition", [[3], [1, 2]])
    def test_thm2_partitions_are_read_against_the_weights_when_bound(self, partition):
        with pytest.raises(ValidationError, match=r"1\.\.2, got"):
            make_check("thm2", alphas=(1, 1), m=1, partitions=[partition])

    @pytest.mark.parametrize(
        "call,what,n",
        [
            (lambda rho: decompose_single(rho), "decompose_single", 1),
            (lambda rho: decompose_bipartite(rho), "decompose_bipartite", 2),
            (lambda rho: partial_transpose(rho), "partial_transpose", 2),
            (lambda rho: partial_trace(rho, 1), "partial_trace", 2),
            pytest.param(
                lambda rho: make_check("thm2", alphas=(1.0, 1.0), m=1).linear(rho), "criterion thm2", 2, id="thm2.linear"
            ),
            pytest.param(lambda rho: make_check("vb")(rho), "criterion vb", 2, id="Check"),
            pytest.param(lambda rho: make_check("ppt").linear(rho), "criterion ppt", 2, id="Check.linear"),
            pytest.param(lambda rho: check_theorem1(rho, 0.5, 0.4, 1), "criterion hw", 2, id="check_theorem1"),
            pytest.param(lambda rho: check_theorem2(rho, (1.0, 1.0), 1), "criterion thm2", 2, id="check_theorem2"),
            pytest.param(lambda rho: check_ppt(rho), "criterion ppt", 2, id="check_ppt"),
            pytest.param(lambda rho: optimize_params(rho, [0.5], [0.5], [1]), "optimize_params", 2, id="optimize"),
            pytest.param(lambda rho: compare(rho, [{"criterion": "lb"}]), "criterion lb", 2, id="compare"),
        ],
    )
    def test_every_reader_raises_the_one_message(self, call, what, n):
        with pytest.raises(ValidationError, match=rf"^{what} needs a state of {n} parties, got dims \(2, 2, 2\)$"):
            call(ghz(3))
        # a subject that is not a state is refused before its parties are counted
        for subject, kind in ((np.eye(4) / 4, "ndarray"), ("x", "str"), (None, "NoneType")):
            with pytest.raises(ValidationError, match=rf"^{what} needs a DensityMatrix, got {kind}$"):
                call(subject)


class TestOneSlotKernel:
    """The one-slot kernel at sqrt(m)-scaled weights has the trace norms of the m-slot layout."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 4)])
    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_s_matches_m_slot_layout(self, dims, normalization):
        rho = as_dm(random_density(dims[0] * dims[1], 31 * dims[0] + dims[1]).matrix, dims)
        for m in (0, 1, 2, 3, 5):
            v = check_theorem1(rho, 0.6, 1.3, m, normalization)
            expected = trace_norm(reference_s(rho, 0.6, 1.3, m, normalization))
            assert v.value == pytest.approx(expected, rel=1e-12)
            expected_bound = closed_form_s_bound(*dims, 0.6, 1.3, m, normalization)
            assert v.bound == pytest.approx(expected_bound, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_w_matches_m_slot_layout(self, n, normalization):
        rho = as_dm(random_density(2**n, 60 + n).matrix, (2,) * n)
        alphas = (0.4, 1.1, 0.8, 1.7)[:n]
        for m in (1, 2, 3):
            w = reference_w(rho, alphas, m, normalization)
            verdicts = check_theorem2(rho, alphas, m, normalization=normalization)
            assert len(verdicts) == len(all_bipartitions(n))
            for v in verdicts:
                expected = trace_norm(matricize(w, v.params["partition"]))
                assert v.value == pytest.approx(expected, rel=1e-12)


LOG_WEIGHT = st.floats(0.0, math.log(3e4))


class TestScaleAwareMargin:
    """Pure product states sit on the bound: at no weight, dimension or party count are they flagged."""

    @settings(deadline=None, max_examples=150)
    @given(
        d1=st.integers(2, 5),
        d2=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 2),
        log_alpha=LOG_WEIGHT,
        log_beta=LOG_WEIGHT,
        m=st.integers(0, 3),
    )
    def test_bipartite_pure_products(self, d1, d2, seed, log_alpha, log_beta, m):
        rho = product([random_pure(d1, seed), random_pure(d2, seed + 1)])
        weights = dict(alpha=math.exp(log_alpha), beta=math.exp(log_beta))
        checks = [
            make_check("hw", m=m, normalization="standard", **weights),
            make_check("hw", m=m, normalization="rescaled", **weights),
            make_check("lb"),
        ]
        if m >= 1:
            checks.append(make_check("isc", m=m, **weights))
        for check in checks:
            v = check(rho)
            assert not v.entangled, v

    @settings(deadline=None, max_examples=40)
    @given(
        dims=st.lists(st.integers(2, 3), min_size=3, max_size=4),
        seed=st.integers(0, 2**32 - 5),
        log_alphas=st.lists(LOG_WEIGHT, min_size=4, max_size=4),
        m=st.integers(1, 3),
        normalization=st.sampled_from(["standard", "rescaled"]),
    )
    def test_multipartite_pure_products(self, dims, seed, log_alphas, m, normalization):
        rho = product([random_pure(d, seed + k) for k, d in enumerate(dims)])
        alphas = [math.exp(a) for a in log_alphas[: len(dims)]]
        for v in check_theorem2(rho, alphas, m, normalization=normalization):
            assert not v.entangled, v

    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_separable_states_at_the_largest_finite_bound(self, normalization):
        # alpha = beta = 1.3e154 puts the bound just under float range; pytest turns any overflow warning into an error
        check = make_check("hw", alpha=1.3e154, beta=1.3e154, m=1, normalization=normalization)
        for rho in (product([random_pure(2, 1), random_pure(2, 2)]), random_separable((2, 2), 5, 3)[1]):
            v = check(rho)
            assert v.verdict == "INCONCLUSIVE" and math.isfinite(v.value) and v.bound < math.inf, v


class TestStackedJudgement:
    """A check judges a stack of its linear images as it judges each state alone."""

    @pytest.mark.parametrize(
        "criterion,params,dims",
        [
            ("hw", dict(alpha=0.5, beta=0.4, m=1), (2, 4)),
            ("hw", dict(alpha=1.2, beta=0.3, m=3, normalization="rescaled"), (3, 3)),
            ("isc", dict(alpha=0.5, beta=0.4, m=2), (2, 3)),
            ("vb", {}, (3, 3)),
            ("lb", {}, (2, 4)),
            ("ppt", {}, (2, 4)),
            ("ppt", dict(subsystem=1), (3, 3)),
            ("thm2", dict(alphas=(1.0, 0.5, 0.8), m=1), (2, 2, 2)),
            ("thm2", dict(alphas=(1.0, 0.5, 0.8), m=2, partitions=[(2,), (1, 3)]), (2, 3, 2)),
        ],
    )
    def test_stack_matches_single_checks(self, criterion, params, dims):
        d = math.prod(dims)
        states = [as_dm(random_density(d, seed).matrix, dims) for seed in range(4)]
        states += [ghz(len(dims)) if len(set(dims)) == 1 and dims[0] == 2 else states[0]]
        check = make_check(criterion, **params)
        images, bounds = zip(*(check.linear(rho) for rho in states))
        assert len(set(bounds)) == 1
        judged = check.judge(np.stack(images), bounds[0])
        singles = [check(rho) for rho in states]
        assert [judged.verdict(i) for i in range(len(states))] == singles
        assert judged.entangled.tolist() == [v.entangled for v in singles]

    @pytest.mark.parametrize("budget", [None, 1, 2.5, 7])  # None: the default; else images' elements per stack
    @pytest.mark.parametrize(
        "dims,partitions",
        [
            ((2, 2, 2), None),
            ((2, 3, 2), None),
            ((2, 3, 2), [(1,), (2, 3), (2,), (1, 3), (1, 3), (3,), (1, 2)]),  # complements, a repeat, one shape each
            ((3, 2, 2, 2), None),
            ((3, 2, 2, 2), [(2, 3), (1, 4), (1,), (2, 3, 4), (4,)]),
            ((2,) * 5, None),
            ((2,) * 5, [(1,), (2, 3, 4, 5), (1, 2), (3, 4, 5), (2, 5), (1, 3, 4)]),
        ],
    )
    def test_stacked_values_are_the_matricizations_trace_norms(self, monkeypatch, dims, partitions, budget):
        # the judge groups the bipartitions by tall shape, one SVD per stack, split across stacks by the budget
        states = [as_dm(random_density(math.prod(dims), seed).matrix, dims) for seed in range(3)]
        check = make_check("thm2", alphas=np.linspace(0.4, 1.3, len(dims)), m=2, partitions=partitions)
        images = np.stack([check.linear(rho)[0] for rho in states])
        if budget is not None:
            monkeypatch.setattr(criteria, "_STACK_ELEMS", int(budget * images[0].size))
        stacks = []
        monkeypatch.setattr(criteria, "trace_norm", lambda stack: stacks.append(stack.shape) or trace_norm(stack))
        judged = check.judge(images, 1.0)
        expected = [[trace_norm(matricize(image, part)) for part in judged.columns] for image in images]
        assert judged.values.tobytes() == np.array(expected).tobytes()
        # a stack of several columns keeps within the budget; a one-column stack is the images themselves, matricized
        for shape in stacks:
            assert math.prod(shape) <= criteria._STACK_ELEMS if len(shape) == 4 else shape[0] == len(images)
            assert shape[-2] >= shape[-1]  # tall

    @pytest.mark.parametrize(
        "criterion,params,dims",
        [
            ("hw", dict(alpha=0.5, beta=0.4, m=1), (2, 4)),
            ("hw", dict(alpha=1.2, beta=0.3, m=3, normalization="rescaled"), (3, 3)),
            ("thm2", dict(alphas=(1.0, 0.5, 0.8, 1.2, 0.3), m=2), (2,) * 5),  # stacks of 5 and 10 columns
            ("ppt", {}, (2, 4)),
        ],
    )
    def test_one_bound_per_image(self, criterion, params, dims):
        # each image's bound sits just above or just below its worst value, alternately, so that one image passes
        # its bound and the next does not; each image judged alone at its own bound gives the same bits
        states = [as_dm(random_density(math.prod(dims), seed).matrix, dims) for seed in range(5)]
        check = make_check(criterion, **params)
        images = np.stack([check.linear(rho)[0] for rho in states])
        worst = check.judge(images, 0.0).values.max(axis=1)
        bounds = worst + np.where(np.arange(len(states)) % 2, -0.05, 0.05) * np.maximum(1.0, np.abs(worst))
        judged = check.judge(images, bounds)
        alone = [check.judge(images[i : i + 1], bound) for i, bound in enumerate(bounds.tolist())]
        assert judged.entangled.tolist() == [a.entangled[0] for a in alone] == [False, True] * 2 + [False]
        for i, single in enumerate(alone):
            assert judged.values[i].tobytes() == single.values[0].tobytes()
            assert repr(judged.verdicts(i)) == repr(single.verdicts(0))
            assert repr(judged.verdict(i)) == repr(single.verdict(0))
            assert judged.verdict(i).bound == bounds[i]

    def test_a_bipartition_and_its_complement_give_the_same_bits(self):
        parts = all_bipartitions(5)
        complements = [tuple(k for k in range(1, 6) if k not in part) for part in parts]
        for seed in range(3):
            rho = as_dm(random_density(32, seed).matrix, (2,) * 5)
            verdicts = check_theorem2(rho, (1.0, 0.5, 0.8, 1.2, 0.3), 1, partitions=parts + complements)
            assert [v.value for v in verdicts[:15]] == [v.value for v in verdicts[15:]]

    def test_theorem2_lists_every_partition_of_one_image(self):
        check = make_check("thm2", alphas=(1.0, 1.0, 1.0), m=1)
        image, bound = check.linear(ghz(3))
        verdicts = check.judge(image[None], bound).verdicts(0)
        assert verdicts == check_theorem2(ghz(3), (1.0, 1.0, 1.0), 1)
        assert check(ghz(3)) == max(verdicts, key=lambda v: v.value - v.bound)

    def test_rejects_an_empty_partition_list(self):
        with pytest.raises(ValidationError):
            check_theorem2(ghz(3), (1.0, 1.0, 1.0), 1, partitions=[])
