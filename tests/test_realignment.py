"""A Hilbert-space oracle for every trace-norm row: local filters and a realignment, no operator basis.

For weights w_k, scales s_k = sqrt(m) w_k and c_k = 1 (standard) or sqrt(d_k / 2) (rescaled),

    ||W^(A|A-bar)||_tr = prod_k sqrt(d_k) ||R_A((F_1 x ... x F_N)(rho))||_tr,
    F_k(X) = c_k X + (s_k - c_k) Tr_k(X) x I_k / d_k,

where R_A puts the (i_k, j_k) index pairs of the parties in A on the rows.
The map from an operator to its coefficients on a party's basis is sqrt(d_k)
times a unitary, and weighting the identity slot changes c_k I along
vec(I)/sqrt(d_k) alone.  The realignment (CCNR) criterion is s = c = 1 and
de Vicente's correlation criterion (``vb``) is s = 0, rescaled.  The oracle
uses reshapes, partial traces and a complex SVD, never ``hw_basis`` or ``bloch``.

The enhanced realignment criterion (ERC; Zhang, Zhang, Zhang & Guo, PRA 77, 060301(R) (2008)) bounds every
two-party row from above: each S row's value - bound, over prod_k c_k, is at most ERC's gap (README, "Basis
conventions, and one known discrepancy").
"""

import math

import numpy as np
import pytest

from hwsep import DensityMatrix, check_theorem2, make_check, optimize_params
from hwsep.criteria import _EPS_MACH, all_bipartitions
from hwsep.states import random_density, random_pure, random_separable

RTOL = 1e-12


def realigned(rho, weights, m, normalization, part):
    """The value and bound of the trace-norm criterion on bipartition ``part``, from the identity above."""
    dims, n = rho.dims, len(rho.dims)
    t = rho.matrix.reshape(dims + dims)  # axes i_1..i_N, then j_1..j_N
    bound = 1.0
    for k, (d, w) in enumerate(zip(dims, weights)):
        c = 1.0 if normalization == "standard" else math.sqrt(d / 2)
        traced = np.expand_dims(np.trace(t, axis1=k, axis2=n + k), (k, n + k))
        identity = np.eye(d).reshape([d if axis in (k, n + k) else 1 for axis in range(2 * n)]) / d
        t = c * t + (math.sqrt(m) * w - c) * traced * identity
        bound *= math.sqrt(m * w * w + c * c * (d - 1))
    rest = [k for k in range(1, n + 1) if k not in part]
    order = [axis for k in (*part, *rest) for axis in (k - 1, n + k - 1)]
    matrix = t.transpose(order).reshape(math.prod(dims[k - 1] ** 2 for k in part), -1)
    return math.prod(math.sqrt(d) for d in dims) * np.linalg.svd(matrix, compute_uv=False).sum(), bound


def random_state(dims, seed):
    return DensityMatrix(random_density(math.prod(dims), seed).matrix, dims)


def agrees(verdict, oracle):
    np.testing.assert_allclose((verdict.value, verdict.bound), oracle, rtol=RTOL, atol=0)


TWO_PARTY_DIMS = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3), (4, 4)]


@pytest.mark.parametrize("dims", TWO_PARTY_DIMS)
@pytest.mark.parametrize("normalization", ["standard", "rescaled"])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_hw_in_both_normalizations(dims, normalization, m):
    rng = np.random.default_rng(sum(dims) * 10 + m)
    for seed in range(3):
        rho, (alpha, beta) = random_state(dims, seed), rng.uniform(0, 2, 2)
        verdict = make_check("hw", alpha=alpha, beta=beta, m=m, normalization=normalization)(rho)
        agrees(verdict, realigned(rho, (beta, alpha), m, normalization, (1,)))


@pytest.mark.parametrize("dims", TWO_PARTY_DIMS)
def test_fixed_rows(dims):
    rng = np.random.default_rng(sum(dims))
    for seed in range(3):
        rho = random_state(dims, seed)
        agrees(make_check("vb")(rho), realigned(rho, (0.0, 0.0), 0, "rescaled", (1,)))
        agrees(make_check("lb")(rho), realigned(rho, (1.0, 1.0), 1, "rescaled", (1,)))
        (alpha, beta), m = rng.uniform(0, 2, 2), int(rng.integers(1, 4))
        verdict = make_check("isc", alpha=alpha, beta=beta, m=m)(rho)
        agrees(verdict, realigned(rho, (beta, alpha), m, "rescaled", (1,)))


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("normalization", ["standard", "rescaled"])
def test_thm2_on_every_bipartition(dims, normalization):
    rng = np.random.default_rng(len(dims))
    for seed in range(2):
        rho, alphas, m = random_state(dims, seed), rng.uniform(0, 2, len(dims)), seed + 1
        verdicts = check_theorem2(rho, alphas, m, normalization=normalization)
        assert [tuple(v.params["partition"]) for v in verdicts] == all_bipartitions(len(dims))
        for verdict in verdicts:
            agrees(verdict, realigned(rho, alphas, m, normalization, verdict.params["partition"]))


@pytest.mark.parametrize("normalization", ["standard", "rescaled"])
def test_best_cell_of_the_grid_search(normalization):
    grid = [0.0, 0.3, 0.7, 1.2]
    for dims in [(2, 2), (2, 4), (3, 3)]:
        rho = random_state(dims, 7)
        best = optimize_params(rho, grid, grid, [1, 2, 3], normalization)
        oracle = realigned(rho, (best.beta, best.alpha), best.m, normalization, (1,))
        np.testing.assert_allclose((best.value, best.bound), oracle, rtol=RTOL, atol=0)


def erc_gap(rho):
    """sqrt(d1 d2) (||R(rho - rho_A x rho_B)||_tr - sqrt((1 - Tr rho_A^2)(1 - Tr rho_B^2))), from partial traces."""
    d1, d2 = rho.dims
    t = rho.matrix.reshape(d1, d2, d1, d2)  # axes i_1, i_2, j_1, j_2
    rho_a, rho_b = np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)
    moved = (t - np.einsum("ac,bd->abcd", rho_a, rho_b)).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    mixedness = math.prod(1 - np.vdot(marginal, marginal).real for marginal in (rho_a, rho_b))  # 1 - Tr rho_k^2
    return math.sqrt(d1 * d2) * (np.linalg.svd(moved, compute_uv=False).sum() - math.sqrt(max(0.0, mixedness)))


def envelope_states():
    """Seeded 2x2 to 4x4 states: full rank, separable (pure products among them) and pure plus white noise."""
    for dims in TWO_PARTY_DIMS:
        size = math.prod(dims)
        for seed in range(4):
            rng = np.random.default_rng(100 * size + seed)
            yield random_state(dims, seed)
            yield random_separable(dims, int(rng.integers(1, 4)), seed)[1]
            p = rng.uniform()
            yield DensityMatrix(p * random_pure(size, seed).matrix + (1 - p) * np.eye(size) / size, dims)


# the S rows that take weights and m, with what else each is given
WEIGHTED_ROWS = (("hw", {"normalization": "standard"}), ("hw", {"normalization": "rescaled"}), ("isc", {}))


def envelope_rows(rng):
    """(criterion, parameters): hw in both normalizations, isc, vb and lb, at weights log-uniform in e^+-5 and m from
    1 to 8."""
    for _ in range(6):
        for criterion, given in WEIGHTED_ROWS:
            alpha, beta = np.exp(rng.uniform(-5, 5, 2))
            yield criterion, dict(given, alpha=alpha, beta=beta, m=int(rng.integers(1, 9)))
    yield "vb", {}
    yield "lb", {}


def test_erc_bounds_every_s_row():
    rng = np.random.default_rng(15)
    for rho in envelope_states():
        gap, (d1, d2) = erc_gap(rho), rho.dims
        for criterion, params in envelope_rows(rng):
            verdict = make_check(criterion, **params)(rho)
            scale = 1.0 if verdict.params["normalization"] == "standard" else math.sqrt(d1 * d2) / 2  # prod_k c_k
            slack = 64 * (d1 * d1 + d2 * d2) * _EPS_MACH * max(1.0, verdict.bound / scale)
            assert (verdict.value - verdict.bound) / scale <= gap + slack, (criterion, params, rho.dims)


def marginal_data(rho):
    """(||r||^2, ||s||^2, A, B, ||T - r s^T||_op) in the standard normalization, from partial traces: d_k Tr rho_k^2 =
    1 + ||r_k||^2, and the operator norm is sqrt(d1 d2) times that of R(rho - rho_A x rho_B)."""
    d1, d2 = rho.dims
    t = rho.matrix.reshape(d1, d2, d1, d2)
    rho_a, rho_b = np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)
    r2, s2 = (d * np.vdot(marginal, marginal).real - 1 for d, marginal in zip((d1, d2), (rho_a, rho_b)))
    moved = (t - np.einsum("ac,bd->abcd", rho_a, rho_b)).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    return r2, s2, d1 - 1 - r2, d2 - 1 - s2, math.sqrt(d1 * d2) * np.linalg.svd(moved, compute_uv=False)[0]


def test_hw_approaches_erc_from_below_at_the_ratio():
    """hw at (alpha', beta') = t (u, v), m = 1, u v = 1 and v/u = sqrt(A/B) has 0 <= erc's gap - hw's gap <= R(t).

    Write S = a b^T + (0 (+) M) with a = (beta', r), b = (alpha', s) and M = T - r s^T, and let X = ||a||^2, Y =
    ||b||^2, p = ||r|| / ||a|| and q = ||s|| / ||b||.  The lower end is ``test_erc_bounds_every_s_row``'s.  For the
    upper end, let W be the partial isometry of M's SVD, a_hat and b_hat the unit vectors along a and b, P and Q the
    projectors off them, and K = a_hat b_hat^T + P W Q.  The two terms map orthogonal subspaces onto orthogonal ones,
    so ||K||_op <= 1 and ||S||_tr >= <K, S> = ||a|| ||b|| + ||M||_tr - e.  e sums four terms, each at most ||M||_op
    times: <a_hat, M b_hat> (p q), <W, a_hat a_hat^T M> (p^2), <W, M b_hat b_hat^T> (q^2) and <W, a_hat a_hat^T M
    b_hat b_hat^T> (p^2 q^2); so e <= ||M||_op (p + q)^2.  The bound is sqrt((X + A)(Y + B)) = sqrt(XY) + sqrt(AB) +
    c, with the Cauchy-Schwarz deficit c = (sqrt(XB) - sqrt(AY))^2 / (bound + sqrt(XY) + sqrt(AB)), at most (XB -
    AY)^2 / ((sqrt(XB) + sqrt(AY))^2 2 sqrt(XY)); at the ratio t^2 v^2 B = t^2 u^2 A, so XB - AY = ||r||^2 B - A
    ||s||^2.  Hence erc's gap - hw's gap = ||M||_tr - sqrt(AB) - (||S||_tr - bound) <= R(t) = ||M||_op (p + q)^2 + c.
    R(t) is O(1/t^2), as ERC's large-t expansion has it: p <= ||r|| / (t v), q <= ||s|| / (t u), and c is O(1/t^4).
    Each distance, and its fall from one t to the next, allows the rounding slack of ``test_erc_bounds_every_s_row``;
    the seeded states have mixed marginals, A, B > 0.
    """
    states = [random_state(dims, seed) for dims in TWO_PARTY_DIMS for seed in range(2)]
    states.append(DensityMatrix(0.7 * random_pure(8, 3).matrix + 0.3 * np.eye(8) / 8, (2, 4)))
    for rho in states:
        gap, (d1, d2) = erc_gap(rho), rho.dims
        r2, s2, mixed_a, mixed_b, m_op = marginal_data(rho)
        u, v = (mixed_b / mixed_a) ** 0.25, (mixed_a / mixed_b) ** 0.25
        distances = [math.inf]
        for t in (10.0, 100.0, 1000.0):
            verdict = make_check("hw", alpha=t * u, beta=t * v, m=1)(rho)
            x, y = (t * v) ** 2 + r2, (t * u) ** 2 + s2
            root_b, root_a = math.sqrt(x * mixed_b), math.sqrt(mixed_a * y)
            c = (r2 * mixed_b - mixed_a * s2) ** 2 / ((root_b + root_a) ** 2 * 2 * math.sqrt(x * y))
            remainder = m_op * (math.sqrt(r2 / x) + math.sqrt(s2 / y)) ** 2 + c
            slack = 64 * (d1 * d1 + d2 * d2) * _EPS_MACH * max(1.0, verdict.bound)
            distance = gap - (verdict.value - verdict.bound)
            assert -slack <= distance <= min(remainder, distances[-1]) + slack, (rho.dims, t, distances, remainder)
            distances.append(distance)
