import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwsep import DensityMatrix, ValidationError, analysis, compare, make_check, optimize_params, scan_threshold
from hwsep import bloch, check_theorem1, cli, criteria, states
from hwsep.linalg import eig_hermitian, trace_norm
from hwsep.states import (
    StateFamily,
    ghz,
    horodecki_mix_family,
    mix,
    product,
    random_density,
    random_pure,
    random_separable,
)

from reference_data import THRESHOLD_HW, THRESHOLD_ISC, THRESHOLD_LB, THRESHOLD_VB

FAMILY = horodecki_mix_family(0.9)
HW_CHECK = make_check("hw", alpha=0.5, beta=np.sqrt(2 / 11), m=1)


def separable_family():
    """Mixture of two fixed product states; separable for every x."""
    a = product([random_pure(2, 1), random_pure(4, 2)])
    b = product([random_pure(2, 3), random_pure(4, 4)])
    return StateFamily(name="product-mix", generator=lambda x: mix(x, a, b))


class TestScanThreshold:
    @pytest.mark.parametrize(
        "criterion,params,expected",
        [
            ("hw", dict(alpha=0.5, beta=np.sqrt(2 / 11), m=1), THRESHOLD_HW),
            ("isc", dict(alpha=0.5, beta=np.sqrt(2 / 11), m=1), THRESHOLD_ISC),
            ("vb", {}, THRESHOLD_VB),
            ("lb", {}, THRESHOLD_LB),
        ],
    )
    def test_known_thresholds(self, criterion, params, expected):
        res = scan_threshold(FAMILY, make_check(criterion, **params))
        assert res.threshold == pytest.approx(expected, abs=5e-6)
        assert res.sign_changes == 1
        assert not res.non_monotone

    def test_bracket_postcondition(self):
        res = scan_threshold(FAMILY, HW_CHECK, tol=1e-7)
        hi = HW_CHECK(FAMILY.state(res.threshold + res.width))
        lo = HW_CHECK(FAMILY.state(res.threshold - res.width))
        assert hi.value - hi.bound >= 0
        assert lo.value - lo.bound < 0

    def test_separable_family_has_no_threshold(self):
        res = scan_threshold(separable_family(), HW_CHECK, grid_points=32)
        assert res.threshold is None
        assert res.sign_changes == 0

    def test_non_monotone_family_is_flagged(self):
        # entangled in the middle of the range, separable at both ends
        bell = ghz(2)
        sep = product([random_pure(2, 5), random_pure(2, 6)])
        fam = StateFamily(name="tent", generator=lambda x: mix(1 - abs(2 * x - 1), bell, sep))
        res = scan_threshold(fam, make_check("ppt"), grid_points=64)
        assert res.sign_changes == 2
        assert res.non_monotone
        assert 0 < res.threshold < 0.5

    def test_determinism(self):
        r1 = scan_threshold(FAMILY, HW_CHECK)
        r2 = scan_threshold(FAMILY, HW_CHECK)
        assert r1.threshold == r2.threshold
        assert r1.evaluations == r2.evaluations

    def test_counts_evaluations(self):
        res = scan_threshold(FAMILY, HW_CHECK, grid_points=64, tol=1e-6)
        assert res.evaluations >= 64

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            scan_threshold(FAMILY, HW_CHECK, grid_points=8)
        for grid_points in (16.5, "64", None, True):
            with pytest.raises(ValidationError, match="grid_points"):
                scan_threshold(FAMILY, HW_CHECK, grid_points=grid_points)
        # a count is a whole number of any type, as m is
        for grid_points in (64.0, np.int64(64)):
            assert scan_threshold(FAMILY, HW_CHECK, grid_points=grid_points) == scan_threshold(FAMILY, HW_CHECK, 64)
        for family in ("x", FAMILY.state(0.5), None):  # a state is not a family
            with pytest.raises(ValidationError, match="family must be a StateFamily"):
                scan_threshold(family, HW_CHECK)
        for tol in (1e-9, np.nan, np.inf, "1e-6", None, True):  # True == 1.0, but a flag is not a tolerance
            with pytest.raises(ValidationError, match="tol"):
                scan_threshold(FAMILY, HW_CHECK, tol=tol)
            with pytest.raises(ValidationError, match="tol"):
                compare(FAMILY, [{"criterion": "vb"}], tol=tol)


def as_pair(matrix, d):
    return DensityMatrix(matrix, (d, d))


def endpoint_family(d, seed, pure_end):
    """Affine family between a random mixed state and a random (pure or mixed) state on d x d."""
    rho0 = as_pair(random_density(d * d, seed).matrix, d)
    end = random_pure(d * d, seed + 1) if pure_end else random_density(d * d, seed + 1)
    return StateFamily(f"random-{d}x{d}", {"seed": seed}, endpoints=(rho0, as_pair(end.matrix, d)))


def generator_copy(fam):
    return StateFamily(fam.name, fam.params, generator=fam.state)


SCAN_SPECS = [
    ("hw", dict(alpha=0.5, beta=np.sqrt(2 / 11), m=1)),
    ("hw", dict(alpha=0.7, beta=0.3, m=2, normalization="rescaled")),
    ("isc", dict(alpha=0.5, beta=np.sqrt(2 / 11), m=1)),
    ("vb", {}),
    ("lb", {}),
    ("ppt", {}),
    ("ppt", dict(subsystem=1)),
    ("thm2", dict(alphas=(0.6, 0.9), m=1)),
    ("thm2", dict(alphas=(1.0, 0.4), m=2, normalization="rescaled")),
]

_B_RNG = np.random.default_rng(2024)
SCAN_FAMILIES = (
    [(FAMILY, 256)]
    + [(horodecki_mix_family(float(b)), 64) for b in _B_RNG.uniform(0.1, 0.95, 3)]
    + [(endpoint_family(d, seed, pure), 64) for d in (2, 3) for seed, pure in ((11, True), (13, False))]
)


class TestAffineScan:
    """Affine families are scanned on their endpoints' images, generator-only ones point by point."""

    def test_every_criterion_is_covered(self):
        assert {name for name, _ in SCAN_SPECS} == set(criteria.REGISTRY)

    @pytest.mark.parametrize("criterion,params", SCAN_SPECS)
    def test_same_result_as_a_generator_only_copy(self, criterion, params):
        check = make_check(criterion, **params)
        found = 0
        for fam, grid in SCAN_FAMILIES:
            batched = scan_threshold(fam, check, grid_points=grid)
            pointwise = scan_threshold(generator_copy(fam), check, grid_points=grid)
            assert batched == pointwise, fam.describe()
            found += batched.threshold not in (None, 0.0)
        assert found >= 2  # some scans bisect

    def test_multipartite_family(self, monkeypatch):
        white = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        fam = StateFamily("ghz3-white", endpoints=(white, ghz(3)))
        check = make_check("thm2", alphas=(1.0, 0.5, 0.8), m=1)
        res = scan_threshold(fam, check, grid_points=64)
        assert 0 < res.threshold < 1
        assert res == scan_threshold(generator_copy(fam), check, grid_points=64)
        monkeypatch.setattr(analysis, "_STACK_ELEMS", 200)  # three 4x4x4 images per batch
        assert scan_threshold(fam, check, grid_points=64) == res

    def test_chunked_grid_gives_the_same_result(self, monkeypatch):
        whole = scan_threshold(FAMILY, HW_CHECK)
        thm2 = make_check("thm2", alphas=(0.6, 0.9), m=1)
        whole_thm2 = scan_threshold(FAMILY, thm2)
        monkeypatch.setattr(analysis, "_STACK_ELEMS", 300)  # five 2x4 images per batch
        assert scan_threshold(FAMILY, HW_CHECK) == whole
        assert scan_threshold(FAMILY, thm2) == whole_thm2

    def test_builds_no_state_per_point(self, monkeypatch):
        def no_mix(*args):
            raise AssertionError("mix called during an affine scan")

        monkeypatch.setattr(states, "mix", no_mix)
        for criterion, params in SCAN_SPECS:
            res = scan_threshold(FAMILY, make_check(criterion, **params))
            assert res.evaluations >= 256

    def test_plain_callable_is_a_validation_error(self):
        for fam in (FAMILY, generator_copy(FAMILY)):
            with pytest.raises(ValidationError, match="make_check"):
                scan_threshold(fam, lambda rho: HW_CHECK(rho))

    @pytest.mark.parametrize("later", [(4, 2), (2, 2)])
    def test_family_whose_dims_change_is_a_validation_error(self, later):
        # (2, 4) -> (4, 2) keeps ppt's 8x8 image shape, so only the dims show the change
        first = DensityMatrix(np.eye(8) / 8, (2, 4))
        then = DensityMatrix(np.eye(math.prod(later)) / math.prod(later), later)
        fam = StateFamily("jump", generator=lambda x: first if x < 0.5 else then)
        for check in (make_check("ppt"), HW_CHECK):
            with pytest.raises(ValidationError, match="dims"):
                scan_threshold(fam, check, grid_points=16)

    def test_malformed_family_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            scan_threshold(StateFamily("x"), HW_CHECK)

    @pytest.mark.parametrize("start,x", [(0.5, r"0\.50.*"), (0.0, r"0\.0")], ids=["from 0.5", "from 0"])
    def test_generator_state_that_is_not_a_state_is_a_validation_error(self, start, x):
        # a bare matrix from x = start on ended in an AttributeError
        fam = StateFamily("bare", generator=lambda x: FAMILY.state(x).matrix if x >= start else FAMILY.state(x))
        with pytest.raises(ValidationError, match=rf"^family 'bare' at x = {x} needs a DensityMatrix, got ndarray$"):
            scan_threshold(fam, HW_CHECK)

    @pytest.mark.parametrize("criterion,params", SCAN_SPECS)
    def test_generator_builds_each_point_once(self, criterion, params):
        calls = []

        def counted(x):
            calls.append(x)
            return FAMILY.state(x)

        check = make_check(criterion, **params)
        res = scan_threshold(StateFamily(FAMILY.name, FAMILY.params, generator=counted), check)
        assert len(calls) == len(set(calls)) == res.evaluations  # x = 0 once, not twice
        assert res == scan_threshold(FAMILY, check)


TWO_PARTY = ((2, 2), (2, 3), (3, 3))


@st.composite
def affine_pairs(draw, shapes=TWO_PARTY):
    """The affine family between two seeded random states, each pure or mixed, of dims drawn from ``shapes``."""
    dims = draw(st.sampled_from(shapes))
    seed = draw(st.integers(0, 2**31))
    kinds = draw(st.tuples(st.booleans(), st.booleans()))
    ends = [
        (random_pure if pure else random_density)(math.prod(dims), seed + k).matrix for k, pure in enumerate(kinds)
    ]
    return StateFamily("pair", {"seed": seed}, endpoints=tuple(DensityMatrix(e, dims) for e in ends))


class TestConvexity:
    """Along x -> (1-x) rho0 + x rho1 each value is convex (a norm, or -lambda_min, of an affine
    matrix function) and the bound is constant.  So the sub-margin x form one interval, the
    verdicts along the grid read ENTANGLED*, INCONCLUSIVE*, ENTANGLED*, and the first change to
    ENTANGLED that the scan bisects is the only onset of violation after the first
    INCONCLUSIVE point."""

    @settings(deadline=None, max_examples=60)
    @given(
        fam=affine_pairs(),
        spec=st.sampled_from(
            [("ppt", {}), ("ppt", dict(subsystem=1)), ("vb", {}), ("lb", {})]
            + [("hw", dict(m=1, normalization=n)) for n in ("standard", "rescaled")]
            + [("isc", dict(m=2))]
        ),
        alpha=st.floats(0, 2),
        beta=st.floats(0, 2),
    )
    def test_grid_values_are_convex(self, fam, spec, alpha, beta):
        criterion, params = spec
        if criterion in ("hw", "isc"):
            params = dict(params, alpha=alpha, beta=beta)
        check = make_check(criterion, **params)
        (l0, bound), (l1, _) = (check.linear(rho) for rho in fam.endpoints)
        x = np.linspace(0.0, 1.0, 65).reshape(-1, *(1,) * l0.ndim)
        judged = check.judge(x * l1 + (1 - x) * l0, bound)
        f = judged.values[:, 0]
        scale = max(1.0, float(np.abs(f).max()))
        assert np.all(f[:-2] - 2 * f[1:-1] + f[2:] >= -1e-12 * scale)
        pattern = "".join("E" if flag else "I" for flag in judged.entangled)
        assert re.fullmatch("E*I*E*", pattern), pattern


def exhaustive_scan(family, check, grid_points=256, tol=1e-6):
    """An affine scan that judges every coarse-grid point, in one stack, before the same bisection."""
    (l0, bound), (l1, _) = (check.linear(rho) for rho in family.endpoints)

    def judge(xs):
        x = np.array(xs).reshape(-1, *(1,) * l0.ndim)
        return check.judge(x * l1 + (1 - x) * l0, bound)

    xs = [i / (grid_points - 1) for i in range(grid_points)]
    grid = judge(xs)
    flags, first, evaluations = grid.entangled.tolist(), grid.verdict(0), grid_points
    changes = sum(flags[i] != flags[i - 1] for i in range(1, grid_points))
    onset = next((i for i in range(1, grid_points) if flags[i] and not flags[i - 1]), None)
    threshold, width = (0.0 if flags[0] else None), 0.0
    if onset is not None and not flags[0]:
        lo, hi = xs[onset - 1], xs[onset]
        while hi - lo > tol:
            mid, evaluations = 0.5 * (lo + hi), evaluations + 1
            lo, hi = (lo, mid) if judge([mid]).entangled[0] else (mid, hi)
        threshold, width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return analysis.ThresholdResult(
        first.criterion, first.params, family.describe(), threshold, width, evaluations, changes
    )


ORACLE_GRIDS = (16, 17, 100, 256, 257)
ORACLE_TOLS = (1e-6, 1e-8)


def bell_family(noise=0.0, weight=1.0):
    """Phi+ -> weight Psi+ + (1 - weight) Phi+, each mixed with white noise; ppt reads max(q) - 1/2 along it,
    where q are the two Bell weights, so it is INCONCLUSIVE on |x - 1/(2 weight)| <= noise / (4 weight (1 - noise))."""
    phi, psi = np.zeros(4), np.zeros(4)
    phi[[0, 3]] = psi[[1, 2]] = 1 / np.sqrt(2)
    bell = [np.outer(v, v) for v in (phi, psi)]
    ends = (bell[0], weight * bell[1] + (1 - weight) * bell[0])
    ends = [DensityMatrix((1 - noise) * e + noise * np.eye(4) / 4, (2, 2)) for e in ends]
    return StateFamily("bell", endpoints=ends)


class TestCertifiedGrid:
    """An affine scan decides most coarse-grid points from judged samples by convexity; the result is the one
    judging every point gives, field for field."""

    @pytest.mark.parametrize("criterion,params", SCAN_SPECS)
    def test_every_spec_matches_the_exhaustive_scan(self, criterion, params):
        check = make_check(criterion, **params)
        for fam in [fam for fam, _ in SCAN_FAMILIES] + [bell_family(0.0273, 0.6)]:
            for grid in ORACLE_GRIDS:
                for tol in ORACLE_TOLS:
                    assert repr(scan_threshold(fam, check, grid, tol)) == repr(exhaustive_scan(fam, check, grid, tol))

    @settings(deadline=None, max_examples=60)
    @given(
        fam=affine_pairs(TWO_PARTY + ((2, 2, 2),)),
        spec=st.sampled_from(SCAN_SPECS),
        alphas=st.tuples(*[st.floats(0, 2)] * 3),
        m=st.integers(1, 3),
    )
    def test_random_pairs_match_the_exhaustive_scan(self, fam, spec, alphas, m):
        criterion, params = spec
        if len(fam.endpoints[0].dims) == 3:  # three qubits: thm2 on every bipartition
            criterion, params = "thm2", dict(alphas=alphas, m=m)
        check = make_check(criterion, **params)
        for grid in ORACLE_GRIDS:
            for tol in ORACLE_TOLS:
                assert repr(scan_threshold(fam, check, grid, tol)) == repr(exhaustive_scan(fam, check, grid, tol))

    def test_the_one_inconclusive_point_of_a_bell_mixture_is_judged(self, monkeypatch):
        fam, check = bell_family(), make_check("ppt")
        judged = []
        monkeypatch.setattr(criteria, "eig_hermitian", lambda stack: judged.extend(stack) or eig_hermitian(stack))
        res = scan_threshold(fam, check, grid_points=257)
        monkeypatch.undo()
        assert 0 < len(judged) < 257
        (l0, _), (l1, _) = (check.linear(rho) for rho in fam.endpoints)
        middle = 0.5 * l1 + (1 - 0.5) * l0  # x = 0.5, grid point 128
        assert any(np.array_equal(image, middle) for image in judged)
        assert not check.judge(middle[None], 0.0).entangled[0]
        assert repr(res) == repr(exhaustive_scan(fam, check, 257))
        assert res.sign_changes == 2 and res.threshold == 0.0

    def test_values_on_the_bound(self):
        # ppt along a mixture of two pure products, and hw along one pure product: every value on the bound
        ends = [product([random_pure(2, 2 * seed), random_pure(3, 2 * seed + 1)]) for seed in (1, 2)]
        products = StateFamily("products", endpoints=ends)
        one = StateFamily("one-product", endpoints=[PURE_PRODUCTS_5X7[0]] * 2)
        cases = [(products, make_check("ppt", subsystem=s)) for s in (1, 2)] + [
            (one, make_check("hw", alpha=a, beta=b, m=1, normalization=n))
            for a, b in ((2.0, 3.0), (2e4, 3e4))
            for n in ("standard", "rescaled")
        ]
        for fam, check in cases:
            (l0, bound), (l1, _) = (check.linear(rho) for rho in fam.endpoints)
            x = np.linspace(0.0, 1.0, 33).reshape(-1, *(1,) * l0.ndim)
            values = check.judge(x * l1 + (1 - x) * l0, bound).values
            assert np.allclose(values, bound, rtol=1e-12, atol=1e-14)
            for grid in ORACLE_GRIDS:
                res = scan_threshold(fam, check, grid)
                assert repr(res) == repr(exhaustive_scan(fam, check, grid))
                assert res.threshold is None and res.sign_changes == 0

    @pytest.mark.parametrize("past", [5e-10, 1e-9])
    def test_values_at_the_margin(self, past):
        # a Werner state with lambda_min(rho^PT) = -past at both ends: ppt reads past, inside or on the margin's floor
        phi = np.zeros(4)
        phi[[0, 3]] = 1 / np.sqrt(2)
        p = (1 + 4 * past) / 3
        rho = DensityMatrix(p * np.outer(phi, phi) + (1 - p) * np.eye(4) / 4, (2, 2))
        fam, check = StateFamily("werner", endpoints=(rho, rho)), make_check("ppt")
        for grid in ORACLE_GRIDS:
            assert repr(scan_threshold(fam, check, grid)) == repr(exhaustive_scan(fam, check, grid))

    def test_paper_scan_judges_few_images(self, monkeypatch):
        judged = []
        monkeypatch.setattr(criteria, "trace_norm", lambda stack: judged.append(len(stack)) or trace_norm(stack))
        res = scan_threshold(FAMILY, HW_CHECK)
        assert res.evaluations == 256 + 12  # grid points decided plus bisection steps, as when all were judged
        assert sum(judged) <= 20 and len(judged) <= 3

    def test_ppt_crossing_the_margin_floor_is_bisected_by_judging(self, monkeypatch):
        # Werner states with -lambda_min(rho^PT) = (3p - 1)/4 from 0 to 2.7e-9: the floor of 1e-9 is crossed at
        # x = 0.37, inside grid cell 94 of 256; within 3 delta of the floor the bisection's midpoints must be judged
        phi = np.zeros(4)
        phi[[0, 3]] = 1 / np.sqrt(2)
        ends = [(1 + 4 * top) / 3 * np.outer(phi, phi) + (2 - 4 * top) / 3 * np.eye(4) / 4 for top in (0.0, 2.7e-9)]
        fam, check = StateFamily("werner", endpoints=[DensityMatrix(e, (2, 2)) for e in ends]), make_check("ppt")
        judged = []
        monkeypatch.setattr(criteria, "eig_hermitian", lambda stack: judged.append(len(stack)) or eig_hermitian(stack))
        res = scan_threshold(fam, check, tol=1e-8)
        monkeypatch.undo()
        assert judged.count(1) >= 5  # midpoints at the floor, judged as stacks of one
        assert 94 / 255 < res.threshold < 95 / 255 and res.evaluations > 256 + 16
        for grid in ORACLE_GRIDS:
            assert repr(scan_threshold(fam, check, grid, 1e-8)) == repr(exhaustive_scan(fam, check, grid, 1e-8))

    def test_generator_only_family_judges_every_midpoint(self, monkeypatch):
        judged = []
        monkeypatch.setattr(criteria, "trace_norm", lambda stack: judged.append(len(stack)) or trace_norm(stack))
        res = scan_threshold(generator_copy(FAMILY), HW_CHECK, tol=1e-8)
        monkeypatch.undo()
        assert judged == [256] + [1] * (res.evaluations - 256)  # the whole grid, then one image per bisection step
        assert res == scan_threshold(FAMILY, HW_CHECK, tol=1e-8)


class TestOptimizeParams:
    def test_pure_product_never_violates(self):
        rho = product([random_pure(2, 9), random_pure(4, 10)])
        res = optimize_params(rho, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [1, 2])
        assert res.violation <= 1e-9

    def test_bell_violation_at_origin(self):
        res = optimize_params(ghz(2), [0.0, 0.7], [0.0, 0.7], [1])
        assert res.violation >= 2.0 - 1e-9  # ||T|| - bound = 3 - 1 at alpha=beta=0

    def test_family_point_inside_detection_range(self):
        rho = FAMILY.state(0.25)
        res = optimize_params(rho, [0.5], [np.sqrt(2 / 11)], [1])
        assert res.violation > 0

    def test_tie_break_prefers_smallest_parameters(self):
        # maximally mixed 2x2: violation is exactly -1.0 at both
        # (alpha, beta) = (0, 0) and (0.5, 0.5) for m = 1
        from hwsep import DensityMatrix

        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        res = optimize_params(rho, [0.0, 0.5], [0.0, 0.5], [1])
        assert (res.m, res.alpha, res.beta) == (1, 0.0, 0.0)

    def test_tie_break_at_equal_scaled_weights(self):
        # sqrt(8) * (1.4, 0.6) == sqrt(32) * (0.7, 0.3): the same S and the same
        # bound, so the exact tie goes to the smaller m
        rho = horodecki_mix_family(0.8615526620128123).state(0.42994869204783537)
        res = optimize_params(rho, [0.7, 1.4], [0.3, 0.6], [8, 32], "rescaled")
        assert (res.alpha, res.beta, res.m) == (1.4, 0.6, 8)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            optimize_params(ghz(2), [], [1.0], [1])

    def test_m_range_takes_whole_numbers_only(self):
        for m in (1.5, -1, np.nan, np.inf, True, 10**400):
            with pytest.raises(ValidationError):
                optimize_params(ghz(2), [0.5], [0.5], [1, m])
        for m_range in (3, None, 2.0):
            with pytest.raises(ValidationError, match="m_range"):
                optimize_params(ghz(2), [0.5], [0.5], m_range)
        whole = optimize_params(ghz(2), [0.5], [0.5], [2.0])
        assert whole == optimize_params(ghz(2), [0.5], [0.5], [2])
        assert type(whole.m) is int


def reference_optimize(rho, alpha_grid, beta_grid, m_range, normalization="standard"):
    """The grid search one cell at a time, keeping strict improvements only."""
    best = None
    for m in sorted(m_range):
        for alpha in sorted(alpha_grid):
            for beta in sorted(beta_grid):
                s, bound = make_check("hw", alpha=alpha, beta=beta, m=m, normalization=normalization).linear(rho)
                value = trace_norm(s)
                if best is None or value - bound > best.violation:
                    best = analysis.OptimizeResult(alpha, beta, m, value, bound, normalization)
    return best


def bitwise(res):
    """Every field of an OptimizeResult with its type and all its bits (repr tells -0.0 and np.float64 apart)."""
    return [repr(value) for value in dataclasses.astuple(res)]


def optimize_cases():
    """Seeded states on 2x2, 2x4, 3x3 and 3x5, each with a seeded grid that repeats values."""
    rng = np.random.default_rng(77)
    for d1, d2 in ((2, 2), (2, 4), (3, 3), (3, 5)):
        for seed in (1, 2):
            rho = DensityMatrix(random_density(d1 * d2, 100 * d1 + 10 * d2 + seed).matrix, (d1, d2))
            alphas = [float(a) for a in rng.uniform(0, 2, 4)] + [0.0, 1.0, 1.0]
            betas = [float(b) for b in rng.uniform(0, 2, 3)] + [0.5, 0.0, 0.5]
            yield pytest.param(rho, alphas, betas, id=f"{d1}x{d2}-{seed}")
    rho = horodecki_mix_family(0.8615526620128123).state(0.42994869204783537)
    yield pytest.param(rho, [0.7, 1.4, 0.7], [0.3, 0.6], id="equal-scaled-weights")  # ties m = 8 with m = 32
    yield pytest.param(ghz(2), [0.0, 0.7], [0.7, 0.0, 0.0], id="bell")
    yield pytest.param(FAMILY.state(0.25), [0.5, 0.0], [float(np.sqrt(2 / 11)), 0.0], id="family")
    rho = DensityMatrix(random_density(8, 28).matrix, (2, 4))
    yield pytest.param(rho, [-0.0, 0.5, 0.0, 0.5, -0.0], [0.0, -0.0, 1.0, 0.0], id="signed-zeros")  # with repeats
    yield pytest.param(ghz(2), [0.0, -0.0], [-0.0, 0.0], id="signed-zeros-only")


M_RANGES = [(0,), (1, 2, 4, 8, 16, 32), (32, 3, 0, 8, 8, 1), (3, 10**20, 2**64 + 1)]  # the last past int64


class TestStackedOptimize:
    """optimize_params judges stacks of cells and gives the per-cell search's result, bit for bit."""

    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    @pytest.mark.parametrize("rho,alphas,betas", list(optimize_cases()))
    def test_matches_the_per_cell_search(self, rho, alphas, betas, normalization):
        for m_range in M_RANGES:
            got = optimize_params(rho, alphas, betas, m_range, normalization)
            assert bitwise(got) == bitwise(reference_optimize(rho, alphas, betas, m_range, normalization))

    @pytest.mark.parametrize("elems", [1, 3 * 64 + 1, 5 * 64])
    def test_chunked_stacks_give_the_same_result(self, monkeypatch, elems):
        cases = [(*case.values, range(33), norm) for case in optimize_cases() for norm in ("standard", "rescaled")]
        whole = [optimize_params(*case) for case in cases]
        monkeypatch.setattr(analysis, "_STACK_ELEMS", elems)  # one, three or five 2x4 cells per stack
        for case, res in zip(cases, whole):
            assert bitwise(optimize_params(*case)) == bitwise(res)

    @pytest.mark.parametrize(
        "grid", [[math.nan, 1.0], [1.0, math.inf], [-math.inf], [0.5, -0.1], ["0.5"], [0.5, None], 0.5, [0.5, True]]
    )
    def test_grids_are_read_as_weights(self, grid):
        for alphas, betas in ((grid, [0.5]), ([0.5], grid)):
            with pytest.raises(ValidationError, match="weights"):
                optimize_params(ghz(2), alphas, betas, [1])


WEIGHTED = bloch.weighted


def record_pairs(monkeypatch) -> list:
    """Per stack that optimize_params weights, its scaled pairs (beta', alpha') by repr, so -0.0 and 0.0 differ."""
    stacks = []

    def record(stack, weights):
        stacks.append([(repr(float(b)), repr(float(a))) for b, a in zip(*map(np.ravel, weights))])
        return WEIGHTED(stack, weights)

    monkeypatch.setattr(bloch, "weighted", record)
    return stacks


def judged_once(stacks) -> bool:
    """No scaled pair is judged twice: not in two stacks, not twice in one."""
    return len({pair for stack in stacks for pair in stack}) == sum(map(len, stacks))


class TestDistinctPairs:
    """optimize_params judges each distinct scaled pair (sqrt(m) beta, sqrt(m) alpha) at most once, and only the
    pairs its upper bound cannot rule out."""

    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    @pytest.mark.parametrize("rho,alphas,betas", list(optimize_cases()))
    def test_no_pair_is_judged_twice(self, monkeypatch, rho, alphas, betas, normalization):
        for m_range in M_RANGES:
            stacks = record_pairs(monkeypatch)
            optimize_params(rho, alphas, betas, m_range, normalization)
            assert stacks and judged_once(stacks)

    # the default 16x16 grids have 1279 and 766 distinct pairs, each of which the exhaustive search judged
    @pytest.mark.parametrize("m_range,pairs", [("1,2,4,8,16,32", 57), ("1,2,3", 42)])
    def test_default_grids_judge_few_pairs(self, tmp_path, capsys, monkeypatch, m_range, pairs):
        stacks = record_pairs(monkeypatch)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cli.state_to_json(FAMILY.state(0.25))))
        assert cli.run(["optimize", "--state", str(path), "--m-range", m_range]) == 0
        assert judged_once(stacks) and sum(map(len, stacks)) == pairs
        assert json.loads(capsys.readouterr().out)["m"] in (1, 2, 3, 4, 8, 16, 32)

    def test_signed_zeros_are_judged_apart(self, monkeypatch):
        # on a Bell state (x, 0.0) and (x, -0.0) tie, so the first maximum, alphas[0], needs both judged: the first
        # stack holds one pair and the bound leaves the other open, so each signed zero takes a stack of its own;
        # with m = 16 as well, the bound rules m = 16's pairs out
        for alphas in ([-0.0, 0.0], [0.0, -0.0]):
            for m_range, count in (([1], 2), ([1, 16], 2)):
                stacks = record_pairs(monkeypatch)
                res = optimize_params(ghz(2), alphas, [0.5], m_range)
                assert judged_once(stacks) and len(stacks) == count
                assert sorted(pair for stack in stacks for pair in stack) == [("0.5", "-0.0"), ("0.5", "0.0")]
                assert repr(res.alpha) == repr(alphas[0])
                assert bitwise(res) == bitwise(reference_optimize(ghz(2), alphas, [0.5], m_range))


def isotropic(d, p):
    """p |phi+><phi+| + (1 - p) I / d^2 on d x d: both marginals are maximally mixed, so r = s = 0."""
    phi = np.eye(d).ravel() / np.sqrt(d)
    return DensityMatrix(p * np.outer(phi, phi) + (1 - p) * np.eye(d * d) / d**2, (d, d))


def werner(d, p):
    """p times the normalized antisymmetric projector plus (1 - p) I / d^2 on d x d, with r = s = 0."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return DensityMatrix(p * (np.eye(d * d) - swap) / (d * (d - 1)) + (1 - p) * np.eye(d * d) / d**2, (d, d))


SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
# weights with repeats and signed zeros
WEIGHTS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 3)


@st.composite
def bounded_search_cases(draw):
    """(rho, alphas, betas, m_range, normalization); Bell, isotropic and Werner states have r = s = 0, where the
    upper bound is the trace norm and only its slack tells cells apart."""
    kind = draw(st.sampled_from(["bell", "isotropic", "werner", "pure-product", "separable", "full-rank"]))
    dims, seed, p = draw(st.sampled_from(SHAPES)), draw(st.integers(0, 2**16)), draw(st.floats(0, 1))
    rho = {
        "bell": lambda: ghz(2),
        "isotropic": lambda: isotropic(dims[0], p),
        "werner": lambda: werner(dims[0], p),
        "pure-product": lambda: product([random_pure(dims[0], seed), random_pure(dims[1], seed + 1)]),
        "separable": lambda: random_separable(dims, draw(st.integers(1, 3)), seed)[1],  # rank-deficient
        "full-rank": lambda: DensityMatrix(random_density(math.prod(dims), seed).matrix, dims),
    }[kind]()
    grids = [draw(st.lists(WEIGHTS, min_size=1, max_size=4)) for _ in range(2)]
    m_range = draw(st.just((0,)) | st.lists(st.integers(1, 32) | st.just(10**20), min_size=1, max_size=3))
    normalization = draw(st.sampled_from(["standard", "rescaled"]))
    return rho, *grids, m_range, normalization


EDGE_CASES = [  # weights near the bound's refusal edge, and m past int64
    (ghz(2), [1e150, 1e-300, 0.0], [1e-300, -0.0], [1]),
    (random_separable((2, 3), 2, 5)[1], [1e-300], [1e150, 1e-300], [1, 4]),
    (random_separable((2, 3), 2, 5)[1], [1e140, 1e-300, 0.0], [1e140, 0.0], [1, 2**64 + 1]),
    (ghz(2), [math.sqrt(np.finfo(float).max), 0.0], [math.sqrt(np.finfo(float).max), 1.0], [1]),
]


class TestBoundedSearch:
    """optimize_params' pruned search against the per-cell search, and its upper bound against the trace norm."""

    @settings(max_examples=60, deadline=None)
    @given(bounded_search_cases())
    def test_matches_the_per_cell_search(self, case):
        rho, alphas, betas, m_range, normalization = case
        got = optimize_params(rho, alphas, betas, m_range, normalization)
        assert bitwise(got) == bitwise(reference_optimize(rho, alphas, betas, m_range, normalization))

    @settings(max_examples=60, deadline=None)
    @given(bounded_search_cases())
    def test_trace_norm_within_the_ceiling(self, case):
        rho, alphas, betas, m_range, normalization = case
        dec = bloch.decompose_bipartite(rho, normalization)
        for m in m_range:
            for alpha in alphas:
                for beta in betas:
                    s, _ = make_check("hw", alpha=alpha, beta=beta, m=m, normalization=normalization).linear(rho)
                    root = math.sqrt(m)
                    (upper,), (ceiling,) = analysis._upper_bound(dec, np.array([root * beta]), np.array([root * alpha]))
                    # the trace norm passes |S_00| + ||T||_tr, so upper is within the cross term, 0 when r = s = 0
                    cross = root * beta * dec.s.norm + root * alpha * dec.r.norm
                    assert upper - (ceiling - upper) - cross <= trace_norm(s) <= ceiling

    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    @pytest.mark.parametrize("rho,alphas,betas,m_range", EDGE_CASES)
    def test_no_warning_near_float_range(self, rho, alphas, betas, m_range, normalization):
        # pytest turns warnings into errors, so an overflow or invalid value in the bound fails here
        got = optimize_params(rho, alphas, betas, m_range, normalization)
        assert bitwise(got) == bitwise(reference_optimize(rho, alphas, betas, m_range, normalization))


# Pure products of 5x7 at (alpha, beta) = (2, 3), m = 1, sit exactly on the bound (the S matrix has rank
# one), so only rounding decides them.  On these 20 states, sum(sqrt(eigvalsh(S S^T))) came out up to
# 4.9e-7 (standard) and 1.2e-6 (rescaled) above the bound, where the margin is 1e-9: a false ENTANGLED.
# The SVD stayed within 2.2e-14 of the bound.  Any future trace-norm shortcut must pass these tests.
PURE_PRODUCTS_5X7 = [product([random_pure(5, 2 * seed), random_pure(7, 2 * seed + 1)]) for seed in range(20)]


def gram_trace_norm(stack):
    """The pitfall: a trace norm from the eigenvalues of the Gram matrices S S^T."""
    gram = np.linalg.eigvalsh(stack @ np.swapaxes(stack, -1, -2))
    return np.sqrt(np.clip(gram, 0.0, None)).sum(axis=-1)


def pure_product_outcomes(normalization):
    """Per state: check_theorem1's verdict at (2, 3, 1), and whether optimize_params' best cell violates."""
    for rho in PURE_PRODUCTS_5X7:
        verdict = check_theorem1(rho, 2.0, 3.0, 1, normalization)
        res = optimize_params(rho, [0.5, 2.0], [3.0, 1.0], [1], normalization)
        yield verdict, res, criteria._violates(res.value, res.bound, 25 + 49)  # S is 25 x 49


class TestTraceNormOnTheBound:
    @pytest.mark.parametrize("normalization", ["standard", "rescaled"])
    def test_pure_products_stay_inconclusive(self, normalization):
        for verdict, res, violates in pure_product_outcomes(normalization):
            assert verdict.verdict == criteria.INCONCLUSIVE
            assert not criteria._violates(verdict.value, verdict.bound, 25 + 49)
            assert not violates, res

    def test_a_gram_trace_norm_fails_it(self, monkeypatch):
        monkeypatch.setattr(criteria, "trace_norm", gram_trace_norm)
        monkeypatch.setattr(analysis, "trace_norm", gram_trace_norm)
        outcomes = list(pure_product_outcomes("standard"))
        assert any(verdict.entangled for verdict, _, _ in outcomes)
        assert any(violates for _, _, violates in outcomes)


class TestCompare:
    SPECS = [
        {"criterion": "hw", "alpha": 0.5, "beta": np.sqrt(2 / 11), "m": 1},
        {"criterion": "vb"},
        {"criterion": "isc", "alpha": 0.5, "beta": np.sqrt(2 / 11), "m": 1},
        {"criterion": "lb"},
    ]

    def test_family_threshold_ordering(self):
        report = compare(FAMILY, self.SPECS, grid_points=64)
        by_name = {row.criterion: row.threshold for row in report.rows}
        assert by_name["hw"] < by_name["vb"] < by_name["isc"] < by_name["lb"]

    def test_bell_all_entangled(self):
        report = compare(ghz(2), self.SPECS + [{"criterion": "ppt"}])
        assert [row.verdict for row in report.rows] == ["ENTANGLED"] * 5

    def test_separable_all_inconclusive(self):
        _, rho = random_separable((2, 4), 12, 8)
        report = compare(rho, self.SPECS + [{"criterion": "ppt"}])
        assert all(row.verdict == "INCONCLUSIVE" for row in report.rows)

    def test_csv_shape(self):
        report = compare(ghz(2), self.SPECS)
        lines = report.to_csv().strip().splitlines()
        assert lines[0].split(",") == [
            "criterion", "alpha", "beta", "m", "normalization",
            "threshold", "value", "bound", "verdict",
        ]
        assert len(lines) == 1 + len(self.SPECS)

    def test_requires_specs(self):
        with pytest.raises(ValidationError):
            compare(ghz(2), [])

    @pytest.mark.parametrize("spec", [{"alpha": 1}, "vb", None, ["vb"], {"criterion": "vb", 1: 2}])
    def test_malformed_spec_is_a_validation_error(self, spec):
        for subject in (ghz(2), FAMILY):
            with pytest.raises(ValidationError, match=re.escape(repr(spec))):
                compare(subject, [{"criterion": "vb"}, spec])


def test_make_check_unknown_name():
    with pytest.raises(ValidationError):
        make_check("nope")


@pytest.mark.parametrize(
    "criterion,params,named",
    [
        ("hw", dict(alpha=0.5, beta=0.4), "'m'"),
        ("isc", dict(alpha=0.5, m=1), "'beta'"),
        ("thm2", dict(alphas=(1, 1)), "'m'"),
        ("thm2", dict(m=1), "'alphas'"),
        ("hw", dict(alpha=0.5, beta=0.4, m=1, normalisation="rescaled"), "'normalisation'"),
        ("vb", dict(alpha=5), "'alpha'"),
        ("lb", dict(normalization="standard"), "'normalization'"),
        ("isc", dict(alpha=0.5, beta=0.4, m=1, normalization="rescaled"), "'normalization'"),
        ("ppt", dict(alpha=1), "'alpha'"),
        ("thm2", dict(alphas=(1, 1), m=1, partition=[1]), "'partition'"),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=5), "partitions must be a list of party-index lists"),
    ],
)
def test_make_check_names_missing_or_unknown_parameters(criterion, params, named):
    with pytest.raises(ValidationError, match=named):
        make_check(criterion, **params)


@pytest.mark.parametrize(
    "criterion,params,reported",
    [
        ("thm2", dict(alphas="11", m=1), None),
        ("thm2", dict(alphas=None, m=1), None),
        ("thm2", dict(alphas=5, m=1), None),
        ("thm2", dict(alphas=["a", "b"], m=1), None),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[[1.5]]), None),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[1]), None),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[[1, "a"]]), None),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[[0]]), None),
        ("thm2", dict(alphas=(1, np.nan), m=1), None),
        ("hw", dict(alpha="x", beta=0.4, m=1), None),
        ("hw", dict(alpha=None, beta=0.4, m=1), None),
        ("hw", dict(alpha="0.5", beta=0.4, m=1), None),
        ("isc", dict(alpha=0.5, beta=-1.0, m=1), None),
        ("hw", dict(alpha=0.5, beta=0.4, m=1, normalization="gell-mann"), None),
        ("ppt", dict(subsystem=3), None),
        ("ppt", dict(subsystem=1.5), None),
        ("ppt", dict(subsystem="1"), None),
        ("ppt", dict(subsystem=None), None),
        # whole numbers of any type are taken and reported as ints, as m is
        ("ppt", dict(subsystem=2.0), {"subsystem": 2}),
        ("ppt", dict(subsystem=np.int64(1)), {"subsystem": 1}),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[[2.0, np.int64(2)]]), {"partition": [2]}),
        # a bool is not a number, though True == 1
        ("hw", dict(alpha=True, beta=0.4, m=1), None),
        ("hw", dict(alpha=0.5, beta=False, m=1), None),
        ("hw", dict(alpha=0.5, beta=0.4, m=True), None),
        ("thm2", dict(alphas=(1, True), m=1), None),
        ("thm2", dict(alphas=(1, 1), m=1, partitions=[[True]]), None),
        ("ppt", dict(subsystem=True), None),
    ],
)
def test_make_check_parses_every_parameter_when_it_binds(criterion, params, reported):
    if reported is None:
        with pytest.raises(ValidationError):
            make_check(criterion, **params)
        return
    v = make_check(criterion, **params)(ghz(2))
    for key, value in reported.items():
        assert v.params[key] == value
        assert json.dumps(v.params[key]) == json.dumps(value)


def test_make_check_accepts_every_optional_parameter():
    hw = make_check("hw", alpha=0.5, beta=0.4, m=1, normalization="rescaled")(FAMILY.state(0.4))
    assert hw.params["normalization"] == "rescaled"
    assert make_check("ppt", subsystem=1)(ghz(2)).params == {"subsystem": 1}
    v = make_check("thm2", alphas=(1, 1, 1), m=1, partitions=[(1, 3)], normalization="rescaled")(ghz(3))
    assert v.params["partition"] == [1, 3]
    assert v.params["normalization"] == "rescaled"


@pytest.mark.parametrize("m", [1.5, 0.5, np.nan, np.inf, -np.inf, -1, "1", True, np.True_, 10**400])
def test_m_must_be_a_finite_whole_number(m):
    from hwsep import check_theorem1, check_theorem2

    with pytest.raises(ValidationError, match="whole number"):
        make_check("hw", alpha=1, beta=1, m=m)(ghz(2))
    with pytest.raises(ValidationError, match="whole number"):
        check_theorem1(ghz(2), 1, 1, m)
    with pytest.raises(ValidationError, match="whole number"):
        check_theorem2(ghz(3), (1, 1, 1), m)


def test_whole_float_m_reports_an_integer():
    from hwsep import check_theorem2

    v = make_check("hw", alpha=1, beta=1, m=2.0)(ghz(2))
    assert v == make_check("hw", alpha=1, beta=1, m=2)(ghz(2))
    assert type(v.params["m"]) is int
    (w,) = check_theorem2(ghz(3), (1, 1, 1), 2.0, partitions=[(1,)])
    assert w == check_theorem2(ghz(3), (1, 1, 1), 2, partitions=[(1,)])[0]


def test_hw_rescaled_equals_isc():
    rho = FAMILY.state(0.4)
    hw = make_check("hw", alpha=0.7, beta=0.3, m=2, normalization="rescaled")(rho)
    isc = make_check("isc", alpha=0.7, beta=0.3, m=2)(rho)
    assert hw.value == isc.value
    assert hw.bound == isc.bound


def test_make_check_thm2_reports_worst_partition():
    check = make_check("thm2", alphas=(1.0, 1.0, 1.0), m=1)
    v = check(ghz(3))
    assert v.criterion == "thm2"
    assert v.entangled
