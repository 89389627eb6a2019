import numpy as np
import pytest

from hwsep import ValidationError, compare, make_check, optimize_params, scan_threshold
from hwsep.states import StateFamily, ghz, horodecki_mix_family, mix, product, random_pure, random_separable

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
        with pytest.raises(ValidationError):
            scan_threshold(FAMILY, HW_CHECK, tol=1e-9)


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


def test_make_check_unknown_name():
    with pytest.raises(ValidationError):
        make_check("nope")


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
