"""Threshold scans, parameter grid search and multi-criterion comparisons.

A scan walks a one-parameter family rho_x, evaluates f(x) = value - bound
for a fixed criterion on a uniform grid, brackets the first sign change and
bisects it down to the requested tolerance.  The reported threshold is the
onset of violation: the criterion certifies entanglement for x above it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable

from . import bloch, criteria
from .criteria import CriterionVerdict
from .errors import ValidationError
# trace_norm is unused here; perfbench's tracer self-test patches this binding.
from .linalg import DensityMatrix, trace_norm  # noqa: F401
from .states import StateFamily

CRITERIA = (*criteria.S_CRITERIA, "ppt", "thm2")


def make_check(criterion: str, **params) -> Callable[[DensityMatrix], CriterionVerdict]:
    """Bind a criterion name and parameters into a state -> verdict callable.

    Recognized names: the rows of ``criteria.S_CRITERIA`` (hw, isc, vb, lb),
    which take the row's free parameters (hw also an optional
    ``normalization``), plus ppt and thm2.  ``thm2`` takes ``alphas``/``m``
    (and optional ``partitions``) and reports the most violated partition.
    """
    row = criteria.S_CRITERIA.get(criterion)
    if row is not None:
        args = row.parameters(params)
        return lambda rho: row.check(rho, **args)
    if criterion == "ppt":
        subsystem = params.get("subsystem", 2)
        return lambda rho: criteria.check_ppt(rho, subsystem)
    if criterion == "thm2":
        alphas = params["alphas"]
        m = params["m"]
        partitions = params.get("partitions")
        normalization = params.get("normalization", "standard")

        def worst_partition(rho: DensityMatrix) -> CriterionVerdict:
            verdicts = criteria.check_theorem2(rho, alphas, m, partitions, normalization)
            return max(verdicts, key=lambda v: v.value - v.bound)

        return worst_partition
    raise ValidationError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")


@dataclass(frozen=True)
class ThresholdResult:
    """Violation onset of a criterion along a one-parameter family."""

    criterion: str
    params: dict
    family: dict
    threshold: float | None
    width: float
    evaluations: int
    sign_changes: int

    @property
    def non_monotone(self) -> bool:
        """More than one sign change seen on the coarse grid."""
        return self.sign_changes > 1

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "params": self.params,
            "family": self.family,
            "threshold": self.threshold,
            "width": self.width,
            "evaluations": self.evaluations,
            "sign_changes": self.sign_changes,
            "non_monotone": self.non_monotone,
        }


def scan_threshold(
    family: StateFamily,
    check: Callable[[DensityMatrix], CriterionVerdict],
    grid_points: int = 256,
    tol: float = 1e-6,
) -> ThresholdResult:
    """Locate the smallest x in [0, 1] at which ``check`` starts violating.

    The coarse grid records every crossing of f(x) = value - bound through
    the violation margin (the count is reported, so a non-monotone family
    is flagged rather than silently truncated); the first upward crossing
    is then bisected until the bracket is narrower than ``tol``.  The
    returned threshold is the bracket midpoint and ``width`` its
    half-width.  "Violated" uses the same margin as the verdict rule,
    value > bound + VIOLATION_EPS, so equality cases (pure product states)
    never register as detections through floating-point noise.
    """
    if grid_points < 16:
        raise ValidationError(f"grid_points must be >= 16, got {grid_points}")
    if tol < 1e-8:
        raise ValidationError(f"tol must be >= 1e-8, got {tol}")

    eps = criteria.VIOLATION_EPS
    evaluations = 0

    def f(x: float) -> tuple[float, CriterionVerdict]:
        nonlocal evaluations
        evaluations += 1
        v = check(family.state(x))
        return v.value - v.bound, v

    xs = [i / (grid_points - 1) for i in range(grid_points)]
    f0, first = f(xs[0])
    label, params = first.criterion, first.params

    sign_changes = 0
    bracket = None
    prev_x, prev_f = xs[0], f0
    for x in xs[1:]:
        fx, _ = f(x)
        if (prev_f <= eps) != (fx <= eps):
            sign_changes += 1
            if bracket is None and prev_f <= eps < fx:
                bracket = (prev_x, x)
        prev_x, prev_f = x, fx

    family_desc = family.describe()
    if f0 > eps:
        # violated from the start of the family
        return ThresholdResult(label, params, family_desc, 0.0, 0.0, evaluations, sign_changes)
    if bracket is None:
        return ThresholdResult(label, params, family_desc, None, 0.0, evaluations, sign_changes)

    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm, _ = f(mid)
        if fm > eps:
            hi = mid
        else:
            lo = mid
    threshold = 0.5 * (lo + hi)
    return ThresholdResult(label, params, family_desc, threshold, 0.5 * (hi - lo), evaluations, sign_changes)


@dataclass(frozen=True)
class OptimizeResult:
    alpha: float
    beta: float
    m: int
    value: float
    bound: float
    normalization: str

    @property
    def violation(self) -> float:
        return self.value - self.bound

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "m": self.m,
            "value": self.value,
            "bound": self.bound,
            "violation": self.violation,
            "normalization": self.normalization,
        }


def optimize_params(
    rho: DensityMatrix,
    alpha_grid,
    beta_grid,
    m_range,
    normalization: str = "standard",
) -> OptimizeResult:
    """Exhaustive grid search maximizing value - bound.

    Ties are broken toward smaller m, then smaller alpha, then smaller beta
    (the grids are swept in ascending order and only strict improvements are
    kept).
    """
    alpha_grid = sorted(float(a) for a in alpha_grid)
    beta_grid = sorted(float(b) for b in beta_grid)
    m_range = sorted(int(m) for m in m_range)
    if not alpha_grid or not beta_grid or not m_range:
        raise ValidationError("optimize_params requires nonempty grids")
    dec = bloch.decompose_bipartite(rho, normalization)
    best = None
    for m in m_range:
        for alpha in alpha_grid:
            for beta in beta_grid:
                value, bound = criteria._s_criterion(dec, alpha, beta, m, normalization)
                if best is None or value - bound > best.violation:
                    best = OptimizeResult(alpha, beta, m, value, bound, normalization)
    return best


@dataclass(frozen=True)
class ComparisonRow:
    criterion: str
    params: dict
    threshold: float | None = None
    value: float | None = None
    bound: float | None = None
    verdict: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    subject: dict
    rows: tuple[ComparisonRow, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "rows": [
                {
                    "criterion": row.criterion,
                    "params": row.params,
                    "threshold": row.threshold,
                    "value": row.value,
                    "bound": row.bound,
                    "verdict": row.verdict,
                }
                for row in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["criterion", "alpha", "beta", "m", "normalization", "threshold", "value", "bound", "verdict"]
        )
        for row in self.rows:
            p = row.params
            writer.writerow(
                [
                    row.criterion,
                    p.get("alpha", ""),
                    p.get("beta", ""),
                    p.get("m", ""),
                    p.get("normalization", ""),
                    "" if row.threshold is None else repr(row.threshold),
                    "" if row.value is None else repr(row.value),
                    "" if row.bound is None else repr(row.bound),
                    row.verdict or "",
                ]
            )
        return buf.getvalue()


def compare(subject, specs, grid_points: int = 256, tol: float = 1e-6) -> ComparisonReport:
    """Run several criteria against one family or one state.

    ``specs`` is a list of dicts, each with a "criterion" key plus that
    criterion's parameters.  Families are scanned for thresholds; single
    states are checked directly.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("compare requires at least one criterion spec")
    rows = []
    if isinstance(subject, StateFamily):
        for spec in specs:
            spec = dict(spec)
            check = make_check(spec.pop("criterion"), **spec)
            res = scan_threshold(subject, check, grid_points, tol)
            rows.append(ComparisonRow(res.criterion, res.params, threshold=res.threshold))
        desc = subject.describe()
    else:
        for spec in specs:
            spec = dict(spec)
            verdict = make_check(spec.pop("criterion"), **spec)(subject)
            rows.append(
                ComparisonRow(
                    verdict.criterion,
                    verdict.params,
                    value=verdict.value,
                    bound=verdict.bound,
                    verdict=verdict.verdict,
                )
            )
        desc = {"state": "inline", "dims": list(subject.dims)}
    return ComparisonReport(subject=desc, rows=tuple(rows))
