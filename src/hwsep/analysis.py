"""Threshold scans, parameter grid search and multi-criterion comparisons.

A scan walks a one-parameter family rho_x, evaluates f(x) = value - bound
for a fixed criterion on a uniform grid, brackets the first sign change and
bisects it down to the requested tolerance.  The reported threshold is the
onset of violation: the criterion certifies entanglement for x above it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from . import bloch, criteria
from .criteria import CriterionVerdict
from .errors import ValidationError
from .linalg import DensityMatrix, trace_norm
from .states import StateFamily

CRITERIA = (*criteria.S_CRITERIA, "ppt", "thm2")

# (required, optional) parameter names of the criteria outside criteria.S_CRITERIA
_OTHER_PARAMS = {"ppt": ((), ("subsystem",)), "thm2": (("alphas", "m"), ("partitions", "normalization"))}


def make_check(criterion: str, **params) -> Callable[[DensityMatrix], CriterionVerdict]:
    """Bind a criterion name and parameters into a state -> verdict callable.

    Recognized names: the rows of ``criteria.S_CRITERIA`` (hw, isc, vb, lb),
    which take the row's free parameters (hw also an optional
    ``normalization``), plus ppt (optional ``subsystem``) and thm2.  ``thm2``
    takes ``alphas``/``m`` (and optional ``partitions`` and
    ``normalization``) and reports the most violated partition.  A missing
    or unknown parameter is a ValidationError.
    """
    row = criteria.S_CRITERIA.get(criterion)
    if row is not None:
        required, optional = row.free, ("normalization",) if row.normalization is None else ()
    elif criterion in _OTHER_PARAMS:
        required, optional = _OTHER_PARAMS[criterion]
    else:
        raise ValidationError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    missing = [key for key in required if key not in params]
    unknown = sorted(set(params) - set(required) - set(optional))
    if missing or unknown:
        raise ValidationError(f"criterion {criterion}: missing parameters {missing}, unknown {unknown}")
    if row is not None:
        args = row.parameters(params)
        return lambda rho: row.check(rho, **args)
    if criterion == "ppt":
        return lambda rho: criteria.check_ppt(rho, **params)

    def worst_partition(rho: DensityMatrix) -> CriterionVerdict:
        verdicts = criteria.check_theorem2(rho, **params)
        return max(verdicts, key=lambda v: v.value - v.bound)

    return worst_partition


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
        return {**asdict(self), "non_monotone": self.non_monotone}


def scan_threshold(
    family: StateFamily,
    check: Callable[[DensityMatrix], CriterionVerdict],
    grid_points: int = 256,
    tol: float = 1e-6,
) -> ThresholdResult:
    """Locate the smallest x in [0, 1] at which ``check`` starts violating.

    The coarse grid records every change of the verdict (the count is
    reported, so a non-monotone family is flagged rather than silently
    truncated); the first change to ENTANGLED is then bisected until the
    bracket is narrower than ``tol``.  The returned threshold is the
    bracket midpoint and ``width`` its half-width.  "Violated" is the
    verdict itself, with its margin, so equality cases (pure product
    states) never register as detections through floating-point noise.
    """
    if grid_points < 16:
        raise ValidationError(f"grid_points must be >= 16, got {grid_points}")
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise ValidationError(f"tol must be finite and >= 1e-8, got {tol}")

    evaluations = 0

    def verdict(x: float) -> CriterionVerdict:
        nonlocal evaluations
        evaluations += 1
        return check(family.state(x))

    xs = [i / (grid_points - 1) for i in range(grid_points)]
    first = verdict(xs[0])
    label, params = first.criterion, first.params

    sign_changes = 0
    bracket = None
    prev_x, prev = xs[0], first.entangled
    for x in xs[1:]:
        now = verdict(x).entangled
        if prev != now:
            sign_changes += 1
            if bracket is None and now:
                bracket = (prev_x, x)
        prev_x, prev = x, now

    family_desc = family.describe()
    if first.entangled:
        # violated from the start of the family
        return ThresholdResult(label, params, family_desc, 0.0, 0.0, evaluations, sign_changes)
    if bracket is None:
        return ThresholdResult(label, params, family_desc, None, 0.0, evaluations, sign_changes)

    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if verdict(mid).entangled:
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
                s, bound = criteria._weighted(dec.tensor, dec.dims, (beta, alpha), m, normalization)
                value = trace_norm(s)
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
        return asdict(self)

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
