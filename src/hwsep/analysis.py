"""Threshold scans, parameter grid search and multi-criterion comparisons.

A scan walks a one-parameter family rho_x, evaluates f(x) = value - bound
for a fixed criterion on a uniform grid, brackets the first sign change and
bisects it down to the requested tolerance.  The reported threshold is the
onset of violation: the criterion certifies entanglement for x above it.

An affine family (``StateFamily`` with endpoints rho0, rho1) is scanned on
the check's linear images L0, L1 of its two endpoints: the state at x has
the image (1-x) L0 + x L1, so the coarse grid is one stacked judgement and
each bisection step one more, with no state built or validated per point.
A generator-only family is scanned point by point.  The two paths compute
the same values up to rounding, so they make the same verdicts,
evaluations and sign changes unless a point lies within rounding of the
margin.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import bloch, criteria
from .criteria import CriterionVerdict
from .errors import ValidationError
from .linalg import DensityMatrix, trace_norm
from .states import StateFamily

CRITERIA = (*criteria.S_CRITERIA, "ppt", "thm2")

# (required, optional) parameter names and Check class of the criteria outside criteria.S_CRITERIA
_OTHER = {
    "ppt": ((), ("subsystem",), criteria.PPTCheck),
    "thm2": (("alphas", "m"), ("partitions", "normalization"), criteria.Theorem2Check),
}

# Largest number of array elements a scan stacks into one batch of images.
_STACK_ELEMS = 2**20


def make_check(criterion: str, **params) -> criteria.Check:
    """Bind a criterion name and parameters into a state -> verdict callable.

    Recognized names: the rows of ``criteria.S_CRITERIA`` (hw, isc, vb, lb),
    which take the row's free parameters (hw also an optional
    ``normalization``), plus ppt (optional ``subsystem``) and thm2.  ``thm2``
    takes ``alphas``/``m`` (and optional ``partitions`` and
    ``normalization``) and reports the most violated partition.  A missing
    or unknown parameter is a ValidationError.  The result is a
    ``criteria.Check``, which also judges a stack of the criterion's linear
    images of states; ``scan_threshold`` uses that on affine families.
    """
    row = criteria.S_CRITERIA.get(criterion)
    if row is not None:
        required, optional = row.free, ("normalization",) if row.normalization is None else ()
    elif criterion in _OTHER:
        required, optional, build = _OTHER[criterion]
    else:
        raise ValidationError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    missing = [key for key in required if key not in params]
    unknown = sorted(set(params) - set(required) - set(optional))
    if missing or unknown:
        raise ValidationError(f"criterion {criterion}: missing parameters {missing}, unknown {unknown}")
    if row is not None:
        return criteria.RowCheck(row, **row.parameters(params))
    return build(**params)


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


def _pointwise(family: StateFamily, check: Callable[[DensityMatrix], CriterionVerdict]):
    """xs -> (ENTANGLED flags, verdict at xs[0]), one state and one check per point."""

    def evaluate(xs):
        verdicts = [check(family.state(x)) for x in xs]
        return [v.entangled for v in verdicts], verdicts[0]

    return evaluate


def _affine(family: StateFamily, check: criteria.Check):
    """xs -> (ENTANGLED flags, verdict at xs[0]) on the images of the family's two endpoints.

    The image L is linear in rho, so the state (1-x) rho0 + x rho1 has the image
    (1-x) L0 + x L1; the points are judged as stacks of at most _STACK_ELEMS elements.
    """
    (image0, bound), (image1, _) = (check.linear(rho) for rho in family.endpoints)
    chunk = max(1, _STACK_ELEMS // image0.size)

    def evaluate(xs):
        flags, first = [], None
        for start in range(0, len(xs), chunk):
            x = np.array(xs[start : start + chunk]).reshape(-1, *(1,) * image0.ndim)
            judged = check.judge(x * image1 + (1 - x) * image0, bound)
            if first is None:
                first = judged.verdict(0)
            flags += judged.entangled.tolist()
        return flags, first

    return evaluate


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

    An affine family (one with endpoints) is scanned on the check's linear
    images of its two endpoints: the whole coarse grid is one stacked
    judgement, and no state is built per point.  A generator-only family,
    or a check that is not a ``criteria.Check``, is scanned point by point.
    """
    if not isinstance(grid_points, numbers.Integral) or grid_points < 16:
        raise ValidationError(f"grid_points must be an integer >= 16, got {grid_points!r}")
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise ValidationError(f"tol must be finite and >= 1e-8, got {tol}")

    if family.endpoints is not None and isinstance(check, criteria.Check):
        evaluate = _affine(family, check)
    else:
        evaluate = _pointwise(family, check)

    xs = [i / (grid_points - 1) for i in range(grid_points)]
    flags, first = evaluate(xs)
    evaluations = len(xs)
    changes = [i for i in range(1, len(xs)) if flags[i] != flags[i - 1]]

    def result(threshold: float | None, width: float) -> ThresholdResult:
        return ThresholdResult(
            first.criterion, first.params, family.describe(), threshold, width, evaluations, len(changes)
        )

    if flags[0]:
        # violated from the start of the family
        return result(0.0, 0.0)
    onset = next((i for i in changes if flags[i]), None)
    if onset is None:
        return result(None, 0.0)

    lo, hi = xs[onset - 1], xs[onset]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        (entangled,), _ = evaluate([mid])
        if entangled:
            hi = mid
        else:
            lo = mid
    return result(0.5 * (lo + hi), 0.5 * (hi - lo))


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
    m_range = sorted(criteria.check_m(m) for m in m_range)
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
