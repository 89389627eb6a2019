"""Threshold scans, parameter grid search and multi-criterion comparisons.

A scan walks a one-parameter family rho_x, evaluates f(x) = value - bound
for a fixed criterion on a uniform grid, brackets the first sign change and
bisects it down to the requested tolerance.  The reported threshold is the
onset of violation: the criterion certifies entanglement for x above it.

A scan judges stacks of the check's linear images of the family's
states.  An affine family (``StateFamily`` with endpoints rho0, rho1) makes
them from the images L0, L1 of its endpoints: the state at x has the image
(1-x) L0 + x L1, so no state is built or validated per point.  A
generator-only family makes them as the images of its states.  The two
give the same values up to rounding, so they make the same verdicts,
evaluations and sign changes unless a point lies within rounding of the
margin.  ``CRITERIA`` lists the names of ``criteria.REGISTRY``.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bloch, criteria
from .criteria import make_check
from .errors import ValidationError
from .linalg import DensityMatrix, trace_norm
from .states import StateFamily

CRITERIA = tuple(criteria.REGISTRY)

# Largest number of array elements a scan stacks into one batch of images.
_STACK_ELEMS = 2**20


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


def _image_source(family: StateFamily, check: criteria.Check):
    """(xs -> stack of the check's images of the family's states at xs, their bound, elements per image).

    The states of a generator-only family must keep the dims they have at x = 0.
    """
    if family.endpoints is not None:
        (image0, bound), (image1, _) = (check.linear(rho) for rho in family.endpoints)

        def images(xs):
            x = np.array(xs).reshape(-1, *(1,) * image0.ndim)
            return x * image1 + (1 - x) * image0

    else:
        rho0 = family.state(0.0)
        image0, bound = check.linear(rho0)

        def images(xs):
            states = [family.state(x) for x in xs]
            if any(rho.dims != rho0.dims for rho in states):
                raise ValidationError(f"family {family.name!r}: states change dims from {rho0.dims} at x = 0")
            return np.stack([check.linear(rho)[0] for rho in states])

    return images, bound, image0.size


def scan_threshold(
    family: StateFamily,
    check: criteria.Check,
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

    ``check`` is a ``criteria.Check``, as ``make_check`` returns.  Its images
    along the family (see the module docstring) are judged in stacks of at
    most _STACK_ELEMS elements, each bisection step as a stack of one.
    """
    if not isinstance(grid_points, numbers.Integral) or grid_points < 16:
        raise ValidationError(f"grid_points must be an integer >= 16, got {grid_points!r}")
    if not (math.isfinite(tol) and tol >= 1e-8):
        raise ValidationError(f"tol must be finite and >= 1e-8, got {tol}")
    if not isinstance(check, criteria.Check):
        raise ValidationError(f"check must be a criteria.Check, as make_check returns, got {check!r}")

    images, bound, size = _image_source(family, check)
    chunk = max(1, _STACK_ELEMS // size)

    def judged(xs) -> list[criteria.Judgement]:
        """The judgements of the images at xs, in stacks of at most _STACK_ELEMS elements."""
        return [check.judge(images(xs[start : start + chunk]), bound) for start in range(0, len(xs), chunk)]

    xs = [i / (grid_points - 1) for i in range(grid_points)]
    grid = judged(xs)
    first = grid[0].verdict(0)  # reports the criterion and its parameters
    flags = [flag for stack in grid for flag in stack.entangled.tolist()]
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
        (stack,) = judged([mid])
        if stack.entangled[0]:
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
    m_range = sorted(criteria.check_whole(m) for m in m_range)
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
    criterion's parameters, as ``make_check`` takes them; every spec is
    bound before any is run.  Families are scanned for thresholds; single
    states are checked directly.
    """
    checks = [make_check(**spec) for spec in specs]
    if not checks:
        raise ValidationError("compare requires at least one criterion spec")
    rows = []
    if isinstance(subject, StateFamily):
        for check in checks:
            res = scan_threshold(subject, check, grid_points, tol)
            rows.append(ComparisonRow(res.criterion, res.params, threshold=res.threshold))
        desc = subject.describe()
    else:
        for check in checks:
            v = check(subject)
            rows.append(ComparisonRow(v.criterion, v.params, value=v.value, bound=v.bound, verdict=v.verdict))
        desc = {"state": "inline", "dims": list(subject.dims)}
    return ComparisonReport(subject=desc, rows=tuple(rows))
