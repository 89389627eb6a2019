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

``optimize_params`` judges its whole (m, alpha, beta) grid the same way:
the state is decomposed once, and a cell's tensor depends only on its pair
(sqrt(m) beta, sqrt(m) alpha), so one tensor per distinct pair is judged in
stacks of at most _STACK_ELEMS elements; the best cell is the first maximum.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bloch, criteria
from .criteria import make_check
from .errors import ValidationError, check_weights, check_whole
from .linalg import DensityMatrix, trace_norm
from .states import StateFamily

CRITERIA = tuple(criteria.REGISTRY)

# Largest number of array elements a scan or a grid search stacks into one batch of images.
_STACK_ELEMS = 2**20


def _batches(count: int, size: int) -> list[slice]:
    """Slices of range(count) whose images of ``size`` elements make batches of at most _STACK_ELEMS elements."""
    step = max(1, _STACK_ELEMS // size)
    return [slice(start, start + step) for start in range(0, count, step)]


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

    The states of a generator-only family must keep the dims they have at x = 0,
    and its state at x = 0 is built once per scan.
    """
    if family.endpoints is not None:
        (image0, bound), (image1, _) = (check.linear(rho) for rho in family.endpoints)

        def images(xs):
            x = np.array(xs).reshape(-1, *(1,) * image0.ndim)
            return x * image1 + (1 - x) * image0

    else:
        rho0 = family.state(0.0)
        image0, bound = check.linear(rho0)

        def image(x):
            if x == 0.0:  # built above, to learn the bound and the image size
                return image0
            rho = family.state(x)
            if rho.dims != rho0.dims:
                raise ValidationError(f"family {family.name!r}: states change dims from {rho0.dims} at x = 0")
            return check.linear(rho)[0]

        def images(xs):
            return np.stack([image(x) for x in xs])

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
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and math.isfinite(tol) and tol >= 1e-8):
        raise ValidationError(f"tol must be finite and >= 1e-8, got {tol!r}")
    if not isinstance(check, criteria.Check):
        raise ValidationError(f"check must be a criteria.Check, as make_check returns, got {check!r}")

    images, bound, size = _image_source(family, check)
    xs = [i / (grid_points - 1) for i in range(grid_points)]
    grid = [check.judge(images(xs[batch]), bound) for batch in _batches(len(xs), size)]
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
        if check.judge(images([mid]), bound).entangled[0]:
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

    Ties are broken toward smaller m, then smaller alpha, then smaller beta:
    the grids are sorted ascending and the first maximum over the cells in C
    order (m, alpha, beta) is kept.  The grid values are read as weights
    before anything is built.  One tensor per distinct scaled pair, bit-identical
    to the image the cell's ``hw`` TensorCheck makes, is judged; each cell keeps its own bound.
    The tensors are judged in stacks of at most _STACK_ELEMS elements.
    """
    alphas = sorted(check_weights(alpha_grid))
    betas = sorted(check_weights(beta_grid))
    if not isinstance(m_range, Iterable):
        raise ValidationError(f"m_range must be a sequence of whole numbers, got {m_range!r}")
    ms = sorted(check_whole(m) for m in m_range)
    if not alphas or not betas or not ms:
        raise ValidationError("optimize_params requires nonempty grids")
    dec = bloch.decompose_bipartite(rho, normalization)
    # the weights of cell (alpha_a, beta_b) of one m, in C order, and of every cell scaled by its sqrt(m)
    col_w = np.repeat(alphas, len(betas))
    row_w = np.tile(betas, len(alphas))
    roots = np.array([math.sqrt(m) for m in ms])[:, None]
    scaled = np.stack((roots * row_w, roots * col_w), axis=-1).reshape(-1, 2)
    # equal scaled pairs give equal tensors: one per distinct complex key, -0.0 (other bits than 0.0) keyed as -1
    keys = np.where(np.signbit(scaled), -1.0, scaled).view(complex).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cells, values = len(row_w), np.empty(len(first))
    for batch in _batches(len(first), dec.tensor.size):
        rows, cols = scaled[first[batch]].T
        stack = np.broadcast_to(dec.tensor, (len(rows), *dec.tensor.shape))
        values[batch] = trace_norm(bloch.weighted(stack, (rows[:, None], cols[:, None])))
    values = values[inverse].reshape(len(ms), cells)
    bounds = criteria.theorem2_bound(dec.dims, (row_w, col_w), np.array(ms, dtype=float)[:, None], normalization)
    i, cell = divmod(int(np.argmax(values - bounds)), cells)
    a, b = divmod(cell, len(betas))
    return OptimizeResult(alphas[a], betas[b], ms[i], float(values[i, cell]), float(bounds[i, cell]), normalization)


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


def _bind(spec) -> criteria.Check:
    """``make_check(**spec)``; raises ValidationError naming a spec that is not a mapping with a "criterion" key."""
    if not (isinstance(spec, Mapping) and "criterion" in spec and all(isinstance(key, str) for key in spec)):
        raise ValidationError(f'each spec must be a mapping with a "criterion" key and text keys, got {spec!r}')
    return make_check(**spec)


def compare(subject, specs, grid_points: int = 256, tol: float = 1e-6) -> ComparisonReport:
    """Run several criteria against one family or one state.

    ``specs`` is a list of dicts, each with a "criterion" key plus that
    criterion's parameters, as ``make_check`` takes them; every spec is
    bound before any is run.  Families are scanned for thresholds; single
    states are checked directly.
    """
    checks = [_bind(spec) for spec in specs]
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
