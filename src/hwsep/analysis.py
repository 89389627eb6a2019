"""Threshold scans, parameter grid search and multi-criterion comparisons.

A scan walks a one-parameter family rho_x, evaluates f(x) = value - bound
for a fixed criterion on a uniform grid, brackets the first sign change and
bisects it down to the requested tolerance.  The reported threshold is the
onset of violation: the criterion certifies entanglement for x above it.

A scan judges stacks of the check's linear images of the family's
states.  An affine family (``StateFamily`` with endpoints rho0, rho1) makes
them from the images L0, L1 of its endpoints: the state at x has the image
(1-x) L0 + x L1, so no state is built or validated per point.  Its
values are convex in x, so it judges about sqrt(n) of its n grid points,
decides from them the points away from an onset and judges the rest; the
bisection's midpoints are decided from every point judged so far by the
same rule, and only those it cannot decide are judged (``scan_threshold``):
the verdicts of judging every point.  A generator-only family judges the
images of all its states and every midpoint.  The two give the same values
up to rounding, so they make the same verdicts, evaluations and sign
changes unless a point lies within rounding of the margin.

``optimize_params`` searches its (m, alpha, beta) grid the same way: the
state is decomposed once, and a closed-form upper bound on each cell's trace
norm, from one stacked SVD of T and T - r s^T, leaves open the cells that can
still hold the first maximum; only those are judged, each once, by the ``hw``
row's judge against one bound per cell, in stacks within criteria._STACK_ELEMS.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bloch, criteria
from .criteria import make_check
from .errors import ValidationError, check_collection, check_m, check_real, check_weights, check_whole
from .linalg import DensityMatrix, require_parties, trace_norm
from .states import StateFamily

# The default scan resolution: a scan's grid points, and the bracket width its bisection stops under.
GRID_POINTS, TOL = 256, 1e-6


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
    """(xs -> stack of the check's images of the family's states at xs, their bound, the shape of one image).

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

    return images, bound, image0.shape


def _certified(x, k, at, v, bound, n, margin_n, maximum=np.maximum):
    """(ENTANGLED, INCONCLUSIVE) certified at x, between the judged points at[k - 1] < x < at[k], by
    ``scan_threshold``'s rule, with the margin for n = margin_n; x and k are numbers (with ``max``) or arrays."""
    delta = 64 * n * criteria._EPS_MACH * max(1.0, abs(bound), *map(abs, v[1:-1]))
    a0, a, b, b1 = at[k - 2], at[k - 1], at[k], at[k + 1]
    v0, va, vb, v1 = v[k - 2], v[k - 1], v[k], v[k + 1]
    t, u = (x - a) / (a - a0), (b - x) / (b1 - b)  # the neighbouring segments extended to x, over their bases
    lower = maximum(va + (va - v0 - 3 * delta) * t, vb - (v1 - vb + 3 * delta) * u) - 3 * delta
    upper = va + (vb - va) * ((x - a) / (b - a)) + 3 * delta
    return criteria._violates(lower, bound, margin_n, maximum), upper < bound + criteria.VIOLATION_EPS


def scan_threshold(
    family: StateFamily,
    check: criteria.Check,
    grid_points: int = GRID_POINTS,
    tol: float = TOL,
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
    most criteria._STACK_ELEMS elements.  ``evaluations`` counts the grid points and
    bisection steps, each decided or judged.

    An affine family's samples, every isqrt(grid_points)-th point and the
    last, are judged first; their worst-column values v (in ``at``, ``v``,
    padded at x = -1 and 2 by infinite values, whose secants bound nothing)
    are convex in x.  Each value is within delta of the exact one, so at x
    between judged a < x < b the value is at most the chord of v between a
    and b plus 2 delta, and at least either neighbouring segment's secant
    extended to x less (2 + 2t) delta, t the extension over its base.  The
    rule's own rounding, a few flops on numbers under 2 scale (1 + t), is
    under delta (1 + t): the chord takes 3 delta and the secants (3 + 3t).
    x is INCONCLUSIVE when the upper end is under the margin's floor and
    ENTANGLED when the lower end passes the largest margin there.  The grid
    points it leaves open are judged in one more stack.  A bisection midpoint
    is decided by the same rule from every point judged so far, and judged
    as a stack of one when the rule leaves it open.  delta = 64 N eps_mach
    scale, N the largest sum of a judged matrix's dimensions (ppt's matrix
    dimension), scale = max(1, |bound|, |v|) over every judged value.  It
    covers forming (1-x) L0 + x L1 (under 3 N eps_mach scale) and an SVD or
    eigvalsh error of p(N) eps_mach times the matrix norm (at most scale)
    for p(N) up to 61 N; values on the bound came out within N eps_mach / 2.
    """
    grid_points = check_whole(grid_points, 16, "grid_points")
    if check_real(tol, "tol") < 1e-8:
        raise ValidationError(f"tol must be finite and >= 1e-8, got {tol!r}")
    if not isinstance(family, StateFamily):
        raise ValidationError(f"family must be a StateFamily, got {family!r}")
    if not isinstance(check, criteria.Check):
        raise ValidationError(f"check must be a criteria.Check, as make_check returns, got {check!r}")

    images, bound, shape = _image_source(family, check)
    n, affine = grid_points, family.endpoints is not None
    xs = [i / (n - 1) for i in range(n)]
    at, v = [-1.0, 2.0], [math.inf, math.inf]

    def judge(points: list) -> tuple[list, list]:
        """The flags of ``points`` and their stacks; each point joins ``at`` with its worst-column value in ``v``."""
        judged = [check.judge(images(points[b]), bound) for b in criteria._batches(len(points), math.prod(shape))]
        for x, value in zip(points, [value for stack in judged for value in stack.values.max(axis=1).tolist()]):
            k = bisect.bisect(at, x)
            at.insert(k, x)
            v.insert(k, value)
        return [flag for stack in judged for flag in stack.entangled.tolist()], judged

    picked, flags = [*range(0, n - 1, math.isqrt(n) if affine else 1), n - 1], np.zeros(n, dtype=bool)
    flags[picked], (head, *_) = judge([xs[i] for i in picked])  # head: the first stack, read for its sizes and verdict
    certify = functools.partial(_certified, bound=bound, n=max(*head.sizes, *shape), margin_n=max(head.sizes))
    rest = [i for a, b in zip(picked, picked[1:]) for i in range(a + 1, b)]
    if rest:
        x = np.array(xs)[rest]
        entangled, inconclusive = certify(x, np.searchsorted(at, x), np.array(at), np.array(v))
        flags[rest] = entangled
        todo = np.array(rest)[entangled == inconclusive].tolist()  # neither, or (never) both
        flags[todo], _ = judge([xs[i] for i in todo])
    flags, evaluations = flags.tolist(), n
    changes = [i for i in range(1, n) if flags[i] != flags[i - 1]]
    # the bracket of the first change to ENTANGLED; [0, 0] when violated from the start of the family
    onset = None if flags[0] else next((i for i in changes if flags[i]), None)
    lo, hi = (0.0, 0.0) if onset is None else (xs[onset - 1], xs[onset])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        entangled, inconclusive = certify(mid, bisect.bisect(at, mid), at, v, maximum=max) if affine else (False, False)
        if entangled == inconclusive:  # neither, or (never) both; a generator-only family's midpoint
            (entangled,), _ = judge([mid])
        lo, hi = (lo, mid) if entangled else (mid, hi)
    threshold = None if onset is None and not flags[0] else 0.5 * (lo + hi)
    first = head.verdict(0)  # it reports the criterion and its parameters
    return ThresholdResult(
        first.criterion, first.params, family.describe(), threshold, 0.5 * (hi - lo), evaluations, len(changes)
    )


@dataclass(frozen=True)
class OptimizeResult:
    """``optimize_params``' best cell.  ``violation`` is the raw value - bound, with no margin: it certifies nothing
    until ``hwsep check --criterion hw`` at the cell reads ENTANGLED.  The separable ``random-separable --dims 2,4
    --terms 1 --seed 1`` prints 2.8e-14 under ``hwsep optimize --m-range 1,2,4,8,16,32``."""

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
        """The fields, with ``violation`` before ``normalization``."""
        doc = asdict(self)
        normalization = doc.pop("normalization")
        return {**doc, "violation": self.violation, "normalization": normalization}


def _upper_bound(dec: bloch.BlochDecomposition, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """(upper, upper + slack, rank_two) on the broadcast of rows = beta' and cols = alpha': ``optimize_params``'
    ceilings on the weighted tensor's trace norm, with ||T||_tr and ||T - r s^T||_tr from one stacked SVD."""
    r, s = dec.r, dec.s
    t_norm, split_norm = trace_norm(np.array([dec.t, dec.t - np.outer(r.coeffs, s.coeffs)]))
    with np.errstate(over="ignore"):  # a bound past float range only leaves its cell open
        rank_two = np.hypot(rows * cols, rows * s.norm + cols * r.norm) + t_norm
        upper = np.minimum(rank_two, np.hypot(rows, r.norm) * np.hypot(cols, s.norm) + split_norm)
        return upper, upper + 128 * sum(dec.tensor.shape) * criteria._EPS_MACH * upper, rank_two


def optimize_params(
    rho: DensityMatrix,
    alpha_grid,
    beta_grid,
    m_range,
    normalization: str = "standard",
) -> OptimizeResult:
    """Grid search maximizing value - bound, pruned by an upper bound on the trace norm.

    Ties are broken toward smaller m, then smaller alpha, then smaller beta:
    the grids are sorted ascending and the first maximum over the cells in C
    order (m, alpha, beta) is kept.  The grid values are read as weights
    before anything is built.  A judged cell's tensor S, weighted by (beta', alpha') = sqrt(m) (beta, alpha), is
    bit-identical to its ``hw`` image; the ``hw`` row judges each once, with its bound, in criteria._STACK_ELEMS stacks.

    upper is the lesser of two ceilings on ||S||_tr.  S = X + (0 (+) T): X holds S's row 0, (beta' alpha', beta' s) (Tr
    rho = 1), and the rest of its column 0, alpha' r; X has rank 2, so ||S||_tr <= rank_two = hypot(beta' alpha', beta'
    ||s|| + alpha' ||r||) + ||T||_tr, with equality when r = s = 0.  And S = u v^T + (0 (+) (T - r s^T)) with u =
    (beta', r), v = (alpha', s), so ||S||_tr <= ||u|| ||v|| + ||T - r s^T||_tr, with equality on pure products.  ||u||^2
    = beta'^2 + ||r||^2 <= m beta^2 + c_1^2 (d_1 - 1), the square of the cell's first bound factor (a state's ||r||^2 is
    at most c_1^2 (d_1 - 1)), and ||v|| is at most the second: both are finite, as every bound is, so upper is never NaN
    (inf * 0).  Both are taken per cell, from one SVD of T and one of T - r s^T.  The first cells judged are those tied
    highest on rank_two - bound, and best is the largest value - bound among them: the looser ceiling points nearer the
    best cell (the lesser one's pick left about three times as many cells open).  Then the unjudged cells with upper +
    slack - bound >= best are judged.  The other cells read -inf.  A computed value is at most upper + slack and
    rounding is monotone, so their computed value - bound is under best: the first maximum is the exhaustive search's,
    to the last bit.  slack = 128 N eps_mach upper, N the sum of S's dimensions, covers each ceiling against itself, so
    the lesser: the SVD of S (off by p(N) eps_mach ||S|| <= p(N) eps_mach upper, for p(N) up to 60 N as in
    ``scan_threshold``), the weighting's rounding (2 N), and the ceiling's own.  The first's is the SVD of T (60 N), two
    norms and four flops (6 N).  The split's is the SVD of T - r s^T (60 N), forming it (entry (i, j) off by eps_mach
    (|r_i s_j| + |T_ij - r_i s_j|): eps_mach upper in Frobenius norm, sqrt(N) times that in trace norm), two norms (N)
    and four flops.
    """
    alphas = sorted(check_weights(alpha_grid))
    betas = sorted(check_weights(beta_grid))
    ms = sorted(map(check_m, check_collection(m_range, "m_range must be a sequence of whole numbers")))
    if not alphas or not betas or not ms:
        raise ValidationError("optimize_params requires nonempty grids")
    require_parties(rho, 2, "optimize_params")
    dec = bloch.decompose_bipartite(rho, normalization)
    check = make_check("hw", alpha=0.0, beta=0.0, m=0, normalization=normalization)  # judge reads no weights or m
    # the cells (m, alpha, beta) on one broadcast: their bounds, which refuse weights that overflow, and ceilings
    m_col, col_w, row_w = np.array(ms, dtype=float)[:, None, None], np.array(alphas)[:, None], np.array(betas)
    bounds = criteria._bound(dec.dims, (row_w, col_w), m_col, normalization == "rescaled")
    rows, cols = np.sqrt(m_col) * row_w, np.sqrt(m_col) * col_w  # on the faces (m, 1, beta), (m, alpha, 1)
    _, ceiling, rank_two = _upper_bound(dec, rows, cols)
    rows, cols = (np.broadcast_to(face, bounds.shape).reshape(-1, 1) for face in (rows, cols))  # one row per cell
    values = np.full(bounds.size, -np.inf)  # each cell's trace norm once it is judged

    def judge(cells: np.ndarray) -> np.ndarray:
        """value - bound of every cell, once the hw row judges ``cells``, in stacks within criteria._STACK_ELEMS."""
        for part in (cells[batch] for batch in criteria._batches(len(cells), dec.tensor.size)):
            stack = np.broadcast_to(dec.tensor, (len(part), *dec.tensor.shape))
            values[part] = check.judge(bloch.weighted(stack, (rows[part], cols[part])), bounds.flat[part]).values[:, 0]
        return values.reshape(bounds.shape) - bounds

    gaps = (rank_two - bounds).ravel()
    best = judge(np.flatnonzero(gaps == gaps.max())).max()
    flat = int(np.argmax(judge(np.flatnonzero((ceiling - bounds >= best).ravel() & (values == -np.inf)))))
    i, a, b = np.unravel_index(flat, bounds.shape)
    return OptimizeResult(alphas[a], betas[b], ms[i], float(values[flat]), float(bounds[i, a, b]), normalization)


@dataclass(frozen=True)
class ComparisonRow:
    criterion: str
    params: dict
    threshold: float | None = None
    value: float | None = None
    bound: float | None = None
    verdict: str | None = None


# A report's CSV columns: a row's criterion, the keys the S rows report, and its outcome.
_CSV_COLUMNS = ("criterion", *criteria.S_REPORTED, "threshold", "value", "bound", "verdict")


@dataclass(frozen=True)
class ComparisonReport:
    subject: dict
    rows: tuple[ComparisonRow, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        """One line per row, in ``_CSV_COLUMNS``: its fields, with the parameters it has among them."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, _CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows({**row.params, **asdict(row)} for row in self.rows)
        return buf.getvalue()


def _bind(spec) -> criteria.Check:
    """``make_check(**spec)``; raises ValidationError naming a spec that is not a mapping with a "criterion" key."""
    if not (isinstance(spec, Mapping) and "criterion" in spec and all(isinstance(key, str) for key in spec)):
        raise ValidationError(f'each spec must be a mapping with a "criterion" key and text keys, got {spec!r}')
    return make_check(**spec)


def compare(subject, specs, grid_points: int = GRID_POINTS, tol: float = TOL) -> ComparisonReport:
    """Run several criteria against one family or one state.

    ``specs`` is a list of dicts, each with a "criterion" key plus that
    criterion's parameters, as ``make_check`` takes them; every spec is
    bound before any is run.  Families are scanned for thresholds; single
    states are checked directly.
    """
    checks = [_bind(spec) for spec in check_collection(specs, "specs must be a collection of criterion specs")]
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
