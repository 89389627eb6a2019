"""Trace-norm separability criteria.

The paper's central object is the block matrix

    S^m_{alpha,beta}(rho) = [ alpha*beta*E_mxm   beta*omega_m(s)^t ]
                            [ alpha*omega_m(r)   T                 ]

where (r, s, T) is the Bloch data of a bipartite state, omega_m(x) stacks m
copies of x as columns and E is the all-ones matrix.  For separable states

    ||S||_tr <= sqrt((m beta^2 + d1 - 1)(m alpha^2 + d2 - 1))      (standard)
    ||S||_tr <= (1/2) sqrt((2m beta^2 + d1^2 - d1)(2m alpha^2 + d2^2 - d2))
                                                                   (rescaled)

so a larger trace norm certifies entanglement; a smaller one is
inconclusive.  The rescaled variant coincides with the criterion usually
stated in a generalized Gell-Mann basis (trace norms are invariant under
real orthogonal changes of the operator basis, so the value is
basis-independent once Tr{Q Q'} = 2 delta delta is fixed).

The multipartite generalization replaces S by the A|A-bar matricization of
the coefficient tensor W (m identity slots per axis weighted by alpha_k,
then the basis slots); for fully separable states every bipartition obeys

    ||W^(A|A-bar)||_tr <= prod_k sqrt(m alpha_k^2 + c_k^2 (d_k - 1)),

with c_k^2 = 1 (standard) or d_k/2 (rescaled).  Theorem 1 is its two-party
case: S^m_{alpha,beta} is W with weights (beta, alpha), and the bound above
is ``theorem2_bound(dims, (beta, alpha), m, normalization)``.  So both run
on one kernel, ``bloch``'s coefficient tensor.  The m identity slots are
copies of one another, so the one-slot tensor with weights sqrt(m) alpha_k
has the same trace norms, and m enters only through that rescaling and the
bound.  A state is decomposed once; ``_weighted`` checks the weights (m
comes checked by ``check_whole``), scales a copy's identity slots by sqrt(m)
times the weights and returns it with ``theorem2_bound``.  The S rows take
the trace norm of the two-party copy, ``check_theorem2`` that of each
matricization of the N-party one.  ``analysis.optimize_params`` scales a
stack of copies the same way, one copy per grid cell, and takes the bounds
of the whole grid from ``theorem2_bound`` over arrays.

Every criterion is a row of ``REGISTRY``, and ``make_check`` binds a name
and parameters into its row's Check, reading each parameter with its one
parser.  The S rows run on that kernel:

* ``hw``  - caller's (alpha, beta, m) and normalization (``check_theorem1``).
* ``isc`` - rescaled, caller's (alpha, beta, m), m >= 1.
* ``vb``  - correlation matrix only: rescaled, alpha = beta = m = 0.
* ``lb``  - rescaled with m = 1, alpha = beta = 1.

``ppt`` tests positivity of the partial transpose (independent of the
Bloch machinery; detects nothing on bound entangled states), and ``thm2``
is the multipartite criterion.  A Check is a map ``linear`` from the state
to an image that is linear in rho (the weighted coefficient tensor, or the
partial transpose) and a ``judge`` that decides a stack of images in one
batch (one stacked SVD per matricization, or one stacked eigvalsh) under
the margin rule below; a single verdict judges a stack of one.

A verdict is ENTANGLED only when value > bound + margin, where the margin
is max(VIOLATION_EPS, n eps_mach max(bound, value)) and n is the sum of the
two dimensions of the matrix whose trace norm was taken (1 for ppt).  Pure
product states sit exactly on the bound, so rounding alone decides them:
the relative term covers the error of the SVD and of the bound, which
grows with the scale and the size of the matrix (pure products of 2x2 to
5x7 and of 3-4 qudits at weights up to 3e4 came out up to 10 eps_mach
above the bound, and up to half of n eps_mach); the absolute floor keeps
the margin at ordinary scales where it was.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from . import bloch, hw_basis
from .errors import ValidationError
from .linalg import DensityMatrix, eig_hermitian, partial_transpose, trace_norm

# Absolute floor of the violation margin (see the module docstring).
VIOLATION_EPS = 1e-9
_EPS_MACH = float(np.finfo(float).eps)

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion evaluation."""

    criterion: str
    value: float
    bound: float
    verdict: str
    params: dict

    @property
    def entangled(self) -> bool:
        return self.verdict == ENTANGLED

    def to_dict(self) -> dict:
        return asdict(self)


def _violates(value, bound, n, maximum=max):
    """value > bound + max(VIOLATION_EPS, n eps_mach max(bound, value)); elementwise with np.maximum."""
    return value > bound + maximum(VIOLATION_EPS, n * _EPS_MACH * maximum(bound, value))


def _verdict(criterion: str, value: float, bound: float, params: dict, n: int = 1) -> CriterionVerdict:
    """Verdict with the margin for a trace norm of a matrix whose two dimensions sum to ``n``."""
    flag = ENTANGLED if _violates(value, bound, n) else INCONCLUSIVE
    return CriterionVerdict(criterion, float(value), float(bound), flag, params)


def check_whole(value, minimum: int = 0, name: str = "m") -> int:
    """``value`` as an int; raises ValidationError unless it is a finite whole number >= ``minimum``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):  # None, text, NaN, infinities
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise ValidationError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole


def _weighted(tensor: np.ndarray, dims, weights, m: int, normalization: str) -> tuple[np.ndarray, float]:
    """The coefficient tensor with identity slot k scaled by sqrt(m) weights[k], and its separable bound.

    Two parties with weights (beta, alpha) give S^m_{alpha,beta} and theorem 1's bound.  The
    weights are checked here; m comes from ``check_whole``.
    """
    weights = bloch.check_weights(weights, len(dims))
    root = math.sqrt(m)
    scaled = bloch.weighted(tensor, [root * w for w in weights])
    return scaled, float(theorem2_bound(dims, weights, m, normalization))


@dataclass(slots=True)
class Judgement:
    """Trace norms (or ppt values) of a stack of images against their bound.

    Row i of ``values`` belongs to image i of the stack and column j to the
    matricization ``columns[j]`` (a bipartition for thm2, None otherwise),
    whose two dimensions sum to ``sizes[j]`` (1 for ppt).  An image's
    verdict is that of its worst column, the first largest value - bound.
    """

    check: Check
    values: np.ndarray
    bound: float
    sizes: tuple[int, ...]
    columns: tuple = (None,)

    def _worst(self, i=slice(None)):
        """The worst column of image ``i``, or of every image as an array."""
        return (self.values[i] - self.bound).argmax(axis=-1)

    @property
    def entangled(self) -> np.ndarray:
        """The verdict rule on each image's worst column, as a boolean array."""
        worst = self._worst()
        values = self.values[np.arange(len(worst)), worst]
        return _violates(values, self.bound, np.asarray(self.sizes)[worst], np.maximum)

    def _column_verdict(self, value: float, j: int) -> CriterionVerdict:
        check = self.check
        return _verdict(check.row.name, value, self.bound, check.params(self.columns[j]), self.sizes[j])

    def verdicts(self, i: int) -> list[CriterionVerdict]:
        """One verdict per column for image ``i``."""
        return [self._column_verdict(value, j) for j, value in enumerate(self.values[i].tolist())]

    def verdict(self, i: int) -> CriterionVerdict:
        """The verdict of image ``i``'s worst column."""
        j = int(self._worst(i))
        return self._column_verdict(self.values[i, j], j)


@dataclass(slots=True)
class Check:
    """A criterion's row with its parameters bound, as a linear image of the state and a judge.

    A subclass holds the row's parameters as fields.  ``linear(rho)``
    validates rho and returns its image, linear in rho, with the separable
    bound; ``judge(images, bound)`` decides a stack of images (axis 0) in one
    batch, as a Judgement; ``params(column)`` is what a verdict on one of
    its columns reports, the row's ``reported`` fields.
    """

    row: Criterion

    def judgement(self, rho: DensityMatrix) -> Judgement:
        """The judgement of rho's image alone, a stack of one."""
        image, bound = self.linear(rho)
        return self.judge(image[None], bound)

    def __call__(self, rho: DensityMatrix) -> CriterionVerdict:
        return self.judgement(rho).verdict(0)

    def params(self, column) -> dict:
        return {key: getattr(self, key) for key in self.row.reported}


@dataclass(slots=True)
class RowCheck(Check):
    """An S row at given parameters: the weighted two-party tensor and its trace norm."""

    alpha: float
    beta: float
    m: int
    normalization: str

    def linear(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        dec = bloch.decompose_bipartite(rho, self.normalization)
        return _weighted(dec.tensor, dec.dims, (self.beta, self.alpha), self.m, self.normalization)

    def judge(self, images: np.ndarray, bound: float) -> Judgement:
        return Judgement(self, trace_norm(images)[:, None], bound, (sum(images.shape[1:]),))


@dataclass(slots=True)
class PPTCheck(Check):
    """Positive-partial-transpose test as a Check: the partial transpose, judged by -(min eigenvalue)."""

    subsystem: int

    def linear(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        return partial_transpose(rho, self.subsystem), 0.0

    def judge(self, images: np.ndarray, bound: float) -> Judgement:
        return Judgement(self, -eig_hermitian(images)[:, :1], bound, (1,))


def _split(parties, n: int) -> tuple[list[int], list[int]]:
    """0-based row and column axes of the A|A-bar matricization of an N-way tensor."""
    a = sorted(set(int(p) for p in parties))
    if not a or len(a) == n:
        raise ValidationError("parties must be a nonempty proper subset of 1..N")
    if a[0] < 1 or a[-1] > n:
        raise ValidationError(f"party indices must lie in 1..{n}, got {a}")
    rows = [p - 1 for p in a]
    return rows, [k for k in range(n) if k not in rows]


def _unfold(stack: np.ndarray, rows, cols) -> np.ndarray:
    """Each N-way tensor of a stack (axis 0) as a matrix over the row and column axes."""
    shape = stack.shape[1:]
    perm = stack.transpose([0, *(k + 1 for k in rows), *(k + 1 for k in cols)])
    return perm.reshape(len(stack), math.prod(shape[k] for k in rows), -1)


def matricize(tensor: np.ndarray, parties) -> np.ndarray:
    """A|A-bar matricization of an N-way coefficient tensor.

    ``parties`` is a 1-based subset of 1..N selecting the row axes; both row
    and column multi-indices are composed in row-major order over ascending
    party index.
    """
    return _unfold(tensor[None], *_split(parties, tensor.ndim))[0]


def theorem2_bound(dims, alphas, m: int, normalization: str = "standard") -> float | np.ndarray:
    """Fully-separable upper bound, prod_k sqrt(m alpha_k^2 + c_k^2 (d_k - 1)).

    c_k^2 is 1 in the standard normalization and d_k/2 in the rescaled one.
    Two parties with alphas (beta, alpha) give the bound on ||S^m_{alpha,beta}||_tr.
    m and each alpha_k may be arrays; the bound is then taken elementwise over
    their broadcast.
    """
    rescaled = _PARSERS["normalization"](normalization) == "rescaled"
    # c_k^2 is a float, so whole-number m and weights past int64 reach np.sqrt as a float
    return math.prod(np.sqrt(m * a * a + (d / 2 if rescaled else 1.0) * (d - 1)) for d, a in zip(dims, alphas))


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """The 2^(n-1) - 1 distinct bipartitions, as the 1-based subset containing party 1."""
    out = []
    rest = range(2, n + 1)
    for k in range(0, n - 1):
        for combo in combinations(rest, k):
            out.append((1, *combo))
    return out


@dataclass(slots=True)
class Theorem2Check(Check):
    """The multipartite criterion as a Check: the weighted N-party tensor, judged per bipartition.

    ``partitions`` holds sorted 1-based party subsets, or None for all distinct bipartitions.
    """

    alphas: tuple
    m: int
    partitions: tuple | None
    normalization: str

    def linear(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        if rho.n_parties < 2:
            raise ValidationError("check_theorem2 requires at least two parties")
        w = bloch._coefficients(rho, self.normalization)
        return _weighted(w, rho.dims, self.alphas, self.m, self.normalization)

    def judge(self, images: np.ndarray, bound: float) -> Judgement:
        n = images.ndim - 1
        parts = self.partitions or tuple(all_bipartitions(n))
        values, sizes = [], []
        for part in parts:
            mats = _unfold(images, *_split(part, n))
            values.append(trace_norm(mats))
            sizes.append(sum(mats.shape[1:]))
        return Judgement(self, np.stack(values, axis=1), bound, tuple(sizes), parts)

    def params(self, part) -> dict:
        given = {"alphas": list(self.alphas), "m": self.m, "partition": list(part)}
        given["normalization"] = self.normalization
        return {key: given[key] for key in self.row.reported}


@dataclass(frozen=True)
class Criterion:
    """A criterion as one row of data: the Check class it binds into and the keys its verdicts report.

    A caller must give the ``required`` parameters and may give the
    ``optional`` ones, each read by its parser in ``_PARSERS``; ``defaults``
    holds the other fields of ``check``, fixed values included.  ``min_m``
    is the smallest m the criterion accepts.
    """

    name: str
    check: type
    reported: tuple[str, ...]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    min_m: int = 0


def _partitions(partitions) -> tuple | None:
    """Each 1-based party subset sorted and without repeats; None stands for every bipartition."""
    if partitions is None:
        return None
    try:
        parts = tuple(tuple(sorted({check_whole(p, 1, "party index") for p in part})) for part in partitions)
    except TypeError:  # not a collection of collections
        raise ValidationError(f"partitions must be a list of party-index lists, got {partitions!r}") from None
    if not parts:
        raise ValidationError("partitions must name at least one bipartition")
    return parts


# The one parser of each criterion parameter; m is read by ``check_whole`` with its row's ``min_m``.
_PARSERS = {
    "alpha": bloch.check_weight,
    "beta": bloch.check_weight,
    "alphas": bloch.check_weights,
    "partitions": _partitions,
    "subsystem": lambda value: hw_basis.check_choice(value, (1, 2), "subsystem"),
    "normalization": lambda value: hw_basis.check_choice(value, hw_basis.NORMALIZATIONS, "normalization"),
}

_S_PARAMS = ("alpha", "beta", "m")
_S_REPORTED = (*_S_PARAMS, "normalization")
_RESCALED = {"normalization": "rescaled"}

REGISTRY = {
    row.name: row
    for row in (
        Criterion("hw", RowCheck, _S_REPORTED, _S_PARAMS, ("normalization",), {"normalization": "standard"}),
        Criterion("isc", RowCheck, _S_REPORTED, _S_PARAMS, defaults=_RESCALED, min_m=1),
        Criterion("vb", RowCheck, ("m", "normalization"), defaults=dict(_RESCALED, alpha=0.0, beta=0.0, m=0)),
        Criterion("lb", RowCheck, _S_REPORTED, defaults=dict(_RESCALED, alpha=1.0, beta=1.0, m=1)),
        Criterion("ppt", PPTCheck, ("subsystem",), optional=("subsystem",), defaults={"subsystem": 2}),
        Criterion(
            "thm2",
            Theorem2Check,
            ("alphas", "m", "partition", "normalization"),
            ("alphas", "m"),
            ("partitions", "normalization"),
            {"partitions": None, "normalization": "standard"},
            min_m=1,
        ),
    )
}


def make_check(criterion: str, **params) -> Check:
    """Bind a criterion name and parameters into a Check by the name's row of ``REGISTRY``.

    A missing, unknown or malformed parameter is a ValidationError here, not
    at the first verdict.  Calling the Check on a state gives its verdict
    (thm2's is that of its most violated partition).
    """
    row = REGISTRY.get(criterion)
    if row is None:
        raise ValidationError(f"unknown criterion {criterion!r}, expected one of {tuple(REGISTRY)}")
    missing = [key for key in row.required if key not in params]
    unknown = sorted(set(params) - set(row.required) - set(row.optional))
    if missing or unknown:
        raise ValidationError(f"criterion {criterion}: missing parameters {missing}, unknown {unknown}")
    values = dict(row.defaults)
    for key, value in params.items():
        values[key] = check_whole(value, row.min_m) if key == "m" else _PARSERS[key](value)
    return row.check(row, **values)


def check_theorem1(
    rho: DensityMatrix,
    alpha: float,
    beta: float,
    m: int,
    normalization: str = "standard",
) -> CriterionVerdict:
    """Trace-norm criterion on the bipartite S matrix (the ``hw`` row)."""
    return make_check("hw", alpha=alpha, beta=beta, m=m, normalization=normalization)(rho)


def check_ppt(rho: DensityMatrix, subsystem: int = 2) -> CriterionVerdict:
    """Positive-partial-transpose test; value is -(min eigenvalue of rho^PT)."""
    return make_check("ppt", subsystem=subsystem)(rho)


def check_theorem2(
    rho: DensityMatrix,
    alphas,
    m: int,
    partitions=None,
    normalization: str = "standard",
) -> list[CriterionVerdict]:
    """Evaluate the multipartite criterion, one verdict per bipartition.

    ``partitions`` is an iterable of 1-based party subsets; None enumerates
    all distinct bipartitions.  The state is certified not fully separable
    as soon as any single partition is violated.
    """
    check = make_check("thm2", alphas=alphas, m=m, partitions=partitions, normalization=normalization)
    return check.judgement(rho).verdicts(0)
