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
is ``theorem2_bound(dims, (beta, alpha), m, normalization)``, so both run
on one kernel, ``bloch``'s coefficient tensor.  The m identity slots are
copies of one another: the one-slot tensor with weights sqrt(m) alpha_k
has the same trace norms, so m enters only through that rescaling and the
bound.  ``TensorCheck.linear`` scales a copy's identity slots that way and
returns it with the bound's one core, ``_bound``, on its parsed weights and m.

Every criterion is a row of ``REGISTRY``; ``make_check`` binds a name and
parameters into its row's Check, reading each parameter with its one parser
from ``errors`` (partitions against the number of weights, when the row
binds).  A Check maps a state to an image that is linear in rho (``linear``)
and decides a stack of images, each with its bound, in one batch (``judge``)
under the margin rule below; a single verdict judges a stack of one.  Every
trace-norm row is one ``TensorCheck``: the weighted tensor of a state with one
party per weight, judged per bipartition, each matricized tall (its larger
side, A or its complement, on the rows, as ``trace_norm`` takes any matrix),
by one stacked SVD per tall shape within ``_STACK_ELEMS``;
``analysis.optimize_params`` judges its cells by the ``hw`` row too.  The rows
differ only in data (which parameters become the weights, which bipartitions
are judged, which keys a verdict reports).  A state with another party count,
or a subject that is not a ``DensityMatrix``, is refused by
``linalg.require_parties``.
The S rows are two-party ``thm2`` rows with weights (beta, alpha) and
the one bipartition:

* ``hw``  - caller's (alpha, beta, m) and normalization (``check_theorem1``).
* ``isc`` - rescaled, caller's (alpha, beta, m), m >= 1.
* ``vb``  - correlation matrix only: rescaled, alpha = beta = m = 0.
* ``lb``  - rescaled with m = 1, alpha = beta = 1.

``thm2`` takes two or more weights, ``alphas``, and judges the caller's
partitions or every distinct one.  ``ppt`` judges the partial transpose of
a two-party state by one stacked eigvalsh (independent of the Bloch
machinery; detects nothing on bound entangled states).

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
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

import numpy as np

from . import bloch, hw_basis
from .errors import ValidationError, check_choice, check_collection, check_dims, check_elements, check_m
from .errors import check_parties, check_weight, check_weights
from .linalg import DensityMatrix, eig_hermitian, partial_transpose, require_parties, trace_norm

# Absolute floor of the violation margin (see the module docstring).
VIOLATION_EPS = 1e-9
# Largest number of array elements in one stack of images or of their matricizations (unless one alone is larger).
_STACK_ELEMS = 2**20
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


@dataclass(slots=True)
class Judgement:
    """Trace norms (or ppt values) of a stack of images against their bounds, one per image.

    Row i of ``values`` belongs to image i of the stack, with bound ``bounds[i]``, and column j to the
    matricization ``columns[j]`` (a bipartition, or None for ppt), whose two dimensions sum to ``sizes[j]`` (1 for
    ppt).  An image's verdict is that of its worst column, the first largest value - bound.
    """

    check: Check
    values: np.ndarray
    bounds: np.ndarray
    sizes: tuple[int, ...]
    columns: tuple = (None,)

    def _worst(self, i=slice(None)):
        """The worst column of image ``i``, or of every image as an array."""
        return (self.values[i] - self.bounds[i, None]).argmax(axis=-1)

    @property
    def entangled(self) -> np.ndarray:
        """The verdict rule on each image's worst column, as a boolean array."""
        worst = self._worst()
        values = self.values[np.arange(len(worst)), worst]
        return _violates(values, self.bounds, np.asarray(self.sizes)[worst], np.maximum)

    def _column_verdict(self, i: int, j: int) -> CriterionVerdict:
        """The verdict of image i in column j, with the margin for its matrix."""
        value, bound = float(self.values[i, j]), float(self.bounds[i])
        flag = ENTANGLED if _violates(value, bound, self.sizes[j]) else INCONCLUSIVE
        return CriterionVerdict(self.check.row.name, value, bound, flag, self.check.params(self.columns[j]))

    def verdicts(self, i: int) -> list[CriterionVerdict]:
        """One verdict per column for image ``i``."""
        return [self._column_verdict(i, j) for j in range(len(self.columns))]

    def verdict(self, i: int) -> CriterionVerdict:
        """The verdict of image ``i``'s worst column (a one-column judgement has no other to look for)."""
        return self._column_verdict(i, int(self._worst(i)) if len(self.columns) > 1 else 0)


@dataclass(slots=True)
class Check:
    """A criterion's row with its parameters bound, as a linear image of the state and a judge.

    ``reported`` maps the row's reported keys, in order, to their bound values
    ("partition" to None).  ``linear(rho)`` validates rho and returns its image,
    linear in rho, with the separable bound; ``judge(images, bounds)`` decides a
    stack of images (axis 0) in one batch, against one bound per image (a float:
    every image's), as a Judgement; ``params(column)`` is what a verdict on one of
    its columns reports.  ``bind`` makes a Check from a row and its parsed
    parameters.  A judge's values must be convex in the image (a trace norm, or
    -lambda_min): scans decide points between judged ones from that
    (``analysis.scan_threshold``).
    """

    row: Criterion
    reported: dict

    @classmethod
    def bind(cls, row: Criterion, reported: dict, values: dict) -> Check:
        """The Check of ``row`` at its parsed parameters ``values``; a subclass takes its fields from them."""
        return cls(row, reported)

    def judgement(self, rho: DensityMatrix) -> Judgement:
        """The judgement of rho's image alone, a stack of one."""
        image, bound = self.linear(rho)
        return self.judge(image[None], bound)

    def __call__(self, rho: DensityMatrix) -> CriterionVerdict:
        return self.judgement(rho).verdict(0)

    def params(self, column) -> dict:
        """``reported`` with each list copied, and the bipartition ``column`` as its partition if it has one."""
        params = {key: value[:] if type(value) is list else value for key, value in self.reported.items()}
        if "partition" in params:
            params["partition"] = list(column)
        return params


@dataclass(slots=True)
class TensorCheck(Check):
    """A trace-norm row at given parameters: the weighted coefficient tensor, judged per bipartition.

    ``weights`` holds one weight per party; ``partitions`` holds party
    subsets of 1..len(weights), or None for all distinct bipartitions.
    """

    weights: tuple
    m: int
    partitions: tuple | None
    normalization: str

    @classmethod
    def bind(cls, row: Criterion, reported: dict, values: dict) -> Check:
        weights = tuple(row.weights(values))
        if len(weights) < 2:
            raise ValidationError(f"criterion {row.name} needs one weight per party, two or more, got {weights}")
        partitions = values["partitions"]
        if partitions is not None:  # the caller's: the S rows and thm2 default to every bipartition
            partitions = check_collection(partitions, "partitions must be a list of party-index lists")
            partitions = tuple(check_parties(part, len(weights)) for part in partitions)
            if not partitions:
                raise ValidationError("partitions must name at least one bipartition")
        return cls(row, reported, weights, values["m"], partitions, values["normalization"])

    def linear(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        """The tensor with identity slot k scaled by sqrt(m) weights[k], and its separable bound."""
        n = len(self.weights)
        require_parties(rho, n, self.row)
        bound = _bound(rho.dims, self.weights, self.m, self.normalization == "rescaled")  # first: it refuses overflow
        if n == 2:  # through the public decomposition, which perfbench counts
            tensor = bloch.decompose_bipartite(rho, self.normalization).tensor
        else:
            tensor = bloch._coefficients(rho, self.normalization)
        root = math.sqrt(self.m)
        return bloch.weighted(tensor, [root * w for w in self.weights]), float(bound)

    def judge(self, images: np.ndarray, bounds: float | np.ndarray) -> Judgement:
        columns, stacks, sizes = _plan(images.shape[1:], self.partitions, _STACK_ELEMS)
        values = np.empty((len(images), len(columns)))
        for js, orders, shape in stacks:
            if len(js) == 1:  # the images, matricized (a view for every S row): no larger than the caller's stack
                values[:, js[0]] = trace_norm(images.transpose(orders[0]).reshape(-1, *shape))
                continue
            for batch in _batches(len(images), len(js) * math.prod(shape)):
                part = images[batch]
                stack = np.empty((len(js), len(part), *shape))  # column-major: each slot's reshape is a view
                for slot, order in zip(stack, orders):
                    slot.reshape(part.transpose(order).shape)[...] = part.transpose(order)
                values[batch, js] = trace_norm(stack.swapaxes(0, 1))
        return Judgement(self, values, np.full(len(images), bounds, float), sizes, columns)


@dataclass(slots=True)
class PPTCheck(Check):
    """Positive-partial-transpose test as a Check: the partial transpose, judged by -(min eigenvalue)."""

    def linear(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        require_parties(rho, 2, self.row)
        return partial_transpose(rho, self.reported["subsystem"]), 0.0

    def judge(self, images: np.ndarray, bounds: float | np.ndarray) -> Judgement:
        return Judgement(self, -eig_hermitian(images)[:, :1], np.full(len(images), bounds, float), (1,))


def _batches(count: int, size: int, elems: int | None = None) -> list[slice]:
    """Slices of range(count): batches of items of ``size`` elements, within ``elems`` (None: _STACK_ELEMS) or one."""
    step = max(1, (elems or _STACK_ELEMS) // size)
    return [slice(start, start + step) for start in range(0, count, step)]


@lru_cache(maxsize=256)
def _plan(shape: tuple, partitions: tuple | None, elems: int) -> tuple[tuple, tuple, tuple]:
    """How a stack (axis 0) of tensors of ``shape`` is judged for ``partitions`` (None: every bipartition).

    Returns the bipartitions (parsed ones are trusted); the stacks to judge, one SVD each, as (column numbers,
    axis orders, matrix shape): a column's order puts the stack axis first and then its larger side's parties (A's
    on a tie), so that its matrix is tall, and a stack holds columns of one shape, as many as ``elems`` elements of
    an image allow (one at least); and the sum of each column's two matrix dimensions.
    """
    n, classes, sizes = len(shape), {}, []
    columns = partitions or tuple(all_bipartitions(n))
    for j, part in enumerate(columns):
        rest = tuple(k for k in range(1, n + 1) if k not in part)
        rows, cols = (math.prod(shape[p - 1] for p in side) for side in (part, rest))
        order, matrix = ((0, *part, *rest), (rows, cols)) if rows >= cols else ((0, *rest, *part), (cols, rows))
        classes.setdefault(matrix, []).append((j, order))
        sizes.append(rows + cols)
    size = math.prod(shape)  # every matrix holds an image's elements
    stacks = tuple((*zip(*group[b]), mat) for mat, group in classes.items() for b in _batches(len(group), size, elems))
    return columns, stacks, tuple(sizes)


def matricize(tensor: np.ndarray, parties) -> np.ndarray:
    """A|A-bar matricization of an N-way coefficient tensor.

    ``parties`` is a 1-based subset of 1..N selecting the row axes; both row
    and column multi-indices are composed in row-major order over ascending
    party index.
    """
    tensor = np.asarray(tensor)
    rows = [p - 1 for p in check_parties(parties, tensor.ndim)]
    return np.moveaxis(tensor, rows, range(len(rows))).reshape(math.prod(tensor.shape[p] for p in rows), -1)


def theorem2_bound(dims, alphas, m: int, normalization: str = "standard") -> float | np.ndarray:
    """Fully-separable upper bound, prod_k sqrt(m alpha_k^2 + c_k^2 (d_k - 1)).

    c_k^2 is 1 in the standard normalization and d_k/2 in the rescaled one.
    Two parties with alphas (beta, alpha) give the bound on ||S^m_{alpha,beta}||_tr.
    m and each alpha_k may be numbers or arrays, the bound then taken elementwise over their broadcast.
    ``check_dims`` reads the dims, and ``check_m`` and ``check_weight`` every element of m and of each
    weight, as float64; a bound past float range is refused.
    """
    rescaled = _PARSERS["normalization"](normalization) == "rescaled"
    dims = check_dims(dims, 1)
    alphas = check_collection(alphas, "alphas must be a collection of weights, one per party")
    if len(dims) != len(alphas):
        raise ValidationError(f"theorem2_bound needs one weight per party, got {len(alphas)} for dims {dims}")
    return _bound(dims, [check_elements(a, check_weight) for a in alphas], check_elements(m, check_m), rescaled)


def _bound(dims, weights, m, rescaled: bool) -> float | np.ndarray:
    """``theorem2_bound`` on parsed inputs, for every caller; a bound past float range is refused."""
    with np.errstate(over="ignore"):  # refused below
        bound = math.prod(np.sqrt(m * a * a + (d / 2 if rescaled else 1.0) * (d - 1)) for d, a in zip(dims, weights))
    if not np.isfinite(bound).all():
        raise ValidationError("the separable bound is past float range: the weights or m are too large")
    return bound


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """The 2^(n-1) - 1 distinct bipartitions, as the 1-based subset containing party 1."""
    return [(1, *combo) for k in range(n - 1) for combo in combinations(range(2, n + 1), k)]


@dataclass(frozen=True)
class Criterion:
    """A criterion as one row of data: the Check class it binds into and the keys its verdicts report.

    A caller must give the ``required`` parameters and may give the
    ``optional`` ones, each read by its parser in ``_PARSERS``; ``defaults``
    holds the other values the Check is bound from, fixed values included.
    ``min_m`` is the smallest m the criterion accepts.  Messages name a row "criterion <name>".
    """

    name: str
    check: type
    weights: itemgetter | None  # picks a TensorCheck's weights, one per party, from its bound values
    reported: tuple[str, ...]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    min_m: int = 0

    def __str__(self) -> str:
        return f"criterion {self.name}"


# The one parser of each criterion parameter; m is read with its row's ``min_m``, partitions by TensorCheck.bind.
_PARSERS = {
    "alpha": check_weight,
    "beta": check_weight,
    "alphas": lambda value: list(check_weights(value)),
    "partitions": lambda value: value,
    "subsystem": lambda value: check_choice(value, (1, 2), "subsystem"),
    "normalization": lambda value: check_choice(value, hw_basis.NORMALIZATIONS, "normalization"),
}

# An S row is the two-party tensor with weights (beta, alpha), judged on every bipartition: its one.
S_PARAMS = ("alpha", "beta", "m")
S_REPORTED = (*S_PARAMS, "normalization")
_S_WEIGHTS = itemgetter("beta", "alpha")
_STANDARD = {"partitions": None, "normalization": "standard"}
_RESCALED = dict(_STANDARD, normalization="rescaled")

REGISTRY = {
    row.name: row
    for row in (
        Criterion("hw", TensorCheck, _S_WEIGHTS, S_REPORTED, S_PARAMS, ("normalization",), _STANDARD),
        Criterion("isc", TensorCheck, _S_WEIGHTS, S_REPORTED, S_PARAMS, defaults=_RESCALED, min_m=1),
        Criterion(
            "vb", TensorCheck, _S_WEIGHTS, ("m", "normalization"), defaults=dict(_RESCALED, alpha=0.0, beta=0.0, m=0)
        ),
        Criterion("lb", TensorCheck, _S_WEIGHTS, S_REPORTED, defaults=dict(_RESCALED, alpha=1.0, beta=1.0, m=1)),
        Criterion("ppt", PPTCheck, None, ("subsystem",), optional=("subsystem",), defaults={"subsystem": 2}),
        Criterion(
            "thm2",
            TensorCheck,
            itemgetter("alphas"),
            ("alphas", "m", "partition", "normalization"),
            ("alphas", "m"),
            ("partitions", "normalization"),
            _STANDARD,
            min_m=1,
        ),
    )
}

# The S rows, those weighted like hw, in REGISTRY order: compare's default rows when a weight is given.
S_ROWS = tuple(name for name, row in REGISTRY.items() if row.weights is _S_WEIGHTS)


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
        values[key] = check_m(value, row.min_m) if key == "m" else _PARSERS[key](value)
    return row.check.bind(row, {key: values.get(key) for key in row.reported}, values)


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
