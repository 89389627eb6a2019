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
bound.  A state is decomposed once; ``_weighted`` checks the weights and m,
scales a copy's identity slots by sqrt(m) times the weights and returns it
with ``theorem2_bound``.  The S rows and ``optimize_params`` take the trace
norm of the two-party copy, ``check_theorem2`` that of each matricization
of the N-party one.

The S-type criteria are the rows of ``S_CRITERIA``, all on that kernel:

* ``hw``  - caller's (alpha, beta, m) and normalization (``check_theorem1``).
* ``isc`` - rescaled, caller's (alpha, beta, m), m >= 1.
* ``vb``  - correlation matrix only: rescaled, alpha = beta = m = 0.
* ``lb``  - rescaled with m = 1, alpha = beta = 1.

``check_ppt`` tests positivity of the partial transpose (independent of the
Bloch machinery; detects nothing on bound entangled states).

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
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import bloch
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


def _verdict(criterion: str, value: float, bound: float, params: dict, n: int = 1) -> CriterionVerdict:
    """Verdict with the margin for a trace norm of a matrix whose two dimensions sum to ``n``."""
    margin = max(VIOLATION_EPS, n * _EPS_MACH * max(bound, value))
    flag = ENTANGLED if value > bound + margin else INCONCLUSIVE
    return CriterionVerdict(criterion, float(value), float(bound), flag, params)


def _weighted(tensor: np.ndarray, dims, weights, m: int, normalization: str) -> tuple[np.ndarray, float]:
    """The coefficient tensor with identity slot k scaled by sqrt(m) weights[k], and its separable bound.

    Two parties with weights (beta, alpha) give S^m_{alpha,beta} and theorem 1's bound.
    """
    weights = bloch.check_weights(weights, len(dims))
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    root = math.sqrt(m)
    scaled = bloch.weighted(tensor, [root * w for w in weights])
    return scaled, theorem2_bound(dims, weights, m, normalization)


@dataclass(frozen=True)
class SCriterion:
    """An S-matrix criterion as a row of data.

    ``normalization`` is fixed, or None when the caller picks it (standard
    by default).  ``fixed`` pins some of alpha, beta and m, ``free`` names
    the ones the caller gives, ``reported`` lists the keys of the verdict's
    params, and ``min_m`` is the smallest m the criterion accepts.
    """

    name: str
    normalization: str | None
    fixed: dict
    free: tuple[str, ...]
    reported: tuple[str, ...]
    min_m: int

    def parameters(self, params: dict) -> dict:
        """alpha, beta, m and normalization from the caller's params and this row."""
        out = {"normalization": self.normalization or params.get("normalization", "standard")}
        out.update(self.fixed)
        out.update((key, params[key]) for key in self.free)
        if out["m"] < self.min_m:
            raise ValidationError(f"criterion {self.name} requires m >= {self.min_m}, got {out['m']}")
        return out

    def check(
        self, rho: DensityMatrix, alpha: float, beta: float, m: int, normalization: str
    ) -> CriterionVerdict:
        dec = bloch.decompose_bipartite(rho, normalization)
        s, bound = _weighted(dec.tensor, dec.dims, (beta, alpha), m, normalization)
        given = {"alpha": float(alpha), "beta": float(beta), "m": int(m), "normalization": normalization}
        params = {key: given[key] for key in self.reported}
        return _verdict(self.name, trace_norm(s), bound, params, sum(s.shape))


_ALL_PARAMS = ("alpha", "beta", "m", "normalization")

S_CRITERIA = {
    row.name: row
    for row in (
        SCriterion("hw", None, {}, ("alpha", "beta", "m"), _ALL_PARAMS, 0),
        SCriterion("isc", "rescaled", {}, ("alpha", "beta", "m"), _ALL_PARAMS, 1),
        SCriterion("vb", "rescaled", {"alpha": 0.0, "beta": 0.0, "m": 0}, (), ("m", "normalization"), 0),
        SCriterion("lb", "rescaled", {"alpha": 1.0, "beta": 1.0, "m": 1}, (), _ALL_PARAMS, 1),
    )
}


def check_theorem1(
    rho: DensityMatrix,
    alpha: float,
    beta: float,
    m: int,
    normalization: str = "standard",
) -> CriterionVerdict:
    """Trace-norm criterion on the bipartite S matrix (the ``hw`` row)."""
    return S_CRITERIA["hw"].check(rho, alpha, beta, m, normalization)


def check_ppt(rho: DensityMatrix, subsystem: int = 2) -> CriterionVerdict:
    """Positive-partial-transpose test; value is -(min eigenvalue of rho^PT)."""
    min_eig = float(eig_hermitian(partial_transpose(rho, subsystem))[0])
    return _verdict("ppt", -min_eig, 0.0, {"subsystem": subsystem})


def matricize(tensor: np.ndarray, parties) -> np.ndarray:
    """A|A-bar matricization of an N-way coefficient tensor.

    ``parties`` is a 1-based subset of 1..N selecting the row axes; both row
    and column multi-indices are composed in row-major order over ascending
    party index.
    """
    n = tensor.ndim
    a = sorted(set(int(p) for p in parties))
    if not a or len(a) == n:
        raise ValidationError("parties must be a nonempty proper subset of 1..N")
    if a[0] < 1 or a[-1] > n:
        raise ValidationError(f"party indices must lie in 1..{n}, got {a}")
    axes_a = [p - 1 for p in a]
    axes_b = [k for k in range(n) if k not in axes_a]
    perm = tensor.transpose(axes_a + axes_b)
    rows = int(np.prod([tensor.shape[k] for k in axes_a]))
    return perm.reshape(rows, -1)


def theorem2_bound(dims, alphas, m: int, normalization: str = "standard") -> float:
    """Fully-separable upper bound, prod_k sqrt(m alpha_k^2 + c_k^2 (d_k - 1)).

    c_k^2 is 1 in the standard normalization and d_k/2 in the rescaled one.
    Two parties with alphas (beta, alpha) give the bound on ||S^m_{alpha,beta}||_tr.
    """
    bloch.check_normalization(normalization)
    rescaled = normalization == "rescaled"
    return math.prod(
        math.sqrt(m * a * a + (d / 2 if rescaled else 1) * (d - 1)) for d, a in zip(dims, alphas)
    )


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """The 2^(n-1) - 1 distinct bipartitions, as the 1-based subset containing party 1."""
    out = []
    rest = range(2, n + 1)
    for k in range(0, n - 1):
        for combo in combinations(rest, k):
            out.append((1, *combo))
    return out


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
    if rho.n_parties < 2:
        raise ValidationError("check_theorem2 requires at least two parties")
    if m < 1:
        raise ValidationError(f"check_theorem2 requires m >= 1, got {m}")
    alphas = tuple(float(a) for a in alphas)
    w, bound = _weighted(bloch._coefficients(rho, normalization), rho.dims, alphas, m, normalization)
    if partitions is None:
        partitions = all_bipartitions(rho.n_parties)
    verdicts = []
    for part in partitions:
        part = sorted(set(int(p) for p in part))
        mat = matricize(w, part)
        params = {"alphas": list(alphas), "m": int(m), "partition": part, "normalization": normalization}
        verdicts.append(_verdict("thm2", trace_norm(mat), bound, params, sum(mat.shape)))
    return verdicts
