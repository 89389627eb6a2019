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

The m identity slots are copies of one another, so
S^m_{alpha,beta} = P S_{sqrt(m) alpha, sqrt(m) beta} Q^t with isometries P
and Q, and both have the same trace norm.  ``build_S`` therefore builds only
the one-slot (1 + d1^2 - 1) x (1 + d2^2 - 1) matrix, and m enters as the
sqrt(m) rescaling of the weights plus the bound, which depends on m alpha^2
and m beta^2 only.  m = 0 gives zero weights: a zero border row and column,
which leave ||T||_tr unchanged.

The S-type criteria are the rows of ``S_CRITERIA``, all on that one kernel:

* ``hw``  - caller's (alpha, beta, m) and normalization (``check_theorem1``).
* ``isc`` - rescaled, caller's (alpha, beta, m), m >= 1.
* ``vb``  - correlation matrix only: rescaled, alpha = beta = m = 0.
* ``lb``  - rescaled with m = 1, alpha = beta = 1.

``check_ppt`` tests positivity of the partial transpose (independent of the
Bloch machinery; detects nothing on bound entangled states).

The multipartite generalization replaces S by the A|A-bar matricization of
the coefficient tensor W, built the same way with one identity slot per
axis weighted by sqrt(m) alpha_k; for fully separable states every
bipartition obeys

    ||W^(A|A-bar)||_tr <= prod_k sqrt(m alpha_k^2 + d_k - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import bloch
from .bloch import BlochDecomposition, CoefficientTensor
from .errors import ValidationError
from .linalg import DensityMatrix, eig_hermitian, partial_transpose, trace_norm

# Violation margin added to every bound before declaring ENTANGLED, so that
# floating-point noise on equality cases (pure product states) never
# produces a false certificate.
VIOLATION_EPS = 1e-9

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
        return {
            "criterion": self.criterion,
            "value": self.value,
            "bound": self.bound,
            "verdict": self.verdict,
            "params": self.params,
        }


def _verdict(criterion: str, value: float, bound: float, params: dict) -> CriterionVerdict:
    flag = ENTANGLED if value > bound + VIOLATION_EPS else INCONCLUSIVE
    return CriterionVerdict(criterion, float(value), float(bound), flag, params)


@dataclass(frozen=True)
class SMatrix:
    """One-slot S matrix, d1^2 x d2^2: the identity slot, then the basis observables."""

    matrix: np.ndarray


def build_S(dec: BlochDecomposition, alpha: float, beta: float) -> SMatrix:
    """Assemble the one-slot S_{alpha,beta} from a Bloch decomposition."""
    alpha, beta = bloch.check_weights((alpha, beta))
    r, s, t = dec.r.coeffs, dec.s.coeffs, dec.t
    out = np.empty((1 + len(r), 1 + len(s)))
    out[0, 0] = alpha * beta
    out[0, 1:] = beta * s
    out[1:, 0] = alpha * r
    out[1:, 1:] = t
    return SMatrix(out)


def theorem1_bound(
    d1: int, d2: int, alpha: float, beta: float, m: int, normalization: str = "standard"
) -> float:
    """Separable upper bound on ||S||_tr for the given normalization."""
    if normalization == "standard":
        return math.sqrt((m * beta**2 + d1 - 1) * (m * alpha**2 + d2 - 1))
    if normalization == "rescaled":
        return 0.5 * math.sqrt((2 * m * beta**2 + d1 * d1 - d1) * (2 * m * alpha**2 + d2 * d2 - d2))
    raise ValidationError(f"unknown normalization {normalization!r}")


def _s_criterion(
    dec: BlochDecomposition, alpha: float, beta: float, m: int, normalization: str
) -> tuple[float, float]:
    """(||S^m_{alpha,beta}||_tr, separable bound) through the one-slot kernel."""
    alpha, beta = bloch.check_weights((alpha, beta))
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    root = math.sqrt(m)
    value = trace_norm(build_S(dec, root * alpha, root * beta).matrix)
    return value, theorem1_bound(*dec.dims, alpha, beta, m, normalization)


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
        value, bound = _s_criterion(dec, alpha, beta, m, normalization)
        given = {"alpha": float(alpha), "beta": float(beta), "m": int(m), "normalization": normalization}
        return _verdict(self.name, value, bound, {key: given[key] for key in self.reported})


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


def matricize(w: CoefficientTensor, parties) -> np.ndarray:
    """A|A-bar matricization of the coefficient tensor.

    ``parties`` is a 1-based subset of 1..N selecting the row axes; both row
    and column multi-indices are composed in row-major order over ascending
    party index.
    """
    n = w.n_parties
    a = sorted(set(int(p) for p in parties))
    if not a or len(a) == n:
        raise ValidationError("parties must be a nonempty proper subset of 1..N")
    if a[0] < 1 or a[-1] > n:
        raise ValidationError(f"party indices must lie in 1..{n}, got {a}")
    axes_a = [p - 1 for p in a]
    axes_b = [k for k in range(n) if k not in axes_a]
    perm = w.tensor.transpose(axes_a + axes_b)
    rows = int(np.prod([w.tensor.shape[k] for k in axes_a]))
    return perm.reshape(rows, -1)


def theorem2_bound(dims, alphas, m: int, normalization: str = "standard") -> float:
    """Fully-separable upper bound, a product over parties."""
    if normalization == "standard":
        return math.prod(math.sqrt(m * a * a + d - 1) for d, a in zip(dims, alphas))
    if normalization == "rescaled":
        return math.prod(math.sqrt(m * a * a + d * (d - 1) / 2) for d, a in zip(dims, alphas))
    raise ValidationError(f"unknown normalization {normalization!r}")


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
    root = math.sqrt(m)
    w = bloch.build_W(rho, [root * a for a in alphas], normalization)
    bound = theorem2_bound(rho.dims, alphas, m, normalization)
    if partitions is None:
        partitions = all_bipartitions(rho.n_parties)
    verdicts = []
    for part in partitions:
        part = tuple(sorted(int(p) for p in part))
        value = trace_norm(matricize(w, part))
        params = {
            "alphas": list(alphas),
            "m": int(m),
            "partition": list(part),
            "normalization": normalization,
        }
        verdicts.append(_verdict("thm2", value, bound, params))
    return verdicts
