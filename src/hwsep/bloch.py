"""Bloch decompositions over the Heisenberg-Weyl observable basis.

A single d-level state expands as

    rho = (1/d) (I + sum_lm r_lm Q(l, m)),

with r_lm = Tr(rho Q(l,m)) in the standard normalization.  In the rescaled
normalization the coefficients are defined by the same expansion written in
the rescaled basis Q' = sqrt(2/d) Q, i.e. r'_lm = (d/2) Tr(rho Q'(l,m))
= sqrt(d/2) r_lm; pure states then satisfy ||r'|| = sqrt(d(d-1)/2) instead
of ||r|| = sqrt(d-1).

Bipartite states expand over {I, Q(l,m)} x {I, Q(k,n)} giving local Bloch
vectors r, s and the correlation matrix T; multipartite states give the
N-way coefficient tensor W built from per-party operator slots (one
identity slot weighted by alpha_i followed by the d_i^2 - 1 basis
observables).  The paper's W stacks m identity slots per axis; they are
copies of one another, so its matricizations have the same trace norms as
those of the one-slot W with weights sqrt(m) alpha_i, which is what
``criteria.check_theorem2`` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hw_basis
from .errors import ValidationError
from .linalg import DensityMatrix

_LETTERS = "abcdefgh"
_ROW_IDX = "ijklmnop"
_COL_IDX = "qrstuvwx"


def _check_normalization(normalization: str) -> None:
    if normalization not in hw_basis.NORMALIZATIONS:
        raise ValidationError(
            f"unknown normalization {normalization!r}, expected one of {hw_basis.NORMALIZATIONS}"
        )


def check_weights(weights) -> tuple[float, ...]:
    """The weights as floats; raises ValidationError unless all are finite and nonnegative."""
    weights = tuple(float(w) for w in weights)
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValidationError(f"weights must be finite and nonnegative, got {weights}")
    return weights


@dataclass(frozen=True)
class BlochVector:
    """Real coefficient vector of a single system, canonical (l, m) order."""

    dim: int
    normalization: str
    coeffs: np.ndarray  # length dim^2 - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class BlochDecomposition:
    """Local Bloch vectors and correlation matrix of a bipartite state.

    ``t`` has shape (d1^2 - 1) x (d2^2 - 1); row index runs over the first
    party's (l, m) pairs, column index over the second party's (k, n).
    """

    dims: tuple[int, int]
    normalization: str
    r: BlochVector
    s: BlochVector
    t: np.ndarray


@dataclass(frozen=True)
class CoefficientTensor:
    """N-way coefficient tensor with one identity slot per axis.

    Axis i has extent d_i^2: slot 0 corresponds to alpha_i * identity, the
    rest to the basis observables in canonical order.  The entry at the
    all-identity position equals prod(alphas).
    """

    tensor: np.ndarray

    @property
    def n_parties(self) -> int:
        return self.tensor.ndim


def decompose_single(rho: DensityMatrix, normalization: str = "standard") -> BlochVector:
    """Bloch vector of a single-system state."""
    _check_normalization(normalization)
    if rho.n_parties != 1:
        raise ValidationError(f"decompose_single requires one subsystem, got dims {rho.dims}")
    d = rho.dims[0]
    r = np.einsum("aij,ji->a", hw_basis._basis_array(d, "standard", "symmetric"), rho.matrix).real
    if normalization == "rescaled":
        r = np.sqrt(d / 2) * r
    return BlochVector(dim=d, normalization=normalization, coeffs=r)


def purity_from_bloch(r: BlochVector) -> float:
    """Tr(rho^2) recovered from a standard-normalization Bloch vector."""
    if r.normalization != "standard":
        raise ValidationError("purity_from_bloch is defined for the standard normalization only")
    return (1.0 + r.norm**2) / r.dim


def decompose_bipartite(rho: DensityMatrix, normalization: str = "standard") -> BlochDecomposition:
    """Bloch data (r, s, T) of a bipartite state."""
    _check_normalization(normalization)
    if rho.n_parties != 2:
        raise ValidationError(f"decompose_bipartite requires two subsystems, got dims {rho.dims}")
    d1, d2 = rho.dims
    qa = hw_basis._basis_array(d1, "standard", "symmetric")
    qb = hw_basis._basis_array(d2, "standard", "symmetric")
    r4 = rho.matrix.reshape(d1, d2, d1, d2)
    r = np.einsum("ijkj,aki->a", r4, qa).real
    s = np.einsum("ijil,blj->b", r4, qb).real
    t = np.einsum("ijkl,aki,blj->ab", r4, qa, qb).real
    if normalization == "rescaled":
        r = np.sqrt(d1 / 2) * r
        s = np.sqrt(d2 / 2) * s
        t = (np.sqrt(d1 * d2) / 2) * t
    return BlochDecomposition(
        dims=(d1, d2),
        normalization=normalization,
        r=BlochVector(d1, normalization, r),
        s=BlochVector(d2, normalization, s),
        t=t,
    )


def reconstruct_bipartite(dec: BlochDecomposition) -> DensityMatrix:
    """Rebuild the state from its Bloch data (inverse of decompose_bipartite)."""
    d1, d2 = dec.dims
    n1, n2 = d1 * d1 - 1, d2 * d2 - 1
    if dec.r.coeffs.shape != (n1,) or dec.s.coeffs.shape != (n2,) or dec.t.shape != (n1, n2):
        raise ValidationError(
            f"inconsistent decomposition shapes for dims {dec.dims}: "
            f"r {dec.r.coeffs.shape}, s {dec.s.coeffs.shape}, t {dec.t.shape}"
        )
    r, s, t = dec.r.coeffs, dec.s.coeffs, dec.t
    if dec.normalization == "rescaled":
        # back to standard coefficients; the expansion below uses Q, and
        # r' Q' = r Q entrywise, so the rebuilt state is identical.
        r = r / np.sqrt(d1 / 2)
        s = s / np.sqrt(d2 / 2)
        t = t / (np.sqrt(d1 * d2) / 2)
    qa = hw_basis._basis_array(d1, "standard", "symmetric")
    qb = hw_basis._basis_array(d2, "standard", "symmetric")
    i1, i2 = np.eye(d1), np.eye(d2)
    rho4 = np.einsum("ik,jl->ijkl", i1, i2).astype(complex)
    rho4 += np.einsum("a,aik,jl->ijkl", r, qa, i2)
    rho4 += np.einsum("b,ik,bjl->ijkl", s, i1, qb)
    rho4 += np.einsum("ab,aik,bjl->ijkl", t, qa, qb)
    mat = rho4.reshape(d1 * d2, d1 * d2) / (d1 * d2)
    return DensityMatrix(mat, (d1, d2))


def build_W(rho: DensityMatrix, alphas, normalization: str = "standard") -> CoefficientTensor:
    """Coefficient tensor of an N-party state.

    Entry (a_1, ..., a_N) is Tr(rho O_{a_1} x ... x O_{a_N}) where each
    axis runs over one identity slot (operator alpha_i * I) followed by the
    standard basis observables.  With ``normalization="rescaled"`` the
    operator-slot coefficients are the rescaled-basis expansion
    coefficients, i.e. the standard ones scaled by sqrt(d_i/2) per axis.
    """
    _check_normalization(normalization)
    alphas = check_weights(alphas)
    dims = rho.dims
    n = len(dims)
    if len(alphas) != n:
        raise ValidationError(f"need one alpha per party: got {len(alphas)} for {n} parties")
    if n > len(_LETTERS):
        raise ValidationError(f"at most {len(_LETTERS)} parties supported, got {n}")
    slabs = [
        np.concatenate([a * np.eye(d, dtype=complex)[None], hw_basis._basis_array(d, "standard", "symmetric")])
        for d, a in zip(dims, alphas)
    ]
    rho_t = rho.matrix.reshape(*dims, *dims)
    spec = (
        _ROW_IDX[:n]
        + _COL_IDX[:n]
        + ","
        + ",".join(_LETTERS[k] + _COL_IDX[k] + _ROW_IDX[k] for k in range(n))
        + "->"
        + _LETTERS[:n]
    )
    w = np.einsum(spec, rho_t, *slabs).real
    if normalization == "rescaled":
        for axis, d in enumerate(dims):
            scale = np.ones(w.shape[axis])
            scale[1:] = np.sqrt(d / 2)
            w = w * scale.reshape([-1 if k == axis else 1 for k in range(n)])
    return CoefficientTensor(w)
