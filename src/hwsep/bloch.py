"""Bloch decompositions over the Heisenberg-Weyl observable basis.

A single d-level state expands as

    rho = (1/d) (I + sum_lm r_lm Q(l, m)),

with r_lm = Tr(rho Q(l,m)) in the standard normalization.  In the rescaled
normalization the coefficients are defined by the same expansion written in
the rescaled basis Q' = sqrt(2/d) Q, i.e. r'_lm = (d/2) Tr(rho Q'(l,m))
= sqrt(d/2) r_lm; pure states then satisfy ||r'|| = sqrt(d(d-1)/2) instead
of ||r|| = sqrt(d-1).

Every decomposition here is one object: the N-way coefficient tensor with
entries Tr(rho O_{a_1} x ... x O_{a_N}), where axis k runs over the d_k^2
operator slots [I, Q(l,m)...] of party k, and the rescaled normalization
multiplies the Q slots of axis k by sqrt(d_k/2).  ``_coefficients`` builds
it by contracting rho one party at a time, for any number of parties of
dimension 2 or more.  A single system's Bloch vector is its slots 1.., and
a bipartite state's d1^2 x d2^2 tensor holds the local vectors r (column
0), s (row 0) and the correlation matrix T.  ``weighted`` scales the
identity slot of each axis by a weight: two parties with weights (beta,
alpha) give the paper's S matrix, N parties with alpha_k give its
coefficient tensor W.  The paper stacks m identity slots per axis; they are
copies of one another, so its matricizations have the same trace norms as
those of the one-slot tensor with weights sqrt(m) alpha_k, which is what
``criteria`` builds: ``make_check("thm2", alphas=..., m=1).linear(rho)``
returns W with its separable bound, and an S row's ``linear`` returns S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import hw_basis
from .errors import ValidationError, check_choice
from .linalg import DensityMatrix, require_parties


@lru_cache(maxsize=None)
def _slots(d: int) -> np.ndarray:
    """The d^2 operator slots [I, Q(l,m)...] of one party as the columns of a read-only matrix.

    Entry ((i, j), a) is O_a[j, i], so Tr(rho O_a) = sum_ij rho[i, j] O_a[j, i]
    is the row (i, j) of rho times column a.
    """
    ops = np.concatenate([np.eye(d, dtype=complex)[None], hw_basis._basis_array(d, "standard", "symmetric")])
    arr = np.ascontiguousarray(ops.transpose(2, 1, 0).reshape(d * d, d * d))
    arr.setflags(write=False)
    return arr


def _slot_scales(dims, normalization: str) -> list[float]:
    """Per-axis factors sqrt(d/2) on the Q slots in the rescaled normalization; none in the standard one."""
    return [math.sqrt(d / 2) for d in dims] if normalization == "rescaled" else []


def _scale_slots(tensor: np.ndarray, factors, slot) -> np.ndarray:
    """Multiply ``slot`` (an index or slice) of slot axis k of ``tensor`` by factors[k], in place.

    The slot axes are the last len(factors), so a factor may be an array broadcasting over leading stack axes.
    """
    for axis, factor in enumerate(factors, tensor.ndim - len(factors)):
        tensor[(slice(None),) * axis + (slot,)] *= factor
    return tensor


def _coefficients(rho: DensityMatrix, normalization: str) -> np.ndarray:
    """Read-only coefficient tensor of ``rho``, one d_k^2 axis per party (see the module docstring)."""
    check_choice(normalization, hw_basis.NORMALIZATIONS, "normalization")
    dims = rho.dims
    if min(dims) < 2:
        raise ValidationError(f"every party needs dimension >= 2 for a Bloch decomposition, got dims {dims}")
    n = len(dims)
    # rho[i, j] with axes ordered (i_1, j_1, ..., i_N, j_N); each step contracts the
    # leading pair (i_k, j_k) with party k's slots and appends the slot axis a_k.
    t = rho.matrix.reshape(dims * 2).transpose([ax for k in range(n) for ax in (k, n + k)])
    for d in dims:
        t = t.reshape(d * d, -1).T @ _slots(d)
    w = np.ascontiguousarray(t.real).reshape([d * d for d in dims])
    w[(0,) * n] = 1.0  # Tr(rho)
    _scale_slots(w, _slot_scales(dims, normalization), slice(1, None))
    w.setflags(write=False)
    return w


def weighted(tensor: np.ndarray, weights) -> np.ndarray:
    """Copy of a coefficient tensor, or of a stack of them, with the identity slot of axis k scaled by weights[k]."""
    return _scale_slots(np.array(tensor), weights, 0)


@dataclass(frozen=True)
class BlochVector:
    """Real coefficient vector of a single system, canonical (l, m) order."""

    dim: int
    normalization: str
    coeffs: np.ndarray  # length dim^2 - 1

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class BlochDecomposition:
    """Two-party coefficient tensor of a bipartite state, d1^2 x d2^2.

    Entry (0, 0) is 1; the rest of column 0 is the first party's Bloch
    vector r, the rest of row 0 the second party's s, and the remaining
    block the correlation matrix T, whose row index runs over the first
    party's (l, m) pairs and column index over the second party's (k, n).
    ``r``, ``s`` and ``t`` are views of ``tensor``; ``r`` and ``s`` are built once, on first access.
    """

    dims: tuple[int, int]
    normalization: str
    tensor: np.ndarray

    @cached_property
    def r(self) -> BlochVector:
        return BlochVector(self.dims[0], self.normalization, self.tensor[1:, 0])

    @cached_property
    def s(self) -> BlochVector:
        return BlochVector(self.dims[1], self.normalization, self.tensor[0, 1:])

    @property
    def t(self) -> np.ndarray:
        return self.tensor[1:, 1:]


def decompose_single(rho: DensityMatrix, normalization: str = "standard") -> BlochVector:
    """Bloch vector of a single-system state."""
    require_parties(rho, 1, "decompose_single")
    return BlochVector(rho.dims[0], normalization, _coefficients(rho, normalization)[1:])


def purity_from_bloch(r: BlochVector) -> float:
    """Tr(rho^2) recovered from a standard-normalization Bloch vector."""
    if r.normalization != "standard":
        raise ValidationError("purity_from_bloch is defined for the standard normalization only")
    return (1.0 + r.norm**2) / r.dim


def decompose_bipartite(rho: DensityMatrix, normalization: str = "standard") -> BlochDecomposition:
    """Bloch data (r, s, T) of a bipartite state."""
    require_parties(rho, 2, "decompose_bipartite")
    return BlochDecomposition(rho.dims, normalization, _coefficients(rho, normalization))


def reconstruct_bipartite(dec: BlochDecomposition) -> DensityMatrix:
    """Rebuild the state from its Bloch data (inverse of decompose_bipartite).

    rho = (1/(d1 d2)) sum_ab c_ab O_a x O_b over the same slots, since
    Tr(O_a O_a') = d delta_aa' for I and every Q.
    """
    d1, d2 = dec.dims
    if dec.tensor.shape != (d1 * d1, d2 * d2):
        raise ValidationError(f"tensor shape {dec.tensor.shape} does not match dims {dec.dims}")
    inverse = [1 / f for f in _slot_scales(dec.dims, dec.normalization)]
    coeffs = _scale_slots(np.array(dec.tensor), inverse, slice(1, None))
    # entry ((k, i), (l, j)) is sum_ab c_ab O_a[i, k] O_b[j, l] = rho4[i, j, k, l]
    rho4 = (_slots(d1) @ coeffs @ _slots(d2).T).reshape(d1, d1, d2, d2).transpose(1, 3, 0, 2)
    return DensityMatrix(rho4.reshape(d1 * d2, d1 * d2) / (d1 * d2), (d1, d2))

