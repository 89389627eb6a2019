"""Heisenberg-Weyl displacement operators and the Hermitian observable basis.

The displacement operators on a d-level system are

    D(l, m) = sum_k exp(2 pi i k l / d) |k><(k+m) mod d|,    l, m = 0..d-1,

and Hermitian observables are built from them as

    Q(l, m) = chi(l, m) D(l, m) + conj(chi(l, m)) D(l, m)^dag.

Two phase conventions for chi are provided:

``symmetric`` (default)
    chi(l, m) = (1+i)/2 * exp(i pi l m / d).  Equivalent to using the
    symmetrized displacements  exp(i pi l m / d) D(l, m),  which satisfy
    D_sym(l, m)^dag = D_sym(-l, -m).  The resulting d^2 - 1 observables
    (l, m) != (0, 0) are traceless, Hermitian and mutually orthogonal,
    Tr{Q(l,m) Q(l',m')} = d delta_ll' delta_mm'.  For d = 2 they are
    (sigma_x, sigma_z, -sigma_y).  All separability criteria in this
    package rely on this orthogonality and use this convention.

``plain``
    chi = (1+i)/2 with no phase.  This variant reproduces the d = 3 matrix
    list that commonly appears in print, but it is NOT an orthogonal set
    for d >= 3:  Tr{Q(l,m) Q(-l,-m)} = d sin(2 pi l m / d), so e.g. the
    d = 3 pair (1,1), (2,2) has overlap 3 sin(2 pi/3) ~ 2.598.  It is kept
    for cross-checking printed matrices only and must not be fed into the
    Bloch/criteria machinery.

The rescaled normalization multiplies each observable by sqrt(2/d), giving
Tr{Q Q'} = 2 delta delta (the normalization in which generalized Gell-Mann
bases are usually written).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, check_choice, check_whole

NORMALIZATIONS = ("standard", "rescaled")
CONVENTIONS = ("symmetric", "plain")


def _check_indices(d, l, m) -> tuple[int, int, int]:
    """(d, l, m) as ints; raises ValidationError unless d >= 2 and l, m lie in 0..d-1."""
    d, l, m = check_whole(d, 2, "dimension"), check_whole(l, 0, "index l"), check_whole(m, 0, "index m")
    if l >= d or m >= d:
        raise ValidationError(f"indices (l, m) = ({l}, {m}) out of range for d = {d}")
    return d, l, m


def displacement(d: int, l: int, m: int) -> np.ndarray:
    """Displacement operator with entries D[k, (k+m) mod d] = exp(2 pi i k l / d)."""
    d, l, m = _check_indices(d, l, m)
    out = np.zeros((d, d), dtype=complex)
    ks = np.arange(d)
    out[ks, (ks + m) % d] = np.exp(2j * np.pi * ks * l / d)
    return out


def observable(
    d: int,
    l: int,
    m: int,
    normalization: str = "standard",
    convention: str = "symmetric",
) -> np.ndarray:
    """Hermitian observable Q(l, m); Q(0, 0) is the identity.

    See the module docstring for the two phase conventions.  With
    ``normalization="rescaled"`` the result carries an extra sqrt(2/d).
    """
    d, l, m = _check_indices(d, l, m)
    check_choice(normalization, NORMALIZATIONS, "normalization")
    check_choice(convention, CONVENTIONS, "convention")
    if (l, m) == (0, 0):
        return np.eye(d, dtype=complex)
    chi = (1 + 1j) / 2
    if convention == "symmetric":
        chi = chi * np.exp(1j * np.pi * l * m / d)
    disp = displacement(d, l, m)
    q = chi * disp + np.conj(chi) * disp.conj().T
    if normalization == "rescaled":
        q = np.sqrt(2 / d) * q
    return q


def basis_labels(d: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (l, m) != (0, 0) in the canonical row-major order."""
    return tuple((l, m) for l in range(d) for m in range(d) if (l, m) != (0, 0))


@lru_cache(maxsize=None)
def _basis_array(d: int, normalization: str, convention: str) -> np.ndarray:
    arr = np.array([observable(d, l, m, normalization, convention) for l, m in basis_labels(d)])
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HWObservableBasis:
    """The d^2 - 1 ordered observables Q(l, m), (l, m) != (0, 0)."""

    dim: int
    normalization: str
    convention: str
    elements: np.ndarray  # shape (d^2 - 1, d, d), read-only
    labels: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)


def basis(d: int, normalization: str = "standard", convention: str = "symmetric") -> HWObservableBasis:
    """Full observable basis for dimension ``d`` in the canonical ordering."""
    d, _, _ = _check_indices(d, 0, 0)
    check_choice(normalization, NORMALIZATIONS, "normalization")
    check_choice(convention, CONVENTIONS, "convention")
    return HWObservableBasis(
        dim=d,
        normalization=normalization,
        convention=convention,
        elements=_basis_array(d, normalization, convention),
        labels=basis_labels(d),
    )


def verify_orthogonality(d: int, normalization: str = "standard", convention: str = "symmetric") -> float:
    """Max deviation of Tr{Q Q'} from its target Gram matrix.

    The target is d * identity for the standard normalization and
    2 * identity for the rescaled one.
    """
    b = basis(d, normalization, convention)
    gram = np.einsum("aij,bji->ab", b.elements, b.elements).real
    target = (b.dim if normalization == "standard" else 2.0) * np.eye(len(b))
    return float(np.abs(gram - target).max())
