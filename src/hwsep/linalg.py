"""Dense complex matrix kernel.

Everything here works on plain ``numpy`` arrays of complex doubles; matrices
are dense, from 2x2 up to about a million entries (GHZ-10 is 1024x1024), so
dense routines from ``numpy.linalg`` are used throughout.  Quantum states
are wrapped in :class:`DensityMatrix`, which validates the usual contracts
(Hermitian, unit trace, positive semidefinite) at construction time and
records how the total space factors into subsystems.  ``require_state`` is
the one check that a subject is a state; ``require_parties`` adds its parties.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_choice, check_dims

# Absolute tolerances for state validation.  All states handled here have
# exact rational/surd entries, so machine precision leaves ample headroom.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state on a tensor product of subsystems.

    Parameters
    ----------
    matrix : ndarray
        D x D complex matrix with D = prod(dims).
    dims : tuple of int
        Ordered subsystem dimensions (d_1, ..., d_N).
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        raw = self.matrix
        if not isinstance(raw, np.ndarray) or raw.dtype == object:  # entry by entry: NumPy reads True among numbers as 1
            raw = np.asarray(raw, dtype=object)
            for x in raw.flat:
                if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Number):
                    raise ValidationError(f"density matrix entries must be numbers, not {type(x).__name__}")
        if raw.dtype.kind in "bUS":  # a bool or text array; a numeric array takes no pass over its entries
            raise ValidationError(f"density matrix entries must be numbers, not {raw.dtype}")
        try:
            mat = np.array(raw, dtype=complex)
        except OverflowError:  # an int past float range
            raise ValidationError("density matrix contains non-finite entries") from None
        dims = check_dims(self.dims, 1)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if (size := math.prod(dims)) != mat.shape[0]:  # exact: an int64 product of huge dims wraps
            raise ValidationError(f"dims {dims} imply dimension {size}, matrix is {mat.shape[0]}x{mat.shape[0]}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValidationError("density matrix contains non-finite entries")
        min_eig = float(eig_hermitian(mat)[0])  # the Hermitian test, before the trace and PSD tests
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {tr}, expected 1")
        if min_eig < -PSD_TOL:
            raise ValidationError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.matrix.shape[0]

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def require_state(rho, what) -> None:
    """Raises ValidationError, naming ``what`` (formatted only then), unless rho is a DensityMatrix."""
    if not isinstance(rho, DensityMatrix):
        raise ValidationError(f"{what} needs a DensityMatrix, got {type(rho).__name__}")


def require_parties(rho: DensityMatrix, n: int, what) -> None:
    """Raises ValidationError, naming ``what`` (formatted only then), unless rho is a DensityMatrix of n parties."""
    require_state(rho, what)
    if len(rho.dims) != n:
        raise ValidationError(f"{what} needs a state of {n} parties, got dims {rho.dims}")


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of singular values of ``m``; for a stack of matrices (..., a, b), an array of the sums (finite m only).
    A wide m (a < b) goes to the SVD as its transposed view: LAPACK's tall path is faster; m, m.T give the same bits."""
    m = np.asarray(m)
    tall = m.swapaxes(-1, -2) if m.ndim > 1 and m.shape[-2] < m.shape[-1] else m
    try:
        sums = np.linalg.svd(tall, compute_uv=False).sum(axis=-1)
    except np.linalg.LinAlgError as exc:  # a NaN fails to converge
        if not np.isfinite(m).all():
            raise ValidationError("trace_norm requires finite entries") from None
        raise NumericalError(f"singular value computation failed: {exc}") from exc
    if not np.isfinite(sums).all():  # an infinite entry gives NaN singular values
        raise ValidationError("trace_norm requires finite entries and a trace norm within float range")
    return float(sums) if sums.ndim == 0 else sums


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; for a stack (..., d, d), per matrix.

    Raises
    ------
    ValidationError
        If ``m`` is not Hermitian within ``HERMITICITY_TOL``, or holds a non-finite entry (a NaN deviation).
    """
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN deviation, an overflow an infinite one
        dev = np.abs(m - m.swapaxes(-1, -2).conj()).max()
    if not dev <= HERMITICITY_TOL:
        raise ValidationError(f"eig_hermitian requires a Hermitian matrix, deviation {dev:.3e}")
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def partial_transpose(rho: DensityMatrix, subsystem: int = 2) -> np.ndarray:
    """Transpose the chosen tensor factor of a bipartite state.

    ``subsystem`` is 1-based.  The result is Hermitian but in general not
    positive, so a bare matrix is returned.
    """
    require_parties(rho, 2, "partial_transpose")
    subsystem = check_choice(subsystem, (1, 2), "subsystem")
    d1, d2 = rho.dims
    r4 = rho.matrix.reshape(d1, d2, d1, d2)
    axes = (2, 1, 0, 3) if subsystem == 1 else (0, 3, 2, 1)
    return r4.transpose(axes).reshape(d1 * d2, d1 * d2)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one factor of a bipartite state (``keep`` is 1-based)."""
    require_parties(rho, 2, "partial_trace")
    keep = check_choice(keep, (1, 2), "subsystem")
    d1, d2 = rho.dims
    r4 = rho.matrix.reshape(d1, d2, d1, d2)
    red = np.einsum("ijkj->ik", r4) if keep == 1 else np.einsum("ijil->jl", r4)
    return DensityMatrix(red, (len(red),))
