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
        mat = np.array(self.matrix, dtype=complex)
        dims = check_dims(self.dims, 1)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if int(np.prod(dims)) != mat.shape[0]:
            raise ValidationError(
                f"dims {dims} imply dimension {int(np.prod(dims))}, matrix is {mat.shape[0]}x{mat.shape[0]}"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise ValidationError("density matrix contains non-finite entries")
        herm_dev = np.abs(mat - mat.conj().T).max()
        if herm_dev > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {tr}, expected 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
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
    """Sum of singular values of ``m``; for a stack of matrices (..., a, b), an array of the sums."""
    try:
        sums = np.linalg.svd(np.asarray(m), compute_uv=False).sum(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular value computation failed: {exc}") from exc
    return float(sums) if sums.ndim == 0 else sums


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; for a stack (..., d, d), per matrix.

    Raises
    ------
    ValidationError
        If ``m`` is not Hermitian within ``HERMITICITY_TOL``.
    """
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - m.swapaxes(-1, -2).conj()).max()
    if dev > HERMITICITY_TOL:
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
