"""Example states and randomized test-state constructors.

Randomness comes from ``numpy.random.default_rng`` (PCG64) seeded per call,
so every constructor is a pure function of its arguments: a fixed seed gives
bit-identical output across runs.

A ``StateFamily`` is either affine, given by two endpoint states that are
validated once (``horodecki_mix_family`` is one), or generator-only.  Scans
of an affine family work on the endpoints alone; a generator-only family
gives its states, one per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError, check_dims, check_real, check_whole
from .linalg import DensityMatrix, require_state


@dataclass(frozen=True)
class SeparableEnsemble:
    """Explicit convex combination of product pure states.

    ``factors[i]`` holds the per-party unit vectors of term i; the assembled
    state sum_i p_i |psi_i^(1) ... psi_i^(N)><...| is separable by
    construction.
    """

    dims: tuple[int, ...]
    weights: np.ndarray
    factors: tuple[tuple[np.ndarray, ...], ...]

    def assemble(self) -> DensityMatrix:
        total = int(np.prod(self.dims))
        rho = np.zeros((total, total), dtype=complex)
        for p, vecs in zip(self.weights, self.factors):
            psi = vecs[0]
            for v in vecs[1:]:
                psi = (psi[:, None] * v).ravel()  # the Kronecker product of two vectors
            rho += p * (psi[:, None] * psi.conj())
        return DensityMatrix(rho, self.dims)


@dataclass(frozen=True)
class StateFamily:
    """One-parameter family x in [0, 1] -> DensityMatrix.

    A family has exactly one of a ``generator`` (any callable x -> state)
    or two ``endpoints`` (rho0, rho1) of equal dims, which make it the
    affine family x -> x rho1 + (1-x) rho0 (``mix(x, rho1, rho0)``).  The
    endpoints are validated once, at construction, and ``scan_threshold``
    scans an affine family on its endpoints alone.
    """

    name: str
    params: dict = field(default_factory=dict)
    generator: Callable[[float], DensityMatrix] | None = None
    endpoints: tuple[DensityMatrix, DensityMatrix] | None = None

    def __post_init__(self):
        if (self.generator is None) == (self.endpoints is None):
            raise ValidationError(f"family {self.name!r} needs exactly one of a generator or endpoints")
        if self.generator is not None and not callable(self.generator):
            raise ValidationError(f"family {self.name!r}: generator must be callable")
        if self.endpoints is not None:
            ends = tuple(self.endpoints) if isinstance(self.endpoints, (tuple, list)) else ()
            if len(ends) != 2:
                raise ValidationError(f"family {self.name!r}: endpoints must be two DensityMatrix")
            for end in ends:
                require_state(end, f"family {self.name!r}: each endpoint")
            if ends[0].dims != ends[1].dims:
                dims = f"{ends[0].dims} and {ends[1].dims}"
                raise ValidationError(f"family {self.name!r}: endpoint dims {dims} differ")
            object.__setattr__(self, "endpoints", ends)

    def state(self, x: float) -> DensityMatrix:
        if self.generator is not None:
            rho = self.generator(x)
            require_state(rho, f"family {self.name!r} at x = {x}")
            return rho
        rho0, rho1 = self.endpoints
        return mix(x, rho1, rho0)

    def describe(self) -> dict:
        return {"family": self.name, **self.params}


def horodecki_2x4(b: float) -> DensityMatrix:
    """The 2x4 bound entangled state with parameter 0 < b < 1.

    PPT for every b in (0, 1) yet entangled, which makes it the standard
    hard case for correlation-based criteria.
    """
    b = check_real(b, "b")
    if not 0 < b < 1:
        raise ValidationError(f"b must lie in (0, 1), got {b}")
    mat = np.zeros((8, 8))
    for i in range(3):
        mat[i, i] = mat[i + 5, i + 5] = b
        mat[i, i + 5] = mat[i + 5, i] = b
    mat[3, 3] = b
    mat[4, 4] = mat[7, 7] = (1 + b) / 2
    c = np.sqrt(1 - b * b) / 2
    mat[4, 7] = mat[7, 4] = c
    return DensityMatrix(mat / (7 * b + 1), (2, 4))


def xi_state() -> DensityMatrix:
    """Pure state (|0>|0> + |1>|1>)/sqrt(2) in C^2 x C^4."""
    psi = np.zeros(8)
    psi[0] = psi[5] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi), (2, 4))


def mix(x: float, sigma: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Convex combination x*sigma + (1-x)*rho."""
    x = check_real(x, "mixing weight")
    if not 0 <= x <= 1:
        raise ValidationError(f"mixing weight must lie in [0, 1], got {x}")
    require_state(sigma, "mix")
    require_state(rho, "mix")
    if sigma.dims != rho.dims:
        raise ValidationError(f"dimension mismatch: {sigma.dims} vs {rho.dims}")
    return DensityMatrix(x * sigma.matrix + (1 - x) * rho.matrix, rho.dims)


def horodecki_mix_family(b: float) -> StateFamily:
    """x -> x |xi><xi| + (1-x) * horodecki_2x4(b), as the affine family between those endpoints."""
    rho = horodecki_2x4(b)  # reads b before float(b), which would take text such as "0.5"
    return StateFamily(name="horodecki-mix", params={"b": float(b)}, endpoints=(rho, xi_state()))


def ghz(n: int) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = check_whole(n, 2, "ghz's n")
    psi = np.zeros(2**n)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(psi, psi), (2,) * n)


def product(factors) -> DensityMatrix:
    """Tensor product of density matrices."""
    factors = list(factors)
    if not factors:
        raise ValidationError("product requires at least one factor")
    for f in factors:
        require_state(f, "product")
    mat = factors[0].matrix
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        mat = np.kron(mat, f.matrix)
        dims = dims + f.dims
    return DensityMatrix(mat, dims)


def _unit_vectors(draws: np.ndarray, dims) -> tuple[np.ndarray, ...]:
    """One unit vector per party from a row of normal draws: d real parts, then d imaginary parts, per party."""
    vecs, start = [], 0
    for d in dims:
        v = draws[start : start + d] + 1j * draws[start + d : start + 2 * d]
        vecs.append(v / np.linalg.norm(v))
        start += 2 * d
    return tuple(vecs)


def random_pure(d: int, seed) -> DensityMatrix:
    """Haar-random pure state as a density matrix."""
    d = check_whole(d, 2, "dimension")
    (v,) = _unit_vectors(np.random.default_rng(check_whole(seed, 0, "seed")).standard_normal(2 * d), (d,))
    return DensityMatrix(np.outer(v, v.conj()), (d,))


def random_density(d: int, seed) -> DensityMatrix:
    """Random full-rank mixed state G G^dag / Tr(G G^dag)."""
    d = check_whole(d, 2, "dimension")
    rng = np.random.default_rng(check_whole(seed, 0, "seed"))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real, (d,))


def random_separable(dims, k_terms: int, seed) -> tuple[SeparableEnsemble, DensityMatrix]:
    """Random separable state as k_terms product pure states.

    Weights are Dirichlet(1, ..., 1) distributed, realized as normalized
    exponential draws.
    """
    dims = check_dims(dims, 2)
    k_terms = check_whole(k_terms, 1, "k_terms")
    if k_terms * 2 * sum(dims) * 8 > np.iinfo(np.intp).max:  # the bytes of its normal draws
        raise ValidationError(f"k_terms {k_terms} draws more normals than one array can hold")
    rng = np.random.default_rng(check_whole(seed, 0, "seed"))
    weights = rng.exponential(size=k_terms)
    weights /= weights.sum()
    # every vector's draws in one call, in the order of one call per real or imaginary part
    factors = tuple(_unit_vectors(row, dims) for row in rng.standard_normal((k_terms, 2 * sum(dims))))
    ensemble = SeparableEnsemble(dims=dims, weights=weights, factors=factors)
    return ensemble, ensemble.assemble()
