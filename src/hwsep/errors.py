"""Exception types, and the one parser of each kind of input: every count, index and dimension
(``check_whole``), m within float range (``check_m``), list of dims, party subset, choice, real number
and weight.  A bool is none of them, although ``True == 1``."""

import math
import numbers
import sys

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented contract (bad dims, non-Hermitian, ...)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


def check_whole(value, minimum: int = 0, name: str = "m") -> int:
    """``value`` as an int; raises ValidationError unless it is a finite whole number >= ``minimum`` (not a bool)."""
    try:
        whole = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):  # None, text, NaN, infinities
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise ValidationError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole


def check_m(value, minimum: int = 0) -> int:
    """``value`` as ``check_whole`` reads it, refused also past float range: every separable bound is a float in m."""
    if (m := check_whole(value, minimum)) > sys.float_info.max:
        raise ValidationError(f"m must lie within float range, got a whole number of {m.bit_length()} bits")
    return m


def check_dims(dims, minimum: int) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; raises ValidationError unless a nonempty collection of whole numbers >= minimum."""
    try:  # a plain loop: every DensityMatrix reads its dims here
        whole = tuple([check_whole(d, minimum, "subsystem dimension") for d in dims])
    except TypeError:  # not a collection
        raise ValidationError(f"dims must be a collection of subsystem dimensions, got {dims!r}") from None
    if not whole:
        raise ValidationError("dims must name at least one subsystem, got none")
    return whole


def check_parties(parties, n: int) -> tuple[int, ...]:
    """``parties`` sorted and without repeats; raises ValidationError unless it is a nonempty proper subset of 1..n."""
    try:
        subset = sorted({check_whole(p, 1, "party index") for p in parties})
    except TypeError:  # not a collection
        raise ValidationError(f"parties must be a collection of party indices, got {parties!r}") from None
    if not subset or len(subset) == n:
        raise ValidationError(f"parties must be a nonempty proper subset of 1..{n}, got {subset}")
    if subset[-1] > n:
        raise ValidationError(f"party indices must lie in 1..{n}, got {subset}")
    return tuple(subset)


def check_choice(value, allowed: tuple, what: str):
    """The element of ``allowed`` equal to ``value``; raises ValidationError if there is none (a bool is none)."""
    if not isinstance(value, (bool, np.bool_)):  # True == 1, but a flag is not an index
        try:
            return allowed[allowed.index(value)]
        except ValueError:  # not among them, or not comparable with them
            pass
    raise ValidationError(f"unknown {what} {value!r}, expected one of {allowed}")


def _finite(value) -> bool:
    """A finite real number, not a bool."""
    # isinstance(value, float) first: the numbers.Real check is slower, and most values are floats
    if not (isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def check_real(value, what: str) -> float:
    """``value`` as a float; raises ValidationError naming ``what`` unless it is a finite real number, not a bool."""
    if not _finite(value):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def check_weight(weight) -> float:
    """``weight`` as a float; raises ValidationError unless it is a finite, nonnegative real number, not a bool."""
    if not (_finite(weight) and weight >= 0):
        raise ValidationError(f"weights must be finite, nonnegative real numbers, got {weight!r}")
    return float(weight)


def check_weights(weights) -> tuple[float, ...]:
    """Each of the weights through ``check_weight``."""
    try:
        weights = tuple(weights)
    except TypeError:
        raise ValidationError(f"weights must be a sequence of numbers, got {weights!r}") from None
    return tuple(map(check_weight, weights))
