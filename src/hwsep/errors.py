"""Exception types, and the one parser of each kind of input: every count, index and dimension
(``check_whole``), party subset, choice and weight.  A bool is none of them, although ``True == 1``."""

import math
import numbers

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


def check_weight(weight) -> float:
    """``weight`` as a float; raises ValidationError unless it is a finite, nonnegative real number, not a bool."""
    # isinstance(weight, float) first: the numbers.Real check is slower, and most weights are floats
    real = isinstance(weight, float) or (isinstance(weight, numbers.Real) and not isinstance(weight, bool))
    if not (real and weight >= 0 and math.isfinite(weight)):
        raise ValidationError(f"weights must be finite, nonnegative real numbers, got {weight!r}")
    return float(weight)


def check_weights(weights) -> tuple[float, ...]:
    """Each of the weights through ``check_weight``."""
    try:
        weights = tuple(weights)
    except TypeError:
        raise ValidationError(f"weights must be a sequence of numbers, got {weights!r}") from None
    return tuple(map(check_weight, weights))
