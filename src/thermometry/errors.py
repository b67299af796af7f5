"""Exception types and the input checks shared by every loader and CLI handler."""

import math
import numbers

INT64_MAX = (1 << 63) - 1


class InputFormatError(ValueError):
    """A structured input (spectrum / gap-family / config / sample dict) is malformed.

    Raised by the ``*_from_dict`` loaders; distinct from plain ``ValueError``
    so the CLI can map format problems and numeric-validation problems to
    different exit codes.
    """


class DegenerateExperimentError(RuntimeError):
    """A simulation could not produce a usable result.

    Raised when the ABORT policy hits a degenerate (boundary or
    non-invertible) sample, or when every trial of a run was excluded.
    """


def require(data: dict, key: str, what: str):
    """``data[key]``; a missing field raises InputFormatError naming ``what``."""
    if key not in data:
        raise InputFormatError(f"{what} is missing the '{key}' field")
    return data[key]


def number(value, name: str) -> float:
    """A JSON number (not bool) as float, else InputFormatError; OverflowError past floats."""
    if type(value) is float:  # what JSON gives; skips the costly numbers.Real check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputFormatError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(f"{name} is beyond the float range") from None


def integer(value, name: str) -> int:
    """A JSON integer (not bool) as int, else InputFormatError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputFormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


def at_least(value: int, minimum: int, name: str) -> int:
    """``value`` if it is >= ``minimum``, else ValueError."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def int64(value: int, name: str) -> int:
    """``value`` if it fits a signed 64-bit integer, else OverflowError naming ``name``."""
    if value > INT64_MAX:
        raise OverflowError(f"{name} must be <= {INT64_MAX}, got {value}")
    return value


def positive(x, name: str) -> float:
    """``x`` as a finite float > 0, else ValueError."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return x


def positive_interval(pair, name: str) -> tuple[float, float]:
    """``pair`` as floats (lo, hi) with 0 < lo < hi, both finite, else ValueError."""
    lo, hi = float(pair[0]), float(pair[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0.0 or lo >= hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got {pair!r}")
    return lo, hi


def temperature_power(T: float, n: int, name: str = "temperature") -> float:
    """T^n for n = -1, 2 or 4 (the scale of a log weight, an SLD, a floor or F); ValueError
    naming ``name`` off the float range. ``1 / T``, ``T * T`` and ``T**4`` keep the formulas' bits.
    """
    try:
        power = 1.0 / T if n == -1 else T * T if n == 2 else T**n
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"{name} {T!r} is out of range: T^{n} under- or overflows")
    return power
