"""Shared exception types, and the one gate of each validation rule: a
number that meets a test (positive and finite among them), a named kind, a
whole number in a range, and entries without repeats.  A gate refuses a
value that is not a number, such as None or a string, with the same
ConfigError as a number that breaks its rule."""

import math
import numbers
from collections import Counter

import numpy as np


class ConfigError(ValueError):
    """A run configuration or operation argument is invalid."""


def check_number(value, holds, name: str, rule: str) -> None:
    """Raise ConfigError "`name` must `rule`" unless `holds(value)` is true;
    a value that `holds` cannot compare or test as a number is refused the
    same way, not with a TypeError."""
    try:
        if holds(value):
            return
    except TypeError:
        pass
    raise ConfigError(f"{name} must {rule}, got {value!r}")


def is_positive(value) -> bool:
    """0 < value < inf, so NaN and infinities fail."""
    return 0.0 < value < math.inf


def is_non_negative(value) -> bool:
    """0 <= value < inf, so NaN and infinities fail."""
    return 0.0 <= value < math.inf


def is_finite(value) -> bool:
    """A finite real number: not NaN, an infinity, a bool (Python's or
    numpy's), a complex number or a sequence, whatever its entries."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_positive(value, name: str) -> None:
    """Raise ConfigError naming `name` unless 0 < value < inf."""
    check_number(value, is_positive, name, "be positive and finite")


def check_kind(value, allowed, what: str) -> None:
    """Raise ConfigError naming `what` unless `value` is one of `allowed`."""
    if value not in allowed:
        raise ConfigError(f"unknown {what} {value!r}")


def check_whole(value, low, high, rule: str) -> int:
    """`value` as an int, or ConfigError stating `rule` unless it is a whole
    number with low <= value < high.  An integral float counts as whole and
    a bool (Python's or numpy's) does not; the range is compared first, so
    NaN and infinities are refused before `int`, and a value that does not
    compare as a number is refused too."""
    try:
        if (not isinstance(value, (bool, np.bool_))
                and low <= value < high and int(value) == value):
            return int(value)
    except TypeError:
        pass
    raise ConfigError(f"{rule}, got {value}")


def check_unique(values, what: str) -> None:
    """Raise ConfigError naming `what` and the repeated entries, sorted, if
    any entry of `values` appears twice; one pass, however many entries."""
    dupes = sorted(v for v, n in Counter(values).items() if n > 1)
    if dupes:
        raise ConfigError(f"duplicate {what} {dupes}")


class CflViolation(RuntimeError):
    """An explicit transport step was attempted above its stability bound."""

    def __init__(self, dt: float, admissible: float):
        super().__init__(
            f"time step {dt:g} exceeds the admissible explicit step {admissible:g}"
        )
        self.dt = dt
        self.admissible = admissible


class ResourceLimit(RuntimeError):
    """A requested allocation exceeds the configured cap."""
