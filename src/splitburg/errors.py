"""Shared exception types, and the one gate of each validation rule: a
number that meets a test (positive and finite among them), a dt ladder, a
named kind, a whole number in a range, a value of a type, and entries
without repeats.

`is_finite` is the one definition of a number, and every numeric gate is
built on it: a finite real that is not a bool (Python's or numpy's) and not
an int too large for a float.  A gate refuses anything else, such as None, a
string, `True` or 10**400, with the same ConfigError naming the field as a
number that breaks its rule."""

import math
import numbers
from collections import Counter


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


def is_finite(value) -> bool:
    """A finite real number: not NaN, an infinity, a bool (Python's or
    numpy's), a complex number, a string, None or a sequence, whatever its
    entries.  An int too large for a float gives False, not an
    OverflowError."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def is_positive(value) -> bool:
    """A finite number above 0 (`is_finite`)."""
    return is_finite(value) and value > 0.0


def is_non_negative(value) -> bool:
    """A finite number at or above 0 (`is_finite`)."""
    return is_finite(value) and value >= 0.0


def check_positive(value, name: str) -> None:
    """Raise ConfigError naming `name` unless 0 < value < inf."""
    check_number(value, is_positive, name, "be positive and finite")


def check_ladder(dts, name: str) -> None:
    """Raise ConfigError naming `name` unless every entry of the sequence
    `dts` is positive and finite and the entries strictly decrease: the one
    rule of a dt ladder, for a study and for an order fit alike."""
    for dt in dts:
        check_positive(dt, name)
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ConfigError(f"{name} must be strictly decreasing")


def check_kind(value, allowed, what: str) -> None:
    """Raise ConfigError naming `what` unless `value` is one of `allowed`; a
    value that cannot be looked up, such as a list, is an unknown kind too."""
    try:
        if value in allowed:
            return
    except TypeError:
        pass
    raise ConfigError(f"unknown {what} {value!r}")


def check_type(value, kind: type, name: str) -> None:
    """Raise ConfigError naming `name` unless `value` is a `kind`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")


def check_whole(value, low, high, rule: str) -> int:
    """`value` as an int, or ConfigError stating `rule` unless it is a
    number (`is_finite`) that is whole, with low <= value < high.  An
    integral float counts as whole."""
    if is_finite(value) and low <= value < high and int(value) == value:
        return int(value)
    raise ConfigError(f"{rule}, got {value!r}")


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
