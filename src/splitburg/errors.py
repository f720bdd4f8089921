"""Shared exception types, and the one positive-and-finite gate."""

import math


class ConfigError(ValueError):
    """A run configuration or operation argument is invalid."""


def check_positive(value, name: str) -> None:
    """Raise ConfigError naming `name` unless 0 < value < inf, so NaN and
    infinities are refused."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


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
