"""Reproducible Wiener increments and one-step maps for state-driven noise.

Every trajectory draws a single scalar Wiener process; one increment per time
step is shared by all cells.  Paths are generated at a fixed fine resolution
and coarsened by summation, so runs at different step sizes driven by the same
seed see the same underlying path (the coupling that makes strong-error
ladders meaningful).

Sampling convention (fixed for bit-reproducibility across runs and workers):
the Philox counter-based generator is keyed directly by the seed, uniforms are
(k + 1/2) / 2^53 with k a 53-bit draw (open interval), normals come from the
inverse CDF, and increment i is sqrt(dt_fine) * xi_i.  Aggregation of fine
increments into coarse ones is strict left-to-right summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, ResourceLimit
from .grid import FieldState

_NOISE_KINDS = ("linear", "constant")

#: default ceiling on fine increments per path (~80 MB of float64)
MAX_PATH_STEPS = 10_000_000


def _shaped_like(c, value: float):
    shape = np.shape(c)
    return np.full(shape, value) if shape else float(value)


@dataclass(frozen=True)
class NoiseAmplitude:
    """Noise amplitude sigma(c) and its derivative.

    linear:   sigma(c) = lam * c,  sigma'(c) = lam
    constant: sigma(c) = lam,      sigma'(c) = 0
    """

    kind: str = "linear"
    lam: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.lam < 0.0:
            raise ConfigError(f"lam must be non-negative, got {self.lam}")

    def __call__(self, c):
        if self.kind == "linear":
            return self.lam * c
        return _shaped_like(c, self.lam)

    def deriv(self, c):
        if self.kind == "linear":
            return _shaped_like(c, self.lam)
        return _shaped_like(c, 0.0)


def whole_steps(value: float, base: float) -> int | None:
    """How many whole steps of size `base` make up `value`; None when `value`
    is not an integer multiple of `base` up to rounding."""
    k = round(value / base)
    if abs(k * base - value) > 1e-9 * max(value, base):
        return None
    return k


def _left_to_right_sum(a: np.ndarray) -> float:
    # cumsum accumulates sequentially; the documented aggregation order
    return float(np.cumsum(a)[-1]) if a.size else 0.0


@dataclass(frozen=True)
class NoisePath:
    """Wiener increments of one seed at the fine resolution."""

    seed: int
    dt_fine: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        inc = np.array(self.increments, dtype=np.float64)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return int(self.increments.size)

    @property
    def t_end(self) -> float:
        return self.n_steps * self.dt_fine

    def increment_over(self, k_start: int, k_stop: int) -> float:
        """Increment over fine steps [k_start, k_stop), summed left to right."""
        if not (0 <= k_start <= k_stop <= self.n_steps):
            raise ValueError(f"fine-step range [{k_start}, {k_stop}) outside the path")
        return _left_to_right_sum(self.increments[k_start:k_stop])

    @property
    def total(self) -> float:
        """W(t_end), by the same aggregation order."""
        return self.increment_over(0, self.n_steps)


def generate_path(seed: int, t_end: float, dt_fine: float,
                  max_steps: int = MAX_PATH_STEPS) -> NoisePath:
    """Draw the fine-resolution increments of stream `seed` over [0, t_end].

    The path depends only on (seed, t_end, dt_fine); the noise amplitude never
    enters.  Distinct seeds key distinct Philox streams, so there is no
    cross-stream reuse between workers.
    """
    if seed < 0 or int(seed) != seed:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if dt_fine <= 0.0:
        raise ConfigError(f"dt_fine must be positive, got {dt_fine}")
    if t_end < 0.0:
        raise ConfigError(f"t_end must be non-negative, got {t_end}")
    n = whole_steps(t_end, dt_fine)
    if n is None:
        raise ConfigError(
            f"t_end {t_end} is not a multiple of dt_fine {dt_fine}"
        )
    if n > max_steps:
        raise ResourceLimit(
            f"path of {n} increments exceeds the cap of {max_steps}"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    draws = rng.integers(0, 2**53, size=n, dtype=np.uint64)
    uniforms = (draws.astype(np.float64) + 0.5) / 2**53
    xi = ndtri(uniforms)
    return NoisePath(int(seed), float(dt_fine), np.sqrt(dt_fine) * xi)


def coarsen(path: NoisePath, factor: int) -> np.ndarray:
    """Increments at resolution factor * dt_fine, each the left-to-right sum
    of the fine increments it covers."""
    if factor < 1 or int(factor) != factor:
        raise ConfigError(f"coarsening factor must be a positive integer, got {factor}")
    n = path.n_steps
    if n % factor != 0:
        raise ConfigError(f"factor {factor} does not divide path length {n}")
    if factor == 1:
        return path.increments.copy()
    blocks = path.increments.reshape(n // factor, factor)
    return np.cumsum(blocks, axis=1)[:, -1]


def stochastic_update(base, lin, sigma: NoiseAmplitude, dw: float, dt: float,
                      kind: str):
    """EM (kind "em") or Milstein update of `base`, linearized at `lin`:
    base + sigma(lin) dW [+ (1/2) sigma(lin) sigma'(lin) (dW^2 - dt)]."""
    amp = sigma(lin)
    if kind == "em":
        return base + amp * dw
    return base + amp * dw + 0.5 * amp * sigma.deriv(lin) * (dw * dw - dt)


def em_step(c, sigma: NoiseAmplitude, dw: float):
    """Euler-Maruyama update c + sigma(c) dW.

    Accepts scalars, arrays or a FieldState; time bookkeeping belongs to the
    caller, so a FieldState keeps its time stamp.
    """
    if isinstance(c, FieldState):
        return c.with_values(em_step(c.values, sigma, dw))
    return stochastic_update(c, c, sigma, dw, 0.0, "em")


def milstein_step(c, sigma: NoiseAmplitude, dw: float, dt: float):
    """Milstein update c + sigma(c) dW + (1/2) sigma(c) sigma'(c) (dW^2 - dt)."""
    if isinstance(c, FieldState):
        return c.with_values(milstein_step(c.values, sigma, dw, dt))
    return stochastic_update(c, c, sigma, dw, dt, "milstein")


def exact_linear_sde(c0, lam: float, w_t: float, t: float):
    """Closed-form solution of dX = lam * X dW:  c0 * exp(lam W_t - lam^2 t / 2)."""
    if lam < 0.0:
        raise ConfigError(f"lam must be non-negative, got {lam}")
    if t < 0.0:
        raise ConfigError(f"t must be non-negative, got {t}")
    return c0 * np.exp(lam * w_t - 0.5 * lam * lam * t)
