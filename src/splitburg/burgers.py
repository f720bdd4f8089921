"""Explicit finite-volume transport for the inviscid Burgers equation.

One step of u_t + f(u)_x = 0 on a uniform mesh with the Engquist-Osher
interface flux, plus step-size recommendations for the explicit stability
bounds (deterministic wave-speed bound, noise-amplitude bound, and their
combination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import CflViolation, ConfigError
from .grid import BoundaryKind, FieldState
from .noise import NoiseAmplitude

#: cells with |u| at or below this are excluded from state-dependent bounds;
#: dt_max governs when every cell is excluded
VELOCITY_FLOOR = 1e-12

_FLUX_KINDS = ("burgers_half", "burgers_square", "zero")


@dataclass(frozen=True)
class FluxFunction:
    """Convex flux with minimum at 0 (the form the Engquist-Osher split needs).

    burgers_half:   f(u) = u^2 / 2   (advection speed f'(u) = u)
    burgers_square: f(u) = u^2       (advection speed f'(u) = 2u)
    zero:           f(u) = 0         (transport switched off; test hook)
    """

    kind: str = "burgers_half"

    def __post_init__(self) -> None:
        if self.kind not in _FLUX_KINDS:
            raise ConfigError(f"unknown flux kind {self.kind!r}")

    def __call__(self, u):
        if self.kind == "burgers_half":
            return 0.5 * u * u
        if self.kind == "burgers_square":
            return u * u
        return np.zeros_like(np.asarray(u, dtype=np.float64))

    def deriv(self, u):
        if self.kind == "burgers_half":
            return u
        if self.kind == "burgers_square":
            return 2.0 * u
        return np.zeros_like(np.asarray(u, dtype=np.float64))

    def max_speed(self, u) -> float:
        """Largest |f'(u)| over the given values."""
        d = np.abs(self.deriv(u))
        return float(d.max()) if d.size else 0.0

    def peak_speed(self, peak: float) -> float:
        """Largest |f'(u)| over values whose largest |u| is `peak`; exact,
        since |f'(u)| is |u|, 2|u| or 0."""
        if self.kind == "burgers_half":
            return peak
        if self.kind == "burgers_square":
            return 2.0 * peak
        return 0.0


def engquist_osher_flux(u_left, u_right, flux: FluxFunction = FluxFunction()):
    """Interface flux F(a, b) = f(max(a, 0)) + f(min(b, 0)).

    Closed form of the Engquist-Osher flux for a convex flux whose minimum
    sits at 0; accepts scalars or arrays elementwise.
    """
    return flux(np.maximum(u_left, 0.0)) + flux(np.minimum(u_right, 0.0))


def _check_cfl(speed: float, dt: float, dx: float) -> None:
    if speed > 0.0:
        admissible = dx / speed
        if dt > admissible * (1.0 + 1e-12):
            raise CflViolation(dt, admissible)


def _interface_flux(values: np.ndarray, flux: FluxFunction,
                    bc: BoundaryKind) -> np.ndarray:
    """`engquist_osher_flux(padded[..., :-1], padded[..., 1:], flux)` of the
    `bc.pad`-ded values, by the same operations on the same operands (at
    most commuted), without building the padded array.  It writes only
    arrays it allocates: max(left, 0) and min(right, 0) at each interface,
    which become the flux buffer (burgers_square) or scratch, and for
    burgers_half the flux buffer."""
    shape = values.shape[:-1] + (values.shape[-1] + 1,)
    if flux.kind == "zero":
        return np.zeros(shape)
    left, right = np.empty(shape), np.empty(shape)
    np.maximum(values, 0.0, out=left[..., 1:])
    np.minimum(values, 0.0, out=right[..., :-1])
    # the ghost cells' terms: max(0, 0) and min(0, 0), or for periodic
    # ghosts the terms of the cells they copy, computed above
    if bc is BoundaryKind.PERIODIC:
        left[..., 0] = left[..., -1]
        right[..., -1] = right[..., 0]
    else:
        left[..., 0] = right[..., -1] = 0.0
    if flux.kind == "burgers_square":
        interface = left
        interface *= left
        right *= right
    else:
        # f(u) = (0.5 * u) * u, in that order: for subnormal u * u it is not
        # 0.5 * (u * u)
        interface = left * 0.5
        interface *= left
        right *= np.multiply(right, 0.5, out=left)
    interface += right
    return interface


def _eo_step(values: np.ndarray, dt, flux: FluxFunction, bc: BoundaryKind,
             dx: float, speed: float | None = None) -> np.ndarray:
    """One conservative update of raw cell values; asserts the wave-speed bound.

    `values` is one field of n_cells values or a stack of independent
    fields along leading axes, such as (k, n_cells).  `dt` is one step size,
    or for a stack one per field (shape `values.shape[:-1]`).  A stack is
    updated row by row, bitwise as one call per row with its own dt would
    be, and raises CflViolation when one of those calls would (the first
    such row names the admissible step).  `speed`, for one field, is its
    max|f'(u)| when the caller already knows it.  Overflow and invalid
    values are the caller's to silence: it reports them as a blow-up.

    The result is bitwise `values - dt/dx * diff(F)`, with F the
    `engquist_osher_flux` of the `bc.pad`-ded values: the same operations
    in the same order, operands at most commuted, never reassociated or
    folded.  The kernel writes only arrays it allocates (the result and
    `_interface_flux`'s buffers); `values` is never written.
    """
    if values.ndim == 1:
        if speed is None:
            speed = flux.peak_speed(float(np.maximum.reduce(np.abs(values))))
        _check_cfl(speed, dt, dx)
        ratio = dt / dx
    else:
        peaks = np.maximum.reduce(np.abs(values), axis=-1).ravel().tolist()
        dts = np.asarray(dt, dtype=np.float64)
        if dts.ndim:
            ratio = (dts / dx)[..., None]
            dts = dts.ravel().tolist()
        else:
            ratio = dt / dx
            dts = repeat(dt)
        for p, d in zip(peaks, dts):
            _check_cfl(flux.peak_speed(p), d, dx)
    interface = _interface_flux(values, flux, bc)
    new = interface[..., 1:] - interface[..., :-1]
    new *= ratio
    return np.subtract(values, new, out=new)


def check_dt(dt: float) -> None:
    """Raise ConfigError unless dt is a positive step size; NaN is not."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")


def scl_step(state: FieldState, dt: float, flux: FluxFunction,
             bc: BoundaryKind) -> FieldState:
    """Advance a state by one explicit conservation-law step of size dt.

    Rejects dt above the deterministic stability bound dx / max|f'(u)| with a
    CflViolation naming the admissible step.
    """
    check_dt(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        new = _eo_step(state.values, dt, flux, bc, state.grid.dx,
                       flux.peak_speed(state.peak))
    return state.with_values(new, state.time + dt)


class CflMode(Enum):
    DETERMINISTIC_ONLY = "deterministic_only"
    STOCHASTIC_ONLY = "stochastic_only"
    COMBINED = "combined"

    @classmethod
    def from_name(cls, name: str) -> "CflMode":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(f"unknown CFL mode {name!r}") from None


@dataclass(frozen=True)
class CflPolicy:
    """Which stability bound to apply and how much headroom to keep.

    xi_bound, positive and finite, is the number of increment standard
    deviations the stochastic bounds guard against; dt_max caps the
    recommendation and is the fallback when the state carries no usable
    information (all cells floored).
    """

    mode: CflMode = CflMode.COMBINED
    safety: float = 0.9
    xi_bound: float = 3.0
    dt_max: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.safety <= 1.0):
            raise ConfigError(f"safety must lie in (0, 1], got {self.safety}")
        if not 0.0 < self.xi_bound < math.inf:
            raise ConfigError(f"xi_bound must be positive and finite, got {self.xi_bound}")
        if self.dt_max is not None and not self.dt_max > 0.0:
            raise ConfigError(f"dt_max must be positive, got {self.dt_max}")


def cfl_dt(state: FieldState, sigma: NoiseAmplitude, policy: CflPolicy,
           flux: FluxFunction | None = None,
           t_remaining: float | None = None) -> float:
    """Recommended step size for the policy's stability bound.

    deterministic_only:  safety * dx / max|u|
    stochastic_only:     safety * min_j u_j^2 / (sigma(u_j)^2 * xi^2)
    combined:            safety * min_j (1 / (|u_j|/dx + |sigma(u_j)|*xi/|u_j|))^2

    With a flux supplied the deterministic speed is max|f'(u)| instead of
    max|u| (identical for the default flux).  Cells with |u| below the
    velocity floor are excluded; when nothing survives, dt_max is returned
    unscaled.  The result never exceeds dt_max or t_remaining.
    """
    peak = state.peak
    speed = peak if flux is None else flux.peak_speed(peak)
    return _governed_dt(np.abs(state.values), peak, speed, state.grid.dx, sigma,
                        policy, t_remaining)


def _governed_dt(absu: np.ndarray, peak: float, speed: float, dx: float,
                 sigma: NoiseAmplitude, policy: CflPolicy,
                 t_remaining: float | None) -> float:
    """`cfl_dt` from one scan of the values u: `absu` is |u|, `peak` its
    largest entry and `speed` the deterministic speed max|f'(u)|."""
    xi = policy.xi_bound
    bound = math.inf

    if policy.mode is CflMode.DETERMINISTIC_ONLY:
        if speed > VELOCITY_FLOOR:
            bound = dx / speed
    elif not peak <= VELOCITY_FLOOR:
        # some cell is above the floor; with a NaN peak perhaps none is, and
        # the min over no cells leaves the bound infinite
        au = absu[absu > VELOCITY_FLOOR]
        # |sigma(u)| is sigma(|u|) bit for bit: sigma is lam * u or lam, lam >= 0
        amp = sigma(au)
        if policy.mode is CflMode.STOCHASTIC_ONLY:
            cell = np.divide(au, amp * xi, out=np.full_like(au, math.inf),
                             where=amp > 0.0) ** 2
            bound = float(cell.min(initial=math.inf))
        elif au.size:
            # min_j (1 / x_j)^2 is (1 / max_j x_j)^2: both steps are monotone,
            # and stay so when rounded
            inverse = 1.0 / (au / dx + amp * xi / au).max()
            bound = float(inverse * inverse)

    if math.isinf(bound):
        if policy.dt_max is None:
            raise ConfigError(
                "state gives no usable stability bound; set dt_max for the fallback"
            )
        dt = policy.dt_max
    else:
        dt = policy.safety * bound
        if policy.dt_max is not None:
            dt = min(dt, policy.dt_max)

    if t_remaining is not None:
        if not t_remaining > 0.0:
            raise ConfigError(f"t_remaining must be positive, got {t_remaining}")
        dt = min(dt, t_remaining)
    if dt <= 0.0:
        raise ConfigError("stability bound collapsed to a non-positive step")
    return dt
