"""Explicit finite-volume transport for the inviscid Burgers equation.

One step of u_t + f(u)_x = 0 on a uniform mesh with the Engquist-Osher
interface flux, plus step-size recommendations for the explicit stability
bounds (deterministic wave-speed bound, noise-amplitude bound, and their
combination).

Every flux kind is f(u) = a * u^2 (a = 1/2, 1 or 0), so `FluxFunction` is
one formula with the kind's coefficient: the flux (a * u) * u, the speed
f'(u) = 2a * u and the peak speed (2a) * max|u|, with no branch on the kind.

`transport(flux, bc, dx)` is the one owner of that step: every scheme
kernel, `scl_step` and so the noise-free baseline move their fields through
the `move` it returns, and nothing outside this module calls `_eo_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import (CflViolation, ConfigError, check_kind, check_number, check_positive,
                     check_type, is_positive)
from .grid import BoundaryKind, FieldState, _scan
from .noise import NoiseAmplitude

#: cells with |u| at or below this are excluded from state-dependent bounds;
#: dt_max governs when every cell is excluded
VELOCITY_FLOOR = 1e-12

#: each flux kind's coefficient a in f(u) = a * u^2
_FLUX_COEFFICIENTS = {"burgers_half": 0.5, "burgers_square": 1.0, "zero": 0.0}


@dataclass(frozen=True)
class FluxFunction:
    """Convex flux f(u) = a * u^2 with minimum at 0 (the form the
    Engquist-Osher split needs), its coefficient a fixed by the kind.

    burgers_half:   a = 1/2, f(u) = u^2 / 2   (advection speed f'(u) = u)
    burgers_square: a = 1,   f(u) = u^2       (advection speed f'(u) = 2u)
    zero:           a = 0,   f(u) = 0         (transport switched off; test hook)

    Every kind is homogeneous of degree 2, and nothing below branches on it.
    """

    kind: str = "burgers_half"
    a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_kind(self.kind, _FLUX_COEFFICIENTS, "flux kind")
        object.__setattr__(self, "a", _FLUX_COEFFICIENTS[self.kind])

    def __call__(self, u, out=None):
        """f(u) = (a * u) * u elementwise, in that order: the one place that
        forms the flux.  With `out` (numpy's buffer convention) it is
        computed into that array of u's shape, which must not alias u,
        bitwise the same as the allocating call.  For subnormal u * u,
        (0.5 * u) * u is not 0.5 * (u * u); for a = 0 a finite u gives +0.0
        and an infinite or NaN one NaN."""
        f = np.multiply(u, self.a, out=out)
        f *= u
        return f

    def deriv(self, u):
        """f'(u) = 2a * u elementwise."""
        return np.multiply(u, 2.0 * self.a)

    def max_speed(self, u) -> float:
        """Largest |f'(u)| over the given values: `peak_speed` of their
        largest |u| (0 for no values)."""
        absu = np.abs(u)
        return self.peak_speed(float(absu.max())) if absu.size else 0.0

    def peak_speed(self, peak: float) -> float:
        """Largest |f'(u)| over values whose largest |u| is `peak`: exactly
        2a * peak, since |f'(u)| = 2a |u|."""
        return 2.0 * self.a * peak


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
    the first of which becomes scratch, and the flux buffer of `flux(left)`.
    Only `FluxFunction` and `BoundaryKind` branch on their kinds."""
    shape = values.shape[:-1] + (values.shape[-1] + 1,)
    left, right = np.empty(shape), np.empty(shape)
    np.maximum(values, 0.0, out=left[..., 1:])
    np.minimum(values, 0.0, out=right[..., :-1])
    bc.close_ghost_terms(left, right)
    interface = flux(left)
    interface += flux(right, out=left)
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
            speed = flux.peak_speed(_scan(values)[1])
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


def transport(flux: FluxFunction, bc: BoundaryKind, dx: float):
    """The transport of fields on a mesh of width dx with `flux`, closed by
    `bc`: `move(values, dt, speed=None)`, bitwise `_eo_step(values, dt,
    flux, bc, dx, speed)` for one field or a stack with one dt per row,
    CflViolation included.  A second transport method belongs here, so that
    every caller gets it at once."""

    def move(values: np.ndarray, dt, speed: float | None = None) -> np.ndarray:
        return _eo_step(values, dt, flux, bc, dx, speed)

    return move


def scl_step(state: FieldState, dt: float, flux: FluxFunction,
             bc: BoundaryKind) -> FieldState:
    """Advance a state by one explicit conservation-law step of size dt.

    Rejects dt above the deterministic stability bound dx / max|f'(u)| with a
    CflViolation naming the admissible step, and a dt that is not positive
    and finite with a ConfigError.
    """
    check_positive(dt, "dt")
    with np.errstate(over="ignore", invalid="ignore"):
        new = transport(flux, bc, state.grid.dx)(state.values, dt,
                                                 flux.peak_speed(state.peak))
    return state.with_values(new, state.time + dt)


class CflMode(Enum):
    DETERMINISTIC_ONLY = "deterministic_only"
    STOCHASTIC_ONLY = "stochastic_only"
    COMBINED = "combined"

    @classmethod
    def from_name(cls, name: str) -> "CflMode":
        check_kind(name, tuple(mode.value for mode in cls), "CFL mode")
        return cls(name)


@dataclass(frozen=True)
class CflPolicy:
    """Which stability bound to apply and how much headroom to keep.

    xi_bound is the number of increment standard deviations the stochastic
    bounds guard against; dt_max caps the recommendation and is the fallback
    when the state carries no usable information (all cells floored).  Both
    must be positive and finite (`errors.check_positive`).
    """

    mode: CflMode = CflMode.COMBINED
    safety: float = 0.9
    xi_bound: float = 3.0
    dt_max: float | None = None

    def __post_init__(self) -> None:
        check_type(self.mode, CflMode, "mode")
        check_number(self.safety, lambda s: is_positive(s) and s <= 1.0, "safety",
                     "lie in (0, 1]")
        check_positive(self.xi_bound, "xi_bound")
        if self.dt_max is not None:
            check_positive(self.dt_max, "dt_max")


def cfl_dt(state: FieldState, sigma: NoiseAmplitude, policy: CflPolicy,
           flux: FluxFunction = FluxFunction(),
           t_remaining: float | None = None) -> float:
    """Recommended step size for the policy's stability bound.

    deterministic_only:  safety * dx / max|f'(u)|
    stochastic_only:     safety * min_j u_j^2 / (sigma(u_j)^2 * xi^2)
    combined:            safety * min_j (1 / (|u_j|/dx + |sigma(u_j)|*xi/|u_j|))^2

    Cells with |u| below the velocity floor are excluded; when nothing
    survives, dt_max is returned unscaled.  The result never exceeds dt_max
    or t_remaining, which must be positive and finite.
    """
    if t_remaining is not None:
        check_positive(t_remaining, "t_remaining")
    peak = state.peak
    dt = _governed_dt(np.abs(state.values), peak, flux.peak_speed(peak), state.grid.dx,
                      sigma, policy)
    return dt if t_remaining is None else min(dt, t_remaining)


def _governed_dt(absu: np.ndarray, peak: float, speed: float, dx: float,
                 sigma: NoiseAmplitude, policy: CflPolicy) -> float:
    """`cfl_dt` without the horizon cap, from one scan of the values u:
    `absu` is |u|, `peak` its largest entry and `speed` the deterministic
    speed max|f'(u)|.  `integrate` caps the step at its horizon itself."""
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

    if dt <= 0.0:
        raise ConfigError("stability bound collapsed to a non-positive step")
    return dt
