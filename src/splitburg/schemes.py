"""Time integrators composing transport and noise for the stochastic Burgers
equation dc + f(c)_x dt = sigma(c) dW.

Non-iterative one-step maps:

    ab   transport over dt, then the noise substep with the full increment
    aba  half transport, noise substep (full increment), half transport
    bab  half-increment noise, full transport, second half-increment noise

Iterative one-step maps:

    iter_after             fixed-point sweeps of the Milstein update around the
                           transported state; sweep i re-evaluates the noise
                           amplitude at iterate i-1 (sweep 1 is exactly the
                           one-shot Milstein-composed step)
    iter_before            variation-of-constants form: the transport propagator
                           is also applied to the noise-amplitude fields; the
                           second iterate refreshes the linearization state from
                           an aba companion solution (whole step) or from an aba
                           half-step and the two half increments (half steps)
    iter_before_trapezoid  averaged-amplitude variant: after the first
                           variation-of-constants pass, subsequent iterates use
                           sigma evaluated at the midpoint of the previous
                           iterate and the start state

`integrate` drives any of these along a reproducible noise path, with either a
fixed step size or a stability-bound-governed one, truncating on blow-up.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .burgers import CflPolicy, FluxFunction, _eo_step, cfl_dt
from .errors import CflViolation, ConfigError
from .grid import BoundaryKind, FieldState
from .noise import NoiseAmplitude, NoisePath, stochastic_update, whole_steps

_SUBSTEPS = ("em", "milstein")
_INNER_MODES = ("whole_step", "half_steps")

#: hard cap on fixed-point sweeps
MAX_ITERATIONS = 8

DEFAULT_BLOWUP_THRESHOLD = 1e6


class ContractionWarning(RuntimeWarning):
    """Iterate residuals stopped decreasing; dt likely exceeds the contraction range."""


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a one-step map needs besides the state and the increments."""

    scheme: str
    flux: FluxFunction = FluxFunction()
    sigma: NoiseAmplitude = NoiseAmplitude()
    bc: BoundaryKind = BoundaryKind.ZERO_DIRICHLET
    iterations: int = 2
    stochastic_substep: str = "milstein"
    inner_mode: str = "whole_step"
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD

    def __post_init__(self) -> None:
        allowed = scheme_traits(self.scheme).iterations or range(1, MAX_ITERATIONS + 1)
        if self.stochastic_substep not in _SUBSTEPS:
            raise ConfigError(f"unknown stochastic substep {self.stochastic_substep!r}")
        if self.inner_mode not in _INNER_MODES:
            raise ConfigError(f"unknown inner mode {self.inner_mode!r}")
        if self.iterations not in allowed:
            raise ConfigError(f"{self.scheme} takes iterations "
                              f"{allowed.start}..{allowed.stop - 1}, got {self.iterations}")
        if self.blowup_threshold <= 0.0:
            raise ConfigError(f"blowup_threshold must be positive, got {self.blowup_threshold}")

    @property
    def quantum(self) -> int:
        """Fine path steps every step size must be a multiple of: 2 when a
        step consumes the increments of its two half intervals."""
        return 2 if self.inner_mode in SCHEMES[self.scheme].half_increments else 1


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one step: the new state, the step size, and the iterate
    residuals (one entry per sweep beyond the first; empty for non-iterative
    schemes)."""

    state_after: FieldState
    dt_used: float
    iterate_residuals: tuple[float, ...] = ()


@dataclass(frozen=True)
class StepNoise:
    """Increments one step may consume: the full-interval one, and the two
    half-interval ones where the scheme needs them."""

    full: float
    first_half: float | None = None
    second_half: float | None = None


def _mean_abs(diff: np.ndarray) -> float:
    return float(np.mean(np.abs(diff)))


def _check_contraction(residuals: list[float]) -> None:
    for a, b in zip(residuals, residuals[1:]):
        if b >= a and b > 0.0:
            warnings.warn(
                "iterate residuals are not decreasing; the step size likely "
                "exceeds the contraction range",
                ContractionWarning,
                stacklevel=3,
            )
            return


def ab_step(state: FieldState, dt: float, dw: float, cfg: SchemeConfig) -> StepRecord:
    """Transport over dt, then the configured noise substep with increment dw."""
    v = _eo_step(state.values, dt, cfg.flux, cfg.bc, state.grid.dx)
    v = stochastic_update(v, v, cfg.sigma, dw, dt, cfg.stochastic_substep)
    return StepRecord(state.with_values(v, time=state.time + dt), dt)


def aba_step(state: FieldState, dt: float, dw: float, cfg: SchemeConfig) -> StepRecord:
    """Symmetrized transport around a single noise substep consuming the
    full-interval increment."""
    h = 0.5 * dt
    dx = state.grid.dx
    v = _eo_step(state.values, h, cfg.flux, cfg.bc, dx)
    v = stochastic_update(v, v, cfg.sigma, dw, dt, cfg.stochastic_substep)
    v = _eo_step(v, h, cfg.flux, cfg.bc, dx)
    return StepRecord(state.with_values(v, time=state.time + dt), dt)


def bab_step(state: FieldState, dt: float, dw_first: float, dw_second: float,
             cfg: SchemeConfig) -> StepRecord:
    """Symmetrized noise around a full transport step; the two noise substeps
    consume the genuine increments of the two half intervals."""
    h = 0.5 * dt
    dx = state.grid.dx
    v = state.values
    v = stochastic_update(v, v, cfg.sigma, dw_first, h, cfg.stochastic_substep)
    v = _eo_step(v, dt, cfg.flux, cfg.bc, dx)
    v = stochastic_update(v, v, cfg.sigma, dw_second, h, cfg.stochastic_substep)
    return StepRecord(state.with_values(v, time=state.time + dt), dt)


def iter_after_step(state: FieldState, dt: float, dw: float,
                    cfg: SchemeConfig) -> StepRecord:
    """Fixed-point sweeps of the Milstein update around the transported state.

    Sweep i:  c_i = T(dt) c  +  sigma(c_{i-1}) dW
                           +  (1/2) sigma(c_{i-1}) sigma'(c_{i-1}) (dW^2 - dt)
    with c_0 = c, so one sweep is exactly the one-shot Milstein-composed step.
    The transported state is computed once; only the noise linearization is
    refreshed, which is what contracts (or fails to, above the admissible dt).
    """
    base = _eo_step(state.values, dt, cfg.flux, cfg.bc, state.grid.dx)
    lin = state.values
    residuals: list[float] = []
    for sweep in range(1, cfg.iterations + 1):
        nxt = stochastic_update(base, lin, cfg.sigma, dw, dt, "milstein")
        if sweep >= 2:
            residuals.append(_mean_abs(nxt - lin))
        lin = nxt
    _check_contraction(residuals)
    return StepRecord(state.with_values(lin, time=state.time + dt), dt, tuple(residuals))


def _voc_terms(values: np.ndarray, dt: float, cfg: SchemeConfig,
               dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variation-of-constants terms of one linearization field: the field and
    the amplitude propagated over dt, and the correction product twice."""
    def prop(v: np.ndarray) -> np.ndarray:
        return _eo_step(v, dt, cfg.flux, cfg.bc, dx)

    amp = np.asarray(cfg.sigma(values), dtype=np.float64)
    corr = amp * np.asarray(cfg.sigma.deriv(values), dtype=np.float64)
    return prop(values), prop(amp), prop(prop(corr))


def _voc_milstein(terms: tuple[np.ndarray, ...], dw: float, dt: float) -> np.ndarray:
    field, amp, corr = terms
    return field + amp * dw + 0.5 * corr * (dw * dw - dt)


def iter_before_step(state: FieldState, dt: float, noise: StepNoise,
                     cfg: SchemeConfig, aba_state: FieldState | None = None) -> StepRecord:
    """One or two variation-of-constants iterates.

    iterations=1: the Milstein form linearized at the start state.
    iterations=2, whole_step: the same form re-evaluated from the aba
        companion state carried alongside the trajectory (the start state on
        the first step or standalone use).
    iterations=2, half_steps: the two-half-interval sum, pairing the start
        state with the first half increment and an aba half-step solution with
        the second.
    """
    u = state.values
    dx = state.grid.dx
    c1 = _voc_milstein(_voc_terms(u, dt, cfg, dx), noise.full, dt)

    if cfg.iterations == 1:
        after, residuals = c1, ()
    elif cfg.inner_mode == "whole_step":
        companion = state if aba_state is None else aba_state
        c2 = _voc_milstein(_voc_terms(companion.values, dt, cfg, dx), noise.full, dt)
        after, residuals = c2, (_mean_abs(c2 - c1),)
    else:
        if noise.first_half is None or noise.second_half is None:
            raise ConfigError("half_steps mode needs both half-interval increments")
        h = 0.5 * dt
        dw1, dw2 = noise.first_half, noise.second_half
        mid = aba_step(state, h, dw1, cfg).state_after.values
        field_u, amp_u, corr_u = _voc_terms(u, h, cfg, dx)
        field_m, amp_m, corr_m = _voc_terms(mid, h, cfg, dx)
        c2 = (
            field_u + field_m
            + amp_u * dw1 + amp_m * dw2
            + 0.5 * corr_u * (dw1 * dw1 - h)
            + 0.5 * corr_m * (dw2 * dw2 - h)
        )
        after, residuals = c2, (_mean_abs(c2 - c1),)
    return StepRecord(state.with_values(after, time=state.time + dt), dt, residuals)


def iter_before_trapezoid_step(state: FieldState, dt: float, dw: float,
                               cfg: SchemeConfig) -> StepRecord:
    """Averaged-amplitude iterates on top of one variation-of-constants pass.

    Iterate i (i >= 2):
        c_i = T(dt) c  -  (1/2) sigma(c_1)^2 dt  +  sigma((c_{i-1} + c) / 2) dW
    with the quadratic term frozen at the first pass c_1.
    """
    u = state.values
    terms = _voc_terms(u, dt, cfg, state.grid.dx)
    base, c1 = terms[0], _voc_milstein(terms, dw, dt)
    quad = 0.5 * np.asarray(cfg.sigma(c1), dtype=np.float64) ** 2 * dt

    prev = c1
    residuals: list[float] = []
    for _ in range(2, cfg.iterations + 1):
        nxt = base - quad + cfg.sigma(0.5 * (prev + u)) * dw
        residuals.append(_mean_abs(nxt - prev))
        prev = nxt
    _check_contraction(residuals)
    return StepRecord(state.with_values(prev, time=state.time + dt), dt, tuple(residuals))


def detect_blowup(state: FieldState,
                  threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> bool:
    """True when the state is flagged, non-finite, or any |value| exceeds the
    threshold (strictly)."""
    if threshold <= 0.0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    if state.blown_up:
        return True
    return bool(np.any(np.abs(state.values) > threshold))


@dataclass(frozen=True)
class Trajectory:
    """Ordered step records of one integration; truncated on blow-up."""

    initial_state: FieldState
    records: tuple[StepRecord, ...]
    blowup_time: float | None = None
    blowup_reason: str | None = None

    @property
    def final_state(self) -> FieldState:
        return self.records[-1].state_after if self.records else self.initial_state

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def n_steps(self) -> int:
        return len(self.records)


def _halves(path: NoisePath, k: int, m: int) -> tuple[float, float]:
    mid = k + m // 2
    return path.increment_over(k, mid), path.increment_over(mid, k + m)


def _advance_full(step):
    """`advance` for a step function (state, dt, dw, cfg)."""
    def advance(state, dt, path, k, m, cfg, companion):
        return step(state, dt, path.increment_over(k, k + m), cfg), companion
    return advance


def _advance_bab(state, dt, path, k, m, cfg, companion):
    return bab_step(state, dt, *_halves(path, k, m), cfg), companion


def _advance_iter_before(state, dt, path, k, m, cfg, companion):
    dw = path.increment_over(k, k + m)
    halves = _halves(path, k, m) if cfg.iterations > 1 and cfg.quantum == 2 else ()
    rec = iter_before_step(state, dt, StepNoise(dw, *halves), cfg, aba_state=companion)
    if companion is not None:
        companion = aba_step(companion, dt, dw, cfg).state_after
    return rec, companion


@dataclass(frozen=True)
class SchemeTraits:
    """One row of the scheme table, the one place each scheme fact lives.

    `advance(state, dt, path, k, m, cfg, companion) -> (record, companion)`
    draws the increments over fine steps [k, k + m) that the scheme uses and
    calls its step function.  `iterations` are the counts it takes (empty: not
    iterative).  `half_increments` are the inner modes in which a step
    consumes its two half-interval increments, so dt spans an even number of
    fine steps; `companion` those in which the second iterate is refreshed
    from an aba solution carried alongside.

    `stochastic_substep: em` reaches only ab, aba, bab and the aba solutions
    inside iter_before (whole-step companion, half-steps midpoint); the
    iterative updates themselves are always Milstein.
    """

    advance: Callable
    iterations: range = range(0)
    half_increments: tuple[str, ...] = ()
    companion: tuple[str, ...] = ()


SCHEMES = {
    "ab": SchemeTraits(_advance_full(ab_step)),
    "aba": SchemeTraits(_advance_full(aba_step)),
    "bab": SchemeTraits(_advance_bab, half_increments=_INNER_MODES),
    "iter_after": SchemeTraits(_advance_full(iter_after_step),
                               range(1, MAX_ITERATIONS + 1)),
    "iter_before": SchemeTraits(_advance_iter_before, range(1, 3),
                                half_increments=("half_steps",),
                                companion=("whole_step",)),
    "iter_before_trapezoid": SchemeTraits(_advance_full(iter_before_trapezoid_step),
                                          range(2, MAX_ITERATIONS + 1)),
}


def scheme_traits(name: str) -> SchemeTraits:
    """The table row of a scheme name."""
    if name not in SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}")
    return SCHEMES[name]


def integrate(c0: FieldState, t_end: float, cfg: SchemeConfig, path: NoisePath,
              dt: float | None = None, cfl: CflPolicy | None = None) -> Trajectory:
    """Drive one trajectory from c0 to t_end along the given noise path.

    Exactly one of `dt` (fixed step, must be a path-aligned multiple of the
    fine resolution dividing t_end) or `cfl` (stability-governed step, snapped
    down to the path resolution) selects the stepping mode.  Blow-up (by
    threshold, non-finite values, a rejected explicit step, or an admissible
    step below the path resolution) truncates the trajectory and is flagged
    with its time and reason.
    """
    if (dt is None) == (cfl is None):
        raise ConfigError("provide exactly one of dt (fixed) or cfl (governed)")
    if t_end < 0.0:
        raise ConfigError(f"t_end must be non-negative, got {t_end}")
    fine = path.dt_fine
    n_total = whole_steps(t_end, fine)
    if n_total is None:
        raise ConfigError(f"t_end {t_end} is not a multiple of the path resolution {fine}")
    if n_total > path.n_steps:
        raise ConfigError(f"path covers only [0, {path.t_end}], t_end {t_end} is beyond it")
    quantum = cfg.quantum
    if n_total % quantum:
        raise ConfigError("t_end must cover a whole number of half-interval pairs")

    m_fixed = None
    if dt is not None:
        m_fixed = whole_steps(dt, fine)
        if m_fixed is None or m_fixed < 1:
            raise ConfigError(f"dt {dt} is not a multiple of the path resolution {fine}")
        if m_fixed % quantum:
            raise ConfigError(f"dt {dt} cannot be split into aligned half intervals")
        if n_total % m_fixed:
            raise ConfigError(f"t_end {t_end} is not a multiple of dt {dt}")

    traits = SCHEMES[cfg.scheme]
    state = c0
    companion = c0 if cfg.iterations > 1 and cfg.inner_mode in traits.companion else None
    records: list[StepRecord] = []
    blowup_time: float | None = None
    blowup_reason: str | None = None
    k = 0
    while k < n_total:
        if m_fixed is not None:
            m = m_fixed
        else:
            bound = cfl_dt(
                state, cfg.sigma, cfl, flux=cfg.flux,
                t_remaining=(n_total - k) * fine,
            )
            m = int(bound / fine * (1.0 + 1e-12))
            m -= m % quantum
            m = min(m, n_total - k)
            if m <= 0:
                blowup_time = state.time
                blowup_reason = "dt_underflow"
                break
        step_dt = m * fine
        try:
            rec, companion = traits.advance(state, step_dt, path, k, m, cfg, companion)
        except CflViolation:
            blowup_time = state.time
            blowup_reason = "cfl_rejected"
            break
        records.append(rec)
        state = rec.state_after
        k += m
        if detect_blowup(state, cfg.blowup_threshold):
            blowup_time = state.time
            blowup_reason = "non_finite" if state.blown_up else "threshold"
            break
    return Trajectory(c0, tuple(records), blowup_time, blowup_reason)
