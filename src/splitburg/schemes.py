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

Each scheme's step is a kernel on raw float64 cell values (the `SCHEMES`
table), and `SchemeConfig` says what a step of it reads: the half-interval
increments (`reads_halves`), an aba companion (`carries_companion`) and the
fine steps its size is a multiple of (`quantum`).  The public `*_step`
functions run the very kernels `integrate` runs, wrapped in states and
records and taking plain float increments; iter_before's also takes the aba
companion's step and drops its result.  The kernels form the noise
amplitude only by calling `NoiseAmplitude`, which computes sigma(c) into a
buffer they pass where they have one, so none branches on the noise kind.
`integrate` drives a kernel along a reproducible noise path, with
either a fixed step size or a stability-bound-governed one, truncating on
blow-up; `noise.step_counts` counts its fine steps and checks their
alignment.  It streams and builds no per-step records at all: a trajectory
holds its current values, the aba companion's values where the scheme
carries one, a step counter and the rows of its residual trace, and only
the last step's record is built, for `Trajectory`, its state a copy of the
values through `FieldState.with_values`.  Memory per trajectory is
O(cells), not O(steps x cells).  The state after step k of a fixed-dt
trajectory is the endpoint of integrating over k steps on the same path.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .burgers import CflPolicy, FluxFunction, _eo_step, _governed_dt, check_dt
from .errors import CflViolation, ConfigError
from .grid import BoundaryKind, FieldState, _mean_abs, _scan
from .noise import NoiseAmplitude, NoisePath, step_counts, stochastic_update

_SUBSTEPS = ("em", "milstein")
_INNER_MODES = ("whole_step", "half_steps")

#: hard cap on fixed-point sweeps
MAX_ITERATIONS = 8

DEFAULT_BLOWUP_THRESHOLD = 1e6


class ContractionWarning(RuntimeWarning):
    """Iterate residuals stopped decreasing; dt likely exceeds the contraction range."""


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a one-step map needs besides the state and the increments.

    `iterations` is stored as an `int`, so an integral float such as 2.0
    becomes 2.  `blowup_threshold` must be positive and finite: no state
    exceeds an infinite one, so a non-finite endpoint would pass as
    completed.
    """

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
        object.__setattr__(self, "iterations", int(self.iterations))
        if not 0.0 < self.blowup_threshold < math.inf:
            raise ConfigError("blowup_threshold must be positive and finite, "
                              f"got {self.blowup_threshold}")

    @property
    def quantum(self) -> int:
        """Fine path steps every step size must be a multiple of: 2 in the
        scheme's `half_increments` modes."""
        return 2 if self.inner_mode in SCHEMES[self.scheme].half_increments else 1

    @property
    def reads_halves(self) -> bool:
        """Whether a step reads the increments of its two half intervals:
        bab always, iter_before only for its second iterate in half_steps."""
        traits = SCHEMES[self.scheme]
        return (self.inner_mode in traits.half_increments
                and (not traits.iterations or self.iterations > 1))

    @property
    def carries_companion(self) -> bool:
        """Whether the second iterate is refreshed from an aba companion
        carried alongside: iter_before at I=2 in whole_step."""
        return self.iterations > 1 and self.inner_mode in SCHEMES[self.scheme].companion


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one step: the new state, the step size, and the iterate
    residuals (one entry per sweep beyond the first; empty for non-iterative
    schemes)."""

    state_after: FieldState
    dt_used: float
    iterate_residuals: tuple[float, ...] = ()


def _check_contraction(residuals, stacklevel: int = 3) -> None:
    """Warn, from `stacklevel` frames up, when the residuals stop decreasing."""
    for a, b in zip(residuals, residuals[1:]):
        if b >= a and b > 0.0:
            warnings.warn(
                "iterate residuals are not decreasing; the step size likely "
                "exceeds the contraction range",
                ContractionWarning,
                stacklevel=stacklevel,
            )
            return


def _ab(u, dt, dw, halves, companion, cfg, dx, speed):
    v = _eo_step(u, dt, cfg.flux, cfg.bc, dx, speed)
    return stochastic_update(v, v, cfg.sigma, dw, dt, cfg.stochastic_substep), (), companion


def _aba(u, dt, dw, halves, companion, cfg, dx, speed):
    h = 0.5 * dt
    v = _eo_step(u, h, cfg.flux, cfg.bc, dx, speed)
    v = stochastic_update(v, v, cfg.sigma, dw, dt, cfg.stochastic_substep)
    return _eo_step(v, h, cfg.flux, cfg.bc, dx), (), companion


def _bab(u, dt, dw, halves, companion, cfg, dx, speed):
    h = 0.5 * dt
    dw_first, dw_second = halves
    v = stochastic_update(u, u, cfg.sigma, dw_first, h, cfg.stochastic_substep)
    v = _eo_step(v, dt, cfg.flux, cfg.bc, dx)
    v = stochastic_update(v, v, cfg.sigma, dw_second, h, cfg.stochastic_substep)
    return v, (), companion


def _iter_after(u, dt, dw, halves, companion, cfg, dx, speed):
    base = _eo_step(u, dt, cfg.flux, cfg.bc, dx, speed)
    lin = u
    residuals: list[float] = []
    for sweep in range(1, cfg.iterations + 1):
        nxt = stochastic_update(base, lin, cfg.sigma, dw, dt, "milstein")
        if sweep >= 2:
            residuals.append(_mean_abs(nxt - lin))
        lin = nxt
    return lin, residuals, companion


def _linearized(sigma: NoiseAmplitude, fields, extra=None) -> np.ndarray:
    """A new stack of the k rows of `fields`, their amplitudes sigma, the
    row `extra` where one is given, and their corrections sigma * sigma',
    in that order: the rows the variation-of-constants terms transport."""
    k = len(fields)
    stack = np.empty((3 * k + (extra is not None), fields[0].size))
    for i, field in enumerate(fields):
        stack[i] = field
    if extra is not None:
        stack[2 * k] = extra
    amp = sigma(stack[:k], out=stack[k:2 * k])
    np.multiply(amp, sigma.slope, out=stack[-k:])
    return stack


def _voc_terms(fields, dt: float, cfg: SchemeConfig,
               dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variation-of-constants terms of the k linearization fields in
    `fields`: each field and its amplitude propagated over dt, and its
    correction product twice, as (k, n_cells) arrays.  The fields,
    amplitudes and corrections go through one transport call, the
    corrections' second pass through another."""
    k = len(fields)
    moved = _eo_step(_linearized(cfg.sigma, fields), dt, cfg.flux, cfg.bc, dx)
    return moved[:k], moved[k:2 * k], _eo_step(moved[2 * k:], dt, cfg.flux, cfg.bc, dx)


def _voc_milstein(field: np.ndarray, amp: np.ndarray, corr: np.ndarray, dw: float,
                  dt: float) -> np.ndarray:
    """field + amp dW + (1/2) corr (dW^2 - dt), bitwise, as a new array.
    `corr` is a temporary its caller hands over: it is overwritten."""
    new = amp * dw
    np.add(field, new, out=new)
    corr *= 0.5
    corr *= dw * dw - dt
    new += corr
    return new


def _iter_before_whole(u, companion, dt, dw, cfg, dx):
    """Iterates 1 and 2 of whole-step iter_before, linearized at u and at the
    companion, and the companion's own aba step over dt.  The companion's
    two half transports ride in the two transport calls of the iterates,
    with their own dt.  The new values and companion are copies of their
    rows, so the stacks they come from die with the step."""
    h = 0.5 * dt
    # rows u, companion, amp x2, companion's first half transport, corr x2
    moved = _eo_step(_linearized(cfg.sigma, (u, companion), companion),
                     (dt, dt, dt, dt, h, dt, dt), cfg.flux, cfg.bc, dx)
    mid = moved[4]
    moved[4] = stochastic_update(mid, mid, cfg.sigma, dw, dt, cfg.stochastic_substep)
    # rows: the companion's second half transport, corr x2
    twice = _eo_step(moved[4:7], (h, dt, dt), cfg.flux, cfg.bc, dx)
    c1, c2 = _voc_milstein(moved[0:2], moved[2:4], twice[1:3], dw, dt)
    return c2.copy(), (_mean_abs(c2 - c1),), twice[0].copy()


def _iter_before(u, dt, dw, halves, companion, cfg, dx, speed):
    if cfg.carries_companion:
        return _iter_before_whole(u, companion, dt, dw, cfg, dx)
    (c1,) = _voc_milstein(*_voc_terms((u,), dt, cfg, dx), dw, dt)
    if not cfg.reads_halves:
        return c1, (), companion
    h = 0.5 * dt
    dw1, dw2 = halves
    mid, _, _ = _aba(u, h, dw1, None, None, cfg, dx, speed)
    (field_u, field_m), (amp_u, amp_m), (corr_u, corr_m) = _voc_terms(
        (u, mid), h, cfg, dx)
    c2 = (
        field_u + field_m
        + amp_u * dw1 + amp_m * dw2
        + 0.5 * corr_u * (dw1 * dw1 - h)
        + 0.5 * corr_m * (dw2 * dw2 - h)
    )
    return c2, (_mean_abs(c2 - c1),), companion


def _iter_before_trapezoid(u, dt, dw, halves, companion, cfg, dx, speed):
    (base,), (amp,), (corr,) = _voc_terms((u,), dt, cfg, dx)
    c1 = _voc_milstein(base, amp, corr, dw, dt)
    sigma = cfg.sigma
    # every iterate starts from base - (1/2) sigma(c1)^2 dt, in that order
    drift = sigma(c1, out=np.empty_like(c1))
    drift *= drift
    drift *= 0.5
    drift *= dt
    np.subtract(base, drift, out=drift)

    prev = c1
    residuals: list[float] = []
    for _ in range(2, cfg.iterations + 1):
        # + sigma((prev + u) / 2) dW
        nxt = prev + u
        nxt *= 0.5
        sigma(nxt, out=nxt)
        nxt *= dw
        np.add(drift, nxt, out=nxt)
        residuals.append(_mean_abs(nxt - prev))
        prev = nxt
    return prev, residuals, companion


def _record(kernel, state: FieldState, dt: float, cfg: SchemeConfig, dw=None,
            halves=None, companion=None) -> StepRecord:
    """The record of one step of `kernel` from `state`."""
    check_dt(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        values, residuals, _ = kernel(state.values, dt, dw, halves, companion, cfg,
                                      state.grid.dx, None)
    _check_contraction(residuals, stacklevel=4)  # the public step's caller
    return StepRecord(state.with_values(values, state.time + dt), dt, tuple(residuals))


def ab_step(state: FieldState, dt: float, dw: float, cfg: SchemeConfig) -> StepRecord:
    """Transport over dt, then the configured noise substep with increment dw."""
    return _record(_ab, state, dt, cfg, dw)


def aba_step(state: FieldState, dt: float, dw: float, cfg: SchemeConfig) -> StepRecord:
    """Symmetrized transport around a single noise substep consuming the
    full-interval increment."""
    return _record(_aba, state, dt, cfg, dw)


def bab_step(state: FieldState, dt: float, dw_first: float, dw_second: float,
             cfg: SchemeConfig) -> StepRecord:
    """Symmetrized noise around a full transport step; the two noise substeps
    consume the genuine increments of the two half intervals."""
    return _record(_bab, state, dt, cfg, halves=(dw_first, dw_second))


def iter_after_step(state: FieldState, dt: float, dw: float,
                    cfg: SchemeConfig) -> StepRecord:
    """Fixed-point sweeps of the Milstein update around the transported state.

    Sweep i:  c_i = T(dt) c  +  sigma(c_{i-1}) dW
                           +  (1/2) sigma(c_{i-1}) sigma'(c_{i-1}) (dW^2 - dt)
    with c_0 = c, so one sweep is exactly the one-shot Milstein-composed step.
    The transported state is computed once; only the noise linearization is
    refreshed, which is what contracts (or fails to, above the admissible dt).
    """
    return _record(_iter_after, state, dt, cfg, dw)


def iter_before_step(state: FieldState, dt: float, dw: float, cfg: SchemeConfig,
                     aba_state: FieldState | None = None,
                     halves: tuple[float, float] | None = None) -> StepRecord:
    """One or two variation-of-constants iterates with the full-interval
    increment dw and, where the step reads them, the two half-interval
    increments `halves`.

    iterations=1: the Milstein form linearized at the start state.
    iterations=2, whole_step: the same form re-evaluated from the aba
        companion state carried alongside the trajectory (the start state on
        the first step or standalone use).
    iterations=2, half_steps: the two-half-interval sum, pairing the start
        state with the first half increment and an aba half-step solution with
        the second.

    The step runs the kernel `integrate` runs.  At iterations=2 whole_step
    that kernel also takes the companion's own aba step, whose result is
    dropped here (`aba_step` returns it).  So the step also raises that aba
    step's CflViolation, which `integrate` records as `cfl_rejected`.
    """
    if cfg.reads_halves and (halves is None or None in halves):
        raise ConfigError("half_steps mode needs both half-interval increments")
    companion = state if aba_state is None else aba_state
    return _record(_iter_before, state, dt, cfg, dw, halves, companion.values)


def iter_before_trapezoid_step(state: FieldState, dt: float, dw: float,
                               cfg: SchemeConfig) -> StepRecord:
    """Averaged-amplitude iterates on top of one variation-of-constants pass.

    Iterate i (i >= 2):
        c_i = T(dt) c  -  (1/2) sigma(c_1)^2 dt  +  sigma((c_{i-1} + c) / 2) dW
    with the quadratic term frozen at the first pass c_1.
    """
    return _record(_iter_before_trapezoid, state, dt, cfg, dw)


def _blowup_reason(peak: float, threshold: float) -> str | None:
    """"non_finite" for a non-finite peak |value|, "threshold" for one above
    the threshold (strictly), else None."""
    if peak <= threshold:
        return None
    return "threshold" if math.isfinite(peak) else "non_finite"


def detect_blowup(state: FieldState,
                  threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> bool:
    """True when the state is non-finite or any |value| exceeds the threshold
    (strictly).  The threshold must be positive and finite, or a non-finite
    state would not exceed it."""
    if not 0.0 < threshold < math.inf:
        raise ConfigError(f"threshold must be positive and finite, got {threshold}")
    return _blowup_reason(state.peak, threshold) is not None


@dataclass(frozen=True)
class Trajectory:
    """Outcome of one integration, truncated on blow-up.

    `last_record` is the last step's record (None when no step was taken),
    `n_steps` the number of steps taken, and `residuals` the read-only
    `(n, 4)` float64 trace with one row (step, time, iteration, residual)
    per iterate residual, steps counted from 0 and iterations from 2; it is
    `(0, 4)` for a trajectory without residuals.  The states of earlier
    steps are not kept.
    """

    initial_state: FieldState
    last_record: StepRecord | None
    n_steps: int
    residuals: np.ndarray
    blowup_time: float | None = None
    blowup_reason: str | None = None

    @property
    def final_state(self) -> FieldState:
        rec = self.last_record
        return self.initial_state if rec is None else rec.state_after

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """The records the trajectory still holds: the last step's, or none.
        Kept for the benchmark's tracer, which sums their state sizes; it
        goes away with benchmark contract v2."""
        return () if self.last_record is None else (self.last_record,)


@dataclass(frozen=True)
class SchemeTraits:
    """One row of the scheme table, the one place each scheme fact lives.

    `kernel(u, dt, dw, halves, companion, cfg, dx, speed)
    -> (values, residuals, companion)` is the scheme's step on raw float64
    cell values u, which it never writes: `dw` is the full-interval
    increment, `halves` the two half-interval ones, `companion` the aba
    companion's values (None where the scheme carries none), and `speed`
    max|f'(u)| where the caller knows it (else None).  It returns the new
    values, the iterate residuals (one per sweep beyond the first) and the
    companion after its own aba step.  Floating-point warnings are the
    caller's to silence.
    `full_increment` says whether a step consumes the full-interval
    increment (bab consumes only the halves).
    `iterations` are the counts it takes (empty: not iterative).
    `half_increments` are the inner modes in which dt spans an even number
    of fine steps, since a step may consume its two half-interval
    increments; `companion` those in which the second iterate is refreshed
    from an aba solution carried alongside.  An iterative scheme reads
    either only from its second iterate on (`SchemeConfig.reads_halves`,
    `SchemeConfig.carries_companion`).

    `stochastic_substep: em` reaches only ab, aba, bab and the aba solutions
    inside iter_before (whole-step companion, half-steps midpoint); the
    iterative updates themselves are always Milstein.
    """

    kernel: Callable
    full_increment: bool = True
    iterations: range = range(0)
    half_increments: tuple[str, ...] = ()
    companion: tuple[str, ...] = ()


SCHEMES = {
    "ab": SchemeTraits(_ab),
    "aba": SchemeTraits(_aba),
    "bab": SchemeTraits(_bab, full_increment=False, half_increments=_INNER_MODES),
    "iter_after": SchemeTraits(_iter_after, iterations=range(1, MAX_ITERATIONS + 1)),
    "iter_before": SchemeTraits(_iter_before, iterations=range(1, 3),
                                half_increments=("half_steps",),
                                companion=("whole_step",)),
    "iter_before_trapezoid": SchemeTraits(_iter_before_trapezoid,
                                          iterations=range(2, MAX_ITERATIONS + 1)),
}


def scheme_traits(name: str) -> SchemeTraits:
    """The table row of a scheme name."""
    if name not in SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}")
    return SCHEMES[name]


def _step_increments(path: NoisePath, k: int, m: int, steps: int, full: bool,
                     halves: bool) -> tuple[list, list]:
    """The full-interval increments and the half-interval pairs of `steps`
    steps of m fine steps each from fine step k, one list entry per step
    (None where the scheme reads none)."""
    dws = path.block_sums(k, m, steps).tolist() if full else [None] * steps
    pairs = (path.block_sums(k, m // 2, 2 * steps).reshape(steps, 2).tolist() if halves
             else [None] * steps)
    return dws, pairs


def integrate(c0: FieldState, t_end: float, cfg: SchemeConfig, path: NoisePath,
              dt: float | None = None, cfl: CflPolicy | None = None) -> Trajectory:
    """Drive one trajectory from c0 to t_end along the given noise path.

    Exactly one of `dt` (fixed step) or `cfl` (stability-governed step,
    snapped down to the path resolution) selects the stepping mode;
    `noise.step_counts` checks that t_end and dt fit the path in whole
    steps.  Blow-up (by threshold, non-finite values, a rejected explicit
    step, or an admissible step below the path resolution) truncates the
    trajectory and is flagged with its time and reason; numpy's overflow and
    invalid-value warnings are silenced for the whole trajectory.

    Each step calls the scheme's kernel on the current values (and the
    companion's) and scans its result once: the peak |value| decides
    blow-up, gives the next step's first wave speed, and with |u| feeds the
    governed step size.  Only the last step's record is built; each step
    appends its iterate residuals to the trace.
    """
    if (dt is None) == (cfl is None):
        raise ConfigError("provide exactly one of dt (fixed) or cfl (governed)")
    fine, quantum = path.dt_fine, cfg.quantum
    n_total, m_fixed = step_counts(t_end, fine, dt, quantum)
    if n_total > path.n_steps:
        raise ConfigError(f"path covers only [0, {path.t_end}], t_end {t_end} is beyond it")

    traits = SCHEMES[cfg.scheme]
    kernel, flux, sigma, dx = traits.kernel, cfg.flux, cfg.sigma, c0.grid.dx
    threshold = cfg.blowup_threshold
    full, halves = traits.full_increment, cfg.reads_halves
    if m_fixed is not None:
        dws, pairs = _step_increments(path, 0, m_fixed, n_total // m_fixed, full, halves)
    u, time, peak = c0.values, c0.time, c0.peak
    absu = np.abs(u)
    companion = u if cfg.carries_companion else None
    residuals: tuple[float, ...] | list[float] = ()
    n_steps = 0
    rows: list[tuple[int, float, int, float]] = []
    blowup_time: float | None = None
    blowup_reason: str | None = None
    m = m_fixed
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_total:
            speed = flux.peak_speed(peak)
            if m_fixed is None:
                bound = _governed_dt(absu, peak, speed, dx, sigma, cfl,
                                     (n_total - k) * fine)
                m = int(bound / fine * (1.0 + 1e-12))
                m -= m % quantum
                m = min(m, n_total - k)
                if m <= 0:
                    blowup_time, blowup_reason = time, "dt_underflow"
                    break
                dws, pairs = _step_increments(path, k, m, 1, full, halves)
            j = 0 if m_fixed is None else n_steps
            step_dt = m * fine
            try:
                u, residuals, companion = kernel(u, step_dt, dws[j], pairs[j], companion,
                                                 cfg, dx, speed)
            except CflViolation:
                blowup_time, blowup_reason = time, "cfl_rejected"
                break
            dt_used = step_dt
            time += step_dt
            if residuals:
                _check_contraction(residuals)
                rows.extend((n_steps, time, sweep, residual)
                            for sweep, residual in enumerate(residuals, start=2))
            n_steps += 1
            k += m
            absu, peak = _scan(u)
            blowup_reason = _blowup_reason(peak, threshold)
            if blowup_reason is not None:
                blowup_time = time
                break
    last = None
    if n_steps:
        last = StepRecord(c0.with_values(u, time), dt_used, tuple(residuals))
    trace = np.array(rows, dtype=np.float64).reshape(-1, 4)
    trace.flags.writeable = False
    return Trajectory(c0, last, n_steps, trace, blowup_time, blowup_reason)
