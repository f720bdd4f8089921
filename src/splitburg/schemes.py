"""Time integrators composing transport and noise for the stochastic Burgers
equation dc + f(c)_x dt = sigma(c) dW.

T(t) is the transport over t and M(v, dW, t) = v + sigma(v) dW
+ (1/2) sigma(v) sigma'(v) (dW^2 - t) the Milstein noise substep.  dW is the
increment over the step's interval, dW_1 and dW_2 those of its two halves.

Non-iterative one-step maps:

    ab   c' = M(T(dt) c, dW, dt): transport over dt, then the noise substep
    aba  c' = T(dt/2) M(T(dt/2) c, dW, dt): half transport, the noise
         substep with the full increment, half transport
    bab  c' = M(T(dt) M(c, dW_1, dt/2), dW_2, dt/2): the two noise
         substeps take the genuine increments of the two half intervals

Iterative one-step maps:

    iter_after             fixed-point sweeps of the Milstein update around the
                           transported state; sweep i re-evaluates the noise
                           amplitude at iterate i-1 (sweep 1 is exactly the
                           one-shot Milstein-composed step; the formula is
                           `iter_after_step`'s)
    iter_before            variation-of-constants form: the transport propagator
                           is also applied to the noise-amplitude fields.  With
                               V(a) = T(dt) a + (T(dt) sigma(a)) dW
                                      + (1/2) (T(dt) T(dt) sigma sigma'(a)) (dW^2 - dt)
                           iterate 1 is c_1 = V(c), linearized at the start
                           state, and iterate 2 is c_2 = V(a), re-evaluated at
                           the aba companion a carried alongside (the start
                           state on the first step)
    iter_before_trapezoid  averaged-amplitude variant: after the first pass
                           c_1 = V(c), iterate i >= 2 is
                               c_i = T(dt) c - (1/2) sigma(c_1)^2 dt
                                     + sigma((c_{i-1} + c) / 2) dW
                           with the quadratic term frozen at c_1

Each scheme's step is a kernel on raw float64 cell values (the `SCHEMES`
table), and `SchemeConfig` says what a step of it reads: an aba companion
(`carries_companion`) and the fine steps its size is a multiple of
(`quantum`, 2 where it reads the two half-interval increments).  A kernel
moves its fields only through the `burgers.transport` it is handed, which
`integrate` builds once per trajectory and `step` once per call from the
configuration's flux and boundary and the grid's dx, so no kernel reads
those three itself.  `step`, the one public one-step map, runs the very
kernel `integrate` runs, wrapped in a state and a record; iter_before's
also takes the aba companion's step and drops its result.  The kernels
form the noise amplitude only by calling `NoiseAmplitude`, which computes
sigma(c) into a buffer they pass where they have one, so none branches on
the noise kind, and they apply every noise increment through the one
formula `noise.apply_increment`, in Milstein form: by `stochastic_update`
where the amplitude is sigma at a state, and directly where it is a
transported amplitude with its transported correction (the
variation-of-constants iterates).  The one Euler-Maruyama increment is the
trapezoid's later iterates', whose amplitude is sigma at its midpoint, as
the scheme defines.  A step of ab, aba or iter_before at I=1 makes one
increment, bab two, iter_before at I=2 two (its aba companion's and the
iterates' stacked), and iter_after and iter_before_trapezoid one per
iterate.
`integrate` drives a kernel along a reproducible noise path, with
either a fixed step size or a stability-bound-governed one, truncating on
blow-up, which `_blowup_reason` alone decides from a state's peak |value|;
`noise.step_counts` counts its fine steps and checks their alignment.  It
streams and builds no step records at all: a trajectory holds its
current values, the aba companion's values where the scheme carries one, a
step counter and the rows of its residual trace, and `Trajectory` holds
the state it ends on, a copy of the values through
`FieldState.with_values`.  Memory per trajectory is O(cells), not
O(steps x cells).  The state after step k of a fixed-dt trajectory is the
endpoint of integrating over k steps on the same path.
"""
from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .burgers import CflPolicy, FluxFunction, _governed_dt, transport
from .errors import CflViolation, ConfigError, check_kind, check_positive, check_whole
from .grid import BoundaryKind, FieldState, _mean_abs, _scan
from .noise import NoiseAmplitude, NoisePath, apply_increment, step_counts, stochastic_update

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
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD

    def __post_init__(self) -> None:
        allowed = scheme_traits(self.scheme).iterations or range(1, MAX_ITERATIONS + 1)
        object.__setattr__(self, "iterations", check_whole(
            self.iterations, allowed.start, allowed.stop,
            f"{self.scheme} takes iterations {allowed.start}..{allowed.stop - 1}"))
        check_positive(self.blowup_threshold, "blowup_threshold")

    @property
    def quantum(self) -> int:
        """Fine path steps every step size must be a multiple of: 2 where a
        step reads the increments of its two half intervals in place of the
        full one (bab)."""
        return 2 if SCHEMES[self.scheme].halves else 1

    @property
    def carries_companion(self) -> bool:
        """Whether the second iterate is refreshed from an aba companion
        carried alongside: iter_before at I=2."""
        return SCHEMES[self.scheme].companion and self.iterations > 1


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one step: the new state and the iterate residuals (one
    entry per sweep beyond the first; empty for non-iterative schemes)."""

    state_after: FieldState
    iterate_residuals: tuple[float, ...] = ()


def _check_contraction(residuals) -> None:
    """Warn when the residuals stop decreasing, from the first frame outside
    this module: the caller of `integrate` or of a public step."""
    for a, b in zip(residuals, residuals[1:]):
        if b >= a and b > 0.0:
            frame, stacklevel = sys._getframe(1), 2
            while frame.f_code.co_filename == __file__:
                frame, stacklevel = frame.f_back, stacklevel + 1
            warnings.warn(
                "iterate residuals are not decreasing; the step size likely "
                "exceeds the contraction range",
                ContractionWarning,
                stacklevel=stacklevel,
            )
            return


def _ab(u, dt, dw, companion, cfg, move, speed):
    v = move(u, dt, speed)
    return stochastic_update(v, v, cfg.sigma, dw, dt), (), companion


def _aba(u, dt, dw, companion, cfg, move, speed):
    h = 0.5 * dt
    v = move(u, h, speed)
    v = stochastic_update(v, v, cfg.sigma, dw, dt)
    return move(v, h), (), companion


def _bab(u, dt, dw, companion, cfg, move, speed):
    h = 0.5 * dt
    dw_first, dw_second = dw
    v = stochastic_update(u, u, cfg.sigma, dw_first, h)
    v = move(v, dt)
    v = stochastic_update(v, v, cfg.sigma, dw_second, h)
    return v, (), companion


def _iter_after(u, dt, dw, companion, cfg, move, speed):
    base = move(u, dt, speed)
    lin = u
    residuals: list[float] = []
    for sweep in range(1, cfg.iterations + 1):
        nxt = stochastic_update(base, lin, cfg.sigma, dw, dt)
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


def _voc_terms(u, dt: float, cfg: SchemeConfig,
               move: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variation-of-constants terms of the linearization at u: u and its
    amplitude propagated over dt, and its correction product twice.  The
    field, amplitude and correction go through one transport call, the
    correction's second pass through another."""
    moved = move(_linearized(cfg.sigma, (u,)), dt)
    return moved[0], moved[1], move(moved[2], dt)


def _iter_before_companion(u, companion, dt, dw, cfg, move):
    """Iterates 1 and 2 of iter_before, linearized at u and at the
    companion, and the companion's own aba step over dt.  The companion's
    two half transports ride in the two transport calls of the iterates,
    with their own dt.  The new values and companion are copies of their
    rows, so the stacks they come from die with the step."""
    h = 0.5 * dt
    # rows u, companion, amp x2, companion's first half transport, corr x2
    moved = move(_linearized(cfg.sigma, (u, companion), companion),
                 (dt, dt, dt, dt, h, dt, dt))
    mid = moved[4]
    moved[4] = stochastic_update(mid, mid, cfg.sigma, dw, dt)
    # rows: the companion's second half transport, corr x2
    twice = move(moved[4:7], (h, dt, dt))
    c1, c2 = apply_increment(moved[0:2], moved[2:4], dw, dt, twice[1:3])
    return c2.copy(), (_mean_abs(c2 - c1),), twice[0].copy()


def _iter_before(u, dt, dw, companion, cfg, move, speed):
    if cfg.carries_companion:
        return _iter_before_companion(u, companion, dt, dw, cfg, move)
    base, amp, corr = _voc_terms(u, dt, cfg, move)
    return apply_increment(base, amp, dw, dt, corr), (), companion


def _iter_before_trapezoid(u, dt, dw, companion, cfg, move, speed):
    base, amp, corr = _voc_terms(u, dt, cfg, move)
    c1 = apply_increment(base, amp, dw, dt, corr)
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
        # the EM increment of sigma((prev + u) / 2)
        mid = prev + u
        mid *= 0.5
        nxt = apply_increment(drift, sigma(mid, out=mid), dw)
        residuals.append(_mean_abs(nxt - prev))
        prev = nxt
    return prev, residuals, companion


def step(state: FieldState, dt: float, dw, cfg: SchemeConfig,
         companion: FieldState | None = None) -> StepRecord:
    """One step of `cfg.scheme` from `state` over dt, which must be positive
    and finite: the kernel `integrate` runs, on a transport built for this
    call, its result wrapped in a state and a record.

    `dw` is the full-interval increment, or where the scheme reads `halves`
    (bab) the pair of half-interval ones.  `companion` is the aba companion
    state of a cell that carries one (iter_before at I=2), the start state
    by default.  The kernel also takes the companion's own aba step, whose
    result is dropped here, so the step raises that aba step's CflViolation
    too, which `integrate` records as `cfl_rejected`.  An increment or a
    companion that does not fit the cell, such as a companion on another
    grid than the state's, is a ConfigError naming the scheme.
    """
    check_positive(dt, "dt")
    row = SCHEMES[cfg.scheme]
    if np.shape(dw) != ((2,) if row.halves else ()):
        want = "the pair of half-interval increments" if row.halves else "one increment"
        raise ConfigError(f"{cfg.scheme} takes {want}, got {dw!r}")
    if cfg.carries_companion:
        if companion is not None and companion.grid != state.grid:
            raise ConfigError(f"{cfg.scheme} takes an aba companion on the state's grid "
                              f"{state.grid}, got {companion.grid}")
        companion = (state if companion is None else companion).values
    elif companion is not None:
        raise ConfigError(f"{cfg.scheme} at iterations {cfg.iterations} carries no "
                          "aba companion")
    move = transport(cfg.flux, cfg.bc, state.grid.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        values, residuals, _ = row.kernel(state.values, dt, dw, companion, cfg, move, None)
    _check_contraction(residuals)
    return StepRecord(state.with_values(values, state.time + dt), tuple(residuals))


def iter_after_step(state: FieldState, dt: float, dw: float,
                    cfg: SchemeConfig) -> StepRecord:
    """Fixed-point sweeps of the Milstein update around the transported state.

    Sweep i:  c_i = T(dt) c  +  sigma(c_{i-1}) dW
                           +  (1/2) sigma(c_{i-1}) sigma'(c_{i-1}) (dW^2 - dt)
    with c_0 = c, so one sweep is exactly the one-shot Milstein-composed step.
    The transported state is computed once; only the noise linearization is
    refreshed, which is what contracts (or fails to, above the admissible dt).
    This is `step` on an iter_after cell; a config naming another scheme is
    a ConfigError.
    """
    if cfg.scheme != "iter_after":
        raise ConfigError(f"iter_after_step runs iter_after, not {cfg.scheme}")
    return step(state, dt, dw, cfg)


def _blowup_reason(peak: float, threshold: float) -> str | None:
    """"non_finite" for a non-finite peak |value|, "threshold" for one above
    the threshold (strictly), else None."""
    if peak <= threshold:
        return None
    return "threshold" if math.isfinite(peak) else "non_finite"


@dataclass(frozen=True)
class Trajectory:
    """Outcome of one integration, truncated on blow-up.

    `final_state` is the state it ends on (the start state when no step
    was taken), `n_steps` the number of steps taken, and `residuals` the
    read-only `(n, 4)` float64 trace with one row (step, time, iteration,
    residual) per iterate residual, steps counted from 0 and iterations
    from 2; it is `(0, 4)` for a trajectory without residuals.  The states
    of earlier steps are not kept.
    """

    final_state: FieldState
    n_steps: int
    residuals: np.ndarray
    blowup_time: float | None = None
    blowup_reason: str | None = None

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """The end state as a one-record tuple after a step, `()` before
        any: a record that carries the state only, kept for the benchmark's
        tracer, which sums their state sizes; it goes with benchmark
        contract v2."""
        return (StepRecord(self.final_state),) if self.n_steps else ()


@dataclass(frozen=True)
class SchemeTraits:
    """One row of the scheme table, the one place each scheme fact lives.

    `kernel(u, dt, dw, companion, cfg, move, speed)
    -> (values, residuals, companion)` is the scheme's step on raw float64
    cell values u, which it never writes: `dw` is the full-interval
    increment, or the pair of half-interval ones where the scheme reads
    `halves`, `companion` the aba companion's values (None where the scheme
    carries none), `move` the `burgers.transport` of u's mesh, through
    which the kernel does every transport, and `speed` max|f'(u)| where the
    caller knows it (else None).  It returns the new values, the iterate
    residuals (one per sweep beyond the first) and the companion after its
    own aba step.  Floating-point warnings are the caller's to silence.
    `iterations` are the counts it takes (empty: not iterative).
    `halves` says whether a step reads the increments of its two half
    intervals in place of the full one, so that dt spans an even number of
    fine steps (bab).  `companion` says whether the second iterate is
    refreshed from an aba solution carried alongside, so only from I=2 on
    (`SchemeConfig.carries_companion`).
    """

    kernel: Callable
    iterations: range = range(0)
    halves: bool = False
    companion: bool = False


SCHEMES = {
    "ab": SchemeTraits(_ab),
    "aba": SchemeTraits(_aba),
    "bab": SchemeTraits(_bab, halves=True),
    "iter_after": SchemeTraits(_iter_after, iterations=range(1, MAX_ITERATIONS + 1)),
    "iter_before": SchemeTraits(_iter_before, iterations=range(1, 3), companion=True),
    "iter_before_trapezoid": SchemeTraits(_iter_before_trapezoid,
                                          iterations=range(2, MAX_ITERATIONS + 1)),
}


def scheme_traits(name: str) -> SchemeTraits:
    """The table row of a scheme name."""
    check_kind(name, SCHEMES, "scheme")
    return SCHEMES[name]


def _step_increments(path: NoisePath, k: int, m: int, steps: int, halves: bool) -> list:
    """The increments of `steps` steps of m fine steps each from fine step
    k, one list entry per step: the full-interval increment, or with
    `halves` the pair of half-interval ones."""
    if halves:
        return path.block_sums(k, m // 2, 2 * steps).reshape(steps, 2).tolist()
    return path.block_sums(k, m, steps).tolist()


def integrate(c0: FieldState, t_end: float, cfg: SchemeConfig, path: NoisePath,
              dt: float | None = None, cfl: CflPolicy | None = None) -> Trajectory:
    """Drive one trajectory from c0 to t_end along the given noise path.

    The path and t_end count time from 0, so c0 must be at time 0: a state
    at any other time is a ConfigError naming c0.time.  Exactly one of `dt`
    (fixed step) or `cfl` (stability-governed step, snapped down to the
    path resolution) selects the stepping mode; `noise.step_counts` checks
    that t_end and dt fit the path in whole steps.  Blow-up (by threshold, non-finite values, a rejected explicit
    step, or an admissible step below the path resolution) truncates the
    trajectory and is flagged with its time and reason; numpy's overflow and
    invalid-value warnings are silenced for the whole trajectory.

    Each step calls the scheme's kernel on the current values (and the
    companion's) and scans its result once: the peak |value| decides
    blow-up, gives the next step's first wave speed, and with |u| feeds the
    governed step size.  No step record is built; each step appends its
    iterate residuals to the trace.
    """
    if (dt is None) == (cfl is None):
        raise ConfigError("provide exactly one of dt (fixed) or cfl (governed)")
    if c0.time != 0.0:
        raise ConfigError(f"integrate starts at time 0, got c0.time {c0.time!r}")
    fine, quantum = path.dt_fine, cfg.quantum
    n_total, m_fixed = step_counts(t_end, fine, dt, quantum)
    if n_total > path.n_steps:
        raise ConfigError(f"path covers only [0, {path.t_end}], t_end {t_end} is beyond it")

    kernel, flux, sigma = SCHEMES[cfg.scheme].kernel, cfg.flux, cfg.sigma
    dx, threshold, halves = c0.grid.dx, cfg.blowup_threshold, quantum == 2
    move = transport(flux, cfg.bc, dx)
    if m_fixed is not None:
        dws = _step_increments(path, 0, m_fixed, n_total // m_fixed, halves)
    u, time, peak = c0.values, c0.time, c0.peak
    absu = np.abs(u)
    companion = u if cfg.carries_companion else None
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
                bound = _governed_dt(absu, peak, speed, dx, sigma, cfl)
                m = int(bound / fine * (1.0 + 1e-12))
                m -= m % quantum
                m = min(m, n_total - k)
                if m <= 0:
                    blowup_time, blowup_reason = time, "dt_underflow"
                    break
                dws = _step_increments(path, k, m, 1, halves)
            j = 0 if m_fixed is None else n_steps
            step_dt = m * fine
            try:
                u, residuals, companion = kernel(u, step_dt, dws[j], companion, cfg, move,
                                                 speed)
            except CflViolation:
                blowup_time, blowup_reason = time, "cfl_rejected"
                break
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
    trace = np.array(rows, dtype=np.float64).reshape(-1, 4)
    trace.flags.writeable = False
    return Trajectory(c0.with_values(u, time) if n_steps else c0, n_steps, trace,
                      blowup_time, blowup_reason)
