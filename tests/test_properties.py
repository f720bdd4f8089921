"""Properties checked over generated inputs rather than hand-picked cases."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from splitburg import BoundaryKind, CflViolation, FluxFunction  # noqa: E402
from splitburg.burgers import _eo_step  # noqa: E402
from splitburg.grid import _mean_abs  # noqa: E402

# values that include exact zeros, both signs and a wide range of magnitudes
CELL_VALUES = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


def _one_row(row, dt, flux, bc, dx):
    try:
        return _eo_step(row, dt, flux, bc, dx)
    except CflViolation:
        return None


@settings(max_examples=200, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 5), st.integers(2, 12)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=CELL_VALUES)),
    dts=st.lists(st.floats(1e-4, 0.5), min_size=5, max_size=5),
    per_row=st.booleans(),
    flux=st.sampled_from(["burgers_half", "burgers_square", "zero"]),
    bc=st.sampled_from(list(BoundaryKind)),
)
def test_eo_step_on_a_stack_equals_one_call_per_row(stack, dts, per_row, flux, bc):
    # one dt per row, or the first for every row
    flux, dx = FluxFunction(flux), 1.0 / stack.shape[1]
    dts = dts[:len(stack)] if per_row else [dts[0]] * len(stack)
    dt = np.array(dts) if per_row else dts[0]
    rows = [_one_row(row, row_dt, flux, bc, dx) for row, row_dt in zip(stack, dts)]
    if any(r is None for r in rows):
        with pytest.raises(CflViolation):
            _eo_step(stack, dt, flux, bc, dx)
    else:
        batched = _eo_step(stack, dt, flux, bc, dx)
        assert batched.tobytes() == np.array(rows).tobytes()


# --- the in-place kernels equal their textbook expressions, bit for bit ----

from splitburg import NoiseAmplitude, engquist_osher_flux  # noqa: E402
from splitburg.burgers import _check_cfl  # noqa: E402
from splitburg.noise import stochastic_update  # noqa: E402

# the edges of float64 besides CELL_VALUES: subnormals, numbers whose square
# (or half square) is subnormal, the largest finite numbers, infinities and
# NaN; (0.5 * a) * a and 0.5 * (a * a) differ for some of them
EDGE_VALUES = st.one_of(
    CELL_VALUES,
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1.7976931348623157e308, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(math.copysign, st.floats(1e-163, 1e-153), st.sampled_from([1.0, -1.0])),
)


def _edge_arrays(shape):
    return arrays(np.float64, shape, elements=EDGE_VALUES)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(st.integers(2, 12).map(lambda n: (n,)),
                     st.tuples(st.integers(1, 4), st.integers(2, 12))).flatmap(_edge_arrays),
    dts=st.lists(st.floats(1e-4, 0.5), min_size=4, max_size=4),
    per_row=st.booleans(),
    known_speed=st.booleans(),
    flux=st.sampled_from(["burgers_half", "burgers_square", "zero"]),
    bc=st.sampled_from(list(BoundaryKind)),
)
def test_eo_step_is_its_textbook_expression_bit_for_bit(values, dts, per_row, known_speed,
                                                        flux, bc):
    # values - dt/dx * diff(F(pad(values))), one dt per row or one for all
    flux, dx = FluxFunction(flux), 1.0 / values.shape[-1]
    rows = values.reshape(-1, values.shape[-1])
    row_dts = dts[:len(rows)] if per_row and values.ndim == 2 else [dts[0]] * len(rows)
    dt = np.array(row_dts) if per_row and values.ndim == 2 else dts[0]
    ratio = (np.asarray(dt) / dx)[..., None] if np.ndim(dt) else dt / dx
    # for one field a caller-known speed of 0 skips the stability check, so
    # infinite values reach the arithmetic too
    speed = 0.0 if known_speed and values.ndim == 1 else None
    before = values.tobytes()
    with np.errstate(all="ignore"):
        padded = bc.pad(values)
        want = values - ratio * np.diff(
            engquist_osher_flux(padded[..., :-1], padded[..., 1:], flux), axis=-1)
        try:
            if speed is None:
                for row, row_dt in zip(rows, row_dts):
                    _check_cfl(flux.max_speed(row), row_dt, dx)
        except CflViolation:
            event("rejected by the stability check")
            with pytest.raises(CflViolation):
                _eo_step(values, dt, flux, bc, dx, speed)
        else:
            got = _eo_step(values, dt, flux, bc, dx, speed)
            assert got.shape == values.shape
            assert got.tobytes() == want.tobytes()
    assert values.tobytes() == before


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(1, 12).flatmap(lambda n: st.tuples(_edge_arrays(n), _edge_arrays(n))),
    same=st.booleans(),
    kind=st.sampled_from(["linear", "constant"]),
    lam=st.sampled_from([0.0, 0.5, 0.7, 1.3, 2.0]),
    dw=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.5, 0.5)),
    dt=st.floats(1e-5, 0.1),
    substep=st.sampled_from(["em", "milstein"]),
)
def test_stochastic_update_is_its_textbook_expression_bit_for_bit(base, same, kind, lam,
                                                                  dw, dt, substep):
    base, lin = base
    lin = base if same else lin
    sigma = NoiseAmplitude(kind, lam)
    before = base.tobytes() + lin.tobytes()
    with np.errstate(all="ignore"):
        want = base + sigma(lin) * dw
        if substep == "milstein":
            want = want + 0.5 * sigma(lin) * sigma.slope * (dw * dw - dt)
        got = stochastic_update(base, lin, sigma, dw, dt, substep)
        # sigma into a caller's buffer, fresh or aliasing a copy of its
        # input, is bitwise the allocating call broadcast to lin's shape
        amp = np.broadcast_to(sigma(lin), lin.shape).tobytes()
        fresh = sigma(lin, out=np.empty_like(lin))
        buf = lin.copy()
        aliased = sigma(buf, out=buf)
    assert got.tobytes() == want.tobytes()
    assert fresh.tobytes() == amp
    assert aliased is buf and buf.tobytes() == amp
    assert base.tobytes() + lin.tobytes() == before


# --- the streamed integrator equals stepping by hand -----------------------

from splitburg import (  # noqa: E402
    CflMode,
    CflPolicy,
    InitialCondition,
    SchemeConfig,
    SpatialGrid,
    ab_step,
    aba_step,
    bab_step,
    cfl_dt,
    generate_path,
    integrate,
    iter_after_step,
    iter_before_step,
    iter_before_trapezoid_step,
    make_initial_state,
)
from splitburg.schemes import SCHEMES  # noqa: E402

_FINE = 0.01
_GRID = SpatialGrid(0.0, 1.0, 12)


def _public_step(state, path, k, m, cfg, companion):
    """One step over fine steps [k, k + m) through the public step function
    of `cfg.scheme`, with its increments summed from the path; the aba
    companion, where the scheme carries one, takes its own aba step."""
    dt, mid = m * path.dt_fine, k + m // 2
    dw = path.increment_over(k, k + m)
    halves = (path.increment_over(k, mid), path.increment_over(mid, k + m))
    if cfg.scheme == "bab":
        return bab_step(state, dt, *halves, cfg), companion
    if cfg.scheme == "iter_before":
        rec = iter_before_step(state, dt, dw, cfg, aba_state=companion, halves=halves)
        if companion is not None:
            companion = aba_step(companion, dt, dw, cfg).state_after
        return rec, companion
    step = {"ab": ab_step, "aba": aba_step, "iter_after": iter_after_step,
            "iter_before_trapezoid": iter_before_trapezoid_step}[cfg.scheme]
    return step(state, dt, dw, cfg), companion


def _step_by_hand(c0, cfg, path, n_total, policy=None, m_fixed=None):
    """Steps through `_public_step` until fine step n_total: m_fixed fine
    steps each, or as many as the public `cfl_dt` admits under `policy`,
    snapped down to the path resolution and the scheme's quantum.
    Returns (final state, steps taken, (blow-up time, reason), residual
    rows)."""
    companion = c0 if cfg.carries_companion else None
    state, rows, step, k = c0, [], 0, 0
    while k < n_total:
        m = m_fixed
        if policy is not None:
            bound = cfl_dt(state, cfg.sigma, policy, flux=cfg.flux,
                           t_remaining=(n_total - k) * path.dt_fine)
            m = int(bound / path.dt_fine * (1.0 + 1e-12))
            m = min(m - m % cfg.quantum, n_total - k)
            if m <= 0:
                return state, step, (state.time, "dt_underflow"), rows
        try:
            rec, companion = _public_step(state, path, k, m, cfg, companion)
        except CflViolation:
            return state, step, (state.time, "cfl_rejected"), rows
        state = rec.state_after
        rows += [(step, state.time, sweep, residual)
                 for sweep, residual in enumerate(rec.iterate_residuals, start=2)]
        step, k = step + 1, k + m
        peak = float(np.max(np.abs(state.values)))
        if not np.isfinite(peak):
            return state, step, (state.time, "non_finite"), rows
        if peak > cfg.blowup_threshold:
            return state, step, (state.time, "threshold"), rows
    return state, step, (None, None), rows


@st.composite
def _scheme_cfgs(draw):
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    return SchemeConfig(
        scheme,
        # the first transport's CFL speed is read off the peak |value|, as
        # |u|, 2|u| or 0 by flux kind
        flux=FluxFunction(draw(st.sampled_from(["burgers_half", "burgers_square",
                                                "zero"]))),
        sigma=NoiseAmplitude(draw(st.sampled_from(["linear", "constant"])),
                             draw(st.floats(0.0, 2.0))),
        bc=draw(st.sampled_from(list(BoundaryKind))),
        iterations=draw(st.sampled_from(SCHEMES[scheme].iterations or range(1, 2))),
        stochastic_substep=draw(st.sampled_from(["em", "milstein"])),
        inner_mode=draw(st.sampled_from(["whole_step", "half_steps"])),
        # small thresholds trip "threshold"; iter_before I=2 half_steps does
        # on its own
        blowup_threshold=draw(st.one_of(st.floats(0.3, 5.0), st.just(1e6))),
    )


def _start(amplitude):
    c0 = make_initial_state(_GRID, InitialCondition.sine_bump())
    return c0.with_values(amplitude * c0.values)


def _assert_same(traj, by_hand):
    state, steps, (blowup_time, reason), rows = by_hand
    assert traj.final_state.values.tobytes() == state.values.tobytes()
    assert traj.final_state.time == state.time
    assert traj.n_steps == steps
    assert (traj.blowup_time, traj.blowup_reason) == (blowup_time, reason)
    want = np.array(rows, dtype=np.float64).reshape(-1, 4)
    assert traj.residuals.shape == want.shape
    assert traj.residuals.tobytes() == want.tobytes()
    if steps:
        assert traj.last_record.iterate_residuals == tuple(r[3] for r in rows
                                                           if r[0] == steps - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    cfg=_scheme_cfgs(),
    seed=st.integers(0, 2**63),
    amplitude=st.floats(-4.0, 4.0),
    # up to 8 fine steps of 0.01 on a 12-cell mesh trips "cfl_rejected"
    m=st.sampled_from([1, 2, 4, 6, 8]),
    n_steps=st.integers(1, 6),
)
def test_integrate_equals_stepping_by_hand(cfg, seed, amplitude, m, n_steps):
    m *= cfg.quantum
    c0 = _start(amplitude)
    path = generate_path(seed, n_steps * m * _FINE, _FINE)
    traj = integrate(c0, n_steps * m * _FINE, cfg, path, dt=m * _FINE)
    event(f"ends: {traj.blowup_reason or 'at t_end'}")
    _assert_same(traj, _step_by_hand(c0, cfg, path, n_steps * m, m_fixed=m))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    cfg=_scheme_cfgs(),
    seed=st.integers(0, 2**63),
    amplitude=st.floats(-4.0, 4.0),
    mode=st.sampled_from(list(CflMode)),
    safety=st.floats(0.1, 1.0),
    xi_bound=st.floats(0.5, 4.0),
    # below one fine step (two for half-interval schemes) trips "dt_underflow";
    # 0.02 lets stochastic_only, blind to the wave speed, trip "cfl_rejected"
    dt_max=st.sampled_from([0.0005, 0.001, 0.003, 0.008, 0.02]),
    n_total=st.integers(1, 12),
)
def test_governed_integrate_equals_stepping_by_hand(cfg, seed, amplitude, mode, safety,
                                                    xi_bound, dt_max, n_total):
    # integrate reads the stability bound off its one scan of each step's
    # result; the hand loop calls the public cfl_dt on each state
    fine, n_total = 0.001, n_total * cfg.quantum
    policy = CflPolicy(mode, safety=safety, xi_bound=xi_bound, dt_max=dt_max)
    c0 = _start(amplitude)
    path = generate_path(seed, n_total * fine, fine)
    traj = integrate(c0, n_total * fine, cfg, path, cfl=policy)
    event(f"{mode.value} ends: {traj.blowup_reason or 'at t_end'}")
    _assert_same(traj, _step_by_hand(c0, cfg, path, n_total, policy=policy))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       decades=st.integers(0, 40))
def test_row_means_of_a_stack_equal_one_mean_abs_per_row(k, n, seed, decades):
    # a row-wise reduction of a (k, n) stack, as per-row residuals of a
    # batched step would take, must equal `_mean_abs` of each row alone;
    # n crosses the block sizes of numpy's pairwise sum
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-decades, decades + 1, (k, n))
    rows = np.add.reduce(np.abs(d), axis=-1)
    for i in range(k):
        assert rows[i] / n == _mean_abs(d[i].copy())
