"""Properties checked over generated inputs rather than hand-picked cases."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from splitburg import (BoundaryKind, CflViolation, FluxFunction, RunConfig,  # noqa: E402
                       parse_config)
from splitburg.burgers import _eo_step, transport  # noqa: E402
from splitburg.grid import _mean_abs  # noqa: E402


def _same_bits(got, want) -> bool:
    """Whether float arrays (or scalars) got and want have one shape and
    equal bytes, except that a NaN matches any NaN.  A kernel may commute
    an operation's operands, and a sum of two NaNs keeps one operand's
    sign and payload (numpy's in-place `a += b` keeps b's, `a + b` a's),
    so which NaN comes out is not part of a kernel's contract: `repr`
    prints both as `nan`, and a non-finite endpoint is a blow-up, whose
    values are not written."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(got)
    return (got.shape == want.shape and np.array_equal(nan, np.isnan(want))
            and got[~nan].tobytes() == want[~nan].tobytes())


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
        assert _same_bits(batched, rows)


# --- the in-place kernels equal their textbook expressions, bit for bit ----

from splitburg import (  # noqa: E402
    FieldState,
    NoiseAmplitude,
    SpatialGrid,
    em_step,
    engquist_osher_flux,
    milstein_step,
)
from splitburg.burgers import _check_cfl  # noqa: E402
from splitburg.noise import apply_increment, stochastic_update  # noqa: E402

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
    # values - dt/dx * diff(F(pad(values))), one dt per row or one for all;
    # the transport owner's move is the kernel, bit for bit and raise for raise
    flux, dx = FluxFunction(flux), 1.0 / values.shape[-1]
    move = transport(flux, bc, dx)
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
            with pytest.raises(CflViolation):
                move(values, dt, speed)
        else:
            got = _eo_step(values, dt, flux, bc, dx, speed)
            assert _same_bits(got, want)
            assert _same_bits(move(values, dt, speed), want)
    assert values.tobytes() == before


@settings(max_examples=300, deadline=None)
@example(terms=(np.array([0.0]), np.array([math.inf]), np.array([math.nan])), same=False,
         kind="linear", lam=0.0, dw=0.0, dt=0.0625)
@given(
    terms=st.integers(1, 12).flatmap(lambda n: st.tuples(*[_edge_arrays(n)] * 3)),
    same=st.booleans(),
    kind=st.sampled_from(["linear", "constant"]),
    lam=st.sampled_from([0.0, 0.5, 0.7, 1.3, 2.0]),
    dw=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.5, 0.5)),
    dt=st.floats(1e-5, 0.1),
)
def test_stochastic_update_is_its_textbook_expression_bit_for_bit(terms, same, kind, lam,
                                                                  dw, dt):
    base, lin, extra = terms
    lin = base if same else lin
    sigma = NoiseAmplitude(kind, lam)
    slope = sigma.slope
    before = base.tobytes() + lin.tobytes()
    with np.errstate(all="ignore"):
        want = base + sigma(lin) * dw + ((sigma(lin) * 0.5) * slope) * (dw * dw - dt)
        got = stochastic_update(base, lin, sigma, dw, dt)
        # em_step and milstein_step at the values themselves, given as a
        # scalar, a list, an array or a FieldState
        em_want = base + sigma(base) * dw
        mil_want = base + sigma(base) * dw + ((sigma(base) * 0.5) * slope) * (dw * dw - dt)
        listed = base.tolist()
        forms = [(base[0], em_want[0], mil_want[0]), (listed, em_want, mil_want),
                 (base, em_want, mil_want)]
        if base.size >= 2:
            state = FieldState(SpatialGrid(0.0, 1.0, base.size), base, 0.25)
            forms.append((state, em_want, mil_want))
        at_itself = [(form, em_step(form, sigma, dw), milstein_step(form, sigma, dw, dt),
                      em, mil) for form, em, mil in forms]
        # sigma into a caller's buffer, fresh or aliasing a copy of its
        # input, is bitwise the allocating call broadcast to lin's shape
        amp = np.broadcast_to(sigma(lin), lin.shape)
        fresh = sigma(lin, out=np.empty_like(lin))
        buf = lin.copy()
        aliased = sigma(buf, out=buf)
        # the one core on given terms: a correction of its own, the
        # amplitude itself as the correction, and none (Euler-Maruyama)
        cores = []
        for corr_of in (lambda a: extra.copy(), lambda a: a, lambda a: None):
            given = lin.copy()
            corr = corr_of(given)
            expected = base + lin * dw
            if corr is not None:
                expected = expected + ((corr * 0.5) * slope) * (dw * dw - dt)
            cores.append((apply_increment(base, given, dw, dt, corr, slope), expected))
    assert _same_bits(got, want)
    assert _same_bits(fresh, amp)
    assert aliased is buf and _same_bits(buf, amp)
    for core, expected in cores:
        assert _same_bits(core, expected)
    for form, em, mil, em_want, mil_want in at_itself:
        if isinstance(form, FieldState):
            assert em.time == mil.time == form.time
            em, mil, form = em.values, mil.values, form.values
        assert np.ndim(em) == np.ndim(mil) == np.ndim(form)
        assert _same_bits(em, em_want) and _same_bits(mil, mil_want)
    assert np.array(listed).tobytes() == base.tobytes()
    assert base.tobytes() + lin.tobytes() == before


@settings(max_examples=300, deadline=None)
@given(
    u=st.one_of(st.integers(1, 12).map(lambda n: (n,)),
                st.tuples(st.integers(1, 4), st.integers(1, 12))).flatmap(_edge_arrays),
    kind=st.sampled_from(["burgers_half", "burgers_square", "zero"]),
)
def test_every_flux_kind_is_a_times_u_squared_bit_for_bit(u, kind):
    # one formula, (a * u) * u with a = 1/2, 1 or 0, allocating or into a
    # buffer; the zero flux of an infinite or NaN u is NaN
    flux = FluxFunction(kind)
    a = {"burgers_half": 0.5, "burgers_square": 1.0, "zero": 0.0}[kind]
    before = u.tobytes()
    with np.errstate(all="ignore"):
        want = (a * u) * u
        got = flux(u)
        buf = np.empty_like(u)
        into = flux(u, out=buf)
    assert flux.a == a
    assert _same_bits(got, want)
    assert into is buf and _same_bits(buf, want)
    assert u.tobytes() == before
    if kind == "zero":
        assert np.array_equal(np.isnan(got), ~np.isfinite(u))


# --- the streamed integrator equals stepping by hand -----------------------

from dataclasses import replace  # noqa: E402

from splitburg import (  # noqa: E402
    CflMode,
    CflPolicy,
    InitialCondition,
    SchemeConfig,
    cfl_dt,
    generate_path,
    integrate,
    make_initial_state,
    step,
)
from splitburg.schemes import SCHEMES  # noqa: E402

_FINE = 0.01
_GRID = SpatialGrid(0.0, 1.0, 12)


def _public_step(state, path, k, m, cfg, companion):
    """One step over fine steps [k, k + m) through the public `step`, with
    its increments summed from the path; the aba companion, where the cell
    carries one, takes its own aba step."""
    dt, mid = m * path.dt_fine, k + m // 2
    dw = path.increment_over(k, k + m)
    if cfg.quantum == 2:
        dw = (path.increment_over(k, mid), path.increment_over(mid, k + m))
    rec = step(state, dt, dw, cfg, companion)
    if companion is not None:
        companion = step(companion, dt, dw, replace(cfg, scheme="aba")).state_after
    return rec, companion


def _step_by_hand(c0, cfg, path, n_total, policy=None, m_fixed=None):
    """Steps through `_public_step` until fine step n_total: m_fixed fine
    steps each, or as many as the public `cfl_dt` admits under `policy`,
    snapped down to the path resolution and the scheme's quantum.
    Returns (final state, steps taken, (blow-up time, reason), residual
    rows)."""
    companion = c0 if cfg.carries_companion else None
    state, rows, n_steps, k = c0, [], 0, 0
    while k < n_total:
        m = m_fixed
        if policy is not None:
            bound = cfl_dt(state, cfg.sigma, policy, flux=cfg.flux,
                           t_remaining=(n_total - k) * path.dt_fine)
            m = int(bound / path.dt_fine * (1.0 + 1e-12))
            m = min(m - m % cfg.quantum, n_total - k)
            if m <= 0:
                return state, n_steps, (state.time, "dt_underflow"), rows
        try:
            rec, companion = _public_step(state, path, k, m, cfg, companion)
        except CflViolation:
            return state, n_steps, (state.time, "cfl_rejected"), rows
        state = rec.state_after
        rows += [(n_steps, state.time, sweep, residual)
                 for sweep, residual in enumerate(rec.iterate_residuals, start=2)]
        n_steps, k = n_steps + 1, k + m
        peak = float(np.max(np.abs(state.values)))
        if not np.isfinite(peak):
            return state, n_steps, (state.time, "non_finite"), rows
        if peak > cfg.blowup_threshold:
            return state, n_steps, (state.time, "threshold"), rows
    return state, n_steps, (None, None), rows


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
        # small thresholds trip "threshold"
        blowup_threshold=draw(st.one_of(st.floats(0.3, 5.0), st.just(1e6))),
    )


def _start(amplitude):
    c0 = make_initial_state(_GRID, InitialCondition.sine_bump())
    return c0.with_values(amplitude * c0.values)


def _assert_same(traj, by_hand):
    state, steps, (blowup_time, reason), rows = by_hand
    assert _same_bits(traj.final_state.values, state.values)
    assert traj.final_state.time == state.time
    assert traj.n_steps == steps
    assert (traj.blowup_time, traj.blowup_reason) == (blowup_time, reason)
    assert _same_bits(traj.residuals, np.array(rows, dtype=np.float64).reshape(-1, 4))


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
    assert _same_bits(rows / n, [_mean_abs(d[i].copy()) for i in range(k)])


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from([0.1, 0.05, 0.025, 0.02, 0.01, 0.005]),
       levels=st.integers(1, 5), horizon=st.integers(1, 4))
def test_code_and_yaml_derive_the_same_study(base, levels, horizon):
    # RunConfig alone defaults dt_fine, to half the finest dt, so a study
    # built in code is the study its YAML ladder describes, in either form
    ladder = tuple(base / 2**k for k in range(levels))
    t_end = horizon * base
    from_code = RunConfig(dt_ladder=ladder, t_end=t_end)
    assert from_code.dt_fine == ladder[-1] / 2
    assert from_code == parse_config({"dt_ladder": list(ladder), "t_end": t_end})
    assert from_code == parse_config(
        {"dt_ladder": {"base": base, "levels": levels}, "t_end": t_end})
    # the default is applied at construction: replace derives it again
    # only when dt_fine=None is passed with the new ladder
    finer = tuple(dt / 2 for dt in ladder)
    assert replace(from_code, dt_ladder=finer).dt_fine == ladder[-1] / 2
    assert (replace(from_code, dt_ladder=finer, dt_fine=None)
            == RunConfig(dt_ladder=finer, t_end=t_end))


# --- ROADMAP item 10: why iter_before's transported amplitudes refuse steps ---

@settings(max_examples=300, deadline=None)
@given(
    magnitudes=st.integers(2, 12).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(1e-3, 1e3))),
    signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=12, max_size=12),
    lam=st.floats(0.01, 10.0),
    fraction=st.floats(0.01, 0.99),
    flux=st.sampled_from(["burgers_half", "burgers_square"]),
    bc=st.sampled_from(list(BoundaryKind)),
)
def test_eo_step_scales_with_the_amplitude(magnitudes, signs, lam, fraction, flux, bc):
    # the cause behind ROADMAP item 10: for a degree-2 flux one EO step
    # satisfies Phi_t(lam u) = lam Phi_{lam t}(u), so a transported linear
    # amplitude lam u moves at lam times the field's speed and meets its CFL
    # limit at dt / lam; t sits inside both (equal) limits.  The rounding
    # scale is the input's: near the limit the result can cancel to a few
    # percent of it (100,000 random cases stayed below 1.7 eps * max|lam u|)
    u = magnitudes * np.array(signs[:magnitudes.size])
    flux, dx = FluxFunction(flux), 1.0 / u.size
    t = fraction * dx / (lam * flux.max_speed(u))
    scaled = _eo_step(lam * u, t, flux, bc, dx)
    expected = lam * _eo_step(u, lam * t, flux, bc, dx)
    tol = 16 * np.finfo(np.float64).eps * np.abs(lam * u).max()
    assert np.abs(scaled - expected).max() <= tol


# --- invariants: noise-off degeneracy, conservation, weak <= strong --------

import warnings  # noqa: E402

from splitburg import EnsembleSample, scl_step, summarize  # noqa: E402

# finite values: CELL_VALUES and the subnormals
FINITE_VALUES = st.one_of(CELL_VALUES,
                          st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
FLUX_KINDS = ["burgers_half", "burgers_square", "zero"]


def _admissible_dt(state, flux, fraction):
    """A fraction of the step the stability check admits for the state (of
    1 where it admits any)."""
    speed = flux.max_speed(state.values)
    return fraction * min(state.grid.dx / speed if speed > 0.0 else math.inf, 1.0)


@st.composite
def _noise_off_cfgs(draw):
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    return SchemeConfig(
        scheme,
        flux=FluxFunction(draw(st.sampled_from(FLUX_KINDS))),
        sigma=NoiseAmplitude(draw(st.sampled_from(["linear", "constant"])), 0.0),
        bc=draw(st.sampled_from(list(BoundaryKind))),
        iterations=draw(st.sampled_from(SCHEMES[scheme].iterations or range(1, 2))),
    )


@settings(max_examples=400, deadline=None)
@given(
    values=st.integers(2, 16).flatmap(
        lambda n: arrays(np.float64, n, elements=FINITE_VALUES)),
    cfg=_noise_off_cfgs(),
    fraction=st.floats(2.0 ** -30, 1.0),
    dws=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_a_noise_off_step_is_its_transport_skeleton(values, cfg, fraction, dws):
    # at lam = 0 every scheme's step is its transport alone, T(dt), or
    # T(dt/2) T(dt/2) for aba, whatever the increment; an iterative step's
    # residuals are all 0, so none warns
    state = FieldState(SpatialGrid(0.0, 1.0, values.size), values)
    dt = _admissible_dt(state, cfg.flux, fraction)
    if cfg.scheme == "aba":
        half = scl_step(state, 0.5 * dt, cfg.flux, cfg.bc)
        skeleton = scl_step(half, 0.5 * dt, cfg.flux, cfg.bc)
    else:
        skeleton = scl_step(state, dt, cfg.flux, cfg.bc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = step(state, dt, dws if cfg.quantum == 2 else dws[0], cfg)
    assert np.array_equal(rec.state_after.values, skeleton.values)
    assert rec.iterate_residuals == (0.0,) * (cfg.iterations - 1)


@settings(max_examples=400, deadline=None)
@given(
    values=st.integers(2, 64).flatmap(
        lambda n: arrays(np.float64, n, elements=FINITE_VALUES)),
    flux=st.sampled_from(FLUX_KINDS),
    fraction=st.floats(2.0 ** -30, 1.0),
)
def test_periodic_transport_conserves_the_cell_sum_to_rounding(values, flux, fraction):
    # new_j = u_j - r (I_{j+1} - I_j) telescopes exactly for the computed
    # interface fluxes I, since periodic closure makes I_0 and I_n the same
    # number.  What is left is the rounding of the difference, of the
    # product with r and of the subtraction: with unit roundoff eps/2,
    # |sum new - sum u| <= (eps/2) (sum |new| + 2 sum r|I_{j+1} - I_j|).
    # Under the stability bound r |f(v)| <= |v|/2, so sum r|I_{j+1} - I_j|
    # <= 2 sum |u| and sum |new| <= 3 sum |u|: 3.5 eps sum |u| to first
    # order, plus 2^-1075 a cell where a product underflows.  Both sums
    # are exact (fsum), so the bound does not grow with the cell count.
    flux = FluxFunction(flux)
    state = FieldState(SpatialGrid(0.0, 1.0, values.size), values)
    new = scl_step(state, _admissible_dt(state, flux, fraction), flux,
                   BoundaryKind.PERIODIC).values
    drift = abs(math.fsum(np.concatenate((new, -values))))
    eps = np.finfo(np.float64).eps
    assert drift <= 4.0 * eps * math.fsum(np.abs(values)) + values.size * 5e-324


@st.composite
def _ensembles(draw):
    """(samples, reference): endpoints around a centre that is the
    reference or not, at one of several scales, spread from none (every
    seed alike) to the scale itself, with up to two blown-up seeds."""
    n, seeds = draw(st.integers(2, 8)), draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1e-300, 1e-8, 1.0, 1e4, 1e6, 1e12, 1e150]))
    unit = arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
    ref = scale * draw(unit)
    centre = draw(st.one_of(st.just(ref), unit.map(lambda v: scale * v)))
    spread = scale * draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))
    grid = SpatialGrid(0.0, 1.0, n)
    samples = [EnsembleSample(seed, "ab", 1, 0.01,
                              FieldState(grid, centre + spread * draw(unit)))
               for seed in range(seeds)]
    samples += [EnsembleSample(seeds + k, "ab", 1, 0.01, None, 0.005)
                for k in range(draw(st.integers(0, 2)))]
    return samples, FieldState(grid, ref)


# nine seeds that all end on a reference below the blow-up threshold: the
# seed mean is one ulp off, so weak is about 5e-12 while strong is 0
_AT_THE_REFERENCE = FieldState(SpatialGrid(0.0, 1.0, 4), np.array(
    [63170.71082431, -99452.29996597, 71480.85531751, -93282.88493891]))


@settings(max_examples=400, deadline=None)
@example(ensemble=([EnsembleSample(seed, "ab", 1, 0.01, _AT_THE_REFERENCE)
                    for seed in range(9)], _AT_THE_REFERENCE))
@given(ensemble=_ensembles())
def test_summarize_keeps_weak_below_strong_and_a_non_negative_variance(ensemble):
    # Jensen: weak <= strong exactly.  Rounding parts them by at most
    # (cells + seeds + 2) eps times the data's scale, mean|ref| + strong,
    # which bounds the seed mean of |endpoint| per cell, or of the smallest
    # normal number where a rounding falls below the normals; summarize
    # raises on an ensemble that breaks its own check
    samples, ref = ensemble
    report = summarize(samples, ref)
    used = sum(s.endpoint is not None for s in samples)
    f64 = np.finfo(np.float64)
    scale = float(np.abs(ref.values).mean()) + report.strong + f64.tiny
    assert report.weak - report.strong <= (ref.values.size + used + 2) * f64.eps * scale
    assert report.variance_mean >= 0.0
    assert (report.n_seeds_used, report.blowup_count) == (used, len(samples) - used)
