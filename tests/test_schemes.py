"""Splitting one-step maps, fixpoint iterates and the trajectory driver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import splitburg.schemes as schemes_mod
from splitburg import (
    BoundaryKind,
    CflMode,
    CflPolicy,
    CflViolation,
    ConfigError,
    ContractionWarning,
    FieldState,
    FluxFunction,
    InitialCondition,
    NoiseAmplitude,
    NoisePath,
    SchemeConfig,
    SpatialGrid,
    ab_step,
    aba_step,
    bab_step,
    coarsen,
    detect_blowup,
    em_step,
    generate_path,
    integrate,
    iter_after_step,
    iter_before_step,
    iter_before_trapezoid_step,
    make_initial_state,
    milstein_step,
    scl_step,
)
from splitburg.schemes import SCHEMES

GRID = SpatialGrid(0.0, 1.0, 16)
DIR = BoundaryKind.ZERO_DIRICHLET


def cfg_for(scheme, lam=0.5, sigma_kind="linear", **kw):
    return SchemeConfig(scheme, sigma=NoiseAmplitude(sigma_kind, lam), **kw)


def random_state(rng, n=16, scale=0.5):
    return FieldState(SpatialGrid(0.0, 1.0, n), scale * rng.normal(size=n))


def transported(state, dt, cfg):
    return scl_step(state, dt, cfg.flux, cfg.bc)


def propagate_values(values, state, dt, cfg):
    """EO step applied to an auxiliary field living on the same grid."""
    return scl_step(state.with_values(values), dt, cfg.flux, cfg.bc).values


# ---------------------------------------------------------------- config


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig("strang")
    with pytest.raises(ConfigError):
        SchemeConfig("ab", stochastic_substep="heun")
    with pytest.raises(ConfigError):
        SchemeConfig("iter_before", inner_mode="thirds")
    with pytest.raises(ConfigError):
        SchemeConfig("iter_after", iterations=0)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_after", iterations=9)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_before", iterations=3)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_before_trapezoid", iterations=1)
    with pytest.raises(ConfigError):
        SchemeConfig("ab", blowup_threshold=0.0)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="iterations"):
            SchemeConfig("iter_after", iterations=bad)
    # an integral float is stored as its int, as SpatialGrid does n_cells
    c0 = make_initial_state(GRID, InitialCondition.sine_bump())
    path = generate_path(1, 0.05, 0.0025)
    for scheme in ("iter_after", "iter_before", "iter_before_trapezoid"):
        cfg = SchemeConfig(scheme, iterations=2.0)
        assert type(cfg.iterations) is int and cfg.iterations == 2
        got = integrate(c0, 0.05, cfg, path, dt=0.005)
        want = integrate(c0, 0.05, SchemeConfig(scheme, iterations=2), path, dt=0.005)
        assert got.final_state.values.tobytes() == want.final_state.values.tobytes()
        assert got.residuals.tobytes() == want.residuals.tobytes()


def test_scheme_config_flags():
    assert set(SCHEMES) == {"ab", "aba", "bab", "iter_after", "iter_before",
                            "iter_before_trapezoid"}
    assert SchemeConfig("bab").quantum == 2
    assert SchemeConfig("iter_before", inner_mode="half_steps").quantum == 2
    assert SchemeConfig("iter_before").quantum == 1
    # quantum 2 for every half_steps iter_before, though only its second
    # iterate reads the halves
    assert SchemeConfig("iter_before", iterations=1, inner_mode="half_steps").quantum == 2
    assert [name for name, row in SCHEMES.items() if row.companion] == ["iter_before"]
    assert SCHEMES["iter_before"].companion == ("whole_step",)
    assert list(SCHEMES["iter_after"].iterations) == list(range(1, 9))
    assert list(SCHEMES["iter_before"].iterations) == [1, 2]
    assert list(SCHEMES["iter_before_trapezoid"].iterations) == list(range(2, 9))
    assert not SCHEMES["aba"].iterations
    # what a step reads
    modes = ("whole_step", "half_steps")
    for mode in modes:
        assert SchemeConfig("bab", iterations=1, inner_mode=mode).reads_halves
        first_only = SchemeConfig("iter_before", iterations=1, inner_mode=mode)
        assert not (first_only.reads_halves or first_only.carries_companion)
    whole = SchemeConfig("iter_before", iterations=2)
    halves = SchemeConfig("iter_before", iterations=2, inner_mode="half_steps")
    assert whole.carries_companion and not whole.reads_halves
    assert halves.reads_halves and not halves.carries_companion
    for name in ("ab", "aba", "iter_after", "iter_before_trapezoid"):
        for mode in modes:
            cfg = SchemeConfig(name, inner_mode=mode)
            assert not (cfg.reads_halves or cfg.carries_companion)


# ----------------------------------------------------- non-iterative maps


def test_ab_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("ab")
        got = ab_step(state, 0.01, dw, cfg)
        expected = milstein_step(transported(state, 0.01, cfg), cfg.sigma, dw, 0.01)
        assert np.array_equal(got.state_after.values, expected.values)
        assert got.state_after.time == pytest.approx(state.time + 0.01)
        assert got.iterate_residuals == ()


def test_ab_step_with_em_substep():
    rng = np.random.default_rng(4)
    state = random_state(rng)
    dw = 0.07
    cfg = cfg_for("ab", stochastic_substep="em")
    got = ab_step(state, 0.01, dw, cfg)
    expected = em_step(transported(state, 0.01, cfg), cfg.sigma, dw)
    assert np.array_equal(got.state_after.values, expected.values)


def test_ab_step_noise_off_equals_transport():
    rng = np.random.default_rng(6)
    state = random_state(rng)
    cfg = cfg_for("ab", lam=0.0)
    got = ab_step(state, 0.01, 0.33, cfg)
    assert np.array_equal(got.state_after.values, transported(state, 0.01, cfg).values)


def test_ab_step_zero_flux_is_a_pure_stochastic_step():
    cfg = cfg_for("ab", flux=FluxFunction("zero"))
    state = FieldState(GRID, np.linspace(-1.0, 1.0, 16))
    got = ab_step(state, 0.01, 0.2, cfg)
    expected = milstein_step(state.values, cfg.sigma, 0.2, 0.01)
    assert np.array_equal(got.state_after.values, expected)


def test_aba_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(20):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("aba")
        got = aba_step(state, 0.01, dw, cfg)
        half = transported(state, 0.005, cfg)
        mid = milstein_step(half, cfg.sigma, dw, 0.01)  # full-interval increment
        expected = transported(mid, 0.005, cfg)
        assert np.array_equal(got.state_after.values, expected.values)


def test_aba_step_on_constants_is_a_pure_stochastic_step():
    cfg = cfg_for("aba", bc=BoundaryKind.PERIODIC)
    state = FieldState(GRID, np.full(16, 0.8))
    got = aba_step(state, 0.01, 0.15, cfg)
    expected = milstein_step(state.values, cfg.sigma, 0.15, 0.01)
    assert np.array_equal(got.state_after.values, expected)


def test_bab_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(10)
    for _ in range(20):
        state = random_state(rng)
        dw1, dw2 = rng.normal(scale=0.07, size=2)
        cfg = cfg_for("bab")
        got = bab_step(state, 0.01, dw1, dw2, cfg)
        first = milstein_step(state.values, cfg.sigma, dw1, 0.005)
        moved = propagate_values(first, state, 0.01, cfg)
        expected = milstein_step(moved, cfg.sigma, dw2, 0.005)
        assert np.array_equal(got.state_after.values, expected)


def test_bab_constant_noise_merges_the_half_increments():
    cfg = cfg_for("bab", sigma_kind="constant", lam=0.4, bc=BoundaryKind.PERIODIC)
    state = FieldState(GRID, np.full(16, 1.1))
    got = bab_step(state, 0.01, 0.03, -0.05, cfg)
    merged = em_step(state.values, cfg.sigma, 0.03 + (-0.05))
    assert np.allclose(got.state_after.values, merged, rtol=1e-14)


def test_aba_and_bab_differ_on_a_generic_state():
    rng = np.random.default_rng(12)
    state = random_state(rng)
    dw1, dw2 = 0.08, -0.03
    aba = aba_step(state, 0.01, dw1 + dw2, cfg_for("aba"))
    bab = bab_step(state, 0.01, dw1, dw2, cfg_for("bab"))
    assert not np.array_equal(aba.state_after.values, bab.state_after.values)


# -------------------------------------------------------- iterative maps


def test_iter_after_single_sweep_is_the_standard_milstein_scheme():
    # transported base plus noise terms linearized at the starting state
    rng = np.random.default_rng(14)
    for _ in range(20):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("iter_after", iterations=1)
        got = iter_after_step(state, 0.01, dw, cfg)
        base = transported(state, 0.01, cfg).values
        amp = cfg.sigma(state.values)
        expected = base + amp * dw + 0.5 * amp * cfg.sigma.deriv(state.values) * (
            dw * dw - 0.01
        )
        assert np.array_equal(got.state_after.values, expected)
        assert got.iterate_residuals == ()


def test_iter_after_noise_off_fixes_every_iterate():
    rng = np.random.default_rng(16)
    state = random_state(rng)
    cfg = cfg_for("iter_after", lam=0.0, iterations=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = iter_after_step(state, 0.01, 0.4, cfg)
    assert np.array_equal(got.state_after.values, transported(state, 0.01, cfg).values)
    assert got.iterate_residuals == (0.0, 0.0, 0.0)


def test_iter_after_residuals_shrink_for_small_steps():
    rng = np.random.default_rng(18)
    state = random_state(rng, scale=0.3)
    path = generate_path(77, 0.004, 0.004)
    cfg = cfg_for("iter_after", iterations=4)
    got = iter_after_step(state, 0.004, path.total, cfg)
    r = got.iterate_residuals
    assert len(r) == 3
    assert r[0] > r[1] > r[2] > 0.0


def test_iter_after_warns_when_the_fixpoint_diverges():
    rng = np.random.default_rng(20)
    state = random_state(rng)
    cfg = cfg_for("iter_after", lam=1.0, iterations=3)
    with pytest.warns(ContractionWarning):
        iter_after_step(state, 0.01, 2.5, cfg)  # |dW| far above the contraction range


@pytest.mark.parametrize("sigma_kind", ["linear", "constant"])
def test_iter_before_single_iterate_formula_bitwise(sigma_kind):
    rng = np.random.default_rng(22)
    for _ in range(10):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("iter_before", sigma_kind=sigma_kind, iterations=1)
        got = iter_before_step(state, 0.01, dw, cfg)
        u = state.values
        amp = np.asarray(cfg.sigma(u), dtype=np.float64)
        corr = amp * np.asarray(cfg.sigma.deriv(u), dtype=np.float64)
        prop = lambda v: propagate_values(v, state, 0.01, cfg)
        expected = prop(u) + prop(amp) * dw + 0.5 * prop(prop(corr)) * (dw * dw - 0.01)
        assert np.array_equal(got.state_after.values, expected)


def test_iter_before_noise_off_is_pure_transport():
    rng = np.random.default_rng(24)
    state = random_state(rng)
    for iterations in (1, 2):
        cfg = cfg_for("iter_before", lam=0.0, iterations=iterations)
        got = iter_before_step(state, 0.01, 0.6, cfg)
        assert np.array_equal(
            got.state_after.values, transported(state, 0.01, cfg).values
        )


def test_iter_before_constant_noise_propagates_the_ones_direction():
    rng = np.random.default_rng(26)
    state = random_state(rng)
    dw = 0.12
    cfg = cfg_for("iter_before", sigma_kind="constant", lam=0.4, iterations=1)
    got = iter_before_step(state, 0.01, dw, cfg)
    base = transported(state, 0.01, cfg).values
    forced = propagate_values(np.full(16, 0.4), state, 0.01, cfg)
    assert np.allclose(got.state_after.values, base + forced * dw, rtol=1e-14)


def test_iter_before_second_iterate_reuses_the_companion_state():
    rng = np.random.default_rng(28)
    state = random_state(rng)
    companion = random_state(rng)
    dw = 0.09
    cfg = cfg_for("iter_before", iterations=2)
    got = iter_before_step(state, 0.01, dw, cfg, aba_state=companion)
    # the refreshed iterate evaluates the same formula at the companion values
    alone = iter_before_step(companion, 0.01, dw,
                             cfg_for("iter_before", iterations=1))
    assert np.array_equal(got.state_after.values, alone.state_after.values)
    assert len(got.iterate_residuals) == 1
    # without a companion the refresh re-evaluates at the start state
    standalone = iter_before_step(state, 0.01, dw, cfg)
    assert standalone.iterate_residuals == (0.0,)


def test_iter_before_step_raises_the_companion_aba_steps_cfl_violation():
    # the public step runs integrate's kernel, which also takes the
    # companion's aba step: here its second half transport is too long
    state = FieldState(GRID, np.full(16, 0.1))
    companion = sine_state(16)
    dt, dw = GRID.dx / companion.peak, 3.0
    cfg = cfg_for("iter_before", iterations=2)
    with pytest.raises(CflViolation) as aba_error:
        aba_step(companion, dt, dw, cfg)
    with pytest.raises(CflViolation) as step_error:
        iter_before_step(state, dt, dw, cfg, aba_state=companion)
    assert str(step_error.value) == str(aba_error.value)


def test_iter_before_half_steps_zero_flux_sums_two_milstein_half_steps():
    grid4 = SpatialGrid(0.0, 1.0, 4)
    state = FieldState(grid4, np.array([0.4, -0.2, 0.7, 0.1]))
    dw = 0.11
    cfg = cfg_for("iter_before", iterations=2, inner_mode="half_steps",
                  flux=FluxFunction("zero"))
    got = iter_before_step(state, 0.01, 2 * dw, cfg, halves=(dw, dw))
    first = milstein_step(state.values, cfg.sigma, dw, 0.005)
    second = milstein_step(first, cfg.sigma, dw, 0.005)
    assert np.allclose(got.state_after.values, first + second, rtol=1e-13)


def test_iter_before_half_steps_requires_both_half_increments():
    rng = np.random.default_rng(30)
    state = random_state(rng)
    cfg = cfg_for("iter_before", iterations=2, inner_mode="half_steps")
    with pytest.raises(ConfigError):
        iter_before_step(state, 0.01, 0.1, cfg)
    with pytest.raises(ConfigError):
        iter_before_step(state, 0.01, 0.1, cfg, halves=(0.05, None))


def test_trapezoid_noise_off_is_pure_transport():
    rng = np.random.default_rng(32)
    state = random_state(rng)
    cfg = cfg_for("iter_before_trapezoid", lam=0.0, iterations=3)
    got = iter_before_trapezoid_step(state, 0.01, 0.5, cfg)
    assert np.array_equal(got.state_after.values, transported(state, 0.01, cfg).values)
    assert len(got.iterate_residuals) == 2


def test_trapezoid_zero_increment_keeps_the_quadratic_drift():
    rng = np.random.default_rng(34)
    state = random_state(rng)
    cfg = cfg_for("iter_before_trapezoid", sigma_kind="constant", lam=0.4,
                  iterations=2)
    got = iter_before_trapezoid_step(state, 0.01, 0.0, cfg)
    expected = transported(state, 0.01, cfg).values - 0.5 * 0.4**2 * 0.01
    assert np.allclose(got.state_after.values, expected, rtol=1e-14)


@pytest.mark.parametrize("sigma_kind", ["linear", "constant"])
def test_trapezoid_recursion_matches_a_hand_rollout(sigma_kind):
    rng = np.random.default_rng(36)
    state = random_state(rng)
    dw = 0.08
    cfg = cfg_for("iter_before_trapezoid", sigma_kind=sigma_kind, iterations=3)
    got = iter_before_trapezoid_step(state, 0.01, dw, cfg)

    u = state.values
    prop = lambda v: propagate_values(v, state, 0.01, cfg)
    base = prop(u)
    amp = np.asarray(cfg.sigma(u), dtype=np.float64)
    corr = amp * np.asarray(cfg.sigma.deriv(u), dtype=np.float64)
    c1 = base + prop(amp) * dw + 0.5 * prop(prop(corr)) * (dw * dw - 0.01)
    quad = 0.5 * np.asarray(cfg.sigma(c1), dtype=np.float64) ** 2 * 0.01
    c2 = base - quad + cfg.sigma(0.5 * (c1 + u)) * dw
    c3 = base - quad + cfg.sigma(0.5 * (c2 + u)) * dw  # quad stays frozen at c1
    assert np.array_equal(got.state_after.values, c3)
    assert got.iterate_residuals == (
        float(np.mean(np.abs(c2 - c1))), float(np.mean(np.abs(c3 - c2)))
    )


# ------------------------------------------------------------- blow-up


def test_detect_blowup_boundaries():
    state = FieldState(GRID, np.zeros(16))
    assert not detect_blowup(state)
    spiked = state.with_values(np.where(np.arange(16) == 3, 1e6, 0.0))
    assert not detect_blowup(spiked)  # threshold is strict
    assert detect_blowup(spiked.with_values(spiked.values * 1.001))
    assert detect_blowup(state.with_values(np.where(np.arange(16) == 3, np.nan, 0.0)))
    with pytest.raises(ConfigError):
        detect_blowup(state, threshold=0.0)


# ------------------------------------------------------------ integrate


def sine_state(n=50):
    return make_initial_state(SpatialGrid(0.0, 1.0, n), InitialCondition.sine_bump())


def step_ends(c0, cfg, path, dt, n_steps):
    """The trajectory over k fixed steps for each k = 1..n_steps: a
    trajectory keeps only its last step, and the state after step k of a
    longer one is the endpoint over k steps on the same path."""
    return [integrate(c0, k * dt, cfg, path, dt=dt) for k in range(1, n_steps + 1)]


def test_integrate_zero_horizon():
    c0 = sine_state()
    path = generate_path(1, 0.1, 0.001)
    # bab and half_steps also sum half-interval increments
    for cfg in (cfg_for("ab"), cfg_for("bab"),
                cfg_for("iter_before", iterations=2, inner_mode="half_steps")):
        traj = integrate(c0, 0.0, cfg, path, dt=0.01)
        assert traj.n_steps == 0
        assert traj.final_state is c0
        assert not traj.blown_up


def test_integrate_requires_exactly_one_stepping_mode():
    c0 = sine_state()
    path = generate_path(1, 0.1, 0.001)
    with pytest.raises(ConfigError):
        integrate(c0, 0.1, cfg_for("ab"), path)
    with pytest.raises(ConfigError):
        integrate(c0, 0.1, cfg_for("ab"), path, dt=0.01,
                  cfl=CflPolicy(CflMode.COMBINED))


def test_integrate_alignment_errors():
    c0 = sine_state()
    path = generate_path(1, 0.1, 0.001)
    with pytest.raises(ConfigError):
        integrate(c0, 0.1, cfg_for("ab"), path, dt=0.0015)
    with pytest.raises(ConfigError):
        integrate(c0, 0.1, cfg_for("ab"), path, dt=0.03)
    with pytest.raises(ConfigError):
        integrate(c0, 0.2, cfg_for("ab"), path, dt=0.01)
    with pytest.raises(ConfigError):
        # half-increment schemes need an even number of fine steps per dt
        integrate(c0, 0.1, cfg_for("bab"), path, dt=0.005)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="dt must be finite"):
            integrate(c0, 0.1, cfg_for("ab"), path, dt=bad)
        with pytest.raises(ConfigError, match="t_end must be finite"):
            integrate(c0, bad, cfg_for("ab"), path, dt=0.01)
        with pytest.raises(ConfigError, match="t_end must be finite"):
            integrate(c0, bad, cfg_for("ab"), path, cfl=CflPolicy(dt_max=0.01))


def test_integrate_fixed_dt_consumes_the_coarsened_path():
    c0 = sine_state()
    path = generate_path(3, 0.1, 0.001)
    cfg = cfg_for("ab")
    traj = integrate(c0, 0.1, cfg, path, dt=0.01)
    assert traj.n_steps == 10
    ends = step_ends(c0, cfg, path, 0.01, 10)
    manual = c0
    for i, (end, dw) in enumerate(zip(ends, coarsen(path, 10))):
        assert end.n_steps == i + 1
        assert end.last_record.dt_used == pytest.approx(0.01)
        assert end.final_state.time == pytest.approx(0.01 * (i + 1))
        manual = ab_step(manual, 0.01, dw, cfg).state_after
        assert np.array_equal(end.final_state.values, manual.values)
    assert np.array_equal(traj.final_state.values, manual.values)


def test_integrate_is_reproducible():
    c0 = sine_state()
    path = generate_path(5, 0.1, 0.001)
    cfg = cfg_for("iter_after", iterations=3)
    a = step_ends(c0, cfg, path, 0.01, 10)
    b = step_ends(c0, cfg, path, 0.01, 10)
    assert a[-1].n_steps == b[-1].n_steps == 10
    assert a[-1].residuals.shape == (20, 4)
    assert a[-1].residuals.tobytes() == b[-1].residuals.tobytes()
    for ta, tb in zip(a, b):
        assert ta.final_state.values.tobytes() == tb.final_state.values.tobytes()


def test_integrate_noise_off_matches_the_scl_loop():
    c0 = sine_state()
    path = generate_path(7, 0.1, 0.001)
    cfg = cfg_for("ab", lam=0.0)
    traj = integrate(c0, 0.1, cfg, path, dt=0.01)
    manual = c0
    for _ in range(10):
        manual = scl_step(manual, 0.01, cfg.flux, cfg.bc)
    assert np.array_equal(traj.final_state.values, manual.values)


def test_integrate_truncates_on_threshold():
    c0 = sine_state()
    path = generate_path(9, 0.1, 0.001)
    cfg = cfg_for("ab", blowup_threshold=0.2)
    traj = integrate(c0, 0.1, cfg, path, dt=0.01)
    assert traj.blown_up
    assert traj.blowup_reason == "threshold"
    assert traj.blowup_time == pytest.approx(0.01)
    assert traj.n_steps == 1


def test_integrate_truncates_on_cfl_rejection():
    c0 = sine_state()
    path = generate_path(11, 0.1, 0.01)
    traj = integrate(c0, 0.1, cfg_for("ab"), path, dt=0.1)
    assert traj.blown_up
    assert traj.blowup_reason == "cfl_rejected"
    assert traj.blowup_time == 0.0
    assert traj.n_steps == 0


def test_integrate_adaptive_reaches_the_horizon(monkeypatch):
    c0 = sine_state()
    path = generate_path(13, 0.1, 0.001)
    cfg = cfg_for("ab", lam=0.0)
    policy = CflPolicy(CflMode.DETERMINISTIC_ONLY, safety=0.9, dt_max=0.05)
    step_dts = []

    def update(values, lin, sigma, dw, dt, substep):
        # ab makes one noise substep per step, over the whole step
        step_dts.append(dt)
        return real_update(values, lin, sigma, dw, dt, substep)

    real_update = schemes_mod.stochastic_update
    monkeypatch.setattr(schemes_mod, "stochastic_update", update)
    traj = integrate(c0, 0.1, cfg, path, cfl=policy)
    assert not traj.blown_up
    assert traj.final_state.time == pytest.approx(0.1)
    assert len(step_dts) == traj.n_steps > 1
    assert traj.last_record.dt_used == step_dts[-1]
    assert sum(step_dts) == pytest.approx(0.1)
    for step_dt in step_dts:
        steps = step_dt / 0.001
        assert abs(steps - round(steps)) < 1e-9


def test_integrate_adaptive_underflow_is_a_blowup_reason():
    grid = SpatialGrid(0.0, 1.0, 100)
    c0 = FieldState(grid, np.full(100, 100.0))
    path = generate_path(15, 0.1, 0.001)
    policy = CflPolicy(CflMode.DETERMINISTIC_ONLY, safety=0.9)
    traj = integrate(c0, 0.1, cfg_for("ab", lam=0.0), path, cfl=policy)
    assert traj.blown_up
    assert traj.blowup_reason == "dt_underflow"
    assert traj.n_steps == 0


def test_integrate_carries_the_aba_companion_across_steps():
    c0 = sine_state(32)
    path = generate_path(17, 0.02, 0.001)
    cfg = cfg_for("iter_before", iterations=2)
    ends = step_ends(c0, cfg, path, 0.01, 2)
    assert [t.n_steps for t in ends] == [1, 2]

    dw1 = path.increment_over(0, 10)
    dw2 = path.increment_over(10, 20)
    step1 = iter_before_step(c0, 0.01, dw1, cfg, aba_state=c0)
    companion = aba_step(c0, 0.01, dw1, cfg).state_after
    step2 = iter_before_step(step1.state_after, 0.01, dw2, cfg,
                             aba_state=companion)
    assert np.array_equal(ends[0].final_state.values, step1.state_after.values)
    assert np.array_equal(ends[1].final_state.values, step2.state_after.values)
    # the kernel's new values and companion own their data: no dead stack
    # rows stay alive between steps
    values, _, carried = SCHEMES["iter_before"].kernel(
        c0.values, 0.01, dw1, None, c0.values, cfg, c0.grid.dx, None)
    assert values.base is None and carried.base is None
    assert np.array_equal(values, step1.state_after.values)
    assert np.array_equal(carried, companion.values)


def test_only_ab_aba_bab_and_aba_companions_follow_the_em_substep():
    # iter_after, iter_before and iter_before_trapezoid linearize the noise in
    # Milstein form whatever stochastic_substep says; the aba solutions inside
    # iter_before (whole-step companion, half-steps midpoint) do follow it
    c0 = sine_state(32)
    path = generate_path(19, 0.02, 0.001)
    cases = {  # (scheme, iterations, inner_mode): first step where em differs
        ("ab", 1, "whole_step"): 0,
        ("aba", 1, "whole_step"): 0,
        ("bab", 1, "whole_step"): 0,
        ("iter_after", 3, "whole_step"): None,
        ("iter_before", 1, "whole_step"): None,
        ("iter_before", 2, "whole_step"): 1,
        ("iter_before", 2, "half_steps"): 0,
        ("iter_before_trapezoid", 3, "whole_step"): None,
    }
    for (scheme, iterations, inner_mode), first_diff in cases.items():
        ends = [
            step_ends(c0, cfg_for(scheme, iterations=iterations,
                                  inner_mode=inner_mode,
                                  stochastic_substep=substep), path, 0.01, 2)
            for substep in ("em", "milstein")
        ]
        equal = [np.array_equal(a.final_state.values, b.final_state.values)
                 for a, b in zip(*ends)]
        expected = [first_diff is None or i < first_diff for i in range(2)]
        assert equal == expected, (scheme, iterations, inner_mode)


def given_path(increments):
    """A path with these increments at dt_fine 0.01."""
    return NoisePath(0, 0.01, np.asarray(increments, dtype=np.float64))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("last_dw, bad", [(1e10, np.inf), (np.nan, np.nan)])
def test_integrate_ends_non_finite_at_the_overflowing_step(last_dw, bad):
    # zero flux, c + c dW: 1e300 doubles on the first step, then overflows
    # (or turns NaN) on the second, below the threshold all the while
    c0 = FieldState(SpatialGrid(0.0, 1.0, 4), np.full(4, 1e300))
    cfg = cfg_for("ab", lam=1.0, flux=FluxFunction("zero"),
                  stochastic_substep="em", blowup_threshold=1e305)
    traj = integrate(c0, 0.03, cfg, given_path([1.0, last_dw, 1.0]), dt=0.01)
    assert traj.blowup_reason == "non_finite"
    assert traj.blowup_time == traj.final_state.time == pytest.approx(0.02)
    assert traj.n_steps == 2
    assert np.array_equal(traj.final_state.values, np.full(4, bad), equal_nan=True)


def test_integrate_threshold_is_strict():
    # noise off and zero flux: the state keeps its values exactly
    cfg = cfg_for("ab", lam=0.0, flux=FluxFunction("zero"), blowup_threshold=2.5)
    path = given_path([0.1, 0.1])
    at = FieldState(SpatialGrid(0.0, 1.0, 4), np.array([0.0, -2.5, 1.0, 2.5]))
    traj = integrate(at, 0.02, cfg, path, dt=0.01)
    assert not traj.blown_up and traj.n_steps == 2
    above = at.with_values(np.array([0.0, -np.nextafter(2.5, 3.0), 1.0, 2.5]))
    traj = integrate(above, 0.02, cfg, path, dt=0.01)
    assert traj.blowup_reason == "threshold"
    assert traj.blowup_time == pytest.approx(0.01)
    assert traj.n_steps == 1


@pytest.mark.parametrize("scheme, iterations, inner_mode, calls", [
    # start state and companion stacked, the companion's aba halves riding along
    ("iter_before", 2, "whole_step", 2),
    ("iter_before", 1, "whole_step", 2),
    ("iter_before", 2, "half_steps", 6),
    ("iter_before_trapezoid", 3, "whole_step", 2),
])
def test_iterative_steps_batch_their_independent_transports(
        monkeypatch, scheme, iterations, inner_mode, calls):
    c0 = sine_state(32)
    path = generate_path(21, 0.02, 0.001)
    cfg = cfg_for(scheme, iterations=iterations, inner_mode=inner_mode)
    expected = step_ends(c0, cfg, path, 0.01, 2)
    count = []

    def counting(*args):
        count.append(1)
        return real(*args)

    real = schemes_mod._eo_step
    monkeypatch.setattr(schemes_mod, "_eo_step", counting)
    ends = step_ends(c0, cfg, path, 0.01, 2)
    assert len(count) == (1 + 2) * calls  # one step, then two
    assert [t.n_steps for t in ends] == [1, 2]
    for got, want in zip(ends, expected):
        assert np.array_equal(got.final_state.values, want.final_state.values)


def test_governed_single_iterate_half_steps_sums_no_halves(monkeypatch):
    # an I=1 step reads only its full-interval increment: one block sum a step
    calls = []

    def block_sums(self, *args):
        calls.append(args)
        return real(self, *args)

    real = NoisePath.block_sums
    monkeypatch.setattr(NoisePath, "block_sums", block_sums)
    cfg = cfg_for("iter_before", iterations=1, inner_mode="half_steps")
    traj = integrate(sine_state(32), 0.1, cfg, generate_path(27, 0.1, 1e-4),
                     cfl=CflPolicy(CflMode.COMBINED, dt_max=0.01))
    assert traj.n_steps > 1 and not traj.blown_up
    assert len(calls) == traj.n_steps


def test_integrate_scans_each_step_once(monkeypatch):
    c0 = sine_state()
    path = generate_path(23, 0.1, 0.001)
    computed, scans = [], []

    def update(*args):
        computed.append(real_update(*args))
        return computed[-1]

    def scan(values):
        scans.append(values)
        return real_scan(values)

    real_update, real_scan = schemes_mod.stochastic_update, schemes_mod._scan
    monkeypatch.setattr(schemes_mod, "stochastic_update", update)
    # the loop's own scan; the last state's scan of its copy is not counted
    monkeypatch.setattr(schemes_mod, "_scan", scan)
    policy = CflPolicy(CflMode.COMBINED, dt_max=0.01)
    # step k is the last step of a k-step trajectory, the one it keeps
    for k in range(1, 11):
        computed.clear()
        scans.clear()
        traj = integrate(c0, 0.01 * k, cfg_for("ab"), path, dt=0.01)
        assert traj.n_steps == len(computed) == len(scans) == k
        assert computed[-1] is scans[-1]
        assert np.array_equal(traj.final_state.values, computed[-1])
        assert traj.final_state.peak == float(np.max(np.abs(computed[-1])))
    # governed steps read their bound off the same one scan
    computed.clear()
    scans.clear()
    traj = integrate(c0, 0.1, cfg_for("ab"), generate_path(23, 0.1, 1e-4), cfl=policy)
    assert traj.n_steps == len(computed) == len(scans) > 10
    assert computed[-1] is scans[-1]
    assert np.array_equal(traj.final_state.values, computed[-1])


@pytest.mark.parametrize("scheme, iterations, inner_mode", [
    ("ab", 1, "whole_step"),
    ("bab", 1, "whole_step"),
    ("iter_after", 3, "whole_step"),
    ("iter_before", 2, "whole_step"),
    ("iter_before", 2, "half_steps"),
    ("iter_before_trapezoid", 2, "whole_step"),
])
def test_integrate_builds_one_state_per_trajectory(monkeypatch, scheme, iterations,
                                                   inner_mode):
    # the steps run on raw arrays; only the last step's state is built
    c0 = sine_state(32)
    path, fine_path = generate_path(27, 0.1, 0.001), generate_path(27, 0.1, 1e-4)
    cfg = cfg_for(scheme, iterations=iterations, inner_mode=inner_mode)
    built = []

    def post_init(self):
        built.append(1)
        real_init(self)

    real_init = FieldState.__post_init__
    monkeypatch.setattr(FieldState, "__post_init__", post_init)
    governed = CflPolicy(CflMode.COMBINED, dt_max=0.01)
    for path_, kw in ((path, {"dt": 0.01}), (fine_path, {"cfl": governed})):
        built.clear()
        assert integrate(c0, 0.1, cfg, path_, **kw).n_steps > 1
        assert len(built) == 1
    built.clear()
    assert integrate(c0, 0.1, cfg, path, dt=0.1).n_steps == 0  # cfl_rejected
    assert not built


@pytest.mark.parametrize("scheme, states", [
    ("ab", 6.0),
    ("aba", 7.0),
    ("bab", 7.2),
    ("iter_after", 7.4),
    ("iter_before", 33.0),
    ("iter_before_trapezoid", 18.0),
])
def test_a_trajectory_holds_one_state_not_one_per_step(scheme, states):
    # 200 steps of 80 KB states: keeping each step's state would peak at
    # 16 MB.  Streaming holds a few states, and each kernel a few scratch
    # rows beyond its stack (iter_before transports 7 rows at once); kernels
    # that allocate one temporary per operation peak at 7.1, 8.1, 8.3, 8.4,
    # 47.3 and 22.2 states
    c0 = make_initial_state(SpatialGrid(0.0, 1.0, 10_000), InitialCondition.sine_bump())
    path = generate_path(1, 0.01, 2.5e-5)
    cfg = cfg_for(scheme, iterations=2 if SCHEMES[scheme].iterations else 1)
    tracemalloc.start()
    try:
        traj = integrate(c0, 0.01, cfg, path, dt=5e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 200 and not traj.blown_up
    assert traj.residuals.shape == ((200, 4) if SCHEMES[scheme].iterations else (0, 4))
    assert peak < states * c0.values.nbytes



@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
def test_step_functions_reject_non_positive_dt(dt):
    state = sine_state()
    steps = (
        lambda: scl_step(state, dt, FluxFunction(), BoundaryKind.PERIODIC),
        lambda: ab_step(state, dt, 0.1, cfg_for("ab")),
        lambda: aba_step(state, dt, 0.1, cfg_for("aba")),
        lambda: bab_step(state, dt, 0.05, 0.05, cfg_for("bab")),
        lambda: iter_after_step(state, dt, 0.1, cfg_for("iter_after")),
        lambda: iter_before_step(state, dt, 0.1, cfg_for("iter_before")),
        lambda: iter_before_trapezoid_step(state, dt, 0.1,
                                           cfg_for("iter_before_trapezoid")),
    )
    for step in steps:
        with pytest.raises(ConfigError, match="dt must be positive"):
            step()
