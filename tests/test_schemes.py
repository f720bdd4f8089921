"""Splitting one-step maps, fixpoint iterates and the trajectory driver."""

import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import splitburg.burgers as burgers_mod
import splitburg.noise as noise_mod
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
    coarsen,
    em_step,
    generate_path,
    integrate,
    iter_after_step,
    make_initial_state,
    milstein_step,
    scl_step,
    step,
)
from splitburg.burgers import transport
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
        SchemeConfig("iter_after", iterations=0)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_after", iterations=9)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_before", iterations=3)
    with pytest.raises(ConfigError):
        SchemeConfig("iter_before_trapezoid", iterations=1)
    with pytest.raises(ConfigError):
        SchemeConfig("ab", blowup_threshold=0.0)
    for bad in (2.5, math.nan, math.inf, True, np.True_):
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


@pytest.mark.parametrize("field, value", [("flux", "burgers"), ("sigma", "linear"),
                                         ("bc", "zero_dirichlet")])
def test_a_scheme_config_takes_objects_not_their_names(field, value):
    # a name would pass silently: transport reads a bc that is not
    # ZERO_DIRICHLET as periodic
    with pytest.raises(ConfigError, match=rf"^{field} must be of type"):
        SchemeConfig("ab", **{field: value})


def test_scheme_config_flags():
    assert set(SCHEMES) == {"ab", "aba", "bab", "iter_after", "iter_before",
                            "iter_before_trapezoid"}
    assert list(SCHEMES["iter_after"].iterations) == list(range(1, 9))
    assert list(SCHEMES["iter_before"].iterations) == [1, 2]
    assert list(SCHEMES["iter_before_trapezoid"].iterations) == list(range(2, 9))
    assert not SCHEMES["aba"].iterations
    # what a step reads, every scheme at every count it takes:
    # (quantum, carries_companion); a quantum of 2 means the step reads its
    # two half-interval increments
    flags = {}
    for name, row in SCHEMES.items():
        for i in row.iterations or (0,):
            cfg = SchemeConfig(name, iterations=i)
            flags[name, i] = (cfg.quantum, cfg.carries_companion)
    want = {("ab", 0): (1, False), ("aba", 0): (1, False), ("bab", 0): (2, False)}
    want.update({("iter_after", i): (1, False) for i in range(1, 9)})
    want.update({("iter_before", 1): (1, False), ("iter_before", 2): (1, True)})
    want.update({("iter_before_trapezoid", i): (1, False) for i in range(2, 9)})
    assert flags == want


# ----------------------------------------------------- non-iterative maps


def test_ab_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("ab")
        got = step(state, 0.01, dw, cfg)
        expected = milstein_step(transported(state, 0.01, cfg), cfg.sigma, dw, 0.01)
        assert np.array_equal(got.state_after.values, expected.values)
        assert got.state_after.time == pytest.approx(state.time + 0.01)
        assert got.iterate_residuals == ()


def test_ab_step_zero_flux_is_a_pure_stochastic_step():
    cfg = cfg_for("ab", flux=FluxFunction("zero"))
    state = FieldState(GRID, np.linspace(-1.0, 1.0, 16))
    got = step(state, 0.01, 0.2, cfg)
    expected = milstein_step(state.values, cfg.sigma, 0.2, 0.01)
    assert np.array_equal(got.state_after.values, expected)


def test_aba_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(20):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("aba")
        got = step(state, 0.01, dw, cfg)
        half = transported(state, 0.005, cfg)
        mid = milstein_step(half, cfg.sigma, dw, 0.01)  # full-interval increment
        expected = transported(mid, 0.005, cfg)
        assert np.array_equal(got.state_after.values, expected.values)


def test_aba_step_on_constants_is_a_pure_stochastic_step():
    cfg = cfg_for("aba", bc=BoundaryKind.PERIODIC)
    state = FieldState(GRID, np.full(16, 0.8))
    got = step(state, 0.01, 0.15, cfg)
    expected = milstein_step(state.values, cfg.sigma, 0.15, 0.01)
    assert np.array_equal(got.state_after.values, expected)


def test_bab_step_is_the_manual_composition_bitwise():
    rng = np.random.default_rng(10)
    for _ in range(20):
        state = random_state(rng)
        dw1, dw2 = rng.normal(scale=0.07, size=2)
        cfg = cfg_for("bab")
        got = step(state, 0.01, (dw1, dw2), cfg)
        first = milstein_step(state.values, cfg.sigma, dw1, 0.005)
        moved = propagate_values(first, state, 0.01, cfg)
        expected = milstein_step(moved, cfg.sigma, dw2, 0.005)
        assert np.array_equal(got.state_after.values, expected)


def test_bab_constant_noise_merges_the_half_increments():
    cfg = cfg_for("bab", sigma_kind="constant", lam=0.4, bc=BoundaryKind.PERIODIC)
    state = FieldState(GRID, np.full(16, 1.1))
    got = step(state, 0.01, (0.03, -0.05), cfg)
    merged = em_step(state.values, cfg.sigma, 0.03 + (-0.05))
    assert np.allclose(got.state_after.values, merged, rtol=1e-14)


def test_aba_and_bab_differ_on_a_generic_state():
    rng = np.random.default_rng(12)
    state = random_state(rng)
    dw1, dw2 = 0.08, -0.03
    aba = step(state, 0.01, dw1 + dw2, cfg_for("aba"))
    bab = step(state, 0.01, (dw1, dw2), cfg_for("bab"))
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
    # |dW| far above the contraction range; however deep in the package the
    # check runs, the warning names the line that called it
    calls = (
        lambda: step(state, 0.01, 2.5, cfg),
        lambda: iter_after_step(state, 0.01, 2.5, cfg),
        lambda: integrate(state, 0.01, cfg, given_path([2.5]), dt=0.01),
    )
    for call in calls:
        with pytest.warns(ContractionWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("sigma_kind", ["linear", "constant"])
def test_iter_before_single_iterate_formula_bitwise(sigma_kind):
    rng = np.random.default_rng(22)
    for _ in range(10):
        state = random_state(rng)
        dw = float(rng.normal(scale=0.1))
        cfg = cfg_for("iter_before", sigma_kind=sigma_kind, iterations=1)
        got = step(state, 0.01, dw, cfg)
        u = state.values
        amp = np.asarray(cfg.sigma(u), dtype=np.float64)
        corr = amp * np.asarray(cfg.sigma.deriv(u), dtype=np.float64)
        prop = lambda v: propagate_values(v, state, 0.01, cfg)
        expected = prop(u) + prop(amp) * dw + 0.5 * prop(prop(corr)) * (dw * dw - 0.01)
        assert np.array_equal(got.state_after.values, expected)


def test_iter_before_constant_noise_propagates_the_ones_direction():
    rng = np.random.default_rng(26)
    state = random_state(rng)
    dw = 0.12
    cfg = cfg_for("iter_before", sigma_kind="constant", lam=0.4, iterations=1)
    got = step(state, 0.01, dw, cfg)
    base = transported(state, 0.01, cfg).values
    forced = propagate_values(np.full(16, 0.4), state, 0.01, cfg)
    assert np.allclose(got.state_after.values, base + forced * dw, rtol=1e-14)


def test_iter_before_second_iterate_reuses_the_companion_state():
    rng = np.random.default_rng(28)
    state = random_state(rng)
    companion = random_state(rng)
    dw = 0.09
    cfg = cfg_for("iter_before", iterations=2)
    got = step(state, 0.01, dw, cfg, companion)
    # the refreshed iterate evaluates the same formula at the companion values
    alone = step(companion, 0.01, dw, cfg_for("iter_before", iterations=1))
    assert np.array_equal(got.state_after.values, alone.state_after.values)
    assert len(got.iterate_residuals) == 1
    # without a companion the refresh re-evaluates at the start state
    standalone = step(state, 0.01, dw, cfg)
    assert standalone.iterate_residuals == (0.0,)


def test_iter_before_step_raises_the_companion_aba_steps_cfl_violation():
    # the public step runs integrate's kernel, which also takes the
    # companion's aba step: here its second half transport is too long
    state = FieldState(GRID, np.full(16, 0.1))
    companion = sine_state(16)
    dt, dw = GRID.dx / companion.peak, 3.0
    cfg = cfg_for("iter_before", iterations=2)
    with pytest.raises(CflViolation) as aba_error:
        step(companion, dt, dw, replace(cfg, scheme="aba", iterations=0))
    with pytest.raises(CflViolation) as step_error:
        step(state, dt, dw, cfg, companion)
    assert str(step_error.value) == str(aba_error.value)


def test_trapezoid_zero_increment_keeps_the_quadratic_drift():
    rng = np.random.default_rng(34)
    state = random_state(rng)
    cfg = cfg_for("iter_before_trapezoid", sigma_kind="constant", lam=0.4,
                  iterations=2)
    got = step(state, 0.01, 0.0, cfg)
    expected = transported(state, 0.01, cfg).values - 0.5 * 0.4**2 * 0.01
    assert np.allclose(got.state_after.values, expected, rtol=1e-14)


@pytest.mark.parametrize("sigma_kind", ["linear", "constant"])
def test_trapezoid_recursion_matches_a_hand_rollout(sigma_kind):
    rng = np.random.default_rng(36)
    state = random_state(rng)
    dw = 0.08
    cfg = cfg_for("iter_before_trapezoid", sigma_kind=sigma_kind, iterations=3)
    got = step(state, 0.01, dw, cfg)

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
    # bab also sums half-interval increments, iter_before carries a companion
    for cfg in (cfg_for("ab"), cfg_for("bab"), cfg_for("iter_before", iterations=2)):
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


def test_integrate_refuses_a_start_state_away_from_time_zero():
    # the path and t_end count from 0: a later start would run past the
    # path's horizon and read its increments from the wrong place
    c0 = sine_state()
    path = generate_path(1, 0.1, 0.005)
    cfg = cfg_for("ab")
    mid = integrate(c0, 0.05, cfg, path, dt=0.01).final_state
    assert mid.time == pytest.approx(0.05)
    for t_end in (0.1, 0.05):
        with pytest.raises(ConfigError, match=r"c0\.time 0\.05"):
            integrate(mid, t_end, cfg, path, dt=0.01)
    with pytest.raises(ConfigError, match=r"c0\.time nan"):
        integrate(c0.with_values(c0.values, math.nan), 0.1, cfg, path, dt=0.01)


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
        assert end.final_state.time == pytest.approx(0.01 * (i + 1))
        manual = step(manual, 0.01, dw, cfg).state_after
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

    def update(values, lin, sigma, dw, dt):
        # ab makes one noise substep per step, over the whole step
        step_dts.append(dt)
        return real_update(values, lin, sigma, dw, dt)

    real_update = schemes_mod.stochastic_update
    monkeypatch.setattr(schemes_mod, "stochastic_update", update)
    traj = integrate(c0, 0.1, cfg, path, cfl=policy)
    assert not traj.blown_up
    assert traj.final_state.time == pytest.approx(0.1)
    assert len(step_dts) == traj.n_steps > 1
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
    step1 = step(c0, 0.01, dw1, cfg, c0)
    companion = step(c0, 0.01, dw1, replace(cfg, scheme="aba", iterations=0)).state_after
    step2 = step(step1.state_after, 0.01, dw2, cfg, companion)
    assert np.array_equal(ends[0].final_state.values, step1.state_after.values)
    assert np.array_equal(ends[1].final_state.values, step2.state_after.values)
    # the kernel's new values and companion own their data: no dead stack
    # rows stay alive between steps
    move = transport(cfg.flux, cfg.bc, c0.grid.dx)
    values, _, carried = SCHEMES["iter_before"].kernel(
        c0.values, 0.01, dw1, c0.values, cfg, move, None)
    assert values.base is None and carried.base is None
    assert np.array_equal(values, step1.state_after.values)
    assert np.array_equal(carried, companion.values)


@pytest.mark.parametrize("scheme, iterations", [
    ("ab", 1), ("aba", 1), ("bab", 1), ("iter_after", 1),
    ("iter_before", 1), ("iter_before", 2),
])
def test_every_splitting_noise_substep_is_milstein(scheme, iterations):
    # with zero flux the transport is the identity, so each step is its noise
    # substeps alone: the Milstein increment, also in iter_before's aba
    # companion, which the second step linearizes at
    c0 = sine_state(32)
    path = generate_path(19, 0.02, 0.001)
    cfg = cfg_for(scheme, iterations=iterations, flux=FluxFunction("zero"))
    ends = step_ends(c0, cfg, path, 0.01, 2)
    want, em = c0.values, c0.values
    for k in (0, 10):
        if scheme == "bab":
            for j in (k, k + 5):
                dw = path.increment_over(j, j + 5)
                want = milstein_step(want, cfg.sigma, dw, 0.005)
                em = em_step(em, cfg.sigma, dw)
        else:
            dw = path.increment_over(k, k + 10)
            want = milstein_step(want, cfg.sigma, dw, 0.01)
            em = em_step(em, cfg.sigma, dw)
    assert np.array_equal(ends[1].final_state.values, want)
    assert not np.allclose(want, em, rtol=1e-6, atol=0.0)


def given_path(increments):
    """A path with these increments at dt_fine 0.01."""
    return NoisePath(0.01, np.asarray(increments, dtype=np.float64))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("last_dw, bad", [(1e10, np.inf), (np.nan, np.nan)])
def test_integrate_ends_non_finite_at_the_overflowing_step(last_dw, bad):
    # zero flux, c + c dW + (1/2) c (dW^2 - dt): 1e300 grows 2.495-fold on
    # the first step, then overflows (or turns NaN) on the second, below the
    # threshold all the while
    c0 = FieldState(SpatialGrid(0.0, 1.0, 4), np.full(4, 1e300))
    cfg = cfg_for("ab", lam=1.0, flux=FluxFunction("zero"), blowup_threshold=1e305)
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


@pytest.mark.parametrize("scheme, iterations, moves, increments", [
    ("ab", 1, 1, 1),
    ("aba", 1, 2, 1),
    ("bab", 1, 1, 2),
    ("iter_after", 3, 1, 3),
    # start state and companion stacked, the companion's aba halves riding
    # along; its own aba noise substep is the second increment
    ("iter_before", 2, 2, 2),
    ("iter_before", 1, 2, 1),
    ("iter_before_trapezoid", 3, 2, 3),
])
def test_iterative_steps_batch_their_independent_transports(
        monkeypatch, scheme, iterations, moves, increments):
    # per step: `moves` transport calls and `increments` noise increments,
    # every one of them through `noise.apply_increment`
    c0 = sine_state(32)
    path = generate_path(21, 0.02, 0.001)
    cfg = cfg_for(scheme, iterations=iterations)
    expected = step_ends(c0, cfg, path, 0.01, 2)
    count = Counter()

    def counting(name, real):
        return lambda *args: count.update([name]) or real(*args)

    # every transport goes through the owner, one `_eo_step` call each
    monkeypatch.setattr(burgers_mod, "_eo_step", counting("move", burgers_mod._eo_step))
    core = counting("increment", noise_mod.apply_increment)
    monkeypatch.setattr(noise_mod, "apply_increment", core)
    monkeypatch.setattr(schemes_mod, "apply_increment", core)
    ends = step_ends(c0, cfg, path, 0.01, 2)
    # one step, then two
    assert count == {"move": (1 + 2) * moves, "increment": (1 + 2) * increments}
    assert [t.n_steps for t in ends] == [1, 2]
    for got, want in zip(ends, expected):
        assert np.array_equal(got.final_state.values, want.final_state.values)


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


@pytest.mark.parametrize("scheme, iterations", [
    ("ab", 1),
    ("bab", 1),
    ("iter_after", 3),
    ("iter_before", 2),
    ("iter_before_trapezoid", 2),
])
def test_integrate_builds_one_state_per_trajectory(monkeypatch, scheme, iterations):
    # the steps run on raw arrays; only the last step's state is built
    c0 = sine_state(32)
    path, fine_path = generate_path(27, 0.1, 0.001), generate_path(27, 0.1, 1e-4)
    cfg = cfg_for(scheme, iterations=iterations)
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
    cfg = cfg_for(scheme, iterations=2 if SCHEMES[scheme].iterations else 0)
    tracemalloc.start()
    try:
        traj = integrate(c0, 0.01, cfg, path, dt=5e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_steps == 200 and not traj.blown_up
    assert traj.residuals.shape == ((200, 4) if SCHEMES[scheme].iterations else (0, 4))
    assert peak < states * c0.values.nbytes



@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), math.inf])
def test_step_functions_reject_non_positive_dt(dt):
    # the gate, not the CFL check, refuses an infinite dt: under the zero
    # flux there is no CFL check, and the step would make an all-NaN state
    state = sine_state()
    steps = (
        lambda: scl_step(state, dt, FluxFunction(), BoundaryKind.PERIODIC),
        lambda: scl_step(state, dt, FluxFunction("zero"), BoundaryKind.PERIODIC),
        lambda: step(state, dt, 0.1, cfg_for("ab")),
        lambda: step(state, dt, 0.1, cfg_for("ab", flux=FluxFunction("zero"))),
        lambda: step(state, dt, 0.1, cfg_for("aba")),
        lambda: step(state, dt, (0.05, 0.05), cfg_for("bab")),
        lambda: iter_after_step(state, dt, 0.1, cfg_for("iter_after")),
        lambda: step(state, dt, 0.1, cfg_for("iter_before")),
        lambda: step(state, dt, 0.1, cfg_for("iter_before_trapezoid")),
    )
    for call in steps:
        with pytest.raises(ConfigError, match="dt must be positive"):
            call()


@pytest.mark.parametrize("public, scheme, iterations, dw, companion", [
    # bab reads the pair of half-interval increments, every other scheme one
    (step, "bab", 1, 0.1, False),
    (step, "ab", 1, (0.05, 0.05), False),
    (step, "aba", 1, (0.05, 0.05), False),
    (step, "iter_after", 2, (0.05, 0.05), False),
    (step, "iter_before", 2, (0.05, 0.05), False),
    (step, "iter_before_trapezoid", 2, (0.05, 0.05), False),
    # only iter_before at I=2 carries an aba companion
    (step, "ab", 1, 0.1, True),
    (step, "bab", 1, (0.05, 0.05), True),
    (step, "iter_before", 1, 0.1, True),
    (step, "iter_before_trapezoid", 2, 0.1, True),
    # iter_after_step runs no other scheme's kernel
    (iter_after_step, "ab", 1, 0.1, False),
    (iter_after_step, "iter_before", 2, 0.1, False),
    (iter_after_step, "bab", 1, (0.05, 0.05), False),
])
def test_step_refuses_arguments_that_do_not_fit_the_cell(public, scheme, iterations,
                                                         dw, companion):
    state = sine_state(16)
    cfg = cfg_for(scheme, iterations=iterations)
    extra = (state,) if companion else ()
    with pytest.raises(ConfigError, match=rf"\b{scheme}\b"):
        public(state, 0.01, dw, cfg, *extra)


def test_step_refuses_a_companion_from_another_mesh():
    # a companion of another size, or of the same size on another domain,
    # would be broadcast against the state or moved with the state's dx
    state = sine_state(10)
    cfg = cfg_for("iter_before", iterations=2)
    for grid in (SpatialGrid(0.0, 1.0, 12), SpatialGrid(0.0, 2.0, 10)):
        companion = make_initial_state(grid, InitialCondition.sine_bump())
        with pytest.raises(ConfigError, match=r"\biter_before\b.*companion"):
            step(state, 0.01, 0.1, cfg, companion)
    same = step(state, 0.01, 0.1, cfg, state.with_values(state.values))
    assert np.array_equal(same.state_after.values,
                          step(state, 0.01, 0.1, cfg).state_after.values)


def test_iter_before_rejects_every_seed_at_lambda_two():
    # pins ROADMAP item 10 before it is fixed: the shock regime (3 sin(pi x),
    # periodic, linear noise lam 2) at dt 0.001, where ab and aba take every
    # seed; iter_before transports its amplitude at lam times the field's
    # speed (test_properties.py::test_eo_step_scales_with_the_amplitude)
    grid = SpatialGrid(0.0, 1.0, 100)
    c0 = FieldState(grid, 3.0 * InitialCondition.sine_bump().sample(grid))
    sigma = NoiseAmplitude("linear", 2.0)
    paths = [generate_path(seed, 0.1, 6.25e-5) for seed in range(40)]
    rejected = {}
    for scheme, iterations in (("ab", 0), ("aba", 0), ("iter_after", 2),
                               ("iter_before", 1), ("iter_before", 2),
                               ("iter_before_trapezoid", 2)):
        cfg = SchemeConfig(scheme, sigma=sigma, bc=BoundaryKind.PERIODIC,
                           iterations=iterations)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContractionWarning)
            trajs = [integrate(c0, 0.1, cfg, path, dt=0.001) for path in paths]
        rejected[scheme, iterations] = sum(t.blowup_reason == "cfl_rejected"
                                           for t in trajs)
    assert rejected == {("ab", 0): 0, ("aba", 0): 0, ("iter_after", 2): 4,
                        ("iter_before", 1): 40, ("iter_before", 2): 40,
                        ("iter_before_trapezoid", 2): 40}


_TRAPEZOID_DRIFT = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 4: the trapezoid's frozen "
    "1/2 sigma(c1)^2 dt term moves the mass by 1/2 lam^2 t_end")


@pytest.mark.parametrize("scheme, iterations", [
    ("ab", 1),
    ("aba", 1),
    ("bab", 1),
    ("iter_after", 1),
    ("iter_after", 2),
    ("iter_after", 4),
    ("iter_before", 1),
    ("iter_before", 2),
    pytest.param("iter_before_trapezoid", 2, marks=_TRAPEZOID_DRIFT),
    pytest.param("iter_before_trapezoid", 4, marks=_TRAPEZOID_DRIFT),
])
def test_constant_noise_moves_the_mass_by_lambda_w(scheme, iterations):
    # the mass ledger under constant noise (ROADMAP item 9): periodic EO
    # transport conserves the cell mean, so it must end at m(0) + lam W(T);
    # measured at most 5.6e-16 over these seeds and meshes
    lam, t_end = 0.5, 0.1
    cfg = SchemeConfig(scheme, sigma=NoiseAmplitude("constant", lam),
                       bc=BoundaryKind.PERIODIC, iterations=iterations)
    paths = [generate_path(seed, t_end, 6.25e-5) for seed in range(10)]
    for n_cells in (50, 100):
        c0 = make_initial_state(SpatialGrid(0.0, 1.0, n_cells),
                                InitialCondition.sine_bump())
        for path in paths:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContractionWarning)
                traj = integrate(c0, t_end, cfg, path, dt=0.001)
            assert not traj.blown_up
            want = np.mean(c0.values) + lam * path.total
            assert abs(np.mean(traj.final_state.values) - want) <= 1e-13


_WRONG_LIMIT = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 4: iter_after at "
    "I >= 2 and the trapezoid converge to the wrong limit, which moves the mass")


@pytest.mark.parametrize("scheme, iterations", [
    ("ab", 1),
    ("aba", 1),
    ("bab", 1),
    ("iter_after", 1),
    pytest.param("iter_after", 2, marks=_WRONG_LIMIT),
    pytest.param("iter_after", 4, marks=_WRONG_LIMIT),
    ("iter_before", 1),
    ("iter_before", 2),
    pytest.param("iter_before_trapezoid", 2, marks=_WRONG_LIMIT),
    pytest.param("iter_before_trapezoid", 4, marks=_WRONG_LIMIT),
])
def test_linear_noise_moves_the_mass_by_the_milstein_product(scheme, iterations):
    # the mass ledger under linear noise (ROADMAP item 9): periodic EO
    # transport conserves the cell sum, and the Milstein update of lam c
    # multiplies every cell by the same factor, so a consistent scheme's
    # cell mean must end at m(0) prod_k (1 + lam dW_k + lam^2/2 (dW_k^2 - h))
    # over its step increments, bab's over the half intervals with h dt/2;
    # measured at most 2.3e-15 relative over these seeds and meshes
    lam, t_end, dt, dt_fine = 0.5, 0.1, 0.001, 0.0005
    cfg = SchemeConfig(scheme, sigma=NoiseAmplitude("linear", lam),
                       bc=BoundaryKind.PERIODIC, iterations=iterations)
    halves = scheme == "bab"
    width, h = (1, 0.5 * dt) if halves else (2, dt)
    n_steps = round(t_end / dt)
    for seed in range(6):
        path = generate_path(seed, t_end, dt_fine)
        dw = path.block_sums(0, width, n_steps * 2 // width)
        factor = np.prod(1.0 + lam * dw + 0.5 * lam**2 * (dw * dw - h))
        for n_cells in (50, 100):
            grid = SpatialGrid(0.0, 1.0, n_cells)
            c0 = FieldState(grid, 2.0 * np.sin(np.pi * grid.centers) - 0.3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContractionWarning)
                traj = integrate(c0, t_end, cfg, path, dt=dt)
            assert not traj.blown_up
            want = np.mean(c0.values) * factor
            got = np.mean(traj.final_state.values)
            assert abs(got - want) <= 1e-13 * abs(want)
