"""Conservation-law step and stability-bound tests."""

import math

import numpy as np
import pytest

from splitburg import (
    BoundaryKind,
    CflMode,
    CflPolicy,
    CflViolation,
    ConfigError,
    FieldState,
    FluxFunction,
    InitialCondition,
    NoiseAmplitude,
    SpatialGrid,
    cfl_dt,
    engquist_osher_flux,
    l1_distance,
    make_initial_state,
    scl_step,
)

HALF = FluxFunction("burgers_half")
PER = BoundaryKind.PERIODIC
DIR = BoundaryKind.ZERO_DIRICHLET


def random_state(rng, n=32, scale=1.0):
    grid = SpatialGrid(0.0, 1.0, n)
    return FieldState(grid, scale * rng.normal(size=n))


def test_flux_values_and_derivatives():
    assert HALF(2.0) == 2.0
    assert HALF.deriv(2.0) == 2.0
    square = FluxFunction("burgers_square")
    assert square(2.0) == 4.0
    assert square.deriv(-1.5) == -3.0
    zero = FluxFunction("zero")
    assert zero(3.0) == 0.0
    assert zero.max_speed(np.array([5.0, -7.0])) == 0.0
    with pytest.raises(ConfigError):
        FluxFunction("cubic")


def test_engquist_osher_oracle_values():
    # f(max(a,0)) + f(min(b,0)) with f = u^2/2
    assert engquist_osher_flux(2.0, -1.0, HALF) == 2.5
    assert engquist_osher_flux(1.0, 2.0, HALF) == 0.5
    assert engquist_osher_flux(-1.0, -2.0, HALF) == 2.0
    assert engquist_osher_flux(0.0, 0.0, HALF) == 0.0


def test_engquist_osher_is_monotone():
    # non-decreasing in the left argument, non-increasing in the right one
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.normal(size=2)
        eps = 0.05
        base = engquist_osher_flux(a, b, HALF)
        assert engquist_osher_flux(a + eps, b, HALF) >= base - 1e-14
        assert engquist_osher_flux(a, b + eps, HALF) <= base + 1e-14


def test_constant_state_is_preserved_periodically():
    grid = SpatialGrid(0.0, 1.0, 10)
    state = FieldState(grid, np.full(10, 0.7))
    after = scl_step(state, 0.05, HALF, PER)
    assert np.array_equal(after.values, state.values)
    assert after.time == 0.05


def test_zero_state_is_a_fixed_point():
    grid = SpatialGrid(0.0, 1.0, 10)
    state = FieldState(grid, np.zeros(10))
    after = scl_step(state, 0.05, HALF, DIR)
    assert np.array_equal(after.values, np.zeros(10))


def test_mass_conservation_periodic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = random_state(rng, n=40)
        dt = 0.5 * state.grid.dx / np.max(np.abs(state.values))
        mass = np.sum(state.values) * state.grid.dx
        for _ in range(5):
            state = scl_step(state, dt, HALF, PER)
        drift = abs(np.sum(state.values) * state.grid.dx - mass)
        assert drift <= 50 * np.finfo(float).eps * max(1.0, abs(mass))


def test_maximum_principle_periodic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_state(rng, n=24)
        dt = 0.9 * state.grid.dx / np.max(np.abs(state.values))
        after = scl_step(state, dt, HALF, PER)
        assert after.values.min() >= state.values.min() - 1e-13
        assert after.values.max() <= state.values.max() + 1e-13


def test_step_is_monotone_in_the_state():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lo = random_state(rng, n=16)
        hi = lo.with_values(lo.values + rng.uniform(0.0, 0.5, size=16))
        speed = max(np.max(np.abs(lo.values)), np.max(np.abs(hi.values)))
        dt = 0.9 * lo.grid.dx / speed
        stepped_lo = scl_step(lo, dt, HALF, PER)
        stepped_hi = scl_step(hi, dt, HALF, PER)
        assert np.all(stepped_lo.values <= stepped_hi.values + 1e-13)


def test_step_contracts_l1_distance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_state(rng, n=20)
        b = random_state(rng, n=20)
        speed = max(np.max(np.abs(a.values)), np.max(np.abs(b.values)))
        dt = 0.9 * a.grid.dx / speed
        before = l1_distance(a, b)
        after = l1_distance(scl_step(a, dt, HALF, PER), scl_step(b, dt, HALF, PER))
        assert after <= before + 1e-13


def test_cfl_violation_names_the_admissible_step():
    grid = SpatialGrid(0.0, 1.0, 10)
    state = FieldState(grid, np.array([2.0] + [0.0] * 9))
    with pytest.raises(CflViolation) as err:
        scl_step(state, 0.2, HALF, DIR)
    assert err.value.dt == 0.2
    assert err.value.admissible == pytest.approx(0.05)
    assert "0.05" in str(err.value)


def test_non_positive_dt_rejected():
    grid = SpatialGrid(0.0, 1.0, 4)
    state = FieldState(grid, np.ones(4))
    with pytest.raises(ConfigError):
        scl_step(state, 0.0, HALF, DIR)


def test_shock_speed_matches_rankine_hugoniot():
    # u_left=1, u_right=0: the shock travels at speed 1/2, reaching
    # x = 0.5 + 0.4 * 0.5 = 0.7 by T = 0.4
    grid = SpatialGrid(0.0, 1.0, 200)
    state = make_initial_state(grid, InitialCondition.riemann_step(1.0, 0.0))
    dt = 0.9 * grid.dx
    t = 0.0
    while t < 0.4 - 1e-12:
        step = min(dt, 0.4 - t)
        state = scl_step(state, step, HALF, DIR)
        t += step
    j = int(np.max(np.nonzero(state.values >= 0.5)))
    crossing = 0.5 * (grid.centers[j] + grid.centers[j + 1])
    assert abs(crossing - 0.7) <= 2 * grid.dx


def test_cfl_deterministic_bound():
    grid = SpatialGrid(0.0, 0.3, 3)
    state = FieldState(grid, np.array([1.0, -2.0, 0.5]))
    policy = CflPolicy(CflMode.DETERMINISTIC_ONLY, safety=1.0)
    assert cfl_dt(state, NoiseAmplitude(), policy) == pytest.approx(0.05)
    # the square flux doubles the wave speed and halves the bound
    assert cfl_dt(
        state, NoiseAmplitude(), policy, flux=FluxFunction("burgers_square")
    ) == pytest.approx(0.025)


def test_cfl_stochastic_bound_for_linear_noise():
    # sigma = lam * u makes u^2 / (sigma^2 xi^2) = 1 / (lam xi)^2 in every cell
    grid = SpatialGrid(0.0, 1.0, 4)
    state = FieldState(grid, np.array([0.3, -1.2, 2.0, 0.5]))
    policy = CflPolicy(CflMode.STOCHASTIC_ONLY, safety=1.0, xi_bound=3.0)
    got = cfl_dt(state, NoiseAmplitude("linear", 0.5), policy)
    assert got == pytest.approx(1.0 / 2.25)


def test_cfl_combined_bound_matches_hand_formula():
    grid = SpatialGrid(0.0, 1.0, 2)
    state = FieldState(grid, np.array([0.8, -0.4]))
    sigma = NoiseAmplitude("linear", 0.5)
    policy = CflPolicy(CflMode.COMBINED, safety=1.0, xi_bound=3.0)
    dx = grid.dx
    cells = [
        (1.0 / (abs(u) / dx + abs(0.5 * u) * 3.0 / abs(u))) ** 2
        for u in state.values
    ]
    assert cfl_dt(state, sigma, policy) == pytest.approx(min(cells))


def test_cfl_safety_scales_the_bound():
    grid = SpatialGrid(0.0, 0.3, 3)
    state = FieldState(grid, np.array([1.0, -2.0, 0.5]))
    tight = CflPolicy(CflMode.DETERMINISTIC_ONLY, safety=0.9)
    assert cfl_dt(state, NoiseAmplitude(), tight) == pytest.approx(0.045)


def test_cfl_floored_state_falls_back_to_dt_max():
    grid = SpatialGrid(0.0, 1.0, 4)
    state = FieldState(grid, np.zeros(4))
    sigma = NoiseAmplitude("linear", 0.5)
    with pytest.raises(ConfigError):
        cfl_dt(state, sigma, CflPolicy(CflMode.COMBINED, safety=0.5))
    # the fallback is dt_max itself, not safety * dt_max
    policy = CflPolicy(CflMode.COMBINED, safety=0.5, dt_max=0.01)
    assert cfl_dt(state, sigma, policy) == 0.01


def test_cfl_caps_at_dt_max_and_t_remaining():
    grid = SpatialGrid(0.0, 0.3, 3)
    state = FieldState(grid, np.array([1.0, -2.0, 0.5]))
    policy = CflPolicy(CflMode.DETERMINISTIC_ONLY, safety=1.0, dt_max=0.02)
    assert cfl_dt(state, NoiseAmplitude(), policy) == 0.02
    assert cfl_dt(state, NoiseAmplitude(), policy, t_remaining=0.005) == 0.005
    for t_remaining in (0.0, -0.005, float("nan"), math.inf):
        with pytest.raises(ConfigError, match="t_remaining must be positive"):
            cfl_dt(state, NoiseAmplitude(), policy, t_remaining=t_remaining)
    # an infinite cap would be the step recommended for an all-zero state
    with pytest.raises(ConfigError, match="dt_max"):
        CflPolicy(dt_max=math.inf)


def test_cfl_policy_validation():
    with pytest.raises(ConfigError):
        CflPolicy(safety=0.0)
    with pytest.raises(ConfigError):
        CflPolicy(safety=1.5)
    with pytest.raises(ConfigError):
        CflPolicy(xi_bound=-1.0)
    with pytest.raises(ConfigError):
        CflPolicy(dt_max=0.0)
    with pytest.raises(ConfigError):
        CflMode.from_name("loose")
