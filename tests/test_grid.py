"""Mesh, state and initial-condition tests."""

import pickle

import numpy as np
import pytest

from splitburg import (
    BoundaryKind,
    ConfigError,
    FieldState,
    InitialCondition,
    SpatialGrid,
    l1_distance,
    make_initial_state,
)

# sin(pi * x) at the 4-cell centers of [0, 1]
SIN_AT_QUARTER_CENTERS = (
    0.3826834323650898,
    0.9238795325112867,
    0.9238795325112867,
    0.3826834323650898,
)


def test_grid_geometry():
    grid = SpatialGrid(0.0, 1.0, 4)
    assert grid.dx == 0.25
    assert grid.length == 1.0
    assert np.allclose(grid.centers, [0.125, 0.375, 0.625, 0.875])


def test_grid_rejects_bad_bounds_and_cell_counts():
    with pytest.raises(ConfigError):
        SpatialGrid(1.0, 1.0, 10)
    with pytest.raises(ConfigError):
        SpatialGrid(0.0, -1.0, 10)
    with pytest.raises(ConfigError):
        SpatialGrid(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        SpatialGrid(0.0, np.inf, 10)
    # finite bounds whose length overflows, or a cell width that underflows
    with pytest.raises(ConfigError, match="dx must be positive and finite, got inf"):
        SpatialGrid(-1.0e308, 1.0e308, 4)
    with pytest.raises(ConfigError, match="dx must be positive and finite, got 0.0"):
        SpatialGrid(0.0, 5.0e-324, 2)
    # the order of the bounds keeps its own message
    with pytest.raises(ConfigError, match="x_max .* must exceed x_min"):
        SpatialGrid(1.0, 0.0, 10)
    # the range is compared before `int`, so NaN and infinities are refused;
    # a bool is not a whole number
    for n in (np.nan, np.inf, -np.inf, 1.5, 1, True):
        with pytest.raises(ConfigError, match="n_cells"):
            SpatialGrid(0.0, 1.0, n)
    # an integral float is stored as that integer, so every kind samples on it
    grid = SpatialGrid(0.0, 1.0, 10.0)
    assert type(grid.n_cells) is int and grid == SpatialGrid(0.0, 1.0, 10)
    for ic in (InitialCondition.sine_bump(), InitialCondition.riemann_step(1.0, 0.0),
               InitialCondition.constant(0.3),
               InitialCondition.table([0.0, 1.0], [0.0, 1.0])):
        assert make_initial_state(grid, ic).values.shape == (10,)


def test_grid_compatibility():
    a = SpatialGrid(0.0, 1.0, 8)
    assert a == SpatialGrid(0.0, 1.0, 8)
    assert a != SpatialGrid(0.0, 1.0, 9)
    assert a != SpatialGrid(0.0, 2.0, 8)


def test_boundary_padding():
    values = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(
        BoundaryKind.ZERO_DIRICHLET.pad(values), [0.0, 1.0, 2.0, 3.0, 0.0]
    )
    assert np.array_equal(
        BoundaryKind.PERIODIC.pad(values), [3.0, 1.0, 2.0, 3.0, 1.0]
    )


def test_boundary_from_name():
    assert BoundaryKind.from_name("periodic") is BoundaryKind.PERIODIC
    with pytest.raises(ConfigError):
        BoundaryKind.from_name("reflecting")


def test_field_state_copies_and_freezes_values():
    grid = SpatialGrid(0.0, 1.0, 3)
    buf = np.array([1.0, 2.0, 3.0])
    state = FieldState(grid, buf)
    buf[0] = 99.0
    assert state.values[0] == 1.0
    with pytest.raises(ValueError):
        state.values[0] = 0.0


def test_field_state_copies_frozen_arrays():
    grid = SpatialGrid(0.0, 1.0, 3)
    frozen = np.array([1.0, 2.0, 3.0])
    frozen.setflags(write=False)
    state = FieldState(grid, frozen, time=0.1)
    assert state.values is not frozen
    frozen.setflags(write=True)  # the caller still owns its array
    frozen[2] = 99.0
    assert state.values[2] == 3.0 and state.peak == 3.0


def test_field_state_stays_read_only_through_pickle():
    state = FieldState(SpatialGrid(0.0, 1.0, 3), np.array([1.0, -4.0, 3.0]), time=0.5)
    back = pickle.loads(pickle.dumps(state))
    assert back.time == 0.5 and back.peak == 4.0
    assert np.array_equal(back.values, state.values)
    with pytest.raises(ValueError):
        back.values[0] = 0.0


def test_field_state_shape_check():
    with pytest.raises(ValueError):
        FieldState(SpatialGrid(0.0, 1.0, 3), np.zeros(4))


def test_field_state_flags_non_finite_values():
    grid = SpatialGrid(0.0, 1.0, 3)
    assert FieldState(grid, np.zeros(3)).peak == 0.0
    assert np.isnan(FieldState(grid, np.array([0.0, np.nan, 0.0])).peak)
    assert FieldState(grid, np.array([0.0, np.inf, 0.0])).peak == np.inf


def test_blown_up_is_read_off_the_values_only():
    grid = SpatialGrid(0.0, 1.0, 3)
    zeros = FieldState(grid, np.zeros(3))
    # no caller can flag a finite state as diverged: the peak |value| is
    # the only mark, and it comes from the values
    with pytest.raises(TypeError):
        FieldState(grid, np.zeros(3), 0.0, True)
    with pytest.raises(TypeError):
        zeros.with_values(np.zeros(3), blown_up=True)
    assert zeros.peak == 0.0
    assert zeros.with_values(np.ones(3), 0.1).peak == 1.0
    assert np.isnan(zeros.with_values(np.array([0.0, np.nan, 1.0]), 0.1).peak)
    bad = FieldState(grid, np.array([0.0, -np.inf, 0.0]))
    assert pickle.loads(pickle.dumps(bad)).peak == np.inf


def test_with_values_keeps_time_unless_told():
    grid = SpatialGrid(0.0, 1.0, 2)
    state = FieldState(grid, np.ones(2), time=0.3)
    assert state.with_values(np.zeros(2)).time == 0.3
    assert state.with_values(np.zeros(2), time=0.7).time == 0.7


def test_sine_bump_samples():
    state = make_initial_state(SpatialGrid(0.0, 1.0, 4), InitialCondition.sine_bump())
    assert state.values == pytest.approx(SIN_AT_QUARTER_CENTERS, abs=1e-15)
    assert state.time == 0.0


def test_sine_bump_is_translation_invariant():
    # same arch regardless of where the domain sits
    a = make_initial_state(SpatialGrid(0.0, 1.0, 16), InitialCondition.sine_bump())
    b = make_initial_state(SpatialGrid(3.0, 4.0, 16), InitialCondition.sine_bump())
    assert np.allclose(a.values, b.values)


def test_riemann_step_jumps_at_midpoint():
    state = make_initial_state(
        SpatialGrid(0.0, 1.0, 4), InitialCondition.riemann_step(1.0, 0.0)
    )
    assert np.array_equal(state.values, [1.0, 1.0, 0.0, 0.0])


def test_constant_profile():
    state = make_initial_state(SpatialGrid(-1.0, 1.0, 5), InitialCondition.constant(2.5))
    assert np.array_equal(state.values, np.full(5, 2.5))


def test_table_profile_interpolates():
    ic = InitialCondition.table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    state = make_initial_state(SpatialGrid(0.0, 1.0, 4), ic)
    assert np.allclose(state.values, [0.25, 0.75, 0.75, 0.25])


def test_table_profile_reproduces_random_node_values():
    rng = np.random.default_rng(7)
    grid = SpatialGrid(0.0, 1.0, 16)
    for _ in range(20):
        us = rng.normal(size=16)
        ic = InitialCondition.table(grid.centers, us)
        # nodes sit exactly on cell centers, so sampling returns them verbatim
        assert np.array_equal(ic.sample(grid), us)
        dense = ic.sample(SpatialGrid(0.0, 1.0, 128))
        assert dense.min() >= us.min() - 1e-12
        assert dense.max() <= us.max() + 1e-12


def test_table_validation():
    with pytest.raises(ConfigError):
        InitialCondition.table([0.0], [1.0])
    with pytest.raises(ConfigError):
        InitialCondition.table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    # a NaN sample passes the ordering check (its comparisons are false) and
    # an infinite one interpolates to an all-inf state: both are refused
    with pytest.raises(ConfigError, match="x_table must be finite"):
        InitialCondition.table([0.0, np.nan, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ConfigError, match="x_table must be finite"):
        InitialCondition.table([0.0, 0.5, np.inf], [0.0, 1.0, 2.0])
    with pytest.raises(ConfigError, match="u_table must be finite"):
        InitialCondition.table([0.0, 0.5, 1.0], [0.0, np.inf, 2.0])
    with pytest.raises(ConfigError, match="u_table must be finite"):
        InitialCondition.table([0.0, 0.5, 1.0], [0.0, -np.inf, np.nan])
    # one non-finite case per scalar field, whatever the kind
    with pytest.raises(ConfigError, match="value must be finite"):
        InitialCondition.constant(np.nan)
    with pytest.raises(ConfigError, match="u_left must be finite"):
        InitialCondition.riemann_step(np.inf, 0.0)
    with pytest.raises(ConfigError, match="u_right must be finite"):
        InitialCondition.riemann_step(1.0, -np.inf)
    with pytest.raises(ConfigError, match="value must be finite"):
        InitialCondition("sine_bump", value=np.nan)
    # the scalar fields are real numbers: a sequence would broadcast (or
    # fail to) and a bool would be read as 0 or 1
    for bad in ([1.0, 2.0], [1.0] * 10, (0.5,), np.array([1.0]), True, np.True_, 1j,
                None, "1.0"):
        with pytest.raises(ConfigError, match="u_left must be finite"):
            InitialCondition("riemann_step", u_left=bad)
        with pytest.raises(ConfigError, match="u_right must be finite"):
            InitialCondition.riemann_step(1.0, bad)
        with pytest.raises(ConfigError, match="value must be finite"):
            InitialCondition.constant(bad)


def test_unknown_initial_condition_kind():
    with pytest.raises(ConfigError):
        InitialCondition("gaussian")


def test_l1_distance_is_cell_mean():
    grid = SpatialGrid(0.0, 1.0, 4)
    a = FieldState(grid, np.array([0.0, 0.0, 0.0, 0.0]))
    b = FieldState(grid, np.array([1.0, -1.0, 1.0, -1.0]))
    assert l1_distance(a, b) == 1.0
    assert l1_distance(a, a) == 0.0


def test_l1_distance_rejects_grid_mismatch():
    a = FieldState(SpatialGrid(0.0, 1.0, 4), np.zeros(4))
    b = FieldState(SpatialGrid(0.0, 2.0, 4), np.zeros(4))
    with pytest.raises(ValueError):
        l1_distance(a, b)
