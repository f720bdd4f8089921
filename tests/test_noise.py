"""Wiener path generation, coarsening and one-step stochastic maps."""

import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from splitburg import (
    ConfigError,
    FieldState,
    NoiseAmplitude,
    NoisePath,
    ResourceLimit,
    SpatialGrid,
    coarsen,
    em_step,
    exact_linear_sde,
    generate_path,
    milstein_step,
)
import splitburg.noise as noise_mod
from splitburg.noise import (
    SEED_LIMIT,
    _ndtri,
    _philox_draws,
    step_counts,
    stochastic_update,
    whole_steps,
)

EXP_HALF = 1.6487212707001282  # e^{1/2}


def test_amplitude_kinds():
    linear = NoiseAmplitude("linear", 0.5)
    assert linear(2.0) == 1.0
    assert linear.deriv(2.0) == 0.5
    assert np.array_equal(linear(np.array([1.0, -2.0])), [0.5, -1.0])

    constant = NoiseAmplitude("constant", 0.3)
    assert constant(17.0) == 0.3
    assert constant.deriv(17.0) == 0.0
    assert np.array_equal(constant(np.zeros(3)), np.full(3, 0.3))


def test_amplitude_validation():
    with pytest.raises(ConfigError):
        NoiseAmplitude("quadratic", 0.5)
    with pytest.raises(ConfigError):
        NoiseAmplitude("linear", -0.1)


def test_path_is_reproducible_per_seed():
    a = generate_path(42, 1.0, 1e-3)
    b = generate_path(42, 1.0, 1e-3)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, generate_path(43, 1.0, 1e-3).increments)


def test_path_geometry():
    path = generate_path(1, 0.01, 1e-3)
    assert path.n_steps == 10
    assert path.t_end == pytest.approx(0.01)


def test_whole_steps_counts_aligned_multiples_only():
    assert whole_steps(0.1, 0.001) == 100
    assert whole_steps(0.0, 0.001) == 0  # a zero horizon has zero steps
    assert whole_steps(0.3, 0.1) == 3  # 0.3 / 0.1 is not exactly 3 in binary
    assert whole_steps(0.0105, 0.01) is None
    assert whole_steps(0.0015, 0.001) is None


def test_step_counts_own_every_alignment_rule():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 3),
           st.floats(1e-6, 1.0), st.sampled_from([math.nan, math.inf, -math.inf]))
    def check(k, m, q, fine, non_finite):
        dt, t_end = m * q * fine, k * m * q * fine
        assert step_counts(t_end, fine, dt, q) == (k * m * q, m * q)
        assert step_counts(t_end, fine, quantum=q) == (k * m * q, None)
        assert step_counts(0.0, fine, dt, q) == (0, m * q)
        off = [
            (t_end, fine, (m * q + 0.5) * fine),  # dt between two fine steps
            ((k * m * q + 0.5) * fine, fine, dt),  # t_end between two fine steps
            (t_end, fine, -dt), (-t_end, fine, dt), (t_end, fine, 0.0),
            (t_end, 0.0, dt), (t_end, -fine, dt),
            (non_finite, fine, dt), (t_end, non_finite, dt), (t_end, fine, non_finite),
        ]
        if q > 1:  # whole fine steps, but not whole multiples of q of them
            off += [(t_end, fine, (m * q + 1) * fine), ((k * m * q + 1) * fine, fine, None)]
        if m > 1:  # t_end a whole multiple of q * dt_fine, but not of dt
            off.append(((k * m + 1) * q * fine, fine, dt))
        for t, f, d in off:
            with pytest.raises(ConfigError):
                step_counts(t, f, d, q)

    check()


def test_stochastic_update_linearizes_at_a_separate_point():
    sigma = NoiseAmplitude("linear", 0.5)
    base, lin = np.array([1.0, 2.0]), np.array([4.0, -2.0])
    # amplitudes 2 and -1, correction (1/2) sigma sigma' (dW^2 - dt) = 0.5*amp*0.5*0.03
    assert np.allclose(stochastic_update(base, lin, sigma, 0.2, 0.01),
                       [1.4 + 0.015, 1.8 - 0.0075], rtol=1e-15)


def test_path_increments_have_the_right_moments():
    pooled = np.concatenate(
        [generate_path(seed, 1.0, 1e-3).increments for seed in range(50)]
    )
    assert pooled.size == 50_000
    assert abs(pooled.mean()) < 4 * np.sqrt(1e-3 / pooled.size)
    assert 0.9e-3 < pooled.var() < 1.1e-3


def uniforms_of(k):
    """The generator's uniforms (k + 1/2) / 2^53 of 53-bit draws k."""
    return (np.asarray(k, dtype=np.uint64).astype(np.float64) + 0.5) / 2**53


def assert_bitwise_ndtri(u):
    assert np.array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))


def test_ndtri_port_equals_scipy_on_drawn_uniforms():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=40))
    def check(k):
        assert_bitwise_ndtri(uniforms_of(k))

    check()


def test_ndtri_port_equals_scipy_at_every_branch_edge():
    def both_sides(v):
        return [np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)]

    exp_m2 = 0.13533528323661269189
    u = np.array([
        *both_sides(exp_m2),  # central / lower tail
        *both_sides(1.0 - exp_m2),  # central / upper tail
        *both_sides(math.exp(-32)),  # x crosses 8
        *both_sides(1.0 - math.exp(-32)),
        0.5 / 2**53,  # the smallest uniform, x about 8.7
        1.0 - 0.5 / 2**53,  # rounds to 1: the largest draw, +inf
        0.5,
    ])
    assert_bitwise_ndtri(u)
    # regions whose share of the array is empty or one entry
    assert_bitwise_ndtri(np.linspace(0.2, 0.8, 7))  # all central
    assert_bitwise_ndtri(np.geomspace(0.5 / 2**53, 0.1, 9))  # all lower tail
    assert_bitwise_ndtri(np.array([0.3]))
    assert_bitwise_ndtri(np.array([1.0]))
    assert_bitwise_ndtri(uniforms_of([0, 2**53 - 2, 2**53 - 1]))
    assert _ndtri(uniforms_of([2**53 - 1]))[0] == np.inf


def test_drawing_a_path_holds_under_100_bytes_per_increment():
    # the draw's transient arrays, the inverse CDF's and the path itself:
    # drawing a path at MAX_PATH_STEPS stays under 1 GB
    n = 100_000
    generate_path(3, 1.0, 1.0 / n)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        path = generate_path(3, 1.0, 1.0 / n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.n_steps == n
    assert peak <= 100 * n


def numpy_draws(seed, n):
    """numpy's 53-bit Philox draws, the reference for the in-package port."""
    return np.random.Generator(np.random.Philox(key=seed)).integers(
        0, 2**53, size=n, dtype=np.uint64)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_generated_increments_are_scaled_scipy_normals(seed):
    n, dt_fine = 1_000_000, 1e-6
    expected = np.sqrt(dt_fine) * ndtri(uniforms_of(numpy_draws(seed, n)))
    got = generate_path(seed, 1.0, dt_fine).increments
    assert got.size == n
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_philox_port_equals_numpy():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, SEED_LIMIT - 1), st.integers(0, 600))
    @example(0, 0)
    @example(2**64 - 1, 5)  # the low key word at its top
    @example(2**64, 6)  # the first seed that sets the high key word
    @example(SEED_LIMIT - 1, 7)
    def check(seed, n):
        got = _philox_draws(seed, n)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, numpy_draws(seed, n))

    check()


def test_path_argument_validation(monkeypatch):
    with pytest.raises(ConfigError):
        generate_path(-1, 1.0, 1e-3)
    with pytest.raises(ConfigError, match="below 2\\*\\*128"):
        generate_path(SEED_LIMIT, 1.0, 1e-3)
    assert generate_path(SEED_LIMIT - 1, 1.0, 1e-3).n_steps == 1000
    for seed in (math.nan, math.inf, -math.inf, 1.5):
        with pytest.raises(ConfigError, match="below 2\\*\\*128"):
            generate_path(seed, 1.0, 1e-3)
    with pytest.raises(ConfigError):
        generate_path(1, 1.0, 0.0)
    with pytest.raises(ConfigError):
        generate_path(1, 0.0105, 1e-2)
    with monkeypatch.context() as patch:
        patch.setattr(noise_mod, "MAX_PATH_STEPS", 100)
        with pytest.raises(ResourceLimit,
                           match="path of 1000 increments exceeds the cap of 100"):
            generate_path(1, 1.0, 1e-3)
    for dt_fine in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="dt_fine must be positive"):
            NoisePath(dt_fine, [0.1, 0.2])
        with pytest.raises(ConfigError, match="dt_fine must be positive"):
            generate_path(1, 1.0, dt_fine)
    # a 2x2 array would be four increments to `total` and break `block_sums`,
    # and a scalar one step that `total` cannot index
    for bad in ([[0.1, 0.2], [0.3, 0.4]], 0.1):
        with pytest.raises(ConfigError, match="increments must be one-dimensional"):
            NoisePath(0.01, bad)
    # non-finite increments stay allowed: the largest draw maps to +inf
    assert NoisePath(0.01, [0.1, math.inf]).total == math.inf
    for t_end in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="t_end must be finite"):
            generate_path(1, t_end, 1e-3)
    with pytest.raises(ConfigError, match="t_end must be non-negative"):
        generate_path(1, -0.01, 1e-3)


def test_increment_over_matches_slice_sum():
    path = generate_path(5, 0.1, 1e-3)
    total = path.increment_over(0, path.n_steps)
    assert total == path.total
    assert path.increment_over(3, 3) == 0.0
    with pytest.raises(ValueError):
        path.increment_over(0, path.n_steps + 1)
    with pytest.raises(ValueError):
        path.increment_over(-1, 2)


def test_block_sums_are_left_to_right_reductions_bitwise():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.integers(0, 120), st.data())
    def check(seed, n, data):
        path = generate_path(seed, n * 1e-3, 1e-3)
        increments = path.increments.tolist()
        start = data.draw(st.integers(-2, path.n_steps + 1))
        width = data.draw(st.integers(-2, 40))
        # at most one block past the end, so most requests fit the path
        fits = (path.n_steps - start) // width if width > 0 and start >= 0 else 3
        count = data.draw(st.integers(-2, max(fits, 0) + 1))
        if min(start, width, count) < 0 or start + width * count > path.n_steps:
            with pytest.raises(ValueError, match="outside the path"):
                path.block_sums(start, width, count)
            return
        sums = path.block_sums(start, width, count)
        blocks = [increments[start + i * width:start + (i + 1) * width]
                  for i in range(count)]
        expected = [functools.reduce(operator.add, b) if b else 0.0 for b in blocks]
        assert sums.shape == (count,)
        assert sums.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    check()


def test_coarsen_agrees_with_increment_over_bitwise():
    path = generate_path(9, 0.2, 1e-3)
    for factor in (1, 2, 4, 8, 25, 200):
        coarse = coarsen(path, factor)
        assert coarse.size == path.n_steps // factor
        for i in range(coarse.size):
            assert coarse[i] == path.increment_over(i * factor, (i + 1) * factor)


def test_coarsen_validation():
    path = generate_path(2, 0.01, 1e-3)
    with pytest.raises(ConfigError):
        coarsen(path, 3)
    with pytest.raises(ConfigError):
        coarsen(path, 0)
    # the range is compared before `int`, so NaN and infinities are refused;
    # a bool is not a whole number, so True is not the factor 1
    for factor in (np.nan, np.inf, -np.inf, 1.5, True):
        with pytest.raises(ConfigError, match="coarsening factor"):
            coarsen(path, factor)
    # an integral float is taken as that integer
    assert np.array_equal(coarsen(path, 2.0), coarsen(path, 2))


def test_em_step_values():
    sigma = NoiseAmplitude("linear", 0.5)
    assert em_step(2.0, sigma, 0.1) == pytest.approx(2.1)
    assert np.array_equal(
        em_step(np.array([1.0, 2.0]), sigma, 0.2), [1.1, 2.2]
    )


def test_milstein_oracle_values():
    # 2 + 1*0.1 + (1/2)*1*0.5*(0.01 - 0.01): the correction cancels exactly
    assert milstein_step(2.0, NoiseAmplitude("linear", 0.5), 0.1, 0.01) == 2.1
    # 1 + 0.2 + (1/2)*1*1*(0.04 - 0.01)
    assert milstein_step(1.0, NoiseAmplitude("linear", 1.0), 0.2, 0.01) == pytest.approx(1.215)


def test_milstein_reduces_to_em_for_state_independent_noise():
    sigma = NoiseAmplitude("constant", 0.7)
    rng = np.random.default_rng(21)
    for _ in range(50):
        c = rng.normal(size=6)
        dw = float(rng.normal(scale=0.1))
        assert np.array_equal(
            milstein_step(c, sigma, dw, 0.01), em_step(c, sigma, dw)
        )


def test_stochastic_steps_accept_field_states():
    grid = SpatialGrid(0.0, 1.0, 3)
    state = FieldState(grid, np.array([1.0, 2.0, 3.0]), time=0.4)
    sigma = NoiseAmplitude("linear", 0.5)
    after = milstein_step(state, sigma, 0.1, 0.01)
    assert isinstance(after, FieldState)
    assert after.time == 0.4  # time bookkeeping is the caller's job
    assert np.array_equal(
        after.values, milstein_step(state.values, sigma, 0.1, 0.01)
    )


def test_exact_linear_sde_values():
    assert exact_linear_sde(1.0, 1.0, 1.0, 1.0) == pytest.approx(EXP_HALF, rel=1e-15)
    assert exact_linear_sde(3.0, 0.0, 1.7, 2.0) == 3.0
    # W_t = 0 leaves only the Ito drift correction
    assert exact_linear_sde(2.0, 0.5, 0.0, 1.0) == pytest.approx(2.0 * np.exp(-0.125))
    with pytest.raises(ConfigError):
        exact_linear_sde(1.0, -0.5, 0.0, 1.0)
    with pytest.raises(ConfigError):
        exact_linear_sde(1.0, 0.5, 0.0, -1.0)
    # NaN and infinity are refused too, not turned into a nan result
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="lam must be non-negative"):
            exact_linear_sde(1.0, bad, 0.1, 0.1)
        with pytest.raises(ConfigError, match="t must be non-negative"):
            exact_linear_sde(1.0, 0.5, 0.1, bad)


def test_milstein_beats_em_on_geometric_brownian_motion():
    # one-step strong accuracy at coarse dt, 400 seeds
    lam, dt = 0.5, 0.25
    err_mil, err_em = 0.0, 0.0
    sigma = NoiseAmplitude("linear", lam)
    for seed in range(400):
        path = generate_path(seed, dt, dt / 64)
        w = path.total
        exact = exact_linear_sde(1.0, lam, w, dt)
        err_mil += abs(milstein_step(1.0, sigma, w, dt) - exact)
        err_em += abs(em_step(1.0, sigma, w) - exact)
    assert err_mil < err_em
