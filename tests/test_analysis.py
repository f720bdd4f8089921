"""Ensemble error estimators, variance, and order fitting."""

import math
import warnings

import numpy as np
import pytest

import splitburg.analysis as analysis_mod
from splitburg import (
    EnsembleSample,
    FieldState,
    InitialCondition,
    NoiseAmplitude,
    SchemeConfig,
    SpatialGrid,
    ensemble_variance,
    fit_order,
    generate_path,
    integrate,
    make_initial_state,
    strong_error,
    summarize,
    weak_error,
)

GRID = SpatialGrid(0.0, 1.0, 8)


def constant_state(value, time=1.0):
    return FieldState(GRID, np.full(8, float(value)), time=time)


def sample(seed, value=None, blowup_time=None, state=None):
    endpoint = state if state is not None else (
        None if value is None else constant_state(value)
    )
    return EnsembleSample(seed, "ab", 0, 0.01, endpoint, blowup_time)


def test_sample_carries_endpoint_xor_blowup():
    with pytest.raises(ValueError):
        EnsembleSample(1, "ab", 0, 0.01, None, None)
    with pytest.raises(ValueError):
        EnsembleSample(1, "ab", 0, 0.01, constant_state(1.0), 0.5)


def test_weak_error_cancellation_cases():
    ref = constant_state(1.0)
    assert weak_error([sample(1, 1.0), sample(2, 1.0)], ref) == 0.0
    # symmetric deviations cancel in the mean
    assert weak_error([sample(1, 2.0), sample(2, 0.0)], ref) == 0.0
    assert weak_error([sample(1, 2.0), sample(2, 2.0)], ref) == 1.0


def test_strong_error_never_cancels():
    ref = constant_state(1.0)
    assert strong_error([sample(1, 1.0), sample(2, 1.0)], ref) == 0.0
    assert strong_error([sample(1, 2.0), sample(2, 0.0)], ref) == 1.0


def test_weak_bounded_by_strong_on_random_ensembles():
    rng = np.random.default_rng(41)
    ref = FieldState(GRID, rng.normal(size=8), time=1.0)
    for _ in range(50):
        samples = [
            sample(i, state=FieldState(GRID, rng.normal(size=8), time=1.0))
            for i in range(5)
        ]
        w = weak_error(samples, ref)
        s = strong_error(samples, ref)
        assert w <= s + 1e-12


def test_estimators_ignore_sample_order():
    rng = np.random.default_rng(43)
    ref = constant_state(0.0)
    samples = [
        sample(i, state=FieldState(GRID, rng.normal(size=8), time=1.0))
        for i in range(6)
    ]
    shuffled = [samples[i] for i in (3, 0, 5, 1, 4, 2)]
    assert weak_error(samples, ref) == pytest.approx(weak_error(shuffled, ref))
    assert strong_error(samples, ref) == pytest.approx(strong_error(shuffled, ref))


def test_blown_up_samples_are_excluded_but_counted():
    ref = constant_state(1.0)
    samples = [sample(1, 2.0), sample(2, blowup_time=0.4), sample(3, 2.0)]
    assert weak_error(samples, ref) == 1.0
    report = summarize(samples, ref)
    assert report.n_seeds_used == 2
    assert report.blowup_count == 1


def test_empty_and_fully_blown_ensembles_are_errors():
    ref = constant_state(1.0)
    with pytest.raises(ValueError):
        weak_error([], ref)
    with pytest.raises(ValueError):
        weak_error([sample(1, blowup_time=0.1), sample(2, blowup_time=0.2)], ref)


def test_strong_error_with_per_seed_references():
    refs = {1: constant_state(2.0), 2: constant_state(0.0)}
    samples = [sample(1, 2.0), sample(2, 0.0)]
    assert strong_error(samples, refs) == 0.0
    with pytest.raises(ValueError, match="seed 3"):
        strong_error([sample(3, 1.0)], refs)


def test_grid_mismatch_is_rejected():
    other = FieldState(SpatialGrid(0.0, 2.0, 8), np.ones(8), time=1.0)
    with pytest.raises(ValueError):
        weak_error([sample(1, 1.0), sample(2, state=other)], constant_state(1.0))


def test_variance_oracle_values():
    per_cell, mean = ensemble_variance([sample(1, 0.0), sample(2, 2.0)])
    assert np.array_equal(per_cell, np.ones(8))
    assert mean == 1.0
    per_cell, mean = ensemble_variance([sample(1, 0.0), sample(2, 2.0)], ddof=1)
    assert mean == 2.0
    per_cell, _ = ensemble_variance([sample(1, 1.5), sample(2, 1.5), sample(3, 1.5)])
    assert np.array_equal(per_cell, np.zeros(8))


def test_variance_needs_two_usable_samples():
    with pytest.raises(ValueError):
        ensemble_variance([sample(1, 1.0)])
    with pytest.raises(ValueError):
        ensemble_variance([sample(1, 1.0), sample(2, blowup_time=0.3)])
    with pytest.raises(ValueError):
        ensemble_variance([sample(1, 1.0), sample(2, 2.0)], ddof=2)


def test_variance_matches_brute_force():
    rng = np.random.default_rng(45)
    for _ in range(20):
        samples = [
            sample(i, state=FieldState(GRID, rng.normal(size=8), time=1.0))
            for i in range(7)
        ]
        per_cell, mean = ensemble_variance(samples)
        stack = np.stack([s.endpoint.values for s in samples])
        brute = np.var(stack, axis=0)
        assert np.allclose(per_cell, brute, rtol=1e-12, atol=0.0)
        assert np.all(per_cell >= 0.0)
        assert mean == pytest.approx(brute.mean(), rel=1e-12)


def test_fit_order_recovers_exact_power_laws():
    dts = [2.0 ** (-k) for k in range(4, 9)]
    linear = fit_order([(dt, 3.0 * dt) for dt in dts])
    assert linear.slope == pytest.approx(1.0, abs=1e-12)
    assert linear.half_width < 1e-10
    assert linear.n_used == 5
    half = fit_order([(dt, 0.7 * dt**0.5) for dt in dts])
    assert half.slope == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 31, 32, 33, 40])
def test_fit_order_matches_linregress_with_a_student_t_half_width(n):
    stats = pytest.importorskip("scipy.stats")
    dts = 0.1 / 2.0 ** np.arange(n)
    noise = np.random.default_rng(n).normal(0.0, 0.2, n)
    errs = 2.0 * dts**0.8 * np.exp(noise)
    fit = fit_order(list(zip(dts.tolist(), errs.tolist())))
    ref = stats.linregress(np.log(dts), np.log(errs))
    assert fit.n_used == n
    assert fit.slope == pytest.approx(ref.slope, abs=1e-12)
    # 3 points give df 1 and t 12.71, not the normal 1.96; past df 30 the
    # quantile comes from an expansion
    t = stats.t.ppf(0.975, n - 2)
    assert fit.half_width == pytest.approx(t * ref.stderr,
                                           rel=1e-10 if n <= 32 else 1e-7)


def test_fit_order_input_validation():
    with pytest.raises(ValueError):
        fit_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_order([(0.1, 1.0), (0.1, 0.5), (0.05, 0.2)])
    with pytest.raises(ValueError):
        fit_order([(0.05, 1.0), (0.1, 0.5), (0.2, 0.2)])
    with pytest.raises(ValueError):
        fit_order([(-0.1, 1.0), (-0.2, 0.5), (-0.4, 0.2)])


def test_fit_order_excludes_non_positive_errors():
    dts = [2.0 ** (-k) for k in range(4, 9)]
    pairs = [(dt, 3.0 * dt) for dt in dts]
    pairs[1] = (dts[1], 0.0)
    fit = fit_order(pairs)
    assert fit.excluded == (1,)
    assert fit.n_used == 4
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    bad = [(dts[0], 1.0), (dts[1], 0.0), (dts[2], -1.0), (dts[3], 0.0), (dts[4], 1.0)]
    with pytest.raises(ValueError):
        fit_order(bad)


def test_fit_order_excludes_non_finite_errors():
    pairs = [(0.04, 1.0), (0.02, 0.5), (0.01, math.inf), (0.005, 0.125), (0.0025, math.nan)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_order(pairs)
    assert fit.excluded == (2, 4)
    assert fit.n_used == 3
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("index, bad_dt", [(2, math.nan), (0, math.inf)])
def test_fit_order_rejects_non_finite_dt(index, bad_dt):
    pairs = [(0.04, 1.0), (0.02, 0.5), (0.01, 0.3), (0.005, 0.12)]
    pairs[index] = (bad_dt, pairs[index][1])
    with pytest.raises(ValueError, match="finite"):
        fit_order(pairs)


def test_summarize_populates_the_report():
    ref = constant_state(1.0)
    report = summarize([sample(1, 2.0), sample(2, 0.0), sample(3, blowup_time=0.2)], ref)
    assert report.weak == 0.0
    assert report.strong == 1.0
    assert report.variance_mean == 1.0
    assert report.n_seeds_used == 2
    assert report.blowup_count == 1


def test_summarize_refuses_a_weak_error_above_the_strong_one(monkeypatch):
    monkeypatch.setattr(analysis_mod, "weak_error", lambda samples, reference: 5.0)
    ref = constant_state(1.0)
    with pytest.raises(RuntimeError,
                       match="^estimator inconsistency: weak 5.0 exceeds strong 1.0$"):
        summarize([sample(1, 2.0), sample(2, 0.0)], ref)


def test_variance_scales_quadratically_with_noise_level():
    # doubling lam roughly quadruples the endpoint variance at fixed dt
    c0 = make_initial_state(SpatialGrid(0.0, 1.0, 50), InitialCondition.sine_bump())
    means = {}
    for lam in (0.2, 0.4):
        cfg = SchemeConfig("ab", sigma=NoiseAmplitude("linear", lam))
        samples = []
        for seed in range(200):
            path = generate_path(seed, 0.5, 0.0025)
            traj = integrate(c0, 0.5, cfg, path, dt=0.005)
            assert not traj.blown_up
            samples.append(EnsembleSample(seed, "ab", 0, 0.005, traj.final_state))
        means[lam] = ensemble_variance(samples)[1]
    ratio = means[0.4] / means[0.2]
    assert 3.0 < ratio < 5.0
