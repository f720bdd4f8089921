"""Ensemble matrix execution, reduction, and CSV emission."""

import concurrent.futures
import dataclasses
import importlib.util
import os
import pickle
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import splitburg.runner as runner_mod
from splitburg import (
    ConfigError,
    CsvWriter,
    EnsembleSample,
    FieldState,
    SeedOutcome,
    SpatialGrid,
    cell_label,
    emit_csv,
    integrate,
    parse_config,
    reference_endpoint,
    run_matrix,
)
from splitburg.cli import main

SMALL_DOC = """
grid: {n_cells: 40}
noise: {kind: linear, lam: 0.4}
schemes: [ab, {name: iter_after, iterations: [2]}]
dt_ladder: [0.01]
dt_fine: 0.005
t_end: 0.05
seeds: [1, 2, 3]
"""


def small_cfg():
    return parse_config(SMALL_DOC)


def without_wall_time(rows):
    return [dataclasses.replace(r, wall_time=0.0) for r in rows]


def test_cell_label_embeds_the_iteration_count():
    assert cell_label("ab", 0) == "ab"
    assert cell_label("iter_after", 3) == "iter_after3"


def test_reference_endpoint_is_the_noise_free_run():
    cfg = small_cfg()
    ref = reference_endpoint(cfg, 0.01)
    assert ref.time == pytest.approx(0.05)
    from splitburg import NoiseAmplitude, SchemeConfig, generate_path

    quiet = SchemeConfig("ab", sigma=NoiseAmplitude("linear", 0.0))
    traj = integrate(cfg.make_state(), 0.05, quiet, generate_path(1, 0.05, 0.005),
                     dt=0.01)
    assert np.array_equal(ref.values, traj.final_state.values)


def test_reference_endpoint_builds_its_flux_and_boundary_once(monkeypatch):
    cfg = small_cfg()
    want = reference_endpoint(cfg, 0.01)
    built = Counter()
    for name in ("make_flux", "make_bc"):
        real = getattr(type(cfg), name)
        monkeypatch.setattr(type(cfg), name,
                            lambda self, name=name, real=real: built.update([name])
                            or real(self))
    steps = Counter()
    real_step = runner_mod.scl_step
    monkeypatch.setattr(runner_mod, "scl_step",
                        lambda *a: steps.update(["scl_step"]) or real_step(*a))
    got = reference_endpoint(cfg, 0.01)
    # five steps, one flux and one boundary between them
    assert steps == {"scl_step": 5}
    assert built == {"make_flux": 1, "make_bc": 1}
    assert np.array_equal(got.values, want.values)


def test_reference_endpoint_rejects_unstable_dt():
    cfg = parse_config("{dt_ladder: [0.02], dt_fine: 0.01, t_end: 0.1}")
    with pytest.raises(ConfigError, match="noise-free baseline"):
        reference_endpoint(cfg, 0.02)


def test_noise_off_matrix_has_zero_errors():
    cfg = parse_config(
        "{noise: {kind: linear, lam: 0.0}, dt_ladder: [0.01], dt_fine: 0.005,"
        " t_end: 0.05, seeds: [1], grid: {n_cells: 40}}"
    )
    rows, archive, stats = run_matrix(cfg)
    assert len(rows) == 1
    assert rows[0].weak_error == 0.0
    assert rows[0].strong_error == 0.0
    assert rows[0].n_seeds_used == 1 and rows[0].blowup_count == 0
    assert stats.clean


def test_rows_follow_the_configured_cell_order():
    rows, archive, stats = run_matrix(small_cfg())
    assert [(r.scheme, r.iterations) for r in rows] == [("ab", 0), ("iter_after", 2)]
    assert all(r.dt == 0.01 and r.dx == pytest.approx(0.025) for r in rows)
    assert all(r.lam == 0.4 for r in rows)
    # 2 cells x 3 seeds x 5 steps, nothing truncated
    assert stats.total_steps == 30
    assert stats.clean


def test_matrix_is_deterministic_across_runs_and_jobs():
    def strip(rows):
        return [
            (r.scheme, r.iterations, r.dt, r.weak_error, r.strong_error,
             r.mean_variance, r.n_seeds_used, r.blowup_count)
            for r in rows
        ]

    cfg = small_cfg()
    first, _, _ = run_matrix(cfg, jobs=1)
    second, _, _ = run_matrix(cfg, jobs=1)
    parallel, _, _ = run_matrix(cfg, jobs=2)
    assert strip(first) == strip(second) == strip(parallel)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_is_isolated_to_its_cell(monkeypatch, jobs):
    real = runner_mod._run_cell

    def flaky(task):
        if task[4] == 2 and task[1] == "ab":
            raise RuntimeError("synthetic worker crash")
        return real(task)

    # the pool forks, so its workers see the patched _run_cell too; ten
    # tasks make pool chunks of two at --jobs 2, so the failing task shares
    # its chunk with a good one
    monkeypatch.setattr(runner_mod, "_run_cell", flaky)
    cfg = parse_config(SMALL_DOC.replace("seeds: [1, 2, 3]", "seeds: [1, 2, 3, 4, 5]"))
    rows, archive, stats = run_matrix(cfg, jobs=jobs)
    assert len(rows) == 2  # both cells still reported
    ab_row = rows[0]
    assert ab_row.scheme == "ab" and ab_row.n_seeds_used == 4
    assert rows[1].n_seeds_used == 5
    assert stats.failures == (("ab", 0.01, 2, "RuntimeError: synthetic worker crash"),)
    assert not stats.clean


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_outcome_gets_each_outcome_once_in_this_process(monkeypatch, jobs):
    real = runner_mod._run_cell

    def flaky(task):
        if task[4] == 2 and task[1] == "ab":
            raise RuntimeError("synthetic worker crash")
        return real(task)

    monkeypatch.setattr(runner_mod, "_run_cell", flaky)
    seen = []
    rows, outcomes, stats = run_matrix(
        small_cfg(), jobs=jobs,
        on_outcome=lambda o: seen.append((os.getpid(), o.scheme, o.dt, o.seed)))
    # a failed task gives no outcome; the others arrive once each, here
    assert len(stats.failures) == 1
    assert sorted(seen) == sorted((os.getpid(), o.scheme, o.dt, o.seed)
                                  for o in outcomes)
    assert len(seen) == 5


def test_on_outcome_runs_while_the_pool_still_computes(monkeypatch, tmp_path):
    # the last task waits for a file that only a delivered outcome creates,
    # so it completes only if outcomes are handed over before the pool ends
    delivered = tmp_path / "delivered"
    real = runner_mod._run_cell

    def last_waits(task):
        if task[4] == 3 and task[1] == "iter_after":
            deadline = time.monotonic() + 30.0
            while not delivered.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("no outcome was delivered during the run")
                time.sleep(0.01)
        return real(task)

    monkeypatch.setattr(runner_mod, "_run_cell", last_waits)
    rows, outcomes, stats = run_matrix(small_cfg(), jobs=2,
                                      on_outcome=lambda o: delivered.touch())
    assert stats.clean and len(outcomes) == 6


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_on_outcome_error_ends_the_run(jobs):
    def refuse(outcome):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        run_matrix(small_cfg(), jobs=jobs, on_outcome=refuse)


@pytest.mark.parametrize("cpus, workers", [(2, 2), (64, 3)])
def test_jobs_starts_no_more_workers_than_cpus_or_chunks(monkeypatch, cpus, workers):
    # 3 seeds of 2 tasks in chunks of max(1, 3 // (4 workers)) whole seeds:
    # three one-seed chunks at 2 CPUs and at 64, so no more than 3 workers,
    # and each seed's path is drawn once
    started, drawn = [], []

    class InThreadPool:
        """Records `max_workers` and runs each submission at once in this
        thread, so no process is started."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    def generate_path(seed, *args):
        drawn.append(seed)
        return real_generate_path(seed, *args)

    real_generate_path = runner_mod.generate_path
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InThreadPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(runner_mod, "generate_path", generate_path)
    rows, archive, stats = run_matrix(small_cfg(), jobs=10_000)
    assert started == [workers]
    assert drawn == list(small_cfg().seeds)
    drawn.clear()
    run_matrix(small_cfg(), jobs=2)
    assert drawn == list(small_cfg().seeds)
    assert stats.clean
    assert without_wall_time(rows) == without_wall_time(run_matrix(small_cfg())[0])


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert runner_mod._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert runner_mod._usable_cpus() == 1


def test_fully_blown_cell_is_reported_not_rowed():
    cfg = parse_config(SMALL_DOC + "blowup_threshold: 0.5\n")
    rows, archive, stats = run_matrix(cfg)
    assert rows == ()
    assert len(stats.empty_cells) == 2
    assert "no usable samples" in stats.empty_cells[0][1]
    assert not stats.clean


def test_a_failing_estimator_check_empties_its_cell_only(monkeypatch, tmp_path, capsys):
    # summarize's weak <= strong check raises RuntimeError; it must not end
    # the run, whether run_matrix is called directly or through the CLI
    def inconsistent_for_ab(samples, reference, _real=runner_mod.summarize):
        if samples[0].residuals.size == 0:  # ab makes no residuals
            raise RuntimeError("estimator inconsistency: synthetic")
        return _real(samples, reference)

    monkeypatch.setattr(runner_mod, "summarize", inconsistent_for_ab)
    rows, _, stats = run_matrix(small_cfg())
    assert [r.scheme for r in rows] == ["iter_after"]
    assert stats.empty_cells == (("ab dt=0.01", "estimator inconsistency: synthetic"),)
    assert not stats.clean

    config = tmp_path / "small.yaml"
    config.write_text(SMALL_DOC)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "cell without usable samples: ab dt=0.01" in capsys.readouterr().err
    assert (tmp_path / "out" / "summary.csv").is_file()


def test_run_matrix_validates_jobs():
    with pytest.raises(ConfigError):
        run_matrix(small_cfg(), jobs=0)


@pytest.mark.parametrize("jobs", [1.5, 2.0, True])
def test_run_matrix_rejects_non_integer_jobs(jobs):
    with pytest.raises(ConfigError, match="jobs"):
        run_matrix(small_cfg(), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_returns_read_only_traces_at_every_jobs(jobs):
    # at --jobs 2 the outcomes come back pickled from the pool
    _, outcomes, _ = run_matrix(small_cfg(), jobs=jobs)
    traces = [o.residuals for o in outcomes if o.scheme == "iter_after"]
    assert len(traces) == 3 and all(t.shape == (5, 4) for t in traces)
    assert not any(o.residuals.flags.writeable for o in outcomes)


@pytest.mark.parametrize("scheme,iterations", [
    ("iter_after", 4), ("iter_before", 2), ("iter_before_trapezoid", 2),
    ("iter_before", 1), ("ab", 0),
])
def test_run_cell_keeps_the_residual_trace_as_one_array(scheme, iterations):
    cfg = small_cfg()
    outcome = runner_mod._run_cell((cfg, scheme, iterations, 0.01, 2))
    scheme_cfg = cfg.make_scheme(scheme, iterations)
    path = runner_mod.generate_path(2, cfg.t_end, cfg.dt_fine)
    # step k's rows are the last step's rows of a (k + 1)-step run's trace
    expected = []
    for step in range(5):
        shorter = integrate(cfg.make_state(), 0.01 * (step + 1), scheme_cfg, path,
                            dt=0.01).residuals
        expected.extend(map(tuple, shorter[shorter[:, 0] == step]))
    traj = integrate(cfg.make_state(), cfg.t_end, scheme_cfg, path, dt=0.01)
    assert traj.n_steps == 5
    assert np.array_equal(traj.residuals.view(np.int64),
                          outcome.residuals.view(np.int64))
    trace = outcome.residuals
    assert trace.dtype == np.float64 and not trace.flags.writeable
    assert trace.shape == (len(expected), 4)
    if iterations < 2:
        assert trace.shape == (0, 4)
    else:
        assert len(expected) == traj.n_steps * (iterations - 1)
    want = np.array(expected, dtype=np.float64).reshape(-1, 4)
    assert np.array_equal(trace.view(np.int64), want.view(np.int64))
    # a pool returns outcomes pickled
    thawed = pickle.loads(pickle.dumps(outcome))
    assert thawed.residuals.dtype == np.float64
    assert thawed.residuals.shape == trace.shape
    assert np.array_equal(thawed.residuals.view(np.int64), trace.view(np.int64))
    # the outcome is the sample the reduction reads, endpoint and all
    for o in (outcome, thawed):
        assert isinstance(o, EnsembleSample) and o.blowup_time is None
        assert isinstance(o.endpoint, FieldState)
        assert o.endpoint.time == cfg.t_end
        assert not o.endpoint.values.flags.writeable
        assert np.array_equal(o.endpoint.values.view(np.int64),
                              traj.final_state.values.view(np.int64))
    # dt 0.05 breaks the CFL bound of 40 cells on the first step
    blown = runner_mod._run_cell((cfg, scheme, iterations, 0.05, 2))
    assert isinstance(blown, EnsembleSample)
    assert blown.endpoint is None and blown.blowup_time == 0.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matrix_reduces_the_outcomes_it_archives(monkeypatch, jobs):
    # each seed's outcome is the sample summarize reads, not a rebuilt copy
    seen = []

    def recording(samples, reference, _real=runner_mod.summarize):
        seen.extend(samples)
        return _real(samples, reference)

    monkeypatch.setattr(runner_mod, "summarize", recording)
    rows, outcomes, stats = run_matrix(small_cfg(), jobs=jobs)
    assert stats.clean and len(seen) == len(outcomes) == 6
    assert all(any(s is o for o in outcomes) for s in seen)


def test_emit_csv_layout(tmp_path):
    rows, archive, stats = run_matrix(small_cfg())
    out = tmp_path / "results"
    summary = emit_csv(rows, archive, out)
    lines = summary.read_text().splitlines()
    assert lines[0] == (
        "scheme,I,dt,dx,lambda,n_seeds_used,blowup_count,"
        "weak_error,strong_error,mean_variance,wall_time"
    )
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "ab" and fields[1] == "0"
    # floats are written in round-trip form
    assert float(fields[7]) == rows[0].weak_error
    assert float(fields[9]) == rows[0].mean_variance

    profiles = sorted(p.name for p in (out / "profiles").iterdir())
    assert profiles == [
        "ab_0.01_1.csv", "ab_0.01_2.csv", "ab_0.01_3.csv",
        "iter_after2_0.01_1.csv", "iter_after2_0.01_2.csv", "iter_after2_0.01_3.csv",
    ]
    residuals = sorted(p.name for p in (out / "residuals").iterdir())
    assert residuals == [
        "iter_after2_0.01_1.csv", "iter_after2_0.01_2.csv", "iter_after2_0.01_3.csv",
    ]

    profile = (out / "profiles" / "ab_0.01_1.csv").read_text().splitlines()
    assert profile[0] == "x,c"
    assert len(profile) == 41
    x0, c0 = profile[1].split(",")
    assert float(x0) == pytest.approx(0.0125)

    trace = (out / "residuals" / "iter_after2_0.01_1.csv").read_text().splitlines()
    assert trace[0] == "step,time,iteration,residual"
    assert len(trace) == 6  # 5 steps x (I - 1) residuals
    step, t, sweep, res = trace[1].split(",")
    assert (step, sweep) == ("0", "2")
    assert float(res) > 0.0


def test_csv_writer_formats_files_past_a_thousand_lines(tmp_path):
    # golden meshes and traces stay under 1,024 lines; these cross that mark
    rng = np.random.default_rng(7)
    grid = SpatialGrid(-1.0, 2.0, 2500)
    values = rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)
    n = 2500
    trace = np.column_stack([np.arange(n) // 3, rng.random(n),
                             2 + np.arange(n) % 3, rng.random(n) * 1e-12])
    profiled = SeedOutcome(4, "iter_after", 3, 0.005,
                           endpoint=FieldState(grid, values), residuals=trace,
                           n_steps=n // 3, wall_time=0.0)
    blown = SeedOutcome(5, "iter_after", 2, 0.005, endpoint=None,
                        blowup_time=0.0, residuals=np.empty((0, 4)),
                        n_steps=0, wall_time=0.0)
    writer = CsvWriter(tmp_path)
    writer.write(profiled)
    writer.write(blown)

    def lines(path):
        return path.read_text(encoding="utf-8").split("\n")

    assert lines(tmp_path / "profiles" / "iter_after3_0.005_4.csv") == ["x,c"] + [
        f"{x!r},{c!r}" for x, c in zip(grid.centers.tolist(), values.tolist())
    ] + [""]
    assert lines(tmp_path / "residuals" / "iter_after3_0.005_4.csv") == [
        "step,time,iteration,residual"] + [
        f"{int(s)},{t!r},{int(i)},{r!r}" for s, t, i, r in trace.tolist()
    ] + [""]
    assert not (tmp_path / "profiles" / "iter_after2_0.005_5.csv").exists()
    assert lines(tmp_path / "residuals" / "iter_after2_0.005_5.csv") == [
        "step,time,iteration,residual", ""]


def test_csv_writer_takes_each_profiles_x_from_its_endpoints_mesh(tmp_path):
    # one writer, endpoints on three meshes: two of the same size, one of
    # another size, and a mesh met again after another
    rng = np.random.default_rng(3)
    grids = (SpatialGrid(0.0, 1.0, 10), SpatialGrid(-1.0, 2.0, 10),
             SpatialGrid(0.0, 1.0, 7), SpatialGrid(0.0, 1.0, 10))
    writer = CsvWriter(tmp_path)
    written = []
    for seed, grid in enumerate(grids):
        values = rng.standard_normal(grid.n_cells)
        writer.write(SeedOutcome(seed, "ab", 0, 0.01,
                                 endpoint=FieldState(grid, values),
                                 residuals=np.empty((0, 4)), n_steps=1,
                                 wall_time=0.0))
        written.append((seed, grid, values))
    for seed, grid, values in written:
        text = (tmp_path / "profiles" / f"ab_0.01_{seed}.csv").read_text(
            encoding="utf-8")
        assert text == "x,c\n" + "".join(
            f"{x!r},{c!r}\n"
            for x, c in zip(grid.centers.tolist(), values.tolist()))


def test_emit_csv_rerun_leaves_no_stale_files(tmp_path):
    emit_csv(*run_matrix(small_cfg())[:2], tmp_path)
    one_seed = parse_config(SMALL_DOC.replace("seeds: [1, 2, 3]", "seeds: [1]"))
    rows, archive, _ = run_matrix(one_seed)
    keep = tmp_path / "profiles" / "notes.txt"
    keep.write_text("not a csv")
    emit_csv(rows, archive, tmp_path)
    assert rows[0].n_seeds_used == 1
    assert sorted(p.name for p in (tmp_path / "profiles").iterdir()) == [
        "ab_0.01_1.csv", "iter_after2_0.01_1.csv", "notes.txt",
    ]
    assert sorted(p.name for p in (tmp_path / "residuals").iterdir()) == [
        "iter_after2_0.01_1.csv",
    ]
    assert keep.read_text() == "not a csv"


def test_emit_csv_skips_profiles_of_blown_seeds(tmp_path):
    # dt sits at the deterministic CFL limit, so noise pushes some seeds over
    cfg = parse_config(
        "{schemes: [ab], dt_ladder: [0.01], dt_fine: 0.005, t_end: 0.1,"
        " seeds: [1, 2, 3, 4]}"
    )
    rows, outcomes, stats = run_matrix(cfg)
    blown = [o for o in outcomes if o.endpoint is None]
    assert blown and len(blown) < 4
    assert rows[0].blowup_count == len(blown)
    emit_csv(rows, outcomes, tmp_path)
    for o in blown:
        stem = f"{cell_label(o.scheme, o.iterations)}_{repr(o.dt)}_{o.seed}.csv"
        assert not (tmp_path / "profiles" / stem).exists()
    kept = sorted(p.name for p in (tmp_path / "profiles").iterdir())
    assert len(kept) == 4 - len(blown)


def test_emit_csv_refuses_empty_rows(tmp_path):
    _, archive, _ = run_matrix(small_cfg())
    with pytest.raises(ValueError):
        emit_csv((), archive, tmp_path / "nothing")
    assert not (tmp_path / "nothing").exists()


def test_emit_csv_fails_cleanly_on_unwritable_target(tmp_path):
    rows, archive, _ = run_matrix(small_cfg())
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError):
        emit_csv(rows, archive, blocker / "out")
    assert blocker.read_text() == "a file, not a directory"


def test_run_matrix_looks_up_its_layer_hooks_at_call_time(monkeypatch):
    # the benchmark's tracer swaps these module names for timing wrappers
    calls = Counter()
    for name in ("reference_endpoint", "generate_path", "integrate", "summarize",
                 "_run_cell"):
        def counting(*args, _real=getattr(runner_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(runner_mod, name, counting)
    run_matrix(small_cfg(), jobs=1)
    # 1 dt level, 2 cells x 3 seeds; a seed's tasks share one path
    assert calls == {"reference_endpoint": 1, "generate_path": 3, "integrate": 6,
                     "summarize": 2, "_run_cell": 6}


def test_the_benchmark_tracer_runs_a_study(tmp_path):
    # perfbench/layers.py wraps run_matrix's layer hooks; run it as it is
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    config = tmp_path / "study.yaml"
    config.write_text(
        "grid: {n_cells: 20}\n"
        "schemes: [ab, aba, bab, iter_after, iter_before, iter_before_trapezoid]\n"
        "dt_ladder: [0.01]\ndt_fine: 0.005\nt_end: 0.05\nseeds: [1, 2]\n")
    out_dirs = iter(tmp_path / f"out{k}" for k in range(100))
    result = layers.trace_study(config, 0.0, lambda: next(out_dirs))
    metrics = result["metrics"]
    assert result["rows_equal"] and result["repetitions"] == 1
    assert result["probed"] == []
    assert metrics["runner.tasks"] == 12
    assert metrics["noise.generate_path_calls"] == 2
    assert metrics["schemes.trajectory_peak_bytes"] == 8 * 20  # one state
    assert (result["out_dirs"][0] / "summary.csv").exists()


def test_run_matrix_draws_each_path_once_and_holds_none_after(monkeypatch):
    drawn = []

    def counting(seed, t_end, dt_fine, _real=runner_mod.generate_path):
        drawn.append(seed)
        return _real(seed, t_end, dt_fine)

    monkeypatch.setattr(runner_mod, "generate_path", counting)
    cfg = parse_config(SMALL_DOC.replace("dt_ladder: [0.01]", "dt_ladder: [0.01, 0.005]"))
    rows, outcomes, stats = run_matrix(cfg, jobs=1)
    assert drawn == list(cfg.seeds)  # not once per (cell, dt, seed) task
    assert runner_mod._held_path is None
    assert stats.clean and len(outcomes) == 12
    # the outcomes stay cell-major: each (cell, dt) lists its seeds in order
    assert [(o.scheme, o.dt, o.seed) for o in outcomes] == [
        (scheme, dt, seed) for scheme in ("ab", "iter_after")
        for dt in (0.01, 0.005) for seed in (1, 2, 3)]


def test_run_tasks_drops_a_path_held_from_before(monkeypatch):
    # a path left by a direct _run_cell call is never reused by a later run
    cfg = small_cfg()
    runner_mod._run_cell((cfg, "ab", 0, 0.01, 1))
    assert runner_mod._held_path is not None
    drawn = []
    monkeypatch.setattr(runner_mod, "generate_path",
                        lambda *args, _real=runner_mod.generate_path:
                        drawn.append(args) or _real(*args))
    runner_mod._run_tasks([(cfg, "ab", 0, 0.01, 1)])
    assert drawn == [(1, cfg.t_end, cfg.dt_fine)]
    assert runner_mod._held_path is None


def test_trajectory_exposes_what_the_benchmark_reads():
    from splitburg import burgers, generate_path, noise

    cfg = small_cfg()
    scheme_cfg = cfg.make_scheme("iter_after", 2)
    traj = integrate(cfg.make_state(), cfg.t_end, scheme_cfg,
                     generate_path(1, cfg.t_end, cfg.dt_fine), dt=0.01)
    assert scheme_cfg.scheme == "iter_after"
    assert traj.n_steps == 5
    assert traj.blown_up is False
    # a streamed trajectory holds its last record only
    assert len(traj.records) == 1
    assert traj.records[0].state_after.values.nbytes == 8 * 40
    state, sigma = cfg.make_state(), cfg.make_sigma()
    assert noise.milstein_step(state.values, sigma, 0.1, 0.01).shape == (40,)
    assert burgers.cfl_dt(state, sigma, cfg.make_policy(dt_max=0.01),
                          flux=cfg.make_flux(), t_remaining=cfg.t_end) > 0.0
