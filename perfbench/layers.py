"""Traced run of one study, with a span around every call into each layer.

`runner.run_matrix` reaches the other layers through four names in the
`runner` module: `reference_endpoint` (burgers, once per dt),
`generate_path` (noise) and `integrate` (schemes) once per task, and
`summarize` (analysis) once per cell.  At --jobs 1 it runs each task by
calling `runner._run_cell`.  While traced, those five names are bound to
wrappers defined here: the first four open a span (name, start, end, parent,
tag) around the real call and take counts from its result, and the fifth
keeps each task it is given, so the tasks counted and pickled are the ones
the program ran.  `parse_config_file`, `run_matrix` and `emit_csv` are
called inside spans directly.  Nothing is added to the package, and the traced rows are checked
against an untraced `run_matrix`.  Spans are held in memory and written out
at the end.

The wrappers time their own bookkeeping (everything they do outside the real
call), and `runner.self_s` is `run_matrix` time less its child spans and that
bookkeeping; what is left of the tracer in it is entering each wrapper (the
Python call, and for three of them making a small counting closure), under a
microsecond a call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from splitburg import burgers, config, noise, runner

SCHEMES = ("ab", "aba", "bab", "iter_after", "iter_before", "iter_before_trapezoid")
CHILDREN = ("runner.reference_endpoint", "noise.generate_path",
            "schemes.integrate", "analysis.summarize")


class Tracer:
    """In-memory spans; a span's parent is the span open when it started.

    `bookkeeping_s` is the time that calls made inside another span spend
    outside their own, so that it can be taken out of the parent's self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.bookkeeping_s = 0.0

    def call(self, name: str, tag: str | None, fn, args, kwargs, count=None):
        """fn(*args, **kwargs) in a span, then count(result) if given."""
        entered = time.perf_counter()
        span = [name, None, None, self._open[-1] if self._open else None, tag]
        self._open.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            span[1], span[2] = start, end
        if count is not None:
            count(result)
        if span[3] is not None:
            self.bookkeeping_s += start - entered + time.perf_counter() - end
        return result

    def total(self, name: str, tag: str | None = None) -> float:
        return sum(end - start for n, start, end, _, t in self.spans
                   if n == name and (tag is None or t == tag))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "tag")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


@contextmanager
def traced_layers(tracer: Tracer, tally: Counter, tasks: list):
    """Bind runner's names for the other layers to span-recording wrappers,
    and its task runner to one that appends each task to `tasks`."""
    real = {name: getattr(runner, name) for name in
            ("reference_endpoint", "generate_path", "integrate", "summarize",
             "_run_cell")}

    def reference_endpoint(cfg, dt):
        def count(state):
            tally["reference_steps"] += round(cfg.t_end / dt)
        return tracer.call("runner.reference_endpoint", None,
                           real["reference_endpoint"], (cfg, dt), {}, count)

    def generate_path(*args, **kwargs):
        def count(path):
            tally["increments"] += path.n_steps
        return tracer.call("noise.generate_path", None, real["generate_path"],
                           args, kwargs, count)

    def integrate(c0, t_end, scheme_cfg, *args, **kwargs):
        def count(traj):
            tally[f"steps.{scheme_cfg.scheme}"] += traj.n_steps
            tally["trajectories"] += 1
            tally["completed"] += not traj.blown_up
            tally["trajectory_peak_bytes"] = max(
                tally["trajectory_peak_bytes"],
                sum(rec.state_after.values.nbytes for rec in traj.records))
        return tracer.call("schemes.integrate", scheme_cfg.scheme, real["integrate"],
                           (c0, t_end, scheme_cfg, *args), kwargs, count)

    def summarize(*args, **kwargs):
        return tracer.call("analysis.summarize", None, real["summarize"], args, kwargs)

    def _run_cell(task):
        entered = time.perf_counter()
        tasks.append(task)
        tracer.bookkeeping_s += time.perf_counter() - entered
        return real["_run_cell"](task)

    wrappers = {"reference_endpoint": reference_endpoint,
                "generate_path": generate_path, "integrate": integrate,
                "summarize": summarize, "_run_cell": _run_cell}
    for name, fn in wrappers.items():
        setattr(runner, name, fn)
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(runner, name, fn)


def without_wall_time(rows) -> list:
    """Rows with the one timing field zeroed, for exact comparison."""
    return [dataclasses.replace(r, wall_time=0.0) for r in rows]


def eo_step_bytes(n_cells: int) -> int:
    """Bytes one Engquist-Osher step reads and writes, computed from array sizes.

    Counts every array operand and result of `burgers._eo_step` with the
    `burgers_half` flux once (no cache reuse): the speed check (3n), the
    ghost padding (2n + 2), the interface flux over n + 1 interfaces
    (17 (n + 1)) and the conservative update (8n), 8 bytes per float64.
    """
    return 8 * (30 * n_cells + 19)


def per_call_us(fn, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median time of one call, from batches of calls each lasting min_batch_s."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_batch_s:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(batches - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def _probe_step_us(cfg, scheme: str) -> float:
    """Per-step time of `integrate` for a scheme the workload does not run:
    the workload's mesh, ladder and stepping mode with its first seed."""
    probe = dataclasses.replace(
        cfg, schemes=(config.SchemeSpec(scheme),), seeds=cfg.seeds[:1])
    tracer, tally = Tracer(), Counter()
    with traced_layers(tracer, tally, []):
        runner.run_matrix(probe, jobs=1)
    return tracer.total("schemes.integrate") / tally[f"steps.{scheme}"] * 1e6


def _traced_run(config_path: Path, out_dir: Path) -> tuple[dict, tuple, Tracer]:
    tracer, tally, tasks = Tracer(), Counter(), []
    cfg = tracer.call("config.parse_config_file", None, config.parse_config_file,
                      (config_path,), {})
    with traced_layers(tracer, tally, tasks):
        rows, archive, _ = tracer.call("runner.run_matrix", None, runner.run_matrix,
                                       (cfg,), {"jobs": 1})
    tracer.call("runner.emit_csv", None, runner.emit_csv, (rows, archive, out_dir), {})

    files = [p for p in out_dir.rglob("*") if p.is_file()]
    run_matrix_s = tracer.total("runner.run_matrix")
    metrics = {
        "config.parse_s": tracer.total("config.parse_config_file"),
        "noise.generate_path_s": tracer.total("noise.generate_path"),
        "noise.generate_path_calls": tracer.count("noise.generate_path"),
        "noise.increments_drawn": tally["increments"],
        "burgers.scl_step_us": tracer.total("runner.reference_endpoint")
        / tally["reference_steps"] * 1e6,
        "burgers.bytes_per_call": eo_step_bytes(cfg.n_cells),
        "schemes.integrate_s": tracer.total("schemes.integrate"),
        "schemes.steps": sum(tally[f"steps.{s}"] for s in SCHEMES),
        "schemes.completed_ratio": tally["completed"] / tally["trajectories"],
        "schemes.trajectory_peak_bytes": tally["trajectory_peak_bytes"],
        "analysis.summarize_s": tracer.total("analysis.summarize"),
        "analysis.summarize_calls": tracer.count("analysis.summarize"),
        "runner.run_matrix_s": run_matrix_s,
        "runner.self_s": run_matrix_s - sum(tracer.total(c) for c in CHILDREN)
        - tracer.bookkeeping_s,
        "runner.tasks": len(tasks),
        # a worker pool pickles each task on its own, as here
        "runner.pickled_task_bytes": sum(len(pickle.dumps(t)) for t in tasks),
        "runner.emit_csv_s": tracer.total("runner.emit_csv"),
        "runner.files_written": len(files),
        "runner.bytes_written": sum(p.stat().st_size for p in files),
    }
    for scheme in SCHEMES:
        if tally[f"steps.{scheme}"]:
            metrics[f"schemes.step_us.{scheme}"] = (
                tracer.total("schemes.integrate", scheme)
                / tally[f"steps.{scheme}"] * 1e6)
    return metrics, rows, tracer


def trace_study(config_path: Path, deadline: float, new_out_dir) -> dict:
    """Run the study untraced and then traced, in turn, while the next turn
    should end by `deadline` (monotonic clock) give or take half a turn, and
    once at least.  The untraced run also warms up the traced one.

    `new_out_dir()` gives a fresh directory for each traced run's outputs;
    the caller checks and removes them.  Returns the median of every
    per-layer metric over the traced runs, their output directories, whether
    every traced run's rows equal the untraced ones, the median untraced
    `run_matrix` time, and the last traced run's spans.
    """
    cfg = config.parse_config_file(config_path)
    reps, untraced_s, out_dirs, rows_equal, rep_s = [], [], [], True, 0.0
    while not reps or time.monotonic() + rep_s / 2 <= deadline:
        rep_start = time.monotonic()
        start = time.perf_counter()
        untraced_rows, _, _ = runner.run_matrix(cfg, jobs=1)
        untraced_s.append(time.perf_counter() - start)
        out_dirs.append(new_out_dir())
        metrics, rows, tracer = _traced_run(config_path, out_dirs[-1])
        rows_equal &= without_wall_time(rows) == without_wall_time(untraced_rows)
        reps.append(metrics)
        rep_s = time.monotonic() - rep_start
    # median_low keeps counts whole: it is always one of the samples
    medians = {k: statistics.median_low(r[k] for r in reps) for k in reps[0]}

    probed = [s for s in SCHEMES if f"schemes.step_us.{s}" not in medians]
    for scheme in probed:
        medians[f"schemes.step_us.{scheme}"] = _probe_step_us(cfg, scheme)
    state = cfg.make_state()
    sigma, flux = cfg.make_sigma(), cfg.make_flux()
    dt = cfg.dt_ladder[0]
    dw = math.sqrt(dt)
    policy = cfg.make_policy(dt_max=dt)
    medians["noise.milstein_step_us"] = per_call_us(
        lambda: noise.milstein_step(state.values, sigma, dw, dt))
    medians["burgers.cfl_dt_us"] = per_call_us(
        lambda: burgers.cfl_dt(state, sigma, policy, flux=flux,
                               t_remaining=cfg.t_end))
    return {"metrics": medians, "repetitions": len(reps), "out_dirs": out_dirs,
            "rows_equal": rows_equal,
            "untraced_run_matrix_s": statistics.median_low(untraced_s),
            "tracer": tracer, "probed": probed}
