"""Ensemble execution: map the scheme x dt x seed matrix to workers, reduce
to summary rows, and write the CSV outputs.

Every task is keyed by (scheme, iterations, dt, seed) and draws its noise from
the seed alone, so the results are byte-identical regardless of the worker
count or scheduling order.  A worker failure is recorded against its cell and
never aborts the rest of the matrix: `_run_tasks` alone records it, as the
failing task's error text.  A chunk the pool cannot return, because its
worker process died, is rerun through `_run_tasks` in the calling process,
so no seed is lost to a dead worker; a chunk that would crash any process
(a native crash) then ends the calling process too, without a summary.

Tasks run seed-major (for each seed, every cell and dt), so consecutive tasks
share a Wiener path: `_run_cell` keeps the path of the task before and draws
a new one only when (seed, t_end, dt_fine) changes.  A pool chunk holds
whole seeds, so that is one path per seed, at most one held at a time, and
none once `_run_tasks` returns.  The reduction and the outcomes
`run_matrix` returns are in cell-major order, as the outputs are.

A seed's one record is its `SeedOutcome`: the `EnsembleSample` that
`summarize` reads, with the trajectory's final `FieldState` as its endpoint,
passed to the reduction, the caller and the writer as the worker built it.
Its residual trace is the `(n, 4)` float64 array that `integrate` builds as
it streams.  The process pool is imported only for `jobs > 1`.
It starts at most as many workers as there are chunks of tasks and usable
CPUs, however large `jobs` is.

Outputs stream.  `run_matrix` hands each outcome to an `on_outcome` callback
in the calling process as soon as its chunk of tasks is back: at `jobs == 1`
once every task has run, at `jobs > 1` per pool chunk in completion order,
so the parent creates files while the workers compute.  `CsvWriter` owns the
layout (summary.csv, profiles/, residuals/), writes each file in one call
and summary.csv last.  Only the parent writes: creating files in one
directory from several threads made each create cost more in system time,
not less.  On the benchmark's `ensemble` study (2-core host), workers that
wrote their own chunk's files did not resolve as a gain at `--jobs 2` (2.03
to 1.77 s in one set of A/B pairs, 2.33 to 2.15 s with 5 wins of 10 in
another), and a writer thread at `--jobs 1` held its writes back until
`finish` (2.89 to 2.90 s).  Most of the parent's write time is system time
for file creates, which recent deletes make slow.  `emit_csv` runs the
same writer over a finished run's outcomes.  Every number written takes its
mesh from the state it describes: a profile's x column from its endpoint's
grid, a summary row's dx from its dt level's noise-free baseline.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import EnsembleSample, summarize
from .burgers import scl_step
from .config import RunConfig
from .errors import CflViolation, ConfigError
from .grid import FieldState, SpatialGrid
from .noise import NoisePath, generate_path, step_counts
from .schemes import integrate

def cell_label(scheme: str, iterations: int) -> str:
    """File and report label of a matrix cell; iterative schemes embed I."""
    return scheme if iterations == 0 else f"{scheme}{iterations}"


def _fmt(value) -> str:
    # repr of a builtin float round-trips exactly and never abbreviates
    return repr(float(value))


@dataclass(frozen=True)
class ResultRow:
    """One (scheme, I, dt) cell of the summary table.

    Its fields, in order, are summary.csv's columns, each headed by its name
    or by its `column` metadata.  A field's declared type, not its value's,
    sets how it is written (`str` as is, `int` by `str`, `float` by `_fmt`),
    and every `float` field must be finite."""

    scheme: str
    iterations: int = field(metadata={"column": "I"})
    dt: float
    dx: float
    lam: float = field(metadata={"column": "lambda"})
    n_seeds_used: int
    blowup_count: int
    weak_error: float
    strong_error: float
    mean_variance: float
    wall_time: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"result field {f.name} is not finite")


CSV_COLUMNS = tuple(f.metadata.get("column", f.name) for f in fields(ResultRow))
#: (field name, formatter) per summary.csv column; the annotations are
#: strings (`from __future__ import annotations`), and an unknown one fails here
_CSV_FORMATS = tuple((f.name, {"str": str, "int": str, "float": _fmt}[f.type])
                     for f in fields(ResultRow))


@dataclass(frozen=True, kw_only=True)
class SeedOutcome(EnsembleSample):
    """What one worker produced for one seed of one cell: the
    `EnsembleSample` that `summarize` reads, plus the worker's accounting.

    `endpoint` is the trajectory's final `FieldState`, or None when it blew
    up at `blowup_time`.  `residuals` has one row (step, time, iteration,
    residual) per iterate residual, the columns of the residual CSV; it is
    `(0, 4)` when the scheme makes no residuals.  It is read-only at every
    `--jobs`: `_run_cell` returns it so, and unpickling freezes it again."""

    residuals: np.ndarray
    n_steps: int
    wall_time: float

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writable, as in `FieldState.__setstate__`
        self.__dict__.update(state)
        self.residuals.setflags(write=False)


@dataclass(frozen=True)
class RunStats:
    """Workload accounting and anything that went wrong."""

    total_steps: int
    failures: tuple[tuple[str, float, int, str], ...]
    empty_cells: tuple[tuple[str, str], ...]

    @property
    def clean(self) -> bool:
        return not self.failures and not self.empty_cells


#: ((seed, t_end, dt_fine), path) of the last path `_run_cell` drew.  It is
#: module state because `_run_cell(task)` is the unit that the pool and the
#: benchmark's tracer call; `_run_tasks` clears it on entry and on exit.
_held_path: tuple[tuple[int, float, float], NoisePath] | None = None


def _run_cell(task: tuple[RunConfig, str, int, float, int]) -> SeedOutcome:
    """Integrate one seed of one cell; module-level so worker processes can
    unpickle it.  The path of the task before is reused when its (seed,
    t_end, dt_fine) match, so a seed's first task also times its path."""
    global _held_path
    cfg, scheme, iterations, dt, seed = task
    start = time.perf_counter()
    scheme_cfg = cfg.make_scheme(scheme, iterations)
    key = (seed, cfg.t_end, cfg.dt_fine)
    if _held_path is None or _held_path[0] != key:
        _held_path = None  # never hold two paths
        _held_path = (key, generate_path(seed, cfg.t_end, cfg.dt_fine))
    path = _held_path[1]
    c0 = cfg.make_state()
    if cfg.adaptive_dt:
        traj = integrate(c0, cfg.t_end, scheme_cfg, path,
                         cfl=cfg.make_policy(dt_max=dt))
    else:
        traj = integrate(c0, cfg.t_end, scheme_cfg, path, dt=dt)
    return SeedOutcome(
        seed, scheme, iterations, dt,
        endpoint=None if traj.blown_up else traj.final_state,
        blowup_time=traj.blowup_time, residuals=traj.residuals,
        n_steps=traj.n_steps, wall_time=time.perf_counter() - start,
    )


def _run_tasks(tasks) -> list[SeedOutcome | str]:
    """Run tasks in order, each through `_run_cell`; a task that raises gives
    its error text in place of an outcome.  Module-level, so a pool can run
    a chunk of tasks per submission.  No path is held before or after."""
    global _held_path
    results: list[SeedOutcome | str] = []
    _held_path = None
    try:
        for task in tasks:
            try:
                results.append(_run_cell(task))
            except Exception as exc:
                results.append(f"{type(exc).__name__}: {exc}")
    finally:
        _held_path = None
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on, which can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def reference_endpoint(cfg: RunConfig, dt: float) -> FieldState:
    """Noise-free solution advanced to t_end with the same fixed dt and mesh.

    This is the baseline the summary errors are measured against; it is
    computed once per dt level and shared by every scheme cell.  Its steps
    are `scl_step`s with the configuration's flux and boundary, the objects
    `make_scheme` gives the cells, so it is moved by the same
    `burgers.transport` as they are.
    """
    state = cfg.make_state()
    n_total, m = step_counts(cfg.t_end, cfg.dt_fine, dt)
    try:
        for _ in range(n_total // m):
            state = scl_step(state, dt, cfg.flux, cfg.bc)
    except CflViolation as exc:
        raise ConfigError(
            f"dt {dt:g} is unstable for the noise-free baseline: {exc}"
        ) from None
    return state


def run_matrix(
    cfg: RunConfig, jobs: int = 1,
    on_outcome: Callable[[SeedOutcome], None] | None = None,
) -> tuple[tuple[ResultRow, ...], tuple[SeedOutcome, ...], RunStats]:
    """Execute every (scheme, I, dt, seed) task and reduce to summary rows;
    the outcomes come back cell-major, each (cell, dt) with its seeds in
    order, a failed task's absent.

    `on_outcome(outcome)`, if given, is called in this process with each
    `SeedOutcome` as soon as its chunk of tasks is back: at `jobs == 1` once
    every task has run, at `jobs > 1` per pool chunk in completion order.
    An exception it raises ends the run and cancels the chunks not started.
    `jobs > 1` starts min(jobs, usable CPUs, chunks) worker processes.
    """
    # an int only: neither True nor 2.0 is a worker count
    if type(jobs) is not int or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs}")

    references = {dt: reference_endpoint(cfg, dt) for dt in cfg.dt_ladder}

    cell_dts = [(scheme, iterations, dt)
                for scheme, iterations in cfg.cells() for dt in cfg.dt_ladder]
    # seed-major, so that consecutive tasks share their seed's path
    tasks = [(cfg, scheme, iterations, dt, seed)
             for seed in cfg.seeds for scheme, iterations, dt in cell_dts]

    def deliver(chunk_results):
        if on_outcome is not None:
            for result in chunk_results:
                if not isinstance(result, str):
                    on_outcome(result)

    if jobs == 1:
        results = _run_tasks(tasks)
        deliver(results)
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # a pool forks all its workers at the first submit, so start no more
        # than can be busy; contiguous chunks of whole seeds, so that no
        # seed's path is drawn twice, at least four per worker where there
        # are that many seeds
        workers = min(jobs, _usable_cpus())
        size = max(1, len(cfg.seeds) // (4 * workers)) * len(cell_dts)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        done: list[list[SeedOutcome | str]] = [[] for _ in chunks]
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = {pool.submit(_run_tasks, chunk): k
                       for k, chunk in enumerate(chunks)}
            try:
                for fut in as_completed(futures):
                    k = futures[fut]
                    try:
                        done[k] = fut.result()
                    except Exception:  # a worker died and broke the pool: run it here
                        done[k] = _run_tasks(chunks[k])
                    deliver(done[k])
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        results = [result for chunk_results in done for result in chunk_results]

    # results are in task order, so (cell, dt) number j has every
    # len(cell_dts)-th result from j on, one per seed in seed order
    rows: list[ResultRow] = []
    ordered: list[SeedOutcome] = []
    failures: list[tuple[str, float, int, str]] = []
    empty_cells: list[tuple[str, str]] = []
    for j, (scheme, iterations, dt) in enumerate(cell_dts):
        label = f"{cell_label(scheme, iterations)} dt={dt:g}"
        cell = []
        for seed, result in zip(cfg.seeds, results[j::len(cell_dts)]):
            if isinstance(result, str):
                failures.append((cell_label(scheme, iterations), dt, seed, result))
            else:
                cell.append(result)
        ordered.extend(cell)
        if not cell:
            empty_cells.append((label, "every worker task failed"))
            continue
        try:
            report = summarize(cell, references[dt])
            rows.append(ResultRow(
                scheme, iterations, dt, references[dt].grid.dx, cfg.sigma.lam,
                report.n_seeds_used, report.blowup_count,
                report.weak, report.strong, report.variance_mean,
                sum(o.wall_time for o in cell),
            ))
        except (ValueError, RuntimeError) as exc:
            # no usable sample, a non-finite estimate, or estimators that
            # disagree (weak > strong): that cell has no row, and the rest
            # of the run goes on
            empty_cells.append((label, str(exc)))

    stats = RunStats(
        total_steps=sum(o.n_steps for o in ordered),
        failures=tuple(failures),
        empty_cells=tuple(empty_cells),
    )
    return tuple(rows), tuple(ordered), stats


class CsvWriter:
    """The output layout under one directory: summary.csv, and one file per
    seed in profiles/ and residuals/.

    Nothing touches the disk before the first `write` or `finish`.  That call
    creates the directories and removes the `*.csv` files in profiles/ and
    residuals/ and any summary.csv, so a rerun leaves none of an earlier
    run's files behind.  `write(outcome)` writes that seed's (x, c) endpoint
    profile, unless it blew up, with x the centres of the endpoint's own
    grid, and its residual trace if the scheme is iterative.  `finish(rows)`
    writes summary.csv atomically, last, so a summary never sits beside
    another run's per-seed files, and a run that fails after its first
    write leaves no summary at all.  Each file is
    formatted whole and written in one call, by the one process that holds
    the writer.
    """

    def __init__(self, out_dir) -> None:
        self.out = Path(out_dir)
        # str paths: a pathlib join costs about 3 us, paid twice per seed
        self._profiles = os.path.join(self.out, "profiles")
        self._residuals = os.path.join(self.out, "residuals")
        # per mesh met, the header and one "x,%r" line per cell: each x
        # column is formatted once, from the grid of the first endpoint on it
        self._profiles_by_grid: dict[SpatialGrid, str] = {}
        self._started = False

    def _start(self) -> None:
        if self._started:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "summary.csv").unlink(missing_ok=True)
        for sub in (self._profiles, self._residuals):
            os.makedirs(sub, exist_ok=True)
            for stale in Path(sub).glob("*.csv"):
                stale.unlink()
        self._started = True

    def write(self, o: SeedOutcome) -> None:
        """Write one seed's profile and residual trace."""
        self._start()
        stem = f"{cell_label(o.scheme, o.iterations)}_{_fmt(o.dt)}_{o.seed}.csv"
        if o.endpoint is not None:
            grid = o.endpoint.grid
            profile = self._profiles_by_grid.get(grid)
            if profile is None:
                # tolist() gives builtin floats, whose repr is _fmt's
                profile = self._profiles_by_grid[grid] = "x,c\n" + "".join(
                    [f"{x!r},%r\n" for x in grid.centers.tolist()])
            with open(os.path.join(self._profiles, stem), "w",
                      encoding="utf-8") as fh:
                fh.write(profile % tuple(o.endpoint.values.tolist()))
        if o.iterations > 0:
            with open(os.path.join(self._residuals, stem), "w",
                      encoding="utf-8") as fh:
                fh.write("".join(["step,time,iteration,residual\n"] + [
                    f"{int(step)},{t!r},{int(sweep)},{res!r}\n"
                    for step, t, sweep, res in o.residuals.tolist()]))

    def finish(self, rows) -> Path:
        """Write summary.csv, one row per cell in the fixed column order."""
        if not rows:
            raise ValueError("no result rows to write")
        self._start()
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join([fmt(getattr(r, name)) for name, fmt in _CSV_FORMATS])
            for r in rows]
        fd, tmp = tempfile.mkstemp(dir=self.out, prefix=".summary-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, self.out / "summary.csv")
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return self.out / "summary.csv"


def emit_csv(rows, outcomes, out_dir) -> Path:
    """Write every outcome and then summary.csv through one `CsvWriter`;
    empty rows are refused before anything touches the disk."""
    if not rows:
        raise ValueError("no result rows to write")
    writer = CsvWriter(out_dir)
    for outcome in outcomes:
        writer.write(outcome)
    return writer.finish(rows)
