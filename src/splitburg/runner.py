"""Ensemble execution: map the scheme x dt x seed matrix to workers, reduce
to summary rows, and write the CSV outputs.

Every task is keyed by (scheme, iterations, dt, seed) and draws its noise from
the seed alone, so the results are byte-identical regardless of the worker
count or scheduling order.  A worker failure is recorded against its cell and
never aborts the rest of the matrix.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import EnsembleSample, summarize
from .burgers import scl_step
from .config import RunConfig
from .errors import CflViolation, ConfigError
from .grid import FieldState
from .noise import generate_path
from .schemes import integrate

CSV_COLUMNS = (
    "scheme", "I", "dt", "dx", "lambda", "n_seeds_used", "blowup_count",
    "weak_error", "strong_error", "mean_variance", "wall_time",
)


def cell_label(scheme: str, iterations: int) -> str:
    """File and report label of a matrix cell; iterative schemes embed I."""
    return scheme if iterations == 0 else f"{scheme}{iterations}"


@dataclass(frozen=True)
class ResultRow:
    """One (scheme, I, dt) cell of the summary table."""

    scheme: str
    iterations: int
    dt: float
    dx: float
    lam: float
    n_seeds_used: int
    blowup_count: int
    weak_error: float
    strong_error: float
    mean_variance: float
    wall_time: float

    def __post_init__(self) -> None:
        for name in ("dt", "dx", "lam", "weak_error", "strong_error",
                     "mean_variance", "wall_time"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"result field {name} is not finite")


@dataclass(frozen=True)
class SeedOutcome:
    """What one worker produced for one seed of one cell."""

    scheme: str
    iterations: int
    dt: float
    seed: int
    endpoint: np.ndarray | None
    final_time: float
    blowup_time: float | None
    residuals: tuple[tuple[int, float, int, float], ...]
    n_steps: int
    wall_time: float


@dataclass(frozen=True)
class RunArchive:
    """Per-seed endpoints and residual traces plus the shared cell geometry."""

    x_centers: np.ndarray
    outcomes: tuple[SeedOutcome, ...]


@dataclass(frozen=True)
class RunStats:
    """Workload accounting and anything that went wrong."""

    total_steps: int
    failures: tuple[tuple[str, float, int, str], ...]
    empty_cells: tuple[tuple[str, str], ...]

    @property
    def clean(self) -> bool:
        return not self.failures and not self.empty_cells


def _run_cell(task: tuple[RunConfig, str, int, float, int]) -> SeedOutcome:
    """Integrate one seed of one cell; module-level so worker processes can
    unpickle it."""
    cfg, scheme, iterations, dt, seed = task
    start = time.perf_counter()
    scheme_cfg = cfg.make_scheme(scheme, iterations)
    path = generate_path(seed, cfg.t_end, cfg.dt_fine)
    c0 = cfg.make_state()
    if cfg.adaptive_dt:
        traj = integrate(c0, cfg.t_end, scheme_cfg, path,
                         cfl=cfg.make_policy(dt_max=dt))
    else:
        traj = integrate(c0, cfg.t_end, scheme_cfg, path, dt=dt)
    trace = []
    for step_index, rec in enumerate(traj.records):
        for offset, residual in enumerate(rec.iterate_residuals):
            trace.append((step_index, rec.state_after.time, offset + 2, residual))
    endpoint = None if traj.blown_up else traj.final_state.values
    return SeedOutcome(
        scheme, iterations, dt, seed, endpoint, traj.final_state.time,
        traj.blowup_time, tuple(trace), traj.n_steps,
        time.perf_counter() - start,
    )


def reference_endpoint(cfg: RunConfig, dt: float) -> FieldState:
    """Noise-free solution advanced to t_end with the same fixed dt and mesh.

    This is the baseline the summary errors are measured against; it is
    computed once per dt level and shared by every scheme cell.
    """
    state = cfg.make_state()
    flux = cfg.make_flux()
    bc = cfg.make_bc()
    n = round(cfg.t_end / dt)
    try:
        for _ in range(n):
            state = scl_step(state, dt, flux, bc)
    except CflViolation as exc:
        raise ConfigError(
            f"dt {dt:g} is unstable for the noise-free baseline: {exc}"
        ) from None
    return state


def run_matrix(
    cfg: RunConfig, jobs: int = 1
) -> tuple[tuple[ResultRow, ...], RunArchive, RunStats]:
    """Execute every (scheme, I, dt, seed) task and reduce to summary rows."""
    if jobs < 1 or int(jobs) != jobs:
        raise ConfigError(f"jobs must be a positive integer, got {jobs}")

    grid = cfg.make_grid()
    references = {dt: reference_endpoint(cfg, dt) for dt in cfg.dt_ladder}

    tasks = [
        (cfg, scheme, iterations, dt, seed)
        for scheme, iterations in cfg.cells()
        for dt in cfg.dt_ladder
        for seed in cfg.seeds
    ]

    outcomes: dict[tuple[str, int, float, int], SeedOutcome] = {}
    failures: list[tuple[str, float, int, str]] = []

    def record(task, outcome=None, error=None):
        _, scheme, iterations, dt, seed = task
        if error is not None:
            failures.append((cell_label(scheme, iterations), dt, seed,
                             f"{type(error).__name__}: {error}"))
        else:
            outcomes[(scheme, iterations, dt, seed)] = outcome

    if jobs == 1:
        for task in tasks:
            try:
                record(task, outcome=_run_cell(task))
            except Exception as exc:
                record(task, error=exc)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_cell, task) for task in tasks]
            for task, fut in zip(tasks, futures):
                try:
                    record(task, outcome=fut.result())
                except Exception as exc:
                    record(task, error=exc)

    rows: list[ResultRow] = []
    ordered: list[SeedOutcome] = []
    empty_cells: list[tuple[str, str]] = []
    for scheme, iterations in cfg.cells():
        for dt in cfg.dt_ladder:
            label = f"{cell_label(scheme, iterations)} dt={dt:g}"
            cell = [
                outcomes[(scheme, iterations, dt, seed)]
                for seed in cfg.seeds
                if (scheme, iterations, dt, seed) in outcomes
            ]
            ordered.extend(cell)
            if not cell:
                empty_cells.append((label, "every worker task failed"))
                continue
            samples = [
                EnsembleSample(
                    o.seed, scheme, iterations, dt,
                    endpoint=(None if o.endpoint is None
                              else FieldState(grid, o.endpoint, time=o.final_time)),
                    blowup_time=o.blowup_time,
                )
                for o in cell
            ]
            try:
                report = summarize(samples, references[dt])
                rows.append(ResultRow(
                    scheme, iterations, dt, grid.dx, cfg.lam,
                    report.n_seeds_used, report.blowup_count,
                    report.weak, report.strong, report.variance_mean,
                    sum(o.wall_time for o in cell),
                ))
            except ValueError as exc:
                empty_cells.append((label, str(exc)))

    stats = RunStats(
        total_steps=sum(o.n_steps for o in ordered),
        failures=tuple(failures),
        empty_cells=tuple(empty_cells),
    )
    return tuple(rows), RunArchive(grid.centers, tuple(ordered)), stats


def _fmt(value) -> str:
    # repr of a builtin float round-trips exactly and never abbreviates
    return repr(float(value))


def emit_csv(rows, archive: RunArchive, out_dir) -> Path:
    """Write summary.csv (atomically), endpoint profiles, and residual traces.

    summary.csv carries one row per cell in the fixed column order; profiles
    hold the (x, c) endpoint of every non-blown-up seed; residual traces are
    written for iterative cells only.  Blown-up seeds leave no profile file.
    """
    if not rows:
        raise ValueError("no result rows to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join((
            r.scheme, str(r.iterations), _fmt(r.dt), _fmt(r.dx), _fmt(r.lam),
            str(r.n_seeds_used), str(r.blowup_count), _fmt(r.weak_error),
            _fmt(r.strong_error), _fmt(r.mean_variance), _fmt(r.wall_time),
        )))
    fd, tmp = tempfile.mkstemp(dir=out, prefix=".summary-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, out / "summary.csv")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

    profiles = out / "profiles"
    traces = out / "residuals"
    profiles.mkdir(exist_ok=True)
    traces.mkdir(exist_ok=True)
    # tolist() gives builtin floats, whose repr is _fmt's
    x_column = [repr(x) for x in archive.x_centers.tolist()]
    for o in archive.outcomes:
        stem = f"{cell_label(o.scheme, o.iterations)}_{_fmt(o.dt)}_{o.seed}.csv"
        if o.endpoint is not None:
            body = ["x,c"]
            body.extend(f"{x},{c!r}" for x, c in zip(x_column, o.endpoint.tolist()))
            (profiles / stem).write_text("\n".join(body) + "\n", encoding="utf-8")
        if o.iterations > 0:
            body = ["step,time,iteration,residual"]
            body.extend(
                f"{step},{_fmt(t)},{sweep},{_fmt(res)}"
                for step, t, sweep, res in o.residuals
            )
            (traces / stem).write_text("\n".join(body) + "\n", encoding="utf-8")
    return out / "summary.csv"
