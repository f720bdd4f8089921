"""Uniform 1D finite-volume mesh, immutable cell-averaged states and initial data.

Cell j covers [x_min + j*dx, x_min + (j+1)*dx]; values live at cell centers
x_j = x_min + (j + 1/2)*dx.  States are frozen and carry their grid, so they can
be shared freely across threads and worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (ConfigError, check_kind, check_number, check_positive, check_whole,
                     is_finite)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform mesh over [x_min, x_max] with n_cells cells, whose width dx
    must be positive and finite: bounds whose length overflows, or that
    are too close for a cell, are refused.  The defaults are a study's
    mesh: 100 cells on [0, 1]."""

    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 100

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max"):
            check_number(getattr(self, name), is_finite, name, "be finite")
        if self.x_max <= self.x_min:
            raise ConfigError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        object.__setattr__(self, "n_cells", check_whole(
            self.n_cells, 2, math.inf, "n_cells must be an integer >= 2"))
        check_positive(self.dx, "dx")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


class BoundaryKind(Enum):
    """Ghost-cell closure at the domain ends (one ghost cell per side)."""

    ZERO_DIRICHLET = "zero_dirichlet"
    PERIODIC = "periodic"

    def pad(self, values: np.ndarray) -> np.ndarray:
        """Return values extended by one ghost cell on each side of the last
        axis, so a (k, n_cells) stack is padded row by row."""
        if self is BoundaryKind.ZERO_DIRICHLET:
            padded = np.empty(values.shape[:-1] + (values.shape[-1] + 2,))
            padded[..., 0] = padded[..., -1] = 0.0
            padded[..., 1:-1] = values
            return padded
        return np.concatenate((values[..., -1:], values, values[..., :1]), axis=-1)

    def close_ghost_terms(self, left: np.ndarray, right: np.ndarray) -> None:
        """Fill the ghost cells' Engquist-Osher terms, in place, of arrays
        holding max(u, 0) of each interface's left cell (`left`) and
        min(u, 0) of its right cell (`right`), last axis one longer than
        the values: `left[..., 0]` and `right[..., -1]` become those of the
        ghost cells `pad` adds, max(0, 0) and min(0, 0), or for periodic
        ghosts the terms of the cells they copy, read from the same
        arrays."""
        if self is BoundaryKind.ZERO_DIRICHLET:
            left[..., 0] = right[..., -1] = 0.0
        else:
            left[..., 0] = left[..., -1]
            right[..., -1] = right[..., 0]

    @classmethod
    def from_name(cls, name: str) -> "BoundaryKind":
        check_kind(name, tuple(kind.value for kind in cls), "boundary kind")
        return cls(name)


def _scan(values: np.ndarray) -> tuple[np.ndarray, float]:
    """|values| and its largest entry, nan or inf when an entry is non-finite:
    the one scan a state gets, whose results also serve the stability checks
    of the step that starts from it."""
    absu = np.abs(values)
    return absu, float(np.maximum.reduce(absu))


def _mean_abs(diff: np.ndarray) -> float:
    """Mean of |diff|: np.mean's own sum and division, without its per-call
    dispatch, so it equals np.mean(np.abs(diff)) bit for bit (the same
    operations in the same order).  `diff` is a temporary its caller hands
    over: it is overwritten with |diff|."""
    return float(np.add.reduce(np.abs(diff, out=diff))) / diff.size


@dataclass(frozen=True)
class FieldState:
    """Cell-averaged solution values at one time level.

    Values are stored read-only.  The constructor always copies them, so a
    state never aliases a caller's buffer, and `peak`, the largest |value|,
    comes from the one scan every state makes of its copy.  Whether a state
    has blown up is `schemes._blowup_reason`'s to say from that peak.
    """

    grid: SpatialGrid
    values: np.ndarray
    time: float = 0.0
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)  # copy: never alias caller buffers
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"expected {self.grid.n_cells} cell values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "peak", _scan(vals)[1])

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writable; `peak` holds only while the
        # values cannot change
        self.__dict__.update(state)
        self.values.setflags(write=False)

    def with_values(self, values, time: float | None = None) -> "FieldState":
        return FieldState(self.grid, values, self.time if time is None else time)


_IC_KINDS = ("sine_bump", "riemann_step", "constant", "table")


@dataclass(frozen=True)
class InitialCondition:
    """Selector for the initial profile sampled at cell centers.

    Kinds:
        sine_bump          sin(pi * (x - x_min) / L), one arch over the domain
        riemann_step       u_left for x below the domain midpoint, u_right from it on
        constant           the single value everywhere
        table              linear interpolation of sampled (x, u) pairs

    The field defaults (u_left 1.0, u_right 0.0, value 0.0) are the only
    copy: a config document that leaves a key out gets them too.  Every
    number, the table samples included, must be finite, whatever the kind,
    and `value`, `u_left` and `u_right` are real scalars: a sequence or a
    bool is refused, not broadcast or read as 0 or 1.
    """

    kind: str
    value: float = 0.0
    u_left: float = 1.0
    u_right: float = 0.0
    x_table: tuple = ()
    u_table: tuple = ()

    def __post_init__(self) -> None:
        check_kind(self.kind, _IC_KINDS, "initial condition")
        for name in ("value", "u_left", "u_right"):
            check_number(getattr(self, name), is_finite, f"initial condition {name}",
                         "be finite")
        for name in ("x_table", "u_table"):
            check_number(getattr(self, name), lambda t: all(map(is_finite, t)),
                         f"initial condition {name}", "be finite")
        if self.kind == "table":
            if len(self.x_table) != len(self.u_table) or len(self.x_table) < 2:
                raise ConfigError("table initial condition needs >= 2 (x, u) pairs")
            if np.any(np.diff(self.x_table) <= 0):
                raise ConfigError("table x samples must be strictly increasing")

    @classmethod
    def sine_bump(cls) -> "InitialCondition":
        return cls("sine_bump")

    @classmethod
    def riemann_step(cls, u_left: float, u_right: float) -> "InitialCondition":
        return cls("riemann_step", u_left=u_left, u_right=u_right)

    @classmethod
    def constant(cls, value: float) -> "InitialCondition":
        return cls("constant", value=value)

    @classmethod
    def table(cls, x, u) -> "InitialCondition":
        return cls("table", x_table=tuple(x), u_table=tuple(u))

    def sample(self, grid: SpatialGrid) -> np.ndarray:
        x = grid.centers
        if self.kind == "sine_bump":
            return np.sin(np.pi * (x - grid.x_min) / grid.length)
        if self.kind == "riemann_step":
            mid = grid.x_min + 0.5 * grid.length
            return np.where(x < mid, self.u_left, self.u_right).astype(np.float64)
        if self.kind == "constant":
            return np.full(grid.n_cells, float(self.value))
        return np.interp(x, self.x_table, self.u_table)


def make_initial_state(grid: SpatialGrid, ic: InitialCondition) -> FieldState:
    """Sample the selected profile at cell centers; time starts at 0."""
    return FieldState(grid, ic.sample(grid), time=0.0)


def l1_distance(a: FieldState, b: FieldState) -> float:
    """Mean of |a_j - b_j| over cells (the spatial part of the seed-averaged errors)."""
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return _mean_abs(a.values - b.values)
