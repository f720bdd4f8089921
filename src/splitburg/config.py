"""Run configuration: a strict, picklable description of an ensemble study.

The document is YAML (JSON-style flow syntax also parses).  Unknown keys are
rejected by name at every level, numeric fields must parse as finite numbers
(plain scientific notation like `1e6` is fine even though YAML 1.1 tokenizes
it as a string), and the dt ladder, path resolution, seeds and horizon are
cross-checked here (each dt ladder entry's path alignment by
`noise.step_counts`) so every downstream step can assume an aligned,
well-formed study.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .burgers import CflMode, CflPolicy, FluxFunction
from .errors import ConfigError
from .grid import (
    BoundaryKind,
    FieldState,
    InitialCondition,
    SpatialGrid,
    make_initial_state,
)
from .noise import NoiseAmplitude, check_seed, step_counts
from .schemes import DEFAULT_BLOWUP_THRESHOLD, SchemeConfig, scheme_traits

DEFAULT_SEED_BASE = 1
DEFAULT_SEED_COUNT = 50


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme entry of the study matrix; iterative schemes expand to one
    cell per iteration count."""

    name: str
    iterations: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not scheme_traits(self.name).iterations:
            if self.iterations:
                raise ConfigError(
                    f"scheme {self.name!r} takes no iteration counts"
                )
            return
        iters = self.iterations or (2,)
        object.__setattr__(self, "iterations", tuple(iters))
        for i in self.iterations:
            SchemeConfig(self.name, iterations=i)
        if len(set(self.iterations)) != len(self.iterations):
            raise ConfigError(f"duplicate iteration counts for {self.name!r}")

    def cells(self) -> tuple[tuple[str, int], ...]:
        if self.iterations:
            return tuple((self.name, int(i)) for i in self.iterations)
        return ((self.name, 0),)


@dataclass(frozen=True)
class RunConfig:
    """Plain-data study description; builder methods make the runtime objects."""

    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 100
    ic: InitialCondition = field(default_factory=InitialCondition.sine_bump)
    flux_kind: str = "burgers_half"
    boundary: str = "zero_dirichlet"
    noise_kind: str = "linear"
    lam: float = 0.5
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec("ab"),)
    dt_ladder: tuple[float, ...] = (0.005,)
    dt_fine: float = 0.0025
    t_end: float = 0.1
    seeds: tuple[int, ...] = tuple(range(DEFAULT_SEED_BASE, DEFAULT_SEED_BASE + DEFAULT_SEED_COUNT))
    cfl_mode: str = "combined"
    safety: float = 0.9
    xi_bound: float = 3.0
    adaptive_dt: bool = False
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    stochastic_substep: str = "milstein"
    inner_mode: str = "whole_step"
    output_dir: str = "results"

    def __post_init__(self) -> None:
        # constructing the runtime objects validates the enumerated kinds; each
        # scheme cell builds the flux, the noise amplitude and the boundary
        self.make_grid()
        self.make_policy()
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        quantum = max(self.make_scheme(name, iters).quantum for name, iters in self.cells())

        if not self.dt_ladder:
            raise ConfigError("dt ladder must not be empty")
        for dt in self.dt_ladder:
            if not dt > 0.0:
                raise ConfigError(f"dt ladder entries must be positive, got {dt}")
        if any(b >= a for a, b in zip(self.dt_ladder, self.dt_ladder[1:])):
            raise ConfigError("dt ladder must be strictly decreasing")
        if not self.t_end > 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        # the dt ladder entries in fine steps; step_counts checks each fits
        ms = [step_counts(self.t_end, self.dt_fine, dt, quantum)[1]
              for dt in self.dt_ladder]
        for dt, m in zip(self.dt_ladder, ms):
            if m % ms[-1]:
                raise ConfigError(f"dt ladder entry {dt} is not an integer "
                                  f"multiple of the finest {self.dt_ladder[-1]}")

        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for s in self.seeds:
            check_seed(s)
        if len(set(self.seeds)) != len(self.seeds):
            dupes = sorted(s for s, n in Counter(self.seeds).items() if n > 1)
            raise ConfigError(f"duplicate seeds {dupes}")

    def cells(self) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        for spec in self.schemes:
            out.extend(spec.cells())
        return tuple(out)

    def make_grid(self) -> SpatialGrid:
        return SpatialGrid(self.x_min, self.x_max, self.n_cells)

    def make_state(self) -> FieldState:
        return make_initial_state(self.make_grid(), self.ic)

    def make_flux(self) -> FluxFunction:
        return FluxFunction(self.flux_kind)

    def make_sigma(self) -> NoiseAmplitude:
        return NoiseAmplitude(self.noise_kind, self.lam)

    def make_bc(self) -> BoundaryKind:
        return BoundaryKind.from_name(self.boundary)

    def make_policy(self, dt_max: float | None = None) -> CflPolicy:
        """The stability policy; a run caps each governed step at its dt
        ladder entry, passed as `dt_max`."""
        return CflPolicy(
            CflMode.from_name(self.cfl_mode), self.safety, self.xi_bound, dt_max
        )

    def make_scheme(self, name: str, iterations: int) -> SchemeConfig:
        return SchemeConfig(
            scheme=name,
            flux=self.make_flux(),
            sigma=self.make_sigma(),
            bc=self.make_bc(),
            iterations=max(iterations, 1),
            stochastic_substep=self.stochastic_substep,
            inner_mode=self.inner_mode,
            blowup_threshold=self.blowup_threshold,
        )


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _as_float(value, name: str) -> float:
    # YAML 1.1 reads unsigned exponents ("1e6") as strings; coerce those
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _parse_ic(section) -> InitialCondition:
    if not isinstance(section, dict):
        raise ConfigError("initial_condition must be a mapping with a 'kind'")
    kind = _as_str(section.get("kind", ""), "initial_condition.kind")
    if kind == "sine_bump":
        _reject_unknown(section, {"kind"}, "initial_condition")
        return InitialCondition.sine_bump()
    if kind == "riemann_step":
        _reject_unknown(section, {"kind", "u_left", "u_right"}, "initial_condition")
        return InitialCondition.riemann_step(
            _as_float(section.get("u_left", 1.0), "u_left"),
            _as_float(section.get("u_right", 0.0), "u_right"),
        )
    if kind == "constant":
        _reject_unknown(section, {"kind", "value"}, "initial_condition")
        return InitialCondition.constant(_as_float(section.get("value", 0.0), "value"))
    if kind == "table":
        _reject_unknown(section, {"kind", "x", "values"}, "initial_condition")
        xs = section.get("x")
        us = section.get("values")
        if not isinstance(xs, list) or not isinstance(us, list):
            raise ConfigError("table initial_condition needs 'x' and 'values' lists")
        return InitialCondition.table(
            [_as_float(v, "initial_condition.x") for v in xs],
            [_as_float(v, "initial_condition.values") for v in us],
        )
    raise ConfigError(f"unknown initial condition {kind!r}")


def _parse_schemes(section) -> tuple[SchemeSpec, ...]:
    if not isinstance(section, list) or not section:
        raise ConfigError("schemes must be a non-empty list")
    specs = []
    for entry in section:
        if isinstance(entry, str):
            specs.append(SchemeSpec(entry))
            continue
        if not isinstance(entry, dict):
            raise ConfigError(f"scheme entry must be a name or mapping, got {entry!r}")
        _reject_unknown(entry, {"name", "iterations"}, "schemes entry")
        name = _as_str(entry.get("name", ""), "schemes.name")
        iters = entry.get("iterations", [])
        if isinstance(iters, int):
            iters = [iters]
        if not isinstance(iters, list):
            raise ConfigError("schemes.iterations must be an integer or a list")
        specs.append(
            SchemeSpec(name, tuple(_as_int(i, "schemes.iterations") for i in iters))
        )
    return tuple(specs)


def _parse_ladder(section) -> tuple[float, ...]:
    if isinstance(section, list):
        if not section:
            raise ConfigError("dt_ladder must not be empty")
        return tuple(_as_float(v, "dt_ladder") for v in section)
    if isinstance(section, dict):
        _reject_unknown(section, {"base", "levels"}, "dt_ladder")
        base = _as_float(section.get("base", 0.0), "dt_ladder.base")
        levels = _as_int(section.get("levels", 1), "dt_ladder.levels")
        if levels < 1:
            raise ConfigError(f"dt_ladder.levels must be >= 1, got {levels}")
        return tuple(base / 2**k for k in range(levels))
    raise ConfigError("dt_ladder must be a list or a {base, levels} mapping")


def _parse_seeds(section) -> tuple[int, ...]:
    if isinstance(section, list):
        return tuple(_as_int(s, "seeds") for s in section)
    if isinstance(section, dict):
        if "list" in section:
            _reject_unknown(section, {"list"}, "seeds")
            entries = section["list"]
            if not isinstance(entries, list):
                raise ConfigError("seeds.list must be a list")
            return tuple(_as_int(s, "seeds.list") for s in entries)
        _reject_unknown(section, {"base", "count"}, "seeds")
        base = _as_int(section.get("base", DEFAULT_SEED_BASE), "seeds.base")
        count = _as_int(section.get("count", DEFAULT_SEED_COUNT), "seeds.count")
        if count < 1:
            raise ConfigError(f"seeds.count must be >= 1, got {count}")
        return tuple(range(base, base + count))
    raise ConfigError("seeds must be a list or a {base, count} / {list} mapping")


#: YAML key (or section.key) -> (RunConfig field, coercion) of every scalar
_SCALARS = {
    "grid.x_min": ("x_min", _as_float),
    "grid.x_max": ("x_max", _as_float),
    "grid.n_cells": ("n_cells", _as_int),
    "flux": ("flux_kind", _as_str),
    "boundary": ("boundary", _as_str),
    "noise.kind": ("noise_kind", _as_str),
    "noise.lam": ("lam", _as_float),
    "dt_fine": ("dt_fine", _as_float),
    "t_end": ("t_end", _as_float),
    "cfl.mode": ("cfl_mode", _as_str),
    "cfl.safety": ("safety", _as_float),
    "cfl.xi_bound": ("xi_bound", _as_float),
    "adaptive_dt": ("adaptive_dt", _as_bool),
    "blowup_threshold": ("blowup_threshold", _as_float),
    "stochastic_substep": ("stochastic_substep", _as_str),
    "inner_mode": ("inner_mode", _as_str),
    "output_dir": ("output_dir", _as_str),
}

#: YAML key -> (RunConfig field, parser) of every structured entry
_STRUCTURED = {
    "initial_condition": ("ic", _parse_ic),
    "schemes": ("schemes", _parse_schemes),
    "dt_ladder": ("dt_ladder", _parse_ladder),
    "seeds": ("seeds", _parse_seeds),
}

_SECTIONS = ("grid", "noise", "cfl")


def parse_config(doc) -> RunConfig:
    """Build a RunConfig from a YAML string or an already-loaded mapping."""
    if isinstance(doc, str):
        try:
            doc = yaml.safe_load(doc)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config document is not well-formed: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    _reject_unknown(doc, {key.partition(".")[0] for key in _SCALARS} | set(_STRUCTURED),
                    "top level")
    for section in _SECTIONS:
        node = doc.get(section, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{section} must be a mapping")
        _reject_unknown(node, {key.partition(".")[2] for key in _SCALARS
                               if key.startswith(section + ".")}, section)

    kwargs: dict = {}
    for key, (field_name, parse) in _STRUCTURED.items():
        if key in doc:
            kwargs[field_name] = parse(doc[key])
    if "dt_ladder" in kwargs:  # dt_fine defaults to half the finest level
        kwargs["dt_fine"] = kwargs["dt_ladder"][-1] / 2.0
    for key, (field_name, coerce) in _SCALARS.items():
        section, _, leaf = key.rpartition(".")
        node = doc.get(section, {}) if section else doc
        if leaf in node:
            kwargs[field_name] = coerce(node[leaf], key)
    return RunConfig(**kwargs)


def parse_config_file(path) -> RunConfig:
    """Read and parse a config document from disk."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"config file {p} cannot be read: {exc}") from None
    return parse_config(text)
