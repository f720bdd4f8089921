"""Run configuration: a strict, picklable description of an ensemble study.

The document is YAML (JSON-style flow syntax also parses).  The parser keeps
only YAML's own rules: an unknown key is refused by name at every level, and
so is a key given twice in one mapping; each section has its shape (a
mapping or a list); the YAML-only keys `dt_ladder.base`/`levels` and
`seeds.base`/`count` are checked here; and a number key is read by one
reader that takes plain scientific notation such as `1e6` (YAML 1.1
tokenizes it as a string) and names the YAML key when the value is not a
finite number.  Every other value goes to its field as written.

`RunConfig` owns every rule of the fields it holds, so a study built in code
and one read from YAML are the same.  Its bool and str fields must have
their defaults' types, `ic` must be an `InitialCondition` and each `schemes`
entry a `SchemeSpec`; whole numbers (`n_cells`, seeds, iteration counts)
pass `errors.check_whole`, so an integral float counts and 10.5 does not.
It derives `dt_fine` as half the finest dt ladder entry when none is given
(after the ladder's own checks, so a bad ladder is blamed on the ladder),
refuses an empty scheme list or dt ladder, and cross-checks the dt ladder,
path resolution, scheme cells, seeds and horizon (each dt ladder entry's
path alignment by `noise.step_counts`, the path length against
`noise.MAX_PATH_STEPS` by `noise.check_path_steps`, repeated cells and
seeds by `errors.check_unique`), so every downstream step can assume an
aligned, well-formed study that it can draw the noise for.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .burgers import CflMode, CflPolicy, FluxFunction
from .errors import (ConfigError, check_kind, check_ladder, check_number, check_positive,
                     check_type, check_unique, check_whole, is_finite)
from .grid import (
    BoundaryKind,
    FieldState,
    InitialCondition,
    SpatialGrid,
    make_initial_state,
)
from . import noise
from .noise import NoiseAmplitude, check_path_steps, check_seed, step_counts
from .schemes import DEFAULT_BLOWUP_THRESHOLD, SchemeConfig, scheme_traits

DEFAULT_SEED_BASE = 1
DEFAULT_SEED_COUNT = 50


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme entry of the study matrix; iterative schemes expand to one
    cell per iteration count.  `iterations` is one count or a sequence of
    counts, stored as a tuple; left out (None), it is
    `SchemeConfig.iterations` for an iterative scheme and empty for another.
    An iterative scheme given an empty sequence is refused.  `RunConfig`
    gates each count, by building the cell's `SchemeConfig`, and refuses a
    cell listed twice."""

    name: str
    iterations: tuple[int, ...] | int | None = None

    def __post_init__(self) -> None:
        iterative = bool(scheme_traits(self.name).iterations)
        counts = self.iterations
        if counts is None:
            counts = (SchemeConfig.iterations,) if iterative else ()
        elif isinstance(counts, str) or not isinstance(counts, Iterable):
            counts = (counts,)
        counts = tuple(counts)
        if counts and not iterative:
            raise ConfigError(f"scheme {self.name!r} takes no iteration counts")
        if iterative and not counts:
            raise ConfigError(f"scheme {self.name!r} takes at least one iteration count")
        object.__setattr__(self, "iterations", counts)

    def cells(self) -> tuple[tuple[str, int], ...]:
        """(name, count) per cell, each count as given; 0 for a scheme
        without iterations."""
        return tuple((self.name, i) for i in self.iterations or (0,))


@dataclass(frozen=True)
class RunConfig:
    """Plain-data study description; builder methods make the runtime objects.

    A field that a runtime class also has takes its default from that class
    (`FluxFunction`, `NoiseAmplitude`, `CflPolicy`, `SchemeConfig`), so the
    two cannot drift apart.  `dt_fine` left as None becomes half the finest
    `dt_ladder` entry at construction, and is then stored as if given: a
    `dataclasses.replace` that changes the ladder keeps the old `dt_fine`
    unless it also passes `dt_fine=None` to derive it again.
    """

    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 100
    ic: InitialCondition = field(default_factory=InitialCondition.sine_bump)
    flux_kind: str = FluxFunction.kind
    boundary: str = SchemeConfig.bc.value
    noise_kind: str = NoiseAmplitude.kind
    lam: float = NoiseAmplitude.lam
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec("ab"),)
    dt_ladder: tuple[float, ...] = (0.005,)
    dt_fine: float | None = None
    t_end: float = 0.1
    seeds: tuple[int, ...] = tuple(range(DEFAULT_SEED_BASE, DEFAULT_SEED_BASE + DEFAULT_SEED_COUNT))
    cfl_mode: str = CflPolicy.mode.value
    safety: float = CflPolicy.safety
    xi_bound: float = CflPolicy.xi_bound
    adaptive_dt: bool = False
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    output_dir: str = "results"

    def __post_init__(self) -> None:
        # a bool or str field takes its default's type, so "false" is not true
        for f in fields(self):
            if isinstance(f.default, (bool, str)):
                check_type(getattr(self, f.name), type(f.default), f.name)
        check_type(self.ic, InitialCondition, "ic")
        # constructing the runtime objects validates the enumerated kinds; each
        # scheme cell builds the flux, the noise amplitude and the boundary
        self.make_grid()
        self.make_policy()
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        for spec in self.schemes:
            check_type(spec, SchemeSpec, "schemes entry")
        # each count is gated as given, before `cells` takes it as an int
        quantum = max(self.make_scheme(*cell).quantum
                      for spec in self.schemes for cell in spec.cells())
        check_unique(self.cells(), "scheme cells")

        if not self.dt_ladder:
            raise ConfigError("dt ladder must not be empty")
        check_ladder(self.dt_ladder, "dt_ladder")
        if self.dt_fine is None:
            object.__setattr__(self, "dt_fine", self.dt_ladder[-1] / 2.0)
        check_positive(self.t_end, "t_end")
        # the dt ladder entries in fine steps; step_counts checks each fits
        ms = [step_counts(self.t_end, self.dt_fine, dt, quantum)[1]
              for dt in self.dt_ladder]
        for dt, m in zip(self.dt_ladder, ms):
            if m % ms[-1]:
                raise ConfigError(f"dt ladder entry {dt} is not an integer "
                                  f"multiple of the finest {self.dt_ladder[-1]}")
        # every task draws its seed's path, so one over the cap fails them all
        check_path_steps(step_counts(self.t_end, self.dt_fine)[0], error=ConfigError)

        if not self.seeds:
            raise ConfigError("at least one seed is required")
        object.__setattr__(self, "seeds", tuple(check_seed(s) for s in self.seeds))
        check_unique(self.seeds, "seeds")

    def cells(self) -> tuple[tuple[str, int], ...]:
        """Every (scheme, iterations) cell of the matrix in order, the count
        an int (0 for a scheme without iterations)."""
        return tuple((name, int(i)) for spec in self.schemes for name, i in spec.cells())

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
            # a cell's 0 means "no iterations"; SchemeConfig wants one
            iterations=iterations if scheme_traits(name).iterations else 1,
            blowup_threshold=self.blowup_threshold,
        )


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key given twice in one mapping is
    a ConfigError naming it, not silently the last copy."""

    def construct_mapping(self, node, deep=False):
        check_unique([key.value for key, _ in node.value
                      if isinstance(key, yaml.ScalarNode)], "YAML keys")
        return super().construct_mapping(node, deep)


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _number(value, key: str) -> float:
    """The value of a number key as a float, or ConfigError naming `key`
    unless it is a number (`errors.is_finite`).  A string is read with
    `float` first: YAML 1.1 leaves an exponent without a dot, such as
    `1e6`, a string."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    check_number(value, is_finite, key, "be finite")
    return float(value)


#: initial_condition kind -> its keys besides `kind`; a number key the
#: document leaves out takes the `InitialCondition` field default
_IC_KEYS = {"sine_bump": (), "riemann_step": ("u_left", "u_right"),
            "constant": ("value",), "table": ("x", "values")}


def _parse_ic(section) -> InitialCondition:
    if not isinstance(section, dict):
        raise ConfigError("initial_condition must be a mapping with a 'kind'")
    kind = section.get("kind", "")
    check_kind(kind, _IC_KEYS, "initial condition")
    _reject_unknown(section, {"kind", *_IC_KEYS[kind]}, "initial_condition")
    if kind == "table":
        xs = section.get("x")
        us = section.get("values")
        if not isinstance(xs, list) or not isinstance(us, list):
            raise ConfigError("table initial_condition needs 'x' and 'values' lists")
        return InitialCondition.table(
            [_number(v, "initial_condition.x") for v in xs],
            [_number(v, "initial_condition.values") for v in us],
        )
    return InitialCondition(kind, **{key: _number(section[key], key)
                                     for key in _IC_KEYS[kind] if key in section})


def _parse_schemes(section) -> tuple[SchemeSpec, ...]:
    if not isinstance(section, list):
        raise ConfigError("schemes must be a list")
    specs = []
    for entry in section:
        if isinstance(entry, dict):
            _reject_unknown(entry, {"name", "iterations"}, "schemes entry")
            specs.append(SchemeSpec(**{"name": "", **entry}))
        else:
            specs.append(SchemeSpec(entry))
    return tuple(specs)


def _parse_ladder(section) -> tuple[float, ...]:
    if isinstance(section, list):
        return tuple(_number(v, "dt_ladder") for v in section)
    if isinstance(section, dict):
        _reject_unknown(section, {"base", "levels"}, "dt_ladder")
        base = _number(section.get("base", 0.0), "dt_ladder.base")
        # the coarsest dt is at most t_end and dt_fine at most the finest, so
        # a ladder's paths have at least 2**(levels - 1) steps, under the cap
        most = noise.MAX_PATH_STEPS.bit_length()
        levels = check_whole(section.get("levels", 1), 1, most + 1,
                             f"dt_ladder.levels must be an integer from 1 to {most}")
        # base * 2**-k, exact as base / 2**k, without an int too large for a float
        return tuple(math.ldexp(base, -k) for k in range(levels))
    raise ConfigError("dt_ladder must be a list or a {base, levels} mapping")


def _parse_seeds(section) -> list | tuple[int, ...]:
    if isinstance(section, list):
        return section
    if isinstance(section, dict):
        _reject_unknown(section, {"base", "count"}, "seeds")
        base = check_whole(section.get("base", DEFAULT_SEED_BASE), 0, math.inf,
                           "seeds.base must be an integer >= 0")
        count = check_whole(section.get("count", DEFAULT_SEED_COUNT), 1, math.inf,
                            "seeds.count must be an integer >= 1")
        return tuple(range(base, base + count))
    raise ConfigError("seeds must be a list or a {base, count} mapping")


#: YAML key (or section.key) -> RunConfig field of every scalar
_SCALARS = {
    "grid.x_min": "x_min",
    "grid.x_max": "x_max",
    "grid.n_cells": "n_cells",
    "flux": "flux_kind",
    "boundary": "boundary",
    "noise.kind": "noise_kind",
    "noise.lam": "lam",
    "dt_fine": "dt_fine",
    "t_end": "t_end",
    "cfl.mode": "cfl_mode",
    "cfl.safety": "safety",
    "cfl.xi_bound": "xi_bound",
    "adaptive_dt": "adaptive_dt",
    "blowup_threshold": "blowup_threshold",
    "output_dir": "output_dir",
}

#: the scalars read by `_number`; every other one goes to its field as written
_NUMBERS = {"grid.x_min", "grid.x_max", "noise.lam", "dt_fine", "t_end",
            "cfl.safety", "cfl.xi_bound", "blowup_threshold"}

#: YAML key -> (RunConfig field, parser) of every structured entry
_STRUCTURED = {
    "initial_condition": ("ic", _parse_ic),
    "schemes": ("schemes", _parse_schemes),
    "dt_ladder": ("dt_ladder", _parse_ladder),
    "seeds": ("seeds", _parse_seeds),
}

#: the YAML sections that hold scalars, in `_SCALARS` order
_SECTIONS = tuple(dict.fromkeys(key.partition(".")[0] for key in _SCALARS if "." in key))


def parse_config(doc) -> RunConfig:
    """Build a RunConfig from a YAML string or an already-loaded mapping."""
    if isinstance(doc, str):
        try:
            doc = yaml.load(doc, Loader=_Loader)
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
    for key, field_name in _SCALARS.items():
        section, _, leaf = key.rpartition(".")
        node = doc.get(section, {}) if section else doc
        if leaf in node:
            kwargs[field_name] = _number(node[leaf], key) if key in _NUMBERS else node[leaf]
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
