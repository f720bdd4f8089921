"""Run configuration: a strict, picklable description of an ensemble study.

The document is YAML (JSON-style flow syntax also parses).  The parser keeps
only YAML's own rules: an unknown key is refused by name at every level, and
so is a key given twice in one mapping; each section has its shape (a
mapping or a list); the YAML-only keys `dt_ladder.base`/`levels` and
`seeds.base`/`count` are checked here; and a number key is read by one
reader that takes plain scientific notation such as `1e6` (YAML 1.1
tokenizes it as a string) and names the YAML key when the value is not a
finite number.  The sections `grid`, `noise` and `cfl` are read into the
default instance of the class each describes (`SpatialGrid`,
`NoiseAmplitude`, `CflPolicy`), their keys that class's fields less the
`dt_max` a run sets, so a key left out keeps the class default; `flux` and
`boundary` name a `FluxFunction` and a `BoundaryKind`.  Every other value
goes to its field as written.  `_ENTRIES` is the one table of YAML keys.

`RunConfig` holds the runtime objects themselves and owns every rule of
its own fields, so a study built in code and one read from YAML are the
same.  A field whose default is not a number or a tuple must have its
default's type (the objects, `ic`, `adaptive_dt` and `output_dir`), `cfl`
must leave `dt_max` out and each `schemes` entry must be a `SchemeSpec`;
whole numbers (`n_cells`, seeds, iteration counts) pass
`errors.check_whole`, so an integral float counts and 10.5 does not.
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
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

import yaml

from .burgers import CflPolicy, FluxFunction
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
from .schemes import DEFAULT_BLOWUP_THRESHOLD, DEFAULT_ITERATIONS, SchemeConfig, scheme_traits

DEFAULT_SEED_BASE = 1
DEFAULT_SEED_COUNT = 50


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme entry of the study matrix; iterative schemes expand to one
    cell per iteration count.  `iterations` is one count or a sequence of
    counts, stored as a tuple; left out (None), it is
    `schemes.DEFAULT_ITERATIONS` for an iterative scheme and empty for
    another.
    An iterative scheme given an empty sequence is refused.  `RunConfig`
    gates each count, by building the cell's `SchemeConfig`, and refuses a
    cell listed twice."""

    name: str
    iterations: tuple[int, ...] | int | None = None

    def __post_init__(self) -> None:
        iterative = bool(scheme_traits(self.name).iterations)
        counts = self.iterations
        if counts is None:
            counts = (DEFAULT_ITERATIONS,) if iterative else ()
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
    """Study description holding the runtime objects its tasks share.

    `grid`, `flux`, `bc`, `sigma` and `cfl` are the objects themselves, each
    defaulting to its class's default instance, and every task of a run
    gets the same ones.  `cfl` leaves `dt_max` out, because a run caps each
    governed step at its dt ladder entry (`make_policy`).  `dt_fine` left as
    None becomes half the finest `dt_ladder` entry at construction, and is
    then stored as if given: a `dataclasses.replace` that changes the ladder
    keeps the old `dt_fine` unless it also passes `dt_fine=None` to derive
    it again.
    """

    grid: SpatialGrid = SpatialGrid()
    ic: InitialCondition = InitialCondition.sine_bump()
    flux: FluxFunction = FluxFunction()
    bc: BoundaryKind = BoundaryKind.ZERO_DIRICHLET
    sigma: NoiseAmplitude = NoiseAmplitude()
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec("ab"),)
    dt_ladder: tuple[float, ...] = (0.005,)
    dt_fine: float | None = None
    t_end: float = 0.1
    seeds: tuple[int, ...] = tuple(range(DEFAULT_SEED_BASE, DEFAULT_SEED_BASE + DEFAULT_SEED_COUNT))
    cfl: CflPolicy = CflPolicy()
    adaptive_dt: bool = False
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    output_dir: str = "results"

    def __post_init__(self) -> None:
        # a field whose default is not a number or a tuple takes its
        # default's type, so "false" is not true and a mapping is not a grid
        for f in fields(self):
            if not isinstance(f.default, (float, tuple, type(None))):
                check_type(getattr(self, f.name), type(f.default), f.name)
        if self.cfl.dt_max is not None:
            raise ConfigError(f"cfl must leave dt_max out, got {self.cfl.dt_max!r}: "
                              "a run caps each step at its dt ladder entry")
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

    def make_state(self) -> FieldState:
        return make_initial_state(self.grid, self.ic)

    def make_policy(self, dt_max: float) -> CflPolicy:
        """The stability policy of a run whose governed steps are capped at
        `dt_max`, its dt ladder entry."""
        return replace(self.cfl, dt_max=dt_max)

    def make_scheme(self, name: str, iterations: int) -> SchemeConfig:
        return SchemeConfig(name, flux=self.flux, sigma=self.sigma, bc=self.bc,
                            iterations=iterations, blowup_threshold=self.blowup_threshold)

    # benchmark contract v1 (perfbench/layers.py) reads these three;
    # contract v2 (ROADMAP item 1) deletes them
    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def make_flux(self) -> FluxFunction:
        return self.flux

    def make_sigma(self) -> NoiseAmplitude:
        return self.sigma


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


def _parse_ic(section, key: str) -> InitialCondition:
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a mapping with a 'kind'")
    kind = section.get("kind", "")
    check_kind(kind, _IC_KEYS, "initial condition")
    _reject_unknown(section, {"kind", *_IC_KEYS[kind]}, key)
    if kind == "table":
        xs = section.get("x")
        us = section.get("values")
        if not isinstance(xs, list) or not isinstance(us, list):
            raise ConfigError(f"table {key} needs 'x' and 'values' lists")
        return InitialCondition.table(
            [_number(v, f"{key}.x") for v in xs],
            [_number(v, f"{key}.values") for v in us],
        )
    return InitialCondition(kind, **{name: _number(section[name], name)
                                     for name in _IC_KEYS[kind] if name in section})


def _parse_schemes(section, key: str) -> tuple[SchemeSpec, ...]:
    if not isinstance(section, list):
        raise ConfigError(f"{key} must be a list")
    specs = []
    for entry in section:
        if isinstance(entry, dict):
            _reject_unknown(entry, {"name", "iterations"}, f"{key} entry")
            specs.append(SchemeSpec(**{"name": "", **entry}))
        else:
            specs.append(SchemeSpec(entry))
    return tuple(specs)


def _parse_ladder(section, key: str) -> tuple[float, ...]:
    if isinstance(section, list):
        return tuple(_number(v, key) for v in section)
    if isinstance(section, dict):
        _reject_unknown(section, {"base", "levels"}, key)
        base = _number(section.get("base", 0.0), f"{key}.base")
        # the coarsest dt is at most t_end and dt_fine at most the finest, so
        # a ladder's paths have at least 2**(levels - 1) steps, under the cap
        most = noise.MAX_PATH_STEPS.bit_length()
        levels = check_whole(section.get("levels", 1), 1, most + 1,
                             f"{key}.levels must be an integer from 1 to {most}")
        # base * 2**-k, exact as base / 2**k, without an int too large for a float
        return tuple(math.ldexp(base, -k) for k in range(levels))
    raise ConfigError(f"{key} must be a list or a {{base, levels}} mapping")


def _parse_seeds(section, key: str) -> list | tuple[int, ...]:
    if isinstance(section, list):
        return section
    if isinstance(section, dict):
        _reject_unknown(section, {"base", "count"}, key)
        base = check_whole(section.get("base", DEFAULT_SEED_BASE), 0, math.inf,
                           f"{key}.base must be an integer >= 0")
        count = check_whole(section.get("count", DEFAULT_SEED_COUNT), 1, math.inf,
                            f"{key}.count must be an integer >= 1")
        return tuple(range(base, base + count))
    raise ConfigError(f"{key} must be a list or a {{base, count}} mapping")


def _section(cls, set_by_run: tuple[str, ...] = ()):
    """The reader of a YAML section that describes a `cls`.  Its keys are
    the fields of `cls` less `set_by_run`, and each key given replaces that
    field of the class's default instance: by `_number` where the default
    is a float, by the enum's `from_name` where it is an enum member, and
    as written otherwise."""
    default = cls()
    keys = {f.name for f in fields(cls)} - set(set_by_run)

    def read(node, key: str):
        if not isinstance(node, dict):
            raise ConfigError(f"{key} must be a mapping")
        _reject_unknown(node, keys, key)
        given = {}
        for name, value in node.items():
            was = getattr(default, name)
            if isinstance(was, float):
                value = _number(value, f"{key}.{name}")
            elif isinstance(was, Enum):
                value = type(was).from_name(value)
            given[name] = value
        return replace(default, **given)

    return read


def _as_written(value, key: str):
    return value


#: YAML key -> (RunConfig field, reader(value, key)) of every entry
_ENTRIES = {
    "grid": ("grid", _section(SpatialGrid)),
    "flux": ("flux", lambda kind, key: FluxFunction(kind)),
    "boundary": ("bc", lambda name, key: BoundaryKind.from_name(name)),
    "initial_condition": ("ic", _parse_ic),
    "noise": ("sigma", _section(NoiseAmplitude)),
    "schemes": ("schemes", _parse_schemes),
    "dt_ladder": ("dt_ladder", _parse_ladder),
    "dt_fine": ("dt_fine", _number),
    "t_end": ("t_end", _number),
    "seeds": ("seeds", _parse_seeds),
    "adaptive_dt": ("adaptive_dt", _as_written),
    # a run sets dt_max, each governed step's cap, from its dt ladder entry
    "cfl": ("cfl", _section(CflPolicy, set_by_run=("dt_max",))),
    "blowup_threshold": ("blowup_threshold", _number),
    "output_dir": ("output_dir", _as_written),
}


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
    _reject_unknown(doc, set(_ENTRIES), "top level")
    return RunConfig(**{name: read(doc[key], key)
                        for key, (name, read) in _ENTRIES.items() if key in doc})


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
