"""Run-configuration parsing, defaults, and cross-field validation."""

import dataclasses
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import splitburg.config as config_mod
import splitburg.noise as noise_mod
from splitburg import (
    BoundaryKind,
    CflMode,
    CflPolicy,
    ConfigError,
    FluxFunction,
    InitialCondition,
    NoiseAmplitude,
    RunConfig,
    SchemeConfig,
    SchemeSpec,
    SpatialGrid,
    cfl_dt,
    emit_csv,
    exact_linear_sde,
    fit_order,
    generate_path,
    integrate,
    make_initial_state,
    parse_config,
    parse_config_file,
    run_matrix,
    scl_step,
    step,
)

README = Path(__file__).resolve().parents[1] / "README.md"

FULL_DOC = """
grid: {x_min: 0.0, x_max: 2.0, n_cells: 80}
initial_condition: {kind: riemann_step, u_left: 1.0, u_right: 0.25}
flux: burgers_square
boundary: periodic
noise: {kind: constant, lam: 0.3}
schemes:
  - ab
  - name: iter_after
    iterations: [1, 3]
  - name: iter_before
    iterations: 2
dt_ladder: [0.02, 0.01, 0.005]
dt_fine: 0.0025
t_end: 0.2
seeds: {base: 10, count: 5}
cfl: {mode: deterministic_only, safety: 0.8, xi_bound: 2.5}
adaptive_dt: true
blowup_threshold: 1.0e4
output_dir: out
"""


def test_empty_document_yields_the_documented_defaults():
    cfg = parse_config("")
    assert cfg.n_cells == 100
    assert cfg.ic.kind == "sine_bump"
    assert cfg.flux_kind == "burgers_half"
    assert cfg.boundary == "zero_dirichlet"
    assert cfg.noise_kind == "linear" and cfg.lam == 0.5
    assert cfg.schemes == (SchemeSpec("ab"),)
    assert cfg.dt_ladder == (0.005,)
    assert cfg.dt_fine == 0.0025
    assert cfg.t_end == 0.1
    assert len(cfg.seeds) == 50 and cfg.seeds[0] == 1
    assert cfg.safety == 0.9 and cfg.xi_bound == 3.0
    assert cfg.blowup_threshold == 1e6
    assert not cfg.adaptive_dt
    assert cfg.output_dir == "results"


def test_full_document_round_trip():
    cfg = parse_config(FULL_DOC)
    assert cfg.make_grid().n_cells == 80
    assert cfg.ic.u_right == 0.25
    assert cfg.make_flux().kind == "burgers_square"
    assert cfg.make_bc() is BoundaryKind.PERIODIC
    assert cfg.make_sigma().kind == "constant"
    assert cfg.cells() == (
        ("ab", 0), ("iter_after", 1), ("iter_after", 3), ("iter_before", 2)
    )
    assert cfg.dt_ladder == (0.02, 0.01, 0.005)
    assert cfg.seeds == tuple(range(10, 15))
    policy = cfg.make_policy()
    assert policy.mode is CflMode.DETERMINISTIC_ONLY
    assert policy.safety == 0.8 and policy.xi_bound == 2.5
    # the dt ladder entry is the one step cap: a run passes it to make_policy
    assert policy.dt_max is None
    assert not hasattr(cfg, "dt_max")
    with pytest.raises(ConfigError, match="unknown key.*dt_max"):
        parse_config(FULL_DOC.replace("xi_bound: 2.5}", "xi_bound: 2.5, dt_max: 0.04}"))
    with pytest.raises(ConfigError, match="unknown key.*dt_max"):
        parse_config("cfl: {dt_max: 0.01}")
    assert cfg.adaptive_dt
    assert cfg.blowup_threshold == 1.0e4
    # every scheme's noise increment is Milstein: there is no substep key
    assert not hasattr(cfg, "stochastic_substep")


def test_config_is_picklable():
    cfg = parse_config(FULL_DOC)
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ConfigError, match="nois"):
        parse_config("nois: {kind: linear}")
    with pytest.raises(ConfigError, match="cells"):
        parse_config("grid: {cells: 10}")
    with pytest.raises(ConfigError, match="level"):
        parse_config("noise: {kind: linear, level: 0.5}")
    with pytest.raises(ConfigError, match="courant"):
        parse_config("cfl: {courant: 0.9}")
    with pytest.raises(ConfigError, match="sweeps"):
        parse_config("schemes: [{name: iter_after, sweeps: 3}]")
    # iter_before has one form, so no key selects a variant of it
    with pytest.raises(ConfigError, match="unknown key.*inner_mode"):
        parse_config("inner_mode: whole_step")


def test_numbers_must_be_numeric():
    # YAML 1.1 tokenizes an unsigned exponent as a string; it still parses
    assert parse_config("blowup_threshold: 1e6").blowup_threshold == 1e6
    with pytest.raises(ConfigError):
        parse_config("blowup_threshold: big")
    with pytest.raises(ConfigError):
        parse_config("t_end: yes")
    with pytest.raises(ConfigError):
        parse_config("grid: {n_cells: 10.5}")


def test_a_key_given_twice_in_one_mapping_is_refused_by_name():
    # PyYAML would keep the last copy: 100 cells on [0, 2], or t_end 0.2
    for doc, key in (("grid: {n_cells: 10}\ngrid: {x_max: 2.0}", "grid"),
                     ("t_end: 0.1\nt_end: 0.2", "t_end"),
                     ("noise: {lam: 0.1, kind: linear, lam: 0.2}", "lam"),
                     ("{'seeds': [1], seeds: [2]}", "seeds")):
        with pytest.raises(ConfigError, match=rf"duplicate YAML keys \['{key}'\]"):
            parse_config(doc)
    # the same key in two mappings is no repeat
    assert parse_config("grid: {x_max: 2.0}\ncfl: {mode: combined}").x_max == 2.0


#: (code, YAML document, the field both name when they refuse the value);
#: None accepts the value, and code and YAML must then give equal configs
_CODE_AND_YAML = {
    "adaptive_dt-str": (lambda: RunConfig(adaptive_dt="false"),
                        "adaptive_dt: 'false'", "adaptive_dt"),
    "adaptive_dt-int": (lambda: RunConfig(adaptive_dt=1), "adaptive_dt: 1", "adaptive_dt"),
    "output_dir-None": (lambda: RunConfig(output_dir=None), "output_dir: null",
                        "output_dir"),
    "ic-str": (lambda: RunConfig(ic="sine_bump"), "initial_condition: sine_bump",
               "ic|initial_condition"),
    "schemes-str": (lambda: RunConfig(schemes=("ab",)), "schemes: ab", "schemes"),
    "flux_kind-list": (lambda: RunConfig(flux_kind=["x"]), "flux: [x]", "flux_kind"),
    "n_cells-fraction": (lambda: RunConfig(n_cells=10.5), "grid: {n_cells: 10.5}",
                         "n_cells"),
    # the refusal shows a string as one, not as the number it spells
    "n_cells-str": (lambda: RunConfig(n_cells="100"), "grid: {n_cells: '100'}",
                    "n_cells.*'100"),
    "seeds-fraction": (lambda: RunConfig(seeds=(1.5,)), "seeds: [1.5]", "seeds"),
    "iterations-fraction": (lambda: RunConfig(schemes=(SchemeSpec("iter_after", 2.5),)),
                            "schemes: [{name: iter_after, iterations: 2.5}]",
                            "iterations"),
    # a length that overflows to inf, or a cell width that underflows to 0
    "dx-inf": (lambda: RunConfig(x_min=-1.0e308, x_max=1.0e308, n_cells=4),
               "grid: {x_min: -1.0e308, x_max: 1.0e308, n_cells: 4}", "dx"),
    "dx-zero": (lambda: RunConfig(x_max=5.0e-324, n_cells=2),
                "grid: {x_max: 5.0e-324, n_cells: 2}", "dx"),
    # an empty list is refused, not read as the left-out default
    "iterations-empty": (lambda: RunConfig(schemes=(SchemeSpec("iter_after", []),)),
                         "schemes: [{name: iter_after, iterations: []}]", "iter_after"),
    "iterations-empty-non-iterative": (lambda: RunConfig(schemes=(SchemeSpec("ab", []),)),
                                       "schemes: [{name: ab, iterations: []}]", None),
    "n_cells-integral": (lambda: RunConfig(n_cells=100.0), "grid: {n_cells: 100.0}", None),
    "seeds-integral": (lambda: RunConfig(seeds=(1.0, 2.0)), "seeds: [1.0, 2.0]", None),
    "iterations-integral": (lambda: RunConfig(schemes=(SchemeSpec("iter_after", (2.0,)),)),
                            "schemes: [{name: iter_after, iterations: [2.0]}]", None),
    "iterations-one-count": (lambda: RunConfig(schemes=(SchemeSpec("iter_after", 2),)),
                             "schemes: [{name: iter_after, iterations: 2}]", None),
}


@pytest.mark.parametrize("case", _CODE_AND_YAML)
def test_code_and_yaml_apply_the_same_field_rules(case):
    # RunConfig and the fields' owners hold every rule of a value, so a study
    # built in code and one read from YAML accept and refuse the same values
    code, doc, field = _CODE_AND_YAML[case]
    if field is None:
        assert code() == parse_config(doc)
        return
    for build in (code, lambda: parse_config(doc)):
        with pytest.raises(ConfigError, match=rf"\b({field})\b"):
            build()


@pytest.mark.parametrize("build", [FluxFunction, NoiseAmplitude, InitialCondition,
                                   SchemeSpec, SchemeConfig, BoundaryKind.from_name,
                                   CflMode.from_name], ids=lambda build: build.__qualname__)
def test_a_kind_that_cannot_be_looked_up_is_an_unknown_kind(build):
    # errors.check_kind refuses a list or a mapping, not with a TypeError
    for bad in (["x"], {"x": 1}, None, 3):
        with pytest.raises(ConfigError, match="unknown"):
            build(bad)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "1e999"])
@pytest.mark.parametrize("doc, key", [
    ("dt_fine: {}", "dt_fine"),
    ("t_end: {}", "t_end"),
    ("dt_ladder: [0.01, {}]", "dt_ladder"),
    ("dt_ladder: {{base: {}, levels: 2}}", "dt_ladder.base"),
    ("noise: {{lam: {}}}", "noise.lam"),
    ("blowup_threshold: {}", "blowup_threshold"),
    ("cfl: {{xi_bound: {}}}", "cfl.xi_bound"),
    ("initial_condition: {{kind: constant, value: {}}}", "value"),
])
def test_non_finite_numbers_are_config_errors(doc, key, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite"):
        parse_config(doc.format(value))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_config_rejects_non_finite_alignment_values(bad):
    for kwargs in ({"dt_fine": bad}, {"t_end": bad}, {"dt_ladder": (bad,)},
                   {"dt_ladder": (0.01, bad)}):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


def test_nan_fails_the_dataclass_gates():
    with pytest.raises(ConfigError, match="dt_max"):
        CflPolicy(dt_max=math.nan)
    # as the YAML parser does, the gates refuse infinities too
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="lam"):
            NoiseAmplitude("linear", bad)
        with pytest.raises(ConfigError, match="blowup_threshold"):
            SchemeConfig("ab", blowup_threshold=bad)
        with pytest.raises(ConfigError, match="xi_bound"):
            CflPolicy(xi_bound=bad)
        for kwargs in ({"lam": bad}, {"blowup_threshold": bad}, {"xi_bound": bad}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                RunConfig(**kwargs)


def test_readme_configuration_block_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    parse_config(block)
    named = set()
    for key, value in yaml.safe_load(block).items():
        if key in config_mod._SECTIONS:
            named.update(f"{key}.{leaf}" for leaf in value)
        else:
            named.add(key)
    assert named == set(config_mod._SCALARS) | set(config_mod._STRUCTURED)


def test_dt_ladder_validation():
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: [0.005, 0.01]")
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: [0.01, 0.01]")
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: [0.01, 0.004]")  # 0.004 does not divide 0.01
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: []")
    # a non-positive entry is blamed on the ladder, not on the dt_fine
    # derived from it or on the ladder's order
    for doc in ("dt_ladder: [-0.01]", "dt_ladder: [0.0]", "dt_ladder: {levels: 1}",
                "dt_ladder: {base: -0.01, levels: 2}", "dt_ladder: [0.01, -0.005]",
                "{dt_ladder: [0.01, 0.0], dt_fine: 0.0025}"):
        with pytest.raises(ConfigError, match="dt_ladder must be positive"):
            parse_config(doc)


@pytest.mark.parametrize("dts, rule", [
    ((0.04, True, 0.01), "positive and finite, got True"),
    ((0.04, math.nan, 0.01), "positive and finite, got nan"),
    ((0.04, 0.0, 0.01), "positive and finite, got 0.0"),
    ((0.04, "0.02", 0.01), "positive and finite, got '0.02'"),
    ((0.01, 0.02, 0.04), "strictly decreasing"),
])
def test_a_study_and_an_order_fit_share_one_dt_ladder_rule(dts, rule):
    # a True dt is not 1.0, for RunConfig and fit_order alike
    with pytest.raises(ConfigError, match=rf"^dt_ladder must be {re.escape(rule)}"):
        RunConfig(dt_ladder=dts)
    with pytest.raises(ConfigError, match=rf"^dt must be {re.escape(rule)}"):
        fit_order([(dt, 1.0) for dt in dts])


def test_dt_ladder_base_levels_form():
    cfg = parse_config("{dt_ladder: {base: 0.02, levels: 3}, t_end: 0.2}")
    assert cfg.dt_ladder == (0.02, 0.01, 0.005)
    assert cfg.dt_fine == 0.0025  # half the finest level unless overridden
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: {base: 0.02, levels: 0}")


def test_a_deep_dt_ladder_is_a_config_error_not_an_overflow():
    # 2**1100 is too large for a float; such a ladder is refused by its depth
    with pytest.raises(ConfigError, match=r"^dt_ladder\.levels must be an integer"):
        parse_config("dt_ladder: {base: 0.01, levels: 1100}")
    # a base this small underflows to 0.0 one level down
    with pytest.raises(ConfigError, match="dt_ladder must be positive"):
        parse_config("dt_ladder: {base: 5.0e-324, levels: 2}")


def test_dt_ladder_levels_stop_where_the_path_cap_does(monkeypatch):
    # the coarsest dt is at most t_end and dt_fine at most the finest, so a
    # ladder of L levels draws paths of at least 2**(L - 1) steps: 24 levels
    # fit under the cap of 10**7 and 25 cannot, whatever the other keys say
    def ladder(levels):
        return {"dt_ladder": {"base": 0.01, "levels": levels}, "t_end": 0.01,
                "dt_fine": math.ldexp(0.01, 1 - levels)}

    assert len(parse_config(ladder(24)).dt_ladder) == 24
    with pytest.raises(ConfigError,
                       match=r"^dt_ladder\.levels must be an integer from 1 to 24, got 25$"):
        parse_config(ladder(25))
    # the cap is read when the ladder is parsed
    monkeypatch.setattr(noise_mod, "MAX_PATH_STEPS", 2**10)
    assert len(parse_config(ladder(11)).dt_ladder) == 11
    with pytest.raises(ConfigError, match=r"from 1 to 11, got 12$"):
        parse_config(ladder(12))


def test_path_resolution_must_divide_the_ladder():
    with pytest.raises(ConfigError):
        parse_config("{dt_ladder: [0.01], dt_fine: 0.003}")
    # half-increment schemes double the alignment quantum
    parse_config("{schemes: [bab], dt_ladder: [0.01], dt_fine: 0.0025, t_end: 0.1}")
    with pytest.raises(ConfigError):
        parse_config("{schemes: [bab], dt_ladder: [0.01], dt_fine: 0.01, t_end: 0.1}")


def test_only_bab_needs_an_even_number_of_fine_steps():
    # iter_before has one whole-step form, so at either count its dt may be
    # a single fine step; only bab reads two half-interval increments
    doc = "{{schemes: [{}], dt_ladder: [0.01], dt_fine: 0.01, t_end: 0.1}}"
    for schemes in ("ab", "aba", "{name: iter_after, iterations: [1, 3]}",
                    "{name: iter_before, iterations: [1, 2]}",
                    "{name: iter_before_trapezoid, iterations: [2]}"):
        cfg = parse_config(doc.format(schemes))
        assert all(cfg.make_scheme(*cell).quantum == 1 for cell in cfg.cells())
    with pytest.raises(ConfigError):
        parse_config(doc.format("{name: iter_before, iterations: [1, 2]}, bab"))


def test_t_end_must_be_a_multiple_of_every_dt():
    with pytest.raises(ConfigError):
        parse_config("{dt_ladder: [0.005], t_end: 0.017}")
    with pytest.raises(ConfigError):
        parse_config("t_end: -0.1")


def test_seed_validation():
    assert parse_config("seeds: [3, 1, 8]").seeds == (3, 1, 8)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seeds: [7, 7]")
    with pytest.raises(ConfigError):
        parse_config("seeds: [-1]")
    with pytest.raises(ConfigError):
        parse_config("seeds: {base: 1, count: 0}")
    with pytest.raises(ConfigError):
        parse_config("seeds: []")
    # a list of seeds is spelled as a list, not as a mapping
    with pytest.raises(ConfigError, match="unknown key.*'list'.*in seeds"):
        parse_config("seeds: {list: [5, 6]}")


def test_seeds_must_fit_the_philox_key():
    # a seed is the 128-bit Philox key: 2**128 - 1 is the largest one
    top = 2**128 - 1
    assert parse_config(f"seeds: [1, {top}]").seeds == (1, top)
    assert RunConfig(seeds=(top,)).seeds == (top,)
    with pytest.raises(ConfigError, match="below 2\\*\\*128"):
        parse_config(f"seeds: [1, {top + 1}]")
    with pytest.raises(ConfigError, match="below 2\\*\\*128"):
        parse_config(f"seeds: {{base: {top}, count: 2}}")
    # a bool is not a whole number, so True is not seed 1
    for seed in (top + 1, math.nan, math.inf, -math.inf, True, np.True_):
        with pytest.raises(ConfigError, match="below 2\\*\\*128"):
            RunConfig(seeds=(seed,))


def test_scheme_entries():
    cfg = parse_config("schemes: [{name: iter_after}]")
    assert cfg.schemes[0].iterations == (2,)  # iterative default
    with pytest.raises(ConfigError):
        parse_config("schemes: [waterfall]")
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: ab, iterations: [2]}]")
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: iter_after, iterations: [2, 2]}]")
    # a cell listed twice, in one entry or across two, would run twice and
    # write every seed's files twice under the same names
    for doc in ("schemes: [ab, ab]",
                "schemes: [{name: iter_after, iterations: [2]},"
                " {name: iter_after, iterations: 2}]"):
        with pytest.raises(ConfigError, match="duplicate scheme cells"):
            parse_config(doc)
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: iter_after, iterations: [9]}]")
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: iter_before, iterations: [3]}]")
    with pytest.raises(ConfigError):
        parse_config("schemes: []")


def test_a_left_out_count_is_the_default_and_an_empty_one_is_refused():
    # None marks a left-out count; an empty sequence is a count list with
    # no cell in it, refused for an iterative scheme whatever its type
    assert SchemeSpec("iter_after").iterations == (SchemeConfig.iterations,)
    assert SchemeSpec("iter_after", None) == SchemeSpec("iter_after")
    for name in ("iter_after", "iter_before", "iter_before_trapezoid"):
        for empty in ([], (), range(0)):
            with pytest.raises(ConfigError, match=f"scheme '{name}' takes at least one"):
                SchemeSpec(name, empty)
    # a scheme without iterations takes none, left out or empty alike
    for name in ("ab", "aba", "bab"):
        assert SchemeSpec(name, []) == SchemeSpec(name) == SchemeSpec(name, None)
        assert SchemeSpec(name, []).iterations == ()
        assert SchemeSpec(name).cells() == ((name, 0),)


def test_counts_are_gated_as_given_before_a_cell_takes_them_as_ints():
    # RunConfig builds each cell's SchemeConfig from the count as given, so
    # neither `int` nor the non-iterative cell's 0 can pass a bad count, and
    # True is not the count 1
    for bad in (2.5, 0.5, 0, -3, 9, True):
        with pytest.raises(ConfigError, match="iter_after takes iterations 1..8"):
            RunConfig(schemes=(SchemeSpec("iter_after", (bad,)),))
    cfg = RunConfig(schemes=(SchemeSpec("iter_after", (2.0,)), SchemeSpec("ab")))
    assert cfg.cells() == (("iter_after", 2), ("ab", 0))
    assert all(type(i) is int for _, i in cfg.cells())
    with pytest.raises(ConfigError, match="duplicate scheme cells"):
        RunConfig(schemes=(SchemeSpec("iter_after", (2, 2.0)),))


def _unit_state():
    return make_initial_state(SpatialGrid(0.0, 1.0, 10), InitialCondition.sine_bump())


#: field -> a call that hands `bad` to that field and valid values elsewhere
_NUMBER_GATES = {
    "lam": lambda bad: NoiseAmplitude("linear", bad),
    "blowup_threshold": lambda bad: SchemeConfig("ab", blowup_threshold=bad),
    "safety": lambda bad: CflPolicy(safety=bad),
    "xi_bound": lambda bad: CflPolicy(xi_bound=bad),
    "dt_max": lambda bad: CflPolicy(dt_max=bad),
    "x_min": lambda bad: SpatialGrid(bad, 1.0, 10),
    "x_max": lambda bad: SpatialGrid(0.0, bad, 10),
    "n_cells": lambda bad: SpatialGrid(0.0, 1.0, bad),
    "value": lambda bad: InitialCondition("constant", value=bad),
    "x_table": lambda bad: InitialCondition.table([0.0, bad, 2.0], [0.0, 1.0, 0.0]),
    "u_table": lambda bad: InitialCondition.table([0.0, 0.5, 1.0], [0.0, bad, 0.0]),
    "iterations": lambda bad: SchemeConfig("iter_after", iterations=bad),
    "dt": lambda bad: step(_unit_state(), bad, 0.0, SchemeConfig("ab")),
    "scl_step.dt": lambda bad: scl_step(_unit_state(), bad, SchemeConfig.flux,
                                        SchemeConfig.bc),
    "dt_fine": lambda bad: generate_path(1, 0.1, bad),
    "t_end": lambda bad: integrate(_unit_state(), bad, SchemeConfig("ab"),
                                   generate_path(1, 0.1, 0.01), dt=0.01),
    "t": lambda bad: exact_linear_sde(1.0, 0.5, 0.0, bad),
    "t_remaining": lambda bad: cfl_dt(_unit_state(), NoiseAmplitude(), CflPolicy(),
                                      t_remaining=bad),
    "RunConfig.t_end": lambda bad: RunConfig(t_end=bad),
    "RunConfig.seeds": lambda bad: RunConfig(seeds=(bad,)),
    "parse_config.seeds": lambda bad: parse_config({"seeds": [bad]}),
}


_NOT_NUMBERS = {"True": True, "np.True_": np.True_, "str": "1", "None": None,
                "10**400": 10**400}


# dt_max and t_remaining are optional: None is their "no cap"
@pytest.mark.parametrize("target, bad", [
    pytest.param(target, bad, id=f"{target}-{name}")
    for target in _NUMBER_GATES for name, bad in _NOT_NUMBERS.items()
    if not (bad is None and target in ("dt_max", "t_remaining"))
])
def test_every_number_gate_refuses_bools_non_numbers_and_huge_ints(target, bad):
    # errors.is_finite is the one definition of a number behind every gate:
    # a bool is not 1, a string or None is not compared (no TypeError), and
    # an int too large for a float is refused, not an OverflowError
    field = target.rpartition(".")[2]
    with pytest.raises(ConfigError, match=rf"\b{re.escape(field)}\b.*, got "):
        _NUMBER_GATES[target](bad)


def test_seeds_are_stored_as_ints(tmp_path):
    # integral float seeds name their files as the int study does
    doc = "{grid: {n_cells: 10}, dt_ladder: [0.01], dt_fine: 0.005, t_end: 0.02}"
    as_floats = dataclasses.replace(parse_config(doc), seeds=(1.0, 2.0))
    as_ints = dataclasses.replace(parse_config(doc), seeds=(1, 2))
    assert as_floats.seeds == (1, 2)
    assert all(type(s) is int for s in as_floats.seeds)
    stems = []
    for cfg, out in ((as_floats, tmp_path / "floats"), (as_ints, tmp_path / "ints")):
        emit_csv(*run_matrix(cfg)[:2], out)
        stems.append(sorted(p.name for p in (out / "profiles").iterdir()))
    assert stems[0] == stems[1] == ["ab_0.01_1.csv", "ab_0.01_2.csv"]


def test_initial_condition_parsing():
    cfg = parse_config("initial_condition: {kind: constant, value: 2.0}")
    assert cfg.ic.value == 2.0
    cfg = parse_config(
        "initial_condition: {kind: table, x: [0.0, 1.0], values: [0.0, 1.0]}"
    )
    assert cfg.ic.x_table == (0.0, 1.0)
    with pytest.raises(ConfigError):
        parse_config("initial_condition: {kind: gaussian}")
    # a key the document leaves out takes the InitialCondition field default
    assert (parse_config("initial_condition: {kind: riemann_step}").ic
            == InitialCondition("riemann_step"))
    assert InitialCondition("riemann_step").sample(SpatialGrid(0.0, 1.0, 2)).tolist() == [1.0, 0.0]
    assert (parse_config("initial_condition: {kind: constant}").ic
            == InitialCondition("constant"))
    with pytest.raises(ConfigError):
        parse_config("initial_condition: {kind: constant, width: 1.0}")


def test_document_shape_errors():
    with pytest.raises(ConfigError):
        parse_config("- a\n- b")
    with pytest.raises(ConfigError):
        parse_config("grid: [0, 1]")
    with pytest.raises(ConfigError):
        parse_config("{unbalanced: [")


@pytest.mark.parametrize("doc, message", [
    ("dt_ladder: 0.01", "dt_ladder must be a list or a {base, levels} mapping"),
    ("seeds: 5", "seeds must be a list or a {base, count} mapping"),
    ("initial_condition: {kind: table, x: 1, values: [1, 2]}",
     "table initial_condition needs 'x' and 'values' lists"),
])
def test_a_field_of_the_wrong_shape_is_refused_by_name(doc, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(doc)


def test_builders_and_cell_expansion():
    cfg = RunConfig(schemes=(SchemeSpec("iter_after", (1, 4)), SchemeSpec("bab")))
    assert cfg.cells() == (("iter_after", 1), ("iter_after", 4), ("bab", 0))
    scheme = cfg.make_scheme("bab", 0)
    assert scheme.scheme == "bab" and scheme.iterations == 1
    assert cfg.make_policy(dt_max=0.5).dt_max == 0.5
    state = cfg.make_state()
    assert state.grid.n_cells == 100 and state.time == 0.0


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(FULL_DOC)
    assert parse_config_file(p) == parse_config(FULL_DOC)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.yaml")
