"""Run-configuration parsing, defaults, and cross-field validation."""

import math
import pickle
import re
from pathlib import Path

import pytest
import yaml

import splitburg.config as config_mod
from splitburg import (
    BoundaryKind,
    CflMode,
    CflPolicy,
    ConfigError,
    NoiseAmplitude,
    RunConfig,
    SchemeConfig,
    SchemeSpec,
    detect_blowup,
    parse_config,
    parse_config_file,
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
stochastic_substep: em
inner_mode: whole_step
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
    assert cfg.stochastic_substep == "em"


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


def test_numbers_must_be_numeric():
    # YAML 1.1 tokenizes an unsigned exponent as a string; it still parses
    assert parse_config("blowup_threshold: 1e6").blowup_threshold == 1e6
    with pytest.raises(ConfigError):
        parse_config("blowup_threshold: big")
    with pytest.raises(ConfigError):
        parse_config("t_end: yes")
    with pytest.raises(ConfigError):
        parse_config("grid: {n_cells: 10.5}")


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
    nan = math.nan
    with pytest.raises(ConfigError, match="lam"):
        NoiseAmplitude("linear", nan)
    with pytest.raises(ConfigError, match="blowup_threshold"):
        SchemeConfig("ab", blowup_threshold=nan)
    with pytest.raises(ConfigError, match="xi_bound"):
        CflPolicy(xi_bound=nan)
    with pytest.raises(ConfigError, match="dt_max"):
        CflPolicy(dt_max=nan)
    with pytest.raises(ConfigError, match="threshold"):
        detect_blowup(RunConfig().make_state(), threshold=nan)
    for kwargs in ({"lam": nan}, {"blowup_threshold": nan}, {"xi_bound": nan}):
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
        parse_config("dt_ladder: [-0.01]")
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: []")


def test_dt_ladder_base_levels_form():
    cfg = parse_config("{dt_ladder: {base: 0.02, levels: 3}, t_end: 0.2}")
    assert cfg.dt_ladder == (0.02, 0.01, 0.005)
    assert cfg.dt_fine == 0.0025  # half the finest level unless overridden
    with pytest.raises(ConfigError):
        parse_config("dt_ladder: {base: 0.02, levels: 0}")


def test_path_resolution_must_divide_the_ladder():
    with pytest.raises(ConfigError):
        parse_config("{dt_ladder: [0.01], dt_fine: 0.003}")
    # half-increment schemes double the alignment quantum
    parse_config("{schemes: [bab], dt_ladder: [0.01], dt_fine: 0.0025, t_end: 0.1}")
    with pytest.raises(ConfigError):
        parse_config("{schemes: [bab], dt_ladder: [0.01], dt_fine: 0.01, t_end: 0.1}")


def test_t_end_must_be_a_multiple_of_every_dt():
    with pytest.raises(ConfigError):
        parse_config("{dt_ladder: [0.005], t_end: 0.017}")
    with pytest.raises(ConfigError):
        parse_config("t_end: -0.1")


def test_seed_validation():
    assert parse_config("seeds: [3, 1, 8]").seeds == (3, 1, 8)
    assert parse_config("seeds: {list: [5, 6]}").seeds == (5, 6)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seeds: [7, 7]")
    with pytest.raises(ConfigError):
        parse_config("seeds: [-1]")
    with pytest.raises(ConfigError):
        parse_config("seeds: {base: 1, count: 0}")
    with pytest.raises(ConfigError):
        parse_config("seeds: []")


def test_seeds_must_fit_the_philox_key():
    # a seed is the 128-bit Philox key: 2**128 - 1 is the largest one
    top = 2**128 - 1
    assert parse_config(f"seeds: [1, {top}]").seeds == (1, top)
    assert RunConfig(seeds=(top,)).seeds == (top,)
    with pytest.raises(ConfigError, match="below 2\\*\\*128"):
        parse_config(f"seeds: [1, {top + 1}]")
    with pytest.raises(ConfigError, match="below 2\\*\\*128"):
        parse_config(f"seeds: {{base: {top}, count: 2}}")
    for seed in (top + 1, math.nan, math.inf, -math.inf):
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
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: iter_after, iterations: [9]}]")
    with pytest.raises(ConfigError):
        parse_config("schemes: [{name: iter_before, iterations: [3]}]")
    with pytest.raises(ConfigError):
        parse_config("schemes: []")


def test_initial_condition_parsing():
    cfg = parse_config("initial_condition: {kind: constant, value: 2.0}")
    assert cfg.ic.value == 2.0
    cfg = parse_config(
        "initial_condition: {kind: table, x: [0.0, 1.0], values: [0.0, 1.0]}"
    )
    assert cfg.ic.x_table == (0.0, 1.0)
    with pytest.raises(ConfigError):
        parse_config("initial_condition: {kind: gaussian}")
    with pytest.raises(ConfigError):
        parse_config("initial_condition: {kind: constant, width: 1.0}")


def test_document_shape_errors():
    with pytest.raises(ConfigError):
        parse_config("- a\n- b")
    with pytest.raises(ConfigError):
        parse_config("grid: [0, 1]")
    with pytest.raises(ConfigError):
        parse_config("{unbalanced: [")


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
