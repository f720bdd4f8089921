"""Golden outputs: tiny studies whose written files must not change by a bit.

Each study goes through `run_matrix` + `emit_csv` at --jobs 1 and at --jobs 2,
and the sha256 digests of summary.csv (without wall_time), profiles/ and
residuals/ are compared with the same pinned values.  Together the studies run all six schemes, both
stochastic substeps, both inner modes, fixed and adaptive steps, both
boundary kinds and both noise kinds.

The last bits of the outputs depend on the numpy and scipy builds and on the
SIMD targets numpy dispatches to, so the pins hold only under the numerics
they were made with.  Re-pin (only for a change meant to alter the outputs)
with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.metadata
import tempfile
from pathlib import Path

import numpy as np
import pytest

from splitburg import emit_csv, parse_config, run_matrix

ALL_SCHEMES = """
schemes:
  - ab
  - aba
  - bab
  - {name: iter_after, iterations: [1, 3]}
  - {name: iter_before, iterations: [1, 2]}
  - {name: iter_before_trapezoid, iterations: [2, 3]}
"""

STUDIES = {
    "milstein_whole_step_dirichlet_linear": ALL_SCHEMES + """
grid: {n_cells: 24}
noise: {kind: linear, lam: 0.5}
dt_ladder: [0.01, 0.005]
dt_fine: 0.0025
t_end: 0.05
seeds: [3, 4]
""",
    "em_half_steps_periodic_constant": ALL_SCHEMES + """
grid: {n_cells: 24}
boundary: periodic
noise: {kind: constant, lam: 0.3}
stochastic_substep: em
inner_mode: half_steps
dt_ladder: [0.01, 0.005]
dt_fine: 0.0025
t_end: 0.05
seeds: [5, 6]
""",
    "adaptive_milstein_half_steps": ALL_SCHEMES + """
grid: {n_cells: 24}
noise: {kind: linear, lam: 0.5}
inner_mode: half_steps
adaptive_dt: true
cfl: {mode: combined, safety: 0.9, xi_bound: 3.0}
dt_ladder: [0.01, 0.005]
dt_fine: 0.0005
t_end: 0.03
seeds: [7]
""",
    "adaptive_em_whole_step_periodic": ALL_SCHEMES + """
grid: {n_cells: 48}
boundary: periodic
initial_condition: {kind: riemann_step, u_left: 3.0, u_right: 0.1}
noise: {kind: linear, lam: 0.4}
stochastic_substep: em
adaptive_dt: true
cfl: {mode: deterministic_only, safety: 0.5}
dt_ladder: [0.006]
dt_fine: 0.0001
t_end: 0.03
seeds: [8, 9]
""",
}

NUMERICS = "numpy 2.4.6, scipy 1.17.1, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

GOLDEN = {
    "adaptive_em_whole_step_periodic": {
        "summary.csv": "871de25f700afa6f8abd2ed983dd66d397c7b952ece1877135018064fa73ca7a",
        "profiles": "1c271e5ad57e4f67e811f813159f50894b7f8bef9ed2abea2a7c068e71305c47",
        "residuals": "f2d862e8d662d66775f95bd1ae32e0b8b8e9a19738082bcacfa3fa9e00943c73",
    },
    "adaptive_milstein_half_steps": {
        "summary.csv": "5498fb453656d02d861950e38e622810c2eb1059a8e2835395da572d83bcfba8",
        "profiles": "b91c37cd5841a10b4097ac7b5f44f32968be4a3bc2ada045e04c609856ba8132",
        "residuals": "6937f4b1278a9b31f0df78064198dd60ea5bfc0e302bfa8df13a40b05429151a",
    },
    "em_half_steps_periodic_constant": {
        "summary.csv": "f813a042051a44f1d5da12bbff611f8edd3e8ed0f34e93935de9d865ff248c1d",
        "profiles": "93001cefddb297b9763e34068b4a95915731a14f75beb76c8af0026c1550046b",
        "residuals": "c5386cd7362e781b848363b6bf94fa921d1d86c8a0380a459eda9d6c1ac5c4b7",
    },
    "milstein_whole_step_dirichlet_linear": {
        "summary.csv": "99336bc0af8dc2d655ba955911b40c9654527cf8281a589c86cdf9ad5e7f2478",
        "profiles": "272c6bfa9e50b67d3fad89c1e615a7dd2ce0e61443ee1bb2429ab24c684466ec",
        "residuals": "8a4b399f03e8dd313733c9bb977ba9ccbf0b0acf9f864e1cb8b7827597b7cfe2",
    },
}


def numerics() -> str:
    """numpy and scipy versions and the SIMD targets numpy dispatches to."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return (f"numpy {np.__version__}, "
            f"scipy {importlib.metadata.version('scipy')}, SIMD {simd}")


def output_digests(out: Path) -> dict:
    """sha256 of summary.csv without its wall_time column, and of the names
    and bytes of every file in profiles/ and residuals/."""
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].endswith(",wall_time")
    summary = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    digests = {"summary.csv": hashlib.sha256(summary.encode()).hexdigest()}
    for sub in ("profiles", "residuals"):
        h = hashlib.sha256()
        for f in sorted((out / sub).iterdir()):
            h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
        digests[sub] = h.hexdigest()
    return digests


def study_digests(doc: str, out: Path, jobs: int = 1) -> dict:
    rows, archive, stats = run_matrix(parse_config(doc), jobs=jobs)
    emit_csv(rows, archive, out)
    return output_digests(out)


@pytest.mark.parametrize("name, jobs", [
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
    for jobs in (1, 2) for name in sorted(STUDIES)
])
def test_outputs_match_the_golden_digests(name, jobs, tmp_path):
    if numerics() != NUMERICS:
        pytest.skip(f"digests pinned under {NUMERICS}, running {numerics()}")
    assert study_digests(STUDIES[name], tmp_path, jobs) == GOLDEN[name]


if __name__ == "__main__":
    print(f'NUMERICS = "{numerics()}"\n')
    print("GOLDEN = {")
    for name in sorted(STUDIES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = study_digests(STUDIES[name], Path(tmp))
        print(f'    "{name}": {{')
        for key, value in digests.items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
