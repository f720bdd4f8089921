"""Command line interface: subcommands, exit codes, and output routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitburg
import splitburg.cli as cli_mod
import splitburg.noise as noise_mod
import splitburg.runner as runner_mod
from splitburg.cli import main
from splitburg.noise import generate_path

QUICK_DOC = """
grid: {n_cells: 40}
noise: {kind: linear, lam: 0.4}
schemes: [ab, {name: iter_after, iterations: [2]}]
dt_ladder: [0.01]
dt_fine: 0.005
t_end: 0.05
seeds: [1, 2]
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(QUICK_DOC)
    return str(path)


def read_summary_minus_wall(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_validate_reports_matrix_shape(config_file, capsys):
    assert main(["validate", config_file]) == 0
    out = capsys.readouterr().out
    assert "configuration OK" in out
    assert "2 scheme cell(s) x 1 dt level(s) x 2 seed(s)" in out


def test_validate_rejects_a_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dt_ladder: [0.01, 0.02]\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")


def test_validate_rejects_a_non_finite_number_without_a_traceback(tmp_path, capsys):
    bad = tmp_path / "nan.yaml"
    bad.write_text("dt_fine: .nan\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dt_fine must be finite")
    assert "Traceback" not in err


#: the benchmark's workload files and the matrix shape their header comments
#: state; a config-schema change they depend on fails here, not first in the
#: benchmark
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
WORKLOAD_SHAPES = {
    "ensemble": (10, 3, 50),
    "wide_mesh": (3, 2, 4),
    "adaptive": (4, 2, 10),
}


def test_the_benchmark_workloads_validate_with_their_stated_shapes(capsys):
    files = sorted(WORKLOADS.glob("*.yaml"))
    assert {f.stem for f in files} == set(WORKLOAD_SHAPES)
    for path in files:
        cells, levels, seeds = WORKLOAD_SHAPES[path.stem]
        assert main(["validate", str(path)]) == 0, path.stem
        out = capsys.readouterr().out
        assert out == (f"configuration OK: {cells} scheme cell(s) x {levels} dt "
                       f"level(s) x {seeds} seed(s)\n"), path.stem


def test_validate_rejects_a_mesh_whose_length_overflows(tmp_path, capsys):
    bad = tmp_path / "wide.yaml"
    bad.write_text("grid: {x_min: -1.0e308, x_max: 1.0e308, n_cells: 4}\n")
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: dx must be positive and finite")
    assert "configuration OK" not in captured.out


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(QUICK_DOC.encode() + b"# caf\xe9 \xff\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {bad} is not UTF-8 text")
    assert "Traceback" not in err


def test_run_writes_outputs_and_reports(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", config_file, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'summary.csv'} with 2 row(s)" in stdout
    assert "total integrated steps: 20" in stdout
    assert (out / "summary.csv").exists()
    assert len(list((out / "profiles").iterdir())) == 4
    assert len(list((out / "residuals").iterdir())) == 2


def test_quiet_suppresses_the_report(config_file, tmp_path, capsys):
    assert main(["run", config_file, "--quiet", "--out", str(tmp_path / "q")]) == 0
    assert capsys.readouterr().out == ""


def test_output_dir_precedence(config_file, tmp_path, monkeypatch):
    # --out, else the config's output_dir: the removed SPLITBURG_OUT
    # environment variable chooses nothing
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPLITBURG_OUT", str(tmp_path / "from_env"))
    flag_dir = tmp_path / "from_flag"
    assert main(["run", config_file, "--quiet", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "summary.csv").exists()

    assert main(["run", config_file, "--quiet"]) == 0
    assert (tmp_path / "results" / "summary.csv").exists()  # config default
    assert not (tmp_path / "from_env").exists()


@pytest.mark.parametrize("argv", [
    ["run", "{cfg}", "--jobs", "x"], ["run", "{cfg}", "--jobs", "2.0"],
    ["run", "{cfg}", "--bogus"], ["run"], ["bogus", "{cfg}"], [],
])
def test_usage_errors_exit_1(argv, config_file, tmp_path, monkeypatch, capsys):
    # 2 is reserved for a runtime failure in a cell
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(cfg=config_file) for arg in argv]) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["validate", "-h"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_python_dash_m_exits_1_on_a_usage_error(config_file):
    done = run_module("splitburg", "run", config_file, "--jobs", "x")
    assert done.returncode == 1
    assert "invalid int value" in done.stderr


def test_cell_failure_exits_2_but_still_writes(config_file, tmp_path,
                                               monkeypatch, capsys):
    real = runner_mod._run_cell

    def flaky(task):
        if task[4] == 1 and task[1] == "ab":
            raise RuntimeError("boom")
        return real(task)

    monkeypatch.setattr(runner_mod, "_run_cell", flaky)
    out = tmp_path / "partial"
    assert main(["run", config_file, "--quiet", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cell failure: ab dt=0.01 seed=1: RuntimeError: boom" in err
    assert (out / "summary.csv").exists()


EVERY_CELL_FAILS = {
    # each task asks for a path of 10^3 increments, over the cap of 100 the
    # test draws paths under (a study over the real cap is a config error)
    "resource_limit": ("schemes: [ab]\ndt_fine: 1.0e-4\nt_end: 0.1\n", [
        "cell failure: ab dt=0.01 seed=1: ResourceLimit: path of 1000 "
        "increments exceeds the cap of 100",
        "cell failure: ab dt=0.01 seed=2: ResourceLimit: path of 1000 "
        "increments exceeds the cap of 100",
        "cell without usable samples: ab dt=0.01: every worker task failed",
    ]),
    # every seed blows up
    "blowup": ("schemes: [ab, aba]\nnoise: {kind: linear, lam: 80.0}\n"
               "blowup_threshold: 1.01\nt_end: 0.05\n", [
        "cell without usable samples: ab dt=0.01: no usable samples: "
        "every trajectory blew up",
        "cell without usable samples: aba dt=0.01: no usable samples: "
        "every trajectory blew up",
    ]),
}


@pytest.mark.parametrize("study", sorted(EVERY_CELL_FAILS))
def test_a_run_where_every_cell_fails_says_why_and_writes_no_summary(
        study, tmp_path, capsys, monkeypatch):
    doc, expected = EVERY_CELL_FAILS[study]

    def capped(*args):
        # the cap is lowered only around the draw, so the study still validates
        with monkeypatch.context() as patch:
            patch.setattr(noise_mod, "MAX_PATH_STEPS", 100)
            return generate_path(*args)

    monkeypatch.setattr(runner_mod, "generate_path", capped)
    cfg = tmp_path / "fails.yaml"
    cfg.write_text("grid: {n_cells: 20}\ndt_ladder: [0.01]\nseeds: [1, 2]\n" + doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == expected + [
        "run failed: ValueError: no result rows to write"]
    assert captured.out == ""
    assert not (out / "summary.csv").exists()


def test_a_path_over_the_cap_is_a_config_error_for_validate_and_run(
        tmp_path, capsys, monkeypatch):
    # 10^8 fine increments a seed: no task could draw its path, so the study
    # is refused before any baseline or task runs
    calls = []
    monkeypatch.setattr(cli_mod, "reference_endpoint", lambda *a: calls.append(a))
    monkeypatch.setattr(cli_mod, "run_matrix", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "long.yaml"
    cfg.write_text("dt_ladder: [0.001]\ndt_fine: 1.0e-9\nt_end: 0.1\n")
    out = tmp_path / "x"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("config error: path of 100000000 increments "
                                "exceeds the cap of 10000000\n")
        assert not captured.out
    assert not calls and not out.exists()


def test_validate_reports_any_other_failure_as_run_does(config_file, monkeypatch,
                                                        capsys):
    # a baseline on a mesh too large to allocate raises MemoryError; validate
    # reports it in one line and exits 2, as run does, with no traceback
    def too_large(cfg, dt):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli_mod, "reference_endpoint", too_large)
    assert main(["validate", config_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == "validate failed: MemoryError: Unable to allocate 7.28 TiB\n"
    assert not captured.out


def test_unstable_dt_is_reported_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("{dt_ladder: [0.02], dt_fine: 0.01, t_end: 0.1}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "noise-free baseline" in capsys.readouterr().err
    # validate builds the same baselines, so it refuses what run refuses
    assert main(["validate", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "noise-free baseline" in captured.err and not captured.out


@pytest.mark.parametrize("key, value", [
    # selected iter_before's removed half-step variant
    ("inner_mode", "whole_step"),
    # switched ab, aba, bab and the aba companion to Euler-Maruyama
    ("stochastic_substep", "em"),
])
def test_a_removed_key_is_unknown_for_validate_and_run(key, value, tmp_path, capsys):
    # a key that selected a removed scheme variant is refused by name,
    # before anything runs or is written
    cfg = tmp_path / "old.yaml"
    cfg.write_text(QUICK_DOC + f"{key}: {value}\n")
    out = tmp_path / "x"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert key in captured.err and "Traceback" not in captured.err
        assert not captured.out
    assert not out.exists()


def snapshot(out):
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_rerun_into_the_same_out_leaves_no_stale_csvs(config_file, tmp_path, jobs):
    out = tmp_path / "out"
    assert main(["run", config_file, "--quiet", "--out", str(out)]) == 0
    one_seed = tmp_path / "one_seed.yaml"
    one_seed.write_text(QUICK_DOC.replace("seeds: [1, 2]", "seeds: [1]"))
    assert main(["run", str(one_seed), "--quiet", "--out", str(out),
                 "--jobs", jobs]) == 0
    assert sorted(str(p) for p in snapshot(out)) == [
        "profiles/ab_0.01_1.csv", "profiles/iter_after2_0.01_1.csv",
        "residuals/iter_after2_0.01_1.csv", "summary.csv",
    ]


def test_a_run_that_fails_before_its_first_outcome_leaves_out_untouched(
        config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", config_file, "--quiet", "--out", str(out)]) == 0
    before = snapshot(out)
    unstable = tmp_path / "fast.yaml"
    unstable.write_text("{dt_ladder: [0.02], dt_fine: 0.01, t_end: 0.1}\n")
    assert main(["run", str(unstable), "--out", str(out)]) == 1
    assert "noise-free baseline" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_summary_comes_last_and_never_beside_another_runs_files(
        config_file, tmp_path, monkeypatch, capsys, jobs):
    out = tmp_path / "out"
    assert main(["run", config_file, "--quiet", "--out", str(out)]) == 0
    real = cli_mod.run_matrix
    summary_after_write = []

    def watched(cfg, jobs=1, on_outcome=None):
        def check(outcome):
            on_outcome(outcome)
            summary_after_write.append((out / "summary.csv").exists())
        return real(cfg, jobs=jobs, on_outcome=check)

    monkeypatch.setattr(cli_mod, "run_matrix", watched)
    assert main(["run", config_file, "--quiet", "--out", str(out),
                 "--jobs", jobs]) == 0
    assert summary_after_write == [False] * 4
    summary_ns = (out / "summary.csv").stat().st_mtime_ns
    assert all(p.stat().st_mtime_ns <= summary_ns
               for p in out.rglob("*.csv") if p.name != "summary.csv")

    def fails_after_one_outcome(cfg, jobs=1, on_outcome=None):
        written = []

        def once(outcome):
            if written:
                raise RuntimeError("interrupted")
            written.append(outcome)
            on_outcome(outcome)
        return real(cfg, jobs=jobs, on_outcome=once)

    monkeypatch.setattr(cli_mod, "run_matrix", fails_after_one_outcome)
    capsys.readouterr()
    assert main(["run", config_file, "--quiet", "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "run failed: RuntimeError: interrupted" in capsys.readouterr().err
    # one seed's files were written; none of the earlier run's remain
    assert 1 <= len(snapshot(out)) <= 2
    assert not (out / "summary.csv").exists()


def test_summary_is_byte_identical_across_jobs(config_file, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", config_file, "--quiet", "--out", str(a)]) == 0
    assert main(["run", config_file, "--quiet", "--out", str(b), "--jobs", "2"]) == 0
    assert read_summary_minus_wall(a / "summary.csv") == \
        read_summary_minus_wall(b / "summary.csv")
    for sub in ("profiles", "residuals"):
        for fa in sorted((a / sub).iterdir()):
            assert fa.read_bytes() == (b / sub / fa.name).read_bytes()


def run_python(*args):
    """A fresh interpreter with this package on its path."""
    src = str(Path(splitburg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def run_module(module, *args):
    return run_python("-m", module, *args)


@pytest.mark.parametrize("module", ["splitburg", "splitburg.cli"])
def test_python_dash_m_runs_the_cli(module, config_file, tmp_path):
    out = tmp_path / "out"
    done = run_module(module, "run", config_file, "--quiet", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "summary.csv").exists()


def test_python_dash_m_exits_1_on_a_bad_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dt_ladder: [0.01, 0.02]\n")
    done = run_module("splitburg", "run", str(bad), "--out", str(tmp_path / "x"))
    assert done.returncode == 1
    assert done.stderr.startswith("config error:")


def test_every_exported_name_resolves_once():
    names = splitburg.__all__
    assert [name for name in names if not hasattr(splitburg, name)] == []
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from splitburg import *", namespace)  # a stale name fails here
    assert set(names) <= set(namespace)


def test_importing_the_cli_loads_no_scipy_stats():
    # scipy.stats serves only analysis.fit_order and is most of the start-up
    done = run_python("-c", "import sys, splitburg.cli; "
                            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_scipy(config_file, tmp_path):
    # the inverse normal CDF and the Philox generator are in-package, so
    # neither scipy nor numpy.random is loaded, not even by a run
    done = run_python("-c", f"""
import sys
import splitburg.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "numpy.random" or m.startswith("numpy.random."))

print(loaded())
code = splitburg.cli.main(["run", {config_file!r}, "--jobs", "1", "--quiet",
                           "--out", {str(tmp_path / "out")!r}])
print(code, loaded())
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "0 []"]


def test_a_run_needs_only_numpy_and_pyyaml(config_file, tmp_path):
    # the declared runtime dependencies: a finder that refuses scipy and
    # numpy.random stands in for an environment that lacks them
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    done = run_python("-c", f"""
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if (name.split(".")[0] == "scipy" or name == "numpy.random"
                or name.startswith("numpy.random.")):
            raise ImportError(f"{{name}} is not available")
        return None

sys.meta_path.insert(0, Refuse())
from splitburg import emit_csv, parse_config_file, run_matrix

rows, archive, stats = run_matrix(parse_config_file({config_file!r}), jobs=1)
assert stats.clean, stats
print(emit_csv(rows, archive, {str(blocked)!r}).name)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "summary.csv"
    assert main(["run", config_file, "--quiet", "--out", str(free)]) == 0
    for sub in ("profiles", "residuals"):
        names = sorted(f.name for f in (free / sub).iterdir())
        assert sorted(f.name for f in (blocked / sub).iterdir()) == names
        for name in names:
            assert (blocked / sub / name).read_bytes() == (free / sub / name).read_bytes()
    assert (read_summary_minus_wall(blocked / "summary.csv")
            == read_summary_minus_wall(free / "summary.csv"))


def test_a_jobs_1_run_loads_no_process_pool():
    # the pool serves only --jobs > 1, so it is imported there
    done = run_python("-c", """
import sys
import splitburg.cli
from splitburg import parse_config, run_matrix

def pool_modules():
    return sorted(m for m in sys.modules
                  if m == "concurrent.futures.process"
                  or m.split(".")[0] == "multiprocessing")

print(pool_modules())
run_matrix(parse_config("{schemes: [ab], dt_ladder: [0.01], dt_fine: 0.005,"
                        " t_end: 0.05, seeds: [1, 2], grid: {n_cells: 20}}"), jobs=1)
print(pool_modules())
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]
