"""Command line interface: subcommands, exit codes, and output routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitburg
import splitburg.runner as runner_mod
from splitburg.cli import OUT_ENV_VAR, main

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


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 1
    assert "config error" in capsys.readouterr().err


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
    monkeypatch.chdir(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert main(["run", config_file, "--quiet"]) == 0
    assert (env_dir / "summary.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["run", config_file, "--quiet", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "summary.csv").exists()

    monkeypatch.delenv(OUT_ENV_VAR)
    assert main(["run", config_file, "--quiet"]) == 0
    assert (tmp_path / "results" / "summary.csv").exists()  # config default


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


def test_unstable_dt_is_reported_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("{dt_ladder: [0.02], dt_fine: 0.01, t_end: 0.1}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "noise-free baseline" in capsys.readouterr().err


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


def test_importing_the_cli_loads_no_scipy_stats():
    # scipy.stats serves only analysis.fit_order and is most of the start-up
    done = run_python("-c", "import sys, splitburg.cli; "
                            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
