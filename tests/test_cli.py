"""Command line interface: subcommands, exit codes, and output routing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitburg
import splitburg.cli as cli_mod
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


def test_validate_rejects_a_non_finite_number_without_a_traceback(tmp_path, capsys):
    bad = tmp_path / "nan.yaml"
    bad.write_text("dt_fine: .nan\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dt_fine must be finite")
    assert "Traceback" not in err


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


EVERY_CELL_FAILS = {
    # each task asks for a path of 10^8 increments, over the cap
    "resource_limit": ("schemes: [ab]\ndt_fine: 1.0e-9\nt_end: 0.1\n", [
        "cell failure: ab dt=0.01 seed=1: ResourceLimit: path of 100000000 "
        "increments exceeds the cap of 10000000",
        "cell failure: ab dt=0.01 seed=2: ResourceLimit: path of 100000000 "
        "increments exceeds the cap of 10000000",
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
        study, tmp_path, capsys):
    doc, expected = EVERY_CELL_FAILS[study]
    cfg = tmp_path / "fails.yaml"
    cfg.write_text("grid: {n_cells: 20}\ndt_ladder: [0.01]\nseeds: [1, 2]\n" + doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == expected + [
        "run failed: ValueError: no result rows to write"]
    assert captured.out == ""
    assert not (out / "summary.csv").exists()


def test_unstable_dt_is_reported_as_config_error(tmp_path, capsys):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("{dt_ladder: [0.02], dt_fine: 0.01, t_end: 0.1}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "noise-free baseline" in capsys.readouterr().err


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
