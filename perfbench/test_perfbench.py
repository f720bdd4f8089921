"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

They run every workload once at --seconds 0 (one run of each kind), so they
take a couple of minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "correctness: pass (pinned digests)" in done.stdout
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
        assert f"\n{m['name']} " in done.stdout


def tiny_outputs(tmp_path: Path) -> Path:
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        "grid: {n_cells: 20}\n"
        "schemes: [ab, {name: iter_after, iterations: [2]}]\n"
        "dt_ladder: {base: 0.01, levels: 1}\nt_end: 0.05\n"
        "seeds: {base: 1, count: 3}\n"
    )
    out = tmp_path / "out"
    done = run.run_cli(["run", str(cfg), "--out", str(out)], tmp_path)
    assert done["code"] == 0, done["stderr"]
    assert done["setup_s"] > 0 and done["maxrss_kib"] > 0
    return out


def flip_last_digit(path: Path, column: int | None = None) -> None:
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    i = -1 if column is None else column
    fields[i] = fields[i][:-1] + ("1" if fields[i][-1] != "1" else "2")
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_a_corrupted_output_fails_the_gate(tmp_path):
    out = tiny_outputs(tmp_path)
    good = run.output_digests(out)
    assert run.gate([good, good], None) == [True, True]

    # wall_time is the one column allowed to differ
    flip_last_digit(out / "summary.csv")
    assert run.output_digests(out) == good

    for target, column in ((out / "summary.csv", 7),
                           (next((out / "profiles").iterdir()), None),
                           (next((out / "residuals").iterdir()), None)):
        saved = target.read_text()
        flip_last_digit(target, column)
        bad = run.output_digests(out)
        assert run.gate([good, bad], None) == [True, False]
        assert run.gate([bad], good) == [False]
        assert run.gate([good, None], None) == [True, False]
        target.write_text(saved)
    assert run.output_digests(out) == good


@pytest.mark.parametrize("trace", ["0", "1"])
def test_an_unpinned_seed_passes_through_the_cross_run_checks(trace):
    assert json.loads(run.PINS.read_text())["digests"]["wide_mesh"].get("1000") is None
    done = bench("--workload", "wide_mesh", "--seed", "1000", "--seconds", "0",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    assert last_json(done.stdout)["correct"]
    assert "no pinned digests for this seed and numerics; cross-run checks only" in done.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "ensemble", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
