"""The argv that tools/ab_pairs.py builds for each checkout's run.py, how it
reports every pair's values, and how it reports a run that failed."""

import importlib.util
import json
import os
import signal
import subprocess
import time
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

SPEC = {"end_to_end": [{"name": "study_s", "better": "lower", "bound": 0.25}]}


@pytest.mark.parametrize("extra, seconds", [([], "0.0"), (["--seconds", "12.5"], "12.5")])
def test_each_run_gets_the_workload_seed_and_run_length(extra, seconds, tmp_path,
                                                        monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(SPEC))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv[1:], Path(cwd), kwargs["timeout"]))
        line = {"correct": True, "metrics": {"study_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(ab_pairs, "_run", fake_run)
    assert ab_pairs.main([str(parent), str(change), "--workload", "adaptive",
                          "--seed", "3", "--pairs", "2", *extra]) == 0
    argv = ["perfbench/run.py", "--workload", "adaptive", "--seed", "3",
            "--seconds", seconds, "--trace", "0"]
    timeout = ab_pairs.RUN_TIMEOUT_S + float(seconds)
    # which side runs first alternates from pair to pair
    assert calls == [(argv, parent, timeout), (argv, change, timeout),
                     (argv, change, timeout), (argv, parent, timeout)]
    assert "2 of 2 pairs ok" in capsys.readouterr().out


@pytest.mark.parametrize("code, stdout, stderr, why", [
    (2, "", "Traceback ...\nValueError: no rows\n",
     "no JSON line, exit 2, last stderr line 'ValueError: no rows'"),
    (1, json.dumps({"correct": False, "metrics": {}}) + "\n", "",
     "not correct, exit 1, no stderr"),
])
def test_a_failed_pair_names_the_side_its_exit_code_and_last_stderr_line(
        code, stdout, stderr, why, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def fake_run(argv, cwd, **kwargs):
        if Path(cwd) == parent:
            line = {"correct": True, "metrics": {"study_s": {"value": 1.0}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n",
                                               stderr="")
        return subprocess.CompletedProcess(argv, code, stdout=stdout, stderr=stderr)

    monkeypatch.setattr(ab_pairs, "_run", fake_run)
    assert ab_pairs.main([str(parent), str(change), "--workload", "adaptive",
                          "--seed", "1", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert f"pair 1/1 (parent first): FAILED, change: {why}\n" in out
    assert "0 of 1 pairs ok" in out


def test_a_run_that_times_out_fails_its_pair_and_the_next_pairs_still_run(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(SPEC))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append(Path(cwd))
        if len(calls) == 2:  # the change's run of pair 1 hangs
            raise subprocess.TimeoutExpired(argv, kwargs["timeout"])
        line = {"correct": True, "metrics": {"study_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(ab_pairs, "_run", fake_run)
    assert ab_pairs.main([str(parent), str(change), "--workload", "adaptive",
                          "--seed", "1", "--pairs", "2", "--seconds", "5"]) == 1
    out = capsys.readouterr().out
    limit = ab_pairs.RUN_TIMEOUT_S + 5
    assert (f"pair 1/2 (parent first): FAILED, change: timed out after {limit} s\n"
            in out)
    assert "pair 2/2 (change first): ok\n" in out
    assert "1 of 2 pairs ok" in out
    assert len(calls) == 4


def test_each_good_pair_prints_both_sides_value_of_every_metric(tmp_path, monkeypatch,
                                                                capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    spec = {"end_to_end": [*SPEC["end_to_end"],
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}
    (parent / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = iter([2.0, 1.5, 1.25, 3.0])  # parent, change; then change, parent

    def fake_run(argv, cwd, **kwargs):
        metrics = {"study_s": {"value": next(runs)}}
        if Path(cwd) == parent:
            metrics["peak_rss_mb"] = {"value": 38.25}
        line = {"correct": True, "metrics": metrics}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(ab_pairs, "_run", fake_run)
    assert ab_pairs.main([str(parent), str(change), "--workload", "ensemble",
                          "--seed", "1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    study = "  study_s            parent {:>12} change {:>12}\n"
    rss = "  peak_rss_mb        parent {:>12} change {:>12}\n"
    assert ("pair 1/2 (parent first): ok\n" + study.format("2", "1.5")
            + rss.format("38.25", "n/a")
            + "pair 2/2 (change first): ok\n" + study.format("3", "1.25")
            + rss.format("38.25", "n/a")) in out


_HANGING_RUN = """
import subprocess, sys, time
# a CLI study in a session of its own, with a pool worker, as run.py starts it
study = "import os, subprocess, sys, time\\n" \\
        "worker = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\\n" \\
        "open('pids.txt', 'w').write(f'{os.getpid()} {worker.pid}')\\n" \\
        "time.sleep(60)\\n"
subprocess.Popen([sys.executable, "-c", study], start_new_session=True)
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    # a killed process whose new parent has not reaped it yet is a zombie
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux's /proc")
def test_a_timed_out_run_is_killed_with_its_study_and_pool_workers(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_HANGING_RUN)
    monkeypatch.setattr(ab_pairs, "RUN_TIMEOUT_S", 3)
    pids = []
    try:
        assert ab_pairs.run_once(tmp_path, "adaptive", 1, 0.0) == "timed out after 3 s"
        pids = [int(p) for p in (tmp_path / "pids.txt").read_text().split()]
        deadline = time.monotonic() + 5.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
