"""The argv that tools/ab_pairs.py builds for each checkout's run.py."""

import importlib.util
import json
import subprocess
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

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    assert ab_pairs.main([str(parent), str(change), "--workload", "adaptive",
                          "--seed", "3", "--pairs", "2", *extra]) == 0
    argv = ["perfbench/run.py", "--workload", "adaptive", "--seed", "3",
            "--seconds", seconds, "--trace", "0"]
    timeout = ab_pairs.RUN_TIMEOUT_S + float(seconds)
    # which side runs first alternates from pair to pair
    assert calls == [(argv, parent, timeout), (argv, change, timeout),
                     (argv, change, timeout), (argv, parent, timeout)]
    assert "2 of 2 pairs ok" in capsys.readouterr().out
