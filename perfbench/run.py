"""Pinned study benchmark for splitburg.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 40 --trace 0

A workload is a pinned YAML study in perfbench/workloads; --seed becomes its
`seeds.base` and the program sees only the generated config.

A run lasts about --seconds, counting one warm-up `validate` of the config.
--trace 0 runs the real CLI (`splitburg.cli.main` in a fresh interpreter with
src on the path) in rounds at --jobs 1, 2 and 1, and reports the median of
each end-to-end metric over those runs.  --trace 1 runs the CLI once at
--jobs 1, then runs the study in this process with a span around every call
into each layer (see layers.py) and reports the per-layer metrics.

Every run passes a correctness gate: the CLI exits 0, and summary.csv
(without wall_time), profiles/ and residuals/ are byte-identical across all
runs, across --jobs, and with the traced runs, and equal to the digests pinned in
digests.json where the seed has them.  A run that fails the gate counts all
its tasks as failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are those
of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PINS = BENCH / "digests.json"

# One benchmark process plus at most nproc (2) CLI workers; no native thread pools on top.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
# Per-layer figures that are worked out rather than measured; printed with this label.
COMPUTED = {"burgers.bytes_per_call": "computed from array sizes by "
            "layers.eo_step_bytes, so constant for a workload's n_cells"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def make_config(workload: str, seed: int, work: Path) -> Path:
    doc = yaml.safe_load((BENCH / "workloads" / f"{workload}.yaml").read_text())
    doc["seeds"]["base"] = seed
    path = work / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def run_cli(argv: list[str], work: Path) -> dict:
    """Run the CLI in a fresh interpreter; wall time is from spawn to exit."""
    marker = work / "marker.json"
    marker.unlink(missing_ok=True)
    with open(work / "stdout.txt", "w+") as out, open(work / "stderr.txt", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "cli_child.py"), str(marker), *argv],
            stdout=out, stderr=err, cwd=work, env=child_env(),
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        wall = time.monotonic() - start
        try:  # the new process group also holds any pool workers the CLI started
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        out.seek(0)
        err.seek(0)
        result = {"code": code, "wall_s": wall, "stdout": out.read(),
                  "stderr": err.read(), "setup_s": None, "maxrss_kib": None}
    if marker.exists():
        info = json.loads(marker.read_text())
        if info["parsed_at"] is not None:
            result["setup_s"] = info["parsed_at"] - start
        result["maxrss_kib"] = info["maxrss_kib"]
    return result


def output_digests(out: Path) -> dict:
    """sha256 of summary.csv without its wall_time column, and of the names
    and bytes of every file in profiles/ and residuals/."""
    lines = (out / "summary.csv").read_text().splitlines()
    if lines[0].rsplit(",", 1)[-1] != "wall_time":
        raise ValueError("summary.csv no longer ends with the wall_time column")
    summary = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    digests = {"summary.csv": hashlib.sha256(summary.encode()).hexdigest()}
    for sub in ("profiles", "residuals"):
        h = hashlib.sha256()
        for f in sorted((out / sub).iterdir()):
            h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
        digests[sub] = h.hexdigest()
    return digests


def numerics() -> str:
    """The numpy and scipy versions and the SIMD targets numpy dispatches to,
    which decide the last bits of the floating-point outputs.  Taken in this
    process, which runs the same interpreter and packages as the CLI."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    simd = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return (f"numpy {numpy.__version__}, scipy {importlib.metadata.version('scipy')}, "
            f"SIMD {simd}")


def pinned_digests(workload: str, seed: int, made_with: str) -> dict | None:
    """The pinned digests of (workload, seed), if they were pinned with the
    numerics `made_with`: other numpy or scipy builds or SIMD targets may
    change the last bits."""
    pins = json.loads(PINS.read_text())
    if pins["numerics"] != made_with:
        return None
    return pins["digests"].get(workload, {}).get(str(seed))


def gate(digest_sets: list, pinned: dict | None) -> list[bool]:
    """Which output sets pass: each must equal the pinned digests, or without
    a pin the first set (so all agree).  None marks a run with no outputs."""
    reference = pinned or next((d for d in digest_sets if d is not None), None)
    return [d is not None and d == reference for d in digest_sets]


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if ((index / "level").read_text().strip() == str(level)
                    and (index / "type").read_text().strip() in ("Unified", "Data")):
                return (index / "size").read_text().strip()
        except OSError:
            break
    return "unknown"


def _size_bytes(text: str) -> int | None:
    m = re.fullmatch(r"(\d+)([KMG]?)", text)
    return int(m[1]) * 1024 ** " KMG".index(m[2] or " ") if m else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout; see source_sha256)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def machine_record(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "workload_seed": seed,
    }


def _count_tasks(validate_stdout: str) -> int:
    m = re.search(r"(\d+) scheme cell\(s\) x (\d+) dt level\(s\) x (\d+) seed\(s\)",
                  validate_stdout)
    return int(m[1]) * int(m[2]) * int(m[3])


def _total_steps(run_stdout: str) -> int:
    return int(re.search(r"total integrated steps: (\d+)", run_stdout)[1])


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _failure(run: dict) -> str:
    if run["code"] is None:
        return f"timed out after {CHILD_TIMEOUT_S} s"
    if run["code"]:
        return f"exited {run['code']}: {run['stderr'].strip()[-300:]}"
    return "exited 0 without calling parse_config_file"


def end_to_end(cfg_path: Path, work: Path, deadline: float, n_cells: int,
               pinned: dict | None, tasks: int) -> tuple[dict, int, int, list[str]]:
    """Run rounds of CLI runs at --jobs 1, 2 and 1 while the next round should
    end by `deadline` give or take half a round (one round at least).

    --jobs 1 gets two runs a round because its times spread more."""
    runs = []
    round_s = 0.0
    while not runs or time.monotonic() + round_s / 2 <= deadline:
        round_start = time.monotonic()
        for jobs in (1, 2, 1):
            out = work / "out"
            run = run_cli(["run", str(cfg_path), "--out", str(out),
                           "--jobs", str(jobs)], work)
            run["jobs"] = jobs
            measured = run["code"] == 0 and run["setup_s"] is not None
            run["digests"] = output_digests(out) if measured else None
            shutil.rmtree(out, ignore_errors=True)
            runs.append(run)
        round_s = time.monotonic() - round_start
    passed = gate([r["digests"] for r in runs], pinned)
    notes = [f"--jobs {r['jobs']} run {_failure(r)}"
             for r in runs if r["digests"] is None]
    if any(not ok for ok, r in zip(passed, runs) if r["digests"] is not None):
        notes.append("outputs differ between runs or from the pinned digests")

    j1 = [r for ok, r in zip(passed, runs) if ok and r["jobs"] == 1]
    j2 = [r for ok, r in zip(passed, runs) if ok and r["jobs"] == 2]
    metrics = {
        "study_s": _median(r["wall_s"] for r in j1),
        "study_s_jobs2": _median(r["wall_s"] for r in j2),
        "setup_s": _median(r["setup_s"] for r in j1 + j2),
        "cell_steps_per_s": _median(
            _total_steps(r["stdout"]) * n_cells / (r["wall_s"] - r["setup_s"])
            for r in j1),
        "peak_rss_mb": _median(r["maxrss_kib"] * 1024 / 1e6 for r in j1),
    }
    print(f"runs: {len(runs) * 2 // 3} at --jobs 1 and {len(runs) // 3} at --jobs 2")
    for r in runs:
        print(f"  --jobs {r['jobs']}: exit {r['code']}, {r['wall_s']:.3f} s, "
              f"setup {r['setup_s'] or float('nan'):.3f} s")
    return metrics, tasks * len(runs), tasks * passed.count(False), notes


def traced(cfg_path: Path, work: Path, deadline: float, pinned: dict | None,
           tasks: int, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """One CLI run at --jobs 1, then the in-process runs of layers.py."""
    out = work / "out"
    cli = run_cli(["run", str(cfg_path), "--out", str(out), "--jobs", "1"], work)
    measured = cli["code"] == 0 and cli["setup_s"] is not None
    cli_digests = output_digests(out) if measured else None
    shutil.rmtree(out, ignore_errors=True)
    if not measured:
        return {}, tasks, tasks, [f"--jobs 1 run {_failure(cli)}"]

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import layers

    dirs = iter(range(1_000_000))
    try:
        result = layers.trace_study(
            cfg_path, deadline, lambda: work / f"traced{next(dirs)}")
    except Exception:
        traceback.print_exc()
        return {}, tasks * 2, tasks, ["the traced run raised"]
    traced_digests = [output_digests(d) for d in result["out_dirs"]]
    for d in result["out_dirs"]:
        shutil.rmtree(d, ignore_errors=True)
    passed = gate([cli_digests, *traced_digests], pinned)
    notes = []
    if not result["rows_equal"]:
        notes.append("traced run_matrix rows differ from the untraced rows")
        passed = [passed[0]] + [False] * len(traced_digests)
    if not all(passed):
        notes.append("outputs differ between the CLI, the traced runs or the pinned digests")

    result["tracer"].write(spans_path)
    m = result["metrics"]
    traced_s = cli["setup_s"] + m["runner.run_matrix_s"] + m["runner.emit_csv_s"]
    print(f"traced runs: {result['repetitions']}; spans of the last one: {spans_path}")
    print(f"schemes not in this workload, probed with its first seed: "
          f"{', '.join(result['probed']) or 'none'}")
    print(f"tracing overhead: traced run_matrix {m['runner.run_matrix_s']:.4f} s against "
          f"untraced {result['untraced_run_matrix_s']:.4f} s in this process (medians) "
          f"({(m['runner.run_matrix_s'] / result['untraced_run_matrix_s'] - 1) * 100:+.1f}%), "
          f"of which the wrappers' own bookkeeping, taken out of runner.self_s, was "
          f"{result['tracer'].bookkeeping_s:.4f} s in the last run; "
          f"setup + traced run_matrix + emit_csv {traced_s:.4f} s against untraced "
          f"CLI study_s {cli['wall_s']:.4f} s")
    return m, tasks * len(passed), tasks * passed.count(False), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(whys)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "splitburg" / "cli.py").is_file():
        print(f"no splitburg sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=RUNS, prefix=f"{args.workload}-"))
    try:
        cfg_path = make_config(args.workload, args.seed, work)
        warm = run_cli(["validate", str(cfg_path)], work)
        if warm["code"] != 0:
            print(f"warm-up `validate` failed (exit {warm['code']}):\n"
                  f"{warm['stderr']}", file=sys.stderr)
            return 2
        tasks = _count_tasks(warm["stdout"])
        n_cells = yaml.safe_load(cfg_path.read_text())["grid"]["n_cells"]
        machine = machine_record(args.seed)
        made_with = numerics()
        pinned = pinned_digests(args.workload, args.seed, made_with)

        print(f"workload {args.workload}: {whys[args.workload]}")
        print(f"machine: {json.dumps(machine)}")
        print(f"numerics: {made_with}")
        l2 = _size_bytes(machine["l2_cache"])
        print(f"one state array is {n_cells * 8 / 1e3:g} KB against L2 "
              f"{machine['l2_cache']}"
              + (": it fits, so transport times measure compute and per-call "
                 "cost, not memory bandwidth" if l2 and n_cells * 8 <= l2 else ""))
        if args.trace:
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, notes = traced(
                cfg_path, work, deadline, pinned, tasks, spans)
        else:
            metrics, attempted, failed, notes = end_to_end(
                cfg_path, work, deadline, n_cells, pinned, tasks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and not notes
    print(f"correctness: {'pass' if correct else 'FAIL'} "
          f"({'pinned digests' if pinned else 'no pinned digests for this seed and numerics; cross-run checks only'})")
    for note in notes:
        print(f"  {note}")
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} tasks)")
    result = {}
    for m in wanted:
        value = metrics.get(m["name"])
        label = f" ({COMPUTED[m['name']]})" if m["name"] in COMPUTED else ""
        print(f"{m['name']} {value if value is not None else 'n/a'} {m['unit']}{label}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
