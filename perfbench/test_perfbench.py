"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

Every workload must pass its checks when run small, two traced runs with one
seed must give identical counts (so a later change may rest a claim on
them), and the command must refuse a directory without the bbm5 sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNT = re.compile(r"\.calls$|^spectral\.fft\.|^spectral\.field\.constructed$|^splitting\.windows$"
                   r"|^cli\.out_bytes$|^evolution\.retained_state_bytes$")


def _bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_matches_the_metrics_the_run_prints():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    for seed in (0, 1):
        result, lines = _result(_bench(workload, seed, 0))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.WORKERS
        assert list(result["metrics"]) == [name for name, _unit in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith(f"{workload} failed_frac = 0 ") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    (first, lines), (second, _) = (_result(_bench(workload, 7, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _unit in run.PER_LAYER]
    counts = [name for name in first["metrics"] if COUNT.search(name)]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    # The traced steps agree with the count computed from the inputs.
    steps = json.loads(next(line for line in lines if line.startswith("steps_per_run:")).split(":", 1)[1])
    m = first["metrics"]
    if workload != "theory_scans":  # its steps are epsilon_sweep's own scaled ETDRK4
        assert m["evolution.step.calls"]["value"] == steps
    if workload in ("soliton", "drift_dense"):
        assert m["evolution.nonlinear_hat.calls"]["value"] == 4 * steps
        # run_simulation's stepper is cached, so only set-up builds one
        assert m["evolution.stepper_build.calls"]["value"] == 0
        assert m["setup.stepper_build.calls"]["value"] == 1
    if workload == "split_sweep":  # one stepper for u and one for v per window
        assert m["evolution.stepper_build.calls"]["value"] == 2 * m["splitting.windows"]["value"]


def test_directory_without_sources_is_refused(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "soliton", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
