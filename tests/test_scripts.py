"""The scripts under scripts/ run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bbm5

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, args):
    # the scripts import the same bbm5 the tests do
    src = str(Path(bbm5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,args", [
    ("multiplier_norm_scan.py", ["--n", "64", "--trials", "20"]),
])
def test_script_runs(script, args):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_norm_scan_refuses_zero_trials():
    # it used to fail on an IndexError in final_decile_growth of an empty scan
    proc = _run("multiplier_norm_scan.py", ["--n", "64", "--trials", "0"])
    assert proc.returncode != 0
    assert "ValueError: trials must be at least 1, got 0" in proc.stderr
    assert "IndexError" not in proc.stderr and proc.stdout == ""
