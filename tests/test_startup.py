"""Start-up: importing bbm5 and running every CLI command loads no scipy
module (``import scipy.stats`` alone costs about a second), and every name a
module exports exists."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bbm5

CONFIGS = {
    "coeffs": {},
    "multiplier-table": {"multiplier_table": {"count": 5}},
    "simulate": {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "simulate": {"T": 0.02}},
    "energy-drift": {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "energy_drift": {"T": 0.02}},
    "split": {"grid": {"n": 64, "length": 2.0 * math.pi}, "stepper": {"dt": 0.01},
              "split": {"cutoffs": [2, 4, 8]}},
    "picard": {"grid": {"n": 64, "length": 6.0},
               "picard": {"T": 0.1, "initial": {"kind": "random", "amplitude": 0.01}}},
    "derivation-residual": {"grid": {"n": 64, "length": 16.0 * math.pi},
                            "derivation": {"epsilons": [0.1, 0.05, 0.025], "t_final": 0.02,
                                           "dt": 0.01, "checkpoints": 1}},
}

# Runs in a fresh interpreter: argv[1] is the configs as JSON, argv[2] a directory.
PROGRAM = """
import json, os, sys
import bbm5, bbm5.cli, bbm5.symbols
configs, root = json.loads(sys.argv[1]), sys.argv[2]
codes = {}
for command, payload in configs.items():
    path = os.path.join(root, command + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    codes[command] = bbm5.cli.main([command, "--config", path, "--quiet",
                                    "--out", os.path.join(root, command)])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_every_command_runs_without_loading_scipy(tmp_path):
    src = str(Path(bbm5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", PROGRAM, json.dumps(CONFIGS), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {command: 0 for command in CONFIGS}
    assert result["scipy"] == []


def test_every_name_in_a_modules_all_exists():
    # a stale entry breaks ``from bbm5.<module> import *``
    exported = {}
    for info in pkgutil.iter_modules(bbm5.__path__):
        module = importlib.import_module(f"bbm5.{info.name}")
        exported[info.name] = getattr(module, "__all__", ())
        missing = [name for name in exported[info.name] if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    assert all(exported[name] for name in ("coefficients", "derivation", "evolution",
                                           "spectral", "splitting", "symbols"))
