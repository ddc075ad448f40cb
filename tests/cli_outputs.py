"""The eight CLI runs of the output contract: acceptance 10 runs each twice and
byte-compares the two, and ``test_golden.py`` compares one run with the files
kept under ``tests/golden/<command>/``.

A change that means to move an output regenerates the golden files with

    PYTHONPATH=src python tests/cli_outputs.py

and says in CHANGES.md which files moved and why.
"""

import json
import math
import tempfile
from pathlib import Path

from bbm5.cli import main

GOLDEN = Path(__file__).with_name("golden")
SEED = 17

CONFIGS = {
    "coeffs": {},
    "simulate": {
        "grid": {"n": 128, "length": 16.0 * math.pi},
        "stepper": {"dt": 0.01},
        "simulate": {"T": 0.1, "initial": {"kind": "random", "s": 1.5,
                                           "amplitude": 0.2}},
    },
    "split": {
        "grid": {"n": 128, "length": 2.0 * math.pi},
        "stepper": {"dt": 0.01},
        "split": {"s": 1.5, "cutoffs": [4.0, 8.0],
                  "initial": {"kind": "random", "s": 1.5}},
    },
    "multiplier-table": {"multiplier_table": {"count": 21}},
    "energy-drift": {
        "grid": {"n": 128, "length": 16.0 * math.pi},
        "stepper": {"dt": 0.01},
        "energy_drift": {"T": 0.1, "initial": {"kind": "random", "s": 1.5,
                                               "amplitude": 0.2}},
    },
    "picard": {
        "grid": {"n": 64, "length": 6.0},
        "picard": {"T": 0.5, "initial": {"kind": "random", "s": 1.5,
                                         "amplitude": 0.01}},
    },
    "derivation-residual": {
        "grid": {"n": 128, "length": 16.0 * math.pi},
        "derivation": {"epsilons": [0.1, 0.05], "t_final": 0.1,
                       "dt": 0.01, "checkpoints": 1},
    },
    "norm-scan": {"grid": {"n": 64}, "norm_scan": {"trials": 50}},
}


def run_command(command: str, out: Path, config_dir: Path) -> None:
    """Run command at its config (written into config_dir) and SEED, with its
    outputs in out."""
    cfg = config_dir / f"{command}.json"
    cfg.write_text(json.dumps(CONFIGS[command]))
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--seed", str(SEED), "--quiet"])
    assert code == 0, f"{command} exited {code}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for command in CONFIGS:
            run_command(command, GOLDEN / command, Path(tmp))
