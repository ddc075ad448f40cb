"""The results of the four benchmark workloads at their full sizes, for one
seed: ``test_golden.py`` compares them with the files kept under
``tests/golden/workloads/<workload>/``.

The inputs are built here as the benchmark builds them, without importing
it: soliton's records (n = 2048, T = 0.5, a record every 100 steps),
drift_dense's ``energy_drift.csv`` from the CLI, split_sweep's rows and
slopes (n = 1024, cutoffs 8 to 64) and theory_scans' scan maxima and
epsilon-sweep residuals.  A change that means to move a result regenerates
the files with

    PYTHONPATH=src python tests/workload_outputs.py

and says in CHANGES.md which files moved and why.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from bbm5 import cli, derivation, evolution, splitting, symbols
from bbm5.coefficients import REFERENCE_COEFFICIENTS, reference_parameters
from bbm5.spectral import Grid

GOLDEN = Path(__file__).with_name("golden") / "workloads"
SEED = 0
DT = 1e-3
SOLITON_GRID = Grid(n=2048, length=64.0 * math.pi)


def _pulse_center(length: float) -> float:
    """The pulse centre, uniform over the middle half of the torus."""
    return float(np.random.default_rng(SEED).uniform(0.25 * length, 0.75 * length))


def soliton(out: Path, work: Path) -> None:
    eta0 = evolution.sech_squared(SOLITON_GRID, 0.5, 1.0, _pulse_center(SOLITON_GRID.length))
    report = evolution.run_simulation(eta0, evolution.RhsSpec(REFERENCE_COEFFICIENTS),
                                      evolution.StepperConfig(dt=DT), 0.5, record_every=100)
    report.write_csv(out / "run.csv")


def drift_dense(out: Path, work: Path) -> None:
    length = SOLITON_GRID.length
    initial = {"kind": "sech2", "amplitude": 0.5, "width": 1.0, "center": _pulse_center(length)}
    cfg = work / "drift_dense.json"
    cfg.write_text(json.dumps({
        "coeffs": {"rho": -0.5},
        "grid": {"n": SOLITON_GRID.n, "length": length},
        "stepper": {"dt": DT},
        "energy_drift": {"T": 0.5, "record_every": 1, "initial": initial},
    }))
    code = cli.main(["energy-drift", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0, f"energy-drift exited {code}"


def split_sweep(out: Path, work: Path) -> None:
    grid = Grid(n=1024, length=2.0 * math.pi)
    eta0 = symbols.random_hs_field(grid, 1.5, np.random.default_rng(SEED))
    sweep = splitting.n_sweep(eta0, 1.5, (8.0, 16.0, 32.0, 64.0),
                              spec=evolution.RhsSpec(REFERENCE_COEFFICIENTS),
                              stepper=evolution.StepperConfig(dt=DT))
    cli._write_meta(str(out), "split_summary.json", sweep)


def theory_scans(out: Path, work: Path) -> None:
    scan_grid = Grid(n=128, length=2.0 * math.pi)
    maxima = {est: symbols.empirical_operator_norm(est, 1.0, 600, scan_grid,
                                                   REFERENCE_COEFFICIENTS, seed=SEED).max_ratio
              for est in ("tau_bilinear", "psi_trilinear", "psi_grad_bilinear")}
    sweep = derivation.epsilon_sweep(Grid(512, 16.0 * math.pi), reference_parameters(),
                                     epsilons=(0.1, 0.05, 0.025, 0.0125), t_final=0.25,
                                     dt=2e-3, n_checkpoints=1)
    cli._write_meta(str(out), "theory_scans.json", {"scan_maxima": maxima, "epsilon_sweep": sweep})


WORKLOADS = {f.__name__: f for f in (soliton, drift_dense, split_sweep, theory_scans)}


def run_workload(name: str, out: Path, work: Path) -> None:
    """Write workload name's results into out (made here); work holds its inputs."""
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name](out, work)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            run_workload(name, GOLDEN / name, Path(tmp))
