"""The results of the four benchmark workloads at their full sizes, for one
seed: ``test_golden.py`` compares them with the files kept under
``tests/golden/workloads/<workload>/``.

The workloads are the benchmark's own (``perfbench/workloads.py``, loaded by
path): ``prepare`` builds the inputs, ``run`` runs them and ``check`` must
pass.  Kept here is only the writer of each result file, and
``fingerprint.json`` holds the workload's ``fingerprint`` of its inputs.  A
change that means to move a result regenerates the files with

    PYTHONPATH=src python tests/workload_outputs.py

and says in CHANGES.md which files moved and why.
"""

import importlib.util
import shutil
import tempfile
from pathlib import Path

from bbm5 import cli

GOLDEN = Path(__file__).with_name("golden") / "workloads"
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 0

_spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH_WORKLOADS)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
WORKLOADS = bench.WORKLOADS


def _theory_scans(out: Path, inp: dict, result) -> None:
    scans, sweep = result
    maxima = {scan.estimate_id: scan.max_ratio for scan in scans}
    cli._write_meta(str(out), "theory_scans.json", {"scan_maxima": maxima, "epsilon_sweep": sweep})


# each workload's result files, written into out from its inputs and its run's result
WRITERS = {
    "soliton": lambda out, inp, report: report.write_csv(out / "run.csv"),
    "drift_dense": lambda out, inp, code: shutil.copy(inp["csv"], out),  # the CLI's file
    "split_sweep": lambda out, inp, sweep: cli._write_meta(str(out), "split_summary.json", sweep),
    "theory_scans": _theory_scans,
}


def run_workload(name: str, out: Path, work: Path) -> None:
    """Run workload name at full size on inputs built in work, fail unless its check passes,
    and write its result files and fingerprint.json into out (made here)."""
    workload = WORKLOADS[name]
    inp = workload.prepare(SEED, False, str(work))
    result = workload.run(inp)
    ok, _margins, detail = workload.check(inp, result)
    assert ok, f"{name} failed its check: {detail}"
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[name](out, inp, result)
    cli._write_meta(str(out), "fingerprint.json", workload.fingerprint(inp))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            run_workload(name, GOLDEN / name, Path(tmp))
