"""bbm5 benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload soliton --seed 0 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/bbm5``.  The run starts
``WORKERS`` fresh interpreters one after another (never two at once, each
single-threaded); each sets up the workload, then repeats timed runs for its
share of ``--seconds`` and checks every run's outputs.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``wall_ref_ratio``: median over the timed runs that passed their check
  of the run's wall time over the wall time of a fixed numpy reference
  kernel timed just before and after it (``worker.reference``).  Other
  tenants of a shared host slow the CPU by up to 2x for stretches of
  5-40 s; the ratio cancels most of that, where the raw wall time cannot
  be made steady (README.md has the measurements);
* ``setup_s``: median over the fresh interpreters of the set-up time,
  scaled to the host speed at which the reference kernel takes
  ``REF_NOMINAL_S`` (raw seconds x REF_NOMINAL_S / kernel time measured
  right after set-up), for the same reason;
* ``peak_rss_mb``: median over the fresh interpreters.

The raw times are printed for people: ``wall_s`` (median run),
``wall_fastest_s``, ``steps_per_s`` (ETDRK4 steps per run, computed from
the inputs, over ``wall_s``), ``ref_kernel_ms`` and ``setup_raw_s``.  With ``--trace 1`` the
workers alternate untraced and traced runs and the result holds the
per-layer metrics (see README.md).

Every line but the last is for people: metrics by name and unit, the
failure fraction with its base, machine facts and an input fingerprint.
The last line is the JSON result.  A fuller record, and the spans of a
traced run, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("soliton", "drift_dense", "split_sweep", "theory_scans")
# Several fresh interpreters per run: set-up time and peak RSS are
# per-process figures, and pooling runs from several processes evens out
# what one process's memory layout does to the timings.
WORKERS = 3
# setup_s is stated at the host speed where the reference kernel takes this
# long (about its time on the 2-core Xeon this benchmark was tuned on).
REF_NOMINAL_S = 0.010
# A run ends within --seconds plus this, whatever its workers do.
GRACE_S = 140.0

# Printed for people, not bounded: wall_s (median run), wall_fastest_s,
# steps_per_s (steps per run / wall_s), ref_kernel_ms and setup_raw_s.
END_TO_END = (("wall_ref_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit, how, span or counter).  `how` says how the
# value comes out of one traced run:
#   calls     - number of spans;             us/ms - mean duration per call;
#   self_us   - mean self time per call;     s / self_s - total per run;
#   count     - a counter.
LAYER = (
    ("evolution.nonlinear_hat.calls", "count", "calls", "evolution.nonlinear_hat"),
    ("evolution.nonlinear_hat.self_us", "us", "self_us", "evolution.nonlinear_hat"),
    ("evolution.to_fine.calls", "count", "calls", "evolution.to_fine"),
    ("evolution.to_fine.us", "us", "us", "evolution.to_fine"),
    ("evolution.from_fine.calls", "count", "calls", "evolution.from_fine"),
    ("evolution.from_fine.us", "us", "us", "evolution.from_fine"),
    ("evolution.step.calls", "count", "calls", "evolution.step"),
    ("evolution.step.self_us", "us", "self_us", "evolution.step"),
    ("evolution.stepper_build.calls", "count", "calls", "evolution.stepper_build"),
    ("evolution.stepper_build.ms", "ms", "ms", "evolution.stepper_build"),
    ("evolution.run_simulation.self_s", "s", "self_s", "evolution.run_simulation"),
    ("evolution.energy_drift_predicted.calls", "count", "calls", "evolution.energy_drift_predicted"),
    ("evolution.energy_drift_predicted.us", "us", "us", "evolution.energy_drift_predicted"),
    ("spectral.fft.calls", "count", "count", "spectral.fft.calls"),
    ("spectral.fft.c2c_points", "points", "count", "spectral.fft.c2c_points"),
    ("spectral.fft.r2c_points", "points", "count", "spectral.fft.r2c_points"),
    ("spectral.field.constructed", "count", "count", "spectral.field.constructed"),
    ("spectral.energy.calls", "count", "calls", "spectral.energy"),
    ("spectral.energy.us", "us", "us", "spectral.energy"),
    ("spectral.sobolev_norm.calls", "count", "calls", "spectral.sobolev_norm"),
    ("spectral.sobolev_norm.us", "us", "us", "spectral.sobolev_norm"),
    ("spectral.integral_cube.calls", "count", "calls", "spectral.integral_cube"),
    ("spectral.integral_cube.us", "us", "us", "spectral.integral_cube"),
    ("spectral.dealiased_product2.calls", "count", "calls", "spectral.dealiased_product2"),
    ("spectral.dealiased_product2.us", "us", "us", "spectral.dealiased_product2"),
    ("spectral.dealiased_product3.calls", "count", "calls", "spectral.dealiased_product3"),
    ("spectral.dealiased_product3.us", "us", "us", "spectral.dealiased_product3"),
    ("splitting.windows", "count", "calls", "splitting.evolve_u"),
    ("splitting.evolve_u.self_s", "s", "self_s", "splitting.evolve_u"),
    ("splitting.evolve_v.self_s", "s", "self_s", "splitting.evolve_v"),
    ("splitting.compute_h.s", "s", "s", "splitting.compute_h"),
    ("splitting.difference_nl.calls", "count", "calls", "splitting.difference_nl"),
    ("splitting.difference_nl.self_us", "us", "self_us", "splitting.difference_nl"),
    ("symbols.random_hs_field.calls", "count", "calls", "symbols.random_hs_field"),
    ("symbols.random_hs_field.us", "us", "us", "symbols.random_hs_field"),
    ("symbols.estimate_ratio.calls", "count", "calls", "symbols.estimate_ratio"),
    ("symbols.estimate_ratio.self_us", "us", "self_us", "symbols.estimate_ratio"),
    ("symbols.empirical_operator_norm.self_s", "s", "self_s", "symbols.empirical_operator_norm"),
    ("derivation.eta_t.calls", "count", "calls", "derivation.eta_t"),
    ("derivation.eta_t.self_us", "us", "self_us", "derivation.eta_t"),
    ("derivation.abcd_residual_first.self_s", "s", "self_s", "derivation.abcd_residual_first"),
    ("derivation.epsilon_sweep.self_s", "s", "self_s", "derivation.epsilon_sweep"),
    ("cli.main.self_s", "s", "self_s", "cli.main"),
    ("cli.out_bytes", "B", "count", "cli.out_bytes"),
)
# Figures of the set-up phase, the tracer, and one computed figure.
OTHER = (
    ("evolution.retained_state_bytes", "B"),
    ("setup.import_s", "s"),
    ("setup.stepper_build.calls", "count"),
    ("setup.stepper_build.ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)
# Recorded-only check margins; a workload reports 0 for another's margins.
MARGINS = (
    ("check.soliton.energy_drift_rel", "ratio"),
    ("check.soliton.zero_mode_span", "1"),
    ("check.drift_dense.law_rel_max", "ratio"),
    ("check.split_sweep.h_slope", "1"),
    ("check.split_sweep.energy_slope", "1"),
    ("check.theory_scans.r1_slope", "1"),
    ("check.theory_scans.r2_slope", "1"),
    ("check.theory_scans.decile_growth_max", "ratio"),
)


PER_LAYER = tuple((name, unit) for name, unit, _how, _key in LAYER) + OTHER + MARGINS


def _layer_value(sample: dict, how: str, key: str) -> float:
    if how == "count":
        return float(sample.get(key, 0))
    agg = sample.get(f"span:{key}", {"calls": 0, "total": 0.0, "self": 0.0})
    calls = agg["calls"]
    if how == "calls":
        return float(calls)
    if how in ("s", "self_s"):
        return agg["total" if how == "s" else "self"]
    per_call = (agg["self" if how == "self_us" else "total"] / calls) if calls else 0.0
    return per_call * (1e3 if how == "ms" else 1e6)


def _machine() -> dict:
    facts = {"nproc": os.cpu_count()}
    if hasattr(os, "sched_getaffinity"):
        facts["cpus_usable"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        facts["cpu_model"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def _run_worker(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                timeout: float) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--workdir", OUT]
    cmd += ["--trace"] if trace else []
    cmd += ["--tiny"] if tiny else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        print(f"worker for {workload} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker for {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else None


def summarise(workers: list, n_workers: int, trace: bool) -> dict:
    """Fold the workers' samples into the result object, plus details for people."""
    done = [w for w in workers if w is not None]
    runs = [r for w in done for r in w["runs"] + w["traced_runs"]]
    attempted = len(runs) + (n_workers - len(done))
    failed = sum(r["wall_s"] is None for r in runs) + (n_workers - len(done))
    passed = [r for w in done for r in w["runs"] if r["wall_s"] is not None and not r["warm"]]
    traced = [r for w in done for r in w["traced_runs"] if r["wall_s"] is not None]
    absent_names = {a for w in done for a in w["absent_names"]}
    steps = done[0]["steps"] if done else None
    metrics: dict = {}
    shown: dict = {}
    if passed:
        wall = _median([r["wall_s"] for r in passed])
        wall_ref = _median([r["wall_s"] / r["ref_s"] for r in passed])
        shown = {
            "wall_s": (wall, "s"),
            "wall_fastest_s": (min(r["wall_s"] for r in passed), "s"),
            "steps_per_s": (steps / wall, "steps/s"),
            "ref_kernel_ms": (1e3 * _median([r["ref_s"] for r in passed]), "ms"),
        }
    if done:
        shown["setup_raw_s"] = (_median([w["setup_s"] for w in done]), "s")
    if not trace and passed:
        values = {
            "wall_ref_ratio": wall_ref,
            "setup_s": _median([w["setup_s"] * REF_NOMINAL_S / w["setup_ref_s"] for w in done]),
            "peak_rss_mb": _median([w["peak_rss_mb"] for w in done]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if trace and traced and passed:
        for name, unit, how, key in LAYER:
            if key in absent_names:  # its traced name is gone: report absent, not 0
                continue
            metrics[name] = {"value": _median([_layer_value(r["layers"], how, key) for r in traced]),
                             "unit": unit}
        metrics["evolution.retained_state_bytes"] = {"value": float(done[0]["retained_bytes"]), "unit": "B"}
        metrics["setup.import_s"] = {"value": _median([w["import_s"] for w in done]), "unit": "s"}
        for name, unit, how in (("setup.stepper_build.calls", "count", "calls"),
                                ("setup.stepper_build.ms", "ms", "ms")):
            metrics[name] = {"value": _median([_layer_value(w["setup_layers"], how, "evolution.stepper_build")
                                               for w in done]), "unit": unit}
        traced_ref = _median([r["wall_s"] / r["ref_s"] for r in traced])
        metrics["trace.overhead_frac"] = {"value": traced_ref / wall_ref - 1.0, "unit": "ratio"}
        for name, unit in MARGINS:
            vals = [r["margins"][name] for r in runs if name in r["margins"]]
            metrics[name] = {"value": _median(vals) if vals else 0.0, "unit": unit}
    return {
        "result": {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "shown": shown,
        "absent": sorted({a for w in done for a in w["absent"]}),
        "steps_per_run": steps,
        "fingerprint": done[0]["fingerprint"] if done else None,
        "versions": done[0]["versions"] if done else None,
        "details": sorted({r["detail"] for r in runs}),
        "samples": [{k: w[k] for k in ("setup_s", "setup_ref_s", "import_s", "runs", "traced_runs")}
                    for w in done],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bbm5 benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bbm5", "__init__.py")):
        print(f"no bbm5 sources at {os.path.join(ROOT, 'src', 'bbm5')}: run from a bbm5 checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)

    deadline = time.monotonic() + args.seconds + GRACE_S
    workers = [_run_worker(args.workload, args.seed, args.seconds / WORKERS, bool(args.trace), args.tiny,
                           deadline - time.monotonic())
               for _ in range(WORKERS)]
    summary = summarise(workers, WORKERS, bool(args.trace))
    summary["machine"] = _machine()
    summary["seed"] = args.seed
    result = summary["result"]

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in summary["shown"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} runs attempted)")
    for key in ("seed", "steps_per_run", "fingerprint", "details", "absent", "versions", "machine"):
        print(f"{key}: {json.dumps(summary[key])}")
    record = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
