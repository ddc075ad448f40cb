"""The four benchmark workloads: inputs from a seed, one run, and its check.

Nothing here imports bbm5 at module level: the worker times the import as
part of set-up, so each workload imports the entry point it uses inside
``prepare``.  Every workload gives

* ``prepare(seed, tiny, workdir)``: import the entry point and build the
  inputs; the program receives only these generated inputs;
* ``warm_up(inp)``: one small call, so engine tables and ETDRK4 contour
  weights exist before timing;
* ``run(inp)``: one timed run;
* ``check(inp, out)``: ``(gate_ok, margins, detail)``.  Gates decide pass or
  fail; margins are recorded only, so their erosion shows without failing;
* ``steps(inp)``: ETDRK4 steps per run, computed from the inputs alone;
* ``retained_bytes(inp)``: bytes of state ``run_simulation`` keeps, computed
  as records x n x 32 B (the complex state plus its Field copy);
* ``fingerprint(inp)``: numbers identifying the generated inputs.

``tiny`` shrinks grids and run lengths so the benchmark's own tests run in
seconds; the benchmark itself always runs at full size.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

DT = 1e-3
SOLITON_LENGTH = 64.0 * math.pi
SPLIT_S = 1.5
SPLIT_CUTOFFS = (8.0, 16.0, 32.0, 64.0)
EPSILONS = (0.1, 0.05, 0.025, 0.0125)
EPS_DT = 2e-3


def _pulse_center(seed: int, length: float) -> float:
    # Keep the pulse in the middle half of the torus: sech_squared does not
    # wrap, so a pulse near x = 0 would be cut at the periodic boundary.
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.25 * length, 0.75 * length))


def _h1(field) -> float:
    from bbm5.spectral import sobolev_norm

    return sobolev_norm(field, 1.0)


def _n_steps(t_final: float, dt: float) -> int:
    return max(1, int(round(t_final / dt)))


# ---------------------------------------------------------------------------
# soliton: the production integrator, diagnostics every 100 steps
# ---------------------------------------------------------------------------


class Soliton:
    name = "soliton"
    entry = "bbm5"
    record_every = 100

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        import bbm5
        from bbm5 import evolution
        from bbm5.coefficients import REFERENCE_COEFFICIENTS

        n, length, t_final = (256, 16.0 * math.pi, 0.05) if tiny else (2048, SOLITON_LENGTH, 0.5)
        grid = bbm5.Grid(n=n, length=length)
        center = _pulse_center(seed, length)
        return {
            "grid": grid,
            "center": center,
            "eta0": evolution.sech_squared(grid, 0.5, 1.0, center),
            "spec": bbm5.RhsSpec(REFERENCE_COEFFICIENTS),
            "cfg": bbm5.StepperConfig(dt=DT),
            "T": t_final,
            "dt": DT,
        }

    def warm_up(self, inp: dict) -> None:
        from bbm5 import evolution

        evolution.run_simulation(inp["eta0"], inp["spec"], inp["cfg"], DT,
                                 record_every=self.record_every)

    def run(self, inp: dict):
        from bbm5 import evolution

        return evolution.run_simulation(inp["eta0"], inp["spec"], inp["cfg"], inp["T"],
                                        record_every=self.record_every)

    def check(self, inp: dict, rep):
        steps = self.steps(inp)
        records = self.retained_bytes(inp) // (inp["grid"].n * 32)
        drift = float(abs(rep.energy[-1] - rep.energy[0]) / rep.energy[0])
        zm = float(np.abs(rep.zero_mode - rep.zero_mode[0]).max())
        reached = math.isclose(float(rep.times[-1]), inp["T"], rel_tol=1e-9)
        ok = (not rep.aborted and len(rep.times) == records and reached
              and drift <= 1e-6 and zm <= 1e-12)
        margins = {"check.soliton.energy_drift_rel": drift,
                   "check.soliton.zero_mode_span": zm}
        detail = (f"aborted={rep.aborted} records={len(rep.times)}/{records} "
                  f"drift={drift:.3e} (<=1e-6) zero_mode_span={zm:.3e} (<=1e-12)")
        return ok, margins, detail

    def steps(self, inp: dict) -> int:
        return _n_steps(inp["T"], inp["dt"])

    def retained_bytes(self, inp: dict) -> int:
        steps = self.steps(inp)
        records = steps // self.record_every + 1 + (1 if steps % self.record_every else 0)
        return records * inp["grid"].n * 32

    def fingerprint(self, inp: dict) -> dict:
        return {"n": inp["grid"].n, "T": inp["T"], "pulse_center": inp["center"],
                "eta0_H1": _h1(inp["eta0"])}


# ---------------------------------------------------------------------------
# drift_dense: the same stepping through the CLI, one record per step
# ---------------------------------------------------------------------------


class DriftDense(Soliton):
    name = "drift_dense"
    entry = "bbm5.cli"
    record_every = 1
    rho = -0.5  # gamma - 7/48 = -0.1875: well-posed, energy not conserved

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        import bbm5.cli  # noqa: F401  (the entry point whose import set-up pays)
        from bbm5.spectral import Grid
        from bbm5.evolution import sech_squared

        n, length, t_final = (256, 16.0 * math.pi, 0.05) if tiny else (2048, SOLITON_LENGTH, 0.5)
        center = _pulse_center(seed, length)
        initial = {"kind": "sech2", "amplitude": 0.5, "width": 1.0, "center": center}
        config = {
            "coeffs": {"rho": self.rho},
            "grid": {"n": n, "length": length},
            "stepper": {"dt": DT},
            "energy_drift": {"T": t_final, "record_every": 1, "initial": initial},
        }
        out_dir = os.path.join(workdir, "drift_dense")
        config_path = os.path.join(workdir, "drift_dense.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        warm_path = os.path.join(workdir, "drift_dense_warm.json")
        with open(warm_path, "w") as fh:
            json.dump({**config, "energy_drift": {**config["energy_drift"], "T": DT}}, fh)
        grid = Grid(n=n, length=length)
        return {
            "grid": grid,
            "center": center,
            "eta0": sech_squared(grid, 0.5, 1.0, center),
            "T": t_final,
            "dt": DT,
            "argv": ["energy-drift", "--config", config_path, "--out", out_dir, "--quiet"],
            "warm_argv": ["energy-drift", "--config", warm_path, "--out", out_dir, "--quiet"],
            "csv": os.path.join(out_dir, "energy_drift.csv"),
            "out_dir": out_dir,
        }

    def warm_up(self, inp: dict) -> None:
        from bbm5 import cli

        code = cli.main(inp["warm_argv"])
        if code != 0:
            raise RuntimeError(f"warm-up energy-drift exited {code}")

    def run(self, inp: dict):
        from bbm5 import cli

        if os.path.exists(inp["csv"]):
            os.remove(inp["csv"])
        return cli.main(inp["argv"])

    def check(self, inp: dict, code):
        steps = self.steps(inp)
        if code != 0 or not os.path.exists(inp["csv"]):
            return False, {}, f"exit code {code}, csv present: {os.path.exists(inp['csv'])}"
        with open(inp["csv"]) as fh:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "t,E,dEdt_predicted,drift_resid" or data.shape[0] != steps + 1:
            return False, {}, f"header {header!r}, rows {data.shape[0]} (want {steps + 1})"
        t, e, pred = data[:, 0], data[:, 1], data[:, 2]
        # The drift law dE/dt = predicted, with dE/dt from a five-point stencil
        # on the CSV's own energy column (interior points only).
        h = t[1] - t[0]
        dedt = (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * h)
        p = pred[2:-2]
        mask = np.abs(p) > 1e-8
        if not mask.any():
            return False, {}, "no interior point with |predicted dE/dt| > 1e-8"
        rel = float(np.max(np.abs(dedt[mask] - p[mask]) / np.abs(p[mask])))
        uniform = bool(np.allclose(np.diff(t), h, rtol=1e-9, atol=0.0))
        ok = uniform and np.all(np.isfinite(data)) and rel <= 1e-2
        detail = (f"exit 0, rows {data.shape[0]}, {int(mask.sum())} checked points, "
                  f"drift-law relative residual {rel:.3e} (<=1e-2)")
        return ok, {"check.drift_dense.law_rel_max": rel}, detail


# ---------------------------------------------------------------------------
# split_sweep: high/low splitting over four cutoffs
# ---------------------------------------------------------------------------


class SplitSweep:
    name = "split_sweep"
    entry = "bbm5"

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        import bbm5
        from bbm5 import symbols
        from bbm5.coefficients import REFERENCE_COEFFICIENTS

        n, cutoffs = (256, SPLIT_CUTOFFS[:3]) if tiny else (1024, SPLIT_CUTOFFS)
        grid = bbm5.Grid(n=n, length=2.0 * math.pi)
        return {
            "grid": grid,
            "eta0": symbols.random_hs_field(grid, SPLIT_S, np.random.default_rng(seed)),
            "cutoffs": cutoffs,
            "spec": bbm5.RhsSpec(REFERENCE_COEFFICIENTS),
            "cfg": bbm5.StepperConfig(dt=DT),
        }

    def warm_up(self, inp: dict) -> None:
        from bbm5 import evolution

        evolution.exponential_rk4_step(inp["eta0"], inp["spec"], inp["cfg"].dt)

    def run(self, inp: dict):
        from bbm5 import splitting

        return splitting.n_sweep(inp["eta0"], SPLIT_S, inp["cutoffs"],
                                 spec=inp["spec"], stepper=inp["cfg"])

    def check(self, inp: dict, sweep):
        rows = sweep["rows"]
        finite = len(rows) == len(inp["cutoffs"]) and all(
            math.isfinite(v) for r in rows for v in r.values())
        h_slope = float(sweep["h_slope"]["slope"])
        e_slope = float(sweep["energy_increment_slope"]["slope"])
        ok = finite and h_slope <= -1.0
        margins = {"check.split_sweep.h_slope": h_slope,
                   "check.split_sweep.energy_slope": e_slope}
        detail = (f"{len(rows)} finite rows: {finite}, h slope {h_slope:.3f} (<=-1.0), "
                  f"energy increment slope {e_slope:.3f} (recorded only)")
        return ok, margins, detail

    def steps(self, inp: dict) -> int:
        # Per cutoff N: window t0 = max(N^(-2(2-s)), 10 dt) split into k steps;
        # the smooth part takes 2k half steps and the rough part k steps.
        dt = inp["cfg"].dt
        total = 0
        for cutoff in inp["cutoffs"]:
            t0 = max(cutoff ** (-2.0 * (2.0 - SPLIT_S)), 10.0 * dt)
            total += 3 * _n_steps(t0, dt)
        return total

    def retained_bytes(self, inp: dict) -> int:
        return 0

    def fingerprint(self, inp: dict) -> dict:
        return {"n": inp["grid"].n, "cutoffs": list(inp["cutoffs"]),
                "eta0_H1": _h1(inp["eta0"])}


# ---------------------------------------------------------------------------
# theory_scans: operator-norm scans and the derivation's epsilon sweep
# ---------------------------------------------------------------------------


class TheoryScans:
    name = "theory_scans"
    entry = "bbm5"
    estimates = ("tau_bilinear", "psi_trilinear", "psi_grad_bilinear")

    def prepare(self, seed: int, tiny: bool, workdir: str) -> dict:
        import bbm5
        from bbm5.coefficients import REFERENCE_COEFFICIENTS, reference_parameters

        if tiny:
            trials, eps_grid, t_final, checkpoints = 50, bbm5.Grid(128, 16.0 * math.pi), 0.1, 1
        else:
            trials, eps_grid, t_final, checkpoints = 600, bbm5.Grid(512, 16.0 * math.pi), 0.25, 1
        return {
            "scan_grid": bbm5.Grid(n=128, length=2.0 * math.pi),
            "c": REFERENCE_COEFFICIENTS,
            "seed": seed,
            "trials": trials,
            "eps_grid": eps_grid,
            "model": reference_parameters(),
            "t_final": t_final,
            "checkpoints": checkpoints,
        }

    def warm_up(self, inp: dict) -> None:
        from bbm5 import symbols

        for est in self.estimates:
            symbols.empirical_operator_norm(est, 1.0, 1, inp["scan_grid"], inp["c"],
                                            seed=inp["seed"])

    def run(self, inp: dict):
        from bbm5 import derivation, symbols

        scans = [symbols.empirical_operator_norm(est, 1.0, inp["trials"], inp["scan_grid"],
                                                 inp["c"], seed=inp["seed"])
                 for est in self.estimates]
        sweep = derivation.epsilon_sweep(inp["eps_grid"], inp["model"], epsilons=EPSILONS,
                                         t_final=inp["t_final"], dt=EPS_DT,
                                         n_checkpoints=inp["checkpoints"])
        return scans, sweep

    def check(self, inp: dict, out):
        from bbm5 import symbols

        scans, sweep = out
        scans_ok = True
        for scan in scans:
            rm = np.asarray(scan.running_max)
            redo = symbols.estimate_ratio(scan.estimate_id, scan.argmax_fields, scan.s, inp["c"])
            scans_ok &= (len(rm) == inp["trials"] and bool(np.all(np.isfinite(rm)))
                         and bool(np.all(np.diff(rm) >= 0.0))
                         and math.isclose(redo, scan.max_ratio, rel_tol=1e-9))
        r1, r2 = float(sweep["slope_r1_L2"]), float(sweep["slope_r2_L2"])
        growth = max(float(s.final_decile_growth) for s in scans)
        ok = scans_ok and r1 >= 1.8 and r2 >= 1.8
        margins = {"check.theory_scans.r1_slope": r1,
                   "check.theory_scans.r2_slope": r2,
                   "check.theory_scans.decile_growth_max": growth}
        detail = (f"scans consistent: {scans_ok}, slopes {r1:.3f}, {r2:.3f} (>=1.8), "
                  f"worst final-decile growth {growth:.2%} (recorded only)")
        return ok, margins, detail

    def steps(self, inp: dict) -> int:
        # epsilon_sweep's scaled ETDRK4: per epsilon, `checkpoints` legs of
        # round(t_final / dt / checkpoints) steps each.
        per_leg = max(1, int(round(inp["t_final"] / EPS_DT / inp["checkpoints"])))
        return len(EPSILONS) * inp["checkpoints"] * per_leg

    def retained_bytes(self, inp: dict) -> int:
        return 0

    def fingerprint(self, inp: dict) -> dict:
        from bbm5 import symbols

        rng = np.random.default_rng(inp["seed"])
        first = symbols.random_hs_field(inp["scan_grid"], 1.0, rng)
        return {"trials": inp["trials"], "t_final": inp["t_final"],
                "first_trial_field_H1": _h1(first)}


WORKLOADS = {w.name: w for w in (Soliton(), DriftDense(), SplitSweep(), TheoryScans())}
