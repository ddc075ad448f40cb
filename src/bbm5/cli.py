"""Operator-facing command line.

One JSON config document with per-command sections drives every experiment;
command-line flags override config values.  Exit codes are a stable
contract: 0 success, 2 configuration error, 3 numerical abort.  All CSV
bodies are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coefficients as coef
from .coefficients import Bbm5Coefficients, ModelParameters
from .derivation import epsilon_sweep
from .derivation import write_sweep_csv as write_derivation_csv
from .evolution import (
    PicardDivergenceError,
    RhsSpec,
    StepperConfig,
    duhamel_picard,
    gaussian_bump,
    run_simulation,
    sech_squared,
)
from .spectral import Field, Grid, RegimeError, read_snapshot_csv, sobolev_norm
from .splitting import n_sweep, write_sweep_csv, write_sweep_json
from .symbols import Symbol, random_hs_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema: section -> {key: type or tuple of types}; unknown keys are
# rejected.
# ---------------------------------------------------------------------------

_NUM = (int, float)
_INITIAL_KEYS = {
    "kind": str,
    "amplitude": _NUM,
    "width": _NUM,
    "center": _NUM,
    "s": _NUM,
    "seed": int,
    "path": str,
    "mode": int,
}

_SCHEMA = {
    "coeffs": {
        "theta": _NUM,
        "lam": _NUM,
        "mu": _NUM,
        "lam1": _NUM,
        "mu1": _NUM,
        "rho": _NUM,
        "rho_auto": bool,
    },
    "grid": {"n": int, "length": _NUM},
    "stepper": {
        "scheme": str,
        "dt": _NUM,
        "picard_tol": _NUM,
        "picard_max_iter": int,
        "cs": _NUM,
        "sobolev_s": _NUM,
    },
    "simulate": {
        "T": _NUM,
        "record_every": int,
        "dealias": bool,
        "initial": dict,
        "monitor_s": list,
    },
    "split": {"s": _NUM, "cutoffs": list, "t0_scale": _NUM, "initial": dict},
    "multiplier_table": {"xi_min": _NUM, "xi_max": _NUM, "count": int},
    "energy_drift": {"T": _NUM, "record_every": int, "initial": dict, "dealias": bool},
    "picard": {"T": _NUM, "initial": dict},
    "derivation": {"epsilons": list, "t_final": _NUM, "dt": _NUM, "checkpoints": int},
    "seed": int,
}


def _validate(config: dict) -> None:
    for key, value in config.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        spec = _SCHEMA[key]
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for k, v in value.items():
                if k not in spec:
                    raise ConfigError(f"unknown key {key}.{k!r}")
                if not isinstance(v, spec[k]) or isinstance(v, bool) and spec[k] is not bool:
                    raise ConfigError(
                        f"config value {key}.{k} has wrong type {type(v).__name__}"
                    )
                if k == "initial":
                    for ik, iv in v.items():
                        if ik not in _INITIAL_KEYS:
                            raise ConfigError(f"unknown key {key}.initial.{ik!r}")
        else:
            if not isinstance(value, spec) or isinstance(value, bool):
                raise ConfigError(f"config value {key} has wrong type")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _validate(config)
    return config


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _model_params(section: dict) -> tuple[ModelParameters, bool]:
    defaults = {
        "theta": math.sqrt(2.0 / 3.0),
        "lam": 1.0,
        "mu": 0.0,
        "lam1": 1.0,
        "mu1": -6.0,
        "rho": 0.0,
    }
    rho_auto = section.get("rho_auto", False)
    vals = {k: float(section.get(k, v)) for k, v in defaults.items()}
    p = ModelParameters(**vals)
    if rho_auto:
        rho_star = coef.rho_for_energy_conservation(coef.derive_first_order(p))
        p = ModelParameters(**{**vals, "rho": float(rho_star)})
    return p, rho_auto


def _grid(section: dict) -> Grid:
    return Grid(n=section.get("n", 256), length=float(section.get("length", 2.0 * math.pi)))


def _stepper(section: dict) -> StepperConfig:
    return StepperConfig(
        scheme=section.get("scheme", "exponential_rk4"),
        dt=float(section.get("dt", 1e-3)),
        picard_tol=float(section.get("picard_tol", 1e-12)),
        picard_max_iter=int(section.get("picard_max_iter", 50)),
        contraction_constant_cs=float(section.get("cs", 1.0)),
        sobolev_s=float(section.get("sobolev_s", 1.0)),
    )


def _initial(section: dict, grid: Grid, seed: int) -> Field:
    kind = section.get("kind", "sech2")
    amp = float(section.get("amplitude", 1.0))
    if kind == "sech2":
        return sech_squared(grid, amp, float(section.get("width", 1.0)),
                            section.get("center"))
    if kind == "gaussian":
        return gaussian_bump(grid, amp, float(section.get("width", 1.0)),
                             section.get("center"))
    if kind == "random":
        s = float(section.get("s", 1.0))
        rng = np.random.default_rng(section.get("seed", seed))
        return random_hs_field(grid, s, rng, amp)
    if kind == "cosine":
        k = int(section.get("mode", 1))
        return Field.from_samples(grid, amp * np.cos(2.0 * np.pi * k * grid.x / grid.length))
    if kind == "zero":
        return Field.zero(grid)
    if kind == "file":
        path = section.get("path")
        if path is None or not os.path.exists(path or ""):
            raise ConfigError(f"initial data file not found: {path}")
        return read_snapshot_csv(grid, path)
    raise ConfigError(f"unknown initial data kind {kind!r}")


def _coeffs_payload(p: ModelParameters, rho_auto: bool) -> dict:
    f = coef.derive_first_order(p)
    s = coef.derive_second_order(p)
    c = coef.derive_bbm5(p)
    return {
        "parameters": {
            "theta": p.theta, "lam": p.lam, "mu": p.mu,
            "lam1": p.lam1, "mu1": p.mu1, "rho": p.rho, "rho_auto": rho_auto,
        },
        "abcd_first": {"a": f.a, "b": f.b, "c": f.c, "d": f.d},
        "abcd_second": {"a1": s.a1, "b1": s.b1, "c1": s.c1, "d1": s.d1},
        "bbm5": {
            "gamma1": c.gamma1, "gamma2": c.gamma2,
            "delta1": c.delta1, "delta2": c.delta2, "gamma": c.gamma,
        },
        "wellposed_regime": c.wellposed_regime,
        "energy_conserving": c.energy_conserving,
        "violations": coef.validate(c),
        "rho_star": float(coef.rho_for_energy_conservation(f)),
    }


def _coefficients(p: ModelParameters) -> Bbm5Coefficients:
    c = coef.derive_bbm5(p)
    return Bbm5Coefficients(
        gamma1=float(c.gamma1), gamma2=float(c.gamma2),
        delta1=float(c.delta1), delta2=float(c.delta2), gamma=float(c.gamma),
    )


def _out_dir(args) -> str:
    out = args.out or os.environ.get("BBM5_OUT_DIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_meta(out_dir: str, name: str, payload: dict) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_coeffs(args, config: dict) -> int:
    p, rho_auto = _model_params({**config.get("coeffs", {}),
                                 **({"rho_auto": True} if args.rho_auto else {})})
    payload = _coeffs_payload(p, rho_auto)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        out = _out_dir(args)
        with open(os.path.join(out, "coeffs.json"), "w") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text)
    return EXIT_OK


def cmd_simulate(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    p, _ = _model_params(config.get("coeffs", {}))
    c = _coefficients(p)
    grid = _grid(config.get("grid", {}))
    cfg = _stepper(config.get("stepper", {}))
    sim = config.get("simulate", {})
    spec = RhsSpec(c, dealias=sim.get("dealias", True))
    eta0 = _initial(sim.get("initial", {}), grid, seed)
    T = float(sim.get("T", 1.0))
    report = run_simulation(
        eta0, spec, cfg, T,
        monitor_s=tuple(sim.get("monitor_s", (0.0, 1.0, 2.0))),
        record_every=int(sim.get("record_every", 1)),
    )
    out = _out_dir(args)
    report.write_csv(os.path.join(out, "run.csv"))
    _write_meta(out, "run_meta.json", {
        "coefficients": _coeffs_payload(p, False)["bbm5"],
        "grid": {"n": grid.n, "length": grid.length},
        "scheme": cfg.scheme, "dt": cfg.dt, "T": T, "seed": seed,
        "dealias": spec.dealias, "aborted": report.aborted,
    })
    if report.aborted:
        if not args.quiet:
            print("run aborted on non-finite state; last-good report written",
                  file=sys.stderr)
        return EXIT_NUMERIC
    if not args.quiet:
        drift = abs(report.energy[-1] - report.energy[0])
        rel = drift / report.energy[0] if report.energy[0] > 0 else 0.0
        print(f"simulate: T={T} relative energy drift {rel:.3e}")
    return EXIT_OK


def cmd_split(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    p, _ = _model_params(config.get("coeffs", {}))
    c = _coefficients(p)
    grid = _grid(config.get("grid", {"n": 1024}))
    cfg = _stepper(config.get("stepper", {}))
    section = config.get("split", {})
    s = float(section.get("s", 1.5))
    if not (1.0 <= s < 2.0):
        raise ConfigError(f"split.s must lie in [1, 2), got {s}")
    cutoffs = tuple(float(v) for v in section.get("cutoffs", (8.0, 16.0, 32.0, 64.0)))
    spec = RhsSpec(c)
    eta0 = _initial(section.get("initial", {"kind": "random", "s": s}), grid, seed)
    sweep = n_sweep(eta0, s, cutoffs, spec=spec, stepper=cfg,
                    t0_scale=float(section.get("t0_scale", 1.0)))
    out = _out_dir(args)
    write_sweep_csv(sweep, os.path.join(out, "split_sweep.csv"))
    write_sweep_json(sweep, os.path.join(out, "split_summary.json"))
    if not args.quiet and "h_slope" in sweep:
        print(f"split: h slope {sweep['h_slope']['slope']:.3f}, "
              f"energy increment slope {sweep['energy_increment_slope']['slope']:.3f}")
    return EXIT_OK


def cmd_multiplier_table(args, config: dict) -> int:
    p, _ = _model_params(config.get("coeffs", {}))
    c = _coefficients(p)
    section = config.get("multiplier_table", {})
    xi = np.linspace(float(section.get("xi_min", 0.0)),
                     float(section.get("xi_max", 10.0)),
                     int(section.get("count", 101)))
    syms = {k: Symbol(k, c) for k in ("phi", "psi", "tau", "varphi_denominator")}
    omega = Symbol("omega")
    out = _out_dir(args)
    with open(os.path.join(out, "multiplier_table.csv"), "w") as fh:
        fh.write("xi,phi,psi,tau,omega,varphi\n")
        for x in xi:
            fh.write(
                f"{x:.17g},{float(syms['phi'](x)):.17g},{float(syms['psi'](x)):.17g},"
                f"{float(syms['tau'](x)):.17g},{float(omega(x)):.17g},"
                f"{float(syms['varphi_denominator'](x)):.17g}\n"
            )
    if not args.quiet:
        print(f"multiplier-table: {len(xi)} rows written")
    return EXIT_OK


def cmd_energy_drift(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    p, _ = _model_params(config.get("coeffs", {}))
    c = _coefficients(p)
    grid = _grid(config.get("grid", {}))
    cfg = _stepper(config.get("stepper", {}))
    section = config.get("energy_drift", {})
    spec = RhsSpec(c, dealias=section.get("dealias", True))
    eta0 = _initial(section.get("initial", {}), grid, seed)
    T = float(section.get("T", 1.0))
    report = run_simulation(eta0, spec, cfg, T,
                            record_every=int(section.get("record_every", 1)))
    out = _out_dir(args)
    with open(os.path.join(out, "energy_drift.csv"), "w") as fh:
        fh.write("t,E,dEdt_predicted,drift_resid\n")
        for k, t in enumerate(report.times):
            fh.write(
                f"{t:.17g},{report.energy[k]:.17g},"
                f"{report.drift_predicted[k]:.17g},{report.drift_residual[k]:.17g}\n"
            )
    if report.aborted:
        return EXIT_NUMERIC
    if not args.quiet:
        print(f"energy-drift: {len(report.times)} rows written")
    return EXIT_OK


def cmd_picard(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    p, _ = _model_params(config.get("coeffs", {}))
    c = _coefficients(p)
    grid = _grid(config.get("grid", {}))
    cfg = _stepper(config.get("stepper", {}))
    section = config.get("picard", {})
    spec = RhsSpec(c)
    eta0 = _initial(section.get("initial", {"kind": "zero"}), grid, seed)
    T = float(section.get("T", 1.0))
    out = _out_dir(args)
    try:
        traj, diag = duhamel_picard(eta0, spec, cfg, T)
    except PicardDivergenceError as exc:
        _write_picard_csv(os.path.join(out, "picard.csv"), exc.diagnostics)
        if not args.quiet:
            print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_picard_csv(os.path.join(out, "picard.csv"), diag)
    if not args.quiet:
        print(f"picard: converged in {diag.iterations} iterations, "
              f"final H1 norm {sobolev_norm(traj[-1], 1.0):.6e}")
    return EXIT_OK


def _write_picard_csv(path, diag) -> None:
    ratios = [float("nan")] + diag.ratios
    with open(path, "w") as fh:
        fh.write("iteration,diff_hs,ratio\n")
        for k, d in enumerate(diag.diff_norms):
            fh.write(f"{k + 1},{d:.17g},{ratios[k]:.17g}\n")


def cmd_derivation_residual(args, config: dict) -> int:
    p, _ = _model_params(config.get("coeffs", {}))
    grid = _grid(config.get("grid", {"n": 512, "length": 16.0 * math.pi}))
    section = config.get("derivation", {})
    sweep = epsilon_sweep(
        grid,
        p,
        epsilons=tuple(float(e) for e in section.get("epsilons", (0.1, 0.05, 0.025, 0.0125))),
        t_final=float(section.get("t_final", 1.0)),
        dt=float(section.get("dt", 2e-3)),
        n_checkpoints=int(section.get("checkpoints", 4)),
    )
    out = _out_dir(args)
    write_derivation_csv(sweep, os.path.join(out, "derivation_residual.csv"))
    _write_meta(out, "derivation_summary.json", {
        "slope_r1_L2": sweep["slope_r1_L2"],
        "slope_r2_L2": sweep["slope_r2_L2"],
        "rows": sweep["rows"],
    })
    if not args.quiet:
        print(f"derivation-residual: slope r1 {sweep['slope_r1_L2']:.3f}, "
              f"slope r2 {sweep['slope_r2_L2']:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbm5",
        description="Spectral experiments for the fifth-order BBM-type equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "coeffs": cmd_coeffs,
        "simulate": cmd_simulate,
        "split": cmd_split,
        "multiplier-table": cmd_multiplier_table,
        "energy-drift": cmd_energy_drift,
        "picard": cmd_picard,
        "derivation-residual": cmd_derivation_residual,
    }
    for name, fn in commands.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--quiet", action="store_true")
        if name == "coeffs":
            sp.add_argument("--rho-auto", action="store_true",
                            help="replace rho by the energy-conserving value")
            for key in ("theta", "lam", "mu", "lam1", "mu1", "rho"):
                sp.add_argument(f"--{key}", type=float, default=None)
        sp.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "coeffs":
            overrides = {
                k: getattr(args, k)
                for k in ("theta", "lam", "mu", "lam1", "mu1", "rho")
                if getattr(args, k) is not None
            }
            if overrides:
                config = {**config, "coeffs": {**config.get("coeffs", {}), **overrides}}
        return args.handler(args, config)
    except (ConfigError, RegimeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PicardDivergenceError as exc:  # simulate/energy-drift with the Picard scheme
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
