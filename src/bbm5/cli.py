"""Operator-facing command line.

One JSON config document with per-command sections drives every experiment;
command-line flags override config values.  The document is resolved once
against ``_SCHEMA``, the type and default of every key: unknown keys and
wrong types are configuration errors, and a key a section leaves out takes
its default, per command where ``_COMMAND_DEFAULTS`` names one.  ``_Setup``
builds what the commands share from the result.  Exit codes are a stable
contract: 0 success, 2 configuration error, 3 numerical abort.  All CSV
bodies are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import coefficients as coef
from .coefficients import ModelParameters, ParameterError
from .evolution import (
    MAX_STEPS,
    NumericalError,
    PicardDivergenceError,
    RhsSpec,
    StepperConfig,
    duhamel_picard,
    gaussian_bump,
    run_simulation,
    sech_squared,
)
from .spectral import Field, Grid, read_snapshot_csv, sobolev_norm, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema: section -> key -> (type, default), or a nested table.
# ---------------------------------------------------------------------------

_NUM = (int, float)  # resolved to float; a list holds numbers only
_PARAMETERS = ("theta", "lam", "mu", "lam1", "mu1", "rho")

# The initial data of simulate, split, energy_drift and picard.  A default of
# None: center -> the middle of the grid; s -> split.s under split, else 1;
# seed -> the run seed; path -> none given.
_INITIAL = {
    "kind": (str, "sech2"),
    "amplitude": (_NUM, 1.0),
    "width": (_NUM, 1.0),
    "center": (_NUM, None),
    "s": (_NUM, None),
    "seed": (int, None),
    "path": (str, None),
    "mode": (int, 1),
}

_SCHEMA = {
    "coeffs": {
        "theta": (_NUM, math.sqrt(2.0 / 3.0)),
        "lam": (_NUM, 1.0),
        "mu": (_NUM, 0.0),
        "lam1": (_NUM, 1.0),
        "mu1": (_NUM, -6.0),
        "rho": (_NUM, 0.0),
        "rho_auto": (bool, False),
    },
    "grid": {"n": (int, 256), "length": (_NUM, 2.0 * math.pi)},
    "stepper": {
        "scheme": (str, "exponential_rk4"),
        "dt": (_NUM, 1e-3),
        "picard_tol": (_NUM, 1e-12),
        "picard_max_iter": (int, 50),
        "cs": (_NUM, 1.0),
        "sobolev_s": (_NUM, 1.0),
    },
    "simulate": {"T": (_NUM, 1.0), "record_every": (int, 1), "dealias": (bool, True),
                 "initial": _INITIAL, "monitor_s": (list, (0.0, 1.0, 2.0))},
    "split": {"s": (_NUM, 1.5), "cutoffs": (list, (8.0, 16.0, 32.0, 64.0)),
              "t0_scale": (_NUM, 1.0), "initial": _INITIAL},
    "multiplier_table": {"xi_min": (_NUM, 0.0), "xi_max": (_NUM, 10.0), "count": (int, 101)},
    "energy_drift": {"T": (_NUM, 1.0), "record_every": (int, 1), "initial": _INITIAL,
                     "dealias": (bool, True)},
    "picard": {"T": (_NUM, 1.0), "initial": _INITIAL},
    "derivation": {"epsilons": (list, (0.1, 0.05, 0.025, 0.0125)), "t_final": (_NUM, 1.0),
                   "dt": (_NUM, 2e-3), "checkpoints": (int, 4)},
    "seed": (int, 0),
}

# The config key of each parameter a ParameterError names, {} for the command's
# section; a RegimeError's coefficient is named with the keys it depends on.
_KEYS = {
    "width": "{}.initial.width",
    "s": "{}.initial.s",
    "monitor_s": "{}.monitor_s",
    "sobolev_s": "stepper.sobolev_s",
    "gamma1": "gamma1 (set by coeffs.theta, coeffs.lam, coeffs.mu, coeffs.rho)",
    "delta1": f"delta1 (set by coeffs.{', coeffs.'.join(_PARAMETERS)})",
}

# Defaults that differ by command.  Each replaces the table's default of the
# one key it names, so a section that sets other keys still gets it.
_COMMAND_DEFAULTS = {
    "split": {"grid": {"n": 1024}, "split": {"initial": {"kind": "random"}}},
    "picard": {"picard": {"initial": {"kind": "zero"}}},
    "derivation-residual": {"grid": {"n": 512, "length": 16.0 * math.pi}},
}


def _resolve(doc: dict, table: dict, defaults: dict, where: str = "") -> dict:
    """Every key of table: doc's value, type-checked, else the default."""
    for key in doc:
        if key not in table:
            raise ConfigError(f"unknown config key {where + key!r}")
    out = {}
    for key, spec in table.items():
        name = where + key
        if isinstance(spec, dict):
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            out[key] = _resolve(section, spec, defaults.get(key, {}), name + ".")
        elif key in doc:
            out[key] = _typed(doc[key], spec[0], name)
        else:
            out[key] = defaults.get(key, spec[1])
    return out


def _typed(value, kind, name: str):
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"config value {name} must be a list")
        return tuple(_typed(v, _NUM, f"{name}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"config value {name} has wrong type {type(value).__name__}")
    # NaN, or no float: an int key too, since a time lattice divides by one
    if kind in (_NUM, int) and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"config value {name} must be a finite number, got {value}")
    return float(value) if kind is _NUM else value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# ---------------------------------------------------------------------------
# Set-up shared by the commands
# ---------------------------------------------------------------------------


class _Setup:
    """A resolved config and the seed, model parameters and coefficients of
    every command.  The grid and the stepper are built when a command first
    asks, so coeffs and multiplier-table accept any grid and stepper section.
    """

    def __init__(self, config: dict, seed: int | None):
        self.config = config
        self.seed = config["seed"] if seed is None else seed
        section = config["coeffs"]
        p = ModelParameters(**{k: section[k] for k in _PARAMETERS})
        if section["rho_auto"]:
            rho = coef.rho_for_energy_conservation(coef.derive_first_order(p))
            p = dataclasses.replace(p, rho=float(rho))
        self.params = p
        self.coeffs = coef.derive_bbm5(p)
        for name, value in dataclasses.asdict(self.coeffs).items():
            if not math.isfinite(value):  # overflow: blame the largest parameter
                key = max(_PARAMETERS, key=lambda k: abs(getattr(p, k)))
                raise ConfigError(f"coeffs.{key} = {getattr(p, key)!r} makes the derived "
                                  f"coefficient {name} non-finite ({value})")

    @functools.cached_property
    def grid(self) -> Grid:
        n = self.config["grid"]["n"]
        if n > MAX_STEPS:  # an engine and its stepper take about 100 bytes a grid point
            raise ConfigError(f"grid.n must be at most {MAX_STEPS:.0e}, got {n}")
        grid = Grid(n=n, length=self.config["grid"]["length"])
        if not np.isfinite(coef.multipliers(grid.nyquist, self.coeffs)).all():  # xi^4 overflows
            raise ConfigError(f"grid.length = {grid.length!r} is too small for grid.n = {n}: "
                              "the symbol tables overflow at its largest wavenumber")
        return grid

    @functools.cached_property
    def stepper(self) -> StepperConfig:
        st = self.config["stepper"]
        return StepperConfig(scheme=st["scheme"], dt=st["dt"], picard_tol=st["picard_tol"],
                             picard_max_iter=st["picard_max_iter"],
                             contraction_constant_cs=st["cs"], sobolev_s=st["sobolev_s"])

    def initial(self, section: str, s: float = 1.0) -> Field:
        """The section's initial data; s is the H^s index of random data
        whose ``initial.s`` is not set."""
        init, grid = self.config[section]["initial"], self.grid
        kind, amp, width = init["kind"], init["amplitude"], init["width"]
        if kind == "sech2":
            return sech_squared(grid, amp, width, init["center"])
        if kind == "gaussian":
            return gaussian_bump(grid, amp, width, init["center"])
        if kind == "random":
            from .symbols import random_hs_field

            rng = np.random.default_rng(self.seed if init["seed"] is None else init["seed"])
            return random_hs_field(grid, s if init["s"] is None else init["s"], rng, amp)
        if kind == "cosine":
            k = init["mode"]
            return Field.from_samples(grid, amp * np.cos(2.0 * np.pi * k * grid.x / grid.length))
        if kind == "zero":
            return Field.zero(grid)
        if kind == "file":
            path = init["path"]
            if path is None or not os.path.isfile(path):
                raise ConfigError(f"initial data file not found: {path}")
            return read_snapshot_csv(grid, path)
        raise ConfigError(f"unknown initial data kind {kind!r}")


def _named(exc: ParameterError, config: dict, section: str) -> str:
    """exc's message, its parameter's first mention replaced by the config key;
    eta0's is the key that sets the size of the section's data, with its value."""
    key = _KEYS.get(exc.name, exc.name).format(section)
    if exc.name == "eta0":
        key = "path" if config[section]["initial"]["kind"] == "file" else "amplitude"
        key = f"{section}.initial.{key} = {config[section]['initial'][key]!r}"
    return str(exc).replace(exc.name, key, 1)


def _coeffs_payload(run: _Setup) -> dict:
    p, c = run.params, run.coeffs
    f = coef.derive_first_order(p)
    return {
        "parameters": {**dataclasses.asdict(p), "rho_auto": run.config["coeffs"]["rho_auto"]},
        "abcd_first": dataclasses.asdict(f),
        "abcd_second": dataclasses.asdict(coef.derive_second_order(p)),
        "bbm5": dataclasses.asdict(c),
        "wellposed_regime": c.wellposed_regime,
        "energy_conserving": c.energy_conserving,
        "violations": coef.validate(c),
        "rho_star": float(coef.rho_for_energy_conservation(f)),
    }


def _out_dir(args) -> str:
    out = args.out or os.environ.get("BBM5_OUT_DIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_meta(out_dir: str, name: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)  # before the file
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text + "\n")


def _say(args, text: str, file=None) -> None:
    if not args.quiet:
        print(text, file=file)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_coeffs(args, run: _Setup) -> int:
    payload = _coeffs_payload(run)
    if args.out:
        _write_meta(_out_dir(args), "coeffs.json", payload)
    _say(args, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _run(args, run: _Setup, section: str, write, **kwargs) -> int:
    """simulate and energy-drift: run, write the report, then report an
    abort on stderr (exit 3) or write's summary line on stdout."""
    sec = run.config[section]
    spec = RhsSpec(run.coeffs, dealias=sec["dealias"])
    report = run_simulation(run.initial(section), spec, run.stepper, sec["T"],
                            record_every=sec["record_every"], **kwargs)
    if report.aborted and report.error.step == 0:  # the initial data's own record
        raise ParameterError("eta0", "eta0 makes initial data whose energy, H^s norms or "
                             "predicted drift overflow")
    summary = write(report, _out_dir(args))
    if report.aborted:
        _say(args, "run aborted on non-finite state; last-good report written", sys.stderr)
        return EXIT_NUMERIC
    _say(args, summary)
    return EXIT_OK


def cmd_simulate(args, run: _Setup) -> int:
    sec = run.config["simulate"]

    def write(report, out: str) -> str:
        report.write_csv(os.path.join(out, "run.csv"))
        _write_meta(out, "run_meta.json", {
            "coefficients": dataclasses.asdict(run.coeffs),
            "grid": {"n": run.grid.n, "length": run.grid.length},
            "scheme": run.stepper.scheme, "dt": run.stepper.dt, "T": sec["T"],
            "seed": run.seed, "dealias": sec["dealias"], "aborted": report.aborted,
        })
        if report.aborted:  # no summary is printed, and the first record may be bad
            return ""
        drift = abs(report.energy[-1] - report.energy[0])
        rel = drift / report.energy[0] if report.energy[0] > 0 else 0.0
        return f"simulate: T={sec['T']} relative energy drift {rel:.3e}"

    return _run(args, run, "simulate", write, monitor_s=sec["monitor_s"])


def cmd_energy_drift(args, run: _Setup) -> int:
    def write(report, out: str) -> str:
        write_csv(os.path.join(out, "energy_drift.csv"),
                  ("t", "E", "dEdt_predicted", "drift_resid"),
                  zip(report.times, report.energy, report.drift_predicted, report.drift_residual))
        return f"energy-drift: {len(report.times)} rows written"

    return _run(args, run, "energy_drift", write, monitor_s=())  # the CSV has no H^s column


def cmd_split(args, run: _Setup) -> int:
    from .splitting import n_sweep, write_sweep_csv

    sec = run.config["split"]
    s = sec["s"]
    if not (1.0 <= s < 2.0):
        raise ConfigError(f"split.s must lie in [1, 2), got {s}")
    sweep = n_sweep(run.initial("split", s), s, sec["cutoffs"], spec=RhsSpec(run.coeffs),
                    stepper=run.stepper, t0_scale=sec["t0_scale"])
    out = _out_dir(args)
    write_sweep_csv(sweep, os.path.join(out, "split_sweep.csv"))
    _write_meta(out, "split_summary.json", sweep)
    if {"h_slope", "energy_increment_slope"} <= sweep.keys():
        _say(args, f"split: h slope {sweep['h_slope']['slope']:.3f}, "
                   f"energy increment slope {sweep['energy_increment_slope']['slope']:.3f}")
    return EXIT_OK


def cmd_multiplier_table(args, run: _Setup) -> int:
    from .symbols import eval_symbol

    sec = run.config["multiplier_table"]
    if sec["count"] < 1:
        raise ConfigError(f"multiplier_table.count must be at least 1, got {sec['count']}")
    if sec["count"] > MAX_STEPS:  # six columns of 8-byte numbers a row, held at once
        raise ConfigError(f"multiplier_table.count must be at most {MAX_STEPS:.0e}, "
                          f"got {sec['count']}")
    xi = np.linspace(sec["xi_min"], sec["xi_max"], sec["count"])
    kinds = ("phi", "psi", "tau", "omega", "varphi_denominator")
    # before the directory: an ill-posed model exits 2 here and leaves none
    columns = [eval_symbol(kind, xi, run.coeffs) for kind in kinds]
    write_csv(os.path.join(_out_dir(args), "multiplier_table.csv"),
              ("xi", "phi", "psi", "tau", "omega", "varphi"), zip(xi, *columns))
    _say(args, f"multiplier-table: {len(xi)} rows written")
    return EXIT_OK


def cmd_picard(args, run: _Setup) -> int:
    try:
        traj, diag = duhamel_picard(run.initial("picard"), RhsSpec(run.coeffs), run.stepper,
                                    run.config["picard"]["T"])
    except PicardDivergenceError as exc:
        _write_picard_csv(args, exc.diagnostics)
        _say(args, str(exc), sys.stderr)
        return EXIT_NUMERIC
    _write_picard_csv(args, diag)
    _say(args, f"picard: converged in {diag.iterations} iterations, "
               f"final H1 norm {sobolev_norm(traj[-1], 1.0):.6e}")
    return EXIT_OK


def _write_picard_csv(args, diag) -> None:
    """picard.csv in the output directory, made here: a picard that exits 2 leaves none."""
    write_csv(os.path.join(_out_dir(args), "picard.csv"), ("iteration", "diff_hs", "ratio"),
              zip(range(1, diag.iterations + 1), diag.diff_norms, [float("nan")] + diag.ratios))


def cmd_derivation_residual(args, run: _Setup) -> int:
    from .derivation import epsilon_sweep, write_sweep_csv

    sec = run.config["derivation"]
    sweep = epsilon_sweep(run.grid, run.params, epsilons=sec["epsilons"],
                          t_final=sec["t_final"], dt=sec["dt"],
                          n_checkpoints=sec["checkpoints"])
    slopes = sweep["slope_r1_L2"], sweep["slope_r2_L2"]
    if not all(map(math.isfinite, slopes)):  # so is a fit through a residual 0 or not finite
        raise NumericalError(f"the sweep's residual slopes {slopes} are not finite; "
                             "nothing written")
    out = _out_dir(args)
    write_sweep_csv(sweep, os.path.join(out, "derivation_residual.csv"))
    _write_meta(out, "derivation_summary.json", sweep)
    _say(args, f"derivation-residual: slope r1 {sweep['slope_r1_L2']:.3f}, "
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
            for key in _PARAMETERS:
                sp.add_argument(f"--{key}", type=float, default=None)
        sp.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(_load_config(args.config), _SCHEMA,
                          _COMMAND_DEFAULTS.get(args.command, {}))
        if args.command == "coeffs":
            section = config["coeffs"]
            section.update((k, getattr(args, k)) for k in _PARAMETERS
                           if getattr(args, k) is not None)
            section["rho_auto"] = section["rho_auto"] or args.rho_auto
        with np.errstate(all="ignore"):  # a failure is reported in one line, without numpy's
            return args.handler(args, _Setup(config, args.seed))
    except ValueError as exc:
        if isinstance(exc, ParameterError):
            exc = _named(exc, config, args.command.replace("-", "_"))
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
