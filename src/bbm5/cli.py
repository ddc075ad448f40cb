"""Operator-facing command line.

One JSON config document with per-command sections drives every experiment;
command-line flags override config values.  The document is resolved once
against ``_SCHEMA``, the type and default of every key: unknown keys and
wrong types are configuration errors, and a key a section leaves out takes
its default, per command where ``_COMMAND_DEFAULTS`` names one.  ``_Setup``
builds what the commands share from the result.  Exit codes are a stable
contract: 0 success, 2 configuration error, 3 numerical abort.  All CSV
bodies are byte-reproducible under a fixed seed.

A command computes first and returns ``(files, lines, code)``, each file's name
mapped to a dict, written as JSON, or to a function that writes the file at its
path.  ``main`` then makes the output directory, writes the files and prints
the lines.  So an exit 2 writes nothing, and an exit 3 writes only simulate's
or energy-drift's last-good report or picard's iteration table.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import pathlib
import re
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


class ConfigError(ParameterError):  # ConfigError(message), a message that names its key
    __init__ = functools.partialmethod(ParameterError.__init__, "")


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
    "norm_scan": {"s": (_NUM, 1.0), "trials": (int, 2000)},
    "seed": (int, 0),
}

# The config key of each parameter a ParameterError names that _named cannot
# derive from its name; a coefficient is named with the keys it depends on.
_KEYS = {
    "cutoff": "split.cutoffs: cutoff",
    "n_checkpoints": "derivation.checkpoints",
    ("derivation", "T"): "derivation.t_final",
    ("split", "T"): "the window's T (set by split.t0_scale)",
    "gamma": "gamma (set by coeffs.theta, coeffs.lam, coeffs.mu, coeffs.rho)",
    "gamma1": "gamma1 (set by coeffs.theta, coeffs.lam, coeffs.mu, coeffs.rho)",
    "delta1": f"delta1 (set by coeffs.{', coeffs.'.join(_PARAMETERS)})",
}

# Defaults that differ by command.  Each replaces the table's default of the
# one key it names, so a section that sets other keys still gets it.
_COMMAND_DEFAULTS = {
    "split": {"grid": {"n": 1024}, "split": {"initial": {"kind": "random"}}},
    "picard": {"picard": {"initial": {"kind": "zero"}}},
    "derivation-residual": {"grid": {"n": 512, "length": 16.0 * math.pi}},
    "norm-scan": {"grid": {"n": 128}, "seed": 1},
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
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# ---------------------------------------------------------------------------
# Set-up shared by the commands
# ---------------------------------------------------------------------------


class _Setup:
    """A resolved config, its command's section ``sec``, and the seed, model parameters and
    coefficients of every command.  The grid and the stepper are built when a command first
    asks, so coeffs and multiplier-table accept any grid and stepper section."""

    def __init__(self, config: dict, seed: int | None, section: str):
        self.config, self.section, self.sec = config, section, config[section]
        self.seed, self.seed_key = (config["seed"], "seed") if seed is None else (seed, "--seed")
        coeffs = config["coeffs"]
        p = ModelParameters(**{k: coeffs[k] for k in _PARAMETERS})
        if coeffs["rho_auto"]:
            rho = coef.rho_for_energy_conservation(coef.derive_first_order(p))
            p = dataclasses.replace(p, rho=float(rho))
        self.params = p
        self.coeffs = coef.derive_bbm5(p)

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

    def random_seed(self, seed: int | None = None, key: str = "") -> int:
        """The seed of random data: seed, set by key, else the run seed.  A negative one is
        refused here, naming its key, which numpy's refusal would not."""
        seed, key = (self.seed, self.seed_key) if seed is None else (seed, key)
        if seed < 0:
            raise ConfigError(f"{key} = {seed} is negative; random data need a seed >= 0")
        return seed

    def initial(self) -> Field:
        """The section's initial data, of H^s index ``initial.s``, else the section's s, else 1;
        a refusal names the keys of the data that are set before the section's."""
        init, grid = self.sec["initial"], self.grid
        kind, amp, width = init["kind"], init["amplitude"], init["width"]
        try:
            if kind == "sech2":
                return sech_squared(grid, amp, width, init["center"])
            if kind == "gaussian":
                return gaussian_bump(grid, amp, width, init["center"])
            if kind == "random":
                from .symbols import random_hs_field

                seed = self.random_seed(init["seed"], f"{self.section}.initial.seed")
                s = self.sec.get("s", 1.0) if init["s"] is None else init["s"]
                return random_hs_field(grid, s, np.random.default_rng(seed), amp)
            if kind == "cosine":
                phase = 2.0 * np.pi * init["mode"] * grid.x / grid.length
                return Field.from_samples(grid, amp * np.cos(phase))
            if kind == "zero":
                return Field.zero(grid)
            if kind == "file":
                return read_snapshot_csv(grid, init["path"])
        except ParameterError as exc:  # a ConfigError keeps its message: it names no parameter
            raise ConfigError(_named(exc, self.config, self.section, init)) from None
        raise ConfigError(f"unknown initial data kind {kind!r}")


def _named(exc: ParameterError, config: dict, section: str, initial: dict) -> str:
    """exc's message, its parameter's first mention replaced by its key in _KEYS, else in the first
    of initial (the data drawn: keys set, or no other table's), section, grid, stepper, coeffs."""
    keys = {k: f"{w}.{k}" for w in ("coeffs", "stepper", "grid", section) for k in config[w]}
    keys.update((k, f"{section}.initial.{k}") for k, v in initial.items()
                if v is not None or k not in keys)
    key = _KEYS.get((section, exc.name)) or _KEYS.get(exc.name) or keys.get(exc.name, exc.name)
    if exc.name == "eta0":  # the key that sets the size of the data, with its value
        key = "path" if config[section]["initial"]["kind"] == "file" else "amplitude"
        key = f"{section}.initial.{key} = {config[section]['initial'][key]!r}"
    return str(exc).replace(exc.name, key, 1)


def _out_dir(args, make: bool = True) -> str:
    """The output directory, made if make.  Refused, naming its key, unless the
    nearest existing path on it, the directory itself or an ancestor, is a
    writable directory; the check alone makes nothing."""
    out = args.out or os.environ.get("BBM5_OUT_DIR", ".")
    path = pathlib.Path(out)
    have = next(p for p in (path, *path.parents) if os.path.lexists(p))
    try:  # the check raises the OSError that makedirs or the first write would
        if not have.is_dir():
            code = errno.EEXIST if have == path else errno.ENOTDIR
            raise OSError(code, os.strerror(code))
        if not os.access(have, os.W_OK | os.X_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        if make:
            os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file at the path or on it, or no permission
        key = "--out" if args.out else "BBM5_OUT_DIR"
        raise ConfigError(f"{key} = {out!r} cannot be made a directory: {exc.strerror}") from None
    return out


def _write_meta(out_dir: str, name: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)  # before the file
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_coeffs(args, run: _Setup):
    p, c = run.params, run.coeffs
    f = coef.derive_first_order(p)
    payload = {
        "parameters": {**dataclasses.asdict(p), "rho_auto": run.config["coeffs"]["rho_auto"]},
        "abcd_first": dataclasses.asdict(f),
        "abcd_second": dataclasses.asdict(coef.derive_second_order(p)),
        "bbm5": dataclasses.asdict(c),
        "wellposed_regime": c.wellposed_regime,
        "energy_conserving": c.energy_conserving,
        "violations": coef.validate(c),
        "rho_star": float(coef.rho_for_energy_conservation(f)),
    }
    files = {"coeffs.json": payload} if args.out else {}  # coeffs writes to an --out only
    return files, [json.dumps(payload, indent=2, sort_keys=True)], EXIT_OK


def _report(run: _Setup, **kwargs):
    """simulate's and energy-drift's run; an abort at the initial data's own record is refused."""
    sec = run.sec
    report = run_simulation(run.initial(), RhsSpec(run.coeffs, dealias=sec["dealias"]),
                            run.stepper, sec["T"], record_every=sec["record_every"], **kwargs)
    if report.aborted and report.error.step == 0:
        raise ParameterError("eta0", "eta0 makes initial data whose energy, H^s norms or "
                             "predicted drift overflow")
    return report


_ABORTED = "run aborted on non-finite state; last-good report written"


def cmd_simulate(args, run: _Setup):
    sec = run.sec
    report = _report(run, monitor_s=sec["monitor_s"])
    files = {"run.csv": report.write_csv, "run_meta.json": {
        "coefficients": dataclasses.asdict(run.coeffs),
        "grid": {"n": run.grid.n, "length": run.grid.length},
        "scheme": run.stepper.scheme, "dt": run.stepper.dt, "T": sec["T"],
        "seed": run.seed, "dealias": sec["dealias"], "aborted": report.aborted,
    }}
    if report.aborted:
        return files, [_ABORTED], EXIT_NUMERIC
    drift = abs(report.energy[-1] - report.energy[0])
    rel = drift / report.energy[0] if report.energy[0] > 0 else 0.0
    return files, [f"simulate: T={sec['T']} relative energy drift {rel:.3e}"], EXIT_OK


def cmd_energy_drift(args, run: _Setup):
    report = _report(run, monitor_s=())  # the CSV has no H^s column
    files = {"energy_drift.csv": functools.partial(
        write_csv, header=("t", "E", "dEdt_predicted", "drift_resid"),
        rows=zip(report.times, report.energy, report.drift_predicted, report.drift_residual))}
    if report.aborted:
        return files, [_ABORTED], EXIT_NUMERIC
    return files, [f"energy-drift: {len(report.times)} rows written"], EXIT_OK


def cmd_split(args, run: _Setup):
    from .splitting import n_sweep, write_sweep_csv

    sec = run.sec
    sweep = n_sweep(run.initial(), sec["s"], sec["cutoffs"], spec=RhsSpec(run.coeffs),
                    stepper=run.stepper, t0_scale=sec["t0_scale"])
    files = {"split_sweep.csv": functools.partial(write_sweep_csv, sweep),
             "split_summary.json": sweep}
    if not {"h_slope", "energy_increment_slope"} <= sweep.keys():
        return files, [], EXIT_OK
    return files, [f"split: h slope {sweep['h_slope']['slope']:.3f}, energy increment slope "
                   f"{sweep['energy_increment_slope']['slope']:.3f}"], EXIT_OK


def cmd_multiplier_table(args, run: _Setup):
    from .symbols import eval_symbol

    sec = run.sec
    if sec["count"] < 1:
        raise ConfigError(f"multiplier_table.count must be at least 1, got {sec['count']}")
    if sec["count"] > MAX_STEPS:  # six columns of 8-byte numbers a row, held at once
        raise ConfigError(f"multiplier_table.count must be at most {MAX_STEPS:.0e}, "
                          f"got {sec['count']}")
    xi = np.linspace(sec["xi_min"], sec["xi_max"], sec["count"])
    columns = [eval_symbol(kind, xi, run.coeffs)
               for kind in ("phi", "psi", "tau", "omega", "varphi_denominator")]
    csv = functools.partial(write_csv, header=("xi", "phi", "psi", "tau", "omega", "varphi"),
                            rows=zip(xi, *columns))
    return {"multiplier_table.csv": csv}, [f"multiplier-table: {len(xi)} rows written"], EXIT_OK


def cmd_picard(args, run: _Setup):
    try:
        traj, diag = duhamel_picard(run.initial(), RhsSpec(run.coeffs), run.stepper, run.sec["T"])
        lines, code = [f"picard: converged in {diag.iterations} iterations, "
                       f"final H1 norm {sobolev_norm(traj[-1], 1.0):.6e}"], EXIT_OK
    except PicardDivergenceError as exc:
        diag, lines, code = exc.diagnostics, [str(exc)], EXIT_NUMERIC
    rows = zip(range(1, diag.iterations + 1), diag.diff_norms, [float("nan")] + diag.ratios)
    return {"picard.csv": functools.partial(write_csv, header=("iteration", "diff_hs", "ratio"),
                                            rows=rows)}, lines, code


def cmd_derivation_residual(args, run: _Setup):
    from .derivation import epsilon_sweep, write_sweep_csv

    sec = run.sec
    sweep = epsilon_sweep(run.grid, run.params, epsilons=sec["epsilons"], t_final=sec["t_final"],
                          dt=sec["dt"], n_checkpoints=sec["checkpoints"])
    slopes = sweep["slope_r1_L2"], sweep["slope_r2_L2"]
    if not all(map(math.isfinite, slopes)):  # so is a fit through a residual 0 or not finite
        raise NumericalError(f"the sweep's residual slopes {slopes} are not finite; "
                             "nothing written")
    files = {"derivation_residual.csv": functools.partial(write_sweep_csv, sweep),
             "derivation_summary.json": sweep}
    return files, [f"derivation-residual: slope r1 {slopes[0]:.3f}, "
                   f"slope r2 {slopes[1]:.3f}"], EXIT_OK


def cmd_norm_scan(args, run: _Setup):
    from .symbols import empirical_operator_norm

    sec, seed = run.sec, run.random_seed()
    # the highest threshold on s first, so that an s below one is refused before any scan
    scans = [empirical_operator_norm(name, sec["s"], sec["trials"], run.grid, run.coeffs, seed)
             for name in ("psi_grad_bilinear", "psi_trilinear", "tau_bilinear")][::-1]
    payload = {"s": sec["s"], "trials": sec["trials"], **{
        scan.estimate_id: {"max_ratio": scan.max_ratio,
                           "final_decile_growth": scan.final_decile_growth} for scan in scans}}
    return {"norm_scan.json": payload}, [
        f"{scan.estimate_id:18s} max ratio {scan.max_ratio:.6f}  "
        f"final-decile growth {scan.final_decile_growth * 100.0:.3f}%" for scan in scans], EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses -1e-3 and -inf and reads them as options
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):  # a flag that does not parse: one line and exit 2, not usage
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        "norm-scan": cmd_norm_scan,
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
    try:
        args = build_parser().parse_args(argv)
        section = args.command.replace("-", "_").removesuffix("_residual")  # the config section
        config = _resolve(_load_config(args.config), _SCHEMA,
                          _COMMAND_DEFAULTS.get(args.command, {}))
        if args.command == "coeffs":
            coeffs = config["coeffs"]
            coeffs.update((k, getattr(args, k)) for k in _PARAMETERS
                          if getattr(args, k) is not None)
            coeffs["rho_auto"] = coeffs["rho_auto"] or args.rho_auto
        if args.out or args.command != "coeffs":  # coeffs writes to an --out only
            _out_dir(args, make=False)  # refused before the run, made only to write
        with np.errstate(all="ignore"):  # a failure is reported in one line, without numpy's
            files, lines, code = args.handler(args, _Setup(config, args.seed, section))
            out = _out_dir(args) if files else None
            for name, body in files.items():
                if isinstance(body, dict):
                    _write_meta(out, name, body)
                else:
                    body(os.path.join(out, name))
        for line in [] if args.quiet else lines:
            print(line, file=sys.stderr if code else sys.stdout)
        return code
    except ParameterError as exc:
        exc = exc if isinstance(exc, ConfigError) else _named(exc, config, section, {})
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
