"""The exit contract under generated configs: any command with one to three
keys of ``cli._SCHEMA`` set to an adversarial value or to the key's default,
up to two of its flags (``--seed``, and coeffs' parameter flags and
``--rho-auto``) given an adversarial value, and an ``--out`` that is a
directory to make, a file or a path under a file, exits 0, 2 or 3 and raises
nothing; an exit 2 or 3 prints one stderr line, and an exit 2, or an exit 3
of a command other than simulate, energy-drift and picard, leaves no
``--out`` directory.  A warning counts as a stderr line, since a process
prints it there.

A draw whose config resolves runs only if its work, grid points times
steps (times rows, windows or iterations), is at most ``WORK``, so no example
runs long; a draw the program refuses before it allocates counts as no work.

Exit 2 is a ``ParameterError`` and nothing else: each library refusal that a
config can reach raises one, named for the parameter it refuses, which
``cli.main`` maps to the config key.  Any other exception escapes ``cli.main``.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbm5 import cli
from bbm5.coefficients import ModelParameters, ParameterError, derive_bbm5
from bbm5.derivation import epsilon_sweep
from bbm5.evolution import (MAX_STEPS, RhsSpec, StepperConfig, _time_lattice, duhamel_picard,
                            run_simulation, sech_squared)
from bbm5.spectral import Grid, read_snapshot_csv
from bbm5.splitting import SplitConfig, iterate, n_sweep
from bbm5.symbols import empirical_operator_norm

WORK = 1e6

# small runs of every command, which the drawn keys then change; test_startup and the
# single-key sweep run them too
BASE = {
    "coeffs": {},
    "multiplier-table": {"multiplier_table": {"count": 5}},
    "simulate": {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "simulate": {"T": 0.02}},
    "energy-drift": {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "energy_drift": {"T": 0.02}},
    "split": {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "split": {"cutoffs": [2, 4, 8]}},
    "picard": {"grid": {"n": 64, "length": 6.0},
               "picard": {"T": 0.1, "initial": {"kind": "random", "amplitude": 0.01}}},
    "derivation-residual": {"grid": {"n": 64, "length": 16.0 * math.pi},
                            "derivation": {"epsilons": [0.1, 0.05], "t_final": 0.02,
                                           "dt": 0.01, "checkpoints": 1}},
    "norm-scan": {"grid": {"n": 64}, "norm_scan": {"trials": 5}},
}

# the commands whose exit 3 writes: the last-good report, or the iteration table
WRITES_ON_ABORT = ("simulate", "energy-drift", "picard")

NUMBERS = (0, 1, -1, 1.5, 1e-300, 5e-324, 1e300, -1e300, 2**62)
ADVERSARIAL = NUMBERS + ("", "x", [], [1], {}, {"x": 1}, True, False, None)


def _leaves(table, path=()):
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, path + (key,))
        else:
            yield path + (key,), spec


KEYS = dict(_leaves(cli._SCHEMA))
FLAGS = {command: ["--seed"] for command in BASE}
FLAGS["coeffs"] += [f"--{key}" for key in cli._PARAMETERS] + ["--rho-auto"]
OUTS = ("a directory to make", "a file", "under a file")


def default(command, path):
    table = cli._COMMAND_DEFAULTS.get(command, {})
    for key in path[:-1]:
        table = table.get(key, {})
    value = table.get(path[-1], KEYS[path][1])
    return list(value) if isinstance(value, tuple) else value


def set_key(doc, path, value):
    """Set the key at path of the config doc, making its sections."""
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


@st.composite
def draws(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    paths = draw(st.lists(st.sampled_from(sorted(KEYS)), min_size=1, max_size=3, unique=True))
    doc = copy.deepcopy(BASE[command])
    for path in paths:
        values = st.sampled_from(ADVERSARIAL) | st.just(default(command, path))
        if KEYS[path][0] is list:
            values |= st.lists(st.sampled_from(NUMBERS), max_size=3)
        set_key(doc, path, draw(values))
    flags = []
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=2, unique=True)):
        value = str(draw(st.sampled_from(ADVERSARIAL)))
        flags += draw(st.sampled_from([[f"{flag}={value}"], [flag, value], [flag]]))
    return command, doc, flags, draw(st.just(OUTS[0]) | st.sampled_from(OUTS))  # 2/3 a directory


def _steps(T, dt):
    """The steps of a time loop; a loop its admission check refuses takes none."""
    steps = T / dt if T > 0 and dt > 0 else 0.0
    return max(1.0, steps) if steps <= MAX_STEPS else 0.0


def work(command, doc):
    if isinstance(doc, bytes):  # a config file that does not parse
        return 0.0
    try:
        config = cli._resolve(doc, cli._SCHEMA, cli._COMMAND_DEFAULTS.get(command, {}))
    except cli.ConfigError:
        return 0.0
    if command == "coeffs":
        return 0.0
    if command == "multiplier-table":
        return float(config["multiplier_table"]["count"])
    n = config["grid"]["n"]
    if n > MAX_STEPS:  # refused before anything is built
        return 0.0
    n, dt = max(n, 1), config["stepper"]["dt"]
    if command == "norm-scan":  # grid points times the fields the three estimates draw
        trials = config["norm_scan"]["trials"]
        return n * trials * (2 + 3 + 2) if 1 <= trials <= MAX_STEPS else 0.0
    if command in ("simulate", "energy-drift", "picard"):
        section = config[command.replace("-", "_")]
        iterations = config["stepper"]["picard_max_iter"] if command == "picard" else 1
        return n * _steps(section["T"], dt) * max(iterations, 1)
    if command == "split":
        sec = config["split"]
        if not (1.0 <= sec["s"] < 2.0 and 0.0 < sec["t0_scale"] < math.inf
                and all(N > 0 for N in sec["cutoffs"])):
            return n
        try:
            t0 = [max(sec["t0_scale"] * N ** (-2.0 * (2.0 - sec["s"])), 10.0 * dt)
                  for N in sec["cutoffs"]]
        except OverflowError:  # refused before any window steps
            return 0.0
        return 2 * n * sum(_steps(t, dt) for t in t0)
    sec = config["derivation"]
    legs = max(sec["checkpoints"], 1)
    return n * len(sec["epsilons"]) * max(legs, legs * _steps(sec["t_final"] / legs, sec["dt"]))


def _run(command, doc, flags, out):
    """Run command on the config doc (bytes: the file's content) with flags, its --out one of
    OUTS: the config file itself is the file."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "config.json")
        out = {OUTS[0]: os.path.join(root, "out"), OUTS[1]: path,
               OUTS[2]: os.path.join(path, "out")}[out]
        with open(path, "wb") as fh:
            fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path, "--out", out, *flags])
        lines = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        return code, lines + err.getvalue(), os.path.isdir(out)


def check(command, doc, flags=(), out=OUTS[0]):
    """Run one config and assert the exit contract."""
    code, err, made_out = _run(command, doc, flags, out)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), (code, err)
    if code != cli.EXIT_OK:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == cli.EXIT_CONFIG or (code == cli.EXIT_NUMERIC and command not in WRITES_ON_ABORT):
        assert not made_out


def _with(command, flags=(), out=OUTS[0], **sections):
    """A draw: BASE[command] with the given sections' keys set, the flags and the --out."""
    doc = copy.deepcopy(BASE[command])
    for name, keys in sections.items():
        for key, value in keys.items():
            if isinstance(value, dict):
                doc.setdefault(name, {}).setdefault(key, {}).update(value)
            else:
                doc.setdefault(name, {})[key] = value
    return command, doc, list(flags), out


@settings(max_examples=150, derandomize=True, database=None)
@given(draws())
# ill-posed coefficients: multiplier-table made its --out directory before it refused them
@example(_with("multiplier-table", coeffs={"mu1": 1}))
# 8*cs*r0*(1 + r0) underflowed to 0: a ZeroDivisionError in local_existence_time
@example(_with("picard", stepper={"cs": 5e-324}))
# the residuals underflow to 0: a ZeroDivisionError in the CSV writer, after the directory
@example(_with("derivation-residual", grid={"length": 1e300}))
# ill-posed: RuntimeWarnings, then JSON's "Out of range float values", after the directory
@example(_with("derivation-residual", coeffs={"rho": 1e300}))
# two RuntimeWarnings, then "non-finite samples", naming no key
@example(_with("simulate", simulate={"initial": {"width": 0}}))
@example(_with("energy-drift", energy_drift={"initial": {"kind": "gaussian", "width": 0}}))
# an overflow RuntimeWarning in the H^s norm, then a message naming T
@example(_with("picard", picard={"initial": {"amplitude": 1e300}}))
@example(_with("picard", picard={"initial": {"amplitude": -1e300}}))
@example(_with("picard", stepper={"sobolev_s": 1e300}))
@example(_with("picard", stepper={"sobolev_s": 2**62}))
# N^(-2*(2-s)) past a float's range: an OverflowError in SplitConfig.t0
@example(_with("split", split={"cutoffs": [5e-324]}))
# exit 3 after six overflow RuntimeWarnings from the window steps
@example(_with("split", split={"initial": {"amplitude": 1e300}}))
# width**2 past a float's range: an OverflowError in gaussian_bump
@example(_with("simulate", simulate={"initial": {"kind": "gaussian", "width": 1e300}}))
# numpy's default_rng refused a negative seed, naming no key
@example(("split", {**BASE["split"], "seed": -1}, [], OUTS[0]))
@example(_with("picard", picard={"initial": {"seed": -1}}))
# the scans' plain ValueErrors (s, trials) and numpy's refusal of a negative seed: exit 1
@example(_with("norm-scan", norm_scan={"s": 0.5}))
@example(_with("norm-scan", norm_scan={"trials": 0}))
@example(_with("norm-scan", flags=["--seed", "-1"]))
# argparse printed its usage and raised SystemExit(2) out of cli.main
@example(_with("coeffs", flags=["--theta=abc"]))
@example(_with("simulate", flags=["--seed", "abc"]))
@example(_with("coeffs", flags=["--theta", "-1e+300"]))
@example(_with("split", flags=["--lam=1"]))
# a config that is not UTF-8: a UnicodeDecodeError
@example(("coeffs", b"\xff\xfe{}", [], OUTS[0]))
# an --out that cannot be a directory: a FileExistsError or NotADirectoryError
@example(_with("coeffs", out=OUTS[1]))
@example(_with("simulate", out=OUTS[2]))
@example(_with("multiplier-table", out=OUTS[1]))
def test_every_generated_config_keeps_the_exit_contract(draw):
    command, doc, flags, out = draw
    assume(work(command, doc) <= WORK)
    check(command, doc, flags, out)


_GRID = Grid(n=64, length=6.0)
_MODEL = ModelParameters(theta=(2.0 / 3.0) ** 0.5, lam=1.0, mu=0.0, lam1=1.0, mu1=-6.0)
_C = derive_bbm5(_MODEL)
_SPEC = RhsSpec(_C)
_PULSE = sech_squared(_GRID, 0.1, 1.0)


def _snapshot(root, body):
    path = os.path.join(root, "snap.csv")
    with open(path, "w") as fh:
        fh.write("x,eta\n" + body)
    return path


@pytest.mark.parametrize("call,name", [
    (lambda tmp: ModelParameters(1.5, 1.0, 0.0, 1.0, -6.0), "theta"),
    (lambda tmp: ModelParameters(0.5, math.nan, 0.0, 1.0, -6.0), "lam"),
    (lambda tmp: _time_lattice(0.0, 0.01), "T"),
    (lambda tmp: _time_lattice(0.1, -0.01), "dt"),
    (lambda tmp: _time_lattice(1e12, 1e-3), "T"),
    (lambda tmp: StepperConfig(scheme="euler"), "scheme"),
    (lambda tmp: StepperConfig(dt=0.0), "dt"),
    (lambda tmp: StepperConfig(picard_tol=0.0), "picard_tol"),
    (lambda tmp: StepperConfig(picard_max_iter=0), "picard_max_iter"),
    (lambda tmp: StepperConfig(contraction_constant_cs=0.0), "cs"),
    (lambda tmp: run_simulation(_PULSE, _SPEC, StepperConfig(dt=0.01), 0.1, record_every=0),
     "record_every"),
    (lambda tmp: duhamel_picard(_PULSE, _SPEC, StepperConfig(dt=1e-5), 10.0), "T"),  # nodes
    (lambda tmp: duhamel_picard(_PULSE, _SPEC, StepperConfig(dt=0.01), 50.0), "T"),  # T_bar
    (lambda tmp: Grid(n=7, length=1.0), "n"),
    (lambda tmp: Grid(n=64, length=0.0), "length"),
    (lambda tmp: SplitConfig(cutoff=0.0, s=1.5), "cutoff"),
    (lambda tmp: SplitConfig(cutoff=4.0, s=1.5, t0_scale=0.0), "t0_scale"),
    (lambda tmp: SplitConfig(cutoff=5e-324, s=1.5).t0(0.01), "cutoff"),
    (lambda tmp: iterate(_PULSE, SplitConfig(cutoff=4.0, s=1.5),
                         RhsSpec(derive_bbm5(ModelParameters(0.9, 1.0, 0.0, 1.0, -6.0))),
                         StepperConfig(dt=0.01)), "gamma"),
    (lambda tmp: n_sweep(_PULSE, 1.5, (4.0, 4.0), spec=_SPEC), "cutoffs"),
    (lambda tmp: n_sweep(_PULSE, 1.5, (4.0, 16.0), spec=_SPEC), "cutoffs"),
    (lambda tmp: epsilon_sweep(_GRID, _MODEL, (0.1, 0.05), n_checkpoints=0), "n_checkpoints"),
    (lambda tmp: epsilon_sweep(_GRID, _MODEL, (0.1, 0.1)), "epsilons"),
    (lambda tmp: read_snapshot_csv(_GRID, os.path.join(tmp, "none.csv")), "path"),
    (lambda tmp: read_snapshot_csv(_GRID, _snapshot(tmp, "0,0.5\n" * 63)), "path"),
    (lambda tmp: read_snapshot_csv(_GRID, _snapshot(tmp, "0,nan\n" * 64)), "path"),
    (lambda tmp: read_snapshot_csv(_GRID, _snapshot(tmp, "0,abc\n" * 64)), "path"),
    (lambda tmp: empirical_operator_norm("psi_trilinear", 0.1, 5, _GRID, _C), "s"),
    # the weights overflowed, so every ratio was NaN and the maximum read 0
    pytest.param(lambda tmp: empirical_operator_norm("tau_bilinear", 200.0, 5, _GRID, _C), "s",
                 id="weights-overflow"),
    (lambda tmp: empirical_operator_norm("tau_bilinear", 1.0, 0, _GRID, _C), "trials"),
    # it failed in numpy's _ArrayMemoryError, allocating the running maximum
    (lambda tmp: empirical_operator_norm("tau_bilinear", 1.0, 10**12, _GRID, _C), "trials"),
    (lambda tmp: empirical_operator_norm("tau_bilinear", 1.0, 5, _GRID, _C, seed=-1), "seed"),
])
def test_each_refusal_a_config_reaches_is_a_parameter_error_naming_its_parameter(tmp_path, call,
                                                                                  name):
    # each was a plain ValueError, which cli.main no longer reports as exit 2
    with np.errstate(all="ignore"), pytest.raises(ParameterError) as caught:
        call(str(tmp_path))
    assert caught.value.name == name and name in str(caught.value)
