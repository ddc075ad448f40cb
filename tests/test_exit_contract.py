"""The exit contract under generated configs: any command with one to three
keys of ``cli._SCHEMA`` set to an adversarial value or to the key's default
exits 0, 2 or 3 and raises nothing; an exit 2 or 3 prints one stderr line,
and an exit 2 leaves no ``--out`` directory.  A warning counts as a stderr
line, since a process prints it there.

A draw whose config resolves runs only if its work, grid points times
steps (times rows, windows or iterations), is at most ``WORK``, so no example
runs long; a draw the program refuses before it allocates counts as no work.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbm5 import cli
from bbm5.evolution import MAX_STEPS

WORK = 1e6

# small runs of every command, which the drawn keys then change
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
}

NUMBERS = (0, 1, -1, 1.5, 1e-300, 5e-324, 1e300, -1e300, 2**62)
ADVERSARIAL = NUMBERS + ("", "x", [], [1], {}, {"x": 1}, True, False, None)


def _leaves(table, path=()):
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, path + (key,))
        else:
            yield path + (key,), spec


KEYS = dict(_leaves(cli._SCHEMA))


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
    return command, doc


def _steps(T, dt):
    """The steps of a time loop; a loop its admission check refuses takes none."""
    steps = T / dt if T > 0 and dt > 0 else 0.0
    return max(1.0, steps) if steps <= MAX_STEPS else 0.0


def work(command, doc):
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


def _run(command, doc):
    with tempfile.TemporaryDirectory() as root:
        path, out = os.path.join(root, "config.json"), os.path.join(root, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path, "--out", out])
        lines = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        return code, lines + err.getvalue(), os.path.exists(out)


def check(command, doc):
    """Run one config and assert the exit contract."""
    code, err, made_out = _run(command, doc)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), (code, err)
    if code != cli.EXIT_OK:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == cli.EXIT_CONFIG:
        assert not made_out


def _with(command, **sections):
    """BASE[command] with the given sections' keys set."""
    doc = copy.deepcopy(BASE[command])
    for name, keys in sections.items():
        for key, value in keys.items():
            if isinstance(value, dict):
                doc.setdefault(name, {}).setdefault(key, {}).update(value)
            else:
                doc.setdefault(name, {})[key] = value
    return command, doc


@settings(max_examples=150, derandomize=True, database=None)
@given(draws())
# ill-posed coefficients: multiplier-table made its --out directory before it refused them
@example(("multiplier-table", {"multiplier_table": {"count": 5}, "coeffs": {"mu1": 1}}))
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
def test_every_generated_config_keeps_the_exit_contract(draw):
    command, doc = draw
    assume(work(command, doc) <= WORK)
    check(command, doc)
