"""Start-up: what importing bbm5 and running each CLI command loads.

* No command loads scipy (``import scipy.stats`` alone costs about a second).
* ``import bbm5`` loads ``coefficients``, ``spectral`` and ``evolution``; its
  symbol names load ``bbm5.symbols`` on first use.
* ``import bbm5.cli`` loads those and ``cli``.  ``coeffs``, ``simulate``,
  ``energy-drift`` and ``picard`` load nothing more; ``split`` loads
  ``splitting`` (and ``symbols`` for random data), ``derivation-residual``
  loads ``derivation``, and ``multiplier-table`` and ``norm-scan`` load ``symbols``.
* Every name ``bbm5`` exports resolves to the object its module defines, and
  every name a module exports exists.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bbm5
from test_exit_contract import BASE

# Runs in a fresh interpreter: argv[1] is the configs as JSON, argv[2] a directory.
PROGRAM = """
import json, os, sys
import bbm5, bbm5.cli, bbm5.symbols
configs, root = json.loads(sys.argv[1]), sys.argv[2]
codes = {}
for command, payload in configs.items():
    path = os.path.join(root, command + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    codes[command] = bbm5.cli.main([command, "--config", path, "--quiet",
                                    "--out", os.path.join(root, command)])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


# Runs in a fresh interpreter: argv[1] is the configs as JSON, argv[2] a directory and
# argv[3] the steps, each an import or a command; prints the bbm5 modules each step loads.
LOADS = """
import json, os, sys
configs, root, steps = json.loads(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
loaded = lambda: {m for m in sys.modules if m.split(".")[0] == "bbm5"}
new = {}
for step in steps:
    before = loaded()
    if step.startswith("import "):
        __import__(step.split()[1])
    else:
        path = os.path.join(root, step + ".json")
        with open(path, "w") as fh:
            json.dump(configs[step], fh)
        argv = [step, "--config", path, "--quiet", "--out", os.path.join(root, step)]
        assert sys.modules["bbm5.cli"].main(argv) == 0, step
    new[step] = sorted(loaded() - before)
print(json.dumps(new))
"""

# Runs in a fresh interpreter: the public names of ``dir(bbm5)`` and of ``from bbm5 import *``.
NAMES = """
import json
import bbm5
public = [name for name in dir(bbm5) if not name.startswith("_")]
namespace = {}
exec("from bbm5 import *", namespace)
print(json.dumps({"dir": public, "star": sorted(set(namespace) - {"__builtins__"})}))
"""

# The names ``bbm5`` exports, by the module that defines them, and those modules.
EXPORTS = {
    "coefficients": ("AbcdFirst", "AbcdSecond", "Bbm5Coefficients", "ModelParameters",
                     "REFERENCE_COEFFICIENTS", "REFERENCE_PARAMETERS", "derive_bbm5",
                     "derive_first_order", "derive_second_order",
                     "rho_for_energy_conservation", "validate"),
    "spectral": ("Field", "Grid", "energy", "low_pass", "sobolev_norm", "spectral_derivative"),
    "symbols": ("Symbol", "apply_symbol", "apply_symbol_real", "eval_symbol", "sup_bound"),
    "evolution": ("RhsSpec", "RunReport", "StepperConfig", "duhamel_picard",
                  "energy_drift_predicted", "exponential_rk4_step", "nonlinear_rhs",
                  "run_simulation", "semigroup_apply"),
}
PUBLIC = sorted(set(EXPORTS).union(*EXPORTS.values()))


def _fresh(program, *args):
    """The JSON that program prints last, run in a new interpreter on this bbm5."""
    src = str(Path(bbm5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", program, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_command_runs_without_loading_scipy(tmp_path):
    result = _fresh(PROGRAM, json.dumps(BASE), str(tmp_path))
    assert result["codes"] == {command: 0 for command in BASE}
    assert result["scipy"] == []


@pytest.mark.parametrize("steps,loads", [
    (["import bbm5", "import bbm5.cli", "coeffs", "simulate", "energy-drift", "picard",
      "derivation-residual", "multiplier-table"],
     {"import bbm5": ["bbm5", "bbm5.coefficients", "bbm5.evolution", "bbm5.spectral"],
      "import bbm5.cli": ["bbm5.cli"], "coeffs": [], "simulate": [], "energy-drift": [],
      "picard": [], "derivation-residual": ["bbm5.derivation"],
      "multiplier-table": ["bbm5.symbols"]}),
    (["import bbm5.cli", "split"],
     {"import bbm5.cli": ["bbm5", "bbm5.cli", "bbm5.coefficients", "bbm5.evolution",
                          "bbm5.spectral"],
      "split": ["bbm5.splitting", "bbm5.symbols"]}),
    (["import bbm5.cli", "norm-scan"],
     {"import bbm5.cli": ["bbm5", "bbm5.cli", "bbm5.coefficients", "bbm5.evolution",
                          "bbm5.spectral"],
      "norm-scan": ["bbm5.symbols"]}),
], ids=["import-then-each-command", "split", "norm-scan"])
def test_each_entry_point_loads_only_the_modules_it_runs(tmp_path, steps, loads):
    # picard on sech2 data: random data is what loads bbm5.symbols
    configs = {**BASE, "picard": {**BASE["picard"], "picard": {
        "T": 0.1, "initial": {"kind": "sech2", "amplitude": 0.01}}}}
    assert _fresh(LOADS, json.dumps(configs), str(tmp_path), json.dumps(steps)) == loads


def test_every_name_bbm5_exports_is_its_modules_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"bbm5.{module}")
        assert getattr(bbm5, module) is owner
        for name in names:
            assert getattr(bbm5, name) is getattr(owner, name), name
    namespace = {}
    exec("from bbm5 import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert all(namespace[name] is getattr(bbm5, name) for name in PUBLIC)
    with pytest.raises(AttributeError, match="no_such_name"):
        bbm5.no_such_name


def test_dir_and_star_import_of_a_fresh_bbm5_give_its_public_names():
    assert _fresh(NAMES) == {"dir": PUBLIC, "star": PUBLIC}


def test_every_name_in_a_modules_all_exists():
    # a stale entry breaks ``from bbm5.<module> import *``
    exported = {}
    for info in pkgutil.iter_modules(bbm5.__path__):
        module = importlib.import_module(f"bbm5.{info.name}")
        exported[info.name] = getattr(module, "__all__", ())
        missing = [name for name in exported[info.name] if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    assert all(exported[name] for name in ("coefficients", "derivation", "evolution",
                                           "spectral", "splitting", "symbols"))
