"""Spectral laboratory for a fifth-order BBM-type water wave equation.

``import bbm5`` loads ``coefficients``, ``spectral`` and ``evolution``.  The
symbol names (``Symbol``, ``apply_symbol``, ``apply_symbol_real``,
``eval_symbol``, ``sup_bound``) and the ``symbols`` module load
``bbm5.symbols`` on first use; ``derivation``, ``splitting`` and ``cli`` load
only when imported.
"""

from .coefficients import (
    AbcdFirst,
    AbcdSecond,
    Bbm5Coefficients,
    ModelParameters,
    REFERENCE_COEFFICIENTS,
    REFERENCE_PARAMETERS,
    derive_bbm5,
    derive_first_order,
    derive_second_order,
    rho_for_energy_conservation,
    validate,
)
from .spectral import Field, Grid, energy, low_pass, sobolev_norm, spectral_derivative
from .evolution import (
    RhsSpec,
    RunReport,
    StepperConfig,
    duhamel_picard,
    energy_drift_predicted,
    exponential_rk4_step,
    nonlinear_rhs,
    run_simulation,
    semigroup_apply,
)

__version__ = "0.1.0"

_SYMBOL_NAMES = ("Symbol", "apply_symbol", "apply_symbol_real", "eval_symbol", "sup_bound")
# the names imported above, their modules included, and those loaded on first use
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | {*_SYMBOL_NAMES, "symbols"})


def __getattr__(name: str):
    if name == "symbols" or name in _SYMBOL_NAMES:
        import importlib

        symbols = importlib.import_module(".symbols", __name__)
        return symbols if name == "symbols" else getattr(symbols, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
