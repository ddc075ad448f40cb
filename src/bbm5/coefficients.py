"""Coefficient algebra for the fifth-order BBM-type equation.

The model family is parameterized by (theta, lambda, mu, lambda1, mu1) plus an
auxiliary parameter rho.  All formulas are rational functions of rational
inputs, so every function here works unchanged with ``fractions.Fraction``
inputs (exact) or with floats (production path).

The multiplier formulas of the equation live here too (``multipliers``):
this module imports nothing else of the package, so the engine, the symbol
module, the energy and the scaled derivation law all take them from one
place.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ModelParameters",
    "AbcdFirst",
    "AbcdSecond",
    "Bbm5Coefficients",
    "REFERENCE_PARAMETERS",
    "derive_first_order",
    "derive_second_order",
    "derive_bbm5",
    "rho_for_energy_conservation",
    "validate",
    "ParameterError",
    "RegimeError",
    "require_wellposed",
    "denominator",
    "multipliers",
]

# Exact target value of the cubic-dispersion coefficient for energy
# conservation; stored as a Fraction so mixed arithmetic stays exact when the
# inputs are rational.
GAMMA_CONSERVING = Fraction(7, 48)

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)
_FIFTH = Fraction(1, 5)
_QUARTER = Fraction(1, 4)
_FIVE_24 = Fraction(5, 24)


def _is_finite(x) -> bool:
    if isinstance(x, Fraction):
        return True
    return math.isfinite(x)


@dataclass(frozen=True)
class ModelParameters:
    """The modeling parameters of the shallow-water family.

    theta is the (dimensionless) height parameter in [0, 1]; it is accepted as
    theta itself, squaring happens internally.  lam, mu, lam1, mu1 are free
    modeling parameters; rho is the auxiliary parameter entering the
    second-order velocity correction.
    """

    theta: float
    lam: float
    mu: float
    lam1: float
    mu1: float
    rho: float = 0.0

    def __post_init__(self):
        for name in ("theta", "lam", "mu", "lam1", "mu1", "rho"):
            if not _is_finite(getattr(self, name)):
                raise ParameterError(name, f"{name} must be finite, got {getattr(self, name)}")
        if not (0 <= self.theta <= 1):
            raise ParameterError("theta", f"theta must lie in [0, 1], got {self.theta}")


@dataclass(frozen=True)
class AbcdFirst:
    """First-order dispersion constants; a + b + c + d = 1/3."""

    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class AbcdSecond:
    """Second-order dispersion constants."""

    a1: float
    b1: float
    c1: float
    d1: float


@dataclass(frozen=True)
class Bbm5Coefficients:
    """Identity card of the fifth-order equation.

    wellposed_regime requires gamma1 > 0 and delta1 > 0 (coercivity of the
    denominator polynomial 1 + gamma1*xi^2 + delta1*xi^4); energy_conserving
    flags gamma = 7/48, the choice under which the quadratic energy is exactly
    conserved.
    """

    gamma1: float
    gamma2: float
    delta1: float
    delta2: float
    gamma: float

    @property
    def wellposed_regime(self) -> bool:
        return self.gamma1 > 0 and self.delta1 > 0

    @functools.cached_property  # Fraction arithmetic; read once per diagnostics record
    def energy_conserving(self) -> bool:
        return abs(self.gamma - GAMMA_CONSERVING) <= 1e-12


def derive_first_order(p: ModelParameters) -> AbcdFirst:
    """First-order constants from (theta, lam, mu)."""
    t2 = p.theta * p.theta
    return AbcdFirst(
        a=_HALF * (t2 - _THIRD) * p.lam,
        b=_HALF * (t2 - _THIRD) * (1 - p.lam),
        c=_HALF * (1 - t2) * p.mu,
        d=_HALF * (1 - t2) * (1 - p.mu),
    )


def derive_second_order(p: ModelParameters) -> AbcdSecond:
    """Second-order constants from (theta, lam, mu, lam1, mu1)."""
    t2 = p.theta * p.theta
    q3 = t2 - _THIRD
    q5 = t2 - _FIFTH
    return AbcdSecond(
        a1=-_QUARTER * q3 * q3 * (1 - p.lam) + _FIVE_24 * q5 * q5 * p.lam1,
        b1=-_FIVE_24 * q5 * q5 * (1 - p.lam1),
        c1=_FIVE_24 * (1 - t2) * q5 * (1 - p.mu1),
        d1=-_QUARTER * (1 - t2) * (1 - t2) * p.mu - _FIVE_24 * (1 - t2) * q5 * p.mu1,
    )


def derive_bbm5(p: ModelParameters) -> Bbm5Coefficients:
    """Coefficients of the fifth-order one-way model.

    Composes the first- and second-order constants with the auxiliary
    parameter rho; refuses finite parameters whose products overflow.
    """
    f = derive_first_order(p)
    s = derive_second_order(p)
    rho = p.rho
    a, b, c, d = f.a, f.b, f.c, f.d
    sixth = Fraction(1, 6)
    out = Bbm5Coefficients(
        gamma1=_HALF * (b + d - rho),
        gamma2=_HALF * (a + c + rho),
        delta1=_QUARTER
        * (2 * (s.b1 + s.d1) - (b - d + rho) * (sixth - a - d) - d * (c - a + rho)),
        delta2=_QUARTER
        * (2 * (s.a1 + s.c1) - (c - a + rho) * (sixth - a) + _THIRD * rho),
        gamma=Fraction(1, 24) * (5 - 9 * (b + d) + 9 * rho),
    )
    for name, value in vars(out).items():
        if not _is_finite(value):
            key, big = max(vars(p).items(), key=lambda item: abs(item[1]))
            raise ParameterError(key, f"{key} = {big!r} makes the derived coefficient "
                                 f"{name} non-finite ({value})")
    return out


def rho_for_energy_conservation(abcd: AbcdFirst) -> float:
    """The rho that makes gamma exactly 7/48, namely b + d - 1/6."""
    return abcd.b + abcd.d - Fraction(1, 6)


def validate(c: Bbm5Coefficients) -> list[str]:
    """Well-posedness hypothesis check; returns all violations, not the first.

    Empty list iff the (gamma1, delta1) regime admits the local theory.
    """
    violations = []
    if not c.gamma1 > 0:
        violations.append(f"gamma1 must be > 0, got {c.gamma1}")
    if not c.delta1 > 0:
        violations.append(f"delta1 must be > 0, got {c.delta1}")
    return violations


class ParameterError(ValueError):
    """A parameter value outside the range its computation admits, the refusal
    the CLI exits 2 on; ``name`` is the parameter, as its message first names it."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class RegimeError(ParameterError):
    """Coefficients that violate gamma1, delta1 > 0; ``name`` is the first that does."""


def require_wellposed(c: Bbm5Coefficients, who: str) -> None:
    """The regime check of every public entry that receives coefficients."""
    violations = validate(c)
    if violations:
        raise RegimeError("gamma1" if not c.gamma1 > 0 else "delta1",
                          f"{who} requires gamma1, delta1 > 0: " + "; ".join(violations))


def _require_integer(name: str, value, low=None, high=None) -> None:
    """Refuse a value that is not an integer, a Python or numpy one but no bool, or that
    lies below low or above high, where given, before it is used."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParameterError(name, f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ParameterError(name, f"{name} must be at least {low} and at most {high:.0e}, "
                             f"got {value}")
    if low is not None and value < low:
        raise ParameterError(name, f"need {name} >= {low}, got {value}")


def _require_positive_finite(name: str, value) -> None:
    """Refuse a value that is not a real number, a bool included, or not positive and
    finite (NaN included) before it is used."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(name, f"{name} must be a real number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise ParameterError(name, f"{name} must be positive and finite, got {value}")


def denominator(xi, c: Bbm5Coefficients):
    """varphi(xi) = 1 + gamma1*xi^2 + delta1*xi^4; vectorized over xi."""
    x2 = xi * xi  # products: numpy evaluates xi**4 as a general, much slower power
    return 1.0 + c.gamma1 * x2 + c.delta1 * x2 * x2


def multipliers(xi, c: Bbm5Coefficients):
    """(varphi, phi, psi, tau) at xi: the denominator and the three odd symbols

        phi(xi) = xi*(1 - gamma2*xi^2 + delta2*xi^4) / varphi(xi)
        psi(xi) = xi / varphi(xi)
        tau(xi) = (3*xi - 4*gamma*xi^3) / (4*varphi(xi))

    No regime check: the alpha/beta-scaled law evaluates them at
    alpha = beta = 0, where varphi is identically 1.
    """
    x2 = xi * xi
    varphi = denominator(xi, c)
    phi = xi * (1.0 - c.gamma2 * x2 + c.delta2 * x2 * x2) / varphi
    psi = xi / varphi
    tau = (3.0 * xi - 4.0 * c.gamma * xi * x2) / (4.0 * varphi)
    return varphi, phi, psi, tau


def reference_parameters(rho=Fraction(0)) -> ModelParameters:
    """The parameter set with theta^2 = 2/3, lam = lam1 = 1, mu = 0, mu1 = -6.

    With rho = 0 it yields gamma1 = gamma2 = 1/12, delta1 = 7/72,
    delta2 = 49/360 and gamma = 7/48 (energy conserving).  theta is
    irrational, so the exact-arithmetic path should construct parameters with
    theta squared substituted directly; for the float path this helper is the
    convenient entry point.
    """
    return ModelParameters(
        theta=math.sqrt(2.0 / 3.0), lam=1.0, mu=0.0, lam1=1.0, mu1=-6.0, rho=rho
    )


#: Float-valued coefficients of the reference parameter set.
REFERENCE_COEFFICIENTS = Bbm5Coefficients(
    gamma1=1.0 / 12.0,
    gamma2=1.0 / 12.0,
    delta1=7.0 / 72.0,
    delta2=49.0 / 360.0,
    gamma=7.0 / 48.0,
)

REFERENCE_PARAMETERS = reference_parameters()
