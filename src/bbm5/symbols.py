"""Fourier multiplier symbols of the fifth-order model and their bounds.

The dispersive symbol family is built from the denominator polynomial
varphi(xi) = 1 + gamma1*xi^2 + delta1*xi^4 (strictly positive in the
well-posed regime):

    phi(xi)   = xi*(1 - gamma2*xi^2 + delta2*xi^4) / varphi(xi)   (odd)
    psi(xi)   = xi / varphi(xi)                                   (odd)
    tau(xi)   = (3*xi - 4*gamma*xi^3) / (4*varphi(xi))            (odd)
    omega(xi) = |xi| / (1 + xi^2)                                 (even)

Besides pointwise evaluation and application to fields, the module provides
supremum bounds of the quotient expressions the bilinear/trilinear operator
estimates hinge on, and Monte-Carlo scans of the corresponding operator-norm
ratios on random fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (Bbm5Coefficients, ParameterError, _require_integer, denominator,
                           multipliers, require_wellposed)
from .evolution import MAX_STEPS
from .spectral import (
    CACHE_SIZE,
    Field,
    Grid,
    _odd_symbol,
    checked_sobolev_weights,
    derivative_symbol,
    padded_product,
    quadratic_form,
)

__all__ = [
    "Symbol",
    "eval_symbol",
    "apply_symbol",
    "apply_symbol_real",
    "sup_bound",
    "empirical_operator_norm",
    "random_hs_field",
]

_KINDS = {
    "phi": -1,
    "psi": -1,
    "tau": -1,
    "omega": +1,
    "varphi_denominator": +1,
}


def _omega(xi):
    return np.abs(xi) / (1.0 + xi**2)


def _check_kind(kind: str, c: Bbm5Coefficients | None) -> None:
    """Refuse an unknown kind, and coefficients missing for any kind but omega."""
    if kind not in _KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if kind != "omega" and c is None:
        raise ValueError(f"symbol {kind!r} needs coefficients")


def eval_symbol(kind: str, xi, c: Bbm5Coefficients | None = None):
    """Pointwise symbol value; vectorized over xi."""
    _check_kind(kind, c)
    xi = np.asarray(xi, dtype=np.float64)
    if kind == "omega":
        return _omega(xi)
    if kind == "varphi_denominator":
        return denominator(xi, c)
    require_wellposed(c, f"symbol {kind!r}")
    _varphi, phi, psi, tau = multipliers(xi, c)
    return {"phi": phi, "psi": psi, "tau": tau}[kind]


@dataclass(frozen=True)
class Symbol:
    """A named multiplier with parity marker."""

    kind: str
    coefficients: Bbm5Coefficients | None = None

    def __post_init__(self):
        _check_kind(self.kind, self.coefficients)

    @property
    def parity(self) -> int:
        """+1 for even symbols, -1 for odd."""
        return _KINDS[self.kind]

    def __call__(self, xi):
        return eval_symbol(self.kind, xi, self.coefficients)

    def on_grid(self, grid: Grid, half: bool = False) -> np.ndarray:
        """Symbol values on the grid's wavenumber lattice, or with half=True
        on its rfft-layout half, which is cached per grid.  Odd symbols are
        zeroed at the Nyquist slot so that application to a real field stays
        real after the -i composition."""
        tab = _half_table(self.kind, self.coefficients, grid)
        # the symbol at -xi is parity * its value at xi, exactly
        return tab if half else np.concatenate((tab, self.parity * tab[-2:0:-1]))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _half_table(kind: str, c: Bbm5Coefficients | None, grid: Grid) -> np.ndarray:
    tab = np.asarray(eval_symbol(kind, grid.half_wavenumbers, c))
    if _KINDS[kind] == -1:
        _odd_symbol(tab)
    tab.setflags(write=False)
    return tab


def apply_symbol(sym: Symbol, f: Field) -> Field:
    """Literal pointwise multiplication of the spectral coefficients.

    For odd symbols the raw result is purely imaginary on real input, not a
    real field: the Field keeps the literal full-spectrum product as its
    ``spectral``, and its samples, the real part, vanish.  The evolution
    composes it with -i (see apply_symbol_real).
    """
    return Field.from_spectral(f.grid, sym.on_grid(f.grid) * f.spectral)


def apply_symbol_real(sym: Symbol, f: Field) -> Field:
    """-i-composed application of an odd symbol; maps real fields to real."""
    if sym.parity != -1:
        raise ValueError("the -i composition applies to odd symbols only")
    return Field(f.grid, half=-1j * sym.on_grid(f.grid, half=True) * f.half)


# ---------------------------------------------------------------------------
# Supremum bounds
# ---------------------------------------------------------------------------


def _over_omega(xi, num, at_zero):
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(xi == 0.0, at_zero, num / _omega(xi))


# The quotients, as functions of (xi, psi(xi), tau(xi)).
_EXPRESSIONS = {
    "xi_psi": lambda xi, psi, tau: xi * psi,
    "xi_tau": lambda xi, psi, tau: np.abs(xi * tau),
    "omega": lambda xi, psi, tau: _omega(xi),
    "tau_over_omega": lambda xi, psi, tau: _over_omega(xi, np.abs(tau), 0.75),
    "psi_over_omega": lambda xi, psi, tau: _over_omega(xi, np.abs(psi), 1.0),
    # <xi>*xi*psi(xi) / omega(xi), the quotient behind the gradient-product
    # bilinear estimate
    "bracket_xi_psi_over_omega": lambda xi, psi, tau: _over_omega(
        xi, np.sqrt(1.0 + xi**2) * xi * psi, 0.0
    ),
}


def _expression_values(expression: str, xi, c: Bbm5Coefficients) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.float64)
    _varphi, _phi, psi, tau = multipliers(xi, c)
    return _EXPRESSIONS[expression](xi, psi, tau)


_CLOSED_FORMS = {
    "xi_psi": lambda c: 1.0 / (c.gamma1 + 2.0 * math.sqrt(c.delta1)),
    "omega": lambda c: 0.5,
}


def sup_bound(expression: str, c: Bbm5Coefficients, refine_tol: float = 1e-10) -> float:
    """Supremum over xi of a named quotient expression.

    Closed forms are used where available (|xi*psi|, omega); everything else
    is a scan of the closed half-line [0, inf] with bracketed refinement.
    Not every quotient decays: as xi -> inf, |xi*tau| and |tau|/omega tend to
    gamma/delta1, which can be their supremum, and <xi>*xi*psi/omega to 1/delta1.
    """
    if expression not in _EXPRESSIONS:
        raise ValueError(f"unknown expression {expression!r}")
    require_wellposed(c, "sup_bound")
    if expression in _CLOSED_FORMS:
        return _CLOSED_FORMS[expression](c)
    return scan_sup(expression, c, refine_tol=refine_tol)


def scan_sup(expression: str, c: Bbm5Coefficients, refine_tol: float = 1e-10) -> float:
    """Scan-based supremum (independent of any closed form): the maximum of
    a fixed scan of xi = tan(theta) on 60,001 points of theta in [0, pi/2],
    which reaches xi = tan(pi/2) = 1.6e16 and so the limit at infinity,
    refined by 65-point scans of the bracket around the argmax, each 32 times
    shorter, until the bracket is shorter than refine_tol or stops shrinking."""

    def fn(x):
        return _expression_values(expression, x, c)

    xs = np.tan(np.linspace(0.0, np.pi / 2, 60001))
    best, bracket = -np.inf, None
    for _ in range(64):  # a bound on the rounds
        vals = fn(xs)
        k = int(np.argmax(vals))
        best = max(best, vals[k])
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]
        # at float spacing the bracket stops shrinking: a round more scans the same points
        if not hi - lo >= refine_tol or (lo, hi) == bracket:
            break
        bracket, xs = (lo, hi), np.linspace(lo, hi, 65)
    return float(best)


# ---------------------------------------------------------------------------
# Empirical operator-norm scans
# ---------------------------------------------------------------------------


#: Trials drawn and evaluated as one stack by empirical_operator_norm; the
#: stack of one block is all a scan holds besides its running maximum.
#: Larger blocks are no faster at n = 128 and raise the peak memory (by about
#: 6 MB at 256).
SCAN_BLOCK = 32


def _random_halves(grid: Grid, s: float, rng: np.random.Generator, shape: tuple,
                   amplitude=1.0) -> np.ndarray:
    """Half spectra of random real fields, a stack of the given shape.

    Each field draws its n real degrees of freedom: the real parts of the
    modes 0..n/2, then the imaginary parts of the interior modes 1..n/2-1,
    scaled by mag at the two real ends and by mag/sqrt(2) inside, so that
    E|h_j|^2 = mag_j^2.  One draw of the whole stack takes them from the
    stream field by field, so it holds exactly the fields of one draw per field.
    """
    m = grid.n // 2
    mag = amplitude * (1.0 + grid.half_wavenumbers**2) ** (-(s + 1.0) / 2.0)
    mag[1:m] *= math.sqrt(0.5)
    z = rng.standard_normal((*shape, grid.n))
    h = (mag * z[..., : m + 1]).astype(complex)
    h.imag[..., 1:m] = mag[1:m] * z[..., m + 1 :]
    return h


def random_hs_field(grid: Grid, s: float, rng: np.random.Generator, amplitude=1.0) -> Field:
    """Random real field with spectral amplitudes (1+xi^2)^(-(s+1)/2) * N(0,1)."""
    half = _random_halves(grid, s, rng, (), amplitude)
    if not np.isfinite(half).all():
        raise ParameterError("s", f"s = {s!r} at amplitude {amplitude!r} makes random data "
                             f"that overflow on grid.n = {grid.n}")
    return Field(grid, half=half)


_ESTIMATES = {
    "tau_bilinear": {"arity": 2, "threshold": 0.0, "symbol": "tau"},
    "psi_trilinear": {"arity": 3, "threshold": 1.0 / 6.0, "symbol": "psi"},
    "psi_grad_bilinear": {"arity": 2, "threshold": 1.0, "symbol": "psi"},
}


def _estimate(estimate_id: str, s: float) -> dict:
    """The named estimate, refused at a Sobolev index s below its validity threshold."""
    if estimate_id not in _ESTIMATES:
        raise ValueError(f"unknown estimate {estimate_id!r}")
    spec = _ESTIMATES[estimate_id]
    if not s >= spec["threshold"]:
        raise ParameterError("s", f"s = {s} is below the threshold: {estimate_id} requires "
                             f"s >= {spec['threshold']}")
    return spec


@dataclass
class OperatorNormScan:
    estimate_id: str
    s: float
    trials: int
    max_ratio: float
    running_max: np.ndarray
    argmax_fields: tuple[Field, ...]

    @property
    def final_decile_growth(self) -> float:
        """Relative growth of the running maximum over the last 10% of trials."""
        k = max(1, int(0.9 * self.trials))
        before = self.running_max[k - 1]
        return float(self.running_max[-1] / before - 1.0) if before > 0 else 0.0


def _ratios(estimate_id: str, h: np.ndarray, w: np.ndarray, c: Bbm5Coefficients,
            grid: Grid) -> np.ndarray:
    """LHS/RHS of the named estimate, in the H^s norm of weights w, for a stack of
    trials, 0 where the RHS vanishes; h holds each trial's half spectra along its
    second-last axis."""
    rhs = np.sqrt(quadratic_form(h, grid, w)).prod(-1)  # the product of the factors' norms
    if estimate_id == "psi_grad_bilinear":
        h = h * derivative_symbol(grid, 1)
    q = padded_product(grid.n, *(h[..., k, :] for k in range(h.shape[-2])))
    q = -1j * _half_table(_ESTIMATES[estimate_id]["symbol"], c, grid) * q  # as apply_symbol_real
    lhs = np.sqrt(quadratic_form(q, grid, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs == 0.0, 0.0, lhs / rhs)


def estimate_ratio(estimate_id: str, fields: tuple[Field, ...], s: float,
                   c: Bbm5Coefficients) -> float:
    """Ratio LHS/RHS of the named multiplier estimate; 0 when RHS vanishes.  An s below
    the estimate's threshold, or that checked_sobolev_weights refuses, is refused."""
    spec = _estimate(estimate_id, s)
    if len(fields) != spec["arity"]:
        raise ValueError(f"{estimate_id} takes {spec['arity']} fields")
    for f in fields[1:]:
        fields[0]._check_grid(f)
    w = checked_sobolev_weights(fields[0].grid, s)
    return float(_ratios(estimate_id, np.stack([f.half for f in fields]), w, c, fields[0].grid))


def empirical_operator_norm(
    estimate_id: str,
    s: float,
    trials: int,
    grid: Grid,
    c: Bbm5Coefficients,
    seed: int = 0,
) -> OperatorNormScan:
    """Monte-Carlo scan of the operator-norm ratio of a multiplier estimate.

    Refuses Sobolev indices below the estimate's validity threshold, not finite
    or whose H^s weights overflow on the grid, trials or a seed that is not an integer,
    trials outside [1, MAX_STEPS] and a negative seed, each a ParameterError.
    Ratios are expected to plateau as trials accumulate (boundedness
    evidence, not a proof).  Trials are drawn and evaluated in stacks of at
    most SCAN_BLOCK; the result is that of drawing the fields one by one and
    computing each estimate_ratio.
    """
    arity = _estimate(estimate_id, s)["arity"]
    w = checked_sobolev_weights(grid, s)
    _require_integer("trials", trials, 1, MAX_STEPS)  # the running maximum takes 8 bytes a trial
    _require_integer("seed", seed, 0)  # numpy refuses a negative one, naming no parameter
    require_wellposed(c, "operator-norm scan")
    rng = np.random.default_rng(seed)
    running = np.empty(trials)
    best = 0.0
    best_halves = ()
    for start in range(0, trials, SCAN_BLOCK):
        h = _random_halves(grid, s, rng, (min(SCAN_BLOCK, trials - start), arity))
        r = _ratios(estimate_id, h, w, c, grid)
        # the running maximum from best: fmax skips NaN, as `r > best` does
        block = np.fmax.accumulate(np.concatenate(([best], r)))[1:]
        running[start:start + len(r)] = block
        if block[-1] > best:
            best = float(block[-1])
            best_halves = h[np.flatnonzero(r == best)[0]]  # its first trial
    return OperatorNormScan(
        estimate_id=estimate_id,
        s=s,
        trials=trials,
        max_ratio=best,
        running_max=running,
        argmax_fields=tuple(Field(grid, half=x) for x in best_halves),
    )
