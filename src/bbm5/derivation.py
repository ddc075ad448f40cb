"""Numerical verification of the shallow-water derivation.

The one-way velocity ansatz

    w = eta + alpha*A + beta*B + alpha*beta*C + beta^2*D + alpha^2*E

with polynomial correction fields A..E is substituted back into the
first-order two-equation system; if the derivation is consistent, the
residuals of both equations are o(alpha^2, beta^2, alpha*beta).  Here the
surface elevation evolves under the small-parameter form of the one-way
model (the alpha/beta-scaled fifth-order equation), time derivatives are
taken from that evolution law rather than finite-differenced, and the
residual order is measured by an epsilon-halving sweep with alpha = beta =
epsilon (Stokes number 1).  The sweep steps all epsilons as one stack on one
engine of the scaled law, built with epsilon as an (E, 1) column.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from .coefficients import (
    Bbm5Coefficients,
    ModelParameters,
    ParameterError,
    derive_bbm5,
    derive_first_order,
    derive_second_order,
    require_wellposed,
)
from .evolution import (Etdrk4Stepper, NumericalError, SpectralEngine, _linear_fit, _march,
                        _time_lattice, sech_squared)
from .spectral import (CACHE_SIZE, Field, Grid, dealiased_product2, dealiased_product3,
                       derivative_symbol, fine_samples, padded_product, quadratic_form,
                       sobolev_norm, sobolev_weights, spectral_derivative, write_csv)

__all__ = [
    "DerivationParameters",
    "ScaledModel",
    "correction_terms",
    "reconstruct_velocity",
    "abcd_residual_first",
    "epsilon_sweep",
]


@dataclass(frozen=True)
class DerivationParameters:
    """Amplitude (alpha) and dispersion (beta) parameters plus base model."""

    alpha: float
    beta: float
    model: ModelParameters

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0 <= v < 1):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")


class ScaledModel:
    """The alpha/beta-scaled evolution law and its time derivatives.

    eta_t is obtained by inverting the operator 1 - gamma1*beta*dx^2 +
    delta1*beta^2*dx^4 against the remaining terms.  That is the equation's
    own multiplier form -i*phi*eta_hat + N(eta) with the coefficients scaled
    to (gamma1*b, gamma2*b, delta1*b^2, delta2*b^2, gamma*b) and the
    nonlinear weights (a, a^2/8, a*b*7/48) in place of (1, 1/8, 7/48), so
    one SpectralEngine evaluates it.  eta_tt differentiates that law along
    the flow, which polarises the products to 2*eta*eta_t, 3*eta^2*eta_t and
    2*eta_x*eta_tx.  _eta_t and _eta_tt evaluate both on half spectra or stacks,
    on the engine that _scaled_engine builds.
    """

    def __init__(self, grid: Grid, p: DerivationParameters):
        self.grid = grid
        self.p = p
        self.coeffs: Bbm5Coefficients = derive_bbm5(p.model)
        self.engine = _scaled_engine(grid, self.coeffs, p.alpha, p.beta)

    def eta_t(self, eta: Field) -> Field:
        return Field(self.grid, half=_eta_t(self.engine, eta.half))

    def eta_tt(self, eta: Field, eta_t: Field) -> Field:
        return Field(self.grid, half=_eta_tt(self.engine, eta.half, eta_t.half))


def _scaled_engine(grid: Grid, c: Bbm5Coefficients, a, b) -> SpectralEngine:
    """The scaled law's engine at alpha = a, beta = b: numbers, or (E, 1) columns for a stack."""
    g1, g2, d1, d2, g = map(float, astuple(c))  # a Fraction times a column is an object array
    # b * b, not b**2: a float's ** is libm's pow, a column's the exact square
    scaled = Bbm5Coefficients(g1 * b, g2 * b, d1 * (b * b), d2 * (b * b), g * b)
    return SpectralEngine(grid, scaled, weights=(a, a * a / 8.0, a * b * 7.0 / 48.0))


def _eta_t(eng: SpectralEngine, c_hat: np.ndarray) -> np.ndarray:
    return -1j * eng.phi * c_hat + eng.nonlinear_hat(c_hat)


def _eta_tt(eng: SpectralEngine, c_hat: np.ndarray, ct_hat: np.ndarray) -> np.ndarray:
    # not the engine's work buffers: a (4, E) set would replace the (2, E) one the sweep steps in
    u, ut, ux, utx = fine_samples(
        np.stack((c_hat, ct_hat, eng.ikx_d * c_hat, eng.ikx_d * ct_hat)), eng.m)
    nl = eng.combine(2.0 * u * ut, 3.0 * u * u * ut, 2.0 * ux * utx)
    return -1j * eng.phi * ct_hat + nl


def _first_order(c_hat: np.ndarray, ct_hat: np.ndarray, model: ModelParameters, grid: Grid):
    """The first-order corrections A and B, and the eta^2 and eta_xx they are of, as half
    spectra (or stacks of them) of eta and eta_t."""
    f = derive_first_order(model)
    a, b, c, d, rho = float(f.a), float(f.b), float(f.c), float(f.d), float(model.rho)
    eta2 = padded_product(grid.n, c_hat, c_hat)
    dxx_eta = c_hat * derivative_symbol(grid, 2)
    A = eta2 * -0.25
    B = (dxx_eta * (0.5 * (c - a + rho))
         + ct_hat * derivative_symbol(grid, 1) * (0.5 * (b - d + rho)))
    return A, B, eta2, dxx_eta


def correction_terms(
    eta: Field, eta_t: Field, p: DerivationParameters
) -> tuple[Field, Field, Field, Field, Field]:
    """The five correction fields (A, B, C, D, E) of the velocity ansatz."""
    model = p.model
    f = derive_first_order(model)
    s = derive_second_order(model)
    a, b, c, d = float(f.a), float(f.b), float(f.c), float(f.d)
    rho = float(model.rho)
    A, B, eta2, dxx_eta = (Field(eta.grid, half=h)
                           for h in _first_order(eta.half, eta_t.half, model, eta.grid))

    c_coeff = 0.125 * (a + 4.0 * b + 2.0 * c - d) + 0.1875 * (a + b - c - d) + 0.375 * rho
    dxx_eta2 = spectral_derivative(eta2, 2)
    eta_dxx = dealiased_product2(eta, dxx_eta)
    dx_eta = spectral_derivative(eta, 1)
    dx_eta_sq = dealiased_product2(dx_eta, dx_eta)
    C = c_coeff * dxx_eta2 + (13.0 / 24.0) * eta_dxx + (11.0 / 48.0) * dx_eta_sq

    d3t_coeff = (
        0.5 * (float(s.b1) - float(s.d1))
        + 0.25 * (b - d + rho) * (a - d + 1.0 / 6.0)
        + 0.25 * d * (c - a + rho)
    )
    d4_coeff = 0.5 * (float(s.a1) - float(s.c1)) + 0.25 * (c - a + rho) * (a + 1.0 / 6.0) - rho / 12.0
    dxxx_eta_t = spectral_derivative(eta_t, 3)
    dxxxx_eta = spectral_derivative(eta, 4)
    D = -d3t_coeff * dxxx_eta_t - d4_coeff * dxxxx_eta

    eta3 = dealiased_product3(eta, eta, eta)
    E = 0.125 * eta3
    return A, B, C, D, E


def reconstruct_velocity(eta: Field, eta_t: Field, p: DerivationParameters) -> Field:
    """Assemble w = eta + alpha*A + beta*B + alpha*beta*C + beta^2*D + alpha^2*E."""
    a, b = p.alpha, p.beta
    A, B, C, D, E = correction_terms(eta, eta_t, p)
    return eta + a * A + b * B + a * b * C + b * b * D + a * a * E


def _residual_norms(eng: SpectralEngine, c_hat, alpha, beta, model: ModelParameters):
    """The L^2 norms (r1, r2) of the first-order system residuals of c_hat, a half spectrum
    or an (E, n/2 + 1) stack of them with eng stacked and alpha, beta (E, 1) columns."""
    grid = eng.grid
    f = derive_first_order(model)
    a, b, c, d, rho = float(f.a), float(f.b), float(f.c), float(f.d), float(model.rho)
    dx1, dx2, dx3 = (derivative_symbol(grid, k) for k in (1, 2, 3))
    eta_t = _eta_t(eng, c_hat)
    eta_tt = _eta_tt(eng, c_hat, eta_t)
    A, B, *_ = _first_order(c_hat, eta_t, model, grid)
    w = c_hat + A * alpha + B * beta  # the first-order truncated velocity

    # first equation: eta_t + w_x + alpha*(w*eta)_x + beta*(a*w_xxx - b*eta_txx)
    r1 = (eta_t + w * dx1 + padded_product(grid.n, w, c_hat) * dx1 * alpha
          + (w * dx3 * a - eta_t * dx2 * b) * beta)

    # w_t for the truncated ansatz: eta_t + alpha*A_t + beta*B_t with
    # A_t = -eta*eta_t/2 and B_t needing eta_tt through the mixed derivative
    A_t = padded_product(grid.n, c_hat, eta_t) * -0.5
    B_t = eta_t * dx2 * (0.5 * (c - a + rho)) + eta_tt * dx1 * (0.5 * (b - d + rho))
    w_t = eta_t + A_t * alpha + B_t * beta

    # second equation: w_t + eta_x + alpha*w*w_x + beta*(c*eta_xxx - d*w_txx)
    r2 = (w_t + c_hat * dx1 + padded_product(grid.n, w, w * dx1) * alpha
          + (c_hat * dx3 * c - w_t * dx2 * d) * beta)
    return np.sqrt(quadratic_form(np.stack((r1, r2)), grid, sobolev_weights(grid, 0.0)))


def abcd_residual_first(eta: Field, model: ScaledModel) -> tuple[float, float]:
    """L^2 norms of the two first-order system residuals.

    Uses the first-order truncated velocity, which forms only the
    corrections A and B; time derivatives come from the scaled evolution
    law.  Residuals are expected to be O(eps^2) when alpha = beta = eps.
    This is the one-row case of the stacked evaluation of epsilon_sweep.
    """
    if eta.grid != model.grid:
        raise ValueError("fields live on different grids")
    p = model.p
    return tuple(map(float, _residual_norms(model.engine, eta.half, p.alpha, p.beta, p.model)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _sweep_stepper(grid: Grid, model: ModelParameters, epsilons: tuple, dt: float):
    """The sweep's stepper: row k of its stack steps eps k's scaled law."""
    eps = np.array(epsilons, dtype=float)[:, None]
    return Etdrk4Stepper(_scaled_engine(grid, derive_bbm5(model), eps, eps), dt)


def epsilon_sweep(
    grid: Grid,
    model_params: ModelParameters,
    epsilons=(0.1, 0.05, 0.025, 0.0125),
    t_final: float = 1.0,
    dt: float = 2e-3,
    n_checkpoints: int = 4,
    data=None,
) -> dict:
    """Residual order measurement over an epsilon-halving sweep.

    For each eps, evolve a right-moving unit-L2 sech^2 profile (or data, a
    Field on grid) under the scaled dynamics on [0, t_final] and record the
    worst-case L2 residuals of the first-order system at the checkpoints,
    which split [0, t_final] into equal legs of whole steps near dt.  The
    epsilons are stepped as one (E, n/2 + 1) stack by one cached stepper
    (at most CACHE_SIZE), each row by its own eps's tables, up to the first
    non-finite step; a checkpoint's residuals are one evaluation of the
    stack.  Returns per-eps rows plus the fitted log-log slopes (target:
    order 2), which need two or more distinct epsilons in (0, 1).
    """
    if (n_checkpoints < 1 or not all(0 < eps < 1 for eps in epsilons)
            or len(epsilons) < 2 or len(set(epsilons)) < len(epsilons)):
        raise ValueError(f"need n_checkpoints >= 1 and two or more epsilons, distinct and "
                         f"in (0, 1), got {n_checkpoints} and {list(epsilons)}")
    if data is not None and data.grid != grid:
        raise ValueError(f"data live on {data.grid}, the sweep on {grid}")
    require_wellposed(derive_bbm5(model_params), "epsilon_sweep")
    steps_per, dt = _time_lattice(t_final, dt, n_checkpoints)
    # one stepper advances every eps: row k of the state is eps k's
    stepper = _sweep_stepper(grid, model_params, tuple(epsilons), dt)
    eps = np.array(epsilons, dtype=float)[:, None]
    c_hat = np.stack([(data if data is not None else _unit_sech2(grid)).half] * len(epsilons))
    try:
        for k, c_hat in _march(stepper, c_hat, n_checkpoints * steps_per, every=steps_per):
            r = _residual_norms(stepper.engine, c_hat, eps, eps, model_params)
            worst = r if k == 0 else np.where(r > worst, r, worst)  # max, as a NaN leaves it
    except NumericalError as exc:  # named by the first non-finite eps in the given order
        exc.args = (f"non-finite state in the sweep at step {exc.step} (t = {exc.time:g}) "
                    f"at eps = {epsilons[exc.rows[0]]}",)
        raise
    rows = [{"eps": e, "r1_L2": r1, "r2_L2": r2} for e, r1, r2 in zip(epsilons, *worst.tolist())]
    out = {"rows": rows}
    loge = np.log([r["eps"] for r in rows])
    for key in ("r1_L2", "r2_L2"):
        out[f"slope_{key}"] = _linear_fit(loge, np.log([r[key] for r in rows]))[0]
    return out


def _unit_sech2(grid: Grid) -> Field:
    """Right-moving sech^2 profile, L2-normalized."""
    f = sech_squared(grid, amplitude=1.0, width=1.0)
    norm = sobolev_norm(f, 0.0)
    return Field(grid, half=f.half / norm)


def write_sweep_csv(sweep: dict, path) -> None:
    rows = sweep["rows"]
    if not all(r["r1_L2"] > 0.0 for r in rows):  # the running slope is a log of their ratios
        raise ParameterError("sweep", "sweep has a residual r1_L2 that is not above 0, whose "
                             "running slope is undefined")
    slopes = [float("nan")] + [np.log(b["r1_L2"] / a["r1_L2"]) / np.log(b["eps"] / a["eps"])
                               for a, b in zip(rows, rows[1:])]
    write_csv(path, ("eps", "r1_L2", "r2_L2", "slope_running"),
              [(r["eps"], r["r1_L2"], r["r2_L2"], slope) for r, slope in zip(rows, slopes)])
