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
epsilon (Stokes number 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (
    AbcdFirst,
    Bbm5Coefficients,
    ModelParameters,
    derive_bbm5,
    derive_first_order,
)
from .evolution import (Etdrk4Stepper, NumericalError, SpectralEngine, _linear_fit, _march,
                        _time_lattice, sech_squared)
from .spectral import (
    Field,
    Grid,
    dealiased_product2,
    dealiased_product3,
    sobolev_norm,
    spectral_derivative,
    write_csv,
)

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
    2*eta_x*eta_tx.  Both work on the half spectra of their Fields.
    """

    def __init__(self, grid: Grid, p: DerivationParameters):
        self.grid = grid
        self.p = p
        self.coeffs: Bbm5Coefficients = derive_bbm5(p.model)
        self.abcd: AbcdFirst = derive_first_order(p.model)
        a, b = p.alpha, p.beta
        c = self.coeffs
        scaled = Bbm5Coefficients(
            gamma1=c.gamma1 * b,
            gamma2=c.gamma2 * b,
            delta1=c.delta1 * b**2,
            delta2=c.delta2 * b**2,
            gamma=c.gamma * b,
        )
        self.engine = SpectralEngine(
            grid, scaled, weights=(a, a * a / 8.0, a * b * 7.0 / 48.0)
        )

    def eta_t(self, eta: Field) -> Field:
        eng = self.engine
        return Field(self.grid, half=-1j * eng.phi * eta.half + eng.nonlinear_hat(eta.half))

    def eta_tt(self, eta: Field, eta_t: Field) -> Field:
        eng = self.engine
        c_hat, ct_hat = eta.half, eta_t.half
        (u, ut), (ux, utx) = eng.fine_pair(np.stack((c_hat, ct_hat)))
        nl = eng.combine(2.0 * u * ut, 3.0 * u * u * ut, 2.0 * ux * utx)
        return Field(self.grid, half=-1j * eng.phi * ct_hat + nl)


def correction_terms(
    eta: Field, eta_t: Field, p: DerivationParameters
) -> tuple[Field, Field, Field, Field, Field]:
    """The five correction fields (A, B, C, D, E) of the velocity ansatz."""
    model = p.model
    f = derive_first_order(model)
    from .coefficients import derive_second_order

    s = derive_second_order(model)
    a, b, c, d = float(f.a), float(f.b), float(f.c), float(f.d)
    rho = float(model.rho)

    eta2 = dealiased_product2(eta, eta)
    A = -0.25 * eta2

    dxx_eta = spectral_derivative(eta, 2)
    dx_eta_t = spectral_derivative(eta_t, 1)
    B = 0.5 * (c - a + rho) * dxx_eta + 0.5 * (b - d + rho) * dx_eta_t

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


def reconstruct_velocity(
    eta: Field, eta_t: Field, p: DerivationParameters, truncate_first_order: bool = False
) -> Field:
    """Assemble w = eta + alpha*A + beta*B (+ alpha*beta*C + beta^2*D + alpha^2*E)."""
    A, B, C, D, E = correction_terms(eta, eta_t, p)
    a, b = p.alpha, p.beta
    w = eta + a * A + b * B
    if not truncate_first_order:
        w = w + a * b * C + b * b * D + a * a * E
    return w


def abcd_residual_first(
    eta: Field, model: ScaledModel
) -> tuple[float, float]:
    """L^2 norms of the two first-order system residuals.

    Uses the first-order truncated velocity; time derivatives come from the
    scaled evolution law.  Residuals are expected to be O(eps^2) when
    alpha = beta = eps.
    """
    p = model.p
    a_p, b_p = p.alpha, p.beta
    ab = model.abcd
    a, b, c, d = float(ab.a), float(ab.b), float(ab.c), float(ab.d)

    eta_t = model.eta_t(eta)
    eta_tt = model.eta_tt(eta, eta_t)
    w = reconstruct_velocity(eta, eta_t, p, truncate_first_order=True)

    # first equation: eta_t + w_x + alpha*(w*eta)_x + beta*(a*w_xxx - b*eta_txx)
    w_eta = dealiased_product2(w, eta)
    r1f = (eta_t + spectral_derivative(w, 1) + a_p * spectral_derivative(w_eta, 1)
           + b_p * (a * spectral_derivative(w, 3) - b * spectral_derivative(eta_t, 2)))

    # w_t for the truncated ansatz: eta_t + alpha*A_t + beta*B_t with
    # A_t = -eta*eta_t/2 and B_t needing eta_tt through the mixed derivative
    rho = float(p.model.rho)
    A_t = -0.5 * dealiased_product2(eta, eta_t)
    B_t = (0.5 * (c - a + rho) * spectral_derivative(eta_t, 2)
           + 0.5 * (b - d + rho) * spectral_derivative(eta_tt, 1))
    w_t = eta_t + a_p * A_t + b_p * B_t

    # second equation: w_t + eta_x + alpha*w*w_x + beta*(c*eta_xxx - d*w_txx)
    w_wx = dealiased_product2(w, spectral_derivative(w, 1))
    r2f = (w_t + spectral_derivative(eta, 1) + a_p * w_wx
           + b_p * (c * spectral_derivative(eta, 3) - d * spectral_derivative(w_t, 2)))
    return sobolev_norm(r1f, 0.0), sobolev_norm(r2f, 0.0)


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

    For each eps, evolve a right-moving unit-L2 sech^2 profile under the
    scaled dynamics on [0, t_final] and record the worst-case L2 residuals of
    the first-order system at the checkpoints, which split [0, t_final] into
    equal legs of whole steps near dt.  The epsilons are stepped as
    one (E, n/2 + 1) stack, each row by its own stepper's tables, up to the
    first non-finite step.  Returns per-eps rows plus the fitted log-log
    slopes (target: order 2), which need two or more distinct epsilons in (0, 1).
    """
    if (not (0.0 < t_final < np.inf and dt > 0) or n_checkpoints < 1
            or not all(0 < eps < 1 for eps in epsilons)
            or len(epsilons) < 2 or len(set(epsilons)) < len(epsilons)):
        raise ValueError(f"need 0 < t_final < inf, dt > 0, n_checkpoints >= 1 and two or "
                         f"more epsilons, distinct and in (0, 1), got {t_final}, {dt}, "
                         f"{n_checkpoints} and {list(epsilons)}")
    steps_per, dt = _time_lattice(t_final / n_checkpoints, dt)
    models = [ScaledModel(grid, DerivationParameters(alpha=eps, beta=eps, model=model_params))
              for eps in epsilons]
    # one stepper advances every eps: row k of the state is eps k's
    stepper = Etdrk4Stepper.stack([Etdrk4Stepper(m.engine, dt) for m in models])
    eta = data if data is not None else _unit_sech2(grid)
    worst = [abcd_residual_first(eta, m) for m in models]
    c_hat = np.stack([eta.half] * len(models))
    try:
        for _step, c_hat in _march(stepper, c_hat, n_checkpoints * steps_per, every=steps_per):
            for k, model in enumerate(models):
                r1, r2 = abcd_residual_first(Field(grid, half=c_hat[k]), model)
                worst[k] = (max(worst[k][0], r1), max(worst[k][1], r2))
    except NumericalError as exc:  # named by the first non-finite eps in the given order
        exc.args = (f"non-finite state in the sweep at step {exc.step} (t = {exc.time:g}) "
                    f"at eps = {epsilons[exc.rows[0]]}",)
        raise
    rows = [{"eps": eps, "r1_L2": r1, "r2_L2": r2} for eps, (r1, r2) in zip(epsilons, worst)]
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
    slopes = [float("nan")] + [np.log(b["r1_L2"] / a["r1_L2"]) / np.log(b["eps"] / a["eps"])
                               for a, b in zip(rows, rows[1:])]
    write_csv(path, ("eps", "r1_L2", "r2_L2", "slope_running"),
              [(r["eps"], r["r1_L2"], r["r2_L2"], slope) for r, slope in zip(rows, slopes)])
