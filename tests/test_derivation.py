"""Velocity-ansatz corrections and the residual order of the one-equation
reduction of the first-order system."""

import math

import numpy as np
import pytest

from bbm5.coefficients import reference_parameters
from bbm5.derivation import (
    DerivationParameters,
    ScaledModel,
    abcd_residual_first,
    correction_terms,
    epsilon_sweep,
    reconstruct_velocity,
)
from bbm5.evolution import Etdrk4Stepper, NumericalError, _time_lattice
from bbm5.spectral import Field, Grid, sobolev_norm


@pytest.fixture
def dgrid():
    return Grid(n=256, length=16.0 * math.pi)


def _params(alpha=0.1, beta=0.1):
    return DerivationParameters(alpha=alpha, beta=beta, model=reference_parameters())


def _eta_pair(grid, p, amplitude=0.3):
    model = ScaledModel(grid, p)
    eta = Field.from_samples(
        grid, amplitude / np.cosh(grid.x - grid.length / 2.0) ** 2
    )
    return eta, model.eta_t(eta)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def test_parameter_range_guard():
    with pytest.raises(ValueError, match="alpha"):
        DerivationParameters(alpha=1.0, beta=0.1, model=reference_parameters())
    with pytest.raises(ValueError, match="beta"):
        DerivationParameters(alpha=0.1, beta=-0.1, model=reference_parameters())


# ---------------------------------------------------------------------------
# Correction terms
# ---------------------------------------------------------------------------


def test_corrections_vanish_on_zero_field(dgrid):
    p = _params()
    z = Field.zero(dgrid)
    for term in correction_terms(z, z, p):
        assert np.all(term.spectral == 0.0)


def test_cubic_correction_is_eighth_of_cube(dgrid):
    p = _params()
    eta = Field.from_samples(dgrid, np.cos(dgrid.x))
    zero = Field.zero(dgrid)
    *_, E = correction_terms(eta, zero, p)
    expected = 0.125 * np.cos(dgrid.x) ** 3
    assert np.abs(E.samples - expected).max() < 1e-12


def test_quadratic_correction_integral_identity(dgrid):
    # A = -eta^2/4, so for unit-L2 data the integral of A is -1/4
    p = _params()
    raw = Field.from_samples(
        dgrid, 1.0 / np.cosh(dgrid.x - dgrid.length / 2.0) ** 2
    )
    eta = Field.from_spectral(dgrid, raw.spectral / sobolev_norm(raw, 0.0))
    A, *_ = correction_terms(eta, Field.zero(dgrid), p)
    assert dgrid.length * A.zero_mode == pytest.approx(-0.25, rel=1e-12)  # the integral
    # and A is pointwise nonpositive (up to truncation ripple), so
    # ||A||_L1 = 1/4
    assert A.samples.max() <= 1e-9


# ---------------------------------------------------------------------------
# Velocity reconstruction
# ---------------------------------------------------------------------------


def test_velocity_leading_order(dgrid):
    p = _params(alpha=0.0, beta=0.0)
    eta, eta_t = _eta_pair(dgrid, p)
    w = reconstruct_velocity(eta, eta_t, p)
    assert np.abs(w.spectral - eta.spectral).max() == 0.0


def test_first_order_truncation_matches_manual_assembly(dgrid):
    p = _params()
    eta, eta_t = _eta_pair(dgrid, p)
    A, B, *_ = correction_terms(eta, eta_t, p)
    w = reconstruct_velocity(eta, eta_t, p, truncate_first_order=True)
    manual = eta.spectral + p.alpha * A.spectral + p.beta * B.spectral
    assert np.abs(w.spectral - manual).max() < 1e-15


def test_velocity_deviation_is_first_order():
    # ||w - eta||_L2 = O(eps): halving eps roughly halves the gap
    grid = Grid(n=256, length=16.0 * math.pi)
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        p = _params(alpha=eps, beta=eps)
        eta, eta_t = _eta_pair(grid, p)
        w = reconstruct_velocity(eta, eta_t, p)
        gaps.append(sobolev_norm(w - eta, 0.0))
    slopes = [
        math.log(gaps[k] / gaps[k + 1]) / math.log(2.0) for k in range(2)
    ]
    assert min(slopes) >= 0.9


# ---------------------------------------------------------------------------
# Scaled evolution law
# ---------------------------------------------------------------------------


def test_scaled_eta_t_single_mode_hand_algebra():
    # eta = eps*cos(x): eta^2 = eps^2*(1 + cos 2x)/2, (eta_x)^2 =
    # eps^2*(1 - cos 2x)/2, eta^3 = eps^3*(3 cos x + cos 3x)/4, and the
    # scaled law divides by varphi_b(k) = 1 + gamma1*b*k^2 + delta1*b^2*k^4.
    grid = Grid(n=64, length=2.0 * math.pi)
    p = _params(alpha=0.1, beta=0.05)
    model = ScaledModel(grid, p)
    c, a, b = model.coeffs, p.alpha, p.beta
    eps = 1e-2
    out = model.eta_t(Field.from_samples(grid, eps * np.cos(grid.x))).spectral

    def varphi(k):
        return 1.0 + c.gamma1 * b * k**2 + c.delta1 * b**2 * k**4

    lin1 = (1.0 - c.gamma2 * b + c.delta2 * b**2) / varphi(1.0)
    quad2 = (0.75 * a * 2.0 - a * b * c.gamma * 8.0) / varphi(2.0)
    expect1 = -1j * (lin1 * eps / 2.0 - 0.125 * a * a / varphi(1.0) * 3.0 * eps**3 / 8.0)
    expect2 = -1j * (quad2 * eps**2 / 4.0
                     + (7.0 / 48.0) * a * b * 2.0 / varphi(2.0) * eps**2 / 4.0)
    expect3 = -1j * (-0.125 * a * a * 3.0 / varphi(3.0) * eps**3 / 8.0)
    assert out[1] == pytest.approx(expect1, rel=1e-12, abs=1e-18)
    assert out[2] == pytest.approx(expect2, rel=1e-12, abs=1e-18)
    assert out[3] == pytest.approx(expect3, rel=1e-12, abs=1e-18)
    assert out[-1] == pytest.approx(np.conj(expect1), rel=1e-12, abs=1e-18)
    assert out[0] == 0.0
    assert np.abs(out[4:-3]).max() <= 1e-15


def test_scaled_eta_tt_is_the_derivative_along_the_flow(dgrid):
    # eta_tt(eta, eta_t) is the directional derivative of eta_t(.) along
    # eta_t; eta_t is cubic in eta, so the centred difference is O(h^2)
    p = _params(alpha=0.1, beta=0.1)
    model = ScaledModel(dgrid, p)
    eta, eta_t = _eta_pair(dgrid, p, amplitude=0.5)
    exact = model.eta_tt(eta, eta_t).spectral
    errs = []
    for h in (1e-2, 5e-3):
        plus = model.eta_t(eta + h * eta_t).spectral
        minus = model.eta_t(eta - h * eta_t).spectral
        errs.append(np.abs((plus - minus) / (2.0 * h) - exact).max())
    scale = np.abs(exact).max()
    assert errs[0] <= 1e-7 * scale
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def test_residual_zero_at_eps_zero(dgrid):
    p = _params(alpha=0.0, beta=0.0)
    model = ScaledModel(dgrid, p)
    eta, _ = _eta_pair(dgrid, p)
    r1, r2 = abcd_residual_first(eta, model)
    # at eps = 0 the system reduces to the wave equation and the reduction is
    # exact: eta_t = -eta_x, w = eta
    assert r1 < 1e-12 and r2 < 1e-12


def test_residual_translation_invariant(dgrid):
    p = _params()
    model = ScaledModel(dgrid, p)
    eta, _ = _eta_pair(dgrid, p)
    r1a, r2a = abcd_residual_first(eta, model)
    shift = 37  # grid points
    shifted = Field.from_samples(dgrid, np.roll(eta.samples, shift))
    r1b, r2b = abcd_residual_first(shifted, model)
    assert r1b == pytest.approx(r1a, rel=1e-10)
    assert r2b == pytest.approx(r2a, rel=1e-10)


@pytest.mark.parametrize("t_final,dt,n_checkpoints,epsilons", [
    *(pytest.param(*case, (0.1, 0.05), id="-".join(map(str, case)))
      for case in [(0.1, 0.0, 1), (0.1, 0.01, 0), (0.0, 0.01, 1), (math.inf, 0.01, 1)]),
    pytest.param(0.1, 0.01, 1, (0.0, 0.1), id="eps-zero"),
    pytest.param(0.1, 0.01, 1, (0.1, -0.05), id="eps-negative"),
    pytest.param(0.1, 0.01, 1, (), id="eps-none"),
    pytest.param(0.1, 0.01, 1, (0.1,), id="eps-one"),
    pytest.param(0.1, 0.01, 1, (0.1, 0.1), id="eps-one-distinct"),
    pytest.param(0.1, 0.01, 1, (0.1, 0.1, 0.05), id="eps-repeated"),
    pytest.param(0.1, 0.01, 1, (0.1, 1.5), id="eps-above-one"),
])
def test_epsilon_sweep_rejects_out_of_range(t_final, dt, n_checkpoints, epsilons):
    with pytest.raises(ValueError, match="n_checkpoints >= 1"):
        epsilon_sweep(Grid(n=64, length=16.0 * math.pi), reference_parameters(),
                      epsilons=epsilons, t_final=t_final, dt=dt,
                      n_checkpoints=n_checkpoints)


def test_epsilon_sweep_cheap_slope(dgrid):
    # coarse two-point sweep as a smoke check; the acceptance suite runs the
    # full four-point sweep at the strict threshold
    sweep = epsilon_sweep(
        dgrid,
        reference_parameters(),
        epsilons=(0.1, 0.05),
        t_final=0.2,
        dt=5e-3,
        n_checkpoints=2,
    )
    assert sweep["slope_r1_L2"] >= 1.5
    assert sweep["slope_r2_L2"] >= 1.5


# ---------------------------------------------------------------------------
# The stacked sweep against one stepper per epsilon
# ---------------------------------------------------------------------------


EPS = (0.1, 0.05, 0.025)


def _pulse(grid):
    return Field.from_samples(grid, 0.3 / np.cosh(grid.x - grid.length / 2.0) ** 2)


def test_stacked_stepper_tables_and_step_are_the_per_row_ones():
    grid, dt = Grid(n=128, length=16.0 * math.pi), 0.01
    steppers = [Etdrk4Stepper(ScaledModel(grid, _params(e, e)).engine, dt) for e in EPS]
    stacked = Etdrk4Stepper.stack(steppers)
    c = _pulse(grid).half
    out = stacked.step(np.stack([c] * len(EPS)))
    for k, st in enumerate(steppers):
        for name in ("e_full", "e_half", "q", "f1", "f2", "f3"):
            assert np.array_equal(getattr(stacked, name)[k], getattr(st, name)), name
        for name in ("phi", "psi", "tau", "_quad", "_ipsi", "_w3", "_wg"):
            assert np.array_equal(getattr(stacked.engine, name)[k],
                                  np.reshape(getattr(st.engine, name), -1)), name
        assert np.array_equal(out[k], st.step(c))
    with pytest.raises(ValueError, match="one dt"):
        Etdrk4Stepper.stack([steppers[0], Etdrk4Stepper(steppers[1].engine, 2.0 * dt)])


# dt = 0.03 does not divide t_final = 0.1: the sweep steps the shared lattice,
# 3 steps of 1/30 that end at t_final (it used to stop at t = 0.09)
@pytest.mark.parametrize("dt,n_checkpoints", [
    pytest.param(0.01, 2, id="dt-divides-t_final"),
    pytest.param(0.03, 1, id="dt-does-not-divide-t_final"),
])
def test_stacked_sweep_rows_are_the_per_eps_loop_bit_for_bit(dt, n_checkpoints):
    grid, t_final = Grid(n=128, length=16.0 * math.pi), 0.1
    data = _pulse(grid)
    sweep = epsilon_sweep(grid, reference_parameters(), epsilons=EPS, t_final=t_final, dt=dt,
                          n_checkpoints=n_checkpoints, data=data)
    steps_per, dt = _time_lattice(t_final / n_checkpoints, dt)
    assert n_checkpoints * steps_per * dt == pytest.approx(t_final, rel=1e-15)
    for row, eps in zip(sweep["rows"], EPS, strict=True):
        model = ScaledModel(grid, _params(eps, eps))
        stepper = Etdrk4Stepper(model.engine, dt)
        r1_max, r2_max = abcd_residual_first(data, model)
        c_hat = data.half
        for _ in range(n_checkpoints):
            for _ in range(steps_per):
                c_hat = stepper.step(c_hat)
            r1, r2 = abcd_residual_first(Field(grid, half=c_hat), model)
            r1_max, r2_max = max(r1_max, r1), max(r2_max, r2)
        assert row == {"eps": eps, "r1_L2": r1_max, "r2_L2": r2_max}


@pytest.mark.parametrize("epsilons,named", [((1e-9, 0.5), 0.5), ((0.5, 1e-9), 0.5),
                                            ((1e-9, 0.3, 0.5), 0.3)])
def test_stacked_sweep_names_the_first_non_finite_eps(epsilons, named):
    # the data blow up under the larger epsilons within one leg; 1e-9 stays finite
    grid = Grid(n=64, length=16.0 * math.pi)
    with pytest.raises(NumericalError, match=f"at eps = {named}$"):
        epsilon_sweep(grid, reference_parameters(), epsilons=epsilons, t_final=0.1, dt=0.01,
                      n_checkpoints=1, data=1e3 * _pulse(grid))


@pytest.mark.parametrize("epsilons,named", [((1e-9, 0.5), 0.5), ((0.5, 1e-9), 0.5),
                                            ((1e-9, 0.3, 0.5), 0.3)])
def test_stacked_sweep_stops_at_the_first_non_finite_step(epsilons, named):
    # the inputs of test_stacked_sweep_names_the_first_non_finite_eps, in two
    # legs; the sweep stops at the first step at which a row of a plain
    # per-eps loop is non-finite, not at the end of its leg
    grid, dt = Grid(n=64, length=16.0 * math.pi), 0.01
    data = 1e3 * _pulse(grid)
    bad = {}
    for row, eps in enumerate(epsilons):
        stepper = Etdrk4Stepper(ScaledModel(grid, _params(eps, eps)).engine, dt)
        c_hat, k = data.half, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while k < 10 and np.isfinite(c_hat).all():
                c_hat, k = stepper.step(c_hat), k + 1
        if not np.isfinite(c_hat).all():
            bad.setdefault(k, []).append(row)
    step = min(bad)
    assert step < 5  # within the first leg
    with pytest.raises(NumericalError) as info:
        epsilon_sweep(grid, reference_parameters(), epsilons=epsilons, t_final=0.1, dt=dt,
                      n_checkpoints=2, data=data)
    err = info.value
    assert (err.step, err.time, err.rows) == (step, step * dt, bad[step])
    assert str(err) == f"non-finite state in the sweep at step {step} (t = {step * dt:g}) " \
                       f"at eps = {named}"
