"""Velocity-ansatz corrections and the residual order of the one-equation
reduction of the first-order system."""

import math
import tracemalloc

import numpy as np
import pytest

from bbm5 import derivation
from bbm5.coefficients import ParameterError, reference_parameters
from bbm5.derivation import (
    DerivationParameters,
    ScaledModel,
    abcd_residual_first,
    correction_terms,
    epsilon_sweep,
    reconstruct_velocity,
)
from bbm5.evolution import CACHE_SIZE, Etdrk4Stepper, NumericalError, _time_lattice
from bbm5.spectral import (Field, Grid, dealiased_product2, sobolev_norm,
                           spectral_derivative)


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


def _reference_residual(eta, model):
    """abcd_residual_first as it was written on Fields, one eps at a time."""
    p = model.p
    a_p, b_p = p.alpha, p.beta
    ab = derivation.derive_first_order(p.model)
    a, b, c, d = float(ab.a), float(ab.b), float(ab.c), float(ab.d)

    eta_t = model.eta_t(eta)
    eta_tt = model.eta_tt(eta, eta_t)
    A, B, *_ = correction_terms(eta, eta_t, p)
    w = eta + a_p * A + b_p * B  # the first-order truncated velocity

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


@pytest.mark.parametrize("steps", [0, 5])
def test_residual_rows_are_the_field_reference_bit_for_bit(dgrid, steps):
    # the one-row call and each row of one stacked evaluation, at t = 0 and
    # after steps of the sweep's stacked stepper
    epsilons, dt = (0.1, 0.0125), 0.01
    stepper = derivation._sweep_stepper(dgrid, reference_parameters(), epsilons, dt)
    c_hat = np.stack([_eta_pair(dgrid, _params(), amplitude=0.5)[0].half] * len(epsilons))
    for _ in range(steps):
        c_hat = stepper.step(c_hat)
    eps = np.array(epsilons)[:, None]
    stacked = derivation._residual_norms(stepper.engine, c_hat, eps, eps, reference_parameters())
    assert stacked.shape == (2, len(epsilons))
    for k, e in enumerate(epsilons):
        model, eta = ScaledModel(dgrid, _params(e, e)), Field(dgrid, half=c_hat[k])
        expected = _reference_residual(eta, model)
        assert abcd_residual_first(eta, model) == expected
        assert tuple(stacked[:, k].tolist()) == expected


def test_residual_refuses_a_field_of_another_grid(dgrid):
    p = _params()
    other = Grid(n=dgrid.n, length=2.0 * dgrid.length)
    with pytest.raises(ValueError, match="different grids"):
        abcd_residual_first(_eta_pair(other, p)[0], ScaledModel(dgrid, p))


def test_residual_forms_the_first_order_terms_only(dgrid, monkeypatch):
    # eta^2 for A, then w*eta, eta*eta_t and w*w_x of the residuals; C, D and
    # E, which the first-order velocity drops, are not formed
    factors = []

    def counted(n, *halves, _original=derivation.padded_product):
        factors.append(len(halves))
        return _original(n, *halves)

    monkeypatch.setattr(derivation, "padded_product", counted)
    p = _params()
    abcd_residual_first(_eta_pair(dgrid, p)[0], ScaledModel(dgrid, p))
    assert factors == [2, 2, 2, 2]


@pytest.mark.parametrize("eps", [0.1, 0.0125])
def test_residual_is_the_route_through_all_five_corrections_bit_for_bit(dgrid, eps):
    p = _params(eps, eps)
    model = ScaledModel(dgrid, p)
    eta = _eta_pair(dgrid, p, amplitude=0.5)[0]
    eta_t = model.eta_t(eta)
    A, B, C, D, E = correction_terms(eta, eta_t, p)
    five = eta + p.alpha * A + p.beta * B + p.alpha * p.beta * C + p.beta * p.beta * D \
        + p.alpha * p.alpha * E
    assert np.array_equal(reconstruct_velocity(eta, eta_t, p).half, five.half)
    assert abcd_residual_first(eta, model) == _reference_residual(eta, model)


@pytest.mark.parametrize("t_final,dt,n_checkpoints,epsilons", [
    *(pytest.param(*case, (0.1, 0.05), id="-".join(map(str, case)))
      for case in [(0.1, 0.0, 1), (0.1, 0.01, 0), (0.0, 0.01, 1), (math.inf, 0.01, 1),
                   (0.1, math.inf, 1)]),
    pytest.param(0.1, 0.01, 1, (0.0, 0.1), id="eps-zero"),
    pytest.param(0.1, 0.01, 1, (0.1, -0.05), id="eps-negative"),
    pytest.param(0.1, 0.01, 1, (), id="eps-none"),
    pytest.param(0.1, 0.01, 1, (0.1,), id="eps-one"),
    pytest.param(0.1, 0.01, 1, (0.1, 0.1), id="eps-one-distinct"),
    pytest.param(0.1, 0.01, 1, (0.1, 0.1, 0.05), id="eps-repeated"),
    pytest.param(0.1, 0.01, 1, (0.1, 1.5), id="eps-above-one"),
])
def test_epsilon_sweep_rejects_out_of_range(t_final, dt, n_checkpoints, epsilons):
    # t_final and dt are admitted by the time lattice, as in every time loop
    match = ("T must be positive and finite" if not 0.0 < t_final < math.inf
             else "dt must be positive and finite" if not 0.0 < dt < math.inf
             else "n_checkpoints >= 1")
    with pytest.raises(ValueError, match=match):
        epsilon_sweep(Grid(n=64, length=16.0 * math.pi), reference_parameters(),
                      epsilons=epsilons, t_final=t_final, dt=dt,
                      n_checkpoints=n_checkpoints)


def test_epsilon_sweep_refuses_checkpoints_past_a_float_s_range():
    # the time lattice divided t_final by 10^400 checkpoints: OverflowError, not ValueError
    with pytest.raises(ValueError, match=r"^T = 0\.1 at dt = 0\.01 makes inf steps in 10{400} "
                                         r"checkpoints, over 1e\+07$"):
        epsilon_sweep(Grid(64, 50.0), reference_parameters(), (0.1, 0.05), t_final=0.1,
                      dt=0.01, n_checkpoints=10**400)


@pytest.mark.parametrize("other", [
    pytest.param(Grid(n=64, length=8.0 * math.pi), id="same-n-other-length"),
    pytest.param(Grid(n=128, length=16.0 * math.pi), id="other-n"),
])
def test_epsilon_sweep_refuses_data_of_another_grid(other):
    grid = Grid(n=64, length=16.0 * math.pi)
    with pytest.raises(ValueError, match="data live on"):
        epsilon_sweep(grid, reference_parameters(), epsilons=(0.1, 0.05), t_final=0.1, dt=0.05,
                      n_checkpoints=1, data=_pulse(other))


def test_write_sweep_csv_refuses_a_residual_that_is_not_positive(tmp_path):
    # the running slope divided by it: ZeroDivisionError
    rows = [{"eps": eps, "r1_L2": r, "r2_L2": 0.0} for eps, r in ((0.1, 0.0), (0.05, 0.0))]
    path = tmp_path / "derivation_residual.csv"
    with pytest.raises(ParameterError) as exc:
        derivation.write_sweep_csv({"rows": rows}, path)
    assert exc.value.name == "sweep"
    assert not path.exists()


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
    # n = 512 and four epsilons: contour weights evaluated on the whole (E, n/2 + 1, 32)
    # stack at once round differently there (numpy elides temporaries of 256 KiB and
    # up); built a block of modes at a time, each row is its one-eps stepper's bit for bit
    grid, dt, epsilons = Grid(n=512, length=16.0 * math.pi), 2e-3, (0.1, 0.05, 0.025, 0.0125)
    stacked = derivation._sweep_stepper(grid, reference_parameters(), epsilons, dt)
    c = _pulse(grid).half
    out = stacked.step(np.stack([c] * len(epsilons)))
    for k, e in enumerate(epsilons):
        st = Etdrk4Stepper(ScaledModel(grid, _params(e, e)).engine, dt)
        for name in ("e_full", "e_half", "q", "f1", "f2", "f3"):
            assert np.array_equal(getattr(stacked, name)[k], getattr(st, name)), name
        for name in ("phi", "psi", "tau", "_quad", "_ipsi"):
            assert np.array_equal(getattr(stacked.engine, name)[k], getattr(st.engine, name)), name
        for name in ("_w3", "_wg"):  # full rows of the engine's scalar weight
            row = getattr(stacked.engine, name)[k]
            assert row.shape == (stacked.engine.m,), name
            assert np.all(row == getattr(st.engine, name)), name
        assert np.array_equal(out[k], st.step(c))


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


# ---------------------------------------------------------------------------
# The sweep's stepper cache
# ---------------------------------------------------------------------------


def _small_sweep(dt=0.05):
    return epsilon_sweep(Grid(n=32, length=16.0 * math.pi), reference_parameters(),
                         epsilons=(0.1, 0.05), t_final=0.1, dt=dt, n_checkpoints=1)


def test_second_identical_epsilon_sweep_builds_no_stepper(monkeypatch):
    built = []
    init = Etdrk4Stepper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Etdrk4Stepper, "__init__", counting_init)
    derivation._sweep_stepper.cache_clear()
    first = _small_sweep()
    assert len(built) == 1  # one stepper of both epsilons' tables
    assert _small_sweep() == first
    assert len(built) == 1


def test_sweep_stepper_cache_is_bounded():
    for k in range(3 * CACHE_SIZE):
        _small_sweep(dt=0.05 / (1.0 + k / 7.0))
    assert derivation._sweep_stepper.cache_info().currsize <= CACHE_SIZE


def test_repeated_sweep_keeps_no_memory():
    _small_sweep()  # fills the cache and the stacked engine's slot
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _small_sweep()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1024, kept
