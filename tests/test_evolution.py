"""Semigroup, nonlinear right-hand side, ETDRK4 integrator, diagnostics and
the Duhamel/Picard fixed point."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bbm5.coefficients import (Bbm5Coefficients, REFERENCE_COEFFICIENTS, REFERENCE_PARAMETERS,
                               ParameterError, RegimeError, multipliers)
from bbm5 import evolution, spectral
from bbm5.derivation import epsilon_sweep
from bbm5.evolution import (
    MAX_STEPS,
    PicardDivergenceError,
    RhsSpec,
    RunReport,
    SpectralEngine,
    StepperConfig,
    duhamel_picard,
    energy_drift_predicted,
    exponential_rk4_step,
    gaussian_bump,
    local_existence_time,
    nonlinear_rhs,
    run_simulation,
    sech_squared,
    semigroup_apply,
    _time_lattice,
)
from bbm5.spectral import (Field, Grid, energy, fine_samples, full_spectrum,
                           half_spectrum, sobolev_norm, truncated_coeffs)
from bbm5.splitting import SplitConfig
from bbm5.symbols import (Symbol, empirical_operator_norm, estimate_ratio, eval_symbol,
                          random_hs_field)


def _spec():
    return RhsSpec(REFERENCE_COEFFICIENTS)


# ---------------------------------------------------------------------------
# Semigroup
# ---------------------------------------------------------------------------


def test_semigroup_identity_at_t_zero(grid, rng, ref):
    f = random_hs_field(grid, 1.0, rng)
    g = semigroup_apply(f, 0.0, ref)
    assert np.abs(g.spectral - f.spectral).max() < 1e-15


def test_semigroup_isometry(grid, ref):
    for seed in range(10):
        f = random_hs_field(grid, 1.0, np.random.default_rng(seed))
        for t in (0.1, 1.0, 10.0):
            g = semigroup_apply(f, t, ref)
            for s in (0.0, 1.0, 2.0):
                assert sobolev_norm(g, s) == pytest.approx(
                    sobolev_norm(f, s), abs=1e-12, rel=1e-12
                )


def test_semigroup_group_law(grid, rng, ref):
    f = random_hs_field(grid, 1.0, rng)
    a = semigroup_apply(semigroup_apply(f, 0.7, ref), 1.6, ref)
    b = semigroup_apply(f, 2.3, ref)
    assert np.abs(a.spectral - b.spectral).max() < 1e-12


def test_semigroup_phase_translation(grid, ref):
    for k in range(1, 9):
        f = Field.from_samples(grid, np.cos(k * grid.x))
        t = 0.9
        g = semigroup_apply(f, t, ref)
        phi_k = eval_symbol("phi", float(k), ref)
        expected = np.cos(k * grid.x - phi_k * t)
        assert np.abs(g.samples - expected).max() <= 1e-10


@pytest.mark.filterwarnings("error")  # it returned a non-finite Field after RuntimeWarnings
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_semigroup_refuses_a_non_finite_time(grid, ref, t):
    with pytest.raises(ParameterError) as caught:
        semigroup_apply(Field.zero(grid), t, ref)
    assert caught.value.name == "t"


def test_semigroup_runs_backward_in_time(grid, rng, ref):
    f = random_hs_field(grid, 1.0, rng)
    back = semigroup_apply(semigroup_apply(f, 0.7, ref), -0.7, ref)
    assert np.abs(back.spectral - f.spectral).max() < 1e-12


def test_semigroup_refuses_bad_regime(grid):
    bad = Bbm5Coefficients(gamma1=-1.0, gamma2=0.0, delta1=1.0, delta2=0.0, gamma=0.0)
    with pytest.raises(RegimeError):
        semigroup_apply(Field.zero(grid), 1.0, bad)


# ---------------------------------------------------------------------------
# Nonlinear right-hand side
# ---------------------------------------------------------------------------


def test_rhs_zero_field(grid):
    out = nonlinear_rhs(Field.zero(grid), _spec())
    assert np.all(out.spectral == 0.0)


def test_rhs_constant_field(grid):
    out = nonlinear_rhs(Field.from_samples(grid, np.full(grid.n, 2.0)), _spec())
    assert np.abs(out.spectral).max() < 1e-15


def test_rhs_single_mode_hand_algebra(grid, ref):
    # eta = eps*cos(x): eta^2 = eps^2*(1 + cos 2x)/2, (eta_x)^2 =
    # eps^2*(1 - cos 2x)/2, eta^3 = eps^3*(3 cos x + cos 3x)/4.
    eps = 1e-2
    f = Field.from_samples(grid, eps * np.cos(grid.x))
    out = nonlinear_rhs(f, _spec()).spectral

    tau2 = eval_symbol("tau", 2.0, ref)
    psi1 = eval_symbol("psi", 1.0, ref)
    psi3 = eval_symbol("psi", 3.0, ref)
    expect2 = -1j * (tau2 * eps**2 / 4.0 + (7.0 / 48.0) * psi1 * 0.0
                     + (7.0 / 48.0) * eps**2 / 4.0 * eval_symbol("psi", 2.0, ref))
    expect1 = -1j * (-(1.0 / 8.0) * psi1 * 3.0 * eps**3 / 8.0)
    expect3 = -1j * (-(1.0 / 8.0) * psi3 * eps**3 / 8.0)
    assert out[2] == pytest.approx(expect2, abs=1e-12)
    assert out[1] == pytest.approx(expect1, abs=1e-14)
    assert out[3] == pytest.approx(expect3, abs=1e-14)
    assert out[0] == 0.0


def test_rhs_zero_mode_is_exactly_zero(grid, rng):
    f = random_hs_field(grid, 1.0, rng)
    out = nonlinear_rhs(f, _spec())
    assert out.spectral[0] == 0.0


def test_rhs_without_dealiasing_matches_products_on_the_grid(grid, rng, ref):
    # dealias=False forms u^2, u^3 and u_x^2 on the n-point grid itself
    f = random_hs_field(grid, 1.0, rng)
    out = nonlinear_rhs(f, RhsSpec(ref, dealias=False)).spectral
    n = grid.n
    ikx = 1j * grid.wavenumbers
    ikx[n // 2] = 0.0
    u = f.samples
    ux = np.fft.ifft(ikx * f.spectral * n).real
    tau = Symbol("tau", ref).on_grid(grid)
    psi = Symbol("psi", ref).on_grid(grid)
    expected = -1j * (
        tau * np.fft.fft(u * u) / n
        - (1.0 / 8.0) * psi * np.fft.fft(u**3) / n
        - (7.0 / 48.0) * psi * np.fft.fft(ux * ux) / n
    )
    assert np.abs(out - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())


def _complex_nonlinear_hat(c, grid, coeffs, dealias=True, weights=(1.0, 1.0 / 8.0, 7.0 / 48.0)):
    """The full-spectrum, complex-FFT nonlinearity that the real engine replaced."""
    n, h = grid.n, grid.n // 2
    m = 2 * n if dealias else n
    _varphi, _phi, psi, tau = multipliers(grid.wavenumbers, coeffs)
    ikx = 1j * grid.wavenumbers
    psi[h] = tau[h] = ikx[h] = 0.0
    pad = (lambda a: a) if m == n else (lambda a: np.concatenate((a[:h], np.zeros(m - n), a[h:])))
    u, ux = (np.fft.ifft(pad(a) * m).real for a in (c, ikx * c))

    def coarse(w):
        q = np.fft.fft(w) / m
        return q if m == n else np.concatenate((q[:h], [q[h] + q[m - h]], q[m - h + 1:]))

    w2, w3, wg = weights
    return -1j * (w2 * tau * coarse(u * u) - w3 * psi * coarse(u**3) - wg * psi * coarse(ux * ux))


def _engine_state(grid, kind):
    if kind == "random":
        return random_hs_field(grid, 1.5, np.random.default_rng(3), 0.5).spectral
    c = sech_squared(grid, 0.5, 1.0).spectral
    if kind == "nyquist":
        c = c.copy()
        c[grid.n // 2] = 0.05  # real and nonzero
    return c


@pytest.mark.parametrize("kind", ["sech2", "random", "nyquist"])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("weights", [(1.0, 1.0 / 8.0, 7.0 / 48.0), (0.3, -0.7, 2.5)])
def test_real_engine_matches_complex_reference(kind, dealias, weights, ref):
    grid = Grid(n=256, length=16.0 * math.pi)
    c = _engine_state(grid, kind)
    eng = SpectralEngine(grid, ref, dealias, weights=weights)
    got = full_spectrum(eng.nonlinear_hat(half_spectrum(c)))
    want = _complex_nonlinear_hat(c, grid, ref, dealias, weights)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n,dealias", [(64, True), (256, True), (256, False)])
def test_nonlinear_hat_of_a_stack_is_bit_identical_to_a_row_loop(n, dealias, ref):
    grid = Grid(n=n, length=16.0 * math.pi)
    rng = np.random.default_rng(8)
    stack = np.array([random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(5)])
    eng = SpectralEngine(grid, ref, dealias)
    assert np.array_equal(eng.nonlinear_hat(stack), [eng.nonlinear_hat(row) for row in stack])


def _columns(*rows):
    """The rows of weights (w2, w3, wg) as three (E, 1) columns."""
    return tuple(np.array(col)[:, None] for col in zip(*rows))


def _two_transform_nonlinear_hat(eng, c_hat):
    """The nonlinearity with one padded transform per function: u and u_x
    padded apart, the quadratic and the psi-terms truncated apart."""
    u = fine_samples(c_hat, eng.m)
    ux = fine_samples(eng.ikx_d * c_hat, eng.m)
    u2 = u * u
    return (eng._quad * truncated_coeffs(u2, eng.grid.n)
            + eng._ipsi * truncated_coeffs(eng._w3 * (u2 * u) + eng._wg * (ux * ux), eng.grid.n))


@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("dealias", [True, False])
def test_nonlinear_hat_is_the_two_transform_formula_bit_for_bit(n, dealias, ref):
    grid = Grid(n=n, length=16.0 * math.pi)
    rng = np.random.default_rng(n)
    c_hat = random_hs_field(grid, 1.5, rng, 0.5).half
    eng = SpectralEngine(grid, ref, dealias)
    assert np.array_equal(eng.nonlinear_hat(c_hat), _two_transform_nonlinear_hat(eng, c_hat))
    # an (E, n/2 + 1) stack through an engine of column weights, its own per row
    stacked = SpectralEngine(grid, ref, dealias,
                             weights=_columns((1.0, 0.125, 7.0 / 48.0), (0.3, -0.7, 2.5)))
    rows = np.array([random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(2)])
    assert np.array_equal(stacked.nonlinear_hat(rows), _two_transform_nonlinear_hat(stacked, rows))


def test_one_step_makes_four_transforms_each_way(grid, ref, monkeypatch):
    calls = {"to_fine": 0, "from_fine": 0}
    for name in calls:
        original = getattr(SpectralEngine, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SpectralEngine, name, counting)
    stepper = evolution.Etdrk4Stepper(SpectralEngine(grid, ref), 0.01)
    stepper.step(sech_squared(grid, 0.5).half)
    assert calls == {"to_fine": 4, "from_fine": 4}


def _arrays(eng):
    """The ndarrays an engine holds, by attribute name, those in its tuple of
    work buffers included."""
    arrays = {}
    for k, v in vars(eng).items():
        for i, a in enumerate(v if isinstance(v, tuple) else [v]):
            if isinstance(a, np.ndarray):
                arrays[f"{k}[{i}]" if isinstance(v, tuple) else k] = a
    return arrays


def _buffers(eng):
    """Copies of the ndarrays an engine holds, by attribute name."""
    return {k: v.copy() for k, v in _arrays(eng).items()}


def _stacked_engine(grid, dealias, ref):
    return SpectralEngine(grid, ref, dealias, weights=_columns(
        (1.0, 0.125, 7.0 / 48.0), (0.3, -0.7, 2.5), (-1.1, 0.4, 0.9)))


@pytest.mark.parametrize("dealias", [True, False])
def test_nonlinear_hat_leaves_no_stale_state_in_its_buffers(dealias, ref):
    # with dealias=False m == n: the padded spectrum has no zero tail.  Single
    # states, stacks of three and of two rows alternate on one engine, so its
    # stack slot is remade and reused in turn; a stacked engine reuses its own
    grid = Grid(n=64, length=16.0 * math.pi)
    rng = np.random.default_rng(21)
    states = [random_hs_field(grid, 1.5, rng, a).half for a in (0.5, 2.0, 0.1)]
    states.append(sech_squared(grid, 0.5, 1.0).half)
    nyquist = states[0].copy()
    nyquist[-1] = 0.3  # a nonzero Nyquist slot, halved into the padded spectrum
    stack = np.array([random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(3)])
    pair = np.array([nyquist, states[2]])
    eng = SpectralEngine(grid, ref, dealias)
    for c_hat in (*states, nyquist, stack, states[1], pair, np.zeros_like(stack), stack,
                  np.zeros_like(states[0]), pair, states[2], stack[::-1]):
        assert np.array_equal(eng.nonlinear_hat(c_hat), _two_transform_nonlinear_hat(eng, c_hat))
    stacked = _stacked_engine(grid, dealias, ref)
    for rows in (stack, stack[::-1], np.zeros_like(stack), stack):
        assert np.array_equal(stacked.nonlinear_hat(rows),
                              _two_transform_nonlinear_hat(stacked, rows))


def test_engine_keeps_one_buffer_set_for_the_last_shape(ref):
    # a single state's buffers are reused; a stack's replace them, and the next
    # single state remakes them once, then reuses them
    grid = Grid(n=64, length=16.0 * math.pi)
    rng = np.random.default_rng(23)
    a, b = (random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(2))
    eng = SpectralEngine(grid, ref)
    held = []
    for c_hat in (a, b, np.stack([a, b]), b, a):
        assert np.array_equal(eng.nonlinear_hat(c_hat), _two_transform_nonlinear_hat(eng, c_hat))
        held.append(eng._buffers)
    single, again, stack, remade, reused = held
    assert again is single and reused is remade
    assert stack is not single and remade is not stack and remade is not single
    assert stack[1].shape == (2, 2, eng.m) and remade[1].shape == (2, eng.m)
    assert not any(np.shares_memory(x, y) for x in remade for y in single)


@pytest.mark.parametrize("dealias", [True, False])
def test_nonlinear_hat_results_are_fresh(dealias, ref):
    grid = Grid(n=64, length=16.0 * math.pi)
    rng = np.random.default_rng(22)
    a, b = (random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(2))
    stack = np.array([random_hs_field(grid, 1.5, rng, 0.5).half for _ in range(3)])
    for eng, x, y in ((SpectralEngine(grid, ref, dealias), a, b),
                      (SpectralEngine(grid, ref, dealias), stack, stack[:2]),
                      (_stacked_engine(grid, dealias, ref), stack, stack[::-1])):
        first = eng.nonlinear_hat(x)
        assert not any(np.shares_memory(first, v) for v in _arrays(eng).values())
        kept = _buffers(eng)
        first[...] = 1e300
        # bytes, not values: a buffer the engine has not used yet holds whatever
        # np.empty found, NaN patterns included, which equal nothing as values
        assert all(v.tobytes() == kept[k].tobytes() for k, v in _buffers(eng).items())
        second = eng.nonlinear_hat(y)
        assert not any(np.shares_memory(second, v) for v in _arrays(eng).values())
        assert np.array_equal(second, _two_transform_nonlinear_hat(eng, y))
        assert not np.shares_memory(first, second) and np.all(first == 1e300)
        assert np.array_equal(eng.nonlinear_hat(x), _two_transform_nonlinear_hat(eng, x))


def test_engine_memory_does_not_grow_with_a_stack(grid):
    # Picard evaluates its nodes a block of PICARD_BLOCK at a time, on an engine
    # of its own: neither the cached engine nor anything else keeps its buffers
    eta0 = Field.from_samples(grid, 5e-3 * np.cos(grid.x))
    eng = evolution._engine(grid, _spec())
    duhamel_picard(eta0, _spec(), StepperConfig(dt=0.2 / 20), 0.2)  # fills the caches
    held, retained = {}, {}
    for K in (50, 200):
        tracemalloc.start()
        try:
            duhamel_picard(eta0, _spec(), StepperConfig(dt=0.2 / K), 0.2)
            retained[K] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert evolution._engine(grid, _spec()) is eng
        held[K] = sum(v.nbytes for v in _arrays(eng).values())
    assert held[50] == held[200], held
    # a (K + 1)-row stack slot kept anywhere would be about a megabyte; a
    # kilobyte is less than two states, and leaves room for tracing noise
    assert retained[200] < retained[50] + 1024, retained


@pytest.mark.parametrize("n", [64, 2048])
def test_combine_and_step_leave_their_arguments_unchanged(n, ref):
    grid = Grid(n=n, length=16.0 * math.pi)
    rng = np.random.default_rng(4)
    eng = SpectralEngine(grid, ref)
    products = [rng.standard_normal(eng.m) for _ in range(3)]
    kept = [p.copy() for p in products]
    eng.combine(*products)
    assert all(np.array_equal(p, k) for p, k in zip(products, kept))

    seen = []  # every array step hands to nonlinear_hat or gets back from it, with a copy
    original = eng.nonlinear_hat

    def spy(c_hat):
        out = original(c_hat)
        seen.extend([(c_hat, c_hat.copy()), (out, out.copy())])
        return out

    c_hat = random_hs_field(grid, 1.5, rng, 0.5).half
    before = c_hat.copy()
    stepper = evolution.Etdrk4Stepper(eng, 0.01)
    eng.nonlinear_hat = spy  # the step looks it up on its engine
    try:
        got = stepper.step(c_hat)
    finally:
        del eng.nonlinear_hat
    assert np.array_equal(c_hat, before)
    assert len(seen) == 8 and all(np.array_equal(a, k) for a, k in seen)
    # and the step is the ETDRK4 formula evaluated plainly, bit for bit
    st, n0 = stepper, eng.nonlinear_hat(c_hat)
    a = st.e_half * c_hat + st.q * n0
    na = eng.nonlinear_hat(a)
    b = st.e_half * c_hat + st.q * na
    nb = eng.nonlinear_hat(b)
    nc = eng.nonlinear_hat(st.e_half * a + st.q * (2.0 * nb - n0))
    assert np.array_equal(got, st.e_full * c_hat + st.f1 * n0 + 2.0 * st.f2 * (na + nb)
                          + st.f3 * nc)


def test_rhs_spec_refuses_bad_regime():
    bad = Bbm5Coefficients(gamma1=0.0, gamma2=0.0, delta1=1.0, delta2=0.0, gamma=0.0)
    with pytest.raises(RegimeError):
        RhsSpec(bad)


# ---------------------------------------------------------------------------
# ETDRK4
# ---------------------------------------------------------------------------


def test_etdrk4_exact_on_linear_flow(grid, rng, ref):
    f = random_hs_field(grid, 1.0, rng)
    spec = RhsSpec(ref, linear_only=True)
    dt = 0.3
    stepped = exponential_rk4_step(f, spec, dt)
    free = semigroup_apply(f, dt, ref)
    assert np.abs(stepped.spectral - free.spectral).max() <= 1e-13


@pytest.mark.parametrize("n", [64, 1024, 2048])  # rows below and above numpy's elision size
def test_etdrk4_weights_are_the_contour_formulas_bit_for_bit(n, ref):
    # each table entry is the contour mean of these formulas over that mode's own 32
    # points, bit for bit, at every n; a rewrite of the build (one evaluation of each
    # power of lr, say) has to keep them
    eng = SpectralEngine(Grid(n=n, length=64.0 * math.pi), ref)
    dt, n_contour = 1e-3, 32
    stepper = evolution.Etdrk4Stepper(eng, dt)
    roots = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    for j, lam in enumerate(-1j * eng.phi):
        lr = dt * lam + roots
        elr = np.exp(lr)
        expected = {
            "q": (np.exp(lr / 2.0) - 1.0) / lr,
            "f1": (-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3,
            "f2": (2.0 + lr + elr * (lr - 2.0)) / lr**3,
            "f3": (-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3,
        }
        for name, g in expected.items():
            assert np.array_equal(getattr(stepper, name)[j], dt * g.mean()), (name, j)


def test_stepper_build_peaks_near_its_tables(ref):
    # built on whole (n/2 + 1, 32) contour arrays the build peaked at 27 times its six
    # tables at n = 2^16; a block of modes at a time it peaks at one block over them
    eng = SpectralEngine(Grid(n=2**16, length=64.0 * math.pi), ref)
    tracemalloc.start()
    try:
        stepper = evolution.Etdrk4Stepper(eng, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(getattr(stepper, name).nbytes
                 for name in ("e_full", "e_half", "q", "f1", "f2", "f3"))
    assert peak < 2 * tables, (peak, tables)


@pytest.mark.filterwarnings("error")  # it returned a non-finite Field after RuntimeWarnings
@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.01, -1.0])
def test_etdrk4_step_refuses_a_dt_outside_zero_to_inf(grid, dt):
    with pytest.raises(ParameterError) as caught:
        exponential_rk4_step(Field.zero(grid), _spec(), dt)
    assert caught.value.name == "dt"
    assert str(caught.value) == f"dt must be positive and finite, got {dt}"


def test_etdrk4_zero_field_stays_zero(grid):
    out = exponential_rk4_step(Field.zero(grid), _spec(), 0.1)
    assert np.all(out.spectral == 0.0)


def test_etdrk4_observed_order():
    grid = Grid(n=128, length=8.0 * math.pi)
    eta0 = sech_squared(grid, 0.5, 1.0)
    spec = _spec()
    T = 0.5

    def solve(dt):
        f = eta0
        for _ in range(int(round(T / dt))):
            f = exponential_rk4_step(f, spec, dt)
        return f

    ref_sol = solve(T / 256)
    errs = []
    for steps in (8, 16, 32):
        sol = solve(T / steps)
        errs.append(sobolev_norm(sol - ref_sol, 1.0))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 3.7


def test_etdrk4_matches_complex_reference_over_200_steps(ref):
    grid = Grid(n=256, length=16.0 * math.pi)
    dt, steps = 2e-3, 200
    c = sech_squared(grid, 0.5, 1.0).spectral
    _varphi, phi, _psi, _tau = multipliers(grid.wavenumbers, ref)
    phi[grid.n // 2] = 0.0
    lr = -1j * dt * phi[:, None] + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)[None, :]
    elr = np.exp(lr)
    e_full, e_half = np.exp(-1j * dt * phi), np.exp(-0.5j * dt * phi)
    q = dt * ((np.exp(lr / 2.0) - 1.0) / lr).mean(1)
    f1 = dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3).mean(1)
    f2 = dt * ((2.0 + lr + elr * (lr - 2.0)) / lr**3).mean(1)
    f3 = dt * ((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3).mean(1)
    nl = lambda a: _complex_nonlinear_hat(a, grid, ref)  # noqa: E731
    stepper = evolution._stepper(grid, _spec(), dt)
    h = half_spectrum(c)
    for _ in range(steps):
        n0 = nl(c)
        a = e_half * c + q * n0
        na = nl(a)
        b = e_half * c + q * na
        nb = nl(b)
        nc = nl(e_half * a + q * (2.0 * nb - n0))
        c = e_full * c + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        h = stepper.step(h)
    assert np.abs(full_spectrum(h) - c).max() <= 1e-14 * np.abs(c).max()


# ---------------------------------------------------------------------------
# run_simulation diagnostics
# ---------------------------------------------------------------------------


def test_run_zero_data_all_zero(grid):
    rep = run_simulation(Field.zero(grid), _spec(), StepperConfig(dt=0.01), 0.1)
    assert not rep.aborted
    assert np.all(rep.energy == 0.0)
    assert np.all(rep.zero_mode == 0.0)
    for vals in rep.hs_norms.values():
        assert np.all(vals == 0.0)


def test_run_zero_mode_constant():
    grid = Grid(n=128, length=16.0 * math.pi)
    eta0 = gaussian_bump(grid, 0.4, 2.0)
    rep = run_simulation(eta0, _spec(), StepperConfig(dt=5e-3), 0.5)
    assert np.abs(rep.zero_mode - rep.zero_mode[0]).max() <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_nan_abort():
    grid = Grid(n=64, length=2.0 * math.pi)
    eta0 = Field.from_samples(grid, 1e8 * np.cos(grid.x))
    rep = run_simulation(eta0, _spec(), StepperConfig(dt=0.1), 10.0)
    assert rep.aborted
    assert np.all(np.isfinite(rep.energy))


def test_run_abort_reports_the_step_and_time():
    # the data of test_run_nan_abort at a smaller amplitude, so that some
    # steps succeed before the state turns non-finite in a plain step loop
    grid, dt = Grid(n=64, length=2.0 * math.pi), 0.1
    eta0 = Field.from_samples(grid, 13.0 * np.cos(grid.x))
    c_hat, bad = eta0.half, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(c_hat).all():
            c_hat, bad = evolution._stepper(grid, _spec(), dt).step(c_hat), bad + 1
    assert bad > 1
    rep = run_simulation(eta0, _spec(), StepperConfig(dt=dt), 10.0)
    assert rep.aborted and isinstance(rep.error, evolution.NumericalError)
    assert (rep.error.step, rep.error.time, rep.error.rows) == (bad, bad * dt, None)
    assert str(rep.error) == f"non-finite state at step {bad} of 100 (t = {bad * dt:g})"
    assert np.array_equal(rep.times, np.arange(bad) * dt)  # every record up to the last good
    assert run_simulation(eta0, _spec(), StepperConfig(dt=dt), 0.1).error is None


@pytest.mark.parametrize("stacked", [False, True])
def test_march_is_a_plain_step_loop_bit_for_bit(stacked):
    grid, dt, steps = Grid(n=64, length=16.0 * math.pi), 0.02, 7
    stepper = evolution._stepper(grid, _spec(), dt)
    c0 = sech_squared(grid, 0.4).half
    if stacked:  # (E, n/2 + 1) rows, each stepped by its own tables
        g1 = np.array([[REFERENCE_COEFFICIENTS.gamma1], [0.1], [REFERENCE_COEFFICIENTS.gamma1]])
        stepper = evolution.Etdrk4Stepper(
            SpectralEngine(grid, dataclasses.replace(REFERENCE_COEFFICIENTS, gamma1=g1)), dt)
        c0 = np.stack([c0, 0.5 * c0, gaussian_bump(grid, 0.3).half])
    plain = [c0]
    for _ in range(steps):
        plain.append(stepper.step(plain[-1]))
    for every, want in ((1, range(8)), (3, (0, 3, 6, 7)), (7, (0, 7)), (10, (0, 7))):
        marched = list(evolution._march(stepper, c0, steps, every=every))
        assert [k for k, _ in marched] == list(want)
        assert all(np.array_equal(state, plain[k]) for k, state in marched)


def test_march_holds_no_errstate_across_a_yield():
    grid = Grid(n=64, length=2.0 * math.pi)
    stepper = evolution._stepper(grid, _spec(), 0.1)
    with np.errstate(over="raise", invalid="print"):
        before = np.geterr()
        march = evolution._march(stepper, Field.from_samples(grid, np.cos(grid.x)).half, 5)
        assert next(march)[0] == 0 and next(march)[0] == 1
        assert np.geterr() == before  # the march is suspended after one step
        march.close()
        assert np.geterr() == before
        # a state that overflows raises NumericalError, not FloatingPointError
        huge = Field.from_samples(grid, 1e8 * np.cos(grid.x)).half
        with pytest.raises(evolution.NumericalError, match=r"^non-finite state at step 1 of 5"):
            list(evolution._march(stepper, huge, 5))


def test_march_yields_each_state_with_its_stage_0_integral():
    # with cube, every yielded state, the last included, has had stage 0 of its next
    # step evaluated, which wrote its integral of (c_x)^3
    grid, dt, steps = Grid(n=64, length=16.0 * math.pi), 0.02, 7
    stepper = evolution._stepper(grid, RhsSpec(SHIFTED), dt)
    c0 = _asymmetric(grid, 0.4).half
    plain = [c0]
    for _ in range(steps):
        plain.append(stepper.step(plain[-1]))
    cube, seen = np.full(1, np.nan), []
    for k, c_hat in evolution._march(stepper, c0, steps, every=3, cube=cube):
        seen.append(k)
        assert np.array_equal(c_hat, plain[k])
        predicted = energy_drift_predicted(Field(grid, half=c_hat), SHIFTED)
        assert (SHIFTED.gamma - evolution.GRAD_COEFF) * cube[0] == predicted != 0.0
        cube[0] = np.nan
    assert seen == [0, 3, 6, 7]
    # a stage 0 handed to the step is the one it would evaluate
    nl = stepper.engine.nonlinear_hat
    assert np.array_equal(stepper.step(c0, nl(c0)), stepper.step(c0))


COUNTS = ["record_every", "picard_max_iter", "k_max", "n_checkpoints", "trials", "seed"]


@pytest.mark.parametrize("name,value", [(name, 2.5) for name in COUNTS]
                         + [(name, True) for name in COUNTS],
                         ids=COUNTS + [f"{name}-True" for name in COUNTS])
def test_integer_parameters_refuse_a_non_integer(name, value, grid):
    # each accepted 2.5 and True; 2.5 then failed with a bare TypeError, such as
    # "'float' object cannot be interpreted as an integer", and True ran as 1,
    # but as trials, which failed inside numpy with a TypeError
    calls = {
        "record_every": lambda v: run_simulation(Field.zero(grid), _spec(),
                                                 StepperConfig(dt=0.01), 0.05, record_every=v),
        "picard_max_iter": lambda v: StepperConfig(picard_max_iter=v),
        "k_max": lambda v: SplitConfig(cutoff=8.0, s=1.5, k_max=v),
        "n_checkpoints": lambda v: epsilon_sweep(grid, REFERENCE_PARAMETERS, n_checkpoints=v),
        "trials": lambda v: empirical_operator_norm("tau_bilinear", 1.0, v, grid,
                                                    REFERENCE_COEFFICIENTS),
        "seed": lambda v: empirical_operator_norm("tau_bilinear", 1.0, 10, grid,
                                                  REFERENCE_COEFFICIENTS, seed=v),
    }
    with pytest.raises(ParameterError) as exc:
        calls[name](value)
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"
    assert exc.value.name == name


@pytest.mark.parametrize("call,want", [
    (lambda g: run_simulation(Field.zero(g), _spec(), StepperConfig(dt=0.01), 0.05,
                              record_every=0), "need record_every >= 1, got 0"),
    (lambda g: StepperConfig(picard_max_iter=0), "need picard_max_iter >= 1, got 0"),
    (lambda g: SplitConfig(cutoff=8.0, s=1.5, k_max=-1), "need k_max >= 0, got -1"),
    (lambda g: empirical_operator_norm("tau_bilinear", 1.0, 10, g, REFERENCE_COEFFICIENTS,
                                       seed=-1), "need seed >= 0, got -1"),
    (lambda g: empirical_operator_norm("tau_bilinear", 1.0, 0, g, REFERENCE_COEFFICIENTS),
     "trials must be at least 1 and at most 1e+07, got 0"),
    (lambda g: empirical_operator_norm("tau_bilinear", 1.0, 10**7 + 1, g, REFERENCE_COEFFICIENTS),
     "trials must be at least 1 and at most 1e+07, got 10000001"),
], ids=("record_every", "picard_max_iter", "k_max", "seed", "trials-low", "trials-high"))
def test_a_count_out_of_its_bounds_is_refused_in_one_wording(grid, call, want):
    with pytest.raises(ParameterError) as exc:
        call(grid)
    assert str(exc.value) == want
    assert exc.value.name == want.split()[1 if want.startswith("need") else 0]


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["dt", "picard_tol"])
def test_stepper_config_refuses_a_dt_or_tolerance_not_positive_and_finite(name, value):
    # picard_tol = inf was accepted: duhamel_picard then reported convergence
    # after one iteration, whatever the difference
    with pytest.raises(ParameterError) as exc:
        StepperConfig(**{name: value})
    assert str(exc.value) == f"{name} must be positive and finite, got {value}"
    assert exc.value.name == name


@pytest.mark.parametrize("value", ["0.01", None, True])
@pytest.mark.parametrize("name,call", [
    ("dt", lambda v: StepperConfig(dt=v)),
    ("picard_tol", lambda v: StepperConfig(picard_tol=v)),
    ("cs", lambda v: StepperConfig(contraction_constant_cs=v)),
    ("cs", lambda v: local_existence_time(1.0, v)),
    ("t0_scale", lambda v: SplitConfig(cutoff=8.0, s=1.5, t0_scale=v)),
    ("T", lambda v: _time_lattice(v, 0.01)),
], ids=("dt", "picard_tol", "cs", "local_existence_time", "t0_scale", "T"))
def test_a_positive_finite_parameter_refuses_a_value_that_is_not_a_real_number(name, call, value):
    # a string or None failed with a bare TypeError naming no parameter, and True ran as 1,
    # as Grid's length did before it was checked
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be a real number, got {value!r}"
    assert exc.value.name == name


def test_report_csv_format(tmp_path, grid):
    rep = run_simulation(Field.zero(grid), _spec(), StepperConfig(dt=0.01), 0.05)
    path = tmp_path / "run.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E,hs0,hs1,hs2,zero_mode,drift_resid"
    assert len(lines) == len(rep.times) + 1


def test_report_csv_header_follows_monitor_s(tmp_path, grid):
    rep = run_simulation(Field.zero(grid), _spec(), StepperConfig(dt=0.01), 0.05,
                         monitor_s=(0.5,))
    path = tmp_path / "run.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E,hs0.5,zero_mode,drift_resid"
    assert all(len(line.split(",")) == 5 for line in lines)


def test_engine_and_stepper_caches_are_bounded(grid):
    f = Field.from_samples(grid, 1e-2 * np.cos(grid.x))
    for k in range(3 * evolution.CACHE_SIZE):
        exponential_rk4_step(f, _spec(), 1e-3 * (1.0 + k / 7.0))
        run_simulation(f, RhsSpec(REFERENCE_COEFFICIENTS, dealias=k % 2 == 0),
                       StepperConfig(dt=0.01), 0.02 + 0.001 * k)
    assert evolution._stepper.cache_info().currsize <= evolution.CACHE_SIZE
    assert evolution._engine.cache_info().currsize <= evolution.CACHE_SIZE


def test_picard_scheme_in_run_simulation(grid):
    eta0 = Field.from_samples(grid, 1e-3 * np.cos(grid.x))
    cfg = StepperConfig(scheme="picard_duhamel", dt=0.05)
    rep = run_simulation(eta0, _spec(), cfg, 0.5)
    assert not rep.aborted
    assert rep.energy[0] == pytest.approx(rep.energy[-1], rel=1e-8)


def test_both_schemes_record_the_same_times(grid):
    # record_every counts Picard nodes as it counts ETDRK4 steps
    eta0 = sech_squared(grid, 0.01)
    reps = {scheme: run_simulation(eta0, _spec(), StepperConfig(scheme=scheme, dt=0.01), 0.08,
                                   record_every=3)
            for scheme in ("exponential_rk4", "picard_duhamel")}
    etd, pic = reps["exponential_rk4"], reps["picard_duhamel"]
    assert len(pic.times) == len(etd.times) == 4  # steps 0, 3, 6 and the last, 8
    np.testing.assert_allclose(pic.times, etd.times, rtol=0, atol=1e-15)
    np.testing.assert_allclose(pic.energy, etd.energy, rtol=1e-10)


def test_both_schemes_step_one_time_lattice_when_t_over_dt_is_not_an_integer(grid):
    # T/dt = 5.2: both take round(T/dt) = 5 steps and stamp k*dt
    eta0 = sech_squared(grid, 0.01)
    reps = [run_simulation(eta0, _spec(), StepperConfig(scheme=scheme, dt=0.01), 0.052)
            for scheme in ("exponential_rk4", "picard_duhamel")]
    assert len(reps[0].times) == 6
    assert np.array_equal(reps[0].times, reps[1].times)
    assert np.array_equal(reps[0].times, np.arange(6) * (0.052 / 5))


def test_time_lattice_refuses_more_than_max_steps():
    assert _time_lattice(10.0, 1e-6) == (MAX_STEPS, 1e-6)  # 10/1e-6 is exactly MAX_STEPS
    for T, dt in ((10.0000001, 1e-6), (1e12, 1e-3), (1e308, 1e-3)):
        with pytest.raises(ValueError, match=r"T = .* at dt = .* steps, over"):
            _time_lattice(T, dt)


@pytest.mark.parametrize("T,dt", [(0.0, 0.01), (-1.0, 0.01), (math.nan, 0.01), (math.inf, 0.01),
                                  (0.1, 0.0), (0.1, -0.01), (0.1, -1.0), (0.1, math.nan),
                                  (0.1, math.inf)])
def test_time_lattice_admits_only_a_positive_finite_t_and_dt(T, dt):
    # every time loop is admitted here; _time_lattice(-1.0, 0.01) was (1, -1.0),
    # one step backward, and (0.1, inf) one step of 0.1
    name, value = ("dt", dt) if 0.0 < T < math.inf else ("T", T)
    with pytest.raises(ParameterError) as exc:
        _time_lattice(T, dt)
    assert str(exc.value) == f"{name} must be positive and finite, got {value}"
    assert exc.value.name == name


def test_time_lattice_bounds_the_steps_of_all_legs():
    # the epsilon sweep's legs, one a checkpoint, each of one step at least
    assert _time_lattice(10.0, 1e-6, 10) == (MAX_STEPS // 10, 1e-6)
    # 11 legs of round(909090.9) steps; 10^12 and 10^7 + 1 legs of one step each
    for T, dt, legs in ((10.0, 1e-6, 11), (0.1, 0.01, 10**12), (1e-6, 1.0, MAX_STEPS + 1)):
        message = rf"^T = {T:g} at dt = {dt:g} makes .* steps in {legs} checkpoints, over "
        with pytest.raises(ValueError, match=message):
            _time_lattice(T, dt, legs)


def test_stepper_config_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        StepperConfig(scheme="euler")
    with pytest.raises(ValueError, match="dt"):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(picard_max_iter=0)


@pytest.mark.parametrize("cs", [0.0, -1.0, math.inf, math.nan])
def test_stepper_config_rejects_contraction_constant(cs):
    with pytest.raises(ParameterError) as exc:
        StepperConfig(contraction_constant_cs=cs)
    assert str(exc.value) == f"cs must be positive and finite, got {cs}"
    assert exc.value.name == "cs"


@pytest.mark.parametrize("T,record_every", [(0.0, 1), (-0.05, 1), (math.inf, 1), (0.05, 0),
                                           (0.05, -1)])
def test_run_simulation_rejects_out_of_range(grid, T, record_every):
    # T is admitted by the time lattice, as in every time loop
    match = "record_every >= 1" if record_every < 1 else "T must be positive and finite"
    with pytest.raises(ValueError, match=match):
        run_simulation(Field.zero(grid), _spec(), StepperConfig(dt=0.01), T,
                       record_every=record_every)


def test_run_memory_is_bounded_in_the_number_of_records():
    # a recorded state at n=256 is 4 KB; a record's diagnostics are a few floats
    grid = Grid(n=256, length=16.0 * math.pi)
    eta0 = sech_squared(grid, 0.5, 1.0)
    cfg = StepperConfig(dt=0.01)
    run_simulation(eta0, _spec(), cfg, 0.04)  # builds the cached stepper
    peaks = {}
    for steps in (40, 400):
        for every in (1, steps):
            tracemalloc.start()
            try:
                run_simulation(eta0, _spec(), cfg, steps * cfg.dt, record_every=every)
                peaks[steps, every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    # the memory of the records: the peak less that of a run of the same
    # steps with one record past the initial one, whose base is a step's arrays
    records = {steps: peaks[steps, 1] - peaks[steps, steps] for steps in (40, 400)}
    per_record = (records[400] - records[40]) / 360
    assert per_record < 1024, peaks
    assert records[400] / 400 < 3 * records[40] / 40, peaks


@pytest.mark.parametrize("scheme,dt,T", [("exponential_rk4", 0.01, 0.2),
                                         ("picard_duhamel", 0.02, 0.2)])
def test_run_diagnostics_are_the_field_functions_of_the_snapshots(grid, scheme, dt, T):
    shifted = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1, gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1, delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=7.0 / 48.0 + 0.1,
    )
    eta0 = Field.from_samples(grid, 1e-3 * (np.cos(grid.x) + 0.5 * np.sin(2.0 * grid.x)))
    rep = run_simulation(eta0, RhsSpec(shifted), StepperConfig(scheme=scheme, dt=dt), T,
                         monitor_s=(0.0, 1.5), record_every=2, keep_snapshots=True)
    assert len(rep.snapshots) == len(rep.times) > 2
    for k, f in enumerate(rep.snapshots):
        assert rep.energy[k] == energy(f, shifted)
        assert rep.zero_mode[k] == f.zero_mode
        assert rep.drift_predicted[k] == energy_drift_predicted(f, shifted)
        for s in (0.0, 1.5):
            assert rep.hs_norms[s][k] == sobolev_norm(f, s)
    assert np.any(rep.drift_predicted != 0.0)


SHIFTED = dataclasses.replace(REFERENCE_COEFFICIENTS, gamma=7.0 / 48.0 + 0.1)  # drift != 0


def _asymmetric(grid, amplitude):
    """A sech^2 of the given amplitude at L/2 and a smaller one at 0.3 L: an even
    pulse alone has an integral of (eta_x)^3, and so a predicted drift, of 0."""
    return sech_squared(grid, amplitude, 1.0) + sech_squared(grid, 0.25, 0.5, 0.3 * grid.length)


def _assert_predictions_are_the_snapshots(rep, c):
    assert len(rep.snapshots) == len(rep.times) == len(rep.drift_predicted)
    assert np.all(np.isfinite(rep.drift_predicted))  # no placeholder is left
    for k, f in enumerate(rep.snapshots):
        assert rep.drift_predicted[k] == energy_drift_predicted(f, c)


@pytest.mark.parametrize("record_every,dealias,linear_only", [
    (1, True, False), (3, True, False), (3, False, False), (3, True, True)])
def test_record_predictions_are_energy_drift_predicted_bit_for_bit(record_every, dealias,
                                                                   linear_only):
    # a dealiased run reads each record's integral from the step after it; the
    # final record, an undealiased and a linear run compute it directly.  T/dt
    # = 8.3 makes 8 steps of T/8, so record_every=3 ends off its lattice.
    grid = Grid(n=128, length=16.0 * math.pi)
    eta0 = _asymmetric(grid, 0.5)
    spec = RhsSpec(SHIFTED, dealias=dealias, linear_only=linear_only)
    rep = run_simulation(eta0, spec, StepperConfig(dt=0.01), 0.083, record_every=record_every,
                         keep_snapshots=True)
    assert len(rep.times) == (9 if record_every == 1 else 4)
    _assert_predictions_are_the_snapshots(rep, SHIFTED)
    assert np.all(rep.drift_predicted != 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("record_every", [1, 3])
def test_an_aborted_run_predicts_its_last_good_record(record_every):
    # the data of test_run_abort_reports_the_step_and_time made asymmetric, so
    # that the drift is not zero.  Step 9 fails: with record_every=1 it is the
    # step after the last record, with 3 the second step after it (record 6)
    grid, dt = Grid(n=64, length=2.0 * math.pi), 0.1
    eta0 = Field.from_samples(grid, 10.5 * (np.cos(grid.x) + 0.3 * np.sin(2.0 * grid.x)))
    rep = run_simulation(eta0, RhsSpec(SHIFTED), StepperConfig(dt=dt), 10.0,
                         record_every=record_every, keep_snapshots=True)
    assert rep.aborted and rep.error.step == 9
    assert len(rep.times) == (9 if record_every == 1 else 3)
    _assert_predictions_are_the_snapshots(rep, SHIFTED)


def _assert_all_finite(rep):
    assert all(np.all(np.isfinite(a)) for a in (rep.times, rep.energy, rep.zero_mode,
                                                 rep.drift_predicted, rep.drift_residual,
                                                 *rep.hs_norms.values()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dealias", [True, False])
def test_a_record_whose_diagnostics_overflow_ends_the_run(dealias):
    # the state at step 7 is finite (coefficients up to 6e154), but its
    # energy and H^1 norm overflow and its prediction is NaN; step 8 is not
    # finite.  The run used to keep that record and end with an inf/NaN row
    grid, dt = Grid(n=64, length=2.0 * math.pi), 0.1
    eta0 = Field.from_samples(grid, 11.0 * (np.cos(grid.x) + 0.3 * np.sin(2.0 * grid.x)))
    spec = RhsSpec(SHIFTED, dealias=dealias)
    rep = run_simulation(eta0, spec, StepperConfig(dt=dt), 10.0, record_every=1,
                         keep_snapshots=True)
    err = rep.error
    assert isinstance(err, evolution.NumericalError) and rep.aborted
    assert (err.step, err.time, err.rows) == (7, 7 * dt, None)
    assert str(err) == f"non-finite diagnostics at step 7 of 100 (t = {7 * dt:g})"
    assert len(rep.times) == 7 and rep.times[-1] == 6 * dt
    _assert_all_finite(rep)
    _assert_predictions_are_the_snapshots(rep, SHIFTED)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dealias", [True, False])
def test_a_record_whose_prediction_alone_overflows_ends_the_run(dealias):
    # E and the H^s norms of 1e103*cos x are finite, (eta_x)^3 overflows and
    # the integral is NaN: the initial record goes, whether its prediction is
    # read from the step after it (dealiased) or computed at once
    grid = Grid(n=64, length=2.0 * math.pi)
    eta0 = Field.from_samples(grid, 1e103 * np.cos(grid.x))
    assert math.isfinite(energy(eta0, SHIFTED))
    rep = run_simulation(eta0, RhsSpec(SHIFTED, dealias=dealias), StepperConfig(dt=0.1), 1.0,
                         keep_snapshots=True)
    assert (rep.error.step, rep.error.time) == (0, 0.0)
    assert len(rep.times) == len(rep.snapshots) == len(rep.drift_residual) == 0


@pytest.mark.parametrize("c,extra", [(SHIFTED, 1), (REFERENCE_COEFFICIENTS, 0)])
def test_records_cost_no_padded_transform_but_the_last(monkeypatch, c, extra):
    # 4 padded inverse transforms per ETDRK4 step; a non-conserving run adds
    # one for its final record, a conserving one predicts no drift at all
    grid, steps = Grid(n=64, length=16.0 * math.pi), 6
    calls = []
    original = evolution.fine_samples

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "fine_samples", counted)
    monkeypatch.setattr(spectral, "fine_samples", counted)
    rep = run_simulation(sech_squared(grid, 0.5, 1.0), RhsSpec(c), StepperConfig(dt=0.01),
                         steps * 0.01)
    assert len(rep.times) == steps + 1
    assert len(calls) == 4 * steps + extra


# ---------------------------------------------------------------------------
# Drift identity
# ---------------------------------------------------------------------------


def test_drift_prediction_vanishes_when_conserving(grid, rng, ref):
    f = random_hs_field(grid, 1.0, rng)
    assert energy_drift_predicted(f, ref) == 0.0


def test_drift_prediction_vanishes_for_cosine(grid):
    shifted = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1,
        gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1,
        delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=7.0 / 48.0 + 0.1,
    )
    f = Field.from_samples(grid, np.cos(grid.x))
    # integral of (-sin x)^3 over a period vanishes
    assert abs(energy_drift_predicted(f, shifted)) < 1e-14


def test_drift_law_along_trajectory():
    # cheap version of the trajectory differentiation check (acceptance runs
    # the large-grid one): residual well below the prediction magnitude
    shifted = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1,
        gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1,
        delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=7.0 / 48.0 + 0.1,
    )
    grid = Grid(n=256, length=32.0 * math.pi)
    eta0 = sech_squared(grid, 0.5, 1.0)
    rep = run_simulation(eta0, RhsSpec(shifted), StepperConfig(dt=1e-3), 0.5)
    pred = rep.drift_predicted
    resid = rep.drift_residual
    interior = slice(2, -2)
    mask = np.abs(pred[interior]) > 1e-8
    assert mask.any()
    rel = np.abs(resid[interior][mask] / pred[interior][mask])
    assert rel.max() <= 0.01


def _drift_residual_loop(times, evals, predicted):
    # per-record reference for uniformly spaced records
    k = len(times)
    dEdt = np.zeros(k)
    dt = times[1] - times[0]
    for i in range(k):
        if 2 <= i < k - 2:
            dEdt[i] = (
                -evals[i + 2] + 8.0 * evals[i + 1] - 8.0 * evals[i - 1] + evals[i - 2]
            ) / (12.0 * dt)
        elif 1 <= i < k - 1:
            dEdt[i] = (evals[i + 1] - evals[i - 1]) / (2.0 * dt)
        elif i == 0:
            dEdt[i] = (evals[1] - evals[0]) / dt
        else:
            dEdt[i] = (evals[-1] - evals[-2]) / dt
    return dEdt - predicted


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 50])
def test_drift_residual_on_the_lattice_matches_per_record_stencils(k, rng):
    times = 0.01 * np.arange(k)
    evals = rng.standard_normal(k)
    predicted = rng.standard_normal(k)
    assert np.array_equal(
        evolution._drift_residual(times, evals, predicted),
        _drift_residual_loop(times, evals, predicted),
    )


def test_drift_residual_final_record_off_the_lattice():
    # records every 0.1 up to 1.0, then a last one at 1.055: the stencils
    # reaching it must use the true spacing
    times = np.append(np.linspace(0.0, 1.0, 11), 1.055)
    evals = np.sin(times) + times**2
    exact = np.cos(times) + 2.0 * times
    resid = evolution._drift_residual(times, evals, exact)
    assert np.abs(resid[2:-3]).max() <= 2e-5  # fourth order on the lattice
    assert abs(resid[-3]) <= 2e-5  # five-point stencil through 1.055
    assert abs(resid[-2]) <= 2e-3  # centred, spacings 0.1 and 0.055
    assert abs(resid[-1]) <= 0.05  # one-sided over the last 0.055


def test_drift_law_with_run_length_off_the_record_lattice():
    grid = Grid(n=256, length=32.0 * math.pi)
    shifted = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1,
        gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1,
        delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=7.0 / 48.0 + 0.1,
    )
    rep = run_simulation(sech_squared(grid, 0.5, 1.0), RhsSpec(shifted),
                         StepperConfig(dt=1e-3), 0.505, record_every=10)
    assert rep.times[-1] - rep.times[-2] == pytest.approx(0.005)
    rel = np.abs(rep.drift_residual / rep.drift_predicted)
    # the same level as the interior (~1e-3 at this resolution); stencils
    # that assume uniform spacing across the short last interval read 4e-2
    # and 0.25 at the last two interior records
    assert rel[2:-1].max() <= 5e-3
    assert rel[-1] <= 0.01


# ---------------------------------------------------------------------------
# Picard / Duhamel
# ---------------------------------------------------------------------------


def test_local_existence_time_values():
    assert local_existence_time(0.0, 1.0) == np.inf
    assert local_existence_time(0.01, 5e-324) == np.inf  # 8*cs*r0*(1 + r0) underflows to 0
    assert local_existence_time(0.01, 1.0) == pytest.approx(1.0 / (0.08 * 1.01))
    assert local_existence_time(1.0, 2.0) == pytest.approx(1.0 / 32.0)


@pytest.mark.parametrize("hs_norm,cs,name", [
    (math.nan, 1.0, "hs_norm"), (-1.0, 1.0, "hs_norm"), (1.0, math.nan, "cs"),
    (1.0, -1.0, "cs"), (1.0, 0.0, "cs"), (0.0, math.inf, "cs")])
def test_local_existence_time_refuses_a_meaningless_norm_or_constant(hs_norm, cs, name):
    # each returned inf, an existence time guaranteed forever
    with pytest.raises(ParameterError) as exc:
        local_existence_time(hs_norm, cs)
    assert exc.value.name == name
    if name == "cs":
        assert str(exc.value) == f"cs must be positive and finite, got {cs}"


def test_picard_zero_data_one_iteration(grid):
    traj, diag = duhamel_picard(
        Field.zero(grid), _spec(), StepperConfig(dt=0.05), 1.0
    )
    assert diag.iterations == 1
    assert diag.converged
    assert all(sobolev_norm(f, 1.0) == 0.0 for f in traj)


def test_picard_refuses_t_beyond_existence_time(grid):
    eta0 = Field.from_samples(grid, np.cos(grid.x))
    r0 = sobolev_norm(eta0, 1.0)
    t_bar = local_existence_time(r0, 1.0)
    with pytest.raises(ValueError, match="T_bar"):
        duhamel_picard(eta0, _spec(), StepperConfig(dt=0.01), t_bar * 1.01)


@pytest.mark.parametrize("T", [0.0, -0.5, math.inf])
def test_picard_rejects_non_positive_or_infinite_t(grid, T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        duhamel_picard(Field.zero(grid), _spec(), StepperConfig(dt=0.01), T)


def test_picard_matches_etdrk4_small_single_mode(grid):
    eps = 1e-3
    eta0 = Field.from_samples(grid, eps * np.cos(grid.x))
    cfg = StepperConfig(dt=0.01)
    T = 1.0
    traj, diag = duhamel_picard(eta0, _spec(), cfg, T)
    assert diag.converged
    f = eta0
    for _ in range(100):
        f = exponential_rk4_step(f, _spec(), 0.01)
    assert sobolev_norm(traj[-1] - f, 1.0) <= 1e-8


def test_picard_contraction_ratios_and_growth(grid):
    eta0 = Field.from_samples(grid, 5e-3 * np.cos(grid.x))
    cfg = StepperConfig(dt=0.02)
    r0 = sobolev_norm(eta0, 1.0)
    T = local_existence_time(r0, 1.0)
    traj, diag = duhamel_picard(eta0, _spec(), cfg, T)
    assert all(r < 1.0 for r in diag.ratios[1:])
    sup = max(sobolev_norm(f, 1.0) for f in traj)
    assert sup <= 2.0 * r0


def _picard_list_version(eta0, spec, cfg, T):
    """duhamel_picard with every I_k kept in a list, as it was written first."""
    eng = evolution._engine(eta0.grid, spec)
    K, dt = evolution._time_lattice(T, cfg.dt)
    e_dt = eng.semigroup_factor(dt)
    e_2dt = e_dt * e_dt
    free = np.empty((K + 1, e_dt.size), dtype=np.complex128)
    free[0] = half_spectrum(eta0.spectral)
    for k in range(1, K + 1):
        free[k] = e_dt * free[k - 1]
    traj = free.copy()
    hs_w = eta0.grid.length * (1.0 + half_spectrum(eta0.grid.wavenumbers) ** 2) ** cfg.sobolev_s
    hs_w[1:-1] *= 2.0
    diffs = []
    for _ in range(cfg.picard_max_iter):
        G = np.array([eng.nonlinear_hat(st) for st in traj])
        new = np.empty_like(traj)
        new[0] = free[0]
        I = [np.zeros_like(e_dt), 0.5 * dt * (e_dt * G[0] + G[1])]
        new[1] = free[1] + I[1]
        for k in range(2, K + 1):
            panel = e_2dt * G[k - 2] + 4.0 * e_dt * G[k - 1] + G[k]
            I.append(e_2dt * I[k - 2] + (dt / 3.0) * panel)
            new[k] = free[k] + I[k]
        diffs.append(float(np.sqrt((hs_w * np.abs(new - traj) ** 2).sum(axis=1)).max()))
        traj = new
        if diffs[-1] < cfg.picard_tol:
            break
    return [full_spectrum(st) for st in traj], diffs


@pytest.mark.parametrize("K", [1, 15, 128, 150])
def test_picard_closed_form_matches_the_list(grid, K):
    # the same Simpson rule summed in integrating-factor form, in blocks of
    # PICARD_BLOCK nodes: K = 128 leaves a last block of one node, K = 150 an
    # odd node count.  Only rounding moves; the last diffs are differences of
    # iterates at rounding level, so they are compared in absolute terms.
    eta0 = Field.from_samples(grid, 5e-3 * np.cos(grid.x) + 2e-3 * np.sin(3.0 * grid.x))
    cfg = StepperConfig(dt=0.3 / K)
    traj, diag = duhamel_picard(eta0, _spec(), cfg, 0.3)
    want_traj, want_diffs = _picard_list_version(eta0, _spec(), cfg, 0.3)
    assert diag.converged and len(diag.diff_norms) == len(want_diffs)
    assert np.allclose(diag.diff_norms, want_diffs, rtol=0.0, atol=1e-15)
    assert len(traj) == K + 1 == len(want_traj)
    scale = max(np.abs(w).max() for w in want_traj)
    assert max(np.abs(f.spectral - w).max() for f, w in zip(traj, want_traj)) <= 1e-13 * scale


def test_picard_peaks_under_48_bytes_a_coefficient(grid):
    # the phases S(t_k) and the trajectory hold 32 bytes a coefficient, the
    # returned Fields 16 more, and a block's work is bounded by PICARD_BLOCK;
    # the phases are freed before the Fields are made.  Evaluating all K + 1
    # nodes as one stack peaked at 320, and holding the phases while the
    # Fields were made at 57
    eta0 = Field.from_samples(grid, 5e-3 * np.cos(grid.x))
    cfg = StepperConfig(dt=1e-4)
    duhamel_picard(eta0, _spec(), cfg, 0.2)  # fills the caches
    tracemalloc.start()
    try:
        traj, diag = duhamel_picard(eta0, _spec(), cfg, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.converged and len(traj) == 2001
    assert peak < 48 * len(traj) * (grid.n // 2 + 1), peak


@pytest.mark.parametrize("call,want", [
    pytest.param(lambda g: sech_squared(g, width=0.0),
                 "width = 0.0 makes sech2 data divide by zero", id="sech2"),
    pytest.param(lambda g: gaussian_bump(g, width=1e-200),  # 2*width^2 rounds to 0
                 "width = 1e-200 makes gaussian data divide by zero", id="gaussian"),
    pytest.param(lambda g: run_simulation(Field.zero(g), _spec(), StepperConfig(dt=0.01), 0.02,
                                          monitor_s=(0.0, 400.0)),
                 "monitor_s = 400.0 makes H^s weights that overflow on grid.n = 64",
                 id="monitor_s"),
    pytest.param(lambda g: duhamel_picard(Field.zero(g), _spec(), StepperConfig(sobolev_s=2**62),
                                          0.1),
                 "sobolev_s = 4611686018427387904 makes H^s weights that overflow on grid.n = 64",
                 id="sobolev_s"),
    pytest.param(lambda g: sobolev_norm(Field.zero(g), 400.0),
                 "s = 400.0 makes H^s weights that overflow on grid.n = 64", id="sobolev_norm"),
    pytest.param(lambda g: estimate_ratio("tau_bilinear", (Field.zero(g),) * 2, 400.0,
                                          REFERENCE_COEFFICIENTS),
                 "s = 400.0 makes H^s weights that overflow on grid.n = 64", id="estimate_ratio"),
    pytest.param(lambda g: empirical_operator_norm("tau_bilinear", 400.0, 10, g,
                                                   REFERENCE_COEFFICIENTS),
                 "s = 400.0 makes H^s weights that overflow on grid.n = 64",
                 id="empirical_operator_norm"),
    pytest.param(lambda g: duhamel_picard(Field.from_samples(g, 1e300 * np.cos(g.x)), _spec(),
                                          StepperConfig(), 0.1),
                 "eta0 makes initial data whose H^s norm at stepper.sobolev_s = 1.0 overflows",
                 id="eta0"),
])
def test_a_parameter_the_arithmetic_cannot_use_raises_parameter_error(grid, call, want):
    # each divided by zero or overflowed: non-finite samples, a run of non-finite
    # records, or Picard's "T_bar = 0.0"; the CLI refused them in its own copies
    with np.errstate(all="ignore"), pytest.raises(ParameterError) as exc:
        call(grid)
    assert str(exc.value) == want
    assert exc.value.name == want.split()[0]


@pytest.mark.parametrize("name,s,call", [
    ("s", math.inf, lambda g: empirical_operator_norm("tau_bilinear", math.inf, 10, g,
                                                      REFERENCE_COEFFICIENTS)),
    ("s", math.inf, lambda g: estimate_ratio("tau_bilinear", (Field.zero(g),) * 2, math.inf,
                                             REFERENCE_COEFFICIENTS)),
    ("s", math.nan, lambda g: sobolev_norm(Field.zero(g), math.nan)),
    ("monitor_s", math.inf, lambda g: run_simulation(Field.zero(g), _spec(),
                                                     StepperConfig(dt=0.01), 0.02,
                                                     monitor_s=(0.0, math.inf))),
    ("sobolev_s", math.nan, lambda g: duhamel_picard(Field.zero(g), _spec(),
                                                     StepperConfig(sobolev_s=math.nan), 0.1)),
], ids=("s", "estimate_ratio", "sobolev_norm", "monitor_s", "sobolev_s"))
def test_a_sobolev_index_that_is_not_finite_is_a_parameter_error_naming_it(grid, name, s, call):
    # each was a plain ValueError, "Sobolev index must be finite", naming no parameter
    with pytest.raises(ParameterError) as exc:
        call(grid)
    assert str(exc.value) == f"{name} must be finite, got {s!r}"
    assert exc.value.name == name


def test_picard_divergence_carries_diagnostics(grid):
    eta0 = Field.from_samples(grid, 1e-3 * np.cos(grid.x))
    cfg = StepperConfig(dt=0.02, picard_tol=1e-30, picard_max_iter=3)
    with pytest.raises(PicardDivergenceError) as exc:
        duhamel_picard(eta0, _spec(), cfg, 0.5)
    assert len(exc.value.diagnostics.diff_norms) == 3


# ---------------------------------------------------------------------------
# Log-log slope fit
# ---------------------------------------------------------------------------


def _linregress(x, y):
    from scipy.stats import linregress  # the reference; bbm5 itself does not import it

    res = linregress(x, y)
    return float(res.slope), float(res.stderr)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_linear_fit_is_linregress_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert evolution._linear_fit(x, y) == _linregress(x, y)


@pytest.mark.parametrize("x", [np.log([8.0, 16.0, 32.0, 64.0]),  # n_sweep's cutoffs
                               np.log([0.1, 0.05, 0.025, 0.0125]),  # epsilon_sweep's
                               np.log([4.0, 8.0, 16.0])])
def test_linear_fit_on_the_sweep_abscissae(x):
    rng = np.random.default_rng(3)
    for slope in (-2.5, -1.8, 0.0, 2.0):
        for _ in range(100):
            y = slope * x + 1e-2 * rng.standard_normal(x.size)
            assert evolution._linear_fit(x, y) == _linregress(x, y)
    assert evolution._linear_fit(x, 2.0 * x + 1.0) == _linregress(x, 2.0 * x + 1.0)


def test_linear_fit_two_points_and_constant_y():
    x, y = np.log([0.1, 0.05]), np.log([3e-3, 8e-4])
    assert evolution._linear_fit(x, y) == _linregress(x, y)
    assert evolution._linear_fit(x, y)[1] == 0.0
    # linregress reports NaN here; the fit is exact, so the error is zero
    assert evolution._linear_fit(np.log([8.0, 16.0, 32.0]), np.full(3, 2.0)) == (0.0, 0.0)
