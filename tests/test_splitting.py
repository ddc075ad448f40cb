"""High/low frequency splitting: decomposition, difference dynamics,
remainder and the reassembly iteration."""

import math
import tracemalloc

import numpy as np
import pytest

from bbm5 import evolution, splitting
from bbm5.coefficients import Bbm5Coefficients, ParameterError, REFERENCE_COEFFICIENTS
from bbm5.evolution import NumericalError, RhsSpec, StepperConfig, _linear_fit, run_simulation
from bbm5.spectral import Field, Grid, sobolev_norm
from bbm5.splitting import (
    SplitConfig,
    compute_h,
    evolve_u,
    evolve_v,
    iterate,
    n_sweep,
    split_initial,
)
from bbm5.symbols import random_hs_field


def _spec():
    return RhsSpec(REFERENCE_COEFFICIENTS)


@pytest.fixture
def big_grid():
    return Grid(n=256, length=2.0 * math.pi)


@pytest.fixture
def rough(big_grid):
    return random_hs_field(big_grid, 1.5, np.random.default_rng(7))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_split_is_exact(rough):
    u0, v0 = split_initial(rough, 8.0)
    assert np.abs(u0.spectral + v0.spectral - rough.spectral).max() == 0.0


def test_split_supports(rough):
    u0, v0 = split_initial(rough, 8.0)
    xi = np.abs(rough.grid.wavenumbers)
    assert np.all(u0.spectral[xi > 8.0] == 0.0)
    assert np.all(v0.spectral[xi <= 8.0] == 0.0)


def test_split_above_nyquist_leaves_nothing_high(rough):
    _, v0 = split_initial(rough, rough.grid.nyquist + 1.0)
    assert np.all(v0.spectral == 0.0)


def test_high_part_norm_bound(rough):
    # ||v0||_{H^rho} <= ||eta0||_{H^s} * N^(rho - s)
    s = 1.5
    for N in (4.0, 8.0, 16.0):
        _, v0 = split_initial(rough, N)
        for rho in (0.0, 1.0):
            assert sobolev_norm(v0, rho) <= (
                sobolev_norm(rough, s) * N ** (rho - s) * (1.0 + 1e-12)
            )


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="cutoff") as exc:
        SplitConfig(cutoff=0.0, s=1.5)
    assert exc.value.name == "cutoff"
    with pytest.raises(ValueError, match="^need k_max >= 0, got -1$") as exc:
        SplitConfig(cutoff=8.0, s=1.5, k_max=-1)
    assert exc.value.name == "k_max"
    with pytest.raises(ValueError, match="s must"):
        SplitConfig(cutoff=8.0, s=2.5)
    with pytest.raises(ValueError, match="s must"):
        SplitConfig(cutoff=8.0, s=0.5)
    # 5e-324 ** -1 raised OverflowError, a traceback from the CLI
    with pytest.raises(ValueError, match=r"^cutoff N = 5e-324 makes N\^\(-2\*\(2-s\)\) overflow"):
        SplitConfig(cutoff=5e-324, s=1.5).t0(0.01)


@pytest.mark.parametrize("s", [2.5, 0.5])
def test_an_index_outside_one_to_two_is_a_parameter_error_naming_s(s):
    # a plain ValueError, which the CLI checked again before the sweep to name split.s
    with pytest.raises(ParameterError, match=rf"^s must lie in \[1, 2\), got {s}$") as exc:
        SplitConfig(cutoff=8.0, s=s)
    assert exc.value.name == "s"


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_config_rejects_t0_scale(scale):
    # an infinite scale would overflow the window's step count, and a scale
    # <= 0 gives no window to clamp
    with pytest.raises(ParameterError) as exc:
        SplitConfig(cutoff=8.0, s=1.5, t0_scale=scale)
    assert str(exc.value) == f"t0_scale must be positive and finite, got {scale}"
    assert exc.value.name == "t0_scale"


def test_window_time_scaling_and_clamp():
    cfg = SplitConfig(cutoff=16.0, s=1.5)
    assert cfg.t0(1e-4) == pytest.approx(16.0 ** (-1.0))
    # clamp: tiny window but coarse dt
    assert SplitConfig(cutoff=256.0, s=1.0).t0(0.01) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Difference dynamics
# ---------------------------------------------------------------------------


def test_v_zero_stays_zero(big_grid, rough):
    # every step of evolve_v's own (eta; u) march, not only the last: with
    # v0 = 0 the rows are equal, so v = eta - u is exactly zero
    u0, _ = split_initial(rough, 8.0)
    steps, dt = evolution._time_lattice(0.1, 0.01)
    march = evolution._march(evolution._stepper(big_grid, _spec(), dt),
                             np.stack((u0.half, u0.half)), steps)
    v_rows = [eu[0] - eu[1] for _k, eu in march]
    assert len(v_rows) == steps + 1 == 11
    assert all(np.all(v == 0.0) for v in v_rows)


def test_u_zero_reduces_to_plain_equation(big_grid):
    # with u = 0 the difference nonlinearity is F(v), so the v solver must
    # reproduce the production solver
    v0 = random_hs_field(big_grid, 1.5, np.random.default_rng(3), amplitude=0.1)
    cfg = StepperConfig(dt=0.01)
    t0 = 0.1
    v_t0, _u_t0 = evolve_v(v0, Field.zero(big_grid), _spec(), cfg, t0)
    rep = run_simulation(v0, _spec(), cfg, t0, keep_snapshots=True)
    direct = rep.snapshots[-1]
    assert sobolev_norm(v_t0 - direct, 1.0) <= 1e-12


def test_additivity(big_grid, rough):
    # u + v must reconstruct the direct solve of the full equation
    eta0 = Field.from_spectral(big_grid, 0.5 * rough.spectral)
    u0, v0 = split_initial(eta0, 8.0)
    cfg = StepperConfig(dt=5e-3)
    t0 = 0.1
    v_t0, u_t0 = evolve_v(v0, u0, _spec(), cfg, t0)
    rep = run_simulation(eta0, _spec(), cfg, t0, keep_snapshots=True)
    err = sobolev_norm(u_t0 + v_t0 - rep.snapshots[-1], 1.0)
    assert err <= 1e-8


@pytest.mark.parametrize("linear_only", [False, True])
def test_evolve_v_returns_the_last_state_of_evolve_u(big_grid, rough, linear_only):
    # each row of the (eta; u) stack steps as that state alone, under
    # linear-only dynamics too, bit for bit: u(t0) is evolve_u's of u0, and
    # v(t0) is evolve_u's of eta0 = u0 + v0 less that of u0
    u0, v0 = split_initial(rough, 8.0)
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=linear_only)
    cfg, t0 = StepperConfig(dt=0.01), 0.1
    u_alone = evolve_u(u0, spec, cfg, t0)
    eta_alone = evolve_u(u0 + v0, spec, cfg, t0)
    v_t0, u_t0 = evolve_v(v0, u0, spec, cfg, t0)
    assert np.array_equal(u_t0.half, u_alone.half)
    assert np.array_equal(v_t0.half, eta_alone.half - u_alone.half)
    assert not np.array_equal(u_t0.half, u0.half)


@pytest.mark.parametrize("t0", [0.0, -0.5, math.nan])
def test_a_window_refuses_a_length_that_is_not_positive_and_finite(rough, t0):
    # a t0 of -0.5 was one step backward of length 0.5, and 0 one step of length 0
    u0, v0 = split_initial(rough, 8.0)
    cfg = StepperConfig(dt=0.01)
    with pytest.raises(ValueError, match="^T must be positive and finite, got "):
        evolve_u(u0, _spec(), cfg, t0)
    with pytest.raises(ValueError, match="^T must be positive and finite, got "):
        evolve_v(v0, u0, _spec(), cfg, t0)


@pytest.mark.parametrize("n, dt", [(64, 0.01), (1024, 1e-3)])
@pytest.mark.parametrize("linear_only", [False, True])
def test_window_is_additive_on_its_lattice(n, dt, linear_only):
    # u(t0) + v(t0) is the ETDRK4 march of eta0 on the same lattice, up to
    # rounding: the window steps u and v with the same stages
    grid = Grid(n=n, length=2.0 * math.pi)
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(n))
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=linear_only)
    t0 = 0.1
    u0, v0 = split_initial(eta0, 8.0)
    v_t0, u_t0 = evolve_v(v0, u0, spec, StepperConfig(dt=dt), t0)
    steps, dt_lattice = evolution._time_lattice(t0, dt)
    *_, (_k, eta_t0) = evolution._march(evolution._stepper(grid, spec, dt_lattice),
                                        eta0.half, steps)
    eta_t0 = Field(grid, half=eta_t0)
    assert sobolev_norm(u_t0 + v_t0 - eta_t0, 1.0) <= 1e-13 * sobolev_norm(eta_t0, 1.0)


def test_window_memory_does_not_grow_with_its_steps():
    # one iterate round at n=1024, N=8 (t0 = 0.125) with 4x the steps keeps
    # less than four more half spectra: the window holds no trajectory
    grid = Grid(n=1024, length=2.0 * math.pi)
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(42))
    cfg = SplitConfig(cutoff=8.0, s=1.5)
    peaks = {}
    for dt in (1e-3, 2.5e-4):
        iterate(eta0, cfg, _spec(), StepperConfig(dt=dt))  # builds the cached steppers
        tracemalloc.start()
        try:
            iterate(eta0, cfg, _spec(), StepperConfig(dt=dt))
            peaks[dt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2.5e-4] - peaks[1e-3] < 4 * (grid.n // 2 + 1) * 16, peaks


# ---------------------------------------------------------------------------
# Remainder
# ---------------------------------------------------------------------------


def test_h_zero_for_zero_v(big_grid, rough):
    u0, _ = split_initial(rough, 8.0)
    cfg = StepperConfig(dt=0.01)
    v_t0, _u_t0 = evolve_v(Field.zero(big_grid), u0, _spec(), cfg, 0.1)
    _h, h_H2 = compute_h(v_t0, Field.zero(big_grid), 0.1, REFERENCE_COEFFICIENTS)
    assert h_H2 == 0.0


def test_h_zero_under_linear_only_dynamics(big_grid, rough):
    # nonlinearity off: v evolves freely, so the Duhamel remainder vanishes
    u0, v0 = split_initial(rough, 8.0)
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=True)
    cfg = StepperConfig(dt=0.01)
    t0 = 0.1
    v_t0, _u_t0 = evolve_v(v0, u0, spec, cfg, t0)
    _h, h_H2 = compute_h(v_t0, v0, t0, REFERENCE_COEFFICIENTS)
    assert h_H2 <= 1e-12


# ---------------------------------------------------------------------------
# Iteration and sweep
# ---------------------------------------------------------------------------


def test_iterate_requires_energy_conservation(big_grid, rough):
    off = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1,
        gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1,
        delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=0.2,
    )
    cfg = SplitConfig(cutoff=8.0, s=1.5, k_max=1)
    with pytest.raises(ValueError, match="7/48"):
        iterate(rough, cfg, RhsSpec(off), StepperConfig(dt=0.01))


def test_iterate_k_zero_returns_split_only(big_grid, rough):
    cfg = SplitConfig(cutoff=8.0, s=1.5, k_max=0)
    u, v, rep = iterate(rough, cfg, _spec(), StepperConfig(dt=0.01))
    u0, v0 = split_initial(rough, 8.0)
    assert np.array_equal(u.half, u0.half) and np.array_equal(v.half, v0.half)
    assert rep["h_H2"] == []


@pytest.mark.parametrize("k_max", [1, 3])
def test_iterate_one_round_invariants(big_grid, rough, k_max):
    cfg = SplitConfig(cutoff=8.0, s=1.5, k_max=k_max, t0_scale=0.4)  # t0 = 0.05
    u, v, rep = iterate(rough, cfg, _spec(), StepperConfig(dt=5e-3))
    assert len(rep["h_H2"]) == k_max
    assert len(rep["E_u"]) == len(rep["v_hs"]) == k_max + 1
    # v is propagated freely, so its H^s norm is invariant
    assert rep["v_hs"][-1] == pytest.approx(rep["v_hs"][0], rel=1e-12)
    # the u energy is conserved over the first window up to integrator error
    assert rep["E_u_t0"][0] == pytest.approx(rep["E_u"][0], rel=1e-8)
    # reconstruction identity: u_k + v_k equals the total state evolved to k*t0
    # on the same lattice (10 steps a window)
    total = run_simulation(rough, _spec(), StepperConfig(dt=5e-3), k_max * 0.05,
                           keep_snapshots=True).snapshots[-1]
    assert sobolev_norm(u + v - total, 1.0) <= 1e-12


def test_n_sweep_nyquist_guard(big_grid, rough):
    with pytest.raises(ValueError, match="Nyquist"):
        n_sweep(rough, 1.5, (64.0, 128.0), spec=_spec(),
                stepper=StepperConfig(dt=0.01))


def test_n_sweep_single_cutoff_has_no_slope(big_grid, rough):
    out = n_sweep(rough, 1.5, (8.0,), spec=_spec(), stepper=StepperConfig(dt=0.01))
    assert "h_slope" not in out
    assert len(out["rows"]) == 1
    assert {"N", "t0", "h_H2", "u_H2_t0", "E_u1_minus_E_ut0"} <= out["rows"][0].keys()


def test_second_identical_n_sweep_builds_no_stepper(big_grid, rough, monkeypatch):
    built = []
    init = evolution.Etdrk4Stepper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolution.Etdrk4Stepper, "__init__", counting_init)
    evolution._stepper.cache_clear()
    sweep = lambda: n_sweep(rough, 1.5, (8.0, 10.0), spec=_spec(),  # noqa: E731
                            stepper=StepperConfig(dt=0.01))
    first = sweep()
    assert built == [0.01]  # one stepper of stepper.dt for every window
    assert sweep() == first
    assert built == [0.01]


def test_n_sweep_leaves_out_a_slope_it_cannot_fit(big_grid):
    # zero data: every remainder and energy increment is zero, so no slope
    # is fitted and none is reported (it used to be NaN)
    out = n_sweep(Field.zero(big_grid), 1.5, (4.0, 8.0, 16.0), spec=_spec(),
                  stepper=StepperConfig(dt=0.01))
    assert len(out["rows"]) == 3
    assert "h_slope" not in out and "energy_increment_slope" not in out


def _row(N, rep):
    return {"N": N, "t0": rep["t0"], "h_H2": rep["h_H2"][0], "u_H2_t0": rep["u_H2_t0"][0],
            "E_u1_minus_E_ut0": rep["E_u"][1] - rep["E_u_t0"][0]}


def test_n_sweep_is_its_windows_one_after_another_bit_for_bit(rough):
    # the cutoffs are out of order and three windows clamp to one length, 10 steps
    cutoffs, cfg = (16.0, 8.0, 32.0, 11.0), StepperConfig(dt=0.01)
    want = [_row(N, iterate(rough, SplitConfig(cutoff=N, s=1.5), _spec(), cfg)[2])
            for N in cutoffs]
    assert [SplitConfig(cutoff=N, s=1.5).steps(cfg.dt) for N in cutoffs] == [10, 12, 10, 10]
    out = n_sweep(rough, 1.5, cutoffs, spec=_spec(), stepper=cfg)
    assert repr(out["rows"]) == repr(want)  # repr tells every float apart, -0.0 from 0.0
    for key, col in (("h_slope", "h_H2"), ("energy_increment_slope", "E_u1_minus_E_ut0")):
        slope, stderr = _linear_fit(np.log(cutoffs), np.log(np.abs([r[col] for r in want])))
        assert repr(out[key]) == repr({"slope": slope, "ci95": 1.96 * stderr})


def test_a_default_sweep_marches_eta_once_on_one_stepper(monkeypatch):
    # n = 1024, cutoffs 8 to 64, dt = 1e-3: windows of 125, 62, 31 and 16 steps
    # share one eta row, so the sweep makes 125 steps; each cutoff marched
    # eta again on its own lattice, 234 steps and three stepper builds
    grid = Grid(n=1024, length=2.0 * math.pi)
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(17))
    cfg = StepperConfig(dt=1e-3)
    want = [_row(N, iterate(eta0, SplitConfig(cutoff=N, s=1.5), _spec(), cfg)[2])
            for N in (8.0, 16.0, 32.0, 64.0)]
    built, steps = [], []
    init, step = evolution.Etdrk4Stepper.__init__, evolution.Etdrk4Stepper.step

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    def counting_step(self, *args, **kwargs):
        steps.append(args[0].shape)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(evolution.Etdrk4Stepper, "__init__", counting_init)
    monkeypatch.setattr(evolution.Etdrk4Stepper, "step", counting_step)
    evolution._stepper.cache_clear()
    out = n_sweep(eta0, 1.5, spec=_spec(), stepper=cfg)
    assert built == [1e-3]
    assert len(steps) == 125
    assert sum(shape[0] for shape in steps) == 359  # row-steps: 16 of 5 rows, ... 63 of 2
    assert [r["t0"] for r in out["rows"]] == [0.125, 0.062, 0.031, 0.016]
    assert repr(out["rows"]) == repr(want)


def test_sweep_memory_is_bounded_by_a_block_of_windows():
    # a stack of every window grew by about 55 kB a cutoff at n = 256; a block
    # of WINDOW_BLOCK windows at a time keeps the peak from growing with them
    grid = Grid(n=256, length=2.0 * math.pi)
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(5))
    peaks = {}
    for count in (16, 64):
        cutoffs = tuple(np.linspace(1.0, 32.0, count))
        sweep = lambda: n_sweep(eta0, 1.5, cutoffs, spec=_spec(),  # noqa: E731
                                stepper=StepperConfig(dt=0.01), t0_scale=0.05)
        sweep()  # builds the cached stepper and engine buffers
        tracemalloc.start()
        try:
            sweep()
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] - peaks[16] < (64 - 16) * (grid.n // 2 + 1) * 16, peaks


def test_n_sweep_checks_every_cutoff_before_a_window_steps(rough, monkeypatch):
    # the window of N = 8 used to run before SplitConfig refused N = -1
    ran = []
    monkeypatch.setattr(splitting, "_windows", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="cutoff N must be positive"):
        n_sweep(rough, 1.5, (8.0, -1.0), spec=_spec(), stepper=StepperConfig(dt=0.01))
    assert ran == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sweep_blow_up_names_its_step_on_the_shared_lattice_and_the_first_cutoff():
    # windows of 10, 20, 10 and 40 steps of 0.05; the first non-finite step of
    # a plain step loop of each window's (eta; u) stack, within its window,
    # is past the end of the two short windows
    grid, dt = Grid(n=256, length=2.0 * math.pi), 0.05
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(0), amplitude=23.6)
    cutoffs = (16.0, 4.0, 8.0, 2.0)
    st, bad = evolution._stepper(grid, _spec(), dt), {}
    for N in cutoffs:
        u0, v0 = split_initial(eta0, N)
        eu, k, steps = np.stack(((u0 + v0).half, u0.half)), 0, \
            SplitConfig(cutoff=N, s=1.5, t0_scale=4.0).steps(dt)
        with np.errstate(over="ignore", invalid="ignore"):
            while k < steps and np.isfinite(eu).all():
                eu, k = st.step(eu), k + 1
        if not np.isfinite(eu).all():
            bad[N] = (k, steps, np.flatnonzero(~np.isfinite(eu).all(axis=1)).tolist())
    step = min(k for k, _steps, _rows in bad.values())
    named = next(N for N in cutoffs if N in bad and bad[N][0] == step)
    assert step > 10  # in the second segment of the march, after two windows ended
    with pytest.raises(NumericalError) as info:
        n_sweep(eta0, 1.5, cutoffs, spec=_spec(), stepper=StepperConfig(dt=dt), t0_scale=4.0)
    err = info.value
    assert (err.step, err.time, err.rows) == (step, step * dt, bad[named][2])
    assert str(err) == (f"non-finite state at step {step} of {bad[named][1]} "
                        f"(t = {step * dt:g}) in the window of N = {named:g}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("part", ["u", "v"])
def test_blow_up_raises_numerical_error(big_grid, part):
    blow_up = random_hs_field(big_grid, 1.5, np.random.default_rng(0), amplitude=1e4)
    cfg = StepperConfig(dt=0.05)
    with pytest.raises(NumericalError, match="non-finite state"):
        if part == "u":
            evolve_v(Field.zero(big_grid), blow_up, _spec(), cfg, 1.0)
        else:
            evolve_v(blow_up, Field.zero(big_grid), _spec(), cfg, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("part", ["u", "v"])
def test_blow_up_reports_the_step_and_time(big_grid, part):
    # the data of test_blow_up_raises_numerical_error; the step named is the
    # first non-finite one of a plain step loop of the (eta; u) stack, its
    # time is k*dt, and its rows are the non-finite ones (0 = eta, 1 = u)
    blow_up = random_hs_field(big_grid, 1.5, np.random.default_rng(0), amplitude=1e4)
    zero = Field.zero(big_grid)
    v0, u0 = (zero, blow_up) if part == "u" else (blow_up, zero)
    dt = 0.05
    st = evolution._stepper(big_grid, _spec(), dt)
    eu, bad = np.stack(((u0 + v0).half, u0.half)), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(eu).all():
            eu, bad = st.step(eu), bad + 1
    rows = np.flatnonzero(~np.isfinite(eu).all(axis=1)).tolist()
    assert (1 in rows) == (part == "u")  # a blown-up u takes eta with it, not the other way
    with pytest.raises(NumericalError) as info:
        evolve_v(v0, u0, _spec(), StepperConfig(dt=dt), 1.0)
    err = info.value
    assert (err.step, err.time, err.rows) == (bad, bad * dt, rows)
    assert str(err) == f"non-finite state at step {bad} of 20 (t = {bad * dt:g})"
