"""High/low frequency splitting: decomposition, difference dynamics,
remainder and the reassembly iteration."""

import filecmp
import json
import math
import tracemalloc

import numpy as np
import pytest

from bbm5 import evolution, splitting
from bbm5.cli import main as cli_main
from bbm5.coefficients import Bbm5Coefficients, REFERENCE_COEFFICIENTS
from bbm5.evolution import (NumericalError, RhsSpec, StepperConfig, run_simulation,
                            semigroup_apply)
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
    with pytest.raises(ValueError, match="cutoff"):
        SplitConfig(cutoff=0.0, s=1.5)
    with pytest.raises(ValueError, match="s must"):
        SplitConfig(cutoff=8.0, s=2.5)
    with pytest.raises(ValueError, match="s must"):
        SplitConfig(cutoff=8.0, s=0.5)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_config_rejects_t0_scale(scale):
    # an infinite scale would overflow the window's step count, and a scale
    # <= 0 gives no window to clamp
    with pytest.raises(ValueError, match="t0_scale"):
        SplitConfig(cutoff=8.0, s=1.5, t0_scale=scale)


def test_window_time_scaling_and_clamp():
    cfg = SplitConfig(cutoff=16.0, s=1.5)
    assert cfg.t0(1e-4) == pytest.approx(16.0 ** (-1.0))
    # clamp: tiny window but coarse dt
    assert SplitConfig(cutoff=256.0, s=1.0).t0(0.01) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Difference dynamics
# ---------------------------------------------------------------------------


def test_v_zero_stays_zero(big_grid, rough):
    # every step of evolve_v's own march, not only the last
    u0, _ = split_initial(rough, 8.0)
    steps, dt = evolution._time_lattice(0.1, 0.01)
    st = evolution._stepper(big_grid, _spec(), dt)
    march = evolution._march(st, np.stack((Field.zero(big_grid).half, u0.half)), steps,
                             splitting._window_nl(st.engine))
    v_rows = [vu[0] for _k, vu in march]
    assert len(v_rows) == steps == 10
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


def _padded_plain_nl(eng):
    """The window nonlinearity as plain formulas of fresh temporaries, each
    array padded by its own transform."""

    def nl(vu):
        if eng.linear_only:
            return np.zeros_like(vu)
        v, u = (eng.to_fine(c) for c in vu)
        vx, ux = (eng.to_fine(eng.ikx_d * c) for c in vu)
        return np.stack((eng.combine(v * v + 2.0 * u * v,
                                     3.0 * u * u * v + 3.0 * u * v * v + v * v * v,
                                     2.0 * ux * vx + vx * vx),
                         eng.combine(u * u, u * (u * u), ux * ux)))

    return nl


@pytest.mark.parametrize("n", [64, 1024])
def test_window_nl_is_the_expanded_formula_and_nonlinear_hat_bit_for_bit(n):
    # row 0: F(u+v) - F(u) expanded; row 1: F(u) as the equation's own engine forms it
    grid = Grid(n=n, length=2.0 * math.pi)
    rng = np.random.default_rng(n)
    u_hat = random_hs_field(grid, 1.5, rng, 0.5).half
    v_hat = random_hs_field(grid, 1.5, rng, 0.3).half
    eng = evolution._engine(grid, _spec())
    got = splitting._window_nl(eng)(np.stack((v_hat, u_hat)))
    (v, u), (vx, ux) = eng.fine_pair(np.stack((v_hat, u_hat)))
    want = eng.combine(v * v + 2.0 * u * v,
                       3.0 * u * u * v + 3.0 * u * v * v + v * v * v,
                       2.0 * ux * vx + vx * vx)
    assert got.shape == (2, n // 2 + 1)
    assert np.array_equal(got[0], want)
    assert np.array_equal(got[1], eng.nonlinear_hat(u_hat))


def test_split_outputs_are_those_of_the_padded_trajectory(tmp_path, monkeypatch):
    # the acceptance-10 split config, byte for byte
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({
        "grid": {"n": 128, "length": 2.0 * math.pi}, "stepper": {"dt": 0.01},
        "split": {"s": 1.5, "cutoffs": [4.0, 8.0], "initial": {"kind": "random", "s": 1.5}}}))
    run = lambda tag: cli_main(["split", "--config", str(cfg), "--out",  # noqa: E731
                                str(tmp_path / tag), "--seed", "17", "--quiet"])
    assert run("in-place") == 0
    monkeypatch.setattr(splitting, "_window_nl", _padded_plain_nl)
    assert run("padded") == 0
    names = ["split_summary.json", "split_sweep.csv"]
    assert filecmp.cmpfiles(tmp_path / "in-place", tmp_path / "padded", names,
                            shallow=False)[0] == names


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
    # u's row of the (v; u) stack steps as u alone, under linear-only
    # dynamics too, bit for bit
    u0, v0 = split_initial(rough, 8.0)
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=linear_only)
    cfg, t0 = StepperConfig(dt=0.01), 0.1
    u_alone = evolve_u(u0, spec, cfg, t0)
    _v_t0, u_t0 = evolve_v(v0, u0, spec, cfg, t0)
    assert np.array_equal(u_t0.half, u_alone.half)
    assert not np.array_equal(u_t0.half, u0.half)


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
    h, norms = compute_h(v_t0, Field.zero(big_grid), 0.1, REFERENCE_COEFFICIENTS)
    assert norms["h_H2"] == 0.0


def test_h_zero_under_linear_only_dynamics(big_grid, rough):
    # nonlinearity off: v evolves freely, so the Duhamel remainder vanishes
    u0, v0 = split_initial(rough, 8.0)
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=True)
    cfg = StepperConfig(dt=0.01)
    t0 = 0.1
    v_t0, _u_t0 = evolve_v(v0, u0, spec, cfg, t0)
    _, norms = compute_h(v_t0, v0, t0, REFERENCE_COEFFICIENTS)
    assert norms["h_H2"] <= 1e-12


def test_h_norm_summary_consistency(big_grid, rough):
    u0, v0 = split_initial(rough, 8.0)
    cfg = StepperConfig(dt=0.01)
    t0 = 0.1
    v_t0, _u_t0 = evolve_v(v0, u0, _spec(), cfg, t0)
    h, norms = compute_h(v_t0, v0, t0, REFERENCE_COEFFICIENTS)
    assert norms["h_H1"] <= norms["h_H2"] * (1.0 + 1e-12)
    # equivalent-norm sandwich for the H1 + |dx .|_H1 combination
    assert norms["h_H2"] <= norms["h_H1_plus_dxh_H1"] * (1.0 + 1e-12)
    assert norms["h_H1_plus_dxh_H1"] <= 2.0 * norms["h_H2"] * (1.0 + 1e-12)


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
    states, rep = iterate(rough, cfg, _spec(), StepperConfig(dt=0.01))
    assert len(states) == 1
    u0, v0 = split_initial(rough, 8.0)
    assert np.array_equal(states[0].u.spectral, u0.spectral)
    assert rep["h_H2"] == []


def test_iterate_one_round_invariants(big_grid, rough):
    cfg = SplitConfig(cutoff=8.0, s=1.5, k_max=1, t0_scale=0.4)  # t0 = 0.05
    states, rep = iterate(rough, cfg, _spec(), StepperConfig(dt=5e-3))
    assert len(states) == 2
    # v is propagated freely, so its H^s norm is invariant
    assert rep["v_hs"][1] == pytest.approx(rep["v_hs"][0], rel=1e-12)
    # the u energy is conserved over the window up to integrator error
    assert rep["E_u_t0"][0] == pytest.approx(rep["E_u"][0], rel=1e-8)
    # reconstruction identity: u1 + v1 equals the evolved total state
    total = run_simulation(rough, _spec(), StepperConfig(dt=5e-3), 0.05,
                           keep_snapshots=True).snapshots[-1]
    u1_plus_v1 = states[1].u + states[1].v
    assert sobolev_norm(u1_plus_v1 - total, 1.0) <= 1e-8


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
    assert len(built) == 2  # one stepper per window
    assert sweep() == first
    assert len(built) == 2


def test_n_sweep_leaves_out_a_slope_it_cannot_fit(big_grid):
    # zero data: every remainder and energy increment is zero, so no slope
    # is fitted and none is reported (it used to be NaN)
    out = n_sweep(Field.zero(big_grid), 1.5, (4.0, 8.0, 16.0), spec=_spec(),
                  stepper=StepperConfig(dt=0.01))
    assert len(out["rows"]) == 3
    assert "h_slope" not in out and "energy_increment_slope" not in out


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
    # first non-finite one of a plain step loop of the (v; u) stack, its time
    # is k*dt, and its rows are the non-finite ones (0 = v, 1 = u)
    blow_up = random_hs_field(big_grid, 1.5, np.random.default_rng(0), amplitude=1e4)
    zero = Field.zero(big_grid)
    v0, u0 = (zero, blow_up) if part == "u" else (blow_up, zero)
    dt = 0.05
    st = evolution._stepper(big_grid, _spec(), dt)
    nl = splitting._window_nl(st.engine)
    vu, bad = np.stack((v0.half, u0.half)), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(vu).all():
            vu, bad = st.step(vu, nl), bad + 1
    rows = np.flatnonzero(~np.isfinite(vu).all(axis=1)).tolist()
    assert (1 in rows) == (part == "u")  # a blown-up u takes v with it, not the other way
    with pytest.raises(NumericalError) as info:
        evolve_v(v0, u0, _spec(), StepperConfig(dt=dt), 1.0)
    err = info.value
    assert (err.step, err.time, err.rows) == (bad, bad * dt, rows)
    assert str(err) == f"non-finite state at step {bad} of 20 (t = {bad * dt:g})"
