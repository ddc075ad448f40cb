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
    cfg = StepperConfig(dt=0.01)
    steps, dt = evolution._time_lattice(0.1, cfg.dt)
    nl = splitting._DifferenceEngine(evolution._engine(big_grid, _spec()), u0.half,
                                     evolve_u(u0, _spec(), cfg, 0.1))
    march = evolution._march(evolution._stepper(big_grid, _spec(), dt),
                             Field.zero(big_grid).half, steps, nl)
    v_traj = [Field(big_grid, half=c) for _k, c in march]
    assert len(v_traj) == steps == 10
    assert all(np.all(v.spectral == 0.0) for v in v_traj)


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


class _PaddedTrajectoryEngine:
    """The difference nonlinearity with the whole u trajectory drawn and
    padded up front, one transform per array; u is its last state."""

    def __init__(self, engine, u0_half, u_states):
        self.eng = engine
        u_traj = [u0_half, *(c for _k, c in u_states)]
        self.u = u_traj[-1]
        self.u_fine = [engine.to_fine(c) for c in u_traj]
        self.ux_fine = [engine.to_fine(engine.ikx_d * c) for c in u_traj]

    def __call__(self, v_hat, node):
        eng, u, ux = self.eng, self.u_fine[node], self.ux_fine[node]
        v = eng.to_fine(v_hat)
        vx = eng.to_fine(eng.ikx_d * v_hat)
        return eng.combine(v * v + 2.0 * u * v,
                           3.0 * u * u * v + 3.0 * u * v * v + v * v * v,
                           2.0 * ux * vx + vx * vx)


def test_difference_engine_pads_u_per_call_and_keeps_no_fine_grid_arrays(big_grid, rough):
    u0, v0 = split_initial(rough, 8.0)
    cfg = StepperConfig(dt=0.01)
    eng = evolution._engine(big_grid, _spec())
    nl = splitting._DifferenceEngine(eng, u0.half, evolve_u(u0, _spec(), cfg, 0.1))
    padded = _PaddedTrajectoryEngine(eng, u0.half, evolve_u(u0, _spec(), cfg, 0.1))
    for node in range(2 * 10 + 1):  # each node in turn, as the stages ask for them
        assert np.array_equal(nl(v0.half, node), padded(v0.half, node))
        assert nl.node == node
        # the one array kept is u's current half spectrum
        kept = [v for v in vars(nl).values() if isinstance(v, (np.ndarray, list))]
        assert len(kept) == 1 and kept[0] is nl.u
        assert nl.u.shape == (big_grid.n // 2 + 1,)
    assert np.array_equal(nl.u, padded.u)


@pytest.mark.parametrize("n", [64, 1024])
def test_difference_engine_is_the_plain_expanded_formula_bit_for_bit(n):
    grid = Grid(n=n, length=2.0 * math.pi)
    rng = np.random.default_rng(n)
    u_traj = [random_hs_field(grid, 1.5, rng, 0.5) for _ in range(3)]
    v_hat = random_hs_field(grid, 1.5, rng, 0.3).half
    eng = evolution._engine(grid, _spec())
    nl = splitting._DifferenceEngine(eng, u_traj[0].half,
                                     ((k, f.half) for k, f in enumerate(u_traj[1:], 1)))
    for node in range(3):
        (v, u), (vx, ux) = eng.fine_pair(np.stack((v_hat, u_traj[node].half)))
        want = eng.combine(v * v + 2.0 * u * v,
                           3.0 * u * u * v + 3.0 * u * v * v + v * v * v,
                           2.0 * ux * vx + vx * vx)
        assert np.array_equal(nl(v_hat, node), want)


def test_split_outputs_are_those_of_the_padded_trajectory(tmp_path, monkeypatch):
    # the acceptance-10 split config, byte for byte
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({
        "grid": {"n": 128, "length": 2.0 * math.pi}, "stepper": {"dt": 0.01},
        "split": {"s": 1.5, "cutoffs": [4.0, 8.0], "initial": {"kind": "random", "s": 1.5}}}))
    run = lambda tag: cli_main(["split", "--config", str(cfg), "--out",  # noqa: E731
                                str(tmp_path / tag), "--seed", "17", "--quiet"])
    assert run("per-call") == 0
    monkeypatch.setattr(splitting, "_DifferenceEngine", _PaddedTrajectoryEngine)
    assert run("padded") == 0
    names = ["split_summary.json", "split_sweep.csv"]
    assert filecmp.cmpfiles(tmp_path / "per-call", tmp_path / "padded", names,
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
    # u steps as the stages of v read it, under linear-only dynamics too,
    # and ends at node 2*steps bit for bit
    u0, v0 = split_initial(rough, 8.0)
    spec = RhsSpec(REFERENCE_COEFFICIENTS, linear_only=linear_only)
    cfg, t0 = StepperConfig(dt=0.01), 0.1
    *_, (node, u_last) = evolve_u(u0, spec, cfg, t0)
    _v_t0, u_t0 = evolve_v(v0, u0, spec, cfg, t0)
    assert node == 2 * 10
    assert np.array_equal(u_t0.half, u_last)
    assert not np.array_equal(u_t0.half, u0.half)


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
    assert len(built) == 4  # a half-step and a full-step stepper per window
    assert sweep() == first
    assert len(built) == 4


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
    # first non-finite one of a plain step loop, and its time is k*dt with
    # dt the stepper's own (a half step for u)
    blow_up = random_hs_field(big_grid, 1.5, np.random.default_rng(0), amplitude=1e4)
    zero = Field.zero(big_grid)
    steps, dt = (40, 0.025) if part == "u" else (20, 0.05)
    st = evolution._stepper(big_grid, _spec(), dt)
    nl = None if part == "u" else splitting._DifferenceEngine(
        st.engine, zero.half, evolve_u(zero, _spec(), StepperConfig(dt=0.05), 1.0))
    c_hat, bad = blow_up.half, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(c_hat).all():
            c_hat, bad = st.step(c_hat, nl, bad), bad + 1
    with pytest.raises(NumericalError) as info:
        if part == "u":
            evolve_v(zero, blow_up, _spec(), StepperConfig(dt=0.05), 1.0)
        else:
            evolve_v(blow_up, zero, _spec(), StepperConfig(dt=0.05), 1.0)
    err = info.value
    assert (err.step, err.time, err.rows) == (bad, bad * dt, None)
    assert str(err) == f"non-finite state at step {bad} of {steps} (t = {bad * dt:g})"
