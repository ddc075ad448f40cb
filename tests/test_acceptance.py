"""End-to-end acceptance checks at production scale.

Each test exercises one headline guarantee at its stated tolerance and prints
a single PASS/FAIL line (run with -s to see them inline).  Slower than the
unit modules: the whole file takes a few minutes on one core.
"""

import filecmp
import math
from fractions import Fraction

import numpy as np
import pytest

from bbm5.coefficients import (
    Bbm5Coefficients,
    ModelParameters,
    REFERENCE_COEFFICIENTS,
    derive_bbm5,
    derive_first_order,
    reference_parameters,
)
from bbm5.derivation import epsilon_sweep
from bbm5.evolution import (
    RhsSpec,
    StepperConfig,
    duhamel_picard,
    exponential_rk4_step,
    local_existence_time,
    run_simulation,
    sech_squared,
    semigroup_apply,
)
from bbm5.spectral import Field, Grid, sobolev_norm
from bbm5.splitting import n_sweep
from bbm5.symbols import (
    empirical_operator_norm,
    eval_symbol,
    random_hs_field,
    scan_sup,
    sup_bound,
)
from cli_outputs import CONFIGS, run_command


def _verdict(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_acceptance_01_coefficient_algebra():
    rng = np.random.default_rng(0)
    worst_sum = worst_pair = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, 1.0)
        lam, mu, lam1, mu1, rho = rng.uniform(-3.0, 3.0, size=5)
        p = ModelParameters(theta=theta, lam=lam, mu=mu, lam1=lam1, mu1=mu1, rho=rho)
        f = derive_first_order(p)
        c = derive_bbm5(p)
        worst_sum = max(worst_sum, abs(f.a + f.b + f.c + f.d - 1.0 / 3.0))
        worst_pair = max(worst_pair, abs(c.gamma1 + c.gamma2 - 1.0 / 6.0))

    ref = derive_bbm5(reference_parameters())
    oracle = {
        "gamma1": Fraction(1, 12),
        "gamma2": Fraction(1, 12),
        "delta1": Fraction(7, 72),
        "delta2": Fraction(49, 360),
        "gamma": Fraction(7, 48),
    }
    worst_ref = max(
        abs(getattr(ref, k) - float(v)) for k, v in oracle.items()
    )
    ok = worst_sum <= 1e-14 and worst_pair <= 1e-14 and worst_ref <= 1e-12
    _verdict(1, "coefficient algebra", ok,
             f"sum {worst_sum:.2e}, pair {worst_pair:.2e}, ref {worst_ref:.2e}")


def test_acceptance_02_semigroup_isometry():
    grid = Grid(n=256, length=2.0 * math.pi)
    c = REFERENCE_COEFFICIENTS
    worst_iso = 0.0
    for seed in range(100):
        f = random_hs_field(grid, 1.0, np.random.default_rng(seed))
        for t in (0.1, 1.0, 10.0):
            g = semigroup_apply(f, t, c)
            for s in (0.0, 1.0, 2.0):
                worst_iso = max(
                    worst_iso, abs(sobolev_norm(g, s) - sobolev_norm(f, s))
                )
    worst_phase = 0.0
    for k in range(1, 9):
        f = Field.from_samples(grid, np.cos(k * grid.x))
        t = 1.3
        g = semigroup_apply(f, t, c)
        phi_k = eval_symbol("phi", float(k), c)
        worst_phase = max(
            worst_phase,
            np.abs(g.samples - np.cos(k * grid.x - phi_k * t)).max(),
        )
    ok = worst_iso <= 1e-12 and worst_phase <= 1e-10
    _verdict(2, "semigroup isometry", ok,
             f"isometry {worst_iso:.2e}, phase {worst_phase:.2e}")


def test_acceptance_03_energy_conservation():
    grid = Grid(n=2048, length=64.0 * math.pi)
    eta0 = sech_squared(grid, 0.5, 1.0)
    rep = run_simulation(
        eta0, RhsSpec(REFERENCE_COEFFICIENTS), StepperConfig(dt=1e-3), 10.0,
        record_every=100,
    )
    drift = abs(rep.energy[-1] - rep.energy[0]) / rep.energy[0]
    zm = np.abs(rep.zero_mode - rep.zero_mode[0]).max()
    ok = not rep.aborted and drift <= 1e-6 and zm <= 1e-12
    _verdict(3, "energy conservation", ok,
             f"relative drift {drift:.2e}, zero-mode span {zm:.2e}")


def test_acceptance_04_energy_drift_law():
    shifted = Bbm5Coefficients(
        gamma1=REFERENCE_COEFFICIENTS.gamma1,
        gamma2=REFERENCE_COEFFICIENTS.gamma2,
        delta1=REFERENCE_COEFFICIENTS.delta1,
        delta2=REFERENCE_COEFFICIENTS.delta2,
        gamma=7.0 / 48.0 + 0.1,
    )
    grid = Grid(n=2048, length=64.0 * math.pi)
    eta0 = sech_squared(grid, 0.5, 1.0)
    rep = run_simulation(
        eta0, RhsSpec(shifted), StepperConfig(dt=1e-3), 10.0, record_every=1
    )
    interior = slice(2, -2)
    pred = rep.drift_predicted[interior]
    resid = rep.drift_residual[interior]
    mask = np.abs(pred) > 1e-8
    rel = np.abs(resid[mask] / pred[mask])
    ok = not rep.aborted and mask.any() and rel.max() <= 0.01
    _verdict(4, "energy drift law", ok,
             f"{mask.sum()} checked points, worst relative {rel.max():.2e}")


def test_acceptance_05_picard_contraction():
    grid = Grid(n=256, length=16.0 * math.pi)
    raw = sech_squared(grid, 1.0, 1.0)
    eta0 = Field.from_spectral(grid, raw.spectral * (1e-2 / sobolev_norm(raw, 1.0)))
    r0 = sobolev_norm(eta0, 1.0)
    T = local_existence_time(r0, 1.0)
    cfg = StepperConfig(dt=0.02)
    spec = RhsSpec(REFERENCE_COEFFICIENTS)
    traj, diag = duhamel_picard(eta0, spec, cfg, T)
    ratios_ok = all(r < 1.0 for r in diag.ratios[1:])
    growth = max(sobolev_norm(f, 1.0) for f in traj)

    K = len(traj) - 1
    dt = T / K
    f = eta0
    for _ in range(K):
        f = exponential_rk4_step(f, spec, dt)
    cross = sobolev_norm(traj[-1] - f, 1.0)
    ok = (diag.converged and ratios_ok and cross <= 1e-8
          and growth <= 2.0 * r0)
    _verdict(5, "Picard contraction", ok,
             f"{diag.iterations} iterations, cross-scheme {cross:.2e}, "
             f"growth {growth / r0:.3f} r0")


def _split_setup():
    grid = Grid(n=1024, length=2.0 * math.pi)
    eta0 = random_hs_field(grid, 1.5, np.random.default_rng(42))
    return grid, eta0, RhsSpec(REFERENCE_COEFFICIENTS), StepperConfig(dt=1e-3)


def test_acceptance_06_splitting_additivity():
    from bbm5.splitting import SplitConfig, evolve_v, split_initial

    grid, eta0, spec, stepper = _split_setup()
    cfg = SplitConfig(cutoff=16.0, s=1.5)
    t0 = cfg.t0(stepper.dt)
    u0, v0 = split_initial(eta0, cfg.cutoff)
    v_t0, u_t0 = evolve_v(v0, u0, spec, stepper, t0)
    rep = run_simulation(eta0, spec, stepper, t0, keep_snapshots=True)
    err = sobolev_norm(u_t0 + v_t0 - rep.snapshots[-1], 1.0)
    ok = err <= 1e-8
    _verdict(6, "splitting additivity", ok, f"H1 mismatch {err:.2e} at t0={t0:g}")


def test_acceptance_07_remainder_scaling():
    grid, eta0, spec, stepper = _split_setup()
    sweep = n_sweep(eta0, 1.5, (8.0, 16.0, 32.0, 64.0), spec=spec, stepper=stepper)
    h_slope = sweep["h_slope"]["slope"]
    e_slope = sweep["energy_increment_slope"]["slope"]
    ok = h_slope <= -1.0 and e_slope <= -0.5
    _verdict(7, "remainder scaling", ok,
             f"h slope {h_slope:.3f} (<= -1.0), "
             f"energy increment slope {e_slope:.3f} (<= -0.5)")


def test_acceptance_08_derivation_residual_order():
    grid = Grid(n=512, length=16.0 * math.pi)
    sweep = epsilon_sweep(
        grid, reference_parameters(),
        epsilons=(0.1, 0.05, 0.025, 0.0125), t_final=1.0, dt=2e-3,
    )
    s1, s2 = sweep["slope_r1_L2"], sweep["slope_r2_L2"]
    ok = s1 >= 1.8 and s2 >= 1.8
    _verdict(8, "derivation residual order", ok,
             f"slopes {s1:.3f}, {s2:.3f} (>= 1.8)")


def test_acceptance_09_multilinear_estimate_scans():
    grid = Grid(n=128, length=2.0 * math.pi)
    c = REFERENCE_COEFFICIENTS
    growths = {}
    for estimate in ("tau_bilinear", "psi_trilinear", "psi_grad_bilinear"):
        scan = empirical_operator_norm(estimate, 1.0, 10_000, grid, c, seed=1)
        growths[estimate] = scan.final_decile_growth
    closed_gap = abs(sup_bound("xi_psi", c) - scan_sup("xi_psi", c))
    ok = all(g < 0.05 for g in growths.values()) and closed_gap <= 1e-8
    worst = max(growths.values())
    ok = ok and np.isfinite(worst)
    _verdict(9, "multilinear estimate scans", ok,
             f"worst decile growth {worst:.2%}, closed-form gap {closed_gap:.2e}")


def test_acceptance_10_cli_determinism(tmp_path):
    mismatches = []
    for command in CONFIGS:
        dirs = [tmp_path / f"{command}-{tag}" for tag in ("a", "b")]
        for out in dirs:
            run_command(command, out, tmp_path)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names, f"{command} wrote no outputs"
        _, diff, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        if diff or errors:
            mismatches.append((command, diff or errors))
    ok = not mismatches
    _verdict(10, "CLI determinism", ok,
             f"{len(CONFIGS)} commands byte-compared" +
             (f"; mismatches {mismatches}" if mismatches else ""))
