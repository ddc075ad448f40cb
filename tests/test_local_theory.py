"""The local theory across its window, for s = 1.

For data of H^1 norm r0 the contraction argument gives a solution in
C([0, T]; H^1) up to T_bar = 1/(8*C_s*r0*(1 + r0)), bounded by 2*r0 and
depending continuously on the data.  Two families, a sech^2 pulse and a
seeded random H^1 field, are scaled to r0 = 1e-3 ... 10 and solved at T =
T_bar with C_s = 1, by Picard iteration and by ETDRK4 on the same lattice.
Each run is checked four ways:

- contraction: Picard converges, every ratio of successive differences < 1/2;
- growth: sup_t ||eta(t)||_H1 <= 2*r0;
- agreement: Picard and ETDRK4 agree to 1e-8 in H^1 at every node;
- dependence: data perturbed by p of relative size 1e-6 and 1e-2 stay within
  sup_t ||eta - eta~||_H1 <= 2*||p||_H1.

T_bar is that of the scaled datum's measured norm, not of the nominal r0:
at r0 = 1e-2 the sech^2 datum measures 0.010000000000000002, and
duhamel_picard refuses T_bar(1e-2) for exceeding its T_bar by one ulp.

The checks have power: at T = 1000*T_bar (C_s = 0.001) sech^2 at r0 = 1
fails the contraction and the agreement, while growth and continuous
dependence, measured on ETDRK4, still hold.  ETDRK4 marches the datum and
its two perturbations as one stack.
"""

import functools
import math

import numpy as np
import pytest

from bbm5 import evolution
from bbm5.coefficients import REFERENCE_COEFFICIENTS
from bbm5.evolution import (PicardDivergenceError, RhsSpec, StepperConfig, duhamel_picard,
                            local_existence_time, sech_squared)
from bbm5.spectral import Field, Grid, checked_sobolev_weights, quadratic_form, sobolev_norm
from bbm5.symbols import random_hs_field

GRID = Grid(n=128, length=16.0 * math.pi)
SPEC = RhsSpec(REFERENCE_COEFFICIENTS)
R0 = (1e-3, 1e-2, 1e-1, 1.0, 10.0)
FAMILIES = ("sech2", "random")
PERTURBATIONS = (1e-6, 1e-2)
# max/min over R0 of the first Picard ratio over T*r0*(1 + r0): measured 5.7 for
# sech^2 and 19.9 for the random field (seed 3), so one decade holds for sech^2 only
SPREAD = {"sech2": 10.0, "random": 25.0}
# C_s,eff at r0 = 1, the smallest C_s at which Picard still converges and agrees with
# ETDRK4 to 1e-8, measured 0.0753 for sech^2 and 0.111 for the random field; below it
# the lattice's quadrature error, not the contraction, ends the agreement.  A bracket
# of about 1.3 either way: the checks pass at the upper end and fail at the lower.
CS_EFF = {"sech2": (0.06, 0.1), "random": (0.09, 0.14)}


def _h1(h):
    return np.sqrt(quadratic_form(h, GRID, checked_sobolev_weights(GRID, 1.0)))


@functools.cache
def _datum(family: str, r0: float) -> Field:
    raw = (sech_squared(GRID, 1.0, 1.0) if family == "sech2"
           else random_hs_field(GRID, 1.0, np.random.default_rng(3)))
    return Field(GRID, half=raw.half * (r0 / sobolev_norm(raw, 1.0)))


@functools.cache
def _run(family: str, r0: float, cs: float = 1.0) -> dict:
    """Picard and ETDRK4 at T = T_bar(C_s = cs) of the datum's measured norm r, dt at most
    0.05 and at least 50 steps: the checks' results and the Picard ratios."""
    eta0 = _datum(family, r0)
    r = sobolev_norm(eta0, 1.0)
    T = local_existence_time(r, cs)
    cfg = StepperConfig(dt=min(0.05, T / 50.0), contraction_constant_cs=cs)
    steps, dt = evolution._time_lattice(T, cfg.dt)
    p = random_hs_field(GRID, 1.0, np.random.default_rng(11)).half
    p = p * (r / _h1(p))
    stack = np.stack([eta0.half, *(eta0.half + d * p for d in PERTURBATIONS)])
    march = evolution._march(evolution._stepper(GRID, SPEC, dt), stack, steps)
    etd = np.stack([state.copy() for _k, state in march])
    with np.errstate(all="ignore"):  # a diverging iteration overflows
        try:
            traj, diag = duhamel_picard(eta0, SPEC, cfg, T)
            gap = _h1(np.stack([f.half for f in traj]) - etd[:, 0]).max()
        except PicardDivergenceError as exc:
            diag, gap = exc.diagnostics, math.inf
    dependence = max(_h1(etd[:, 0] - etd[:, 1 + j]).max() / (d * r)
                     for j, d in enumerate(PERTURBATIONS))
    return {
        "ratios": diag.ratios,
        "first_scaled": diag.ratios[0] / (T * r * (1.0 + r)),
        "checks": {
            "contraction": diag.converged and max(diag.ratios) < 0.5,
            "growth": _h1(etd[:, 0]).max() <= 2.0 * r,
            "agreement": diag.converged and gap <= 1e-8,
            "dependence": dependence <= 2.0,
        },
    }


@pytest.mark.parametrize("r0", R0)
@pytest.mark.parametrize("family", FAMILIES)
def test_the_local_theory_holds_at_t_bar(family, r0):
    checks = _run(family, r0)["checks"]
    assert [name for name, ok in checks.items() if not ok] == []


@pytest.mark.parametrize("family", FAMILIES)
def test_the_first_ratio_scales_like_t_r0_1_plus_r0(family):
    # T_bar's scaling law: at T = T_bar the first ratio over T*r0*(1 + r0) is nearly flat in r0
    scaled = [_run(family, r0)["first_scaled"] for r0 in R0]
    assert max(scaled) / min(scaled) <= SPREAD[family]


def test_far_past_t_bar_the_contraction_fails():
    # at 1000*T_bar the first ratio is about 13: Picard diverges, so there is no fixed
    # point to agree with ETDRK4, whose solution still keeps growth and dependence
    run = _run("sech2", 1.0, 0.001)
    assert run["ratios"][0] >= 0.5
    assert {name for name, ok in run["checks"].items() if not ok} == {"contraction",
                                                                       "agreement"}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_effective_contraction_constant_at_r0_1(family):
    low, high = CS_EFF[family]
    assert all(_run(family, 1.0, high)["checks"].values())
    failed = {name for name, ok in _run(family, 1.0, low)["checks"].items() if not ok}
    assert failed == {"agreement"}
