"""High/low frequency splitting experiments.

Rough data eta0 is decomposed as u0 + v0, with u0 the sharp low-pass below a
cutoff N.  The smooth part evolves under the full dynamics,

    i*u_t = phi(dx)*u + F(u),

while the rough part evolves under the difference equation

    i*v_t = phi(dx)*v + F(u + v) - F(u),
    F(u+v) - F(u) = tau(dx)*(v^2 + 2*u*v)
                    - (1/8)*psi(dx)*(3*u^2*v + 3*u*v^2 + v^3)
                    - (7/48)*psi(dx)*(2*u_x*v_x + v_x^2),

so that eta = u + v solves the original problem.  The Duhamel remainder
h(t) = v(t) - S(t)*v0 is the smoothing gain: its H^2 norm is expected to
scale like a negative power of N.  Iterating with the reassembly
u_{k+1} = u(t0) + h(t0), v_{k+1} = S(t0)*v_k over windows of length
t0 ~ N^{-2(2-s)} measures the energy-increment and remainder scaling laws of
the global theory at finite N.

A window applies ETDRK4 to the coupled system, the (v; u) stack with the
nonlinearity (F(u+v) - F(u); F(u)): u's row steps as u alone, u(t0) + v(t0)
is the full march of eta0 up to rounding, and only the current stack is
kept, so a window's memory does not grow with its number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Bbm5Coefficients
from .evolution import (RhsSpec, StepperConfig, SpectralEngine, _linear_fit, _march,
                        _stepper, _time_lattice, semigroup_apply)
from .spectral import Field, energy, low_pass, sobolev_norm, spectral_derivative, write_csv

__all__ = [
    "SplitConfig",
    "SplitState",
    "split_initial",
    "evolve_u",
    "evolve_v",
    "compute_h",
    "iterate",
    "n_sweep",
]


@dataclass(frozen=True)
class SplitConfig:
    """Frequency-splitting experiment parameters.

    t0 is t0_scale * N^(-2*(2-s)), with t0_scale positive and finite,
    clamped from below to 10 * dt so the window always holds a meaningful
    number of steps.
    """

    cutoff: float
    s: float
    t0_scale: float = 1.0
    k_max: int = 1

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff N must be positive")
        if not (1.0 <= self.s < 2.0):
            raise ValueError(f"s must lie in [1, 2), got {self.s}")
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        if not 0.0 < self.t0_scale < np.inf:
            raise ValueError(f"t0_scale must be positive and finite, got {self.t0_scale}")

    def t0(self, dt: float) -> float:
        raw = self.t0_scale * self.cutoff ** (-2.0 * (2.0 - self.s))
        return max(raw, 10.0 * dt)


@dataclass
class SplitState:
    u: Field
    v: Field
    h: Field | None
    k: int


def split_initial(eta0: Field, cutoff: float) -> tuple[Field, Field]:
    """u0 = low pass of eta0 below the cutoff, v0 = eta0 - u0 (exact in spectral space)."""
    u0 = low_pass(eta0, cutoff)
    return u0, eta0 - u0


def evolve_u(u0: Field, spec: RhsSpec, cfg: StepperConfig, t0: float) -> Field:
    """Full-equation evolution of the smooth part: u(t0) on the window's
    lattice, the u(t0) of evolve_v bit for bit.  A non-finite state raises
    NumericalError with its step and time (rows is None for one state)."""
    steps, dt = _time_lattice(t0, cfg.dt)
    for _k, uT in _march(_stepper(u0.grid, spec, dt), u0.half, steps):
        pass  # steps >= 1; only the last state is kept
    return Field(u0.grid, half=uT)


def _window_nl(eng: SpectralEngine):
    """(F(u+v) - F(u); F(u)) of a window's (v; u) stack, padded by one
    transform and truncated by another.  u's row forms nonlinear_hat's
    products in its order, so u steps as it does alone, bit for bit."""
    prods = np.empty((3, 2, eng.m))  # quadratic, cubic, gradient; rows (v, u)
    p2, p3, pg = prods

    def nl(vu: np.ndarray) -> np.ndarray:
        if eng.linear_only:
            return np.zeros_like(vu)
        fine = eng.fine_pair(vu)
        (v, u), vs, us = fine[0], fine[:, 0], fine[:, 1]  # vs = (v, vx), us = (u, ux)
        np.multiply(us, us, out=prods[::2, 1])  # u's row: u*u and ux*ux, then u*(u*u)
        np.multiply(u, p2[1], out=p3[1])
        # v's row: the differences expanded, so that no O(u^3) terms cancel,
        # and formed in place with each product grouped as written
        c = np.multiply(3.0, u, out=p3[0])  # 3*u*u*v + 3*u*v*v + v*v*v
        t = c * v
        t *= v
        c *= u
        c *= v
        c += t
        c += np.multiply(np.multiply(v, v, out=t), v, out=t)
        d = prods[::2, 0]  # v*v + 2*u*v and 2*ux*vx + vx*vx, into (p2[0], pg[0])
        np.multiply(2.0, us, out=d)
        d *= vs
        d += np.multiply(vs, vs, out=vs)
        return eng.combine(p2, p3, pg, prods[1:])

    return nl


def evolve_v(v0: Field, u0: Field, spec: RhsSpec, cfg: StepperConfig,
             t0: float) -> tuple[Field, Field]:
    """Difference-equation evolution of the rough part on [0, t0], stepped
    with the smooth part as one (v; u) stack.  Returns (v(t0), u(t0)), u(t0)
    being evolve_u's bit for bit.  A non-finite state raises NumericalError
    with its step, its time and the non-finite rows (0 for v, 1 for u)."""
    steps, dt = _time_lattice(t0, cfg.dt)
    st = _stepper(v0.grid, spec, dt)
    for _k, vu in _march(st, np.stack((v0.half, u0.half)), steps, _window_nl(st.engine)):
        pass  # steps >= 1; only the last state is kept
    return Field(v0.grid, half=vu[0]), Field(u0.grid, half=vu[1])


def compute_h(vT: Field, v0: Field, t0: float, c: Bbm5Coefficients) -> tuple[Field, dict]:
    """Duhamel remainder h(t0) = v(t0) - S(t0)*v0 and its norm summary.

    The summary records the H^2 norm alongside the equivalent
    ||h||_H1 + ||dx h||_H1 combination.
    """
    free = semigroup_apply(v0, t0, c)
    h = vT - free
    norms = {
        "h_H1": sobolev_norm(h, 1.0),
        "dxh_H1": sobolev_norm(spectral_derivative(h, 1), 1.0),
        "h_H2": sobolev_norm(h, 2.0),
    }
    norms["h_H1_plus_dxh_H1"] = norms["h_H1"] + norms["dxh_H1"]
    return h, norms


def iterate(
    eta0: Field,
    cfg: SplitConfig,
    spec: RhsSpec,
    stepper: StepperConfig,
) -> tuple[list[SplitState], dict]:
    """k_max rounds of window evolution and reassembly.

    Records E(u_k), the invariant ||v_k||_Hs, and the remainder norms per
    round.  The report carries everything needed for the scaling checks.
    """
    if not spec.coefficients.energy_conserving:
        raise ValueError("iteration requires gamma = 7/48 (energy control)")
    u, v = split_initial(eta0, cfg.cutoff)
    t0 = cfg.t0(stepper.dt)
    c = spec.coefficients
    states = [SplitState(u=u, v=v, h=None, k=0)]
    report: dict = {
        "N": cfg.cutoff,
        "s": cfg.s,
        "t0": t0,
        "E_u": [energy(u, c)],
        "v_hs": [sobolev_norm(v, cfg.s)],
        "E_u_t0": [],
        "h_H2": [],
        "u_H2_t0": [],
    }
    for k in range(cfg.k_max):
        v_t0, u_t0 = evolve_v(states[-1].v, states[-1].u, spec, stepper, t0)
        h, norms = compute_h(v_t0, states[-1].v, t0, c)
        u_next = u_t0 + h
        v_next = semigroup_apply(states[-1].v, t0, c)
        report["E_u_t0"].append(energy(u_t0, c))
        report["h_H2"].append(norms["h_H2"])
        report["u_H2_t0"].append(sobolev_norm(u_t0, 2.0))
        report["E_u"].append(energy(u_next, c))
        report["v_hs"].append(sobolev_norm(v_next, cfg.s))
        states.append(SplitState(u=u_next, v=v_next, h=h, k=k + 1))
    return states, report


def n_sweep(
    eta0: Field,
    s: float,
    cutoffs=(8.0, 16.0, 32.0, 64.0),
    *,
    spec: RhsSpec,
    stepper: StepperConfig = StepperConfig(),
    t0_scale: float = 1.0,
) -> dict:
    """One splitting round per cutoff N plus log-log regression slopes.

    Grid sanity: the Nyquist frequency should sit at least 4x above the
    largest cutoff so the sharp truncation is far from the resolution limit.
    """
    nyq = eta0.grid.nyquist
    if nyq < 4.0 * max(cutoffs):
        raise ValueError(
            f"grid Nyquist {nyq} below 4x the largest cutoff {max(cutoffs)}"
        )
    if len(set(cutoffs)) < len(cutoffs):
        raise ValueError(f"cutoffs must be distinct, got {list(cutoffs)}")
    rows = []
    for N in cutoffs:
        cfg = SplitConfig(cutoff=N, s=s, t0_scale=t0_scale, k_max=1)
        _states, rep = iterate(eta0, cfg, spec, stepper)
        rows.append(
            {
                "N": N,
                "t0": rep["t0"],
                "h_H2": rep["h_H2"][0],
                "u_H2_t0": rep["u_H2_t0"][0],
                "E_u1_minus_E_ut0": rep["E_u"][1] - rep["E_u_t0"][0],
            }
        )
    out = {"s": s, "rows": rows}
    logN = np.log([r["N"] for r in rows])
    for key, vals in (("h_slope", [r["h_H2"] for r in rows]),
                      ("energy_increment_slope", [abs(r["E_u1_minus_E_ut0"]) for r in rows])):
        vals = np.asarray(vals, dtype=float)
        mask = vals > 0
        if mask.sum() >= 3:  # a slope needs three positive values; none is reported otherwise
            slope, stderr = _linear_fit(logN[mask], np.log(vals[mask]))
            out[key] = {"slope": slope, "ci95": 1.96 * stderr}
    return out


def write_sweep_csv(sweep: dict, path) -> None:
    window = f"N={sweep['rows'][0]['N']:g}..{sweep['rows'][-1]['N']:g}"
    cols = ("N", "t0", "h_H2", "u_H2_t0", "E_u1_minus_E_ut0")
    write_csv(path, (*cols, "slope_fit_window"),
              [(*(r[c] for c in cols), window) for r in sweep["rows"]])
