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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Bbm5Coefficients
from .evolution import (
    NumericalError,
    RhsSpec,
    StepperConfig,
    SpectralEngine,
    _engine,
    _linear_fit,
    _stepper,
    _time_lattice,
    semigroup_apply,
)
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

    t0 defaults to t0_scale * N^(-2*(2-s)), with t0_scale positive and
    finite, and is clamped from below to 10 * dt so the window always holds
    a meaningful number of steps.
    """

    cutoff: float
    s: float
    t0_scale: float = 1.0
    k_max: int = 1
    t0_override: float | None = None

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
        if self.t0_override is not None:
            return self.t0_override
        raw = self.t0_scale * self.cutoff ** (-2.0 * (2.0 - self.s))
        return max(raw, 10.0 * dt)


@dataclass
class SplitState:
    u: Field
    v: Field
    h: Field | None
    k: int


def split_initial(eta0: Field, cutoff: float, smooth: bool = False) -> tuple[Field, Field]:
    """u0 = low pass of eta0 below the cutoff, v0 = eta0 - u0 (exact in spectral space).

    With smooth=True the sharp indicator is replaced by a C^inf bump that is 1
    for |xi| <= N and decays like exp(1 - 1/(1 - ((|xi|-N)/N)^2)) on N < |xi| < 2N,
    which trades the exact support property for a gentler spectral edge.
    """
    if smooth:
        xi = np.abs(eta0.grid.half_wavenumbers)
        w = np.zeros_like(xi)
        w[xi <= cutoff] = 1.0
        ramp = (xi > cutoff) & (xi < 2.0 * cutoff)
        r = (xi[ramp] - cutoff) / cutoff
        w[ramp] = np.exp(1.0 - 1.0 / (1.0 - r * r))
        u0 = Field(eta0.grid, half=w * eta0.half)
    else:
        u0 = low_pass(eta0, cutoff)
    return u0, eta0 - u0


def evolve_u(u0: Field, spec: RhsSpec, cfg: StepperConfig, t0: float) -> list[Field]:
    """Full-equation evolution of the smooth part on [0, t0].

    Checkpoints every half step (the v solver consumes states at ETDRK4 stage
    times, so no interpolation is ever needed).  Returned trajectory has
    2*steps + 1 entries at spacing dt/2.
    """
    steps, dt = _time_lattice(t0, cfg.dt)
    st = _stepper(u0.grid, spec, dt / 2.0)
    return _trajectory(u0, 2 * steps, lambda c_hat, _k: st.step(c_hat))


def _trajectory(f0: Field, steps: int, advance) -> list[Field]:
    """f0 and the Fields of ``steps`` successive advance(state, k) calls on
    its half spectrum; a non-finite state raises NumericalError."""
    c_hat = f0.half
    traj = [f0]
    with np.errstate(over="ignore", invalid="ignore"):  # the loop checks finiteness
        for k in range(steps):
            c_hat = advance(c_hat, k)
            if not np.all(np.isfinite(c_hat.view(np.float64))):
                raise NumericalError(f"non-finite state at step {k + 1} of {steps}")
            traj.append(Field(f0.grid, half=c_hat))
    return traj


class _DifferenceEngine:
    """Nonlinearity F(u+v) - F(u) with frozen u values at half-step nodes."""

    def __init__(self, engine: SpectralEngine, u_traj: list[Field]):
        self.eng = engine
        self.u_traj = u_traj

    def __call__(self, v_hat: np.ndarray, node: int) -> np.ndarray:
        eng = self.eng
        if eng.linear_only:
            return np.zeros_like(v_hat)
        # u is padded on demand, with v in the same transform
        fine = eng.fine_pair(np.stack((v_hat, self.u_traj[node].half)))
        (v, u), vs, us = fine[0], fine[:, 0], fine[:, 1]  # vs = (v, vx), us = (u, ux)
        # the differences expanded, so that no O(u^3) terms cancel, and formed
        # in place with each product grouped as written
        p3 = np.multiply(3.0, u)  # 3*u*u*v + 3*u*v*v + v*v*v
        t = p3 * v
        t *= v
        p3 *= u
        p3 *= v
        p3 += t
        p3 += np.multiply(np.multiply(v, v, out=t), v, out=t)
        np.multiply(2.0, us, out=us)  # v*v + 2*u*v and 2*ux*vx + vx*vx, in us
        us *= vs
        us += np.multiply(vs, vs, out=vs)
        return eng.combine(us[0], p3, us[1])


def evolve_v(
    v0: Field,
    u_traj: list[Field],
    spec: RhsSpec,
    cfg: StepperConfig,
    t0: float,
) -> list[Field]:
    """Difference-equation evolution of the rough part on [0, t0].

    u_traj must be the half-step checkpoint trajectory from evolve_u over the
    same window.  Returns the v trajectory at full-step spacing.
    """
    steps, dt = _time_lattice(t0, cfg.dt)
    if len(u_traj) != 2 * steps + 1:
        raise ValueError(
            f"u trajectory has {len(u_traj)} checkpoints, expected {2 * steps + 1}"
        )
    st = _stepper(v0.grid, spec, dt)
    nl = _DifferenceEngine(_engine(v0.grid, spec), u_traj)
    return _trajectory(v0, steps, lambda c_hat, k: st.step(c_hat, nl, k))


def compute_h(v_traj: list[Field], v0: Field, t0: float, c: Bbm5Coefficients) -> tuple[Field, dict]:
    """Duhamel remainder h(t0) = v(t0) - S(t0)*v0 and its norm summary.

    The summary records the H^2 norm alongside the equivalent
    ||h||_H1 + ||dx h||_H1 combination.
    """
    vT = v_traj[-1]
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
        u_traj = evolve_u(states[-1].u, spec, stepper, t0)
        v_traj = evolve_v(states[-1].v, u_traj, spec, stepper, t0)
        h, norms = compute_h(v_traj, states[-1].v, t0, c)
        u_t0 = u_traj[-1]
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
    spec: RhsSpec | None = None,
    stepper: StepperConfig | None = None,
    t0_scale: float = 1.0,
) -> dict:
    """One splitting round per cutoff N plus log-log regression slopes.

    Grid sanity: the Nyquist frequency should sit at least 4x above the
    largest cutoff so the sharp truncation is far from the resolution limit.
    """
    if spec is None:
        raise ValueError("spec is required")
    stepper = stepper or StepperConfig()
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
