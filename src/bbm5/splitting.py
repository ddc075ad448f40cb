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

A window applies ETDRK4 to the coupled system.  Its stages for (v; u) are
those for (eta; u) with eta = u + v, so a window steps the (eta; u) stack
with the equation's own nonlinearity (F(eta); F(u)) and reads v(t0) off as
eta(t0) - u(t0): u's row steps as u alone, and only the current stack is
kept, so a window's memory does not grow with its number of steps.

Since eta = u + v whatever the cutoff, the windows of n_sweep share one eta
row: up to WINDOW_BLOCK windows, each a whole number of steps of stepper.dt,
march as one stack (eta; u_N1; u_N2; ...), the longest window first, each u
row leaving when its window ends.  Each row steps as that state alone, so a
sweep's rows are iterate's, cutoff by cutoff, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Bbm5Coefficients, ParameterError
from .evolution import (Etdrk4Stepper, NumericalError, RhsSpec, StepperConfig, _linear_fit,
                        _march, _stepper, _time_lattice, semigroup_apply)
from .spectral import Field, energy, low_pass, sobolev_norm, write_csv

__all__ = [
    "SplitConfig",
    "split_initial",
    "evolve_u",
    "evolve_v",
    "compute_h",
    "iterate",
    "n_sweep",
]

WINDOW_BLOCK = 8  # windows of a sweep block, marched as one (eta; u_N1; ...) stack


@dataclass(frozen=True)
class SplitConfig:
    """Frequency-splitting experiment parameters.

    A window is steps(dt) steps of dt, t0_scale * N^(-2*(2-s)) / dt rounded and
    at least 10 (t0_scale positive and finite); t0(dt) is their length.
    """

    cutoff: float
    s: float
    t0_scale: float = 1.0
    k_max: int = 1

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ParameterError("cutoff", f"cutoff N must be positive, got {self.cutoff}")
        if not (1.0 <= self.s < 2.0):
            raise ParameterError("s", f"s must lie in [1, 2), got {self.s}")
        if self.k_max < 0:
            raise ParameterError("k_max", f"k_max must be non-negative, got {self.k_max}")
        if not 0.0 < self.t0_scale < np.inf:
            raise ParameterError("t0_scale", f"t0_scale must be positive and finite, "
                                 f"got {self.t0_scale}")

    def steps(self, dt: float) -> int:
        try:
            raw = self.t0_scale * self.cutoff ** (-2.0 * (2.0 - self.s))
        except OverflowError:  # a float's ** raises where a product gives inf
            raise ParameterError("cutoff", f"cutoff N = {self.cutoff!r} makes N^(-2*(2-s)) "
                                 f"overflow at s = {self.s!r}") from None
        return _time_lattice(max(raw, 10.0 * dt), dt)[0]

    def t0(self, dt: float) -> float:
        return self.steps(dt) * dt


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


def evolve_v(v0: Field, u0: Field, spec: RhsSpec, cfg: StepperConfig,
             t0: float) -> tuple[Field, Field]:
    """Difference-equation evolution of the rough part on [0, t0], stepped as the
    (eta; u) stack with eta0 = u0 + v0.  Returns (v(t0), u(t0)), v(t0) being
    eta(t0) - u(t0) and u(t0) evolve_u's bit for bit.  A non-finite state raises
    NumericalError with its step, its time and the non-finite rows (0 for eta, 1 for u)."""
    steps, dt = _time_lattice(t0, cfg.dt)
    [eu] = _windows(_stepper(v0.grid, spec, dt), u0.half + v0.half, [u0.half], [steps])
    return Field(v0.grid, half=eu[0] - eu[1]), Field(u0.grid, half=eu[1])


def _windows(stepper: Etdrk4Stepper, eta: np.ndarray, us: list, steps: list,
             cutoffs=None) -> list:
    """[(eta(t_i), u_i(t_i)) for each window i], t_i = steps[i] * stepper.dt: one march of
    the stack (eta; u_1; u_2; ...), the longest window first, each u row leaving when its
    window ends.  A non-finite state raises NumericalError with its step and time on the
    march's lattice and the non-finite rows (0 for eta, 1 for its u) of the first window,
    in the given order, that holds one, named by its cutoff if cutoffs are given."""
    order = sorted(range(len(us)), key=lambda i: -steps[i])  # stable: ties keep their order
    stack, ends, done = np.stack((eta, *(us[i] for i in order))), [None] * len(us), 0
    for j in reversed(range(len(order))):  # stack[j + 1] is the shortest window left
        i = order[j]
        try:
            for _k, stack in _march(stepper, stack[: j + 2], steps[i] - done):
                pass
        except NumericalError as exc:
            k, bad = done + exc.step, exc.rows
            first = min(order[: j + 1] if 0 in bad else (order[r - 1] for r in bad))
            rows = [r for r, row in enumerate((0, 1 + order.index(first))) if row in bad]
            where = "" if cutoffs is None else f" in the window of N = {cutoffs[first]:g}"
            raise NumericalError(f"non-finite state at step {k} of {steps[first]} (t = "
                                 f"{k * stepper.dt:g}){where}", k, k * stepper.dt, rows) from None
        ends[i], done = stack[[0, j + 1]], steps[i]
    return ends


def compute_h(vT: Field, v0: Field, t0: float, c: Bbm5Coefficients) -> tuple[Field, float]:
    """Duhamel remainder h(t0) = v(t0) - S(t0)*v0 and ||h||_H2, the local theory's norm of it."""
    free = semigroup_apply(v0, t0, c)
    h = vT - free
    return h, sobolev_norm(h, 2.0)


def _reassemble(v: Field, end: np.ndarray, t0: float, c: Bbm5Coefficients) -> tuple[Field, dict]:
    """u_{k+1} = u(t0) + h(t0) of a window from v that ends in (eta(t0), u(t0)), and the
    round's record."""
    u_t0 = Field(v.grid, half=end[1])
    h, h_H2 = compute_h(Field(v.grid, half=end[0] - end[1]), v, t0, c)
    u = u_t0 + h
    return u, {"E_u_t0": energy(u_t0, c), "h_H2": h_H2, "u_H2_t0": sobolev_norm(u_t0, 2.0),
               "E_u": energy(u, c)}


def iterate(
    eta0: Field,
    cfg: SplitConfig,
    spec: RhsSpec,
    stepper: StepperConfig,
) -> tuple[Field, Field, dict]:
    """k_max rounds of window evolution, cfg.steps(dt) steps of stepper.dt, and reassembly.

    Records E(u_k), the invariant ||v_k||_Hs, and the remainder's H^2 norm per round:
    the report carries everything the scaling checks need.  Returns the final u, v and report.
    """
    if not spec.coefficients.energy_conserving:
        raise ParameterError("gamma", "iteration requires gamma = 7/48 (energy control)")
    u, v = split_initial(eta0, cfg.cutoff)
    steps, t0, c = cfg.steps(stepper.dt), cfg.t0(stepper.dt), spec.coefficients
    report: dict = {"t0": t0, "E_u": [energy(u, c)], "v_hs": [sobolev_norm(v, cfg.s)],
                    "E_u_t0": [], "h_H2": [], "u_H2_t0": []}
    for _k in range(cfg.k_max):
        [end] = _windows(_stepper(u.grid, spec, stepper.dt), u.half + v.half, [u.half],
                         [steps], [cfg.cutoff])
        u, record = _reassemble(v, end, t0, c)
        v = semigroup_apply(v, t0, c)
        for key, x in (*record.items(), ("v_hs", sobolev_norm(v, cfg.s))):
            report[key].append(x)
    return u, v, report


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
    Every window's SplitConfig is checked before the first window steps; the
    windows then march, WINDOW_BLOCK at a time in the given order, as one
    stack on one stepper of stepper.dt (see _windows), and the rows are
    iterate's, cutoff by cutoff, bit for bit.
    """
    if len(cutoffs) == 0 or len(set(cutoffs)) < len(cutoffs):
        raise ParameterError("cutoffs", "cutoffs must be one or more distinct values, "
                             f"got {list(cutoffs)}")
    nyq = eta0.grid.nyquist
    if nyq < 4.0 * max(cutoffs):
        raise ParameterError("cutoffs", f"grid Nyquist {nyq} below 4x the largest of cutoffs, "
                             f"{max(cutoffs)}")
    steps = [SplitConfig(cutoff=N, s=s, t0_scale=t0_scale).steps(stepper.dt) for N in cutoffs]
    if not spec.coefficients.energy_conserving:
        raise ParameterError("gamma", "iteration requires gamma = 7/48 (energy control)")
    march, c, rows = _stepper(eta0.grid, spec, stepper.dt), spec.coefficients, []
    for b in range(0, len(cutoffs), WINDOW_BLOCK):
        block = list(cutoffs[b : b + WINDOW_BLOCK])
        splits = [split_initial(eta0, N) for N in block]
        ends = _windows(march, eta0.half, [u0.half for u0, _v0 in splits],
                        steps[b : b + WINDOW_BLOCK], block)
        for N, k, (_u0, v0), end in zip(block, steps[b:], splits, ends):
            _u1, rec = _reassemble(v0, end, k * stepper.dt, c)
            rows.append({"N": N, "t0": k * stepper.dt, "h_H2": rec["h_H2"],
                         "u_H2_t0": rec["u_H2_t0"], "E_u1_minus_E_ut0": rec["E_u"] - rec["E_u_t0"]})
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
