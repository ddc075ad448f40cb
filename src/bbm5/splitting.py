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

The windows of n_sweep read nothing from each other, so they run in
parallel lanes, one per usable CPU, on the shared cached engines (each
thread has its own work buffers); the sweep's wall time is bounded below by
its longest window, and its rows are bit for bit those of one window after
another.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .coefficients import Bbm5Coefficients
from .evolution import (RhsSpec, StepperConfig, _linear_fit, _march, _stepper, _time_lattice,
                        semigroup_apply)
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
        try:
            raw = self.t0_scale * self.cutoff ** (-2.0 * (2.0 - self.s))
        except OverflowError:  # a float's ** raises where a product gives inf
            raise ValueError(f"cutoff N = {self.cutoff!r} makes N^(-2*(2-s)) overflow at "
                             f"s = {self.s!r}") from None
        return max(raw, 10.0 * dt)


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
    """Difference-equation evolution of the rough part on [0, t0], stepped as
    the (eta; u) stack with eta0 = u0 + v0.  Returns (v(t0), u(t0)), v(t0)
    being eta(t0) - u(t0) and u(t0) evolve_u's bit for bit.  A non-finite
    state raises NumericalError with its step, its time and the non-finite
    rows (0 for eta, 1 for u)."""
    steps, dt = _time_lattice(t0, cfg.dt)
    eta_u = np.stack((u0.half + v0.half, u0.half))
    for _k, eu in _march(_stepper(v0.grid, spec, dt), eta_u, steps):
        pass  # steps >= 1; only the last state is kept
    return Field(v0.grid, half=eu[0] - eu[1]), Field(u0.grid, half=eu[1])


def compute_h(vT: Field, v0: Field, t0: float, c: Bbm5Coefficients) -> tuple[Field, float]:
    """Duhamel remainder h(t0) = v(t0) - S(t0)*v0 and ||h||_H2, the local theory's norm of it."""
    free = semigroup_apply(v0, t0, c)
    h = vT - free
    return h, sobolev_norm(h, 2.0)


def iterate(
    eta0: Field,
    cfg: SplitConfig,
    spec: RhsSpec,
    stepper: StepperConfig,
) -> tuple[Field, Field, dict]:
    """k_max rounds of window evolution and reassembly.

    Records E(u_k), the invariant ||v_k||_Hs, and the remainder's H^2 norm per round:
    the report carries everything the scaling checks need.  Returns the final u, v and report.
    """
    if not spec.coefficients.energy_conserving:
        raise ValueError("iteration requires gamma = 7/48 (energy control)")
    u, v = split_initial(eta0, cfg.cutoff)
    t0 = cfg.t0(stepper.dt)
    c = spec.coefficients
    report: dict = {
        "t0": t0,
        "E_u": [energy(u, c)],
        "v_hs": [sobolev_norm(v, cfg.s)],
        "E_u_t0": [],
        "h_H2": [],
        "u_H2_t0": [],
    }
    for _k in range(cfg.k_max):
        v_t0, u_t0 = evolve_v(v, u, spec, stepper, t0)
        h, h_H2 = compute_h(v_t0, v, t0, c)
        u, v = u_t0 + h, semigroup_apply(v, t0, c)
        report["E_u_t0"].append(energy(u_t0, c))
        report["h_H2"].append(h_H2)
        report["u_H2_t0"].append(sobolev_norm(u_t0, 2.0))
        report["E_u"].append(energy(u, c))
        report["v_hs"].append(sobolev_norm(v, cfg.s))
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
    Every window's SplitConfig is checked before the first window steps.  The
    windows run in min(len(cutoffs), usable CPUs) lanes (see _in_lanes), so
    the wall time is bounded below by the longest window; the rows, and the
    error raised, are those of the windows run one after another in cutoff
    order.
    """
    if len(cutoffs) == 0 or len(set(cutoffs)) < len(cutoffs):
        raise ValueError(f"cutoffs must be one or more distinct values, got {list(cutoffs)}")
    nyq = eta0.grid.nyquist
    if nyq < 4.0 * max(cutoffs):
        raise ValueError(
            f"grid Nyquist {nyq} below 4x the largest cutoff {max(cutoffs)}"
        )
    cfgs = [SplitConfig(cutoff=N, s=s, t0_scale=t0_scale, k_max=1) for N in cutoffs]
    reports = _in_lanes([lambda cfg=cfg: iterate(eta0, cfg, spec, stepper)[2] for cfg in cfgs],
                        [cfg.t0(stepper.dt) for cfg in cfgs])
    rows = [{"N": N, "t0": rep["t0"], "h_H2": rep["h_H2"][0], "u_H2_t0": rep["u_H2_t0"][0],
             "E_u1_minus_E_ut0": rep["E_u"][1] - rep["E_u_t0"][0]}
            for N, rep in zip(cutoffs, reports)]
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


def _in_lanes(tasks: list, costs: list) -> list:
    """[task() for task in tasks], computed in min(len(tasks), usable CPUs)
    lanes.  The tasks go, largest cost first, each to the lane of least total
    cost; the calling thread runs the first lane and one thread, in a copy of
    the caller's context (numpy's errstate included), each other lane.  Every
    lane is joined before the first failure in task order is raised.  If the
    calling thread is interrupted, the other lanes start no further task."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lanes = [[] for _ in range(min(len(tasks), cpus or 1))]
    loads = [0.0] * len(lanes)
    for i in sorted(range(len(tasks)), key=costs.__getitem__, reverse=True):  # stable on ties
        j = loads.index(min(loads))
        lanes[j].append(i)
        loads[j] += costs[i]
    results, errors = [None] * len(tasks), [None] * len(tasks)
    interrupted = threading.Event()

    def run(lane):
        for i in lane:
            if interrupted.is_set():
                return
            try:
                results[i] = tasks[i]()
            except Exception as exc:  # raised below, in task order
                errors[i] = exc

    threads = []
    try:
        for lane in lanes[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, lane))
            thread.start()
            threads.append(thread)
        run(lanes[0])
        for thread in threads:
            thread.join()
    finally:
        interrupted.set()  # a no-op unless the calling thread was interrupted
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def write_sweep_csv(sweep: dict, path) -> None:
    window = f"N={sweep['rows'][0]['N']:g}..{sweep['rows'][-1]['N']:g}"
    cols = ("N", "t0", "h_H2", "u_H2_t0", "E_u1_minus_E_ut0")
    write_csv(path, (*cols, "slope_fit_window"),
              [(*(r[c] for c in cols), window) for r in sweep["rows"]])
