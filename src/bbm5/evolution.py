"""Dynamics of the fifth-order BBM-type equation.

In multiplier form the evolution is

    i*eta_t = phi(dx)*eta + tau(dx)*eta^2
              - (1/8)*psi(dx)*eta^3 - (7/48)*psi(dx)*(eta_x)^2,

so the real right-hand side has spectral coefficients

    N_hat(xi) = -i*[tau(xi)*(eta^2)^ - (1/8)*psi(xi)*(eta^3)^
                    - (7/48)*psi(xi)*((eta_x)^2)^].

The module provides the exact free semigroup exp(-i*phi(xi)*t), a
fourth-order exponential (ETDRK4) production integrator built on it, a
Duhamel/Picard fixed-point solver mirroring the contraction argument of the
local theory, and conservation diagnostics (energy, drift identity, Sobolev
norms, zero mode).

Each spectral kernel has one implementation: the symbol formulas in
``coefficients.multipliers``; the padded transforms in ``spectral``
(``fine_samples``/``truncated_coeffs``, wrapped by ``SpectralEngine.to_fine``
/``from_fine``); the combination -i*(tau*q2 - psi*((1/8)*q3 + (7/48)*g2))
in ``SpectralEngine.combine``, which the equation, the difference equation
of ``bbm5.splitting`` and the alpha/beta-scaled law of ``bbm5.derivation``
all call; the ETDRK4 weights and step in ``Etdrk4Stepper``, built from the
linear symbol of any engine.  An engine owns its work buffers, one set for
a single state and one slot for the last stack shape it evaluated; it
returns fresh arrays and is not for concurrent use from threads.

The engine, the stepper and every time loop work on half spectra in rfft
layout, the spectral state ``Field.half`` of Field itself (``bbm5.spectral``).
``_march`` is the one ETDRK4 time loop, of ``run_simulation``, the splitting
windows and the epsilon sweep; it stops at the first non-finite state.

Note on the cubic coefficient: the contraction-mapping proof writes 1/4 where
every other statement of the equation writes 1/8; we use 1/8 throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .coefficients import Bbm5Coefficients, multipliers, require_wellposed
from .spectral import (
    CACHE_SIZE,
    Field,
    Grid,
    derivative_symbol,
    energy,
    fine_band,
    fine_samples,
    integral_cube,
    sampled_integral_cube,
    sobolev_norm,
    sobolev_weights,
    spectral_derivative,
    truncated_coeffs,
    write_csv,
)

__all__ = [
    "RhsSpec",
    "StepperConfig",
    "RunReport",
    "SpectralEngine",
    "nonlinear_rhs",
    "semigroup_apply",
    "exponential_rk4_step",
    "run_simulation",
    "duhamel_picard",
    "PicardDiagnostics",
    "NumericalError",
    "PicardDivergenceError",
    "energy_drift_predicted",
    "local_existence_time",
    "gaussian_bump",
    "sech_squared",
]

CUBIC_COEFF = 1.0 / 8.0
GRAD_COEFF = 7.0 / 48.0


@dataclass(frozen=True)
class RhsSpec:
    """Nonlinear right-hand side configuration."""

    coefficients: Bbm5Coefficients
    dealias: bool = True
    linear_only: bool = False

    def __post_init__(self):
        require_wellposed(self.coefficients, "RhsSpec")


@dataclass(frozen=True)
class StepperConfig:
    """Time stepping configuration.

    contraction_constant_cs is the nonconstructive constant of the local
    existence time bound T >= 1/(8*C_s*r0*(1+r0)) with r0 the H^s norm of the
    data; it is a knob, not a derived quantity.
    """

    scheme: str = "exponential_rk4"
    dt: float = 1e-3
    picard_tol: float = 1e-12
    picard_max_iter: int = 50
    contraction_constant_cs: float = 1.0
    sobolev_s: float = 1.0

    def __post_init__(self):
        if self.scheme not in ("picard_duhamel", "exponential_rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be positive")
        if not 0.0 < self.contraction_constant_cs < np.inf:
            raise ValueError(f"contraction constant cs must be positive and finite, "
                             f"got {self.contraction_constant_cs}")


def local_existence_time(hs_norm: float, cs: float) -> float:
    """Guaranteed existence time 1/(8*C_s*r0*(1+r0)); infinite for zero data."""
    if hs_norm == 0.0:
        return np.inf
    return 1.0 / (8.0 * cs * hs_norm * (1.0 + hs_norm))


class SpectralEngine:
    """Multiplier tables, padded transforms and the nonlinearity on one grid.

    Works on half-spectrum arrays (amplitude convention, rfft layout) so the
    time loops avoid Field-object overhead.  The engine does not check the
    regime: the public entries do, and the alpha/beta-scaled law of
    ``bbm5.derivation`` needs an engine at alpha = beta = 0.  ``weights``
    are the factors of the quadratic, cubic and gradient terms; the
    equation's are (1, 1/8, 7/48), the scaled law passes its own.  The
    engine owns the work buffers of the nonlinearity: one set for a single
    state and one slot, remade when a stack of another shape than the last
    comes.  So it is not for concurrent use from threads; every result is
    a fresh array.
    """

    def __init__(self, grid: Grid, coefficients: Bbm5Coefficients, dealias: bool = True,
                 linear_only: bool = False, *, weights=(1.0, CUBIC_COEFF, GRAD_COEFF)):
        self.grid = grid
        self.coefficients = coefficients
        self.dealias = dealias
        self.linear_only = linear_only
        _varphi, self.phi, self.psi, self.tau = multipliers(grid.half_wavenumbers, coefficients)
        for tab in (self.phi, self.psi, self.tau):
            tab[-1] = 0.0  # odd symbols: keep realness exactly
        w2, self._w3, self._wg = weights
        self._quad = -1j * w2 * self.tau
        self._ipsi = 1j * self.psi
        self.ikx_d = derivative_symbol(grid, 1)
        self.m = 2 * grid.n if dealias else grid.n
        # a single state's work buffers (spectrum, samples, coefficients, scratch);
        # the spectrum's tail past n/2 stays zero
        spec, coeffs = np.zeros((2, 2, self.m // 2 + 1), dtype=np.complex128)
        self._one = spec, np.empty((2, self.m)), coeffs, np.empty(self.m)
        self._slot = None  # the same for the last stack shape evaluated

    def _work(self, lead: tuple) -> tuple:
        """Work buffers of states of leading shape lead: a single state's, or the
        slot, made anew for a new stack shape (its arrays apart: a joint one of
        128 kB or more is mapped on its own and raises peak RSS)."""
        if not lead:
            return self._one
        if self._slot is None or self._slot[3].shape[:-1] != lead:
            half, fine = (2, *lead, self.m // 2 + 1), (2, *lead, self.m)
            self._slot = (np.zeros(half, dtype=np.complex128), np.empty(fine),
                          np.empty(half, dtype=np.complex128), np.empty(fine[1:]))
        return self._slot

    @classmethod
    def stack(cls, engines: Sequence["SpectralEngine"]) -> "SpectralEngine":
        """Engines of one grid as one, their tables stacked as rows: its
        nonlinear_hat of an (E, n/2 + 1) stack is, row by row, each engine's,
        because nonlinear_hat broadcasts over rows.  It owns its buffers."""
        first = engines[0]
        if any((e.grid, e.dealias, e.linear_only) != (first.grid, first.dealias, first.linear_only)
               for e in engines):
            raise ValueError("stacked engines need one grid, dealias and linear_only")
        eng = cls(first.grid, first.coefficients, first.dealias, first.linear_only)
        eng.coefficients = tuple(e.coefficients for e in engines)
        for name in ("phi", "psi", "tau", "_quad", "_ipsi"):
            setattr(eng, name, np.stack([getattr(e, name) for e in engines]))
        for name in ("_w3", "_wg"):  # the scalar weights as full rows of the fine grid
            setattr(eng, name, np.stack([np.full(eng.m, getattr(e, name)) for e in engines]))
        return eng

    # -- padded transforms ------------------------------------------------

    def to_fine(self, c_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return fine_samples(c_hat, self.m, out=out)

    def from_fine(self, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return truncated_coeffs(samples, self.grid.n, out=out)

    def fine_pair(self, c_hat: np.ndarray, fresh: bool = False) -> np.ndarray:
        """Fine-grid samples of c_hat and its x-derivative as one (2, ..., m) stack, by
        one transform, in the engine's work buffer for c_hat's shape (see _work) or,
        for a caller that evaluates rarely and should not keep buffers, a fresh one."""
        spec, fine = ((np.zeros((2, *c_hat.shape[:-1], self.m // 2 + 1), complex), None)
                      if fresh else self._work(c_hat.shape[:-1])[:2])
        h = spec[..., : c_hat.shape[-1]]
        h[0] = c_hat
        np.multiply(self.ikx_d, c_hat, out=h[1])
        return self.to_fine(fine_band(spec, self.grid.n), fine)

    # -- right-hand side --------------------------------------------------

    def combine(self, p2: np.ndarray, p3: np.ndarray, pg: np.ndarray,
                fine: np.ndarray | None = None) -> np.ndarray:
        """-i*(w2*tau*q2 - psi*(w3*q3 + wg*g2)), with q2, q3, g2 the
        coefficients of the fine-grid quadratic, cubic and gradient products
        p2, p3, pg; p2 and the sum of the psi-terms share one transform, of a
        fresh (2, ..., m) stack or of fine, whose rows p3 and pg may be."""
        fine = np.empty((2, *p2.shape)) if fine is None else fine
        np.multiply(self._wg, pg, out=fine[1])
        fine[1] += np.multiply(self._w3, p3, out=fine[0])
        fine[0] = p2
        q = self.from_fine(fine, self._work(p2.shape[:-1])[2])
        out = self._quad * q[0]
        out += np.multiply(self._ipsi, q[1], out=q[1])
        return out

    def nonlinear_hat(self, c_hat: np.ndarray, cube: np.ndarray | None = None) -> np.ndarray:
        """Spectral coefficients of the real nonlinear right-hand side; cube, a
        one-slot array, receives the integral of (c_x)^3 of a single state c_hat
        from its fine samples."""
        if self.linear_only:
            return np.zeros_like(c_hat)
        u, ux = fine = self.fine_pair(c_hat)
        if cube is not None:
            cube[0] = sampled_integral_cube(ux, self.grid.length)
        u2 = np.multiply(u, u, out=self._work(c_hat.shape[:-1])[3])
        u *= u2  # u^3
        ux *= ux
        return self.combine(u2, u, ux, fine)

    def semigroup_factor(self, t: float) -> np.ndarray:
        return np.exp(-1j * self.phi * t)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _engine(grid: Grid, spec: RhsSpec) -> SpectralEngine:
    return SpectralEngine(grid, spec.coefficients, spec.dealias, spec.linear_only)


def nonlinear_rhs(f: Field, spec: RhsSpec) -> Field:
    """The real nonlinear right-hand side N(f); zero mode is exactly zero."""
    return Field(f.grid, half=_engine(f.grid, spec).nonlinear_hat(f.half))


def semigroup_apply(f: Field, t: float, c: Bbm5Coefficients) -> Field:
    """Exact free evolution S(t): multiply each coefficient by e^{-i*phi*t}.

    An H^s isometry for every s; realness is preserved because phi is odd.
    """
    return Field(f.grid, half=_engine(f.grid, RhsSpec(c)).semigroup_factor(t) * f.half)


# ---------------------------------------------------------------------------
# ETDRK4
# ---------------------------------------------------------------------------


class Etdrk4Stepper:
    """Fourth-order exponential time differencing over the exact semigroup.

    Built from the linear symbol of any engine.  The linear part
    e^{-i*phi*dt} is applied exactly; the quadrature weights are evaluated
    by contour averaging over roots of unity (Kassam & Trefethen) to dodge
    cancellation at small |L*dt|.
    """

    def __init__(self, engine: SpectralEngine, dt: float, n_contour: int = 32):
        self.engine = engine
        self.dt = dt
        lam = -1j * engine.phi
        self.e_full = np.exp(dt * lam)
        self.e_half = np.exp(0.5 * dt * lam)
        roots = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
        lr = dt * lam[:, None] + roots[None, :]
        elr = np.exp(lr)

        def contour_mean(g):
            # complex contour (lam is imaginary, so means stay complex)
            return dt * g.mean(1)

        self.q = contour_mean((np.exp(lr / 2.0) - 1.0) / lr)
        self.f1 = contour_mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3)
        self.f2 = contour_mean((2.0 + lr + elr * (lr - 2.0)) / lr**3)
        self.f3 = contour_mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3)

    @classmethod
    def stack(cls, steppers: Sequence["Etdrk4Stepper"]) -> "Etdrk4Stepper":
        """Steppers of one dt as one, their tables stacked as rows, so that
        step advances an (E, n/2 + 1) stack, each row by its own stepper.
        Each row's tables are its stepper's own, bit for bit: the contour
        weights are not recomputed on the stack, which rounds differently."""
        if any(s.dt != steppers[0].dt for s in steppers):
            raise ValueError("stacked steppers need one dt")
        st = cls.__new__(cls)
        st.engine = SpectralEngine.stack([s.engine for s in steppers])
        st.dt = steppers[0].dt
        for name in ("e_full", "e_half", "q", "f1", "f2", "f3"):
            setattr(st, name, np.stack([getattr(s, name) for s in steppers]))
        return st

    def step(self, c_hat: np.ndarray, nl: Callable[[np.ndarray], np.ndarray] | None = None,
             cube: np.ndarray | None = None) -> np.ndarray:
        """Advance c_hat by dt, with nl(state) the nonlinearity, by default the
        engine's nonlinear_hat; cube, if given, goes to stage 0's call only."""
        nl = nl or self.engine.nonlinear_hat
        # In place only on arrays made here, bit for bit the plain formula:
        # complex products keep their operand order (with FMA they do not commute).
        n0 = nl(c_hat) if cube is None else nl(c_hat, cube)
        ec = self.e_half * c_hat
        a = self.q * n0
        a += ec
        na = nl(a)
        b = self.q * na
        b += ec
        nb = nl(b)
        cst = 2.0 * nb
        cst -= n0
        np.multiply(self.q, cst, out=cst)
        cst += np.multiply(self.e_half, a, out=ec)
        nc = nl(cst)
        out = self.e_full * c_hat
        out += np.multiply(self.f1, n0, out=ec)
        s = na + nb
        np.multiply(2.0 * self.f2, s, out=s)
        out += s
        out += np.multiply(self.f3, nc, out=s)
        return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def _stepper(grid: Grid, spec: RhsSpec, dt: float) -> Etdrk4Stepper:
    return Etdrk4Stepper(_engine(grid, spec), dt)


def exponential_rk4_step(f: Field, spec: RhsSpec, dt: float) -> Field:
    """One ETDRK4 step; exact on the linear flow, zero mode exactly constant."""
    return Field(f.grid, half=_stepper(f.grid, spec, dt).step(f.half))


class NumericalError(RuntimeError):
    """A computation produced a non-finite state or failed to converge; that of
    a time loop carries its step, time and, for a stack, non-finite rows."""

    def __init__(self, message: str, step=None, time=None, rows=None):
        super().__init__(message)
        self.step, self.time, self.rows = step, time, rows


def _march(stepper: Etdrk4Stepper, c_hat: np.ndarray, steps: int, nl=None, every: int = 1,
           cube: np.ndarray | None = None):
    """The one ETDRK4 time loop: yields (k, state) after step k = 1..steps when
    k % every == 0 or k == steps.  Step k is stepper.step(state, nl), under its
    own np.errstate (none is held across a yield).  The step after the initial
    state and after each yielded one passes cube, so that it then holds the
    integral of (c_x)^3 of that state.  A non-finite state raises
    NumericalError with step k, time k*dt and a stack's rows."""
    for k in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            c_hat = stepper.step(c_hat, nl, cube if (k - 1) % every == 0 else None)
        finite = np.isfinite(c_hat.view(np.float64)).all(axis=-1)
        if not finite.all():
            t, rows = k * stepper.dt, np.flatnonzero(~finite).tolist() if c_hat.ndim > 1 else None
            raise NumericalError(f"non-finite state at step {k} of {steps} (t = {t:g})", k, t, rows)
        if k % every == 0 or k == steps:
            yield k, c_hat


# ---------------------------------------------------------------------------
# Simulation driver and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Diagnostic time series of one simulation."""

    times: np.ndarray
    energy: np.ndarray
    hs_norms: dict[float, np.ndarray]
    zero_mode: np.ndarray
    drift_residual: np.ndarray
    drift_predicted: np.ndarray | None = None
    snapshots: list[Field] = dc_field(default_factory=list)
    error: NumericalError | None = None  # the non-finite state that ended the run

    @property
    def aborted(self) -> bool:
        return self.error is not None

    def write_csv(self, path) -> None:
        svals = sorted(self.hs_norms)
        write_csv(path, ["t", "E", *(f"hs{s:g}" for s in svals), "zero_mode", "drift_resid"],
                  zip(self.times, self.energy, *(self.hs_norms[s] for s in svals),
                      self.zero_mode, self.drift_residual))


def energy_drift_predicted(f: Field, c: Bbm5Coefficients) -> float:
    """Predicted dE/dt = (gamma - 7/48) * integral of (f_x)^3.

    Exactly zero in the energy-conserving regime (same tolerance as the
    coefficient flag, so a gamma that is 7/48 up to rounding predicts no
    drift instead of a denormal-scale one).  The integral is taken from the
    2n samples of f_x, those that SpectralEngine.nonlinear_hat pads, so the
    records of run_simulation that read it there match this bit for bit.
    """
    if c.energy_conserving:
        return 0.0
    fx = spectral_derivative(f, 1)
    return (c.gamma - GRAD_COEFF) * integral_cube(fx)


def _drift_residual(times: np.ndarray, evals: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """dE/dt (finite differences on the record lattice) minus the prediction.

    Interior points use the fourth-order five-point stencil when available,
    falling back to centered/one-sided differences near the ends.  When the
    run length is not a multiple of the record spacing the final record is
    off the lattice; every stencil that reaches it then differentiates the
    interpolant through its records at their true times instead.
    """
    k = len(times)
    e = np.asarray(evals, dtype=float)
    dEdt = np.zeros(k)
    if k >= 2:
        dt = times[1] - times[0]
        dEdt[0] = (e[1] - e[0]) / dt
        dEdt[-1] = (e[-1] - e[-2]) / dt
        dEdt[1:-1] = (e[2:] - e[:-2]) / (2.0 * dt)
        dEdt[2:-2] = (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * dt)
        if not math.isclose(times[-1] - times[-2], dt, rel_tol=1e-9):
            # (record, first stencil index) for the one-sided, centered and
            # five-point stencils that end at the final record
            for i, lo in ((k - 1, k - 2), (k - 2, k - 3), (k - 3, k - 5)):
                if lo >= 0:
                    dEdt[i] = _interpolant_slope(times[lo:], e[lo:], i - lo)
    return dEdt - predicted


def _interpolant_slope(t: np.ndarray, e: np.ndarray, i: int) -> float:
    """Derivative at t[i] of the polynomial through the points (t, e)."""
    slope = 0.0
    for j in range(len(t)):
        if j == i:
            w = sum(1.0 / (t[i] - t[m]) for m in range(len(t)) if m != i)
        else:
            w = math.prod(t[i] - t[m] for m in range(len(t)) if m not in (i, j)) / math.prod(
                t[j] - t[m] for m in range(len(t)) if m != j
            )
        slope += w * e[j]
    return slope


def _linear_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error.

    The formulas of ``scipy.stats.linregress``, bit for bit, without the
    import of scipy.stats (about 1 s of start-up).  x needs two or more
    distinct values; the error is 0.0 for two points and for constant y.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    if len(x) == 2 or ssym == 0.0:
        return float(slope), 0.0
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))


def _time_lattice(T: float, dt: float) -> tuple[int, float]:
    """round(T/dt) steps, at least one, and their length: the lattice of both
    time schemes, of the splitting windows and of each epsilon-sweep leg."""
    steps = max(1, int(round(T / dt)))
    return steps, T / steps


def run_simulation(
    eta0: Field,
    spec: RhsSpec,
    cfg: StepperConfig,
    T: float,
    monitor_s: Sequence[float] = (0.0, 1.0, 2.0),
    record_every: int = 1,
    keep_snapshots: bool = False,
) -> RunReport:
    """Advance eta0 to time T recording diagnostics.

    Each record's diagnostics are computed when the state is recorded, so
    memory is O(1) states, plus the snapshots when keep_snapshots is set.
    The predicted drift of a record is energy_drift_predicted's; with a
    dealiased ETDRK4 nonlinearity that does not conserve energy, the integral
    of (eta_x)^3 in it is read from the fine samples of eta_x that stage 0 of
    the next step pads anyway, and computed apart only for the final record.
    A non-finite state, or a record whose energy, H^s norms or prediction
    are not finite, ends the run: the report holds the records before it,
    and its ``error`` (``aborted`` is set) is the NumericalError that gives
    that step and time.
    """
    if not 0.0 < T < np.inf or record_every < 1:
        raise ValueError(f"need 0 < T < inf and record_every >= 1, got {T} and {record_every}")
    c = spec.coefficients
    grid = eta0.grid
    n_steps, dt = _time_lattice(T, cfg.dt)
    svals = list(dict.fromkeys(monitor_s))
    # a column of 8-byte numbers per record: t, E, zero mode, predicted dE/dt, H^s norms
    table = np.empty((4 + len(svals), n_steps // record_every + 2))
    count = 0
    snapshots = []
    cube = (np.empty(1) if cfg.scheme == "exponential_rk4" and spec.dealias
            and not spec.linear_only and not c.energy_conserving else None)

    def complete(k: int) -> bool:
        """Whether record k, the last, is finite once it has the integral that
        the step after it wrote; if not it is dropped, and error names it."""
        nonlocal count, error
        if cube is not None and k < n_steps:
            table[3, count - 1] = (c.gamma - GRAD_COEFF) * float(cube[0])
        if all(map(math.isfinite, table[1:, count - 1].tolist())):
            return True
        count -= 1
        del snapshots[count:]
        error = NumericalError(f"non-finite diagnostics at step {k} of {n_steps} "
                               f"(t = {k * dt:g})", k, k * dt)
        return False

    if cfg.scheme == "picard_duhamel":
        traj, _diag = duhamel_picard(eta0, spec, cfg, T)
        states = ((k, f) for k, f in enumerate(traj) if k % record_every == 0 or k == n_steps)
    else:
        march = _march(_stepper(grid, spec, dt), eta0.half, n_steps, every=record_every, cube=cube)
        states = itertools.chain([(0, eta0)], ((k, Field(grid, half=h)) for k, h in march))
    error = last = None
    try:
        for k, f in states:  # a record is checked when the next state arrives
            if last is not None and not complete(last):
                break
            with np.errstate(over="ignore", invalid="ignore"):  # diagnostics of huge states
                table[:, count] = (k * dt, energy(f, c), f.zero_mode,
                                   energy_drift_predicted(f, c) if cube is None or k == n_steps
                                   else np.nan, *(sobolev_norm(f, s) for s in svals))
            count, last = count + 1, k
            if keep_snapshots:
                snapshots.append(f)
        else:
            complete(last)
    except NumericalError as exc:
        error = exc
        complete(last)  # a step before the one that failed wrote its integral
    times, evals, zm, predicted, *hs = table[:, :count]
    return RunReport(times=times, energy=evals, hs_norms=dict(zip(svals, hs)), zero_mode=zm,
                     drift_residual=_drift_residual(times, evals, predicted),
                     drift_predicted=predicted, snapshots=snapshots, error=error)


# ---------------------------------------------------------------------------
# Duhamel / Picard fixed point
# ---------------------------------------------------------------------------


@dataclass
class PicardDiagnostics:
    iterations: int
    diff_norms: list[float]
    converged: bool

    @property
    def ratios(self) -> list[float]:
        return [
            b / a if a > 0 else 0.0
            for a, b in zip(self.diff_norms, self.diff_norms[1:])
        ]


class PicardDivergenceError(NumericalError):
    def __init__(self, message: str, diagnostics: PicardDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def duhamel_picard(
    eta0: Field, spec: RhsSpec, cfg: StepperConfig, T: float
) -> tuple[list[Field], PicardDiagnostics]:
    """Solve the integral equation by fixed-point iteration.

    eta^{m+1}(t) = S(t)*eta0 + int_0^t S(t-t') N(eta^m(t')) dt', starting from
    the free evolution, with composite Simpson quadrature on ETDRK4's time
    lattice (a single trapezoid panel seeds odd node counts).  Iteration
    stops when the sup-over-nodes H^s difference drops below picard_tol.
    """
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    s = cfg.sobolev_s
    r0 = sobolev_norm(eta0, s)
    t_bar = local_existence_time(r0, cfg.contraction_constant_cs)
    if T > t_bar:
        raise ValueError(
            f"requested T = {T} exceeds the guaranteed existence time "
            f"T_bar = {t_bar} (C_s = {cfg.contraction_constant_cs}, "
            f"||eta0||_Hs = {r0})"
        )
    # an engine of its own, so that no cached one keeps the (K + 1)-row buffers
    eng = SpectralEngine(eta0.grid, spec.coefficients, spec.dealias, spec.linear_only)
    K, dt = _time_lattice(T, cfg.dt)
    e_dt = eng.semigroup_factor(dt)
    e_2dt = e_dt * e_dt
    free = np.empty((K + 1, e_dt.size), dtype=np.complex128)
    free[0] = eta0.half
    for k in range(1, K + 1):
        free[k] = e_dt * free[k - 1]

    traj = free.copy()
    diffs: list[float] = []
    hs_w = eta0.grid.length * sobolev_weights(eta0.grid, s)
    converged = False
    for it in range(cfg.picard_max_iter):
        G = eng.nonlinear_hat(traj)  # all nodes in one call
        # I_k approximates int_0^{t_k} S(t_k - t') G(t') dt'; advanced two
        # nodes at a time so each iteration costs O(K): a Simpson panel over
        # [t_{k-2}, t_k] is added to the semigroup-shifted I_{k-2}.  Only
        # (I_{k-2}, I_{k-1}) are kept.
        new = np.empty_like(traj)
        new[0] = free[0]
        i_prev, i_last = np.zeros_like(e_dt), 0.5 * dt * (e_dt * G[0] + G[1])
        new[1] = free[1] + i_last
        for k in range(2, K + 1):
            i_prev, i_last = i_last, e_2dt * i_prev + (dt / 3.0) * (
                e_2dt * G[k - 2] + 4.0 * e_dt * G[k - 1] + G[k]
            )
            new[k] = free[k] + i_last
        d = new - traj
        diff = float(np.sqrt((hs_w * np.abs(d) ** 2).sum(axis=1)).max())
        diffs.append(diff)
        traj = new
        if diff < cfg.picard_tol:
            converged = True
            break
    diag = PicardDiagnostics(iterations=len(diffs), diff_norms=diffs, converged=converged)
    if not converged:
        raise PicardDivergenceError(
            f"Picard iteration did not reach tol {cfg.picard_tol} within "
            f"{cfg.picard_max_iter} iterations (last diff {diffs[-1]:.3e})",
            diag,
        )
    return [Field(eta0.grid, half=c_hat) for c_hat in traj], diag


# ---------------------------------------------------------------------------
# Initial-condition library
# ---------------------------------------------------------------------------


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float = 1.0,
                  center: float | None = None) -> Field:
    x0 = grid.length / 2.0 if center is None else center
    x = grid.x
    return Field.from_samples(grid, amplitude * np.exp(-((x - x0) ** 2) / (2.0 * width**2)))


def sech_squared(grid: Grid, amplitude: float = 1.0, width: float = 1.0,
                 center: float | None = None) -> Field:
    x0 = grid.length / 2.0 if center is None else center
    x = grid.x
    return Field.from_samples(grid, amplitude / np.cosh((x - x0) / width) ** 2)
