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
in ``SpectralEngine.combine``, which the equation and the alpha/beta-scaled
law of ``bbm5.derivation`` call; the semigroup factor exp(-i*phi*t) in
``SpectralEngine.semigroup_factor``, which ``semigroup_apply``, Picard and the
stepper's phases call; the ETDRK4 weights and step in ``Etdrk4Stepper``,
built from the linear symbol of any engine, whose step is the ETDRK4 formula
written out and always steps its engine's ``nonlinear_hat``.  An engine
keeps one set of work buffers, for the last leading shape it evaluated, and
returns new arrays; it is not thread-safe.  Coefficients and weights given
as (E, 1) columns step a stack of E states row by row.

The engine, the stepper and every time loop work on half spectra in rfft
layout, the spectral state ``Field.half`` of Field itself (``bbm5.spectral``).
``_march`` is the one ETDRK4 time loop, of ``run_simulation``, the splitting
windows and the epsilon sweep; it yields the initial state as step 0 and
stops at the first non-finite state.

Note on the cubic coefficient: the contraction-mapping proof writes 1/4 where
every other statement of the equation writes 1/8; we use 1/8 throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .coefficients import (Bbm5Coefficients, ParameterError, _require_integer,
                           _require_positive_finite, multipliers, require_wellposed)
from .spectral import (
    CACHE_SIZE,
    Field,
    Grid,
    _energy_weights,
    checked_sobolev_weights,
    derivative_symbol,
    fine_samples,
    integral_cube,
    pad_factors,
    quadratic_form,
    sampled_integral_cube,
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
N_CONTOUR = 32  # roots of unity of the ETDRK4 contour means
CONTOUR_BLOCK = 64  # modes of a contour-table block: 64 x 32 complex numbers, 32 KiB
PICARD_BLOCK = 64  # nodes of a Picard block, evaluated as one stack of states
MAX_STEPS = 10**7  # of a time loop (1,000 times acceptance 04's), its records, Picard's memory


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
            raise ParameterError("scheme", f"unknown scheme {self.scheme!r}")
        _require_positive_finite("dt", self.dt)
        _require_positive_finite("picard_tol", self.picard_tol)
        _require_integer("picard_max_iter", self.picard_max_iter, 1)
        _require_positive_finite("cs", self.contraction_constant_cs)


def local_existence_time(hs_norm: float, cs: float) -> float:
    """Guaranteed existence time 1/(8*C_s*r0*(1+r0)) of r0 = hs_norm >= 0 and C_s = cs > 0;
    infinite where that product is 0, for zero data or when it underflows."""
    if not hs_norm >= 0.0:
        raise ParameterError("hs_norm", f"hs_norm must be >= 0, got {hs_norm}")
    _require_positive_finite("cs", cs)
    product = 8.0 * cs * hs_norm * (1.0 + hs_norm)
    return 1.0 / product if product > 0.0 else np.inf


class SpectralEngine:
    """Multiplier tables, padded transforms and the nonlinearity on one grid.

    Works on half-spectrum arrays (amplitude convention, rfft layout) so the
    time loops avoid Field-object overhead.  The engine does not check the
    regime: the public entries do, and the alpha/beta-scaled law of
    ``bbm5.derivation`` needs an engine at alpha = beta = 0.  ``weights``
    are the factors of the quadratic, cubic and gradient terms; the
    equation's are (1, 1/8, 7/48), the scaled law passes its own.  The
    fields of coefficients and the weights are numbers or (E, 1) columns,
    one row per state of a stack.  The engine owns the work buffers of the
    nonlinearity: one set, for the leading shape of the last state or stack
    it evaluated, remade when another shape comes.  Every result is a new
    array, but the buffers are shared, so an engine is not thread-safe.
    """

    def __init__(self, grid: Grid, coefficients: Bbm5Coefficients, dealias: bool = True,
                 *, weights=(1.0, CUBIC_COEFF, GRAD_COEFF)):
        self.grid = grid
        self.coefficients = coefficients
        self.dealias = dealias
        _varphi, self.phi, self.psi, self.tau = multipliers(grid.half_wavenumbers, coefficients)
        for tab in (self.phi, self.psi, self.tau):
            tab[..., -1] = 0.0  # odd symbols: keep realness exactly
        w2, w3, wg = weights
        self._quad = -1j * w2 * self.tau
        self._ipsi = 1j * self.psi
        self.ikx_d = derivative_symbol(grid, 1)
        self.m = 2 * grid.n if dealias else grid.n
        # the head of the padded (eta; eta_x) is these rows times eta
        self._head = np.stack((pad_factors(grid.n, self.m), self.ikx_d))
        # a column of weights as full rows of the fine grid: combine is faster with them
        self._w3, self._wg = (w if np.ndim(w) == 0 else np.repeat(w, self.m, axis=-1)
                              for w in (w3, wg))
        self._buffers = None  # of the last shape evaluated

    def _work(self, lead: tuple) -> tuple:
        """The engine's one set of work buffers (spectrum, samples, coefficients,
        scratch) of states of leading shape lead, () for a single state, made
        anew when lead is not the last one's (its arrays apart: a joint one of
        128 kB or more is mapped on its own and raises peak RSS); the
        spectrum's tail past n/2 stays zero.  Not thread-safe: two threads
        would write into one set."""
        if self._buffers is None or self._buffers[3].shape[:-1] != lead:
            half, fine = (2, *lead, self.m // 2 + 1), (2, *lead, self.m)
            self._buffers = (np.zeros(half, dtype=np.complex128), np.empty(fine),
                             np.empty(half, dtype=np.complex128), np.empty(fine[1:]))
        return self._buffers

    # -- padded transforms ------------------------------------------------

    def to_fine(self, c_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return fine_samples(c_hat, self.m, out=out)

    def from_fine(self, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return truncated_coeffs(samples, self.grid.n, out=out)

    # -- right-hand side --------------------------------------------------

    def combine(self, p2: np.ndarray, p3: np.ndarray, pg: np.ndarray,
                fine: np.ndarray | None = None) -> np.ndarray:
        """-i*(w2*tau*q2 - psi*(w3*q3 + wg*g2)), with q2, q3, g2 the
        coefficients of the fine-grid quadratic, cubic and gradient products
        p2, p3, pg; p2 and the sum of the psi-terms share one transform, of a
        new (2, ..., m) stack or of fine, whose rows p3 and pg may be.  Called
        by nonlinear_hat and by _eta_tt of bbm5.derivation."""
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
        from its fine samples.  c_hat and its x-derivative are padded as one
        (2, ..., m) stack, by one transform, in the work buffers of its shape."""
        spec, fine, _, u2 = self._work(c_hat.shape[:-1])
        head = self._head.reshape(2, *(1,) * (c_hat.ndim - 1), -1)
        np.multiply(head, c_hat, out=spec[..., : c_hat.shape[-1]])
        u, ux = fine = self.to_fine(spec, fine)
        if cube is not None:
            cube[0] = sampled_integral_cube(ux, self.grid.length)
        np.multiply(u, u, out=u2)
        u *= u2  # u^3
        ux *= ux
        return self.combine(u2, u, ux, fine)

    def semigroup_factor(self, t: float) -> np.ndarray:
        return np.exp(-1j * self.phi * t)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _engine(grid: Grid, spec: RhsSpec) -> SpectralEngine:
    """spec's engine on grid; a linear-only spec's has nonlinear weights (0, 0, 0)."""
    weights = (0.0, 0.0, 0.0) if spec.linear_only else (1.0, CUBIC_COEFF, GRAD_COEFF)
    return SpectralEngine(grid, spec.coefficients, spec.dealias, weights=weights)


def nonlinear_rhs(f: Field, spec: RhsSpec) -> Field:
    """The real nonlinear right-hand side N(f); zero mode is exactly zero."""
    return Field(f.grid, half=_engine(f.grid, spec).nonlinear_hat(f.half))


def semigroup_apply(f: Field, t: float, c: Bbm5Coefficients) -> Field:
    """Exact free evolution S(t): multiply each coefficient by e^{-i*phi*t}.

    An H^s isometry for every s; realness is preserved because phi is odd.
    """
    if not math.isfinite(t):
        raise ParameterError("t", f"t must be finite, got {t}")
    return Field(f.grid, half=_engine(f.grid, RhsSpec(c)).semigroup_factor(t) * f.half)


# ---------------------------------------------------------------------------
# ETDRK4
# ---------------------------------------------------------------------------


class Etdrk4Stepper:
    """Fourth-order exponential time differencing over the exact semigroup.

    Built from the linear symbol of any engine.  The linear part
    e^{-i*phi*dt}, the engine's semigroup_factor, is applied exactly, and a
    step is the ETDRK4 formula of Cox & Matthews.  The quadrature weights are
    contour means over roots of unity (Kassam & Trefethen), which dodge
    cancellation at small |L*dt|, a block of CONTOUR_BLOCK modes at a time,
    so the build needs little more memory than its tables.  The tables of a
    stacked engine are stacked too, each row bit for bit that of the row's
    one-row engine.
    """

    def __init__(self, engine: SpectralEngine, dt: float):
        self.engine = engine
        self.dt = dt
        self.e_full, self.e_half = engine.semigroup_factor(dt), engine.semigroup_factor(0.5 * dt)
        lam = -1j * engine.phi
        roots = np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)

        # a block of modes at a time, of every row alike: a block's temporaries are under
        # numpy's elision size, so every n and stack rounds as one mode alone, and the
        # build peaks at one block over the tables
        modes = lam.reshape(-1)
        tables = np.empty((4, modes.size), dtype=complex)  # lam is imaginary: complex means
        for i in range(0, modes.size, CONTOUR_BLOCK):
            lr = dt * modes[i : i + CONTOUR_BLOCK, None] + roots[None, :]
            elr, lr2, lr3 = np.exp(lr), lr**2, lr**3  # a complex cube costs 10 squares
            q, f1, f2, f3 = tables[:, i : i + CONTOUR_BLOCK]
            q[:] = dt * ((np.exp(lr / 2.0) - 1.0) / lr).mean(1)
            f1[:] = dt * ((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr2)) / lr3).mean(1)
            f2[:] = dt * ((2.0 + lr + elr * (lr - 2.0)) / lr3).mean(1)
            f3[:] = dt * ((-4.0 - 3.0 * lr - lr2 + elr * (4.0 - lr)) / lr3).mean(1)
        self.q, self.f1, self.f2, self.f3 = tables.reshape(4, *lam.shape)

    def step(self, c_hat: np.ndarray, n0: np.ndarray | None = None) -> np.ndarray:
        """Advance c_hat by dt with the engine's nonlinear_hat; n0, if given, is
        stage 0's nonlinear_hat(c_hat)."""
        nl, q, ec = self.engine.nonlinear_hat, self.q, self.e_half * c_hat
        n0 = nl(c_hat) if n0 is None else n0
        # each product in this operand order: with FMA, complex products do not commute
        a = ec + q * n0
        na = nl(a)
        b = ec + q * na
        nb = nl(b)
        nc = nl(self.e_half * a + q * (2.0 * nb - n0))
        return self.e_full * c_hat + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc


@functools.lru_cache(maxsize=CACHE_SIZE)
def _stepper(grid: Grid, spec: RhsSpec, dt: float) -> Etdrk4Stepper:
    return Etdrk4Stepper(_engine(grid, spec), dt)


def exponential_rk4_step(f: Field, spec: RhsSpec, dt: float) -> Field:
    """One ETDRK4 step; exact on the linear flow, zero mode exactly constant."""
    _require_positive_finite("dt", dt)
    return Field(f.grid, half=_stepper(f.grid, spec, dt).step(f.half))


class NumericalError(RuntimeError):
    """A computation produced a non-finite state or failed to converge; that of
    a time loop carries its step, time and, for a stack, non-finite rows."""

    def __init__(self, message: str, step=None, time=None, rows=None):
        super().__init__(message)
        self.step, self.time, self.rows = step, time, rows


def _march(stepper: Etdrk4Stepper, c_hat: np.ndarray, steps: int, every: int = 1,
           cube: np.ndarray | None = None):
    """The one ETDRK4 time loop: yields (k, state) for k = 0, the initial state, and after
    step k = 1..steps when k % every == 0 or k == steps.  Step k is stepper.step(state,
    n0), under its own np.errstate (none is held across a yield); with cube, n0 is stage
    0, the engine's nonlinear_hat(state, cube), evaluated under its own before each yield,
    so that cube then holds the integral of (c_x)^3 of the yielded state.
    A non-finite state raises NumericalError with step k, time k*dt and a stack's rows."""
    n0 = None
    for k in range(steps + 1):
        if k:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                c_hat, n0 = stepper.step(c_hat, n0), None
        finite = np.isfinite(c_hat.view(np.float64)).all(axis=-1)
        if not finite.all():
            t, rows = k * stepper.dt, np.flatnonzero(~finite).tolist() if c_hat.ndim > 1 else None
            raise NumericalError(f"non-finite state at step {k} of {steps} (t = {t:g})", k, t, rows)
        if k % every == 0 or k == steps:
            if cube is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # the caller checks cube
                    n0 = stepper.engine.nonlinear_hat(c_hat, cube)
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


def _time_lattice(T: float, dt: float, legs: int = 1) -> tuple[int, float]:
    """round(T/(legs*dt)) steps, at least 1, and their length: the lattice of every time loop,
    of each epsilon-sweep leg.  Refused unless 0 < T, dt < inf and legs*steps <= MAX_STEPS."""
    _require_positive_finite("T", T)
    _require_positive_finite("dt", dt)
    if legs > MAX_STEPS:  # a step a leg at least; T / legs overflows past a float's range
        steps, count = 1, max(float(legs) if legs < 1e308 else math.inf, T / dt)
    else:
        ratio = T / legs / dt
        steps = max(1, int(round(min(ratio, MAX_STEPS + 1))))
        count = legs * max(steps, ratio)
    if count > MAX_STEPS:
        where = f" in {legs} checkpoints" if legs > 1 else ""
        raise ParameterError("T", f"T = {T:g} at dt = {dt:g} makes {count:.3g} "
                             f"steps{where}, over {MAX_STEPS:.0e}")
    return steps, T / legs / steps


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

    Each record's diagnostics are computed when its state is yielded, E and the
    H^s norms by one quadratic_form call, with no Field but a snapshot or the
    argument of energy_drift_predicted: memory is O(1) states plus the snapshots,
    but every node of the lattice with the picard_duhamel scheme.
    The predicted drift of a record is energy_drift_predicted's; with a dealiased ETDRK4
    nonlinearity that does not conserve energy, the integral of (eta_x)^3 in it is read
    from the fine samples of eta_x that the engine's stage 0 pads, evaluated when each
    record's state is yielded, the final one's too.  A non-finite state, or a record whose
    energy, H^s norms or prediction are not finite, ends the run: the report holds the
    records before it, and its ``error`` (``aborted`` is set) is the NumericalError that
    gives that step and time.
    """
    _require_integer("record_every", record_every, 1)
    c = spec.coefficients
    grid = eta0.grid
    n_steps, dt = _time_lattice(T, cfg.dt)
    svals = list(dict.fromkeys(monitor_s))
    weights = np.stack([_energy_weights(grid, c),
                        *(checked_sobolev_weights(grid, s, "monitor_s") for s in svals)])
    # a column of 8-byte numbers per record: t, E, zero mode, predicted dE/dt, H^s norms
    table = np.empty((4 + len(svals), n_steps // record_every + 2))
    cube = (np.empty(1) if cfg.scheme == "exponential_rk4" and spec.dealias
            and not c.energy_conserving else None)
    if cfg.scheme == "picard_duhamel":
        traj, _diag = duhamel_picard(eta0, spec, cfg, T)
        states = ((k, f.half) for k, f in enumerate(traj) if k % record_every == 0 or k == n_steps)
    else:
        states = _march(_stepper(grid, spec, dt), eta0.half, n_steps, every=record_every, cube=cube)
    count, snapshots, error = 0, [], None
    try:
        for k, h in states:
            f = Field(grid, half=h) if keep_snapshots or cube is None else None
            with np.errstate(over="ignore", invalid="ignore"):  # diagnostics of huge states
                e, *q = quadratic_form(h, grid, weights)
                row = (k * dt, 0.5 * e, h[0].real,
                       energy_drift_predicted(f, c) if cube is None
                       else (c.gamma - GRAD_COEFF) * float(cube[0]), *np.sqrt(q))
            if not all(map(math.isfinite, row[1:])):
                raise NumericalError(f"non-finite diagnostics at step {k} of {n_steps} "
                                     f"(t = {k * dt:g})", k, k * dt)
            table[:, count] = row
            count += 1
            if keep_snapshots:
                snapshots.append(f)
    except NumericalError as exc:
        error = exc
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
    lattice (a single trapezoid panel seeds odd node counts).  As S(t_k - t')
    = S(t_k)S(-t'), node k is S(t_k) times eta0 plus a running sum of Simpson
    panels of S(-t_j)N(eta^m(t_j)), the integrating-factor form of Cox &
    Matthews (2002), summed a block of PICARD_BLOCK nodes at a time.  Iteration
    stops when the sup-over-nodes H^s difference drops below picard_tol; one that
    is not finite, or picard_max_iter iterations, raise PicardDivergenceError.
    """
    K, dt = _time_lattice(T, cfg.dt)
    if (K + 1) * (eta0.grid.n // 2 + 1) > MAX_STEPS:  # the arrays below hold every node
        raise ParameterError("T", f"T = {T:g} makes {K + 1} Picard nodes, "
                             f"over {MAX_STEPS:.0e} coefficients")
    hs_w = checked_sobolev_weights(eta0.grid, cfg.sobolev_s, "sobolev_s")
    r0 = math.sqrt(quadratic_form(eta0.half, eta0.grid, hs_w))
    if not math.isfinite(r0):
        raise ParameterError("eta0", "eta0 makes initial data whose H^s norm at "
                             f"stepper.sobolev_s = {cfg.sobolev_s!r} overflows")
    t_bar = local_existence_time(r0, cfg.contraction_constant_cs)
    if T > t_bar:
        raise ParameterError("T", f"T = {T} exceeds the guaranteed existence time T_bar = {t_bar} "
                             f"(C_s = {cfg.contraction_constant_cs}, ||eta0||_Hs = {r0})")
    # an engine of its own, uncached, so that no cached one keeps a block's buffers
    eng = _engine.__wrapped__(eta0.grid, spec)
    phase = eng.semigroup_factor(dt * np.arange(K + 1.0)[:, None])  # S(t_k), a row a node
    traj = phase * eta0.half  # the free evolution
    norms = np.empty(K + 1)
    diffs: list[float] = []
    for _ in range(cfg.picard_max_iter):
        # g_j = S(-t_j)*N(traj_j); R_0 = 0, R_1 = (dt/2)*(g_0 + g_1), R_k = R_{k-2} + (dt/3)*
        # (g_{k-2} + 4*g_{k-1} + g_k).  Rows 0-1 of g and r carry the two nodes before a
        # block.  A block overwrites its nodes of traj, which no later block reads.
        g, r = np.zeros((2, PICARD_BLOCK + 2, phase.shape[1]), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite difference ends it
            for a in range(0, K + 1, PICARD_BLOCK):
                nodes = slice(a, min(a + PICARD_BLOCK, K + 1))
                m = nodes.stop - a
                g[2 : m + 2] = phase[nodes].conj() * eng.nonlinear_hat(traj[nodes])
                r[2 : m + 2] = (dt / 3.0) * (g[:m] + 4.0 * g[1 : m + 1] + g[2 : m + 2])
                if a == 0:
                    r[2], r[3] = 0.0, 0.5 * dt * (g[2] + g[3])
                np.add.accumulate(r[0 : m + 2 : 2], out=r[0 : m + 2 : 2])
                np.add.accumulate(r[1 : m + 2 : 2], out=r[1 : m + 2 : 2])
                new = phase[nodes] * (eta0.half + r[2 : m + 2])
                norms[nodes] = np.sqrt(quadratic_form(new - traj[nodes], eta0.grid, hs_w))
                traj[nodes], g[:2], r[:2] = new, g[m : m + 2], r[m : m + 2]
        diffs.append(float(norms.max()))
        if diffs[-1] < cfg.picard_tol or not math.isfinite(diffs[-1]):
            break
    del phase, g, r, new  # before the returned Fields copy traj
    converged = diffs[-1] < cfg.picard_tol
    diag = PicardDiagnostics(iterations=len(diffs), diff_norms=diffs, converged=converged)
    if not converged:
        why = (f"did not reach tol {cfg.picard_tol} within {cfg.picard_max_iter} iterations "
               f"(last diff {diffs[-1]:.3e})" if math.isfinite(diffs[-1])
               else f"diverged: the difference at iteration {len(diffs)} is not finite")
        raise PicardDivergenceError(f"Picard iteration {why}", diag)
    return [Field(eta0.grid, half=c_hat) for c_hat in traj], diag


# ---------------------------------------------------------------------------
# Initial-condition library
# ---------------------------------------------------------------------------


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float = 1.0,
                  center: float | None = None) -> Field:
    if width * width == 0.0:  # at |width| < 1.5e-162 already
        raise ParameterError("width", f"width = {width!r} makes gaussian data divide by zero")
    x = grid.x - (grid.length / 2.0 if center is None else center)
    return Field.from_samples(grid, amplitude * np.exp(-(x ** 2) / (2.0 * width * width)))


def sech_squared(grid: Grid, amplitude: float = 1.0, width: float = 1.0,
                 center: float | None = None) -> Field:
    if width == 0.0:
        raise ParameterError("width", f"width = {width!r} makes sech2 data divide by zero")
    x = grid.x - (grid.length / 2.0 if center is None else center)
    return Field.from_samples(grid, amplitude / np.cosh(x / width) ** 2)
