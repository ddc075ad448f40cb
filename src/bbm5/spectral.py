"""Periodic grid, Fourier transform contract, derivatives, norms and energy.

Conventions (fixed once, tested by round-trip):

* grid points x_k = k*L/n, k = 0..n-1, on the torus [0, L);
* wavenumbers xi_j = 2*pi*j/L with j in numpy fft ordering
  (0, 1, .., n/2-1, -n/2, .., -1);
* coefficients-as-amplitudes: u(x) = sum_j c_j exp(i*xi_j*x) with
  c = fft(samples)/n, so a Fourier multiplier acts by literal pointwise
  multiplication of c.

The discrete H^s norm is sqrt(L * sum_j (1 + xi_j^2)^s |c_j|^2); for s = 0
this is the L^2 integral of u^2 by Parseval.

A real field is determined by half of its spectrum.  The padded transforms
and every time loop work on that half, in rfft layout: n/2 + 1 coefficients,
the modes 0..n/2-1 and a Nyquist slot holding the -n/2 coefficient.
``half_spectrum``/``full_spectrum`` convert at the Field boundary, once on
entry to a loop and once per recorded state; Field itself keeps the full
complex spectrum.  The padded transforms live here once: ``fine_samples``
(irfft onto m points, which zero-pads) and ``truncated_coeffs`` (rfft of m
samples, truncated back to the half spectrum).  The Field-level products
below and ``SpectralEngine`` in ``bbm5.evolution`` both use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import Bbm5Coefficients, denominator, require_wellposed
from .coefficients import RegimeError  # noqa: F401  (re-exported: callers import it from here)

__all__ = [
    "Grid",
    "Field",
    "sobolev_norm",
    "homogeneous_sobolev_norm",
    "energy",
    "low_pass",
    "spectral_derivative",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid standing in for the real line."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_j = 2*pi*j/L in fft ordering; the Nyquist slot carries -n/2."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)

    @property
    def nyquist(self) -> float:
        """Largest resolved |xi|."""
        return np.pi * self.n / self.length


class Field:
    """Real-valued periodic grid function with cached spectral coefficients.

    Immutable after construction: operations return new Fields.
    """

    __slots__ = ("grid", "_samples", "_spectral")

    def __init__(self, grid: Grid, samples=None, spectral=None):
        if samples is None and spectral is None:
            raise ValueError("Field needs samples or spectral coefficients")
        self.grid = grid
        if samples is not None:
            samples = np.asarray(samples, dtype=np.float64)
            if samples.shape != (grid.n,):
                raise ValueError(f"expected {grid.n} samples, got {samples.shape}")
            if not np.all(np.isfinite(samples)):
                raise ValueError("non-finite samples")
            samples = samples.copy()
            samples.setflags(write=False)
        self._samples = samples
        if spectral is not None:
            spectral = np.asarray(spectral, dtype=np.complex128)
            if spectral.shape != (grid.n,):
                raise ValueError(f"expected {grid.n} coefficients, got {spectral.shape}")
            spectral = spectral.copy()
            spectral.setflags(write=False)
        self._spectral = spectral

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "Field":
        return cls(grid, samples=samples)

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs) -> "Field":
        return cls(grid, spectral=coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, samples=np.zeros(grid.n))

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            s = np.fft.ifft(self._spectral * self.grid.n).real
            s.setflags(write=False)
            self._samples = s
        return self._samples

    @property
    def spectral(self) -> np.ndarray:
        """c_j = (1/n) sum_k u(x_k) exp(-i*xi_j*x_k)."""
        if self._spectral is None:
            c = np.fft.fft(self._samples) / self.grid.n
            c.setflags(write=False)
            self._spectral = c
        return self._spectral

    @property
    def zero_mode(self) -> float:
        return float(self.spectral[0].real)

    def max_imag_residue(self) -> float:
        """Departure from realness of the inverse transform."""
        return float(np.abs(np.fft.ifft(self.spectral * self.grid.n).imag).max())

    def __add__(self, other: "Field") -> "Field":
        self._check_grid(other)
        return Field.from_spectral(self.grid, self.spectral + other.spectral)

    def __sub__(self, other: "Field") -> "Field":
        self._check_grid(other)
        return Field.from_spectral(self.grid, self.spectral - other.spectral)

    def __mul__(self, scalar: float) -> "Field":
        return Field.from_spectral(self.grid, self.spectral * scalar)

    __rmul__ = __mul__

    def _check_grid(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


def spectral_derivative(f: Field, order: int) -> Field:
    """d^order/dx^order by multiplication with (i*xi)^order.

    The Nyquist mode is zeroed for odd orders so realness is preserved
    exactly.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order == 0:
        return f
    xi = f.grid.wavenumbers
    c = f.spectral * (1j * xi) ** order
    if order % 2 == 1:
        c = c.copy()
        c[f.grid.n // 2] = 0.0
    return Field.from_spectral(f.grid, c)


def sobolev_norm(f: Field, s: float) -> float:
    """Discrete H^s norm with (1 + xi^2)^s weights."""
    if not np.isfinite(s):
        raise ValueError("Sobolev index must be finite")
    xi = f.grid.wavenumbers
    w = (1.0 + xi * xi) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.spectral) ** 2)))


def homogeneous_sobolev_norm(f: Field, s: float) -> float:
    """Homogeneous counterpart with |xi|^(2s) weights (zero mode dropped)."""
    xi = f.grid.wavenumbers
    w = np.abs(xi) ** (2.0 * s)
    w[0] = 0.0
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.spectral) ** 2)))


def energy(f: Field, c: Bbm5Coefficients) -> float:
    """The conserved quadratic functional.

    E = (1/2) * (||f||_L2^2 + gamma1*||f_x||_L2^2 + delta1*||f_xx||_L2^2),
    evaluated by spectral quadrature.
    """
    require_wellposed(c, "energy")
    w = denominator(f.grid.wavenumbers, c)
    return float(0.5 * f.grid.length * np.sum(w * np.abs(f.spectral) ** 2))


def low_pass(f: Field, cutoff: float) -> Field:
    """Sharp frequency truncation: zero all coefficients with |xi| > cutoff."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    xi = f.grid.wavenumbers
    c = np.where(np.abs(xi) <= cutoff, f.spectral, 0.0)
    return Field.from_spectral(f.grid, c)


# ---------------------------------------------------------------------------
# Alias-free products via zero padding.
#
# Quadratic products are formed on a 3n/2 fine grid (the classical 2/3 rule)
# and cubic products on a 2n fine grid (1/2 rule); both leave every retained
# coefficient exact apart from the Nyquist edge mode.
# ---------------------------------------------------------------------------


def half_spectrum(c: np.ndarray) -> np.ndarray:
    """The rfft-layout half of a real field's full spectrum c (a view)."""
    return c[..., : c.shape[-1] // 2 + 1]


def full_spectrum(h: np.ndarray) -> np.ndarray:
    """The full spectrum, in fft ordering, of the half spectrum h."""
    return np.concatenate((h, np.conj(h[..., -2:0:-1])), axis=-1)


def fine_samples(h: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m-point grid of the half spectrum h of n points (m >= n)."""
    if m > 2 * (h.shape[-1] - 1):
        # on the fine grid the coarse -n/2 coefficient c sits inside the band:
        # Re(c*e^{-i*n*x/2}) puts conj(c)/2 on the +n/2 mode
        h = h.copy()
        h[..., -1] = 0.5 * np.conj(h[..., -1])
    return np.fft.irfft(h, m, norm="forward")


def truncated_coeffs(samples: np.ndarray, n: int) -> np.ndarray:
    """The n/2 + 1 retained half-spectrum coefficients of m fine-grid samples."""
    r = np.fft.rfft(samples, norm="forward")
    if samples.shape[-1] == n:
        return r  # no padding: the Nyquist slot must not be folded onto itself
    out = r[..., : n // 2 + 1]
    # fold the fine +n/2 mode and its mirror into the single coarse Nyquist slot
    out[..., -1] = 2.0 * out[..., -1].real
    return out


def _fine(f: Field, m: int) -> np.ndarray:
    return fine_samples(half_spectrum(f.spectral), m)


def _coarse(grid: Grid, samples: np.ndarray) -> Field:
    return Field.from_spectral(grid, full_spectrum(truncated_coeffs(samples, grid.n)))


def dealiased_product2(f: Field, g: Field) -> Field:
    """Alias-free pointwise product of two fields (2/3-rule padding)."""
    n = f.grid.n
    m = 3 * n // 2 if n % 4 == 0 else 2 * n
    return _coarse(f.grid, _fine(f, m) * _fine(g, m))


def dealiased_product3(f: Field, g: Field, h: Field) -> Field:
    """Alias-free triple product (1/2-rule padding)."""
    m = 2 * f.grid.n
    return _coarse(f.grid, _fine(f, m) * _fine(g, m) * _fine(h, m))


def integral(f: Field) -> float:
    """Integral over the torus (= L * zero mode; exact for band-limited f)."""
    return float(f.grid.length * f.spectral[0].real)


def integral_cube(f: Field) -> float:
    """Integral of f^3, computed alias-free on a padded grid."""
    w = _fine(f, 2 * f.grid.n)
    return float(f.grid.length * np.mean(w**3))


# ---------------------------------------------------------------------------
# Snapshot formats
# ---------------------------------------------------------------------------


def write_snapshot_csv(f: Field, path) -> None:
    """Physical-space snapshot: header ``x,eta``, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("x,eta\n")
        for x, v in zip(f.grid.x, f.samples):
            fh.write(f"{x:.17g},{v:.17g}\n")


def write_spectral_csv(f: Field, path) -> None:
    """Spectral dump: header ``j,xi,re,im``."""
    n = f.grid.n
    j = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    with open(path, "w") as fh:
        fh.write("j,xi,re,im\n")
        for jj, xi, c in zip(j, f.grid.wavenumbers, f.spectral):
            fh.write(f"{jj},{xi:.17g},{c.real:.17g},{c.imag:.17g}\n")


def read_snapshot_csv(grid: Grid, path) -> Field:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.n:
        raise ValueError(f"snapshot has {data.shape[0]} rows, grid has {grid.n}")
    return Field.from_samples(grid, data[:, 1])
