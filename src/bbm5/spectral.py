"""Periodic grid, Fourier transform contract, derivatives, norms and energy.

Conventions (fixed once, tested by round-trip):

* grid points x_k = k*L/n, k = 0..n-1, on the torus [0, L);
* wavenumbers xi_j = 2*pi*j/L with j in numpy fft ordering
  (0, 1, .., n/2-1, -n/2, .., -1);
* coefficients-as-amplitudes: u(x) = sum_j c_j exp(i*xi_j*x) with
  c = fft(samples)/n, so a Fourier multiplier acts by literal pointwise
  multiplication of c.

A real field is determined by half of its spectrum, and ``Field`` keeps
that half, in rfft layout: n/2 + 1 coefficients, the modes 0..n/2-1 and a
Nyquist slot holding the -n/2 coefficient (``Grid.half_wavenumbers``), real
as every half spectrum is a real field's, and on a finer grid split evenly
over the modes -n/2 and +n/2.  Field arithmetic, the functions below and every
time loop work on it; the samples and ``Field.spectral`` are built on request.

Every norm and the energy is ``quadratic_form``, L * sum_j w_j |c_j|^2 over
the half spectrum, on which each interior mode stands for itself and its
conjugate and is weighted twice: the H^s norm is its root with (1 + xi^2)^s
weights (L^2 for s = 0), the energy half of it.  The weight tables and
derivative symbols are cached per grid, at most ``CACHE_SIZE`` of each kind.

The transforms live here once: ``fine_samples`` (irfft onto m points of the
half spectrum times ``pad_factors``, zero past it) and ``truncated_coeffs``
(rfft of m samples, folded back).  They are every transform of the package:
a Field's samples and the half spectrum of sampled data (m = n),
``padded_product`` below (behind the Field-level products and the
operator-norm scans of ``bbm5.symbols``) and ``SpectralEngine`` in
``bbm5.evolution``.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import (Bbm5Coefficients, ParameterError, _require_integer,
                           _require_positive_finite, denominator, require_wellposed)

__all__ = [
    "Grid",
    "Field",
    "sobolev_norm",
    "energy",
    "low_pass",
    "spectral_derivative",
]

#: Bound on each per-process cache of tables.  Some are keyed on a float (a
#: step size, a Sobolev index): run_simulation makes a new dt = T/n_steps for
#: every distinct T, so an unbounded cache would grow with every new value.
CACHE_SIZE = 16


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid standing in for the real line: n points, an even
    integer >= 4 (a Python or numpy integer), over a period of the given length, a
    positive and finite real number."""

    n: int
    length: float

    def __post_init__(self):
        _require_integer("n", self.n)
        if self.n < 4 or self.n % 2 != 0:
            raise ParameterError("n", f"n must be even and >= 4, got {self.n}")
        _require_positive_finite("length", self.length)

    @functools.cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @functools.cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_j = 2*pi*j/L in fft ordering; the Nyquist slot carries -n/2."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)

    @functools.cached_property
    def half_wavenumbers(self) -> np.ndarray:
        """xi in rfft layout: the modes 0..n/2-1 and the Nyquist slot, -n/2."""
        return self.wavenumbers[: self.n // 2 + 1]

    @property
    def nyquist(self) -> float:
        """Largest resolved |xi|."""
        return np.pi * self.n / self.length


def _frozen(values, dtype, shape, what: str, real_end: bool = False) -> np.ndarray:
    a = np.array(values, dtype=dtype)  # a copy: the caller keeps its array
    if a.shape != shape:
        raise ValueError(f"expected {shape[0]} {what}, got {a.shape}")
    if real_end:
        a.imag[-1] = 0.0
    a.setflags(write=False)
    return a


class Field:
    """Real-valued periodic grid function, kept as its half spectrum.

    Immutable after construction: operations return new Fields.  Built from
    samples, from a full spectrum (of which the field is the real part: the
    Hermitian part of the coefficients) or from a half spectrum, of whose
    Nyquist slot it keeps the real part, as its samples do.
    """

    __slots__ = ("grid", "_samples", "_half", "_spectral")

    def __init__(self, grid: Grid, samples=None, spectral=None, half=None):
        self.grid = grid
        self._samples = self._spectral = self._half = None
        if samples is not None:
            self._samples = _frozen(samples, np.float64, (grid.n,), "samples")
            if not np.all(np.isfinite(self._samples)):
                raise ValueError("non-finite samples")
        elif spectral is not None:
            self._spectral = _frozen(spectral, np.complex128, (grid.n,), "coefficients")
            self._half = hermitian_half(self._spectral)
            self._half.setflags(write=False)
        elif half is not None:
            self._half = _frozen(half, np.complex128, (grid.n // 2 + 1,), "coefficients",
                                 real_end=True)
        else:
            raise ValueError("Field needs samples or spectral coefficients")

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "Field":
        return cls(grid, samples=samples)

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs) -> "Field":
        return cls(grid, spectral=coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, half=np.zeros(grid.n // 2 + 1))

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = fine_samples(self._half, self.grid.n)
            self._samples.setflags(write=False)
        return self._samples

    @property
    def half(self) -> np.ndarray:
        """The half spectrum in rfft layout (read-only)."""
        if self._half is None:
            self._half = truncated_coeffs(self._samples, self.grid.n)
            self._half.setflags(write=False)
        return self._half

    @property
    def spectral(self) -> np.ndarray:
        """c_j = (1/n) sum_k u(x_k) exp(-i*xi_j*x_k), in fft ordering (read-only);
        a Field made from a full spectrum returns it as it was given."""
        if self._spectral is None:
            c = full_spectrum(self.half)
            c.setflags(write=False)
            self._spectral = c
        return self._spectral

    @property
    def zero_mode(self) -> float:
        return float(self.half[0].real)

    def __add__(self, other: "Field") -> "Field":
        self._check_grid(other)
        return Field(self.grid, half=self.half + other.half)

    def __sub__(self, other: "Field") -> "Field":
        self._check_grid(other)
        return Field(self.grid, half=self.half - other.half)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, half=self.half * scalar)

    __rmul__ = __mul__

    def _check_grid(self, other):  # other: a Field, or anything else with a grid
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@functools.lru_cache(maxsize=CACHE_SIZE)
def derivative_symbol(grid: Grid, order: int) -> np.ndarray:
    """(i*xi)^order on the half spectrum; the Nyquist slot is zeroed for odd
    orders so realness is preserved exactly."""
    d = (1j * grid.half_wavenumbers) ** order
    if order % 2 == 1:
        d[-1] = 0.0
    d.setflags(write=False)
    return d


def _half_weights(table):
    """A cached, read-only weight table on the half spectrum of each grid and
    key, built by table(xi, key), with the interior modes counted twice."""

    @functools.lru_cache(maxsize=CACHE_SIZE)
    def weights(grid: Grid, key) -> np.ndarray:
        w = table(grid.half_wavenumbers, key)
        w[1:-1] *= 2.0  # each interior mode stands for itself and its conjugate
        w.setflags(write=False)
        return w

    return weights


sobolev_weights = _half_weights(lambda xi, s: (1.0 + xi * xi) ** s)
_energy_weights = _half_weights(denominator)


def checked_sobolev_weights(grid: Grid, s: float, name: str = "s") -> np.ndarray:
    """sobolev_weights(grid, s), refused with ParameterError(name) when the Sobolev
    index s is not finite or its weights overflow on grid."""
    if not math.isfinite(s):
        raise ParameterError(name, f"{name} must be finite, got {s!r}")
    w = sobolev_weights(grid, s)
    if not np.isfinite(w).all():
        raise ParameterError(name, f"{name} = {s!r} makes H^s weights that overflow on "
                             f"grid.n = {grid.n}")
    return w


def spectral_derivative(f: Field, order: int) -> Field:
    """d^order/dx^order, for an integer order >= 0, by multiplication with (i*xi)^order."""
    if not isinstance(order, numbers.Integral) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    if order == 0:
        return f
    return Field(f.grid, half=f.half * derivative_symbol(f.grid, order))


def quadratic_form(h: np.ndarray, grid: Grid, w: np.ndarray) -> np.ndarray:
    """L * sum_j w_j |c_j|^2 over the half spectrum h; h may be a stack of half
    spectra and w a stack of weight tables, and the result is the stack of forms."""
    return grid.length * (w * np.abs(h) ** 2).sum(-1)


def sobolev_norm(f: Field, s: float) -> float:
    """Discrete H^s norm with (1 + xi^2)^s weights, of a Sobolev index s that
    checked_sobolev_weights admits."""
    return math.sqrt(quadratic_form(f.half, f.grid, checked_sobolev_weights(f.grid, s)))


def energy(f: Field, c: Bbm5Coefficients) -> float:
    """The conserved quadratic functional.

    E = (1/2) * (||f||_L2^2 + gamma1*||f_x||_L2^2 + delta1*||f_xx||_L2^2),
    evaluated by spectral quadrature.
    """
    require_wellposed(c, "energy")
    return 0.5 * float(quadratic_form(f.half, f.grid, _energy_weights(f.grid, c)))


def low_pass(f: Field, cutoff: float) -> Field:
    """Sharp frequency truncation: zero all coefficients with |xi| > cutoff."""
    if not cutoff > 0:
        raise ParameterError("cutoff", f"cutoff must be positive, got {cutoff}")
    keep = np.abs(f.grid.half_wavenumbers) <= cutoff
    return Field(f.grid, half=np.where(keep, f.half, 0.0))


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


def hermitian_half(c: np.ndarray) -> np.ndarray:
    """The half spectrum of the real part of the field with full spectrum c:
    (c_j + conj(c_-j))/2, which is exactly c's half when c is Hermitian.
    A stack of spectra along the last axis gives the stack of halves."""
    mirror = np.conj(np.concatenate((c[..., :1], c[..., : c.shape[-1] // 2 - 1 : -1]),
                                    axis=-1))  # c at -xi
    return 0.5 * (half_spectrum(c) + mirror)


def full_spectrum(h: np.ndarray) -> np.ndarray:
    """The full spectrum, in fft ordering, of the half spectrum h."""
    return np.concatenate((h, np.conj(h[..., -2:0:-1])), axis=-1)


@functools.lru_cache(maxsize=CACHE_SIZE)
def pad_factors(n: int, m: int) -> np.ndarray:
    """The factors (read-only) of a half spectrum of n points in the padded one of m >= n
    points: 1, but 1/2 at the Nyquist slot if m > n, split evenly over the modes -n/2, +n/2."""
    p = np.ones(n // 2 + 1)
    p[-1] = 0.5 if m > n else 1.0
    p.setflags(write=False)
    return p


def fine_samples(h: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Samples on the m-point grid (into out, if given) of the half spectrum h
    of n points (m >= n), times pad_factors(n, m); an h of m/2 + 1 slots is taken as padded."""
    if h.shape[-1] < m // 2 + 1:
        spec = np.zeros((*h.shape[:-1], m // 2 + 1), dtype=np.complex128)
        np.multiply(h, pad_factors(2 * h.shape[-1] - 2, m), out=spec[..., : h.shape[-1]])
        h = spec
    return np.fft.irfft(h, m, norm="forward", out=out)


def truncated_coeffs(samples: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The n/2 + 1 retained half-spectrum coefficients of m fine-grid samples (rfft into out);
    the fine -n/2 and +n/2 modes fold into the Nyquist slot: real part / pad_factors(n, m)[-1]."""
    h = np.fft.rfft(samples, norm="forward", out=out)[..., : n // 2 + 1]
    h[..., -1] = h[..., -1].real / pad_factors(n, samples.shape[-1])[-1]
    return h


def padded_product(n: int, *halves: np.ndarray) -> np.ndarray:
    """Half spectrum of the alias-free product of two fields (2/3-rule
    padding) or three (1/2 rule) of n points, given as half spectra or as
    stacks of them along the last axis, all of one shape; every factor is
    padded by one transform call."""
    m = 3 * n // 2 if len(halves) == 2 and n % 4 == 0 else 2 * n
    w, *rest = fine_samples(np.stack(halves), m)
    for f in rest:
        w *= f
    return truncated_coeffs(w, n)


def dealiased_product2(f: Field, g: Field) -> Field:
    """Alias-free pointwise product of two fields (2/3-rule padding)."""
    return Field(f.grid, half=padded_product(f.grid.n, f.half, g.half))


def dealiased_product3(f: Field, g: Field, h: Field) -> Field:
    """Alias-free triple product (1/2-rule padding)."""
    return Field(f.grid, half=padded_product(f.grid.n, f.half, g.half, h.half))


def integral_cube(f: Field) -> float:
    """Integral of f^3, computed alias-free on a padded grid."""
    return sampled_integral_cube(fine_samples(f.half, 2 * f.grid.n), f.grid.length)


def sampled_integral_cube(w: np.ndarray, length: float) -> float:
    """Integral of f^3 over the period length from samples w of f on a
    uniform grid: length times the mean of w*w*w (w**3 is a general power,
    slow on subnormal tails)."""
    return float(length * ((w * w * w).sum() / w.size))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def write_csv(path, header, rows) -> None:
    """The one CSV format of the package: the header's names, then one line
    per row with numbers at 17 significant digits (they read back as the
    same float) and strings as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join([v if isinstance(v, str) else format(v, ".17g") for v in row])
                      + "\n" for row in rows)


def read_snapshot_csv(grid: Grid, path) -> Field:
    with warnings.catch_warnings():  # a file of its header alone is reported below, once
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:  # no file, or not numbers: its text in one line
            raise ParameterError("path", "path cannot be read: " + " ".join(str(exc).split()))
    if data.shape[0] != grid.n or data.shape[1] < 2 or not np.isfinite(data[:, 1]).all():
        raise ParameterError("path", f"path has {data.shape[0]} rows of {data.shape[1]} columns, "
                             f"grid has {grid.n}: it needs {grid.n} rows of x and finite eta")
    return Field.from_samples(grid, data[:, 1])
