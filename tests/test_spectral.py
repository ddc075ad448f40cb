"""Grid/transform contract, derivatives, norms, energy and filtering."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbm5 import spectral, symbols
from bbm5.coefficients import (Bbm5Coefficients, ParameterError, REFERENCE_COEFFICIENTS,
                               RegimeError, denominator, derive_bbm5, reference_parameters)
from bbm5.evolution import RhsSpec, nonlinear_rhs
from bbm5.spectral import (
    CACHE_SIZE,
    Field,
    Grid,
    dealiased_product2,
    dealiased_product3,
    energy,
    fine_samples,
    full_spectrum,
    half_spectrum,
    hermitian_half,
    integral_cube,
    low_pass,
    quadratic_form,
    read_snapshot_csv,
    sobolev_norm,
    spectral_derivative,
    truncated_coeffs,
    write_csv,
)
from bbm5.symbols import Symbol, random_hs_field


def _random_field(grid, rng, s=1.0):
    return random_hs_field(grid, s, rng)


def _homogeneous_norm(f, s):
    """||f|| in the homogeneous H^s, |xi|^(2s) weights over the full spectrum."""
    w = np.abs(f.grid.wavenumbers) ** (2.0 * s)
    w[0] = 0.0
    return math.sqrt(f.grid.length * np.sum(w * np.abs(f.spectral) ** 2))


# ---------------------------------------------------------------------------
# Grid and transform contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 2, 0, -4, 7])
def test_grid_rejects_bad_n(n):
    with pytest.raises(ValueError):
        Grid(n=n, length=1.0)


def test_grid_refuses_a_non_integer_n_and_takes_a_numpy_integer():
    # Grid(64.0, L) was accepted and failed at first use inside numpy, naming no parameter
    for n in (64.0, np.float64(64.0), "64"):
        with pytest.raises(ParameterError, match="n must be an integer") as err:
            Grid(n=n, length=1.0)
        assert err.value.name == "n"
    assert Grid(n=np.int64(64), length=1.0).half_wavenumbers.shape == (33,)


def test_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        Grid(n=8, length=0.0)


@pytest.mark.parametrize("length,message", [
    (0.0, "positive and finite"), (-1.0, "positive and finite"),
    (math.inf, "positive and finite"), (math.nan, "positive and finite"),
    # a bare TypeError, naming no parameter, and True taken as length 1
    ("2.0", "a real number"), (None, "a real number"), (True, "a real number"),
])
def test_grid_rejects_a_non_finite_length(length, message):
    with pytest.raises(ParameterError) as err:
        Grid(n=8, length=length)
    assert str(err.value) == f"length must be {message}, got {length!r}"
    assert err.value.name == "length"


def test_wavenumber_lattice(grid):
    xi = grid.wavenumbers
    assert xi[0] == 0.0
    assert xi[1] == pytest.approx(2.0 * math.pi / grid.length)
    assert xi[grid.n // 2] == pytest.approx(-grid.nyquist)


def test_constant_field_is_pure_zero_mode(grid):
    f = Field.from_samples(grid, np.ones(grid.n))
    c = f.spectral
    assert c[0] == pytest.approx(1.0)
    assert np.abs(c[1:]).max() < 1e-15
    assert f.zero_mode == pytest.approx(1.0)


def test_cosine_amplitude_convention(grid):
    f = Field.from_samples(grid, np.cos(2.0 * np.pi * grid.x / grid.length))
    c = f.spectral
    assert c[1] == pytest.approx(0.5, abs=1e-14)
    assert c[-1] == pytest.approx(0.5, abs=1e-14)
    others = np.delete(np.abs(c), [1, grid.n - 1])
    assert others.max() < 1e-14


def test_round_trip(grid, rng):
    u = rng.standard_normal(grid.n)
    f = Field.from_samples(grid, u)
    back = Field.from_spectral(grid, f.spectral).samples
    assert np.abs(back - u).max() <= 1e-12


def test_field_rejects_wrong_shape_and_nonfinite(grid):
    with pytest.raises(ValueError):
        Field.from_samples(grid, np.zeros(grid.n + 1))
    bad = np.zeros(grid.n)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Field.from_samples(grid, bad)


def test_field_refuses_to_be_made_of_no_data(grid):
    with pytest.raises(ValueError, match="Field needs samples or spectral coefficients"):
        Field(grid)


def test_field_arithmetic_grid_mismatch(grid):
    other = Grid(n=grid.n, length=grid.length * 2)
    with pytest.raises(ValueError, match="different grids"):
        Field.zero(grid) + Field.zero(other)


# ---------------------------------------------------------------------------
# The half spectrum as the Field's state
# ---------------------------------------------------------------------------


def _hermitian(c):
    """c_{-j} = conj(c_j) for every j, the zero mode and Nyquist slot real."""
    return np.array_equal(c[:0:-1], np.conj(c[1:])) and c[0].imag == 0.0


@pytest.mark.parametrize("source", ["samples", "half", "random", "sum"])
def test_field_spectral_is_read_only_hermitian_and_extends_the_half(grid, rng, source):
    u = rng.standard_normal(grid.n)
    f = {
        "samples": lambda: Field.from_samples(grid, u),
        "half": lambda: Field(grid, half=Field.from_samples(grid, u).half),
        "random": lambda: _random_field(grid, rng),
        "sum": lambda: _random_field(grid, rng) + 0.5 * Field.from_samples(grid, u),
    }[source]()
    assert f.half.shape == (grid.n // 2 + 1,)
    assert _hermitian(f.spectral)
    assert np.array_equal(f.spectral[: grid.n // 2 + 1], f.half)
    for a in (f.half, f.spectral, f.samples):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_samples_half_and_spectral_round_trip(grid, rng):
    u = rng.standard_normal(grid.n)
    f = Field.from_samples(grid, u)
    g = Field(grid, half=f.half)
    assert np.abs(g.samples - u).max() <= 1e-13
    assert np.array_equal(g.spectral, f.spectral)
    assert np.array_equal(Field.from_spectral(grid, f.spectral).half, f.half)


def test_field_copies_what_it_is_given(grid, rng):
    h = _random_field(grid, rng).half.copy()
    f = Field(grid, half=h)
    h[1] += 1.0
    assert f.half[1] != h[1]


def test_a_field_of_a_half_spectrum_keeps_the_real_part_of_its_nyquist_slot(rng):
    # a real field's -n/2 coefficient is real; a complex one was kept, and its
    # imaginary part, which the samples drop, counted in the norms, the energy and
    # the nonlinearity
    grid = Grid(n=16, length=2.0 * math.pi)
    h = _random_field(grid, rng).half.copy()
    h[-1] = 1.0 + 1.0j
    f = Field(grid, half=h)
    assert f.half[-1] == 1.0 and np.array_equal(f.half[:-1], h[:-1])
    g = Field.from_samples(grid, f.samples)
    for s in (0.0, 1.0, 2.0):
        assert sobolev_norm(f, s) == pytest.approx(sobolev_norm(g, s), rel=1e-14)
    assert energy(f, REFERENCE_COEFFICIENTS) == pytest.approx(
        energy(g, REFERENCE_COEFFICIENTS), rel=1e-14)
    spec = RhsSpec(REFERENCE_COEFFICIENTS)
    nf, ng = nonlinear_rhs(f, spec).half, nonlinear_rhs(g, spec).half
    assert np.abs(nf - ng).max() <= 1e-14 * np.abs(ng).max()


def test_field_rejects_a_half_spectrum_of_the_wrong_length(grid):
    with pytest.raises(ValueError, match="coefficients"):
        Field(grid, half=np.zeros(grid.n))


def test_field_arithmetic_matches_the_full_spectrum_arithmetic(grid, rng):
    f = _random_field(grid, rng)
    g = Field.from_samples(grid, rng.standard_normal(grid.n))
    assert np.array_equal((f + g).spectral, f.spectral + g.spectral)
    assert np.array_equal((f - g).spectral, f.spectral - g.spectral)
    assert np.array_equal((2.5 * f).spectral, 2.5 * f.spectral)
    assert np.array_equal((g * -0.3).spectral, g.spectral * -0.3)


def test_non_hermitian_spectrum_is_kept_and_its_real_part_sampled(grid, rng):
    # the field of a full spectrum is its real part, as the complex inverse
    # transform gives it; the coefficients read back as they were given
    c = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    f = Field.from_spectral(grid, c)
    assert np.array_equal(f.spectral, c)
    assert np.abs(f.samples - np.fft.ifft(c * grid.n).real).max() <= 1e-14
    assert f.zero_mode == c[0].real


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def test_derivative_of_cosines(grid):
    for k in range(1, grid.n // 4 + 1):
        f = Field.from_samples(grid, np.cos(k * grid.x))
        df = spectral_derivative(f, 1)
        expected = -k * np.sin(k * grid.x)
        assert np.abs(df.samples - expected).max() <= 1e-10


def test_derivative_order_zero_is_identity(grid, rng):
    f = _random_field(grid, rng)
    assert spectral_derivative(f, 0) is f


@pytest.mark.parametrize("order", [1.5, 2.0, -1])
def test_derivative_refuses_an_order_that_is_not_a_non_negative_integer(grid, rng, order):
    # order 1.5 gave a complex Nyquist coefficient, which no real field has
    with pytest.raises(ValueError, match="order must be a non-negative integer"):
        spectral_derivative(_random_field(grid, rng), order)


def test_fourth_derivative_against_finite_differences():
    # Gaussian bump on a wide torus; dense 7-point fourth-order stencil for
    # the fourth derivative as an independent oracle.
    grid = Grid(n=1024, length=40.0)
    x = grid.x
    u = np.exp(-((x - 20.0) ** 2) / (2.0 * 2.0**2))
    f = Field.from_samples(grid, u)
    d4 = spectral_derivative(f, 4).samples
    h = grid.length / grid.n
    w = np.array([-1.0 / 6.0, 2.0, -13.0 / 2.0, 28.0 / 3.0, -13.0 / 2.0, 2.0, -1.0 / 6.0])
    fd = sum(w[j] * np.roll(u, 3 - j) for j in range(7)) / h**4
    assert np.abs(d4 - fd).max() <= 1e-6


def test_odd_derivative_realness(grid, rng):
    f = _random_field(grid, rng)
    assert f.spectral[0] != 0.0 and f.spectral[grid.n // 2] != 0.0
    # Hermitian, c_{-j} = conj(c_j): c_0 and the Nyquist coefficient are real
    c = spectral_derivative(f, 3).spectral
    assert c[0].imag == 0.0 and np.array_equal(c[:0:-1], np.conj(c[1:]))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def test_norm_of_cosine(grid):
    f = Field.from_samples(grid, np.cos(grid.x))
    assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-13)


def test_norm_zero_field(grid):
    assert sobolev_norm(Field.zero(grid), 1.5) == 0.0


def test_parseval(grid, rng):
    u = rng.standard_normal(grid.n)
    f = Field.from_samples(grid, u)
    # physical-space L2 via the rectangle rule (exact for band-limited data)
    l2 = math.sqrt(np.sum(u**2) * grid.length / grid.n)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


@given(s1=st.floats(-2, 3), s2=st.floats(-2, 3), seed=st.integers(0, 2**31))
@settings(max_examples=50)
def test_norm_monotone_in_s(s1, s2, seed):
    grid = Grid(n=32, length=2.0 * math.pi)
    f = random_hs_field(grid, 1.0, np.random.default_rng(seed))
    lo, hi = min(s1, s2), max(s1, s2)
    assert sobolev_norm(f, lo) <= sobolev_norm(f, hi) * (1.0 + 1e-12)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0, 3.0, 1.5, -0.5])
def test_norms_match_the_full_spectrum_formulas(s):
    # the half-spectrum quadrature, interior modes weighted twice, against
    # the sum over all n modes (the Nyquist slot is nonzero here)
    grid = Grid(n=256, length=16.0 * math.pi)
    f = random_hs_field(grid, 1.0, np.random.default_rng(4))
    assert f.spectral[grid.n // 2] != 0.0
    xi, power = grid.wavenumbers, np.abs(f.spectral) ** 2
    want = math.sqrt(grid.length * np.sum((1.0 + xi * xi) ** s * power))
    assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_weight_and_symbol_caches_stay_bounded(ref):
    grid = Grid(n=32, length=2.0 * math.pi)
    f = random_hs_field(grid, 1.0, np.random.default_rng(0))
    for k in range(3 * CACHE_SIZE):
        s = 0.25 + 0.1 * k
        sobolev_norm(f, s)
        c = dataclasses.replace(ref, gamma1=ref.gamma1 * (1.0 + k))
        energy(f, c)
        Symbol("psi", c).on_grid(grid, half=True)
        spectral_derivative(f, k + 1)
    for cache in (spectral.sobolev_weights, spectral._energy_weights,
                  spectral.derivative_symbol, symbols._half_table):
        assert cache.cache_info().currsize <= CACHE_SIZE
    # a repeated key is served from the cache
    assert spectral.sobolev_weights(grid, 1.0) is spectral.sobolev_weights(grid, 1.0)


@pytest.mark.parametrize("n", [16, 128, 2048])
def test_quadratic_form_of_a_stack_is_the_norms_and_energy_row_by_row(n, ref):
    # the stacked sums round as the one-state sums: every row bit for bit
    grid = Grid(n=n, length=16.0 * math.pi)
    rng = np.random.default_rng(n)
    re, im = rng.standard_normal((2, 5, n // 2 + 1))
    im[:, -1] = 0.0  # a real field's Nyquist slot, as a Field keeps it
    stack = (re + 1j * im) / (1.0 + grid.half_wavenumbers ** 2)
    svals = (0.0, 1.0, 1.5, 2.0)
    weights = np.stack([spectral._energy_weights(grid, ref),
                        *(spectral.sobolev_weights(grid, s) for s in svals)])
    forms = {s: quadratic_form(stack, grid, spectral.sobolev_weights(grid, s)) for s in svals}
    e_forms = quadratic_form(stack, grid, spectral._energy_weights(grid, ref))
    for k, h in enumerate(stack):
        f = Field(grid, half=h)
        assert 0.5 * e_forms[k] == energy(f, ref)
        for s in svals:
            assert math.sqrt(forms[s][k]) == sobolev_norm(f, s)
        # a stack of weight tables gives each table's form
        stacked = quadratic_form(h, grid, weights)
        assert stacked.tolist() == [e_forms[k], *(forms[s][k] for s in svals)]


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, -0.5])
def test_energy_matches_the_full_spectrum_formula(rho):
    c = derive_bbm5(dataclasses.replace(reference_parameters(), rho=rho))
    grid = Grid(n=256, length=16.0 * math.pi)
    f = random_hs_field(grid, 1.0, np.random.default_rng(5))
    want = 0.5 * grid.length * np.sum(denominator(grid.wavenumbers, c) * np.abs(f.spectral) ** 2)
    assert energy(f, c) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_energy_zero_field(grid, ref):
    assert energy(Field.zero(grid), ref) == 0.0


def test_energy_of_cosine_closed_form(grid, ref):
    for k in (1, 2, 3):
        f = Field.from_samples(grid, np.cos(k * grid.x))
        expected = 0.5 * math.pi * (1.0 + ref.gamma1 * k**2 + ref.delta1 * k**4)
        assert energy(f, ref) == pytest.approx(expected, rel=1e-13)


def test_energy_reference_value_k1(grid, ref):
    f = Field.from_samples(grid, np.cos(grid.x))
    assert energy(f, ref) == pytest.approx(
        0.5 * math.pi * float(Fraction(85, 72)), rel=1e-13
    )


def test_energy_two_path(grid, rng, ref):
    # spectral quadrature vs physical-space quadrature of the three terms
    # (Nyquist-free data: the odd-order derivative convention zeroes that slot)
    f = low_pass(_random_field(grid, rng), grid.nyquist - 1.0)
    fx = spectral_derivative(f, 1).samples
    fxx = spectral_derivative(f, 2).samples
    dx = grid.length / grid.n
    direct = 0.5 * dx * np.sum(
        f.samples**2 + ref.gamma1 * fx**2 + ref.delta1 * fxx**2
    )
    assert energy(f, ref) == pytest.approx(direct, rel=1e-12)


def test_energy_refuses_outside_regime(grid):
    bad = Bbm5Coefficients(gamma1=-0.1, gamma2=0.0, delta1=0.1, delta2=0.0, gamma=0.0)
    with pytest.raises(RegimeError):
        energy(Field.zero(grid), bad)


# ---------------------------------------------------------------------------
# Low pass
# ---------------------------------------------------------------------------


def test_low_pass_above_nyquist_is_identity(grid, rng):
    f = _random_field(grid, rng)
    g = low_pass(f, grid.nyquist + 1.0)
    assert np.array_equal(g.spectral, f.spectral)


def test_low_pass_two_mode_separation(grid):
    u = np.cos(grid.x) + np.cos(10.0 * grid.x)
    f = Field.from_samples(grid, u)
    g = low_pass(f, 5.0)
    assert np.abs(g.samples - np.cos(grid.x)).max() < 1e-13


def test_low_pass_is_projection(grid, rng):
    f = _random_field(grid, rng)
    once = low_pass(f, 4.5)
    twice = low_pass(once, 4.5)
    assert np.array_equal(once.spectral, twice.spectral)


@pytest.mark.parametrize("cutoff", [0.0, -1.0])
def test_low_pass_rejects_nonpositive_cutoff(grid, cutoff):
    with pytest.raises(ValueError) as exc:
        low_pass(Field.zero(grid), cutoff)
    assert exc.value.name == "cutoff"


@given(seed=st.integers(0, 2**31), N=st.sampled_from([2.0, 4.0, 8.0]),
       delta=st.floats(1.5, 2.0))
@settings(max_examples=60)
def test_low_pass_inhomogeneous_bound(seed, N, delta):
    # ||low_pass(f, N)||_{H^delta} <= N^{delta-s} ||f||_{Hdot^s} + ||f||_{L2}
    # for delta >= s (checked on the s = 1.5 spectrum, delta in [s, 2])
    s = 1.5
    grid = Grid(n=128, length=2.0 * math.pi)
    f = random_hs_field(grid, s, np.random.default_rng(seed))
    u0 = low_pass(f, N)
    lhs = sobolev_norm(u0, delta)
    rhs = N ** (delta - s) * _homogeneous_norm(f, s) + sobolev_norm(f, 0.0)
    assert lhs <= rhs * (1.0 + 1e-12)


@given(seed=st.integers(0, 2**31), N=st.sampled_from([2.0, 4.0, 8.0]),
       delta=st.floats(1.5, 3.0))
@settings(max_examples=60)
def test_low_pass_homogeneous_bound(seed, N, delta):
    # the sharp frequency-support inequality behind the previous one
    s = 1.5
    grid = Grid(n=128, length=2.0 * math.pi)
    f = random_hs_field(grid, s, np.random.default_rng(seed))
    u0 = low_pass(f, N)
    lhs = _homogeneous_norm(u0, delta)
    rhs = N ** (delta - s) * _homogeneous_norm(f, s)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_high_part_bound():
    # ||v0||_{H^rho} <= ||f||_{H^s} N^{rho-s} for rho in {0, 1}
    s = 1.5
    grid = Grid(n=256, length=2.0 * math.pi)
    for seed in range(20):
        f = random_hs_field(grid, s, np.random.default_rng(seed))
        for N in (4.0, 8.0, 16.0):
            v0 = f - low_pass(f, N)
            for rho in (0.0, 1.0):
                lhs = sobolev_norm(v0, rho)
                rhs = sobolev_norm(f, s) * N ** (rho - s)
                # (1 + xi^2)^(1/2) >= |xi| > N on the support of v0
                assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Half spectrum and padded transforms
# ---------------------------------------------------------------------------


def test_half_full_round_trip(grid, rng):
    c = _random_field(grid, rng).spectral
    assert c[grid.n // 2] != 0.0  # the Nyquist slot is part of the round trip
    h = half_spectrum(c)
    assert h.shape == (grid.n // 2 + 1,)
    assert np.array_equal(full_spectrum(h), c)  # random_hs_field is exactly hermitian
    assert np.array_equal(half_spectrum(full_spectrum(h)), h)
    g = Field.from_samples(grid, rng.standard_normal(grid.n))
    assert np.abs(full_spectrum(half_spectrum(g.spectral)) - g.spectral).max() < 1e-15


def test_hermitian_half_of_a_stack_is_the_row_loop(grid, rng):
    n = grid.n
    c = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))  # not Hermitian
    stacked = hermitian_half(c)
    assert stacked.shape == (3, 2, n // 2 + 1)
    for row, h in zip(c.reshape(-1, n), stacked.reshape(-1, n // 2 + 1)):
        assert np.array_equal(hermitian_half(row), h)
        # one field: (c_j + conj(c_-j))/2 mode by mode
        want = [0.5 * (row[j] + np.conj(row[-j % n])) for j in range(n // 2 + 1)]
        assert np.array_equal(h, np.array(want))


def _pad_reference(c, m):
    h = c.size // 2
    return np.concatenate((c[:h], np.zeros(m - c.size), c[h:]))


def _truncate_reference(q, n):
    if q.size == n:
        return q
    h = n // 2
    out = np.concatenate((q[:h], q[q.size - h:]))
    out[h] += q[h]
    return out


@pytest.mark.parametrize("n", [128, 512, 2048])
def test_padded_transforms_match_complex_formulas(n, rng):
    grid = Grid(n=n, length=2.0 * math.pi)
    c = _random_field(grid, rng, s=0.5).spectral
    assert c[n // 2] != 0.0
    for m in (n, 3 * n // 2, 2 * n):
        want = np.fft.ifft(_pad_reference(c, m) * m).real
        got = fine_samples(half_spectrum(c), m)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        w = want * want
        ref = half_spectrum(_truncate_reference(np.fft.fft(w) / m, n))
        out = truncated_coeffs(w, n)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# Dealiased products
# ---------------------------------------------------------------------------


def test_product2_exact_for_low_modes(grid):
    f = Field.from_samples(grid, np.cos(3.0 * grid.x))
    g = Field.from_samples(grid, np.cos(5.0 * grid.x))
    p = dealiased_product2(f, g)
    expected = 0.5 * (np.cos(2.0 * grid.x) + np.cos(8.0 * grid.x))
    assert np.abs(p.samples - expected).max() < 1e-13


def test_product2_no_aliasing_at_high_modes(grid):
    # naive sample product of two k = 24 cosines on n = 64 aliases the 48
    # mode down to 16; the padded product must not.
    k = 24
    f = Field.from_samples(grid, np.cos(k * grid.x))
    p = dealiased_product2(f, f)
    c = p.spectral
    assert c[0] == pytest.approx(0.5, abs=1e-13)  # the cos^2 mean
    assert abs(c[16]) < 1e-13  # no aliased ghost
    naive = Field.from_samples(grid, f.samples * f.samples)
    assert abs(naive.spectral[16]) > 0.2  # the ghost the padding removes


def test_product3_exact_for_low_modes(grid):
    f = Field.from_samples(grid, np.cos(2.0 * grid.x))
    p = dealiased_product3(f, f, f)
    expected = 0.25 * (np.cos(6.0 * grid.x) + 3.0 * np.cos(2.0 * grid.x))
    assert np.abs(p.samples - expected).max() < 1e-13


def _per_factor_product(n, *halves):
    """padded_product with one padded transform per factor."""
    m = 3 * n // 2 if len(halves) == 2 and n % 4 == 0 else 2 * n
    w = fine_samples(halves[0], m)
    for h in halves[1:]:
        w = w * fine_samples(h, m)
    return truncated_coeffs(w, n)


@pytest.mark.parametrize("n", [64, 66])  # 3n/2 and 2n points for two factors
@pytest.mark.parametrize("factors", [2, 3])
@pytest.mark.parametrize("stack", [(), (5,)])
def test_padded_product_is_one_transform_each_way_and_the_per_factor_formula(
        n, factors, stack, monkeypatch):
    grid = Grid(n=n, length=2.0 * math.pi)
    rng = np.random.default_rng(n + factors)
    halves = [np.array([_random_field(grid, rng, 0.5).half for _ in range(math.prod(stack))])
              .reshape(*stack, n // 2 + 1) for _ in range(factors)]
    assert np.all(halves[0][..., -1] != 0.0)  # a Nyquist slot for pad_factors to halve
    want = _per_factor_product(n, *halves)
    calls = {"irfft": 0, "rfft": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    got = spectral.padded_product(n, *halves)
    assert calls == {"irfft": 1, "rfft": 1}
    assert got.shape == (*stack, n // 2 + 1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [1.0, 1e-100])
def test_integral_cube_matches_the_general_power(scale):
    # a skewed sech^2 pulse, so that the integral of its derivative cubed
    # does not vanish by symmetry; at scale 1e-100 the cubes of its tails are
    # subnormal
    grid = Grid(n=1024, length=32.0 * math.pi)
    x = grid.x - grid.length / 2.0
    fx = spectral_derivative(
        Field.from_samples(grid, scale * (1.0 + 0.5 * np.tanh(x)) / np.cosh(x) ** 2), 1)
    cubes = fine_samples(fx.half, 2 * grid.n) ** 3
    if scale < 1.0:
        assert np.any((cubes != 0.0) & (np.abs(cubes) < np.finfo(float).tiny))
    want = grid.length * np.mean(cubes)
    assert want != 0.0
    assert integral_cube(fx) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integral_and_cube(grid):
    f = Field.from_samples(grid, 2.0 + np.cos(grid.x))
    # (2 + cos x)^3 integrates to 2pi * (8 + 3*2*1/2 + ... ) = 2pi*(8 + 6 + 0 + 0)
    # expand: 8 + 12 cos + 6 cos^2 + cos^3 -> mean 8 + 3
    assert integral_cube(f) == pytest.approx(11.0 * grid.length, rel=1e-13)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path, grid, rng):
    f = _random_field(grid, rng)
    path = tmp_path / "snap.csv"
    write_csv(path, ("x", "eta"), zip(grid.x, f.samples))
    assert path.read_text().splitlines()[0] == "x,eta"
    g = read_snapshot_csv(grid, path)
    assert np.abs(g.samples - f.samples).max() < 1e-15


def test_write_csv_format(tmp_path, rng):
    values = [math.pi, -1e-300, 5e-324, 1.0 / 3.0, *rng.standard_normal(50),
              *np.geomspace(1e-200, 1e200, 9)]
    path = tmp_path / "t.csv"
    write_csv(path, ("iteration", "v", "ratio", "slope_fit_window"),
              [(k + 1, v, math.nan if k == 0 else v, "N=4..8") for k, v in enumerate(values)])
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,v,ratio,slope_fit_window"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(k + 1) for k in range(len(values))]  # no decimal point
    assert [float(r[1]) for r in rows] == [float(v) for v in values]  # 17 digits read back exactly
    assert rows[0][2] == "nan" and rows[1][2] == rows[1][1]
    assert all(r[3] == "N=4..8" for r in rows)  # strings verbatim
    assert path.read_bytes().endswith(b"N=4..8\n") and b"\r" not in path.read_bytes()


def test_snapshot_wrong_grid_rejected(tmp_path, grid, rng):
    f = _random_field(grid, rng)
    path = tmp_path / "snap.csv"
    write_csv(path, ("x", "eta"), zip(grid.x, f.samples))
    with pytest.raises(ValueError, match="rows"):
        read_snapshot_csv(Grid(n=grid.n * 2, length=grid.length), path)

