"""Multiplier symbols: pointwise values, parity, supremum bounds, and
empirical operator-norm scans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from bbm5 import symbols
from bbm5.coefficients import REFERENCE_COEFFICIENTS, Bbm5Coefficients, ParameterError, RegimeError
from bbm5.spectral import (
    Field,
    Grid,
    dealiased_product2,
    dealiased_product3,
    sobolev_norm,
    spectral_derivative,
)
from bbm5.symbols import (
    SCAN_BLOCK,
    OperatorNormScan,
    Symbol,
    apply_symbol,
    apply_symbol_real,
    empirical_operator_norm,
    estimate_ratio,
    eval_symbol,
    random_hs_field,
    scan_sup,
    sup_bound,
)


def _rational_symbol_oracle(kind, xi, g1, g2, d1, d2, g):
    """Independent Fraction evaluation of the rational symbol family."""
    varphi = 1 + g1 * xi**2 + d1 * xi**4
    if kind == "varphi_denominator":
        return varphi
    if kind == "psi":
        return Fraction(xi, 1) / varphi
    if kind == "tau":
        return (3 * xi - 4 * g * xi**3) / (4 * varphi)
    if kind == "phi":
        return xi * (1 - g2 * xi**2 + d2 * xi**4) / varphi
    raise AssertionError(kind)


REF_FRACTIONS = (
    Fraction(1, 12),
    Fraction(1, 12),
    Fraction(7, 72),
    Fraction(49, 360),
    Fraction(7, 48),
)


# ---------------------------------------------------------------------------
# Pointwise values
# ---------------------------------------------------------------------------


def test_phi_vanishes_at_origin(ref):
    assert eval_symbol("phi", 0.0, ref) == 0.0


def test_omega_at_one():
    assert eval_symbol("omega", 1.0) == pytest.approx(0.5)


def test_reference_values_at_xi_one(ref):
    expected = {
        "psi": Fraction(72, 85),
        "tau": Fraction(87, 170),
        "phi": Fraction(379, 425),
    }
    for kind, frac in expected.items():
        oracle = _rational_symbol_oracle(kind, Fraction(1), *REF_FRACTIONS)
        assert oracle == frac
        assert eval_symbol(kind, 1.0, ref) == pytest.approx(float(frac), abs=1e-14)


@given(xi=st.fractions(min_value=-5, max_value=5, max_denominator=20))
@settings(max_examples=100)
def test_rational_oracle_agrees_everywhere(xi):
    from bbm5.coefficients import REFERENCE_COEFFICIENTS as ref

    for kind in ("phi", "psi", "tau", "varphi_denominator"):
        oracle = float(_rational_symbol_oracle(kind, xi, *REF_FRACTIONS))
        assert eval_symbol(kind, float(xi), ref) == pytest.approx(oracle, abs=1e-12)


def test_varphi_at_least_one(ref):
    xi = np.linspace(-50.0, 50.0, 2001)
    assert np.all(eval_symbol("varphi_denominator", xi, ref) >= 1.0)


def test_symbol_parity(ref):
    xi = np.linspace(0.1, 20.0, 200)
    for kind, parity in [("phi", -1), ("psi", -1), ("tau", -1),
                         ("omega", +1), ("varphi_denominator", +1)]:
        sym = Symbol(kind, ref if kind != "omega" else None)
        assert sym.parity == parity
        np.testing.assert_allclose(sym(-xi), parity * sym(xi), rtol=1e-14)


def test_symbol_needs_coefficients():
    with pytest.raises(ValueError, match="needs coefficients"):
        Symbol("psi")
    with pytest.raises(ValueError, match="unknown symbol"):
        Symbol("nope")


def test_symbol_refuses_bad_regime():
    bad = Bbm5Coefficients(gamma1=-1.0, gamma2=0.0, delta1=1.0, delta2=0.0, gamma=0.0)
    with pytest.raises(RegimeError):
        eval_symbol("psi", 1.0, bad)


def test_tau_bounded_by_omega(ref):
    # |tau(xi)| <= C * omega(xi) with C = sup tau/omega, also where the quotient
    # approaches its limit gamma/delta1: a scan that stopped at xi = 1e3 fell short
    C = sup_bound("tau_over_omega", ref)
    xi = np.concatenate([np.linspace(-100.0, 100.0, 4001), np.logspace(-3.0, 8.0, 20001)])
    tau = np.abs(eval_symbol("tau", xi, ref))
    om = eval_symbol("omega", xi)
    assert np.all(tau <= C * om * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# Application to fields
# ---------------------------------------------------------------------------


def test_apply_to_zero_field(grid, ref):
    out = apply_symbol(Symbol("psi", ref), Field.zero(grid))
    assert np.all(out.spectral == 0.0)


def test_apply_even_symbol_to_cosine(grid, ref):
    k = 3
    f = Field.from_samples(grid, np.cos(k * grid.x))
    out = apply_symbol(Symbol("varphi_denominator", ref), f)
    factor = 1.0 + ref.gamma1 * k**2 + ref.delta1 * k**4
    # sample rounding in the spurious high modes is amplified by xi^4 at the
    # grid edge, hence the loose absolute tolerance
    assert np.abs(out.samples - factor * np.cos(k * grid.x)).max() < 1e-9


def test_apply_odd_symbol_euler_algebra(grid, ref):
    # raw application puts +-(1/2)*phi(+-k) at the two modes; the -i
    # composition turns cos(kx) into phi(k)*sin(kx)
    k = 2
    f = Field.from_samples(grid, np.cos(k * grid.x))
    sym = Symbol("phi", ref)
    raw = apply_symbol(sym, f).spectral
    phi_k = eval_symbol("phi", float(k), ref)
    assert raw[k] == pytest.approx(0.5 * phi_k, abs=1e-14)
    assert raw[-k] == pytest.approx(-0.5 * phi_k, abs=1e-14)
    real = apply_symbol_real(sym, f)
    assert np.abs(real.samples - phi_k * np.sin(k * grid.x)).max() < 1e-12


def test_apply_real_rejects_even_symbols(ref):
    with pytest.raises(ValueError, match="odd symbols"):
        apply_symbol_real(Symbol("omega"), Field.zero(Grid(n=8, length=1.0)))


# ---------------------------------------------------------------------------
# Supremum bounds
# ---------------------------------------------------------------------------


def test_xi_psi_closed_form_matches_scan(ref):
    closed = sup_bound("xi_psi", ref)
    assert closed == pytest.approx(1.0 / (ref.gamma1 + 2.0 * math.sqrt(ref.delta1)))
    assert abs(closed - scan_sup("xi_psi", ref)) <= 1e-8


def test_omega_sup(ref):
    assert sup_bound("omega", ref) == 0.5
    assert abs(scan_sup("omega", ref) - 0.5) <= 1e-10


@pytest.mark.parametrize("expression,want", [
    ("xi_tau", 1.5),  # gamma/delta1, its limit as xi -> inf
    ("bracket_xi_psi_over_omega", 10.388991465009926),  # at xi = 5.62, above 1/delta1
])
def test_scanned_sup_bounds(ref, expression, want):
    assert sup_bound(expression, ref) == pytest.approx(want, rel=1e-12)


def test_psi_over_omega_scan_is_finite(ref):
    v = sup_bound("psi_over_omega", ref)
    assert np.isfinite(v) and v >= 1.0  # equals 1 at xi -> 0


def test_sup_bound_unknown_expression(ref):
    with pytest.raises(ValueError, match="unknown expression"):
        sup_bound("nope", ref)


def _rational_sup(p, q):
    """sup over [0, inf] of |p/q|, polynomials with q > 0 there: the largest of its value at 0,
    at the positive real parts of the roots of p'q - pq' (a point that is no critical point
    only lowers the maximum) and its limit at infinity."""
    xs = [0.0, *(r.real for r in (p.deriv() * q - p * q.deriv()).roots() if r.real > 0)]
    p, q = p.trim(), q.trim()
    assert p.degree() <= q.degree()  # each quotient is bounded
    limit = abs(p.coef[-1] / q.coef[-1]) if p.degree() == q.degree() else 0.0
    return max(limit, *(abs(p(x) / q(x)) for x in xs))


def _exact_sups(c):
    """Each quotient of sup_bound as a rational function of xi >= 0, its supremum by
    _rational_sup; the bracket quotient is the root of a rational function."""
    x = Polynomial([0.0, 1.0])
    varphi = 1.0 + c.gamma1 * x**2 + c.delta1 * x**4
    tau4, om = 3.0 - 4.0 * c.gamma * x**2, 1.0 + x**2  # 4*varphi*tau/xi, xi/omega
    return {
        "xi_psi": _rational_sup(x**2, varphi),
        "xi_tau": _rational_sup(x**2 * tau4, 4.0 * varphi),
        "omega": _rational_sup(x, om),
        "tau_over_omega": _rational_sup(tau4 * om, 4.0 * varphi),
        "psi_over_omega": _rational_sup(om, varphi),
        "bracket_xi_psi_over_omega": math.sqrt(_rational_sup(x**2 * om**3, varphi**2)),
    }


def _wellposed_sets(count, seed=0):
    rng = np.random.default_rng(seed)
    return [Bbm5Coefficients(gamma1=rng.uniform(0.01, 2.0), gamma2=0.0,
                             delta1=rng.uniform(0.01, 2.0), delta2=0.0,
                             gamma=rng.uniform(-2.0, 2.0)) for _ in range(count)]


@pytest.mark.parametrize("c", [REFERENCE_COEFFICIENTS, *_wellposed_sets(20)],
                         ids=["reference", *(f"random{i}" for i in range(20))])
def test_sup_bound_matches_the_critical_point_oracle(c):
    for expression, want in _exact_sups(c).items():
        assert sup_bound(expression, c) == pytest.approx(want, rel=1e-12, abs=0.0), expression


def test_scan_sup_stops_when_its_bracket_stops_shrinking(ref, monkeypatch):
    # at the limit at infinity, xi = tan(pi/2) = 1.6e16, float spacing kept the bracket
    # above refine_tol and the scan ran all 64 rounds; the suprema are those of that scan
    was = {"xi_psi": 1.41454140513772, "xi_tau": 1.5000000000000004, "omega": 0.5,
           "tau_over_omega": 1.5000000000000004, "psi_over_omega": 1.9349315717028825,
           "bracket_xi_psi_over_omega": 10.388991465009926}
    rounds, values = [], symbols._expression_values
    monkeypatch.setattr(symbols, "_expression_values",
                        lambda *a: rounds.append(a[0]) or values(*a))
    assert {e: scan_sup(e, ref) for e in was} == was
    assert rounds.count("xi_tau") <= 16


# ---------------------------------------------------------------------------
# Random fields
# ---------------------------------------------------------------------------


def test_random_field_is_real_and_seeded(grid):
    f = random_hs_field(grid, 1.0, np.random.default_rng(3))
    g = random_hs_field(grid, 1.0, np.random.default_rng(3))
    # Hermitian, c_{-j} = conj(c_j): c_0 and the Nyquist coefficient are real
    c = f.spectral
    assert c[0].imag == 0.0 and np.array_equal(c[:0:-1], np.conj(c[1:]))
    assert np.array_equal(f.spectral, g.spectral)


def test_random_data_that_overflow_raise_parameter_error_after_numpy_s_warning(grid):
    # the field was made, of non-finite coefficients; a library caller keeps
    # numpy's warnings, which the command line silences
    with pytest.warns(RuntimeWarning), pytest.raises(ParameterError) as exc:
        random_hs_field(grid, -400.0, np.random.default_rng(0))
    assert exc.value.name == "s"
    assert str(exc.value) == ("s = -400.0 at amplitude 1.0 makes random data that overflow "
                              "on grid.n = 64")


def test_random_field_amplitude_scaling(grid):
    f = random_hs_field(grid, 1.0, np.random.default_rng(3), amplitude=1.0)
    g = random_hs_field(grid, 1.0, np.random.default_rng(3), amplitude=2.5)
    assert sobolev_norm(g, 1.0) == pytest.approx(2.5 * sobolev_norm(f, 1.0), rel=1e-12)


def test_a_random_field_draws_its_n_real_degrees_of_freedom(grid):
    # a real field on n points has n; the full-spectrum draw took 2n normals
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    random_hs_field(grid, 1.0, rng)
    fresh.standard_normal(grid.n)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_random_fields_keep_each_mode_s_law(grid):
    # E|h_j|^2 = mag_j^2, split evenly between the real and imaginary parts
    # inside; the tolerance is five standard errors of the ends' mean, fixed
    # before any draw
    trials = 20_000
    tol = 5.0 * math.sqrt(2.0 / trials)
    rng = np.random.default_rng(8)
    h = np.array([random_hs_field(grid, 1.0, rng).half for _ in range(trials)])
    mag2 = (1.0 + grid.half_wavenumbers**2) ** -2.0
    assert np.all(np.abs(np.mean(np.abs(h) ** 2, axis=0) / mag2 - 1.0) < tol)
    inner = slice(1, grid.n // 2)
    for part in (h.real, h.imag):
        assert np.all(np.abs(np.mean(part[:, inner] ** 2, axis=0) / mag2[inner] - 0.5) < tol)
    assert np.all(h[:, 0].imag == 0.0) and np.all(h[:, -1].imag == 0.0)


# ---------------------------------------------------------------------------
# Operator-norm scans
# ---------------------------------------------------------------------------


def test_estimate_ratio_zero_inputs(grid, ref):
    z = Field.zero(grid)
    assert estimate_ratio("tau_bilinear", (z, z), 1.0, ref) == 0.0


def test_estimate_ratio_single_mode_two_path(grid, ref):
    # eta1 = eta2 = cos(x): the product is 1/2 + cos(2x)/2; tau kills the
    # constant, so LHS = ||(1/2) tau(2) sin(2x)||_{H^s} over ||cos x||_{H^s}^2
    f = Field.from_samples(grid, np.cos(grid.x))
    s = 1.0
    ratio = estimate_ratio("tau_bilinear", (f, f), s, ref)
    tau2 = eval_symbol("tau", 2.0, ref)
    L = grid.length
    lhs = abs(0.5 * tau2) * math.sqrt(L * 2.0 * (1.0 + 4.0) ** s * 0.25)
    rhs = (math.sqrt(L * 2.0 * 2.0**s * 0.25)) ** 2
    assert ratio == pytest.approx(lhs / rhs, rel=1e-10)


def test_estimate_ratio_wrong_arity(grid, ref):
    with pytest.raises(ValueError, match="takes"):
        estimate_ratio("psi_trilinear", (Field.zero(grid),), 1.0, ref)


def test_estimate_ratio_refuses_fields_on_different_grids(grid, ref):
    # it used to evaluate the product on the first field's grid and each norm on
    # its field's own
    other = Grid(n=grid.n, length=2.0 * grid.length)
    f, g = (random_hs_field(gr, 1.0, np.random.default_rng(1)) for gr in (grid, other))
    with pytest.raises(ValueError, match="different grids"):
        estimate_ratio("tau_bilinear", (f, g), 1.0, ref)


def test_scan_refuses_s_below_threshold(grid, ref):
    with pytest.raises(ValueError, match="requires s >= 1.0"):
        empirical_operator_norm("psi_grad_bilinear", 0.5, 10, grid, ref)
    with pytest.raises(ValueError, match="requires s >= 0.16"):
        empirical_operator_norm("psi_trilinear", 0.1, 10, grid, ref)


def test_scan_refuses_unknown_estimate(grid, ref):
    with pytest.raises(ValueError, match="unknown estimate"):
        empirical_operator_norm("nope", 1.0, 10, grid, ref)


def test_scan_running_max_is_monotone(grid, ref):
    scan = empirical_operator_norm("tau_bilinear", 1.0, 50, grid, ref, seed=4)
    assert isinstance(scan, OperatorNormScan)
    assert np.all(np.diff(scan.running_max) >= 0.0)
    assert scan.running_max[-1] == scan.max_ratio
    assert scan.max_ratio == estimate_ratio(
        "tau_bilinear", scan.argmax_fields, 1.0, ref
    )


@pytest.mark.parametrize("s", [1.0 / 6.0, 0.5, 1.0, 2.0])
def test_scan_across_sobolev_indices(grid, ref, s):
    # short scans across the index range where each estimate applies; the
    # maxima must stay finite and well below any blowup scale
    for estimate, threshold in [("tau_bilinear", 0.0),
                                ("psi_trilinear", 1.0 / 6.0),
                                ("psi_grad_bilinear", 1.0)]:
        if s < threshold:
            continue
        scan = empirical_operator_norm(estimate, s, 50, grid, ref, seed=2)
        assert np.isfinite(scan.max_ratio)
        assert scan.max_ratio < 10.0


def test_scan_is_seeded(grid, ref):
    a = empirical_operator_norm("tau_bilinear", 1.0, 20, grid, ref, seed=9)
    b = empirical_operator_norm("tau_bilinear", 1.0, 20, grid, ref, seed=9)
    assert a.max_ratio == b.max_ratio


def test_scan_refuses_fewer_than_one_trial(grid, ref):
    # trials=0 returned an empty scan whose final_decile_growth raised
    # IndexError; trials=-3 failed inside numpy
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            empirical_operator_norm("tau_bilinear", 1.0, trials, grid, ref)


# ---------------------------------------------------------------------------
# The stacked scan against the scan one trial at a time
# ---------------------------------------------------------------------------


def _reference_ratio(estimate_id, fields, s, c):
    """The estimate's LHS/RHS from the Field functions, one trial."""
    rhs = 1.0
    for f in fields:
        rhs *= sobolev_norm(f, s)
    if rhs == 0.0:
        return 0.0
    if estimate_id == "tau_bilinear":
        sym, prod = Symbol("tau", c), dealiased_product2(*fields)
    elif estimate_id == "psi_trilinear":
        sym, prod = Symbol("psi", c), dealiased_product3(*fields)
    else:
        sym = Symbol("psi", c)
        prod = dealiased_product2(*(spectral_derivative(f, 1) for f in fields))
    return sobolev_norm(apply_symbol_real(sym, prod), s) / rhs


def _reference_scan(estimate_id, s, trials, grid, c, seed, ratio=None):
    """(running max, max, argmax fields) drawing each field with
    random_hs_field and keeping the maximum with `r > best`."""
    arity = 3 if estimate_id == "psi_trilinear" else 2
    rng = np.random.default_rng(seed)
    running, best, best_fields = [], 0.0, ()
    for t in range(trials):
        fields = tuple(random_hs_field(grid, s, rng) for _ in range(arity))
        r = ratio[t] if ratio is not None else _reference_ratio(estimate_id, fields, s, c)
        if r > best:
            best, best_fields = r, fields
        running.append(best)
    return np.array(running), best, best_fields


@pytest.mark.parametrize("s", [1.0, 2.0])
@pytest.mark.parametrize("estimate_id", ["tau_bilinear", "psi_trilinear", "psi_grad_bilinear"])
def test_stacked_scan_is_the_trial_loop_bit_for_bit(grid, ref, estimate_id, s):
    trials = SCAN_BLOCK + 37  # one full block and a partial one
    scan = empirical_operator_norm(estimate_id, s, trials, grid, ref, seed=11)
    running, best, best_fields = _reference_scan(estimate_id, s, trials, grid, ref, seed=11)
    assert np.array_equal(scan.running_max, running)
    assert scan.max_ratio == best
    assert len(scan.argmax_fields) == len(best_fields)
    for f, g in zip(scan.argmax_fields, best_fields):
        assert np.array_equal(f.half, g.half)
    assert estimate_ratio(estimate_id, best_fields, s, ref) == best


def test_scan_running_max_skips_nan_and_keeps_the_first_maximum(grid, ref, monkeypatch):
    # ratios with NaN, ties and the maximum reached in the second block
    trials = SCAN_BLOCK + 37
    ratio = np.linspace(0.0, 1.0, trials) % 0.25
    ratio[[0, 5, SCAN_BLOCK - 1, SCAN_BLOCK + 3]] = np.nan
    ratio[SCAN_BLOCK + 10] = ratio[SCAN_BLOCK + 20] = 2.0
    done = []

    def ratios(estimate_id, h, *args):  # the next block of the ratios above
        done.append(len(h))
        return ratio[sum(done) - len(h):sum(done)]

    monkeypatch.setattr(symbols, "_ratios", ratios)
    scan = empirical_operator_norm("tau_bilinear", 1.0, trials, grid, ref, seed=3)
    running, best, best_fields = _reference_scan("tau_bilinear", 1.0, trials, grid, ref, seed=3,
                                                 ratio=ratio)
    assert sum(done) == trials and len(done) > 2
    assert np.array_equal(scan.running_max, running) and scan.max_ratio == best == 2.0
    assert len(scan.argmax_fields) == len(best_fields) == 2
    assert all(np.array_equal(f.half, g.half) for f, g in zip(scan.argmax_fields, best_fields))
