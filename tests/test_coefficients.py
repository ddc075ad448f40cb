"""Coefficient algebra against an independent exact-rational oracle.

The oracle below re-derives every constant from scratch with Fraction
arithmetic, taking theta^2 directly as a rational so the reference set
(theta^2 = 2/3) is exact.  The production code is then compared against it
through the float path.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbm5.coefficients import (
    Bbm5Coefficients,
    GAMMA_CONSERVING,
    ModelParameters,
    ParameterError,
    RegimeError,
    derive_bbm5,
    derive_first_order,
    derive_second_order,
    reference_parameters,
    require_wellposed,
    rho_for_energy_conservation,
    validate,
)

# ---------------------------------------------------------------------------
# Independent oracle (rational arithmetic over theta^2)
# ---------------------------------------------------------------------------


def oracle_first(t2, lam, mu):
    a = Fraction(1, 2) * (t2 - Fraction(1, 3)) * lam
    b = Fraction(1, 2) * (t2 - Fraction(1, 3)) * (1 - lam)
    c = Fraction(1, 2) * (1 - t2) * mu
    d = Fraction(1, 2) * (1 - t2) * (1 - mu)
    return a, b, c, d


def oracle_second(t2, lam, mu, lam1, mu1):
    q3 = t2 - Fraction(1, 3)
    q5 = t2 - Fraction(1, 5)
    a1 = -Fraction(1, 4) * q3 * q3 * (1 - lam) + Fraction(5, 24) * q5 * q5 * lam1
    b1 = -Fraction(5, 24) * q5 * q5 * (1 - lam1)
    c1 = Fraction(5, 24) * (1 - t2) * q5 * (1 - mu1)
    d1 = -Fraction(1, 4) * (1 - t2) ** 2 * mu - Fraction(5, 24) * (1 - t2) * q5 * mu1
    return a1, b1, c1, d1


def oracle_fifth(t2, lam, mu, lam1, mu1, rho):
    a, b, c, d = oracle_first(t2, lam, mu)
    a1, b1, c1, d1 = oracle_second(t2, lam, mu, lam1, mu1)
    sixth = Fraction(1, 6)
    gamma1 = Fraction(1, 2) * (b + d - rho)
    gamma2 = Fraction(1, 2) * (a + c + rho)
    delta1 = Fraction(1, 4) * (
        2 * (b1 + d1) - (b - d + rho) * (sixth - a - d) - d * (c - a + rho)
    )
    delta2 = Fraction(1, 4) * (
        2 * (a1 + c1) - (c - a + rho) * (sixth - a) + Fraction(1, 3) * rho
    )
    gamma = Fraction(1, 24) * (5 - 9 * (b + d) + 9 * rho)
    return gamma1, gamma2, delta1, delta2, gamma


REF_T2 = Fraction(2, 3)
REF_ARGS = (REF_T2, Fraction(1), Fraction(0), Fraction(1), Fraction(-6))


# ---------------------------------------------------------------------------
# Reference set
# ---------------------------------------------------------------------------


def test_reference_first_order_exact_oracle():
    a, b, c, d = oracle_first(REF_T2, Fraction(1), Fraction(0))
    assert (a, b, c, d) == (Fraction(1, 6), 0, 0, Fraction(1, 6))


def test_reference_second_order_exact_oracle():
    a1, b1, c1, d1 = oracle_second(*REF_ARGS)
    assert (a1, b1, c1, d1) == (
        Fraction(49, 1080),
        0,
        Fraction(49, 216),
        Fraction(7, 36),
    )


def test_reference_fifth_order_exact_oracle():
    g1, g2, d1, d2, g = oracle_fifth(*REF_ARGS, Fraction(0))
    assert (g1, g2, d1, d2, g) == (
        Fraction(1, 12),
        Fraction(1, 12),
        Fraction(7, 72),
        Fraction(49, 360),
        Fraction(7, 48),
    )


def test_production_matches_oracle_on_reference_set():
    p = reference_parameters()
    c = derive_bbm5(p)
    g1, g2, d1, d2, g = oracle_fifth(*REF_ARGS, Fraction(0))
    assert c.gamma1 == pytest.approx(float(g1), abs=1e-12)
    assert c.gamma2 == pytest.approx(float(g2), abs=1e-12)
    assert c.delta1 == pytest.approx(float(d1), abs=1e-12)
    assert c.delta2 == pytest.approx(float(d2), abs=1e-12)
    assert c.gamma == pytest.approx(float(g), abs=1e-12)
    assert c.wellposed_regime
    assert c.energy_conserving


def test_energy_conserving_is_cached_without_touching_equality():
    c = derive_bbm5(reference_parameters())
    fresh = dataclasses.replace(c)
    assert c.energy_conserving and "energy_conserving" in vars(c)
    assert "energy_conserving" not in vars(fresh)
    assert c == fresh and hash(c) == hash(fresh)


def test_reference_set_rho_one_gamma():
    # b + d = 1/6 for this set, so gamma = (5 - 3/2 + 9)/24 = 25/48
    g1, g2, d1, d2, g = oracle_fifth(*REF_ARGS, Fraction(1))
    assert g == Fraction(25, 48)
    c = derive_bbm5(reference_parameters(rho=1.0))
    assert c.gamma == pytest.approx(float(Fraction(25, 48)), abs=1e-12)
    assert not c.energy_conserving


# ---------------------------------------------------------------------------
# Degenerate factor cases
# ---------------------------------------------------------------------------


def test_theta2_one_third_kills_a_and_b():
    p = ModelParameters(theta=math.sqrt(1.0 / 3.0), lam=0.7, mu=0.2, lam1=0.0, mu1=0.0)
    f = derive_first_order(p)
    assert abs(f.a) < 1e-16 and abs(f.b) < 1e-16


def test_theta_one_kills_c_and_d():
    p = ModelParameters(theta=1.0, lam=0.3, mu=0.9, lam1=0.0, mu1=0.0)
    f = derive_first_order(p)
    assert f.c == 0.0 and f.d == 0.0


def test_lam1_one_kills_b1():
    p = ModelParameters(theta=0.5, lam=0.0, mu=0.0, lam1=1.0, mu1=2.5)
    assert derive_second_order(p).b1 == 0.0


def test_theta2_one_fifth_degeneracies():
    t2 = Fraction(1, 5)
    a1, b1, c1, d1 = oracle_second(t2, Fraction(3), Fraction(2), Fraction(7), Fraction(-4))
    assert b1 == 0
    assert c1 == 0
    # d1 loses its mu1 term, a1 its lam1 term
    assert d1 == -Fraction(1, 4) * (1 - t2) ** 2 * 2
    assert a1 == -Fraction(1, 4) * (t2 - Fraction(1, 3)) ** 2 * (1 - 3)
    # float path agrees
    s = derive_second_order(
        ModelParameters(theta=math.sqrt(0.2), lam=3.0, mu=2.0, lam1=7.0, mu1=-4.0)
    )
    assert abs(s.b1) < 1e-15 and abs(s.c1) < 1e-15


def test_rho_equal_b_plus_d_leaves_wellposed_regime():
    f = derive_first_order(reference_parameters())
    p = reference_parameters(rho=f.b + f.d)
    c = derive_bbm5(p)
    assert c.gamma1 == 0.0
    assert not c.wellposed_regime


# ---------------------------------------------------------------------------
# Exact structural identities (property-based)
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=50
)
t2_rationals = st.fractions(min_value=0, max_value=1, max_denominator=50)


@given(t2=t2_rationals, lam=rationals, mu=rationals)
def test_first_order_sum_identity_exact(t2, lam, mu):
    a, b, c, d = oracle_first(t2, lam, mu)
    assert a + b + c + d == Fraction(1, 3)


@given(t2=t2_rationals, lam=rationals, mu=rationals, lam1=rationals,
       mu1=rationals, rho=rationals)
def test_gamma1_plus_gamma2_exact(t2, lam, mu, lam1, mu1, rho):
    g1, g2, *_ = oracle_fifth(t2, lam, mu, lam1, mu1, rho)
    assert g1 + g2 == Fraction(1, 6)


@given(t2=t2_rationals, lam=rationals, mu=rationals, lam1=rationals,
       mu1=rationals)
def test_rho_star_round_trip_exact(t2, lam, mu, lam1, mu1):
    a, b, c, d = oracle_first(t2, lam, mu)
    rho_star = b + d - Fraction(1, 6)
    *_, gamma = oracle_fifth(t2, lam, mu, lam1, mu1, rho_star)
    assert gamma == GAMMA_CONSERVING


floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
thetas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200)
@given(theta=thetas, lam=floats, mu=floats, lam1=floats, mu1=floats, rho=floats)
def test_float_path_identities(theta, lam, mu, lam1, mu1, rho):
    p = ModelParameters(theta=theta, lam=lam, mu=mu, lam1=lam1, mu1=mu1, rho=rho)
    f = derive_first_order(p)
    c = derive_bbm5(p)
    assert f.a + f.b + f.c + f.d == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert c.gamma1 + c.gamma2 == pytest.approx(1.0 / 6.0, abs=1e-14)


@settings(max_examples=200)
@given(theta=thetas, lam=floats, mu=floats, lam1=floats, mu1=floats)
def test_float_rho_star_round_trip(theta, lam, mu, lam1, mu1):
    p = ModelParameters(theta=theta, lam=lam, mu=mu, lam1=lam1, mu1=mu1)
    rho_star = rho_for_energy_conservation(derive_first_order(p))
    p2 = ModelParameters(theta=theta, lam=lam, mu=mu, lam1=lam1, mu1=mu1,
                         rho=float(rho_star))
    assert derive_bbm5(p2).energy_conserving


# ---------------------------------------------------------------------------
# rho_for_energy_conservation arithmetic
# ---------------------------------------------------------------------------


def test_rho_star_values():
    assert rho_for_energy_conservation(
        AbcdStub(b=Fraction(1, 12), d=Fraction(1, 12))
    ) == 0
    assert rho_for_energy_conservation(
        AbcdStub(b=Fraction(1, 6), d=Fraction(1, 6))
    ) == Fraction(1, 6)


class AbcdStub:
    def __init__(self, b, d):
        self.b = b
        self.d = d


# ---------------------------------------------------------------------------
# Validation and parameter hygiene
# ---------------------------------------------------------------------------


def test_validate_reference_is_clean():
    assert validate(derive_bbm5(reference_parameters())) == []


def test_validate_reports_each_violation_by_name():
    bad = Bbm5Coefficients(gamma1=-1.0, gamma2=0.0, delta1=0.0, delta2=0.0, gamma=0.0)
    msgs = validate(bad)
    assert len(msgs) == 2
    assert any("gamma1" in m for m in msgs)
    assert any("delta1" in m for m in msgs)


@pytest.mark.parametrize("gamma1,delta1,name", [(-1.0, 1.0, "gamma1"), (1.0, 0.0, "delta1"),
                                                (0.0, 0.0, "gamma1")])
def test_a_regime_error_names_the_first_coefficient_out_of_the_regime(gamma1, delta1, name):
    bad = Bbm5Coefficients(gamma1=gamma1, gamma2=0.0, delta1=delta1, delta2=0.0, gamma=0.0)
    with pytest.raises(RegimeError) as exc:
        require_wellposed(bad, "test")
    assert exc.value.name == name


def test_theta_out_of_range_rejected():
    with pytest.raises(ValueError, match="theta"):
        ModelParameters(theta=2.0, lam=0.0, mu=0.0, lam1=0.0, mu1=0.0)


def test_non_finite_parameter_rejected():
    with pytest.raises(ValueError, match="finite"):
        ModelParameters(theta=0.5, lam=math.nan, mu=0.0, lam1=0.0, mu1=0.0)


def test_finite_parameters_whose_coefficients_overflow_are_refused_naming_the_largest():
    # lam = 1e300 is finite, but delta1 and delta2 overflow; the CLI refused it, and a
    # library caller got infinite coefficients
    p = ModelParameters(theta=0.5, lam=1e300, mu=0.0, lam1=1.0, mu1=-6.0)
    with pytest.raises(ParameterError, match=r"^lam = 1e\+300 makes the derived coefficient "
                                             r"delta1 non-finite \(-inf\)$") as exc:
        derive_bbm5(p)
    assert exc.value.name == "lam"
