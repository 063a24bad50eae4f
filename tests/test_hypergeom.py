"""Hypergeometric stream tests: expansion, closed forms, power laws."""

from fractions import Fraction
from math import comb, factorial

import pytest
from closed_forms import power_series_coeff

from riordan.arrays import RiordanArray, central_binomial_gf
from riordan.hypergeom import (
    HypergeometricSpec,
    HypergeomError,
    PoleError,
    binomial_series,
    expand,
    h_for_binomial_A,
    pochhammer,
    power_coeff,
    power_spec,
    verify_power_identity,
)
from riordan.series import FormalPowerSeries, SeriesError

FPS = FormalPowerSeries


def catalan_coeffs(n):
    return [Fraction(comb(2 * m, m), m + 1) for m in range(n)]


# -- pochhammer ----------------------------------------------------------


def test_pochhammer_factorial():
    for n in range(8):
        assert pochhammer(1, n) == factorial(n)


def test_pochhammer_half():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


def test_pochhammer_hits_zero():
    assert pochhammer(-2, 4) == 0


def test_pochhammer_negative_n():
    with pytest.raises(HypergeomError):
        pochhammer(1, -1)


# -- expand ----------------------------------------------------------------


def test_gauss_2f1_catalan():
    spec = HypergeometricSpec([Fraction(1, 2), 1], [2], scale=4)
    assert list(expand(spec, 6).coeffs) == catalan_coeffs(6)


def test_1f0_geometric():
    spec = HypergeometricSpec([1], [], scale=1)
    assert expand(spec, 7) == FPS([1] * 7)


def test_expand_term_ratio_invariant():
    spec = HypergeometricSpec([Fraction(1, 3), 2], [Fraction(5, 2)], scale=Fraction(3, 7))
    f = expand(spec, 12)
    for n in range(11):
        ratio = Fraction(1, n + 1) * spec.scale
        for a in spec.upper:
            ratio *= a + n
        for c in spec.lower:
            ratio /= c + n
        assert f.coeff(n + 1) == f.coeff(n) * ratio


def test_lower_parameter_pole_rejected_at_construction():
    with pytest.raises(PoleError):
        HypergeometricSpec([1], [0])
    with pytest.raises(PoleError):
        HypergeometricSpec([1], [-3])
    HypergeometricSpec([1], [Fraction(-1, 2)])  # non-integer negatives are fine


def test_float_parameters_rejected():
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        HypergeometricSpec([0.5], [2])


# -- the A = (1+t)^q closed forms ----------------------------------------------


def test_h_for_binomial_A_q2():
    assert list(h_for_binomial_A(2, 6).coeffs) == [1, 2, 5, 14, 42, 132]


def test_h_for_binomial_A_q3():
    assert list(h_for_binomial_A(3, 5).coeffs) == [1, 3, 12, 55, 273]
    for n in range(5):
        assert h_for_binomial_A(3, 5).coeff(n) == Fraction(
            comb(3 * n + 3, n + 1), 2 * n + 3
        )


def test_h_for_binomial_A_is_binomial_series_q_q():
    # h = B_q^q, with coefficient n-1 equal to C(qn, n) / ((q-1)n + 1)
    for q in range(2, 7):
        h = h_for_binomial_A(q, 30)
        assert h == binomial_series(q, q, 30)
        assert h == FPS([Fraction(comb(q * n, n), (q - 1) * n + 1) for n in range(1, 31)])


def test_h_for_binomial_A_keeps_its_argument_checks():
    with pytest.raises(HypergeomError, match=r"^q must be >= 2, got 1$"):
        h_for_binomial_A(1, 5)
    with pytest.raises(SeriesError, match=r"^precision must be positive$"):
        h_for_binomial_A(2, 0)


def test_h_leading_coefficient_is_one():
    for q in range(2, 8):
        assert h_for_binomial_A(q, 3).coeff(0) == 1


def test_h_spec_expansion_matches_closed_form():
    for q in range(2, 7):
        assert expand(power_spec(q, q), 15) == h_for_binomial_A(q, 15)


def test_h_matches_a_sequence_construction():
    # the two halves of the closed-form theorem: hypergeometric stream vs
    # the h-series solved from h = A(th) with A = (1+t)^q
    for q in range(2, 7):
        n = 15
        arr = RiordanArray.from_dA(FPS.one(n), (1 + FPS.t(n)) ** q)
        assert arr.h.truncate(14) == h_for_binomial_A(q, 14)


def test_h_is_qth_power_of_binomial_series():
    for q in range(2, 6):
        b = binomial_series(q, 1, 14)
        assert b.pow_rational(q) == h_for_binomial_A(q, 14)


# -- binomial series -------------------------------------------------------------


def test_binomial_series_catalan():
    assert list(binomial_series(2, 1, 5).coeffs) == [1, 1, 2, 5, 14]


def test_binomial_series_r0():
    for q in (2, 3, 5):
        assert binomial_series(q, 0, 6) == FPS.one(6)


def test_binomial_series_square():
    got = binomial_series(2, 2, 8)
    cat = FPS(catalan_coeffs(8))
    assert got == cat * cat
    assert list(got.coeffs[:5]) == [1, 2, 5, 14, 42]


def test_binomial_series_addition_law():
    for q in (2, 3):
        for r1 in (1, 2, Fraction(1, 2), Fraction(3, 7)):
            for r2 in (1, Fraction(5, 2)):
                lhs = binomial_series(q, r1, 12) * binomial_series(q, r2, 12)
                assert lhs == binomial_series(q, r1 + r2, 12)


def test_binomial_series_pole():
    with pytest.raises(PoleError):
        binomial_series(2, -4, 6)


def test_binomial_series_closed_form_against_comb():
    for q in (2, 3, 4):
        for r in (1, 2, 3):
            f = binomial_series(q, r, 9)
            for n in range(9):
                assert f.coeff(n) == Fraction(r, q * n + r) * comb(q * n + r, n)


# -- (t h)^s coefficient formula -----------------------------------------------


def test_power_coeff_examples():
    assert power_coeff(2, 1, 3) == Fraction(2, 4) * comb(5, 2) == 5
    assert power_coeff(3, 2, 4) == Fraction(6, 10) * comb(11, 2) == 33
    for q in (2, 3, 4):
        for s in (1, 2, 3):
            assert power_coeff(q, s, s) == 1
            assert power_coeff(q, s, s - 1) == 0


def test_power_coeff_matches_series_oracle():
    for q in (2, 3):
        th = h_for_binomial_A(q, 14).shift_up()
        for s in (1, 2, 3, 4):
            ths = th**s
            for j in range(15):
                want = ths.coeff(j) if j < ths.precision else None
                if want is None:
                    continue
                assert power_coeff(q, s, j) == want


def test_two_printed_power_forms_agree():
    # the shifted form at n = j - s is the same number as the direct form
    for q in (2, 3, 4, 5):
        for s in (1, 2, 3):
            for j in range(s, 20):
                assert power_coeff(q, s, j) == power_series_coeff(q, s, j - s)


# -- power identity ------------------------------------------------------------


def test_verify_power_identity_integer():
    rep = verify_power_identity(2, 3, 30)
    assert rep.holds and rep.points == 30


def test_verify_power_identity_trivial():
    assert verify_power_identity(3, 1, 10).holds


def test_verify_power_identity_rational():
    assert verify_power_identity(4, Fraction(5, 2), 20).holds


def test_verify_power_identity_counts_up_to_the_first_difference(monkeypatch):
    real = FPS.pow_rational

    def wrong_at_3(self, r):
        return real(self, r) + FPS([0, 0, 0, 1], precision=self.precision)

    monkeypatch.setattr(FPS, "pow_rational", wrong_at_3)
    rep = verify_power_identity(2, 3, 30)
    assert not rep.holds
    assert rep.counterexample.params == {"q": "2", "r": "3", "n": "3"}
    assert rep.points == 4


def test_power_spec_requires_q_at_least_two():
    with pytest.raises(HypergeomError):
        power_spec(1, 1)
