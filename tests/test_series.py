"""Exact tests for the truncated-series core.

Expected values come from independent oracles: closed-form binomials via
math.comb, the Fibonacci recurrence, brute-force polynomial expansion, and
the direct Lagrange coefficient formula cross-checking the Newton solvers.
"""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from riordan import series
from riordan.series import (
    CompositionOrderError,
    FormalPowerSeries,
    NonInvertibleError,
    NormalizationError,
    PrecisionError,
    ReversionOrderError,
    SeriesError,
    lagrange_coeffs,
    lagrange_gf,
    lagrange_solve,
)

FPS = FormalPowerSeries


def geometric(n):
    """1/(1-t) to precision n."""
    return FPS([1] * n)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- construction and coeff access ------------------------------------


def test_coeff_geometric():
    assert geometric(8).coeff(5) == 1


def test_coeff_zero_series():
    assert FPS.constant(0, 5).coeff(3) == 0


def test_coeff_binomial():
    f = (1 + FPS.t(8)) ** 4
    assert f.coeff(2) == 6
    assert [f.coeff(i) for i in range(5)] == [1, 4, 6, 4, 1]


def test_coeff_out_of_precision_is_an_error():
    f = geometric(4)
    with pytest.raises(PrecisionError):
        f.coeff(4)


def test_float_coefficients_rejected():
    with pytest.raises(SeriesError):
        FPS([0.5, 1])


def test_precision_must_be_positive():
    with pytest.raises(SeriesError):
        FPS([], precision=0)


def test_order():
    assert FPS([0, 0, 3, 1]).order == 2
    assert FPS.constant(0, 6).order == 6
    assert FPS.one(3).order == 0


# -- ring operations ---------------------------------------------------


def test_mul_binomial_square():
    one_plus_t = 1 + FPS.t(6)
    assert (one_plus_t * one_plus_t).coeffs[:3] == (1, 2, 1)


def test_mul_geometric_square():
    sq = geometric(10) * geometric(10)
    assert list(sq.coeffs) == [n + 1 for n in range(10)]


def test_mul_telescoping():
    assert ((1 - FPS.t(9)) * geometric(9)) == FPS.one(9)


def test_precision_is_min_of_operands():
    assert (geometric(10) + geometric(7)).precision == 7
    assert (geometric(10) * geometric(7)).precision == 7


def test_div_section3_weight_series():
    # (t - t^2 - t^3 + t^4) / (1 - t^5): the sign pattern repeats with period 5
    num = FPS([0, 1, -1, -1, 1], precision=15)
    den = FPS([1, 0, 0, 0, 0, -1], precision=15)
    f = num / den
    assert list(f.coeffs) == [0, 1, -1, -1, 1] * 3


def test_div_fibonacci_gf():
    # 1/(1 - 3t + t^2) has coefficients F_{2n+2}; Fibonacci recurrence oracle
    f = FPS.one(12) / FPS([1, -3, 1], precision=12)
    assert list(f.coeffs) == [fib(2 * n + 2) for n in range(12)]


def test_div_by_one_is_identity():
    f = FPS([3, Fraction(1, 2), -7], precision=5)
    assert f / FPS.one(5) == f


def test_div_by_zero_constant_term():
    with pytest.raises(NonInvertibleError):
        geometric(5) / FPS.t(5)


def test_div_mul_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        f = FPS([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])
        g = FPS([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])
        if not g.coeff(0):
            g = g + 1
        assert (f * g) / g == f


def test_mul_commutative_associative():
    rng = random.Random(11)
    for _ in range(10):
        f, g, h = (
            FPS([Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(7)])
            for _ in range(3)
        )
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


# -- composition --------------------------------------------------------


def test_compose_moebius():
    # 1/(1 - t/(1+t)) simplifies to 1 + t
    inner = FPS.t(8) / (1 + FPS.t(8))
    assert geometric(8).compose(inner) == FPS([1, 1], precision=8)


def test_compose_with_t_is_identity():
    f = FPS([2, -1, Fraction(5, 3), 0, 4])
    assert f.compose(FPS.t(5)) == f


def test_compose_fixed_point_of_a_sequence():
    # h = A(th) for A = (1+t)^2: the defining equation of the h-series
    n = 12
    a = (1 + FPS.t(n)) ** 2
    th = lagrange_solve(a, n + 1)
    h = th.shift_down()
    assert a.compose(th.truncate(n)) == h


def test_compose_requires_positive_order():
    with pytest.raises(CompositionOrderError):
        geometric(5).compose(FPS.one(5))


# -- integer powers ------------------------------------------------------


def test_pow_cube():
    assert list(((1 + FPS.t(4)) ** 3).coeffs) == [1, 3, 3, 1]


def test_pow_zero():
    assert FPS([5, 6, 7]) ** 0 == FPS.one(3)


def test_pow_negative():
    f = (1 - FPS.t(9)) ** -2
    assert list(f.coeffs) == [n + 1 for n in range(9)]


def test_pow_negative_requires_unit():
    with pytest.raises(NonInvertibleError):
        FPS.t(5) ** -1


# -- rational powers -----------------------------------------------------


def test_pow_rational_central_binomials():
    f = FPS([1, -4], precision=10).pow_rational(Fraction(-1, 2))
    assert list(f.coeffs) == [comb(2 * n, n) for n in range(10)]


def test_pow_rational_one_is_identity():
    f = FPS([1, 2, Fraction(1, 3), -5], precision=8)
    assert f.pow_rational(1) == f


def test_pow_rational_binomial_series_cube():
    # cube of the q=2 generalized binomial series: coefficient n is
    # 3/(2n+3) * C(2n+3, n)
    catalan = FPS([Fraction(comb(2 * n, n), n + 1) for n in range(9)])
    cube = catalan.pow_rational(3)
    expected = [Fraction(3, 2 * n + 3) * comb(2 * n + 3, n) for n in range(9)]
    assert list(cube.coeffs) == expected
    assert expected[:5] == [1, 3, 9, 28, 90]


def test_pow_rational_requires_unit_constant_term():
    with pytest.raises(NormalizationError):
        FPS([2, 1], precision=4).pow_rational(Fraction(1, 2))


def test_pow_rational_matches_pow_int():
    rng = random.Random(3)
    for _ in range(10):
        f = FPS(
            [1] + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)]
        )
        for k in (2, 3, 5):
            assert f.pow_rational(k) == f**k


def test_pow_rational_additivity():
    rng = random.Random(5)
    for _ in range(8):
        f = FPS(
            [1] + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)]
        )
        a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(
            rng.randint(-5, 5), rng.randint(1, 5)
        )
        assert f.pow_rational(a) * f.pow_rational(b) == f.pow_rational(a + b)


# -- reversion -----------------------------------------------------------


def test_revert_moebius():
    g = FPS.t(10) / (1 - FPS.t(10))
    expected = FPS.t(10) / (1 + FPS.t(10))
    assert g.revert() == expected


def test_revert_catalan():
    # revert(t - t^2) = sum C_{n-1} t^n; cross-checked against the Lagrange
    # formula with phi = 1/(1 - t)
    g = FPS([0, 1, -1], precision=10)
    w = g.revert()
    assert w == lagrange_coeffs(geometric(10), 1, 10)
    assert list(w.coeffs) == [0] + [comb(2 * n, n) // (n + 1) for n in range(9)]


def test_revert_involution():
    rng = random.Random(13)
    for _ in range(6):
        g = FPS(
            [0, 1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(8)]
        )
        assert g.revert().revert() == g


def test_revert_round_trip_composition():
    rng = random.Random(17)
    t = FPS.t(12)
    for _ in range(6):
        g = FPS(
            [0, 1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(10)]
        )
        assert g.compose(g.revert()) == t
        assert g.revert().compose(g) == t


def test_revert_requires_order_one():
    with pytest.raises(ReversionOrderError):
        FPS([0, 0, 1], precision=5).revert()
    with pytest.raises(ReversionOrderError):
        FPS.one(5).revert()


def test_revert_solves_through_lagrange_solve(monkeypatch):
    # revert(t h) solves w = t / h(w): one call of the package's one Newton solver
    calls = []
    solve = series.lagrange_solve

    def counted(phi, precision):
        calls.append(precision)
        return solve(phi, precision)

    monkeypatch.setattr(series, "lagrange_solve", counted)
    g = FPS([0, 2, Fraction(-1, 3), 0, 5], precision=9)
    assert g.compose(g.revert()) == FPS.t(9)
    assert calls == [9]


@pytest.mark.parametrize("g", [FPS([0, 0, 1], precision=5), FPS.one(5), FPS.constant(0, 4)])
def test_revert_refuses_order_other_than_one_before_any_solve(monkeypatch, g):
    def refuse(*args, **kwargs):
        raise AssertionError("revert solved before checking the order")

    monkeypatch.setattr(series, "lagrange_solve", refuse)
    with pytest.raises(ReversionOrderError, match="order exactly 1"):
        g.revert()


def test_revert_at_precision_one_has_no_linear_coefficient():
    with pytest.raises(PrecisionError):
        FPS([0]).revert()


# -- Lagrange inversion ----------------------------------------------------


def test_lagrange_solve_catalan():
    w = lagrange_solve(geometric(6), 6)
    assert list(w.coeffs) == [0, 1, 1, 2, 5, 14]


def test_lagrange_solve_trivial_phi():
    assert lagrange_solve(FPS.one(6), 6) == FPS.t(6)


@pytest.mark.parametrize("phi", [FPS([3]), FPS([Fraction(-2, 7), 5, 1])])
def test_lagrange_solve_and_coeffs_at_precision_one(phi):
    assert lagrange_solve(phi, 1) == FPS.constant(0, 1)
    assert lagrange_coeffs(phi, 2, 1) == FPS.constant(0, 1)


@pytest.mark.parametrize("precision", [1, 2, 6])
def test_lagrange_solve_and_coeffs_refuse_phi_zero_at_origin(precision):
    phi = FPS([0, 1], precision=precision)
    with pytest.raises(SeriesError, match=r"^phi\(0\) must be nonzero$"):
        lagrange_solve(phi, precision)
    with pytest.raises(SeriesError, match=r"^phi\(0\) must be nonzero$"):
        lagrange_coeffs(phi, 1, precision)


@pytest.mark.parametrize("precision", [0, -1])
def test_lagrange_solve_and_coeffs_refuse_nonpositive_precision(precision):
    with pytest.raises(SeriesError, match="^precision must be positive$"):
        lagrange_solve(FPS.one(3), precision)
    with pytest.raises(SeriesError, match="^precision must be positive$"):
        lagrange_coeffs(FPS.one(3), 1, precision)


def quadratic_h_oracle(n):
    """Solve t^2 h^2 + (2t - 1) h + 1 = 0 by fixed-point iteration."""
    h = FPS.one(n)
    for _ in range(n):
        h = (1 + (FPS.t(n) * h) ** 2) / (1 - 2 * FPS.t(n))
    return h


def test_lagrange_solve_binomial_squared():
    n = 10
    w = lagrange_solve((1 + FPS.t(n)) ** 2, n)
    assert list(w.coeffs[:5]) == [0, 1, 2, 5, 14]
    assert w.shift_down() == quadratic_h_oracle(n - 1)


def test_lagrange_solve_fixed_point():
    rng = random.Random(23)
    for _ in range(5):
        phi = FPS(
            [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(11)]
        )
        w = lagrange_solve(phi, 12)
        assert w == phi.compose(w).shift_up().truncate(12)


def test_lagrange_coeffs_matches_solve():
    rng = random.Random(29)
    for _ in range(4):
        phi = FPS(
            [1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(11)]
        )
        w = lagrange_solve(phi, 12)
        for k in range(1, 5):
            assert lagrange_coeffs(phi, k, 12) == w**k


def test_lagrange_coeffs_row_extraction_formula():
    # phi = (1+t)^q at k = 1: coefficient n is (1/n) C(qn, n-1)
    for q in (2, 3, 4):
        w = lagrange_coeffs((1 + FPS.t(12)) ** q, 1, 12)
        for n in range(1, 12):
            assert w.coeff(n) == Fraction(comb(q * n, n - 1), n)


def test_lagrange_coeffs_trivial():
    assert lagrange_coeffs(FPS.one(7), 1, 7) == FPS.t(7)


def test_lagrange_coeffs_squared_catalan():
    w2 = lagrange_coeffs(geometric(8), 2, 8)
    # t^2 * (Catalan GF)^2
    catalan = FPS([Fraction(comb(2 * n, n), n + 1) for n in range(8)])
    assert w2 == (catalan * catalan).shift_up(2).truncate(8)
    assert list(w2.coeffs[:6]) == [0, 0, 1, 2, 5, 14]


def test_lagrange_gf_all_ones():
    # [t^n] (1+t)^n = C(n, n) = 1 for all n; brute-force expansion oracle
    n = 10
    got = lagrange_gf(FPS.one(n), 1 + FPS.t(n), n)
    brute = [((1 + FPS.t(n + 1)) ** m).coeff(m) for m in range(n)]
    assert list(got.coeffs) == brute == [1] * n


def test_lagrange_gf_trivial_phi():
    assert lagrange_gf(FPS.one(6), FPS.one(6), 6) == FPS.one(6)


def test_lagrange_gf_refuses_phi_known_below_its_precision():
    # coefficient 2 is [t^2] phi^2, which reads phi's coefficient 2: 1 + t + 5t^2,
    # equal to 1 + t as far as that is known, gives [1, 1, 11]
    assert list(lagrange_gf(FPS.one(3), FPS([1, 1, 5]), 3).coeffs) == [1, 1, 11]
    with pytest.raises(PrecisionError, match=r"^phi known mod t\^2, need t\^3$"):
        lagrange_gf(FPS.one(3), FPS([1, 1]), 3)


def test_lagrange_gf_weighted_binomials():
    # F = 1 - t, phi = (1+t)^(p+1): coefficient n is
    # C((p+1)n, n) - C((p+1)n, n-1), by direct expansion
    n = 9
    for p in (2, 3):
        got = lagrange_gf(1 - FPS.t(n), (1 + FPS.t(n)) ** (p + 1), n)
        for m in range(n):
            want = comb((p + 1) * m, m) - (comb((p + 1) * m, m - 1) if m else 0)
            assert got.coeff(m) == want


def test_lagrange_requires_unit_phi():
    with pytest.raises(SeriesError):
        lagrange_solve(FPS.t(5), 5)
    with pytest.raises(SeriesError):
        lagrange_coeffs(FPS.t(5), 1, 5)


# -- serialization ---------------------------------------------------------


def test_record_keeps_every_coefficient_exact():
    f = FPS([Fraction(-3, 7), 10**30, Fraction(1, 10**25)], precision=5)
    rec = f.to_record()
    assert rec["prec"] == 5
    assert rec["coeffs"][0] == "-3/7"
    assert rec["coeffs"][1] == str(10**30)
    assert [Fraction(c) for c in rec["coeffs"]] == list(f.coeffs)


# -- precision bookkeeping ---------------------------------------------------


def test_shift_up_down():
    f = FPS([1, 2, 3])
    assert f.shift_up().coeffs == (0, 1, 2, 3)
    assert f.shift_up(2).precision == 5
    assert f.shift_up().shift_down() == f
    with pytest.raises(SeriesError):
        f.shift_down()


def test_truncate_cannot_extend():
    with pytest.raises(PrecisionError):
        FPS([1, 2]).truncate(5)


@pytest.mark.parametrize("k", [0, -1, -3])
def test_truncate_refuses_nonpositive_precision(k):
    with pytest.raises(SeriesError, match=f"^precision must be positive, got {k}$"):
        FPS([1, 2, 3]).truncate(k)


F3 = FPS([1, 2, 3])


@pytest.mark.parametrize("call, error, message", [
    (lambda: FPS.constant(1, 0), SeriesError, "precision must be positive, got 0"),
    (lambda: F3.coeff(-1), SeriesError, "negative index -1"),
    (lambda: F3.shift_up(-1), SeriesError, "shift_up needs k >= 0"),
    (lambda: F3.shift_down(-1), SeriesError, "shift_down needs k >= 0"),
    # a foreign operand gets NotImplemented, so Python raises its own TypeError
    (lambda: F3 + "a", TypeError, "unsupported operand type(s) for +: "
                                  "'FormalPowerSeries' and 'str'"),
    (lambda: F3 * "a", TypeError, "can't multiply sequence by non-int of type "
                                  "'FormalPowerSeries'"),
    (lambda: F3 / "a", TypeError, "unsupported operand type(s) for /: "
                                  "'FormalPowerSeries' and 'str'"),
    (lambda: F3 ** 0.5, TypeError, "unsupported operand type(s) for ** or pow(): "
                                   "'FormalPowerSeries' and 'float'"),
    (lambda: F3 / 0, NonInvertibleError, "division by zero scalar"),
    (lambda: FPS([1]).derivative(), PrecisionError, "derivative needs precision >= 2"),
    (lambda: F3.compose(3), SeriesError, "compose needs a series argument"),
    # _check_phi pads one coefficient at most
    (lambda: lagrange_solve(FPS([1, 1]), 4), PrecisionError,
     "phi known mod t^2, need at least t^3"),
    (lambda: lagrange_coeffs(FPS([1, 1]), 0, 3), SeriesError, "k must be >= 1"),
    (lambda: lagrange_gf(F3, F3, 0), SeriesError, "precision must be positive"),
    (lambda: lagrange_gf(F3, FPS([0, 1, 1]), 3), SeriesError, "phi(0) must be nonzero"),
], ids=["constant", "coeff", "shift_up", "shift_down", "add", "mul", "div", "pow",
        "div-zero", "derivative", "compose", "solve-short-phi", "coeffs-k", "gf-precision",
        "gf-phi0"])
def test_guards_refuse_bad_arguments_and_operands(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
