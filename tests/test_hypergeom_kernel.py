"""Differential tests: the integer hypergeometric kernels against a Fraction reference.

``expand``, ``binomial_series`` and ``pochhammer`` run on plain integers
over one running denominator.  The reference below is the plain
per-coefficient ``Fraction`` loop of the term ratio and of the cancelled
binomial product; every kernel must agree with it exactly, and raise the
same exception, with the same message, where the reference does.
"""

from fractions import Fraction
from math import comb, factorial, gcd
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import hypergeom, series
from riordan.hypergeom import (
    HypergeometricSpec,
    HypergeomError,
    PoleError,
    _binomial_power_ratio,
    _binomial_ratio,
    binomial_series,
    expand,
    pochhammer,
)
from riordan.series import FormalPowerSeries, SeriesError

KERNEL = settings(derandomize=True, database=None, max_examples=150, deadline=None)


# -- Fraction reference --------------------------------------------------------


def ref_pochhammer(a, n):
    if n < 0:
        raise HypergeomError(f"pochhammer needs n >= 0, got {n}")
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(a) + i
    return out


def ref_expand(spec, precision):
    if precision < 1:
        raise SeriesError("precision must be positive")
    coeffs = [Fraction(1)]
    a = Fraction(1)
    for n in range(precision - 1):
        num = spec.scale
        for u in spec.upper:
            num *= u + n
        den = Fraction(n + 1)
        for c in spec.lower:
            den *= c + n
        a = a * num / den
        coeffs.append(a)
    return FormalPowerSeries(coeffs)


def ref_binomial_series(q, r, precision):
    if q < 1:
        raise HypergeomError(f"q must be >= 1, got {q}")
    if precision < 1:
        raise SeriesError("precision must be positive")
    r = Fraction(r)
    if r == 0:
        return FormalPowerSeries.one(precision)
    coeffs = [Fraction(1)]
    for n in range(1, precision):
        if q * n + r == 0:
            raise PoleError(f"qn + r vanishes at n = {n}")
        prod = r
        for i in range(1, n):
            prod *= q * n + r - i
        coeffs.append(prod / factorial(n))
    return FormalPowerSeries(coeffs)


def ref_power_term(q, r, n):
    # [t^n] B_q^r as the cancelled product r prod_{1<=m<n} (qn + r - m) / n!, finite at qn + r = 0
    if n == 0:
        return Fraction(1)
    prod = r
    for m in range(1, n):
        prod *= q * n + r - m
    return prod / factorial(n)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# -- strategies ---------------------------------------------------------------


rational = st.builds(Fraction, st.integers(-15, 15), st.integers(1, 12))
# terminating upper parameters: zero and the negative integers
terminating = st.builds(Fraction, st.integers(-6, 0))
upper_param = st.one_of(rational, terminating)
# a lower parameter is never zero or a negative integer (that is a pole)
lower_param = rational.filter(lambda c: not (c.denominator == 1 and c <= 0))
scale = st.one_of(rational, st.just(Fraction(0)), st.builds(Fraction, st.integers(-40, 40)))


# -- the kernels ----------------------------------------------------------------


@KERNEL
@given(a=st.one_of(rational, terminating), n=st.integers(-2, 14))
def test_pochhammer_matches_reference(a, n):
    got = outcome(pochhammer, a, n)
    assert got == outcome(ref_pochhammer, a, n)
    if n >= 0:
        assert type(got) is Fraction


@KERNEL
@given(
    upper=st.lists(upper_param, max_size=4),
    lower=st.lists(lower_param, max_size=4),
    scale=scale,
    precision=st.integers(0, 18),
)
def test_expand_matches_reference(upper, lower, scale, precision):
    spec = HypergeometricSpec(upper, lower, scale)
    got = outcome(expand, spec, precision)
    want = outcome(ref_expand, spec, precision)
    assert got == want
    if isinstance(want, FormalPowerSeries):
        assert got.precision == want.precision
        assert got.coeffs == want.coeffs


def stepped_terms(spec, precision):
    """``expand(spec, precision)`` and the terms it steps, as the pairs it collects."""
    seen = []
    extend = hypergeom._extend

    def spy(xs, den, terms):
        seen.extend(terms)
        return extend(xs, den, seen)

    with mock.patch.object(hypergeom, "_extend", spy):
        return expand(spec, precision), seen


# negative upper parameters: the negative integers end the series at a zero term
negative_upper = st.one_of(
    terminating, st.builds(Fraction, st.integers(-15, -1), st.integers(1, 12)))


@KERNEL
@given(
    upper=st.lists(negative_upper, min_size=1, max_size=4),
    lower=st.lists(lower_param, max_size=3),
    scale=st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-40, -1),
                                                    st.integers(1, 9)), rational),
    precision=st.integers(1, 30),
)
def test_expand_steps_are_canonical_fraction_products(upper, lower, scale, precision):
    # each stepped term is the plain Fraction product of the term ratios, in lowest terms
    spec = HypergeometricSpec(upper, lower, scale)
    got, steps = stepped_terms(spec, precision)
    want = ref_expand(spec, precision)
    assert steps == [(c.numerator, c.denominator) for c in want.coeffs]
    assert all(den > 0 and gcd(num, den) == 1 for num, den in steps)
    assert got == want


def test_expand_steps_through_a_zero_term():
    # (-2)_n / (1)_n t^n / n!: 1, -2, 1/2, then 0 from n = 3 on, each zero as (0, 1)
    got, steps = stepped_terms(HypergeometricSpec([-2], [1]), 6)
    assert steps == [(1, 1), (-2, 1), (1, 2), (0, 1), (0, 1), (0, 1)]
    assert list(got.coeffs) == [1, -2, Fraction(1, 2), 0, 0, 0]
    # a zero scale gives zero from the first step, a negative one alternates the signs
    _, zero = stepped_terms(HypergeometricSpec([Fraction(1, 2)], [], 0), 4)
    assert zero == [(1, 1), (0, 1), (0, 1), (0, 1)]
    _, negative = stepped_terms(HypergeometricSpec([1], [], -3), 4)
    assert negative == [(1, 1), (-3, 1), (9, 1), (-27, 1)]


@KERNEL
@given(
    q=st.integers(0, 5),
    r=st.one_of(rational, st.builds(Fraction, st.integers(-30, 30))),
    precision=st.integers(0, 16),
)
def test_binomial_series_matches_reference(q, r, precision):
    got = outcome(binomial_series, q, r, precision)
    want = outcome(ref_binomial_series, q, r, precision)
    assert got == want
    if isinstance(want, FormalPowerSeries):
        assert got.coeffs == want.coeffs


@KERNEL
@given(q=st.integers(1, 5), m=st.integers(1, 8), extra=st.integers(0, 4))
def test_binomial_series_pole_matches_reference(q, m, extra):
    # r = -qm makes qn + r vanish at n = m; it raises once the precision reaches m
    r, precision = -q * m, m + extra
    want = outcome(ref_binomial_series, q, r, precision)
    assert outcome(binomial_series, q, r, precision) == want
    assert want == (PoleError, f"qn + r vanishes at n = {m}") or precision <= m


# -- the generalized binomial C(a/b, k) -------------------------------------------


def ref_binomial(a, b, k):
    if k < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a, b) - i
    return out / factorial(k)


@KERNEL
@given(
    ab=st.one_of(
        # b | a with a >= 0: the math.comb route
        st.builds(lambda c, b: (c * b, b), st.integers(0, 40), st.integers(1, 9)),
        # a < 0: the falling product
        st.tuples(st.integers(-200, -1), st.integers(1, 9)),
        st.tuples(st.integers(-200, 200), st.integers(1, 9)),
    ),
    k=st.integers(-2, 30),
)
def test_binomial_ratio_matches_reference(ab, k):
    a, b = ab
    pair = _binomial_ratio(a, b, k)
    assert Fraction(*pair) == ref_binomial(a, b, k)
    if k < 0:
        assert pair == (0, 1)
    elif a >= 0 and a % b == 0:
        assert pair == (comb(a // b, k), 1)
    else:
        # raw: the collector, not the kernel, reduces it
        assert pair[1] == b**k * factorial(k)


def test_binomial_kernels_reduce_no_pair(monkeypatch):
    # the kernels hand back raw pairs; binomial_series reduces its batch once, in _collect
    def fail(*args):
        raise AssertionError("a kernel reduced its pair")

    # hypergeom reaches _reduced only through series
    assert not hasattr(hypergeom, "_reduced")
    monkeypatch.setattr(series, "_reduced", fail)
    got = binomial_series(3, Fraction(1, 2), 30)
    assert list(got.coeffs) == [ref_power_term(3, Fraction(1, 2), n) for n in range(30)]


# -- the two routes of [t^n] B_q^r ----------------------------------------------
# r/n C(qn + r - 1, n - 1) takes math.comb where qn + r - 1 is a nonnegative
# integer, and the falling product otherwise.  The pair is raw (its collector
# reduces it), so its value is what is compared; an integer r gives an integer.


def power_term(q, r, n):
    num, den = _binomial_power_ratio(q, r.numerator, r.denominator, n)
    assert den > 0
    if r.denominator == 1:
        assert den == 1
    return Fraction(num, den)


@KERNEL
@given(q=st.integers(1, 6), a=st.integers(1, 12), n=st.integers(0, 80))
def test_power_term_by_comb_matches_reference(q, a, n):
    # integer r = a >= 1 and q >= 1: the math.comb route at every n >= 1
    value = power_term(q, Fraction(a), n)
    assert value == ref_power_term(q, Fraction(a), n)
    assert value == Fraction(a, q * n + a) * comb(q * n + a, n)


@KERNEL
@given(
    q=st.integers(-4, 6),
    r=st.one_of(
        rational.filter(lambda r: r.denominator > 1),  # b > 1: the product at every n
        st.builds(Fraction, st.integers(-30, 0)),  # a <= 0: the product while qn + a < 1
    ),
    n=st.integers(0, 40),
)
def test_power_term_by_product_matches_reference(q, r, n):
    assert power_term(q, r, n) == ref_power_term(q, r, n)


@KERNEL
@given(q=st.integers(-4, 0), a=st.integers(1, 12), n=st.integers(0, 40))
def test_power_term_at_q_below_one_matches_reference(q, a, n):
    # qn + a can vanish here (q = -1, n = a), where the cancelled form stays finite
    assert power_term(q, Fraction(a), n) == ref_power_term(q, Fraction(a), n)


@KERNEL
@given(q=st.integers(-4, 6).filter(bool), n=st.integers(1, 30))
def test_power_term_where_qn_plus_r_vanishes(q, n):
    # r = -qn: a <= 0 at q >= 1 and a >= 1 at q <= -1; qn + r - 1 = -1 takes the product
    r = Fraction(-q * n)
    assert power_term(q, r, n) == ref_power_term(q, r, n)
