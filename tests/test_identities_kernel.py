"""Differential tests: the integer identity kernels against a Fraction reference.

The pointwise sums and binomial-type terms in ``riordan.identities`` run on
integer (numerator, denominator) pairs over a running common denominator.
The reference below is the plain per-term ``Fraction`` arithmetic of the
original formulas; every kernel must agree with it exactly, and raise
``PoleError`` exactly where the reference does.  The Andrews table is
checked against the seven per-identity sums it replaced.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import identities as I
from riordan.hypergeom import PoleError

KERNEL = settings(derandomize=True, database=None, max_examples=80, deadline=None)


# -- Fraction reference --------------------------------------------------------


def ref_icomb(n, k):
    assert n >= 0
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def ref_binomial(a, k):
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(a) - i
    return num / factorial(k)


def ref_catalan_power(z, x, i):
    prod = Fraction(1) if i == 0 else Fraction(x)
    for m in range(1, i):
        prod *= x + z * i - m
    return prod / factorial(i)


def ref_central_power(p, x, i):
    if i == 0:
        return Fraction(1)
    prod = 2 * Fraction(x)
    for m in range(i - 1):
        prod *= 2 * p * i + 2 * x - 1 - m
    return prod / factorial(i)


def ref_ballot(p, y, m):
    den = p * m + Fraction(y) + 1
    if den == 0:
        raise PoleError("pole")
    return ((p - 1) * m + y + 1) / den * ref_binomial((p + 1) * m + y, m)


def ref_central_ballot(p, y, m):
    den = p * m + Fraction(y) + 1
    if den == 0:
        raise PoleError("pole")
    return ((p - 1) * m + y + 1) / den * ref_binomial(2 * den, m)


def ref_subarray(p, r, n, k, s):
    return sum(
        (Fraction(p * s, (p - 1) * j + s) * ref_icomb(p * j - 1, j - s)
         * ref_icomb(p * (n - j) + r, n - j - k + s) for j in range(s, n + 1)),
        Fraction(0),
    )


def ref_column_sum(p, r, n, k):
    return sum(
        (Fraction(ref_icomb(p * j + 1, j), p * j + 1)
         * ref_icomb(p * (n - j) + r, n - j - k + 1) for j in range(n + 1)),
        Fraction(0),
    )


def ref_catalan_triangle(p, r, n, k, s):
    return sum(
        (Fraction(2 * p * s, (2 * p - 1) * j + s) * ref_icomb(2 * p * j - 1, j - s)
         * Fraction((p - 1) * (n - j) + r + k - s + 1, p * (n - j) + r + 1)
         * ref_icomb(2 * (p * (n - j) + r + 1), n - j - k + s) for j in range(s, n + 1)),
        Fraction(0),
    )


def ref_ballot_triangle(p, r, n, k, s):
    return sum(
        (Fraction(p * s, (p + 1) * j - s) * ref_icomb((p + 1) * j - s, j - s)
         * Fraction((p - 1) * (n - j) + k - s + r + 1, p * (n - j) + r + 1)
         * ref_icomb((p + 1) * (n - j) + r - k + s, p * (n - j) + r)
         for j in range(s, n - k + s + 1)),
        Fraction(0),
    )


def ref_convolution(left, right, n):
    return sum((left(i) * right(n - i) for i in range(n + 1)), Fraction(0))


def outcome(fn, *args):
    """The value, or the marker of a pole, so both sides compare as one value."""
    try:
        return fn(*args)
    except PoleError:
        return "pole"


# -- strategies ---------------------------------------------------------------

integer = st.integers(-9, 9)
rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
scalar = st.one_of(integer, rational)
index = st.integers(0, 12)


def poles_too(p_strategy):
    # y values on the pole line pm + y + 1 = 0 for some m <= 12, among others
    return st.one_of(
        scalar,
        st.builds(lambda p, m: -(p * m + 1), p_strategy, index),
    )


# -- term functions -----------------------------------------------------------


@KERNEL
@given(scalar, st.integers(-2, 12))
def test_binomial(a, k):
    got = I.binomial(a, k)
    assert isinstance(got, Fraction)
    assert got == ref_binomial(a, k)


@KERNEL
@given(st.integers(-3, 4), scalar, index)
def test_catalan_power_term(z, x, i):
    assert I._catalan_power_term(z, x, i) == ref_catalan_power(z, Fraction(x), i)


@KERNEL
@given(st.integers(1, 4), scalar, index)
def test_central_power_term(p, x, i):
    assert I._central_power_term(p, x, i) == ref_central_power(p, Fraction(x), i)


@KERNEL
@given(st.data(), st.integers(0, 4), index)
def test_ballot_terms_and_poles(data, p, m):
    y = Fraction(data.draw(poles_too(st.just(p))))
    assert outcome(I._ballot_term, p, y, m) == outcome(ref_ballot, p, y, m)
    assert outcome(I._central_ballot_term, p, y, m) == outcome(ref_central_ballot, p, y, m)


# -- pointwise sums -----------------------------------------------------------


@KERNEL
@given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                          st.integers(-60, 60).filter(bool)), max_size=20))
def test_sum_ratios(terms):
    assert I._sum_ratios(iter(terms)) == sum((Fraction(n, d) for n, d in terms), Fraction(0))


def test_sum_ratios_zero_denominator():
    try:
        I._sum_ratios(iter([(1, 2), (1, 0)]))
    except ZeroDivisionError:
        return
    raise AssertionError("a zero denominator must raise ZeroDivisionError")


@st.composite
def convolution_point(draw, p_min=2):
    p = draw(st.integers(p_min, 4))
    r = draw(st.integers(0, 3))
    n = draw(st.integers(0, 14))
    k = draw(st.integers(min(1, n), n))
    s = draw(st.integers(min(1, k), k))
    return p, r, n, k, s


@KERNEL
@given(convolution_point())
def test_integer_sums(point):
    p, r, n, k, s = point
    if s >= 1:
        assert I.subarray_convolution_lhs(p, r, n, k, s) == ref_subarray(p, r, n, k, s)
        assert I.ballot_triangle_convolution_lhs(p, r, n, k, s) == ref_ballot_triangle(
            p, r, n, k, s)
    assert I.catalan_column_sum_lhs(p, r, n, k) == ref_column_sum(p, r, n, k)


@KERNEL
@given(convolution_point(p_min=1))
def test_catalan_triangle_sum(point):
    p, r, n, k, s = point
    if s >= 1:
        assert I.catalan_triangle_convolution_lhs(p, r, n, k, s) == ref_catalan_triangle(
            p, r, n, k, s)


@KERNEL
@given(st.integers(-2, 4), scalar, scalar, index)
def test_catalan_power_sums(z, x, y, n):
    x, y = Fraction(x), Fraction(y)
    cat_x = lambda i: ref_catalan_power(z, x, i)  # noqa: E731
    assert I.rothe_hagen_lhs(z, x, y, n) == ref_convolution(
        cat_x, lambda m: ref_catalan_power(z, y, m), n)
    assert I.catalan_vandermonde_lhs(z, x, y, n) == ref_convolution(
        cat_x, lambda m: ref_binomial(y + z * m, m), n)


@KERNEL
@given(st.data(), st.integers(1, 4), scalar, index)
def test_ballot_sums_and_poles(data, p, x, n):
    x = Fraction(x)
    y = Fraction(data.draw(poles_too(st.just(p))))
    assert outcome(I.ballot_vandermonde_lhs, p, x, y, n) == outcome(
        ref_convolution,
        lambda i: ref_catalan_power(p + 1, x, i), lambda m: ref_ballot(p, y, m), n)
    assert outcome(I.central_vandermonde_lhs, p, x, y, n) == outcome(
        ref_convolution,
        lambda i: ref_central_power(p, x, i), lambda m: ref_central_ballot(p, y, m), n)


def test_term_caches_are_bounded():
    for cached in (I.binomial, I._catalan_power_term, I._central_power_term,
                   I._power_fixed_point):
        assert cached.cache_info().maxsize is not None


# -- Andrews table against the per-identity sums --------------------------------


def _sign(k):
    return -1 if k % 2 else 1


def ref_a1(n):
    lo, hi = -(n // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * I.icomb(n - 1, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def ref_a2(n):
    lo, hi = -((n + 2) // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * I.icomb(n, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def _ref_columns(upper, low1, low2, lo, hi):
    return sum(I.icomb(upper, low1 - 5 * j) - I.icomb(upper, low2 - 5 * j)
               for j in range(lo, hi + 1))


def ref_a3(n):
    return _ref_columns(2 * n + 1, n, n - 1, -((n + 2) // 5) - 1, n // 5 + 1)


def ref_a121(n):
    return _ref_columns(2 * n + 2, n, n - 1, -((n + 3) // 5) - 1, n // 5 + 1)


def ref_a5(n):
    return _ref_columns(2 * n + 1, n, n - 2, -((n + 3) // 5) - 1, n // 5 + 1)


def ref_a6(n):
    return _ref_columns(2 * n, n, n - 2, -((n + 2) // 5) - 1, n // 5 + 1)


def ref_a122(n):
    return _ref_columns(2 * n, n - 1, n - 2, -((n + 2) // 5) - 1, (n - 1) // 5 + 1)


ANDREWS_REF = {"a1": ref_a1, "a2": ref_a2, "a3": ref_a3, "a121": ref_a121,
               "a5": ref_a5, "a6": ref_a6, "a122": ref_a122}


def test_andrews_table_matches_per_identity_sums(monkeypatch):
    # both sides take the same binomials; caching them keeps n < 400 quick
    monkeypatch.setattr(I, "icomb", lru_cache(maxsize=None)(I.icomb))
    assert set(ANDREWS_REF) == set(I.ANDREWS_VARIANTS)
    for variant, (_, n_min, window) in I.ANDREWS_VARIANTS.items():
        for n in range(n_min, 400):
            assert I.andrews_sum(*window(n)) == ANDREWS_REF[variant](n), (variant, n)
