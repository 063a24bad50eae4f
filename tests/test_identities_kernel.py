"""Differential tests: the integer identity kernels against a Fraction reference.

The binomial-type terms in ``riordan.identities`` run on integer
(numerator, denominator) pairs, and each convolution sum is a dot product
of two factor columns kept over one common denominator.  The reference
below is the plain per-term ``Fraction`` arithmetic of the original
formulas; every kernel must agree with it exactly.  The stated ballot forms
divide by pm + y + 1, so where that vanishes the reference reads the
coefficient of the substitution route (``identities._substitution``)
instead; the kernels, in cancelled form, are defined there and never raise.
The registry's grid runner is checked against a term-by-term runner on the
same reference, and the Andrews integer table against the seven
per-identity sums and the row lambdas it replaced.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import add
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_identities import listed_fuss_ballot_spec, uncancelled_central_ballot_spec

from riordan import hypergeom
from riordan import identities as I
from riordan import series
from riordan.reports import Counterexample
from riordan.series import FormalPowerSeries, SeriesError, _collect

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


@lru_cache(maxsize=None)
def substitution_route(e, a):
    # (1 - w)(1 + w)^a / (1 - (e - 1) w) at w = t (1 + w)^e: the ballot series whose
    # stated form has the pole, to more terms than any reference reads
    return I._substitution(e, a, True, 32)


def ref_ballot(p, y, m):
    den = p * m + Fraction(y) + 1
    if den == 0:  # the stated form's pole: the substitution route's coefficient
        return substitution_route(p + 1, Fraction(y) + 1).coeff(m)
    return ((p - 1) * m + y + 1) / den * ref_binomial((p + 1) * m + y, m)


def ref_central_ballot(p, y, m):
    den = p * m + Fraction(y) + 1
    if den == 0:  # as for ref_ballot
        return substitution_route(2 * p, 2 * Fraction(y) + 2).coeff(m)
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


# -- strategies ---------------------------------------------------------------

integer = st.integers(-9, 9)
rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
scalar = st.one_of(integer, rational)
index = st.integers(0, 12)


def poles_too(p_strategy):
    # y values on the stated ballot forms' pole line pm + y + 1 = 0 for some m <= 12,
    # among others
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
def test_ballot_kernels_and_poles(data, p, m):
    # the family kernel term by term at the fuss (p + 1, y + 1) and the central
    # (2p, 2y + 2), from p = 0 on, where the two ballot rows start: the stated form off
    # the pole line, the substitution route on it
    y = Fraction(data.draw(poles_too(st.just(p))))
    for (e, alpha), ref in (((p + 1, y + 1), ref_ballot),
                            ((2 * p, 2 * y + 2), ref_central_ballot)):
        assert Fraction(*I._ballot_ratio(e, *I._ratio(alpha), m)) == ref(p, y, m)


@pytest.mark.parametrize("wrapper, args", [
    (I.binomial, (Fraction(1, 2), 2)),
    (I._catalan_power_term, (2, Fraction(1, 2), 2)),
    (I._central_power_term, (2, Fraction(1, 2), 2)),
])
def test_cached_wrappers_refuse_a_float_equal_to_a_cached_fraction(wrapper, args):
    # 0.5 == Fraction(1, 2), and the two hash alike
    wrapper(*args)
    floated = tuple(float(a) if isinstance(a, Fraction) else a for a in args)
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        wrapper(*floated)


def ref_direct_sum(ref, p, v, precision):
    return FormalPowerSeries([ref(p, v, m) for m in range(precision)])


@KERNEL
@given(st.data(), st.integers(1, 4), scalar, st.integers(1, 13))
def test_ballot_terms_and_poles(data, p, x, precision):
    # the direct sums, term by term in Fraction, through the stated forms' poles; the
    # central power's reference is its product form, finite where (2p-1)n + 2x vanishes
    y = Fraction(data.draw(poles_too(st.just(p))))
    for gf, ref, v in ((I.fuss_ballot_gf, ref_ballot, y),
                       (I.central_ballot_gf, ref_central_ballot, y),
                       (I.central_power_gf, ref_central_power, Fraction(x))):
        assert gf(p, v, precision) == ref_direct_sum(ref, p, v, precision)


def test_direct_sums_refuse_an_empty_series_and_p_below_one():
    for gf in (I.fuss_ballot_gf, I.central_power_gf, I.central_ballot_gf):
        assert gf(2, Fraction(1, 2), 1) == FormalPowerSeries([1], precision=1)
        with pytest.raises(SeriesError, match="empty coefficient list"):
            gf(2, Fraction(1, 2), 0)
        with pytest.raises(ValueError, match="p must be >= 1, got 0"):
            gf(0, 1, 5)


# -- factor columns and the convolution sums ---------------------------------


terms = st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-60, 60).filter(bool)),
                max_size=20)


@KERNEL
@given(terms, st.data())
def test_column_is_exact_over_one_denominator(ratios, data):
    col = I.Column(lambda j: ratios[j]).reach(len(ratios))
    want = [Fraction(n, d) for n, d in ratios]
    assert [Fraction(v, col.den) for v in col.nums] == want
    assert Fraction(sum(col.nums), col.den) == sum(want, Fraction(0))
    # the series layer's batch collection is canonical, and so is the column
    nums, den = _collect(ratios)
    assert (nums, den) == (col.nums, col.den)
    assert den > 0 and gcd(den, *nums) == 1
    # grown in two steps, the column is its batch build over the longer prefix
    a, b = data.draw(st.integers(0, len(ratios))), data.draw(st.integers(0, len(ratios)))
    grown = I.Column(lambda j: ratios[j]).reach(a)
    assert (grown.nums, grown.den) == _collect(ratios[:a])
    assert grown.reach(b) is grown
    assert (grown.nums, grown.den) == _collect(ratios[:max(a, b)])


# -- stepped factor columns ---------------------------------------------------
# At a non-integer alpha (the binomial's upper argument at m = 0) and z >= 1,
# no factor of the ratio can vanish, so a column steps its terms from the one
# before it; it must hold the same canonical (nums, den) as the closed form,
# however its reaches are cut.

# the four factor families, each a factor and the (z, alpha) of its binomial
# C(alpha + zm, m) at the factor's first set slot and argument: the ballot family's
# binomial is C(alpha - 1 + em, m), at the fuss (p + 1, y + 1) and the central (2p, 2y + 2)
STEPPED = {
    "power": (I._catalan_power, lambda z, v: (z, v)),
    "shifted": (I._CATALAN_BINOMIAL[1], lambda z, v: (z, v)),
    "ballot": (I._BALLOT[1], lambda p, y: (p + 1, y)),
    "central": (I._CENTRAL[1], lambda p, y: (2 * p, 2 * y + 1)),
}
non_integer = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 12)).filter(
    lambda v: v.denominator > 1)


def family_at(factor, z, v):
    """The (z, a, b) at which ``factor`` reads its kernel and its ratio: its family's map."""
    z, v = factor.at(z, v)
    return (z, *I._ratio(v))


def closed_form(factor, z, v, length):
    return _collect(factor.kernel(*family_at(factor, z, v), m) for m in range(length))


@KERNEL
@given(kind=st.sampled_from(sorted(STEPPED)), z=st.integers(1, 5), v=non_integer,
       cuts=st.lists(st.integers(1, 60), min_size=1, max_size=4))
def test_stepped_column_is_its_closed_form(kind, z, v, cuts):
    factor, binomial = STEPPED[kind]
    col = factor(z, v)
    if binomial(z, v)[1].denominator == 1:  # the central map takes y = a/2 to an integer
        assert (kind, v.denominator, col.steps) == ("central", 2, None)
        return
    assert col.steps is not None
    for length in sorted(cuts):  # each reach resumes where the one before stopped
        assert col.reach(length) is col
        assert (col.nums, col.den) == closed_form(factor, z, v, length)


@KERNEL
@given(kind=st.sampled_from(sorted(STEPPED)), z=st.integers(-3, 5),
       v=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)))
def test_factor_steps_only_at_a_non_integer_alpha_and_z_at_least_one(kind, z, v):
    # elsewhere a linear factor can vanish, and the column keeps its closed form
    factor, binomial = STEPPED[kind]
    binomial_z, upper = binomial(z, v)
    col = factor(z, v)
    assert (col.steps is None) == (binomial_z < 1 or upper.denominator == 1)
    # below z = 1 the ratio has no product form at all
    assert (factor.steps(*family_at(factor, z, v)) is None) == (binomial_z < 1)


@KERNEL
@given(kind=st.sampled_from(sorted(STEPPED)), z=st.integers(1, 4),
       v=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)), m=st.integers(0, 40))
def test_step_ratio_is_the_ratio_of_closed_form_terms(kind, z, v, m):
    # at every argument, integer alpha included, wherever term m is not 0 (the ratio's
    # m + 1 is implied); where a lower factor vanishes, an upper one does too and the
    # ratio reads 0/0, which is why such a column is never stepped
    factor, _ = STEPPED[kind]
    at = family_at(factor, z, v)
    term = Fraction(*factor.kernel(*at, m))
    if not term:
        return
    upper, lower = factor.steps(*at)
    if not all(c0 + c1 * m for c0, c1 in lower):
        assert not all(c0 + c1 * m for c0, c1 in upper)
        return
    value = term / (m + 1)
    for c0, c1 in upper:
        value *= c0 + c1 * m
    for c0, c1 in lower:
        value /= c0 + c1 * m
    assert value == Fraction(*factor.kernel(*at, m + 1))


# linear factors (c0, c1), and some that cannot vanish: c1 does not divide c0
linear = st.tuples(st.integers(-50, 50), st.integers(-6, 6))
safe = st.tuples(st.integers(-50, 50), st.integers(2, 6)).filter(lambda f: f[0] % f[1])


@KERNEL
@given(st.lists(st.one_of(linear, safe), max_size=5), st.lists(st.one_of(linear, safe),
       max_size=5), st.integers(0, 200), st.integers(-6, 6).filter(bool))
def test_a_column_steps_only_by_factors_that_cannot_vanish(upper, lower, m0, c1):
    def steps(upper, lower):
        # the ratio is data here: Factor's guard reads nothing but its factors
        return I.Factor(lambda z, a, b, m: (1, 1), lambda z, a, b: (upper, lower))(
            1, Fraction(1, 2)).steps

    if steps(upper, lower) is not None:
        assert all(c0 + c1 * m for c0, c1 in upper + lower for m in range(201))
    # a factor that vanishes at m0 turns the column to its closed form, in either list
    vanishing = [(-m0 * c1, c1)]
    assert steps(upper + vanishing, lower) is None
    assert steps(upper, lower + vanishing) is None


def test_non_integer_columns_read_the_closed_form_once_per_reach(monkeypatch):
    # a reach of a column at a non-integer argument (b >= 2 in catalan-vandermonde's
    # two kernels) takes its first term from _binomial_ratio and steps the rest
    calls, reaches = [], []
    binomial_ratio, reach = hypergeom._binomial_ratio, I.Column.reach

    def spy(a, b, k):
        calls.append(b)
        return binomial_ratio(a, b, k)

    def counting_reach(col, length):
        before, start = len(calls), len(col.nums)
        out = reach(col, length)
        reaches.append((length - start, calls[before:]))
        return out

    for module in (hypergeom, I):
        monkeypatch.setattr(module, "_binomial_ratio", spy)
    monkeypatch.setattr(I.Column, "reach", counting_reach)
    assert I.check_registry("catalan-vandermonde", 30).holds
    rational = [(grown, [b for b in made if b > 1]) for grown, made in reaches]
    assert any(grown > 1 and made for grown, made in rational)
    assert all(len(made) <= 1 for _, made in rational)
    # an integer column still reads one closed-form term per term
    assert any(len(made) == grown > 1 for grown, made in reaches)


@KERNEL
@given(terms, terms, st.integers(-3, 20))
def test_dot_is_the_convolution_coefficient(left, right, n):
    # at n < 0 the sum is empty: no negative index may wrap round the columns
    size = max(len(left), len(right), n + 1)
    a = I.Column(lambda j: left[j] if j < len(left) else (0, 1)).reach(size)
    b = I.Column(lambda m: right[m] if m < len(right) else (0, 1)).reach(size)
    ref = sum((Fraction(*left[j]) * Fraction(*right[n - j])
               for j in range(n + 1) if j < len(left) and n - j < len(right)),
              Fraction(0))
    assert Fraction(I._dot(a, b, n), a.den * b.den) == ref


@KERNEL
@given(terms, terms, st.integers(0, 20), st.integers(0, 6), st.integers(0, 6))
def test_dot_reads_only_its_terms_of_columns_reached_further(left, right, n, more_l, more_r):
    # either column may hold terms past m + 1; the dot takes terms 0..m of each alone
    a = I.Column(lambda j: left[j] if j < len(left) else (j + 2, 3)).reach(n + 1 + more_l)
    b = I.Column(lambda m: right[m] if m < len(right) else (5, m + 1)).reach(n + 1 + more_r)
    ref = sum((Fraction(*a.term(j)) * Fraction(*b.term(n - j)) for j in range(n + 1)),
              Fraction(0))
    assert Fraction(I._dot(a, b, n), a.den * b.den) == ref


# the closed-form kernels of the four factor pairs' columns; both ballot series read one
FACTOR_KERNELS = (I._binomial_power_ratio, I._shifted_binomial_ratio, I._ballot_ratio)


@KERNEL
@given(st.sampled_from(FACTOR_KERNELS), st.integers(-3, 6), st.integers(1, 6),
       st.integers(0, 24), st.data())
def test_factor_kernels_return_a_positive_denominator(kernel, z, b, m, data):
    # so a column always holds a term, never a term over 0 and never an exception;
    # a/b = -(z - 1)m is the pole of the ballot family's stated form, a/b = -zm that of
    # B_z^v's and of the family's other form ((z - 2)m + v)/(zm + v) C(zm + v, m)
    a = data.draw(st.one_of(st.integers(-12, 12), st.just(-b * (z - 1) * m), st.just(-b * z * m)))
    _, d = kernel(z, a, b, m)
    assert d > 0


def forward_difference(f, v, h, order):
    """The forward difference of ``f`` of the given order at v, with step h."""
    return sum((-1) ** (order - j) * ref_icomb(order, j) * f(v + j * h)
               for j in range(order + 1))


@KERNEL
@given(st.sampled_from(FACTOR_KERNELS), st.integers(-3, 5), st.integers(0, 10),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]), st.data())
def test_factor_kernel_term_m_is_a_polynomial_of_degree_m(kernel, z, m, h, data):
    # term m of every factor is a polynomial of degree m in its argument v (Graham, Knuth
    # & Patashnik, Concrete Mathematics, 5.4): its difference of order m + 1 vanishes and
    # that of order m does not.  The points v, v + h, ... run through the stated forms'
    # poles: a start on one ((z - 1)m + v = 0 for the ballot family, zm + v = 0 for B_z^v)
    # or an integer start with an integer step
    v = data.draw(st.one_of(rational, st.just(Fraction(-(z - 1) * m)), st.just(Fraction(-z * m)),
                            integer.map(Fraction)))

    def term(v):
        return Fraction(*kernel(z, v.numerator, v.denominator, m))

    assert forward_difference(term, v, h, m + 1) == 0
    assert forward_difference(term, v, h, m) != 0


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
        point = {"p": p, "r": r, "k": k, "s": s}
        assert I.sum_lhs("subarray-convolution", n, **point) == ref_subarray(p, r, n, k, s)
        assert I.sum_lhs("ballot-triangle-convolution", n, **point) == ref_ballot_triangle(
            p, r, n, k, s)
        assert I.sum_lhs("catalan-column-sum", n, p=p, r=r, k=k) == ref_column_sum(p, r, n, k)


@KERNEL
@given(convolution_point(p_min=1))
def test_catalan_triangle_sum(point):
    p, r, n, k, s = point
    if s >= 1:
        assert I.sum_lhs(
            "catalan-triangle-convolution", n, p=p, r=r, k=k, s=s
        ) == ref_catalan_triangle(p, r, n, k, s)


@KERNEL
@given(st.integers(-2, 4), scalar, scalar, index)
def test_catalan_power_sums(z, x, y, n):
    x, y = Fraction(x), Fraction(y)
    cat_x = lambda i: ref_catalan_power(z, x, i)  # noqa: E731
    assert I.sum_lhs("rothe-hagen", n, z=z, x=x, y=y) == ref_convolution(
        cat_x, lambda m: ref_catalan_power(z, y, m), n)
    assert I.sum_lhs("catalan-vandermonde", n, z=z, x=x, y=y) == ref_convolution(
        cat_x, lambda m: ref_binomial(y + z * m, m), n)


@KERNEL
@given(st.data(), st.integers(0, 4), scalar, index)
def test_ballot_sums_and_poles(data, p, x, n):
    x = Fraction(x)
    y = Fraction(data.draw(poles_too(st.just(p))))
    assert I.sum_lhs("ballot-vandermonde", n, p=p, x=x, y=y) == ref_convolution(
        lambda i: ref_catalan_power(p + 1, x, i), lambda m: ref_ballot(p, y, m), n)
    assert I.sum_lhs("central-binomial-vandermonde", n, p=p, x=x, y=y) == ref_convolution(
        lambda i: ref_central_power(p, x, i), lambda m: ref_central_ballot(p, y, m), n)


# -- the ballot family at its two maps ---------------------------------------------
# each map by the factor that reads it, with its series' stated form, its spec and the
# spec's hand-written lists (the central ones uncancelled)
BALLOT_MAPS = {
    "fuss": (I._BALLOT[1], ref_ballot, I.fuss_ballot_spec, listed_fuss_ballot_spec),
    "central": (I._CENTRAL[1], ref_central_ballot, I.central_ballot_spec,
                uncancelled_central_ballot_spec),
}


def expansion_or_refusal(make, p, y):
    try:
        spec = make(p, y)
    except Exception as exc:
        return type(exc), str(exc)
    return hypergeom.expand(spec, 12)


@KERNEL
@given(family=st.sampled_from(sorted(BALLOT_MAPS)), p=st.integers(0, 5), data=st.data())
def test_each_ballot_map_keeps_its_stated_form_its_stepping_and_its_refusals(family, p, data):
    factor, ref, spec, listed = BALLOT_MAPS[family]
    y = Fraction(data.draw(poles_too(st.just(p))))
    # the column is its stated form term by term, stepped or not, through the poles
    col = factor(p, y).reach(14)
    assert [Fraction(num, col.den) for num in col.nums] == [ref(p, y, m) for m in range(14)]
    # it steps as the column at any other argument with the same denominator does
    d = y.denominator
    other = Fraction(data.draw(st.integers(-40, 40).filter(lambda n: gcd(n, d) == 1)), d)
    assert (factor(p, other).steps is None) == (col.steps is None)
    # the spec expands and refuses as the hand-written lists do, with the same message
    if p < 2:
        with pytest.raises(ValueError, match=f"the hypergeometric form needs p >= 2, got {p}"):
            spec(p, y)
    else:
        assert expansion_or_refusal(spec, p, y) == expansion_or_refusal(listed, p, y)


# -- the grid runner against a term-by-term runner ---------------------------------


# each row's lhs from the point's slots, summed term by term in Fraction
REF_LHS = {
    "subarray-convolution": ref_subarray,
    "catalan-vandermonde": lambda z, x, y, n: ref_convolution(
        lambda i: ref_catalan_power(z, x, i), lambda m: ref_binomial(y + z * m, m), n),
    "catalan-column-sum": ref_column_sum,
    "catalan-triangle-convolution": ref_catalan_triangle,
    "ballot-triangle-convolution": ref_ballot_triangle,
    "ballot-vandermonde": lambda p, x, y, n: ref_convolution(
        lambda i: ref_catalan_power(p + 1, x, i), lambda m: ref_ballot(p, y, m), n),
    "rothe-hagen": lambda z, x, y, n: ref_convolution(
        lambda i: ref_catalan_power(z, x, i), lambda m: ref_catalan_power(z, y, m), n),
    "central-binomial-vandermonde": lambda p, x, y, n: ref_convolution(
        lambda i: ref_central_power(p, x, i), lambda m: ref_central_ballot(p, y, m), n),
}
# each row's rhs as its closed form, from the point's slots; a k/s row's does not read s
REF_RHS = {
    "subarray-convolution": lambda p, r, n, k, s: Fraction(ref_icomb(p * n + r, n - k)),
    "catalan-vandermonde": lambda z, x, y, n: ref_binomial(x + y + z * n, n),
    "catalan-column-sum": lambda p, r, n, k: Fraction(ref_icomb(p * n + r + 1, n - k + 1)),
    "catalan-triangle-convolution": lambda p, r, n, k, s: (
        Fraction((p - 1) * n + r + k + 1, p * n + r + 1) * ref_icomb(2 * (p * n + r + 1), n - k)),
    "ballot-triangle-convolution": lambda p, r, n, k, s: (
        Fraction((p - 1) * n + k + r + 1, p * n + r + 1)
        * ref_icomb((p + 1) * n + r - k, p * n + r)),
    "ballot-vandermonde": lambda p, x, y, n: ref_ballot(p, x + y, n),
    "rothe-hagen": lambda z, x, y, n: ref_catalan_power(z, x + y, n),
    "central-binomial-vandermonde": lambda p, x, y, n: ref_central_ballot(p, x + y, n),
}
ROWS = {row.id: row for row in I.SUM_IDENTITIES}


def past_n(law, n):
    """Law values with k in n+1..n+2, past every k the grid reaches (s in 1..k)."""
    if "s" in law.slots:
        return [(k, s) for k in (n + 1, n + 2) for s in range(1, k + 1)]
    return [(k,) for k in (n + 1, n + 2)] if "k" in law.slots else []


def default_points(row, past_from):
    """The default grid's points up to n = 8, and those with k > n from n = ``past_from``."""
    law = row.law
    for point in I._grid_points(row.sets + law.axes + (("n", range(9)),), {}):
        n = point["n"]
        for values in (*law.values(n, {}), *(past_n(law, n) if n >= past_from else ())):
            yield {**point, **dict(zip(law.slots, values))}


@pytest.mark.parametrize("identity", sorted(ROWS))
def test_sum_rhs_is_the_closed_form(identity):
    # the right factor at the law's summed parameter; k > n reads index n - k < 0, which
    # must give 0, not wrap.  From n = 1 only: at n = 0 the ballot-triangle reference
    # takes a binomial with the negative upper index (p+1)n + r - k
    for params in default_points(ROWS[identity], past_from=1):
        assert I.sum_rhs(identity, **params) == REF_RHS[identity](**params)


@pytest.mark.parametrize("identity", sorted(ROWS))
def test_sum_lhs_is_the_term_by_term_sum(identity):
    # the twin of the rhs test: the same points, k > n from n = 0
    for params in default_points(ROWS[identity], past_from=0):
        assert I.sum_lhs(identity, **params) == REF_LHS[identity](**params)


def pointwise_run(row, max_n, pinned, bad=None):
    """(points, counterexample) of a term-by-term check, point by point in grid order.

    Where ``bad(n, law values)`` gives an offset, the rhs is off by it, as
    in ``wrong_at``.
    """
    law = row.law
    points = 0
    for point in I._grid_points(row.sets + law.axes + (("n", range(max_n + 1)),), pinned):
        for values in law.values(point["n"], pinned):
            params = {**point, **dict(zip(law.slots, values))}
            points += 1
            lhs = REF_LHS[row.id](**params)
            rhs = REF_RHS[row.id](**params)
            hit = bad and bad(point["n"], values)
            if hit:
                rhs += hit
            if lhs != rhs:
                return points, Counterexample({k: str(v) for k, v in params.items()},
                                              str(lhs), str(rhs))
    return points, None


def registry_run(row, max_n, pinned):
    rep = I._sum_entry(row).run(max_n=max_n, pinned=pinned)
    return rep.points, rep.counterexample


def off_at(bad_n):
    """A ``bad`` with the rhs off by one at every point with n = ``bad_n``."""
    return lambda n, values: 1 if n == bad_n else None


@contextmanager
def wrong_at(row, bad):
    """``row``, with the rhs the runner reads changed where ``bad(n, law values)`` says.

    Each operand group's rhs column goes to ``_first_failure`` as a copy,
    its term at m = n - shift off by the offset ``bad`` gives.  The group's
    law values are those of the runner's last ``law.point`` call, made for
    that group.
    """
    law = row.law
    at = {}

    def point(*args):
        at["values"] = args[len(args) - len(law.slots):]
        return law.point(*args)

    first_failure = I._first_failure

    def wrong_first_failure(left, right, rhs, shift, ns):
        rhs.reach(ns[-1] - shift + 1)
        wrong = I.Column(rhs.term)
        wrong.nums, wrong.den = list(rhs.nums), rhs.den
        for n in ns:
            hit = bad(n, at["values"])
            if hit:
                wrong.nums[n - shift] += hit * wrong.den
        return first_failure(left, right, wrong, shift, ns)

    with mock.patch.object(I, "_first_failure", wrong_first_failure):
        yield row._replace(law=law._replace(point=point))


@st.composite
def pins(draw, row, max_n):
    # the integer set slots are always pinned (it keeps the reference quick),
    # x, y, k and s only sometimes; y may sit on a pole of the stated ballot forms
    p_min = row.p_min if row.p_min is not None else 1
    p = draw(st.integers(max(p_min, 1), 4))
    k = draw(st.integers(1, max(max_n, 1)))
    pinned = {"p": p, "z": draw(st.integers(-3, 4)), "r": draw(st.integers(0, 3))}
    for slot, values in (("x", rational), ("y", poles_too(st.just(p))),
                         ("k", st.just(k)), ("s", st.integers(1, k))):
        if draw(st.booleans()):
            pinned[slot] = Fraction(draw(values)) if slot in "xy" else draw(values)
    return {slot: v for slot, v in pinned.items() if slot in I._slots(row)}


PARITY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@pytest.mark.parametrize("identity", sorted(ROWS))
@PARITY
@given(data=st.data())
def test_registry_runner_matches_term_by_term(identity, data):
    row = ROWS[identity]
    max_n = data.draw(st.integers(0, 12))
    pinned = data.draw(pins(row, max_n))
    bad_n = data.draw(st.one_of(st.none(), st.integers(0, max_n)))
    with wrong_at(row, off_at(bad_n)) as wrong:
        assert registry_run(wrong, max_n, pinned) == pointwise_run(
            row, max_n, pinned, off_at(bad_n))


@pytest.mark.parametrize("max_n", [20, 40])
@pytest.mark.parametrize("identity, pinned", [
    ("subarray-convolution", {"p": 2, "r": 1, "k": 7}),
    ("catalan-triangle-convolution", {"p": 1, "r": 2, "s": 3}),
    ("ballot-triangle-convolution", {"p": 3, "r": 0, "k": 4, "s": 4}),
    ("catalan-column-sum", {"p": 4, "r": 2, "k": 15}),
])
def test_registry_runner_matches_term_by_term_with_k_s_pins(identity, pinned, max_n):
    # a pinned k or s is enumerated at every n, past the corner sample above n = 20
    row = ROWS[identity]
    want = pointwise_run(row, max_n, pinned)
    assert registry_run(row, max_n, pinned) == want
    assert want[0] > 0 and want[1] is None


def test_a_run_enumerates_the_law_values_once_per_n():
    # law.values depends on n and the pins only, so the plan reads it once per n,
    # not once per n and outer value (p, r)
    row = ROWS["subarray-convolution"]
    calls = []

    def values(n, pinned):
        calls.append(n)
        return row.law.values(n, pinned)

    rep = I._sum_entry(row._replace(law=row.law._replace(values=values))).run(max_n=50, pinned={})
    assert calls == list(range(51))
    assert rep == I.check_registry("subarray-convolution", max_n=50) and rep.holds


def bad_points(points):
    """A ``bad`` that changes the rhs at the given (n, law values) only."""
    return lambda n, values: points.get((n, values))


KS_PINS, VANDERMONDE_PINS = {"p": 2, "r": 0}, {"p": 2, "x": Fraction(1, 2), "y": 1}
# (row, pins, {(n, law values): rhs offset}, the verdict: (points, n of the
# counterexample)).  At p = 2, r = 0 the k/s points run (n, (k, s)) =
# (1, (1, 1)), (2, (1, 1)), (2, (2, 1)), (2, (2, 2)), (3, (1, 1)), ...: the group of
# (2, 2) is made after that of (1, 1), and its point at n = 2 comes before n = 3 of (1, 1)
EARLIEST = [
    ("subarray-convolution", KS_PINS, {(3, (1, 1)): 1, (2, (2, 2)): 1}, (4, "2")),
    ("subarray-convolution", KS_PINS, {(3, (1, 1)): -1, (2, (2, 2)): 1}, (4, "2")),
    ("ballot-vandermonde", VANDERMONDE_PINS, {(3, ()): -1, (2, ()): 1}, (3, "2")),
]


@pytest.mark.parametrize("identity, pinned, points, verdict", EARLIEST)
def test_the_earliest_failing_point_wins_across_groups(identity, pinned, points, verdict):
    # each group stops at its own first failure; the run reports the one that comes
    # first in point order, whatever group holds it
    row = ROWS[identity]
    with wrong_at(row, bad_points(points)) as wrong:
        got = registry_run(wrong, 4, pinned)
    assert got == pointwise_run(row, 4, pinned, bad_points(points))
    assert (got[0], got[1].params["n"]) == verdict


def test_an_rhs_over_zero_is_refused_as_fraction_refuses_it():
    # cross-multiplied, an rhs of 0/0 would pass against any lhs: here G_0 = 1 and
    # G_1 = 0/0, so the lhs F_1 * G_0 is well defined and the rhs G_1 is not
    law = I._VANDERMONDE_LAW._replace(axes=(), parts=(), point=lambda n: (1, 0, n))
    row = I.SumIdentity("zero", "", lambda x: I.Column(lambda j: (1, 1)),
                        lambda y: I.Column(lambda m: (1 - y, 1 - y)), (), law, None)
    with pytest.raises(ZeroDivisionError):
        registry_run(row, 3, {})


# (terms made, columns made) in one run at max_n = 50
COLUMN_BUILDS = {
    "subarray-convolution": (6770, 559),
    "catalan-vandermonde": (2907, 57),
    "catalan-column-sum": (5388, 456),
    "catalan-triangle-convolution": (8103, 662),
    "ballot-triangle-convolution": (6770, 559),
    "ballot-vandermonde": (2907, 57),
    "rothe-hagen": (2142, 42),
    "central-binomial-vandermonde": (2907, 57),
}


@pytest.mark.parametrize("identity", list(ROWS))
def test_columns_are_built_only_as_far_as_they_are_read(monkeypatch, identity):
    # the run makes one column per (factor, first set slot, argument), evaluates
    # each of its closed-form terms once, in order, and grows it no further than a
    # group reads it; a stepped column evaluates only the first term of each reach
    evaluated, highest, keys, alive, reaches = {}, {}, {}, [], {}
    column, first_failure, reach = I.Column, I._first_failure, I.Column.reach

    def counting_column(term, steps=None):
        key = term.func, term.args
        assert key not in evaluated, key
        evaluated[key] = seen = []
        reaches[key] = []

        def counting_term(j):
            seen.append(j)
            return term(j)

        col = column(counting_term, steps)
        alive.append(col)  # no id is reused while the run goes on
        keys[id(col)] = key
        return col

    def counting_reach(col, length):
        if id(col) in keys and len(col.nums) < length:
            reaches[keys[id(col)]].append(len(col.nums))
        return reach(col, length)

    def read(col, m):
        key = keys[id(col)]
        highest[key] = max(highest.get(key, -1), m)

    def counting_first_failure(left, right, rhs, shift, ns):
        for col in (left, right, rhs):
            read(col, ns[-1] - shift)
        return first_failure(left, right, rhs, shift, ns)

    monkeypatch.setattr(column, "reach", counting_reach)
    for name, fn in (("Column", counting_column), ("_first_failure", counting_first_failure)):
        monkeypatch.setattr(I, name, fn)
    assert I.check_registry(identity, max_n=50).holds
    for col in alive:
        key = keys[id(col)]
        made = list(range(len(col.nums)))
        assert evaluated[key] == (made if col.steps is None else reaches[key]), key
        assert len(col.nums) == highest[key] + 1, key
    assert (sum(len(col.nums) for col in alive), len(alive)) == COLUMN_BUILDS[identity]


def test_an_int_and_an_equal_fraction_read_one_column():
    # the tables of one (factor, first set slot) are keyed by the argument alone,
    # and the int 2 and Fraction(2) (as x + y gives it on the rational grid) are one key
    row = ROWS["catalan-vandermonde"]
    plan = I._plan(row.law, range(9), {})
    columns = {}
    ints = I._check_outer(row, {"z": 2, "x": 1, "y": 1}, plan, columns)
    lefts, rights = columns[row.left, 2], columns[row.right, 2]
    assert (sorted(lefts), sorted(rights)) == ([1], [1, 2])
    made = {id(col) for col in (*lefts.values(), *rights.values())}
    fractions = I._check_outer(row, {"z": 2, "x": Fraction(1), "y": Fraction(1)}, plan, columns)
    assert fractions == ints == (9, None)
    assert len(columns) == 2 and (len(lefts), len(rights)) == (1, 2)
    assert {id(col) for col in (*lefts.values(), *rights.values())} == made
    assert I._ratio(Fraction(2)) == I._ratio(2) == (2, 1)


def test_the_column_tables_are_kept_apart_by_the_first_set_slot():
    # the column at one argument differs with z (or p), so no table is shared across it
    row = ROWS["catalan-vandermonde"]
    plan = I._plan(row.law, range(9), {})
    columns = {}
    for z in (2, 3):
        assert I._check_outer(row, {"z": z, "x": Fraction(1, 2), "y": 1}, plan, columns) == (
            9, None)
    assert sorted(key[1] for key in columns) == [2, 2, 3, 3]
    half = [columns[row.left, z][Fraction(1, 2)] for z in (2, 3)]
    assert half[0] is not half[1]
    assert [Fraction(v, col.den) for col in half for v in col.nums[2:3]] == [
        ref_catalan_power(z, Fraction(1, 2), 2) for z in (2, 3)]


@pytest.mark.parametrize("value", [0.5, 2.0])
def test_ratio_and_factor_columns_still_refuse_a_float(value):
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        I._ratio(value)
    for factor in {*I._CATALAN_BINOMIAL, *I._BALLOT, *I._CENTRAL}:
        with pytest.raises(SeriesError, match="float coefficients are not exact"):
            factor(2, value)


@KERNEL
@given(st.integers(0, 6), rational, st.integers(1, 24))
def test_the_cached_ballot_quotient_route_is_the_whole_expression(e, a, precision):
    # the quotient (1 - w)/(1 - (e - 1) w) is divided once per (e, precision); the route
    # is still (1 - w)(1 + w)^a/(1 - (e - 1) w) at the same w
    w = I._power_fixed_point(e, precision)
    want = (1 - w) * (1 + w).pow_rational(a) / (1 - (e - 1) * w)
    assert I._substitution(e, a, True, precision) == want
    assert I._substitution(e, a, False, precision) == (1 + w).pow_rational(a)
    assert I._ballot_quotient.cache_info().maxsize is not None


def test_term_caches_are_bounded():
    for cached in (I.binomial, I._catalan_power_term, I._central_power_term,
                   I._power_fixed_point, series._baby_and_giant_steps, series._giant_powers,
                   series._newton):
        assert cached.cache_info().maxsize is not None


def test_check_all_leaves_no_heap_behind():
    # run in a fresh interpreter, so that nothing an earlier test cached counts
    script = (
        "import contextlib, gc, io, tracemalloc\n"
        "tracemalloc.start()\n"
        "from riordan import cli\n"
        "gc.collect()\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['check', '--all', '--max-n', '50']) == 0\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - base)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 2**19  # 0.5 MiB


# -- Andrews table against the per-identity sums --------------------------------


# Pascal's rows by addition, as far as a reference has read: far quicker at
# n < 800 than ref_icomb's factorials, even behind a cache
_REF_ROWS = [[1]]


def _ref_comb(n, k):
    while len(_REF_ROWS) <= n:
        row = _REF_ROWS[-1]
        _REF_ROWS.append([1, *map(add, row, row[1:]), 1])
    return _REF_ROWS[n][k] if 0 <= k <= n else 0


def _sign(k):
    return -1 if k % 2 else 1


def ref_a1(n):
    lo, hi = -(n // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * _ref_comb(n - 1, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def ref_a2(n):
    lo, hi = -((n + 2) // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * _ref_comb(n, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def _ref_columns(upper, low1, low2, lo, hi):
    return sum(_ref_comb(upper, low1 - 5 * j) - _ref_comb(upper, low2 - 5 * j)
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


def _window(window, n):
    return tuple(I._at(affine, n) for affine in window)


def test_andrews_table_matches_per_identity_sums(monkeypatch):
    # both sides read the same binomials; taking them from the rows keeps n < 400 quick
    monkeypatch.setattr(I, "comb", _ref_comb)
    assert set(ANDREWS_REF) == set(I.ANDREWS_VARIANTS)
    for variant, (_, n_min, window) in I.ANDREWS_VARIANTS.items():
        for n in range(n_min, 400):
            assert I.andrews_sum(*_window(window, n)) == ANDREWS_REF[variant](n), (variant, n)
    del _REF_ROWS[1:]  # rows 0..802 hold tens of MiB


# the table as lambdas, id -> (n -> Fibonacci index, n -> (upper, low1, low2))
ANDREWS_LAMBDAS = {
    "a1": (lambda n: n, lambda n: (n - 1, (n - 1) // 2, (n - 6) // 2)),
    "a2": (lambda n: n, lambda n: (n, (n - 1) // 2, (n - 6) // 2)),
    "a3": (lambda n: 2 * n + 1, lambda n: (2 * n + 1, n, n - 1)),
    "a121": (lambda n: 2 * n + 2, lambda n: (2 * n + 2, n, n - 1)),
    "a5": (lambda n: 2 * n + 2, lambda n: (2 * n + 1, n, n - 2)),
    "a6": (lambda n: 2 * n + 1, lambda n: (2 * n, n, n - 2)),
    "a122": (lambda n: 2 * n, lambda n: (2 * n, n - 1, n - 2)),
}


def test_andrews_integer_table_gives_the_lambdas_values():
    assert set(ANDREWS_LAMBDAS) == set(I.ANDREWS_VARIANTS)
    for variant, (index, _, window) in I.ANDREWS_VARIANTS.items():
        ref_index, ref_window = ANDREWS_LAMBDAS[variant]
        for n in range(300):
            got = (I._at(index, n), *_window(window, n))
            assert got == (ref_index(n), *ref_window(n)), (variant, n)


def ref_guard_window_sum(upper, low1, low2):
    # the support of both columns (0 <= low - 5j <= upper), one guard term wider each side
    lo = -((upper - min(low1, low2)) // 5) - 1
    hi = max(low1, low2) // 5 + 1
    return sum(ref_icomb(upper, low1 - 5 * j) - ref_icomb(upper, low2 - 5 * j)
               for j in range(lo, hi + 1))


@KERNEL
@given(st.integers(0, 80), st.integers(-100, 100), st.integers(-100, 100))
def test_andrews_sum_matches_a_guard_window_sum(upper, low1, low2):
    assert I.andrews_sum(upper, low1, low2) == ref_guard_window_sum(upper, low1, low2)
