"""A registry of exact combinatorial identities with brute-force checkers.

Every identity is evaluated exactly on finite parameter grids:
alternating binomial sums against the Fibonacci recurrence, convolution
sums against one closed-form term, and product laws of generating
functions coefficient by coefficient.  C(n, m) = 0 for m < 0 or m > n
when n >= 0; a rational upper argument takes the falling-factorial
product.  Floors of negative arguments round toward minus infinity
(``//``).

Identities are data.  Each Andrews row is integers: its Fibonacci index
and its U, L1 and L2 are affine maps (a, b, d) of n, each meaning
(a n + b) // d.  Its sum ``andrews_sum`` = sum_j C(U, L1 - 5j) -
C(U, L2 - 5j) is the difference of two residue classes mod 5 of Pascal
row U: the entries C(U, l) with l = L1 (mod 5), less those with
l = L2 (mod 5).  For a1/a2, sum_k (-1)^k C(U, floor((n-1-5k)/2)) with
U = n-1 or n splits by the parity of k into L1 = floor((n-1)/2) and
L2 = floor((n-6)/2), the two maps over d = 2.

Each convolution identity is one ``SumIdentity`` row: a factor pair,
the default sets of its integer slots, and a law.  All eight rows state
one Riordan-array fact, the B-family product law F_x * G_y = G_{x+y}:
the lhs sum_i F_x(i) G_y(m - i) is coefficient m of the product, and
the rhs is the right factor at x + y.  Four factor pairs serve them.  A
law names the slots it adds, enumerates its points, writes its grid
text and maps each point to (x, y, m): a Vandermonde-type row reads its
own x, y and n.  A k/s row is its Vandermonde sibling at integer points,
since column k of the subsampled array is F_{ps} * G_{p(k-s)+r}, read
at n - k; the column sum is F_1 * G_{p(k-1)+r}, read at n - k + 1.

The terms run on plain integers: a rational x enters as the pair
(x.numerator, x.denominator).  Every factor is one family: term 0 is 1
and term m >= 1 is (g m + c)/m C(z m + c - 1, m - 1), the generalized
binomial B_z^c with a linear weight.  B_z^x is (z, 0, x), C(y + zm, m)
is (z, z - 1, y + 1), and the two ballot series are one family, the
d-column of a subsampled array whose A-sequence is (1 + t)^e:
B(e, alpha) = (1 - w)(1 + w)^alpha/(1 - (e - 1) w) at w = t (1 + w)^e,
whose term m is ((e-2)m + alpha)/((e-1)m + alpha) C(em + alpha - 1, m),
is (e, e - 2, alpha) (``_ballot``).  The fuss ballot series at (p, y)
is B(p + 1, y + 1) (``_fuss``) and the central one B(2p, 2y + 2)
(``_central``); each map is stated once, and the direct sums, the
specs, the factors and the product-law routes read it.  A factor
(``Factor``) is its map to (z, g, c) and nothing else: every column,
direct sum and spec reads hypergeom's one kernel ``_family_ratio`` (a
raw integer pair, which the column or sum it joins reduces) and one
ratio ``_family_steps`` (integer linear factors in m, cancelled, which
``hypergeom._spec`` reads a spec off).  Term m is a polynomial of
degree m in c, and the kernel is written so: the weight's
(z - 1)m + c is cancelled by the binomial beside it, so it never raises
or returns a term over 0.  ``Factor`` picks the route each column takes:
one ``math.comb`` kernel (``_integer_terms``) at an integer c, the ratio
at a non-integer one, and the closed form term by term where neither
applies (z <= 0, or a pinned negative argument).  The direct sums of the
product laws stay on the closed form, as routes independent of the
stepping.  One run of a row keeps a memo of its
factor columns, one table per (factor, first set slot) keyed by the
argument, each column as integer numerators over one common denominator.
A column is made once and grows in place as the points read past its
end; the memo is dropped when the row ends.

A run plans its points once: it walks the law's values over n, since
they depend on n and the pins only, and groups the points by their law
values, keeping each point's index in (n, law values) order.  Then, at
each value of the other slots, a group resolves its (x, y, n - m) and
its three columns once, reaches each to the group's top m, and checks
its points in one loop: a point's lhs is one integer dot product of two
columns, compared with the rhs term as it is where the two sides share
their denominator and by cross-multiplication otherwise, and a
``Fraction`` is built only for a counterexample's text.  A group stops
at its first failure, and the failure with the smallest index is the
run's, as in a point-by-point loop.  ``sum_lhs`` and ``sum_rhs`` give
one point's two sides of any row by id, at every slot of the row, read
and refused as a run's pins are.  ``binomial`` and the ``_*_term``
helpers are cached ``Fraction`` wrappers that nothing in ``src/`` calls:
the benchmark's tracer reads their caches (``bench/layertrace.py``,
``CACHES``).

The product laws compare whole series.  One run builds each factor
series (a direct sum, a binomial series or a hypergeometric expansion)
once per distinct (kind, p or exponent, argument), in one flat memo, and
each ballot-family direct sum's Lagrange substitution route once, keyed
by its sum; the two are compared each time the sum is read.  The memo
is dropped when the run ends.  A ballot route's quotient
(1 - w)/(1 - (e - 1) w) is divided once per (e, precision), in a small
bounded cache.  Every series comparison, hypergeometric-power-law's two
routes included, is a verdict of ``reports.series_verdict``: a law that
holds counts its coefficients as points, a route check counts none, and
the first coefficient that differs is the counterexample, routes that
disagree included.  Where a hypergeometric spec refuses its argument (a
lower parameter that is zero or a negative integer), the laws that read
it are left out, the others are still compared, and the grid text says
so.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice, product
from math import comb
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .arrays import pascal
from .hypergeom import (
    HypergeometricSpec,
    PoleError,
    _family_ratio,
    _family_steps,
    _spec,
    binomial_series,
    expand,
    power_spec,
    verify_power_identity,
)
from .reports import Counterexample, IdentityReport, series_verdict
from .series import (
    FormalPowerSeries, Steps, _append_term, _collect, _extend, _fraction, _fractions,
    _ratio_steps, _require_terms, _wrap, lagrange_solve,
)

Scalar = Union[int, Fraction]
# an exact rational as an integer (numerator, denominator) pair
Ratio = tuple[int, int]

# rational sample points for identities that are polynomial in their slots
RATIONAL_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3, 7))


class RegistryError(ValueError):
    """Unknown identity id or unsupported parameter pin."""


@lru_cache(maxsize=16)
def _power_fixed_point(exponent: int, precision: int) -> FormalPowerSeries:
    # w = t (1 + w)^exponent; shared across the many (x, y) grid points
    return lagrange_solve((1 + FormalPowerSeries.t(precision)) ** exponent, precision)


@lru_cache(maxsize=16)
def _ballot_quotient(e: int, precision: int) -> FormalPowerSeries:
    # (1 - w)/(1 - (e - 1) w) at w = t (1 + w)^e: the part of a ballot route free of its a
    w = _power_fixed_point(e, precision)
    return (1 - w) / (1 - (e - 1) * w)


# -- elementary exact ingredients --------------------------------------


def _ratio(x: Scalar) -> Ratio:
    """``x`` as an integer (numerator, denominator) pair; an int makes no ``Fraction``.

    Anything else goes through ``series._fraction``, so a float is refused.
    """
    if isinstance(x, int):
        return x, 1
    x = _fraction(x)
    return x.numerator, x.denominator


def _integer_terms(z: int, g: int, c: int, start: int, stop: int) -> list[int]:
    """Terms ``start..stop-1`` of the integer form that ``Factor`` states, at its (z, g, c).

    Term 0 is 1; each term is an int, made by one ``comb`` and no gcd.
    """
    # [1][start:stop] is term 0 where the range holds it
    return [1][start:stop] + [(g * m + c) * comb(z * m + c - 1, m - 1) // m
                              for m in range(max(start, 1), stop)]


class Column:
    """A factor column: the terms of ``term`` read so far, as integer numerators over ``den``.

    ``Factor`` picks its route.  With ``integer``, a (z, g, c), a reach
    appends ``_integer_terms`` in one batch and ``den`` stays 1.  With
    ``steps``, the term ratio as linear factors none of which vanishes, a
    reach takes its first term from ``term`` and steps the rest
    (``series._ratio_steps``).  Otherwise every term comes from ``term``,
    which no factor kernel can make raise.
    """

    __slots__ = ("term", "steps", "integer", "nums", "den")

    def __init__(self, term: Callable[[int], Ratio], steps: Steps | None = None,
                 integer: tuple[int, int, int] | None = None):
        self.term = term
        self.steps = steps
        self.integer = integer
        self.nums: list[int] = []
        self.den = 1

    def reach(self, length: int) -> Column:
        """Append terms ``len(nums)..length-1``, keeping ``nums/den`` canonical.

        ``nums`` grows in place, so a caller may hold on to the list.  The
        closed-form loop runs on local names and stores ``den`` once.
        """
        nums, den, term = self.nums, self.den, self.term
        start = len(nums)
        if self.integer is not None:
            nums += _integer_terms(*self.integer, start, length)
            return self
        if self.steps is not None and start < length:
            # stepped terms are in lowest terms, so the batch takes no gcd
            terms = _ratio_steps(*term(start), *self.steps, start)
            self.den = _extend(nums, den, islice(terms, length - start))
            return self
        for j in range(start, length):
            den = _append_term(nums, den, *term(j))
        self.den = den
        return self


def _dot(left: Column, right: Column, m: int) -> int:
    """sum_{i = 0..m} left(i) right(m - i), over ``left.den * right.den``; 0 for m < 0."""
    # at m < 0 the sum is empty: a negative index must not wrap round a column
    # the map stops with the m + 1 reversed right terms, so no left prefix is copied
    return sum(map(mul, left.nums, right.nums[m::-1])) if m >= 0 else 0


def _fuss(p: int, y: Scalar) -> tuple[int, Scalar]:
    # the fuss ballot series at (p, y) is B(p + 1, y + 1)
    return p + 1, y + 1


def _central(p: int, y: Scalar) -> tuple[int, Scalar]:
    # the central ballot series at (p, y) is B(2p, 2y + 2)
    return 2 * p, 2 * y + 2


def _ballot(e: int, alpha: Scalar) -> tuple[int, int, Scalar]:
    # the ballot family B(e, alpha), term m ((e-2)m + alpha)/((e-1)m + alpha)
    # C(em + alpha - 1, m), is the factor family (e, e - 2, alpha)
    return e, e - 2, alpha


# a float equal to a cached Fraction must still be refused, so the caches are typed
@lru_cache(maxsize=8192, typed=True)
def binomial(a: Scalar, k: int) -> Fraction:
    """Generalized binomial C(a, k): the family of C(y + zm, m) at z = 0; 0 for k < 0."""
    a, b = _ratio(a)
    return Fraction(*_family_ratio(0, -1, a + b, b, k)) if k >= 0 else Fraction(0)


# F_0 .. F_{len-1}; capped far above the 103 entries of ``check --all --max-n 50``
_FIB_CACHE_MAX = 1024
_fib_cache = [0, 1]


def fibonacci(n: int) -> int:
    """Exact F_n with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError(f"fibonacci needs n >= 0, got {n}")
    while len(_fib_cache) <= min(n, _FIB_CACHE_MAX - 1):
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    if n < len(_fib_cache):
        return _fib_cache[n]
    # past the cap: iterate on from the cached tail without storing
    a, b = _fib_cache[-2], _fib_cache[-1]
    for _ in range(n - len(_fib_cache) + 1):
        a, b = b, a + b
    return b


@lru_cache(maxsize=4096, typed=True)
def _catalan_power_term(z: int, x: Scalar, i: int) -> Fraction:
    # x/(x + zi) C(x + zi, i): [t^i] of B_z^x
    return Fraction(*_family_ratio(z, 0, *_ratio(x), i))


@lru_cache(maxsize=2048, typed=True)
def _central_power_term(p: int, x: Scalar, i: int) -> Fraction:
    # 2x/((2p-1)i + 2x) C(2pi + 2x - 1, i): [t^i] of B_{2p}^{2x}
    return Fraction(*_family_ratio(2 * p, 0, *_ratio(2 * x), i))


# -- the Fibonacci / alternating binomial suite --------------------------


def andrews_sum(upper: int, low1: int, low2: int) -> int:
    """sum_j C(upper, low1 - 5j) - C(upper, low2 - 5j) over all integers j.

    Each column is one residue class mod 5 of Pascal row ``upper``.
    """
    if upper < 0:
        raise ValueError(f"andrews_sum needs a nonnegative upper index, got {upper}")
    first = sum(comb(upper, low) for low in range(low1 % 5, upper + 1, 5))
    return first - sum(comb(upper, low) for low in range(low2 % 5, upper + 1, 5))


# (a, b, d): the map n -> (a n + b) // d
_Affine = tuple[int, int, int]


def _at(affine: _Affine, n: int) -> int:
    a, b, d = affine
    return (a * n + b) // d


# id -> (Fibonacci index, smallest valid n, (upper, low1, low2) of andrews_sum)
AndrewsRow = tuple[_Affine, int, tuple[_Affine, _Affine, _Affine]]
ANDREWS_VARIANTS: dict[str, AndrewsRow] = {
    "a1": ((1, 0, 1), 1, ((1, -1, 1), (1, -1, 2), (1, -6, 2))),
    "a2": ((1, 0, 1), 1, ((1, 0, 1), (1, -1, 2), (1, -6, 2))),
    "a3": ((2, 1, 1), 0, ((2, 1, 1), (1, 0, 1), (1, -1, 1))),
    "a121": ((2, 2, 1), 0, ((2, 2, 1), (1, 0, 1), (1, -1, 1))),
    "a5": ((2, 2, 1), 0, ((2, 1, 1), (1, 0, 1), (1, -2, 1))),
    "a6": ((2, 1, 1), 0, ((2, 0, 1), (1, 0, 1), (1, -2, 1))),
    "a122": ((2, 0, 1), 0, ((2, 0, 1), (1, -1, 1), (1, -2, 1))),
}


def check_andrews(identity: str, n_max: int, n: int | None = None) -> IdentityReport:
    """Check one alternating-binomial Fibonacci identity for all n <= n_max, or at ``n`` only."""
    if identity not in ANDREWS_VARIANTS:
        raise RegistryError(f"unknown Andrews variant {identity!r}")
    index, n_min, window = ANDREWS_VARIANTS[identity]
    pinned = {} if n is None else {"n": n}
    _require_min(f"andrews-{identity}", "n", n_min, pinned)
    points = 0
    cex = None
    for n in _pin_values(pinned, "n", range(n_min, n_max + 1)):
        points += 1
        lhs, rhs = fibonacci(_at(index, n)), andrews_sum(*(_at(affine, n) for affine in window))
        if lhs != rhs:
            cex = Counterexample({"n": str(n)}, lhs=str(lhs), rhs=str(rhs))
            break
    grid = _grid_text([(("n",), f"{n_min} <= n <= {n_max}", "")], pinned)
    return IdentityReport(f"andrews-{identity}", grid, points, cex)


def _weight_series(signs: list[int], precision: int) -> FormalPowerSeries:
    # periodic +-1 weights with period 5, signs/(1 - t^5): the five signs repeated
    return FormalPowerSeries([signs[i % 5] for i in range(precision)])


def check_via_riordan(n_max: int, n: int | None = None) -> IdentityReport:
    """Reproduce the generating-function proof of the Fibonacci identities.

    Extracts every other row of Pascal's triangle, forms d(t) f(t h(t))
    for the period-5 weight f = (t - t^2 - t^3 + t^4)/(1 - t^5), and checks
    it equals t/(1 - 3t + t^2), whose coefficients are F_{2n}.  The
    odd-row extraction with weights (1 - t - t^3 + t^4)/(1 - t^5) must
    likewise give (1 - t)/(1 - 3t + t^2), the F_{2n+1} generating function.
    A point is (rows, n): coefficient n of the extraction's first column
    against its closed form, then coefficient n of the series against the
    target and F_{2n} or F_{2n+1}.  Given ``n``, it checks coefficient n
    only.
    """
    pinned = {} if n is None else {"n": n}
    _require_min("fibonacci-riordan", "n", 0, pinned)
    terms = (n_max if n is None else n) + 1
    coefficients = _pin_values(pinned, "n", range(terms))
    n_grid = _grid_text([(("n",), f"n <= {n_max}", "")], pinned)
    if not coefficients:
        # no series is built for an empty grid
        return IdentityReport("fibonacci-riordan", f"even and odd extractions, {n_grid}", 0)
    base = pascal(2 * terms + 2)
    fib_den = FormalPowerSeries([1, -3, 1], precision=terms)
    # (rows, row offset r, period-5 weights, target numerator); coefficient n is F_{2n+r}
    extractions = (
        ("even", 0, [0, 1, -1, -1, 1], [0, 1]),
        ("odd", 1, [1, -1, 0, -1, 1], [1, -1]),
    )
    points = 0
    for label, r, signs, numerator in extractions:
        arr = base.extract_subarray(2, r)
        composed = arr.d * _weight_series(signs, terms).compose(arr.h.shift_up())
        target = FormalPowerSeries(numerator, precision=terms) / fib_den
        for m in coefficients:
            points += 1
            # the extracted first column is C(2m + r, m)
            got, want = arr.d.coeff(m), comb(2 * m + r, m)
            if got != want:
                params, grid = {"rows": label, "column": "d", "n": str(m)}, "first column of rows"
            else:
                got, want = composed.coeff(m), target.coeff(m)
                if got == want:  # then the Fibonacci number is the side that may differ
                    want = fibonacci(2 * m + r)
                params, grid = {"rows": label, "n": str(m)}, "rows"
            if got != want:
                cex = Counterexample(params, lhs=str(got), rhs=str(want))
                return IdentityReport(
                    "fibonacci-riordan", f"{grid} {label}, {n_grid}", points, cex
                )
    return IdentityReport("fibonacci-riordan", f"even and odd extractions, {n_grid}", points)


# -- generating functions of the convolution families -----------------------


def _direct_sum(z: int, g: int, c: Scalar, precision: int) -> FormalPowerSeries:
    """sum_{m < precision} t^m times term m of the family (z, g, c); the kernel never raises."""
    _require_terms(precision)
    a, b = _ratio(c)
    return _wrap(*_collect(_family_ratio(z, g, a, b, m) for m in range(precision)))


def fuss_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C((p+1)n+y, n) t^n, by direct summation.

    It is the ballot family's B(p + 1, y + 1) (``_fuss``), and
    ``check_product_laws`` compares it with the substitution route
    (1 - w)(1 + w)^(y+1) / (1 - p w) at w = t (1 + w)^(p+1).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(*_ballot(*_fuss(p, _fraction(y))), precision)


def central_power_gf(p: int, x: Scalar, precision: int) -> FormalPowerSeries:
    """sum 2x/((2p-1)n+2x) C(2pn+2x-1, n) t^n, by direct summation.

    It is B_{2p}^{2x}, the family (2p, 0, 2x), whose cancelled term
    2x/n C(2pn + 2x - 1, n - 1) is defined at every x.
    ``check_product_laws`` compares it with (1 + w)^(2x) at
    w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(2 * p, 0, 2 * _fraction(x), precision)


def central_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C(2(pn+y+1), n) t^n, by direct summation.

    It is the ballot family's B(2p, 2y + 2) (``_central``), and
    ``check_product_laws`` compares it with (1 - w)(1 + w)^(2y+2) /
    (1 + (1-2p) w) at w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(*_ballot(*_central(p, _fraction(y))), precision)


def _substitution(e: int, a: Fraction, ballot: bool, precision: int) -> FormalPowerSeries:
    """The substitution route of the direct sums above, at w = t (1 + w)^e.

    (1 + w)^a, or for a ballot series (1 + w)^a times the quotient
    (1 - w)/(1 - (e - 1) w) of ``_ballot_quotient``, which does not depend
    on a and is divided once per (e, precision).  It is the same exact
    series as (1 - w)(1 + w)^a/(1 - (e - 1) w), read off the same w, so the
    route stays independent of the direct sums.
    """
    power = (1 + _power_fixed_point(e, precision)).pow_rational(a)
    return power * _ballot_quotient(e, precision) if ballot else power


def fuss_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The fuss-ballot series as a spec read off ``_family_steps`` (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    z, g, alpha = _ballot(*_fuss(p, _fraction(y)))
    return _spec(*_family_steps(z, g, *_ratio(alpha)))


def central_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The central ballot series as a spec read off ``_family_steps`` (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    z, g, alpha = _ballot(*_central(p, _fraction(y)))
    return _spec(*_family_steps(z, g, *_ratio(alpha)))


# the grid text's note where a product law's hypergeometric spec refused its argument
_SPECS_LEFT_OUT = (
    "hypergeometric laws left out where a spec has a nonpositive integer lower parameter"
)


def check_product_laws(
    p: int, x: Scalar, y: Scalar, precision: int, factors: dict | None = None
) -> IdentityReport:
    """Check the two product laws and their hypergeometric restatements.

    (i)  B_{p+1}^x * fuss_ballot(y) = fuss_ballot(x+y)
    (ii) central_power(x) * central_ballot(y) = central_ballot(x+y)
    plus the same two equalities with every factor produced by the
    generic hypergeometric expansion instead of the direct sums.

    ``factors`` is the memo of one sweep: the factor series by the
    function that builds it (never by its name), p or exponent, argument
    and precision, so that each is built once, and a key met again at
    another p is the same series.  Each direct sum's substitution route
    is built once too, keyed by ``_substitution`` and the sum's key, and
    compared with the sum on every read.  That check counts no points
    while it holds, and routes that disagree give the counterexample,
    named by ``routes``, p and the slot.  The laws are compared in
    order, and the hypergeometric factors are built only once (i) and
    (ii) hold.  A hypergeometric law whose spec refuses its argument is
    left out, and the grid text ends with ``_SPECS_LEFT_OUT``; (i), (ii)
    and the other law are still compared and counted.
    """
    x, y = _fraction(x), _fraction(y)
    n = precision
    grid = f"p={p}, x={x}, y={y}, coefficients below {n}"
    factors = {} if factors is None else factors

    def factor(key: tuple, build: Callable[[], FormalPowerSeries]) -> FormalPowerSeries:
        key += (n,)
        try:  # one lookup on a hit: a key holds a Fraction, whose hash is not cheap
            return factors[key]
        except KeyError:
            series = factors[key] = build()
            return series

    def hyper(spec: Callable, a: int, value: Fraction) -> FormalPowerSeries:
        return factor((spec, a, value), lambda: expand(spec(a, value), n))

    # every direct factor (and route check) is built, in this order, before any law is
    # compared; the hypergeometric factors only once laws (i) and (ii) hold
    binomial = factor((binomial_series, p + 1, x), lambda: binomial_series(p + 1, x, n))
    direct = []
    # (direct sum, slot, argument, the (e, a, ballot) of its _substitution)
    for gf, slot, value, route in (
        (fuss_ballot_gf, "y", y, (*_fuss(p, y), True)),
        (fuss_ballot_gf, "y", x + y, (*_fuss(p, x + y), True)),
        (central_power_gf, "x", x, (2 * p, 2 * x, False)),
        (central_ballot_gf, "y", y, (*_central(p, y), True)),
        (central_ballot_gf, "y", x + y, (*_central(p, x + y), True)),
    ):
        series = factor((gf, p, value), lambda: gf(p, value, n))
        substituted = factor((_substitution, gf, p, value), lambda: _substitution(*route, n))
        if series != substituted:
            routes = {"routes": f"{gf.__name__} direct/substitution",
                      "p": str(p), slot: str(value)}
            return series_verdict("product-laws", grid, [(routes, series, substituted)])
        direct.append(series)
    fuss_y, fuss_xy, power_x, central_y, central_xy = direct

    left_out = []

    def laws():
        # yielded one at a time, so the hypergeometric factors are built after (i) and (ii)
        yield "binomial-ballot", binomial * fuss_y, fuss_xy
        yield "central-ballot", power_x * central_y, central_xy
        for label, power, ballot in (
            ("binomial-ballot-hypergeometric", (p + 1, x), fuss_ballot_spec),
            ("central-ballot-hypergeometric", (2 * p, 2 * x), central_ballot_spec),
        ):
            try:
                lhs = hyper(power_spec, *power) * hyper(ballot, p, y)
                rhs = hyper(ballot, p, x + y)
            except PoleError:
                left_out.append(label)
                continue
            yield label, lhs, rhs

    report = series_verdict("product-laws", grid, (
        ({"law": label, "p": str(p), "x": str(x), "y": str(y)}, lhs, rhs)
        for label, lhs, rhs in laws()
    ))
    return report._replace(grid=f"{grid}, {_SPECS_LEFT_OUT}") if left_out else report


# -- the factor pairs of the convolution identities ---------------------------
# each pair (F, G) obeys F_x * G_y = G_{x+y}


class Factor(NamedTuple):
    """A factor's column, declared as its map to the factor family (z, g, c).

    ``at`` maps the row's first set slot and an argument to the (z, g, c)
    of the family whose term m is (g m + c)/m C(z m + c - 1, m - 1): the
    generalized binomial r/(tn + r) C(tn + r, n) with a linear weight
    (Graham, Knuth and Patashnik, *Concrete Mathematics* 5.4).  Every
    column reads the one kernel ``_family_ratio`` and the one ratio
    ``_family_steps`` at c = a/b.  A column takes one route:

    - ``_integer_terms`` at b = 1 with z >= 1 and c >= 1, where
      z m + c - 1 >= m - 1 >= 0, so ``math.comb`` is defined, and m
      divides exactly, since the family's terms are integers there;
    - the ratio at b > 1 with z >= 1.  No factor of it can vanish at an
      integer m: each is (a + i b, k b), and b does not divide a, or a
      constant that is not 0;
    - the closed form term by term elsewhere: at z <= 0, or at c < 1, as
      at a pinned negative integer argument.
    """

    at: Callable[[int, Scalar], tuple[int, int, Scalar]]

    def __call__(self, first: int, v: Scalar) -> Column:
        z, g, c = self.at(first, v)
        a, b = _ratio(c)
        term = partial(_family_ratio, z, g, a, b)
        if z >= 1 and b > 1:
            return Column(term, _family_steps(z, g, a, b))
        if z >= 1 and a >= 1:  # b = 1
            return Column(term, integer=(z, g, a))
        return Column(term)


# B_z^x at (z, x); at z = p and x = ps it is the subsampled (t h)^s over t^s
_catalan_power = Factor(lambda z, x: (z, 0, x))
# B_z^x and C(y + zm, m)
_CATALAN_BINOMIAL = (_catalan_power, Factor(lambda z, y: (z, z - 1, y + 1)))
# B_z^x and B_z^y: one factor, so the two sides share their columns
_ROTHE_HAGEN = (_catalan_power, _catalan_power)
# B_{p+1}^x and the fuss ballot series at y, B(p + 1, y + 1)
_BALLOT = (Factor(lambda p, x: (p + 1, 0, x)), Factor(lambda p, y: _ballot(*_fuss(p, y))))
# B_{2p}^{2x} and the central ballot series at y, B(2p, 2y + 2)
_CENTRAL = (Factor(lambda p, x: (2 * p, 0, 2 * x)),
            Factor(lambda p, y: _ballot(*_central(p, y))))


# -- registry ------------------------------------------------------------------


class RegistryEntry(NamedTuple):
    """One runnable identity: id, formula sketch, parameter slots, runner."""

    id: str
    description: str
    slots: tuple[str, ...]
    default_grid: str
    run: Callable[..., IdentityReport]

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "slots": list(self.slots),
            "default_grid": self.default_grid,
        }


def _pin_values(pinned: Mapping[str, Scalar], name: str, default):
    if name in pinned:
        return (pinned[name],)
    return default


# every k in 1..n (and s in 1..k) runs up to this n; above it only the
# corners k in {1, n//2, n} and s in {1, (k+1)//2, k}
_FULL_GRID_N = 20


def _full_grid(n: int, pinned: Mapping[str, Scalar]) -> bool:
    # a pinned k or s is enumerated with every valid partner at every n
    return n <= _FULL_GRID_N or "k" in pinned or "s" in pinned


def _k_values(n: int, pinned: Mapping[str, Scalar]) -> list[int]:
    if _full_grid(n, pinned):
        return [k for k in _pin_values(pinned, "k", range(1, n + 1)) if 1 <= k <= n]
    return sorted({1, n // 2, n})


def _ks_pairs(n: int, pinned: Mapping[str, Scalar]) -> Iterator[tuple[int, int]]:
    full = _full_grid(n, pinned)
    for k in _k_values(n, pinned):
        ss = _pin_values(pinned, "s", range(1, k + 1)) if full else sorted({1, (k + 1) // 2, k})
        yield from ((k, s) for s in ss if 1 <= s <= k)


# A grid's text is a sequence of parts (slots, text, partial): ``text``
# names the default set of ``slots``; a pinned slot is named by its value
# instead, and ``partial`` (formatted with the slots left free) describes
# what the rest of a part still ranges over.
GridPart = tuple[tuple[str, ...], str, str]
_RATIONAL_PAIR_PART: GridPart = (("x", "y"), "rational (x, y) grid", "{} over the rational grid")


def _grid_text(parts: Iterable[GridPart], pinned: Mapping[str, Scalar]) -> str:
    """The grid that runs: each part's default set, or the pins that replace it."""
    out = []
    for slots, text, partial_text in parts:
        pins = [f"{slot}={pinned[slot]}" for slot in slots if slot in pinned]
        free = [slot for slot in slots if slot not in pinned]
        if not pins:
            out.append(text)
        else:
            out.extend(pins)
            if free:
                out.append(partial_text.format(", ".join(free)))
    return ", ".join(part for part in out if part)


# a grid axis: a slot and its default values
Axis = tuple[str, Iterable]


def _grid_points(axes: tuple[Axis, ...], pinned: Mapping[str, Scalar]) -> Iterator[dict]:
    """Every point of the product of the axes, a pinned slot replacing its default set."""
    names = [slot for slot, _ in axes]
    sets = [_pin_values(pinned, slot, values) for slot, values in axes]
    return (dict(zip(names, combo)) for combo in product(*sets))


class Law(NamedTuple):
    """How a convolution row reads F_x * G_y = G_{x+y}: its extra slots, its points, their map.

    ``values(n, pinned)`` depends on n and the pins only, so one run
    enumerates it once per n, for every outer value.  The x, y and n - m
    that ``point`` gives depend on the outer slots and the law values
    only, so the points of one law value share their three columns; m is
    never negative.
    """

    axes: tuple[Axis, ...]  # outer slots it adds after the row's sets
    slots: tuple[str, ...]  # slots it enumerates at each n, through ``values``
    values: Callable[[int, Mapping[str, Scalar]], Iterable[tuple]]
    parts: tuple[GridPart, ...]  # its grid text; a k or s shows only when pinned
    # (outer slots, n, law values) -> (x, y, m): the point reads (F_x * G_y)(m) against G_{x+y}(m)
    point: Callable[..., tuple[Scalar, Scalar, int]]


# column k of the subsampled array: F_{ps} * G_{p(k-s)+r} = G_{pk+r}, read at n - k
_KS_LAW = Law(
    (), ("k", "s"), _ks_pairs, ((("k",), "", ""), (("s",), "", ""), ((), "1 <= s <= k <= n", "")),
    lambda p, r, n, k, s: (p * s, p * (k - s) + r, n - k),
)
# the column sum: F_1 * G_{p(k-1)+r} = G_{p(k-1)+r+1}, read at n - k + 1
_K_LAW = Law(
    (), ("k",), lambda n, pinned: zip(_k_values(n, pinned)),
    ((("k",), "", ""), ((), "1 <= k <= n", "")),
    lambda p, r, n, k: (1, p * (k - 1) + r, n - k + 1),
)
# over the rational grid, at the point's own x, y and n
_VANDERMONDE_LAW = Law(
    (("x", RATIONAL_GRID), ("y", RATIONAL_GRID)), (), lambda n, pinned: ((),),
    (_RATIONAL_PAIR_PART,), lambda v, x, y, n: (x, y, n),
)


class SumIdentity(NamedTuple):
    """A convolution identity sum_i F_x(i) G_y(m - i) == G_{x+y}(m), declared as data.

    Its grid is the product of ``sets`` (the integer slots) and the law's
    axes, n in 0..max_n, then the law's slots at each n.  The factors take
    the first set slot.  Its domain is ``_require_domain``'s.
    """

    id: str
    description: str
    left: Factor
    right: Factor
    sets: tuple[Axis, ...]
    law: Law
    p_min: int | None
    r_min: int | None = None


def _slots(row: SumIdentity) -> tuple[str, ...]:
    """A row's slots in grid order: its sets, its law's axes, n, then the law's slots."""
    return (*(slot for slot, _ in row.sets + row.law.axes), "n", *row.law.slots)


def _require_min(
    identity: str, slot: str, least: int | None, pinned: Mapping[str, Scalar]
) -> None:
    """Refuse a pinned ``slot`` below the identity's domain, before any compute."""
    if least is not None and pinned.get(slot, least) < least:
        raise RegistryError(
            f"identity {identity!r} needs {slot} >= {least}, got {slot}={pinned[slot]}"
        )


def _require_domain(row: SumIdentity, pinned: Mapping[str, Scalar]) -> None:
    """Refuse pins outside the row's domain by the slot at fault, before any compute.

    p below ``p_min``, r below ``r_min``, n below 0, k or s below 1, and s
    above k where both are pinned.  A run's pins and a single point are
    refused alike.
    """
    for slot, least in (("p", row.p_min), ("r", row.r_min), ("n", 0), ("k", 1), ("s", 1)):
        _require_min(row.id, slot, least, pinned)
    if "k" in pinned and pinned.get("s", 1) > pinned["k"]:
        raise RegistryError(
            f"identity {row.id!r} needs s <= k, got k={pinned['k']}, s={pinned['s']}"
        )


# a group's first failing point: its position in the group's n list, and its two sides
Failure = tuple[int, tuple[Fraction, Fraction]]


def _first_failure(
    left: Column, right: Column, rhs: Column, shift: int, ns: list[int]
) -> Failure | None:
    """The first failing point of one operand group, or None if all hold.

    The group's points read (F_x * G_y)(m) against G_{x+y}(m) at
    m = n - shift, for n in ``ns`` in increasing order.  Each column's
    length is read once, and a column shorter than the group's top m is
    reached to it once (``Column.reach`` grows ``nums`` in place).  The lhs
    is over ``den``, the product of the factors' denominators, and the rhs
    over ``rden``: where the two are equal, as on every integer column, a
    point compares the numerators as they are, and otherwise it
    cross-multiplies.
    """
    top = ns[-1] - shift
    L, R, H = left.nums, right.nums, rhs.nums
    if len(L) <= top:
        left.reach(top + 1)
    if len(R) <= top:
        right.reach(top + 1)
    if len(H) <= top:
        rhs.reach(top + 1)
    den, rden = left.den * right.den, rhs.den
    same = den == rden
    for j, n in enumerate(ns):
        m = n - shift
        # the map stops with the m + 1 reversed right terms, so no left prefix is copied
        lhs = sum(map(mul, L, R[m::-1]))
        if lhs != H[m] if same else lhs * rden != H[m] * den:
            return j, _fractions((lhs,), den) + _fractions((H[m],), rden)
    return None


# law values -> (the n at which they occur, the index of each of those points in the
# (n, law values) order of one outer value); groups keep their order of first occurrence
Plan = dict[tuple, tuple[list[int], list[int]]]


def _plan(law: Law, n_values: Iterable[int], pinned: Mapping[str, Scalar]) -> tuple[int, Plan]:
    """The points at one outer value, grouped by their law values; and how many there are."""
    groups: Plan = {}
    index = 0
    for n in n_values:
        for values in law.values(n, pinned):
            ns, at = groups.setdefault(values, ([], []))
            ns.append(n)
            at.append(index)
            index += 1
    return index, groups


def _check_outer(
    row: SumIdentity, outer: dict, plan: tuple[int, Plan], columns: dict[tuple, dict]
) -> tuple[int, Counterexample | None]:
    """Check the planned points (n, law slots) at one value ``outer`` of the other slots.

    Returns the points checked and the first counterexample, in the plan's
    point order.  The run's ``columns`` holds one table of columns per
    (factor, first set slot); the two tables of this outer value are
    fetched once, and each group looks F_x, G_y and, for its rhs,
    G_{x+y} up by its argument alone, so an int and an equal ``Fraction``
    read one column.  A column is made on its first lookup and grown as
    far as the groups read it.
    """
    args = tuple(outer.values())
    first = args[:1]
    law, left, right = row.law, row.left, row.right
    total, groups = plan
    # one table per factor at this first set slot; a shared factor shares its table
    lefts, rights = (columns.setdefault((factor, *first), {}) for factor in (left, right))
    earliest = None  # (point index, n, law values, what fails)
    for values, (ns, at) in groups.items():
        x, y, m = law.point(*args, ns[0], *values)
        # one lookup on a hit; an int and an equal Fraction are one key
        xy = x + y
        failure = _first_failure(
            lefts.get(x) or lefts.setdefault(x, left(*first, x)),
            rights.get(y) or rights.setdefault(y, right(*first, y)),
            rights.get(xy) or rights.setdefault(xy, right(*first, xy)),
            ns[0] - m, ns,
        )
        if failure is not None:
            j, what = failure
            if earliest is None or at[j] < earliest[0]:
                earliest = at[j], ns[j], values, what
    if earliest is None:
        return total, None
    index, n, values, what = earliest
    params = {**outer, "n": n, **dict(zip(law.slots, values))}
    return index + 1, Counterexample({k: str(v) for k, v in params.items()}, *map(str, what))


def _check_sums(
    row: SumIdentity, parts: list[GridPart], max_n: int, pinned: Mapping[str, Scalar]
) -> IdentityReport:
    _require_domain(row, pinned)
    plan = _plan(row.law, _pin_values(pinned, "n", range(max_n + 1)), pinned)
    columns = {}  # (factor, first set slot) -> {argument: its column, grown as it is read}
    points = 0
    cex = None
    for outer in _grid_points(row.sets + row.law.axes, pinned):
        checked, cex = _check_outer(row, outer, plan, columns)
        points += checked
        if cex is not None:
            break
    grid = _grid_text([*parts, (("n",), f"n <= {max_n}", "")], pinned)
    return IdentityReport(row.id, grid, points, cex)


def _sum_entry(row: SumIdentity) -> RegistryEntry:
    parts = [((s,), f"{s} in ({','.join(map(str, v))})", "") for s, v in row.sets]
    parts += row.law.parts
    run = partial(_check_sums, row, parts)
    return RegistryEntry(row.id, row.description, _slots(row), _grid_text(parts, {}), run)


_P_SET, _Z_SET = (("p", (2, 3, 4)),), (("z", (2, 3, 4)),)
_PR_SETS = _P_SET + (("r", (0, 1, 2)),)
SUM_IDENTITIES = (
    SumIdentity(
        "subarray-convolution",
        "sum_j ps/((p-1)j+s) C(pj-1, j-s) C(p(n-j)+r, n-j-k+s) = C(pn+r, n-k)",
        *_CATALAN_BINOMIAL, _PR_SETS, _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "catalan-vandermonde",
        "sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i) = C(x+y+zn, n)",
        *_CATALAN_BINOMIAL, _Z_SET, _VANDERMONDE_LAW, None,
    ),
    SumIdentity(
        "catalan-column-sum",
        "sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1) = C(pn+r+1, n-k+1)",
        *_CATALAN_BINOMIAL, _PR_SETS, _K_LAW, 0, 0,
    ),
    SumIdentity(
        "catalan-triangle-convolution",
        "central convolution over the subsampled Catalan triangle (valid from p = 1 on)",
        *_CENTRAL, (("p", (1, 2, 3, 4)), ("r", (0, 1, 2))), _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "ballot-triangle-convolution",
        "convolution over the subsampled ballot-variant triangle",
        *_BALLOT, _PR_SETS, _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "ballot-vandermonde",
        "sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot(y, n-i) = ballot(x+y, n)",
        *_BALLOT, _P_SET, _VANDERMONDE_LAW, 0,
    ),
    SumIdentity(
        "rothe-hagen",
        "sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i) "
        "= (x+y)/(x+y+zn) C(x+y+zn, n)",
        *_ROTHE_HAGEN, _Z_SET, _VANDERMONDE_LAW, None,
    ),
    SumIdentity(
        "central-binomial-vandermonde",
        "sum_i central-power(x, i) * central-ballot(y, n-i) = central-ballot(x+y, n)",
        *_CENTRAL, _P_SET, _VANDERMONDE_LAW, 0,
    ),
)
_SUMS = {row.id: row for row in SUM_IDENTITIES}


# -- the identities' two sides at one point --------------------------------------


def _point(
    identity: str, n: int, slots: Mapping[str, Scalar]
) -> tuple[SumIdentity, tuple, tuple[Scalar, Scalar, int]]:
    """The row of ``identity``, the point's first set slot, and its (x, y, m).

    ``slots`` gives every slot of the row but n.  The point is read as
    ``check_registry`` reads a run's pins, n included (``_read_pins``),
    and refused outside the row's domain as a run is
    (``_require_domain``), before any compute.
    """
    row = _SUMS.get(identity)
    if row is None:
        raise RegistryError(f"unknown sum identity {identity!r}")
    point = _read_pins(identity, _slots(row), {**slots, "n": n})
    names = [slot for slot in _slots(row) if slot != "n"]
    if len(point) <= len(names):
        raise RegistryError(
            f"identity {identity!r} takes slots {names} besides n, got {sorted(slots)}"
        )
    _require_domain(row, point)
    law = row.law
    outer = [point[slot] for slot, _ in row.sets + law.axes]
    return row, outer[:1], law.point(*outer, point["n"], *(point[slot] for slot in law.slots))


def sum_lhs(identity: str, n: int, **slots: Scalar) -> Fraction:
    """One point's lhs: (F_x * G_y)(m), the dot product of the row's two factor columns.

    A point outside the row's domain is refused (see :func:`_point`); at
    m < 0 (a k/s point with k > n) the sum is empty.
    """
    row, first, (x, y, m) = _point(identity, n, slots)
    left = row.left(*first, x).reach(m + 1)
    right = row.right(*first, y).reach(m + 1)
    return _fractions((_dot(left, right, m),), left.den * right.den)[0]


def sum_rhs(identity: str, n: int, **slots: Scalar) -> Fraction:
    """One point's rhs, G_{x+y}(m), at the same slots as :func:`sum_lhs`; 0 at m < 0.

    A point outside the row's domain is refused, as by :func:`sum_lhs`.
    """
    row, first, (x, y, m) = _point(identity, n, slots)
    col = row.right(*first, x + y).reach(m + 1)
    return _fractions((col.nums[m] if m >= 0 else 0,), col.den)[0]


def _sweep(
    identity: str,
    check: Callable[..., IdentityReport],
    axes: tuple[Axis, ...],
    cap: int,
    parts: tuple[GridPart, ...],
    p_min: int | None,
    max_n: int,
    pinned: Mapping[str, Scalar],
) -> IdentityReport:
    """Add up the sub-reports of ``check`` over a grid; stop at the first failure.

    ``check`` takes the point's slots, the precision and ``factors``, one
    flat memo that lives as long as this sweep, across every p.
    """
    _require_min(identity, "p", p_min, pinned)
    precision = min(max_n + 1, cap)
    grid = f"{_grid_text(parts, pinned)}, coefficients below {precision}"
    if precision < 1:
        # no coefficient to check: an empty grid, not a series of precision 0
        return IdentityReport(identity, grid, 0)
    factors: dict = {}
    points = 0
    left_out = False
    for params in _grid_points(axes, pinned):
        rep = check(*params.values(), precision, factors=factors)
        points += rep.points
        if not rep.holds:
            return IdentityReport(identity, rep.grid, points, rep.counterexample)
        left_out = left_out or rep.grid.endswith(_SPECS_LEFT_OUT)
    return IdentityReport(identity, f"{grid}, {_SPECS_LEFT_OUT}" if left_out else grid, points)


def _andrews_entry(variant: str) -> RegistryEntry:
    index, n_min, _ = ANDREWS_VARIANTS[variant]
    return RegistryEntry(
        f"andrews-{variant}",
        "alternating binomial sum over a period-5 window equals a Fibonacci number "
        f"(parameter n maps to F with index like {_at(index, 3)} at n=3)",
        ("n",), f"n from {n_min}",
        lambda max_n, pinned: check_andrews(variant, max_n, pinned.get("n")),
    )


# the checkers are called through their module names, so that a rebound
# name (a tracer, a test double) is the one that runs
REGISTRY: dict[str, RegistryEntry] = {
    entry.id: entry
    for entry in (
        *map(_andrews_entry, ANDREWS_VARIANTS),
        RegistryEntry(
            "fibonacci-riordan",
            "d(t) f(t h(t)) over the even/odd row extraction of the binomial "
            "triangle equals the even/odd Fibonacci generating function",
            ("n",), "coefficients 0..max_n, both extractions",
            lambda max_n, pinned: check_via_riordan(max_n, pinned.get("n")),
        ),
        *map(_sum_entry, SUM_IDENTITIES),
        RegistryEntry(
            "product-laws",
            "binomial-power and central product laws of the ballot series, "
            "directly and through hypergeometric expansion",
            ("p", "x", "y"), "p in (2, 3), (x, y) over the rational grid",
            partial(
                _sweep, "product-laws",
                lambda *args, factors: check_product_laws(*args, factors),
                (("p", (2, 3)), ("x", RATIONAL_GRID), ("y", RATIONAL_GRID)), 25,
                ((("p",), "p in (2, 3)", ""), _RATIONAL_PAIR_PART), 2,
            ),
        ),
        RegistryEntry(
            "hypergeometric-power-law",
            "rational powers of the base hypergeometric stream stay hypergeometric",
            ("p", "x"), "q in (2, 3, 4), exponents (2, 3, 1/2, 5/2)",
            partial(
                _sweep, "hypergeometric-power-law",
                lambda *args, factors: verify_power_identity(*args),
                (("p", (2, 3, 4)), ("x", (2, 3, Fraction(1, 2), Fraction(5, 2)))), 30,
                ((("p",), "q in (2, 3, 4)", ""), (("x",), "rational exponents", "")), 2,
            ),
        ),
    )
}


def registry_entries() -> list[RegistryEntry]:
    return list(REGISTRY.values())


def _exact_pin(identity: str, slot: str, value: Union[Scalar, str]) -> Scalar:
    """A pin as the grid takes it: a ``Fraction``, or an int in an integer slot.

    Any value that ``Fraction`` reads exactly is taken (an int, a
    ``Fraction``, a string such as ``"1/2"``); a float, a value it does not
    read, and a fraction in an integer slot are refused by name.
    """
    integer = slot in ("n", "p", "r", "z", "k", "s")
    try:
        exact = _fraction(value)  # which refuses a float
    except (TypeError, ValueError, ZeroDivisionError):
        exact = None
    if exact is None or integer and exact.denominator != 1:
        kind = "an exact" if exact is None else "an integer"
        raise RegistryError(f"identity {identity!r} needs {kind} {slot}, got {slot}={value}")
    return int(exact) if integer else exact


def _read_pins(
    identity: str, slots: tuple[str, ...], pinned: Mapping[str, Union[Scalar, str]]
) -> dict[str, Scalar]:
    """Pins as a run takes them: a slot of ``slots``, each value read by ``_exact_pin``."""
    bad = set(pinned) - set(slots)
    if bad:
        raise RegistryError(f"identity {identity!r} has no slots {sorted(bad)}; available: {slots}")
    return {slot: _exact_pin(identity, slot, value) for slot, value in pinned.items()}


def check_registry(
    identity: str, max_n: int = 20, pinned: Mapping[str, Union[Scalar, str]] | None = None
) -> IdentityReport:
    """Run one registry identity over its grid, optionally pinning slots to exact values.

    A pin is read by ``_exact_pin``: an int, a ``Fraction`` or a string such as ``"1/2"``.
    """
    entry = REGISTRY.get(identity)
    if entry is None:
        raise RegistryError(f"unknown identity {identity!r}")
    return entry.run(max_n=max_n, pinned=_read_pins(identity, entry.slots, pinned or {}))
