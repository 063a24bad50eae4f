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
(x.numerator, x.denominator).  Each factor (``Factor``) declares its
closed-form term next to its term ratio.  The closed form is a raw
integer (numerator, denominator) pair that the column it joins reduces,
and reads hypergeom's kernels: C(a/b, k) = prod(a - i b) / (b^k k!) is
``_binomial_ratio``, and B_q^r is ``_binomial_power_ratio``.  Term m of
every factor is a polynomial of degree m in its argument, and each
kernel is written so: the ballot forms ((p-1)m + y + 1)/(pm + y + 1)
times C((p+1)m + y, m) or C(2(pm + y + 1), m) have their pm + y + 1
cancelled by the binomial, as B_q^r has its qn + r.  So no kernel raises
or returns a term over 0, at any argument.  The ratio is stated once per
family, at every argument, as integer linear factors in m built from
hypergeom's ``_binomial_steps`` (times the ballot weight's ratio for the
two ballot factors); the family's spec is read off it
(``hypergeom._spec``).  A column steps by it where no factor can vanish
at an integer m, which is where its binomial C(alpha + zm, m) has a
non-integer alpha and z >= 1: a reach takes its first term from the
closed form and steps the rest (``series._ratio_steps``), each in lowest
terms.  Every other column (integer alpha, which ``math.comb`` serves,
z <= 0, and the central ballot factor at b = 2, where 2y + 2 is an
integer) keeps the closed form term by term.  The direct sums of the
product laws stay on the closed form, as routes independent of the
stepping.  One run of a row keeps a memo of its factor columns, keyed by
(factor, first set slot, argument), each as integer numerators over one
common denominator.  A column is made once and grows in place as the
points read past its end; the memo is dropped when the row ends.

A run plans its points once: it walks the law's values over n, since
they depend on n and the pins only, and groups the points by their law
values, keeping each point's index in (n, law values) order.  Then, at
each value of the other slots, a group resolves its (x, y, n - m) and
its three columns once, reaches each to the group's top m, and checks
its points in one loop: a point's lhs is one integer dot product of two
columns, compared with the rhs term by cross-multiplication, and a
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
is dropped when the run ends.  Every series comparison,
hypergeometric-power-law's two routes included, is a verdict of
``reports.series_verdict``: a law that holds counts its coefficients as
points, a route check counts none, and the first coefficient that
differs is the counterexample, routes that disagree included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice, product
from math import comb
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .arrays import pascal
from .hypergeom import (
    HypergeometricSpec,
    _binomial_power_ratio,
    _binomial_power_steps,
    _binomial_ratio,
    _binomial_steps,
    _spec,
    binomial_series,
    expand,
    power_spec,
    verify_power_identity,
)
from .reports import Counterexample, IdentityReport, series_verdict
from .series import (
    FormalPowerSeries, Steps, _append_term, _collect, _extend, _fraction, _ratio_steps,
    _require_terms, _wrap, lagrange_solve,
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


# -- elementary exact ingredients --------------------------------------


def _ratio(x: Scalar) -> Ratio:
    x = _fraction(x)
    return x.numerator, x.denominator


class Column:
    """A factor column: the terms of ``term`` read so far, as integer numerators over ``den``.

    With ``steps``, the term ratio as linear factors none of which
    vanishes, a reach takes its first term from ``term`` and steps the
    rest (``series._ratio_steps``).  Otherwise every term comes from
    ``term``, which no factor kernel can make raise.
    """

    __slots__ = ("term", "steps", "nums", "den")

    def __init__(self, term: Callable[[int], Ratio], steps: Steps | None = None):
        self.term = term
        self.steps = steps
        self.nums: list[int] = []
        self.den = 1

    def reach(self, length: int) -> Column:
        """Append terms ``len(nums)..length-1``, keeping ``nums/den`` canonical."""
        start = len(self.nums)
        if self.steps is not None and start < length:
            # stepped terms are in lowest terms, so the batch takes no gcd
            terms = _ratio_steps(*self.term(start), *self.steps, start)
            self.den = _extend(self.nums, self.den, islice(terms, length - start))
            return self
        for j in range(start, length):
            self.den = _append_term(self.nums, self.den, *self.term(j))
        return self


def _dot(left: Column, right: Column, m: int) -> int:
    """sum_{i = 0..m} left(i) right(m - i), over ``left.den * right.den``; 0 for m < 0."""
    # at m < 0 the sum is empty: a negative index must not wrap round a column
    # the map stops with the m + 1 reversed right terms, so no left prefix is copied
    return sum(map(mul, left.nums, right.nums[m::-1])) if m >= 0 else 0


def _shifted_binomial_ratio(z: int, c: int, e: int, m: int) -> Ratio:
    # C(y + zm, m) at y = c/e
    return _binomial_ratio(c + z * m * e, e, m)


def _ballot_ratio(p: int, a: int, b: int, m: int) -> Ratio:
    # ((p-1)m + y + 1)/(pm + y + 1) C(N, m) at y = a/b, N = (p+1)m + y, with its pm + y + 1
    # cancelled by C(N, m) = (N - m + 1)/m C(N, m - 1): ((p-1)m + y + 1)/m C(N, m - 1)
    if m == 0:
        return 1, 1
    num, den = _binomial_ratio((p + 1) * m * b + a, b, m - 1)
    return ((p - 1) * m * b + a + b) * num, b * m * den


def _central_ballot_ratio(p: int, a: int, b: int, m: int) -> Ratio:
    # ((p-1)m + y + 1)/D C(2D, m) at y = a/b, D = pm + y + 1, with its D cancelled by
    # C(2D, m) = 2D/m C(2D - 1, m - 1): 2((p-1)m + y + 1)/m C(2D - 1, m - 1)
    if m == 0:
        return 1, 1
    num, den = _binomial_ratio(2 * (p * m * b + a + b) - b, b, m - 1)
    return 2 * ((p - 1) * m * b + a + b) * num, b * m * den


def _weighted(z: int, alpha: int, p: int, a: int, b: int) -> Steps | None:
    # the ratio of C(alpha/b + zm, m) times the ballot weight's w(m + 1)/w(m) at y = a/b,
    # its b's cancelled; None at z < 1, as for the binomial
    if z < 1:
        return None
    upper, lower = _binomial_steps(z, alpha, b)
    return ([*upper, ((p - 1) * b + a + b, (p - 1) * b), (a + b, p * b)],
            [*lower, (p * b + a + b, p * b), (a + b, (p - 1) * b)])


def _ballot_steps(p: int, a: int, b: int) -> Steps | None:
    # the ratio of _ballot_ratio: the weight's times that of C(y + (p+1)m, m)
    return _weighted(p + 1, a, p, a, b)


def _central_ballot_steps(p: int, a: int, b: int) -> Steps | None:
    # the ratio of _central_ballot_ratio: the weight's times that of C(2y + 2 + 2pm, m)
    return _weighted(2 * p, 2 * (a + b), p, a, b)


# a float equal to a cached Fraction must still be refused, so the caches are typed
@lru_cache(maxsize=8192, typed=True)
def binomial(a: Scalar, k: int) -> Fraction:
    """Generalized binomial: falling-factorial product over k!; 0 for k < 0."""
    return Fraction(*_binomial_ratio(*_ratio(a), k))


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
    return Fraction(*_binomial_power_ratio(z, *_ratio(x), i))


@lru_cache(maxsize=2048, typed=True)
def _central_power_term(p: int, x: Scalar, i: int) -> Fraction:
    # 2x/((2p-1)i + 2x) C(2pi + 2x - 1, i): [t^i] of B_{2p}^{2x}
    return Fraction(*_binomial_power_ratio(2 * p, *_ratio(2 * x), i))


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


# closed forms of the first column d of the even and odd row extractions
_EXTRACTED_D: dict[str, Callable[[int], int]] = {
    "even": lambda m: comb(2 * m, m),
    "odd": lambda m: comb(2 * m + 1, m + 1),
}


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
            # the extracted first column has its own closed form
            got, want = arr.d.coeff(m), _EXTRACTED_D[label](m)
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


def _direct_sum(
    kernel: Callable[[int, int, int, int], Ratio], p: int, v: Scalar, precision: int
) -> FormalPowerSeries:
    """sum_{m < precision} kernel(p, v, m) t^m; the first term that raises, in order of m."""
    _require_terms(precision)
    a, b = _ratio(v)
    return _wrap(*_collect(kernel(p, a, b, m) for m in range(precision)))


def fuss_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C((p+1)n+y, n) t^n, by direct summation.

    ``check_product_laws`` compares it with the substitution route
    (1 - w)(1 + w)^(y+1) / (1 - p w) at w = t (1 + w)^(p+1).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(_ballot_ratio, p, y, precision)


def central_power_gf(p: int, x: Scalar, precision: int) -> FormalPowerSeries:
    """sum 2x/((2p-1)n+2x) C(2pn+2x-1, n) t^n, by direct summation.

    Each term is read off ``_binomial_power_ratio``, whose cancelled form
    2x/n C(2pn + 2x - 1, n - 1) is defined at every x.
    ``check_product_laws`` compares it with (1 + w)^(2x) at
    w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(_binomial_power_ratio, 2 * p, 2 * _fraction(x), precision)


def central_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C(2(pn+y+1), n) t^n, by direct summation.

    ``check_product_laws`` compares it with (1 - w)(1 + w)^(2y+2) /
    (1 + (1-2p) w) at w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(_central_ballot_ratio, p, y, precision)


def _substitution(e: int, a: Fraction, ballot: bool, precision: int) -> FormalPowerSeries:
    """The substitution route of the direct sums above, at w = t (1 + w)^e.

    (1 + w)^a, or for a ballot series (1 - w)(1 + w)^a / (1 - (e - 1) w).
    """
    w = _power_fixed_point(e, precision)
    power = (1 + w).pow_rational(a)
    return (1 - w) * power / (1 - (e - 1) * w) if ballot else power


def fuss_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The fuss-ballot series as a spec read off ``_ballot_steps`` (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    return _spec(*_ballot_steps(p, *_ratio(y)))


def central_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The central ballot series as a spec read off ``_central_ballot_steps`` (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    return _spec(*_central_ballot_steps(p, *_ratio(y)))


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
    named by ``routes``, p and the slot.
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

    # every factor (and route check) is built, in this order, before any law is compared
    binomial = factor((binomial_series, p + 1, x), lambda: binomial_series(p + 1, x, n))
    direct = []
    # (direct sum, slot, argument, the (e, a, ballot) of its _substitution)
    for gf, slot, value, route in (
        (fuss_ballot_gf, "y", y, (p + 1, y + 1, True)),
        (fuss_ballot_gf, "y", x + y, (p + 1, x + y + 1, True)),
        (central_power_gf, "x", x, (2 * p, 2 * x, False)),
        (central_ballot_gf, "y", y, (2 * p, 2 * y + 2, True)),
        (central_ballot_gf, "y", x + y, (2 * p, 2 * (x + y) + 2, True)),
    ):
        series = factor((gf, p, value), lambda: gf(p, value, n))
        substituted = factor((_substitution, gf, p, value), lambda: _substitution(*route, n))
        if series != substituted:
            routes = {"routes": f"{gf.__name__} direct/substitution",
                      "p": str(p), slot: str(value)}
            return series_verdict("product-laws", grid, [(routes, series, substituted)])
        direct.append(series)
    fuss_y, fuss_xy, power_x, central_y, central_xy = direct
    laws = [
        ("binomial-ballot", binomial * fuss_y, fuss_xy),
        ("central-ballot", power_x * central_y, central_xy),
        (
            "binomial-ballot-hypergeometric",
            hyper(power_spec, p + 1, x) * hyper(fuss_ballot_spec, p, y),
            hyper(fuss_ballot_spec, p, x + y),
        ),
        (
            "central-ballot-hypergeometric",
            hyper(power_spec, 2 * p, 2 * x) * hyper(central_ballot_spec, p, y),
            hyper(central_ballot_spec, p, x + y),
        ),
    ]
    return series_verdict("product-laws", grid, (
        ({"law": label, "p": str(p), "x": str(x), "y": str(y)}, lhs, rhs)
        for label, lhs, rhs in laws
    ))


# -- the factor pairs of the convolution identities ---------------------------
# each pair (F, G) obeys F_x * G_y = G_{x+y}


class Factor(NamedTuple):
    """A factor's column: its closed-form term and its term ratio, declared side by side.

    ``at`` maps the row's first set slot and an argument to the (z, v) of
    the column; at v = a/b, ``kernel(z, a, b, m)`` is term m, and
    ``steps(z, a, b)`` the ratio of terms m + 1 and m (None at z < 1).
    The column steps by it only at a non-integer v, where no factor
    c0 + c1 m can vanish at an integer m: c1 does not divide c0, or c1 = 0
    and c0 != 0.
    """

    kernel: Callable[[int, int, int, int], Ratio]
    steps: Callable[[int, int, int], Steps | None]
    at: Callable[[int, Scalar], tuple[int, Scalar]] = lambda z, v: (z, v)

    def __call__(self, first: int, v: Scalar) -> Column:
        z, v = self.at(first, v)
        a, b = _ratio(v)
        steps = self.steps(z, a, b) if b > 1 else None
        if steps and not all(c0 % c1 if c1 else c0 for c0, c1 in chain(*steps)):
            steps = None
        return Column(partial(self.kernel, z, a, b), steps)


_catalan_power = Factor(_binomial_power_ratio, _binomial_power_steps)  # B_z^x
# B_z^x and C(y + zm, m); at z = p and x = ps, F_x is the subsampled (t h)^s over t^s
_CATALAN_BINOMIAL = (_catalan_power, Factor(_shifted_binomial_ratio, _binomial_steps))
# B_z^x and B_z^y: one factor, so the two sides share their columns
_ROTHE_HAGEN = (_catalan_power, _catalan_power)
# B_{p+1}^x and the ballot series at y
_BALLOT = (_catalan_power._replace(at=lambda p, x: (p + 1, x)),
           Factor(_ballot_ratio, _ballot_steps))
# B_{2p}^{2x} and the central ballot series at y
_CENTRAL = (_catalan_power._replace(at=lambda p, x: (2 * p, 2 * x)),
            Factor(_central_ballot_ratio, _central_ballot_steps))


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
    m = n - shift, for n in ``ns`` in increasing order.  Each column is
    reached once to the group's top m.
    """
    top = ns[-1] - shift
    for col in (left, right, rhs):
        if len(col.nums) <= top:
            col.reach(top + 1)
    L, R, H = left.nums, right.nums, rhs.nums
    den, rden = left.den * right.den, rhs.den
    for j, n in enumerate(ns):
        m = n - shift
        # the map stops with the m + 1 reversed right terms, so no left prefix is copied
        lhs = sum(map(mul, L, R[m::-1]))
        if lhs * rden != H[m] * den:
            return j, (Fraction(lhs, den), Fraction(H[m], rden))
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
    row: SumIdentity, outer: dict, plan: tuple[int, Plan], columns: dict[tuple, Column]
) -> tuple[int, Counterexample | None]:
    """Check the planned points (n, law slots) at one value ``outer`` of the other slots.

    Returns the points checked and the first counterexample, in the plan's
    point order.  Each group reads F_x, G_y and, for its rhs, G_{x+y}
    from the run's ``columns``, grown as far as the group reads them.
    """
    args = tuple(outer.values())
    first = args[:1]
    law = row.law
    total, groups = plan

    def column(factor: Factor, argument: Scalar) -> Column:
        key = (factor, *first, argument)
        col = columns.get(key)  # one lookup on a hit: a key may hold a Fraction
        if col is None:
            col = columns[key] = factor(*first, argument)
        return col

    earliest = None  # (point index, n, law values, what fails)
    for values, (ns, at) in groups.items():
        x, y, m = law.point(*args, ns[0], *values)
        failure = _first_failure(column(row.left, x), column(row.right, y),
                                 column(row.right, x + y), ns[0] - m, ns)
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
    columns = {}  # (factor, first set slot, argument) -> its column, grown as it is read
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
    return Fraction(_dot(left, right, m), left.den * right.den)


def sum_rhs(identity: str, n: int, **slots: Scalar) -> Fraction:
    """One point's rhs, G_{x+y}(m), at the same slots as :func:`sum_lhs`; 0 at m < 0.

    A point outside the row's domain is refused, as by :func:`sum_lhs`.
    """
    row, first, (x, y, m) = _point(identity, n, slots)
    col = row.right(*first, x + y).reach(m + 1)
    return Fraction(col.nums[m] if m >= 0 else 0, col.den)


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
    for params in _grid_points(axes, pinned):
        rep = check(*params.values(), precision, factors=factors)
        points += rep.points
        if not rep.holds:
            return IdentityReport(identity, rep.grid, points, rep.counterexample)
    return IdentityReport(identity, grid, points)


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
