"""A registry of exact combinatorial identities with brute-force checkers.

Every identity is evaluated exactly on finite parameter grids:
alternating binomial sums against the Fibonacci recurrence, convolution
sums against one closed-form term, and product laws of generating
functions coefficient by coefficient.  Infinite sums are cut to the
support of their binomials (zero outside 0 <= lower <= upper), widened
by one guard term on each side.  C(n, m) = 0 for m < 0 or m > n when
n >= 0; a rational upper argument takes the falling-factorial product.
Floors of negative arguments round toward minus infinity (``//``).

Identities are data.  Each Andrews row maps n to (U, L1, L2) for one sum
``andrews_sum`` = sum_j C(U, L1 - 5j) - C(U, L2 - 5j); for a1/a2,
sum_k (-1)^k C(U, floor((n-1-5k)/2)) with U = n-1 or n splits by the
parity of k into L1 = floor((n-1)/2) and L2 = floor((n-6)/2).

Each convolution identity is one ``SumIdentity`` row: two factors, the
default sets of its integer slots, and a law.  The lhs, sum_j a(j)
b(n - j), is coefficient n of the factors' product; the law is the
Riordan-array fact that keeps the product in the right factor's family,
so the rhs is the right factor read at a summed parameter: at offset k
on a k/s row (column k is column k - s convolved with (t h)^s; the
column sum reads (p, r + 1) at offset k - 1), and at y := x + y on a
Vandermonde-type row (F_x * G_y = G_{x+y}).  A law also names the slots
it adds, enumerates its points and writes its grid text.

The terms run on plain integers: a rational x enters as the pair
(x.numerator, x.denominator), and a term is an integer (numerator,
denominator) pair, e.g. C(a/b, k) = prod(a - i b) / (b^k k!).  For each
value of the slots outside n and the law's, the checker builds each
factor column once, as integer numerators over one common denominator;
a point's lhs is one integer dot product of the two columns, compared
with the rhs term by cross-multiplication, and a ``Fraction`` is built
only for a counterexample's text.  A term that raises (a pole, a
negative upper index) is kept in its column and raised by the first
point whose sum takes it, as a term-by-term sum would.  ``sum_lhs`` and
``sum_rhs`` give one point's two sides of any row by id; the
ballot-family direct sums are one column of a row's kernel each.  The
B_q^r and (t h)^s terms are hypergeom's integer kernels, B_q^r read
through this module's caches; ``binomial`` and the ``_*_term`` helpers
are ``Fraction`` wrappers.

The product laws compare whole series.  One run builds each factor
series (a direct sum, a binomial series or a hypergeometric expansion)
once per distinct (p, argument), and compares each ballot-family
direct sum with its Lagrange substitution route once, when that factor
is first built; the memo is dropped when the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .arrays import TheoremViolationError, pascal
from .hypergeom import (
    HypergeometricSpec,
    PoleError,
    _binomial_power_ratio,
    _power_ratio,
    binomial_series,
    expand,
    power_spec,
    verify_power_identity,
)
from .reports import Counterexample, IdentityReport
from .series import FormalPowerSeries, _fraction, _require_terms, _series, lagrange_solve

Scalar = Union[int, Fraction]
# an exact rational as an integer (numerator, denominator) pair
Ratio = tuple[int, int]

# rational sample points for identities that are polynomial in their slots
RATIONAL_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3, 7))


class RegistryError(ValueError):
    """Unknown identity id or unsupported parameter pin."""


# Each cache in this module is bounded above its working set in
# ``check --all --max-n 50`` (binomial 4,717 entries, Catalan power terms
# 2,397, central power terms 765, fixed points 3), so that run never evicts.
# The factor columns read each term once per column built, so the term
# caches see about 23k, 17k and 4k hits in that run.  The two power-term
# caches wrap hypergeom's uncached B_q^r kernel.
@lru_cache(maxsize=16)
def _power_fixed_point(exponent: int, precision: int) -> FormalPowerSeries:
    # w = t (1 + w)^exponent; shared across the many (x, y) grid points
    return lagrange_solve((1 + FormalPowerSeries.t(precision)) ** exponent, precision)


# -- elementary exact ingredients --------------------------------------


def icomb(n: int, k: int) -> int:
    """Integer binomial with the zero convention; requires n >= 0."""
    if n < 0:
        raise ValueError(f"icomb needs a nonnegative upper index, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _ratio(x: Scalar) -> Ratio:
    x = _fraction(x)
    return x.numerator, x.denominator


def _reduced(num: int, den: int) -> Ratio:
    g = gcd(num, den)
    return num // g, den // g


class Column(NamedTuple):
    """A factor column: terms start..len(nums)-1 as integer numerators over ``den``.

    Entries below ``start`` are zero and never evaluated.  A term that
    raised holds 0, and its exception waits in ``faults`` for the first
    sum that takes it.
    """

    nums: list[int]
    den: int
    start: int
    faults: dict[int, Exception]


def _column(term: Callable[[int], Ratio], start: int, length: int) -> Column:
    """Terms start..length-1 of ``term`` over their least common denominator."""
    ratios, faults, den = {}, {}, 1
    for j in range(start, length):
        try:
            num, d = term(j)
            if den % d:  # a zero d raises here, as it did in a term-by-term sum
                num, d = _reduced(num, d)
                den = lcm(den, d)
        except (ValueError, ZeroDivisionError) as exc:
            faults[j] = exc
        else:
            ratios[j] = num, d
    nums = [0] * length
    for j, (num, d) in ratios.items():
        nums[j] = num * (den // d)
    return Column(nums, den, start, faults)


def _dot(left: Column, right: Column, n: int) -> int:
    """sum_{j = left.start..n} left(j) right(n - j), over ``left.den * right.den``.

    If a term taken has a fault, the first one in order of j (the left
    factor before the right) is raised instead, as a term-by-term sum
    would have raised it.
    """
    s = left.start
    if left.faults or right.faults:
        for j in range(s, n + 1):
            fault = left.faults.get(j) or right.faults.get(n - j)
            if fault is not None:
                raise fault
    return sum(map(mul, left.nums[s : n + 1], right.nums[n - s :: -1]))


@lru_cache(maxsize=8192)
def _binomial_ratio(a: int, b: int, k: int) -> Ratio:
    # C(a/b, k) for b > 0: prod_{i<k} (a - i b) / (b^k k!); 0 for k < 0
    if k < 0:
        return 0, 1
    if b == 1 and a >= 0:
        return comb(a, k), 1
    num = 1
    for i in range(k):
        num *= a - i * b
    return _reduced(num, b**k * factorial(k))


# x/(x + zi) C(x + zi, i) at x = a/b: [t^i] of B_z^x
_catalan_power_ratio = lru_cache(maxsize=4096)(_binomial_power_ratio)


@lru_cache(maxsize=2048)
def _central_power_ratio(p: int, a: int, b: int, i: int) -> Ratio:
    # 2x/((2p-1)i + 2x) C(2pi + 2x - 1, i) at x = a/b: [t^i] of B_{2p}^{2x}
    return _binomial_power_ratio(2 * p, 2 * a, b, i)


def _ballot_ratio(p: int, a: int, b: int, m: int) -> Ratio:
    # ((p-1)m + y + 1)/(pm + y + 1) C((p+1)m + y, m) at y = a/b; the b of
    # the first quotient cancels, and ((p+1)m b + a)/b is in lowest terms
    den = p * m * b + a + b
    if den == 0:
        raise PoleError(f"pm + y + 1 vanishes at m = {m}")
    num, cden = _binomial_ratio((p + 1) * m * b + a, b, m)
    return ((p - 1) * m * b + a + b) * num, den * cden


def _central_ballot_ratio(p: int, a: int, b: int, m: int) -> Ratio:
    # ((p-1)m + y + 1)/(pm + y + 1) C(2(pm + y + 1), m) at y = a/b
    den = p * m * b + a + b
    if den == 0:
        raise PoleError(f"pm + y + 1 vanishes at m = {m}")
    upper, lower = _reduced(2 * den, b)
    num, cden = _binomial_ratio(upper, lower, m)
    return ((p - 1) * m * b + a + b) * num, den * cden


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


def _catalan_power_term(z: int, x: Scalar, i: int) -> Fraction:
    return Fraction(*_catalan_power_ratio(z, *_ratio(x), i))


def _central_power_term(p: int, x: Scalar, i: int) -> Fraction:
    return Fraction(*_central_power_ratio(p, *_ratio(x), i))


# the wrappers keep no cache of their own; they report their kernel's
binomial.cache_info = _binomial_ratio.cache_info
_catalan_power_term.cache_info = _catalan_power_ratio.cache_info
_central_power_term.cache_info = _central_power_ratio.cache_info


# -- the Fibonacci / alternating binomial suite --------------------------


def andrews_sum(upper: int, low1: int, low2: int) -> int:
    """sum_j C(upper, low1 - 5j) - C(upper, low2 - 5j) over all integers j.

    The window is the support of both columns (0 <= low - 5j <= upper)
    widened by one guard term on each side.
    """
    lo = -((upper - min(low1, low2)) // 5) - 1
    hi = max(low1, low2) // 5 + 1
    return sum(icomb(upper, low1 - 5 * j) - icomb(upper, low2 - 5 * j) for j in range(lo, hi + 1))


# id -> (Fibonacci index at n, smallest valid n, n -> (upper, low1, low2) of andrews_sum)
AndrewsRow = tuple[Callable[[int], int], int, Callable[[int], tuple[int, int, int]]]
ANDREWS_VARIANTS: dict[str, AndrewsRow] = {
    "a1": (lambda n: n, 1, lambda n: (n - 1, (n - 1) // 2, (n - 6) // 2)),
    "a2": (lambda n: n, 1, lambda n: (n, (n - 1) // 2, (n - 6) // 2)),
    "a3": (lambda n: 2 * n + 1, 0, lambda n: (2 * n + 1, n, n - 1)),
    "a121": (lambda n: 2 * n + 2, 0, lambda n: (2 * n + 2, n, n - 1)),
    "a5": (lambda n: 2 * n + 2, 0, lambda n: (2 * n + 1, n, n - 2)),
    "a6": (lambda n: 2 * n + 1, 0, lambda n: (2 * n, n, n - 2)),
    "a122": (lambda n: 2 * n, 0, lambda n: (2 * n, n - 1, n - 2)),
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
        lhs, rhs = fibonacci(index(n)), andrews_sum(*window(n))
        if lhs != rhs:
            cex = Counterexample({"n": str(n)}, lhs=str(lhs), rhs=str(rhs))
            break
    grid = _grid_text([(("n",), f"{n_min} <= n <= {n_max}", "")], pinned)
    return IdentityReport(f"andrews-{identity}", grid, points, cex)


def _weight_series(signs: Iterable[int], precision: int) -> FormalPowerSeries:
    # periodic +-1 weights with period 5: expand (polynomial)/(1 - t^5)
    num = FormalPowerSeries(list(signs), precision=precision)
    den = FormalPowerSeries([1, 0, 0, 0, 0, -1], precision=precision)
    return num / den


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
    Given ``n``, it checks coefficient n only.
    """
    pinned = {} if n is None else {"n": n}
    _require_min("fibonacci-riordan", "n", 0, pinned)
    terms = (n_max if n is None else n) + 1
    coefficients = _pin_values(pinned, "n", range(terms))
    n_grid = _grid_text([(("n",), f"n <= {n_max}", "")], pinned)
    base = pascal(2 * terms + 2)
    even = base.extract_subarray(2, 0)
    odd = base.extract_subarray(2, 1)

    def failed(grid: str, points: int, params: dict, lhs, rhs) -> IdentityReport:
        cex = Counterexample(params, lhs=str(lhs), rhs=str(rhs))
        return IdentityReport("fibonacci-riordan", f"{grid}, {n_grid}", points, cex)

    # the extracted first columns have their own closed forms
    checked = 0
    for label, arr in (("even", even), ("odd", odd)):
        closed_form = _EXTRACTED_D[label]
        for m in coefficients:
            checked += 1
            got, want = arr.d.coeff(m), closed_form(m)
            if got != want:
                params = {"rows": label, "column": "d", "n": str(m)}
                return failed(f"first column of rows {label}", checked, params, got, want)

    checks = [
        ("even", even, _weight_series([0, 1, -1, -1, 1], terms),
         FormalPowerSeries([0, 1], precision=terms), lambda m: fibonacci(2 * m)),
        ("odd", odd, _weight_series([1, -1, 0, -1, 1], terms),
         FormalPowerSeries([1, -1], precision=terms), lambda m: fibonacci(2 * m + 1)),
    ]
    fib_den = FormalPowerSeries([1, -3, 1], precision=terms)
    points = 0
    for label, arr, weight, numerator, fib_value in checks:
        composed = arr.d * weight.compose(arr.h.shift_up())
        target = numerator / fib_den
        for m in coefficients:
            points += 1
            got = composed.coeff(m)
            if got != target.coeff(m) or got != fib_value(m):
                return failed(f"rows {label}", points, {"rows": label, "n": str(m)},
                              got, target.coeff(m))
    return IdentityReport("fibonacci-riordan", f"even and odd extractions, {n_grid}", points)


# -- generating functions of the convolution families -----------------------


def _direct_sum(
    kernel: Callable[[int, int, int, int], Ratio], p: int, v: Scalar, precision: int
) -> FormalPowerSeries:
    """sum_{m < precision} kernel(p, v, m) t^m; the first term that raises, in order of m."""
    _require_terms(precision)
    col = _column(partial(kernel, p, *_ratio(v)), 0, precision)
    if col.faults:
        raise col.faults[min(col.faults)]
    return _series(col.nums, col.den)


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

    ``check_product_laws`` compares it with (1 + w)^(2x) at
    w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = _fraction(x)
    for n in range(1, precision):
        if (2 * p - 1) * n + 2 * x == 0:
            raise PoleError(f"(2p-1)n + 2x vanishes at n = {n}")
    return _direct_sum(_central_power_ratio, p, x, precision)


def central_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C(2(pn+y+1), n) t^n, by direct summation.

    ``check_product_laws`` compares it with (1 - w)(1 + w)^(2y+2) /
    (1 + (1-2p) w) at w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _direct_sum(_central_ballot_ratio, p, y, precision)


# the substitution route of each direct sum above, through the fixed point
# w = t (1 + w)^e of the Lagrange solve


def _fuss_ballot_route(p: int, y: Fraction, precision: int) -> FormalPowerSeries:
    w = _power_fixed_point(p + 1, precision)
    return (1 - w) * (1 + w).pow_rational(y + 1) / (1 - p * w)


def _central_power_route(p: int, x: Fraction, precision: int) -> FormalPowerSeries:
    w = _power_fixed_point(2 * p, precision)
    return (1 + w).pow_rational(2 * x)


def _central_ballot_route(p: int, y: Fraction, precision: int) -> FormalPowerSeries:
    w = _power_fixed_point(2 * p, precision)
    return (1 - w) * (1 + w).pow_rational(2 * y + 2) / (1 + (1 - 2 * p) * w)


def fuss_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The fuss-ballot series as a hypergeometric spec (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    y = _fraction(y)
    return HypergeometricSpec(
        upper=[(y + i) / (p + 1) for i in range(1, p + 2)] + [(y + p) / (p - 1)],
        lower=[(y + i) / p for i in range(2, p + 2)] + [(y + 1) / (p - 1)],
        scale=Fraction((p + 1) ** (p + 1), p**p),
    )


def central_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The central ballot series as a hypergeometric spec (needs p >= 2).

    Parameter lists come from the term ratio: 2p upper entries
    (2y+2+i)/(2p) plus (y+p)/(p-1) and (y+1)/p, against 2p-1 lower
    entries (2y+2+i)/(2p-1) plus (y+1)/(p-1) and (y+p+1)/p.
    """
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    y = _fraction(y)
    upper = [(2 * y + 2 + i) / Fraction(2 * p) for i in range(1, 2 * p + 1)]
    upper += [(y + p) / Fraction(p - 1), (y + 1) / Fraction(p)]
    lower = [(2 * y + 2 + i) / Fraction(2 * p - 1) for i in range(1, 2 * p)]
    lower += [(y + 1) / Fraction(p - 1), (y + p + 1) / Fraction(p)]
    return HypergeometricSpec(
        upper=upper, lower=lower, scale=Fraction((2 * p) ** (2 * p), (2 * p - 1) ** (2 * p - 1))
    )


def check_product_laws(
    p: int, x: Scalar, y: Scalar, precision: int, factors: dict | None = None
) -> IdentityReport:
    """Check the two product laws and their hypergeometric restatements.

    (i)  B_{p+1}^x * fuss_ballot(y) = fuss_ballot(x+y)
    (ii) central_power(x) * central_ballot(y) = central_ballot(x+y)
    plus the same two equalities with every factor produced by the
    generic hypergeometric expansion instead of the direct sums.

    ``factors`` is the memo of one sweep: p -> factor series by kind,
    argument and precision, so that each is built once.  It holds one p
    at a time, since the sweep takes the p values in turn.  Each direct
    sum is compared with its substitution route when it is built; two
    routes that disagree raise ``TheoremViolationError``.
    """
    x, y = _fraction(x), _fraction(y)
    n = precision
    factors = {} if factors is None else factors
    if p not in factors:
        factors.clear()
    memo = factors.setdefault(p, {})

    def factor(key: tuple, build: Callable[[], FormalPowerSeries]) -> FormalPowerSeries:
        series = memo.get((*key, n))
        if series is None:
            series = memo[(*key, n)] = build()
        return series

    def routed(gf: Callable, slot: str, route: Callable, value: Fraction) -> FormalPowerSeries:
        def build() -> FormalPowerSeries:
            direct = gf(p, value, n)
            if direct != route(p, value, n):
                raise TheoremViolationError(
                    f"{gf.__name__} routes disagree for p={p}, {slot}={value}"
                )
            return direct
        return factor((gf.__name__, p, value), build)

    def hyper(spec: Callable, a: int, value: Fraction) -> FormalPowerSeries:
        return factor((spec.__name__, a, value), lambda: expand(spec(a, value), n))

    # every factor (and route check) is built, in this order, before any comparison
    pairs = [
        (
            "binomial-ballot",
            factor(("binomial", p + 1, x), lambda: binomial_series(p + 1, x, n))
            * routed(fuss_ballot_gf, "y", _fuss_ballot_route, y),
            routed(fuss_ballot_gf, "y", _fuss_ballot_route, x + y),
        ),
        (
            "central-ballot",
            routed(central_power_gf, "x", _central_power_route, x)
            * routed(central_ballot_gf, "y", _central_ballot_route, y),
            routed(central_ballot_gf, "y", _central_ballot_route, x + y),
        ),
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
    points = 0
    for label, lhs, rhs in pairs:
        if lhs == rhs:
            points += n
            continue
        m = next(m for m in range(n) if lhs.coeff(m) != rhs.coeff(m))
        return IdentityReport(
            identity="product-laws",
            grid=f"p={p}, x={x}, y={y}, coefficients below {n}",
            points=points + m + 1,
            counterexample=Counterexample(
                {"law": label, "p": str(p), "x": str(x), "y": str(y), "n": str(m)},
                lhs=str(lhs.coeff(m)),
                rhs=str(rhs.coeff(m)),
            ),
        )
    return IdentityReport(
        identity="product-laws",
        grid=f"p={p}, x={x}, y={y}, four laws, coefficients below {n}",
        points=points,
    )


# -- factor columns of the convolution identities -----------------------------
# Each kernel is one term of a factor column, as an integer (numerator,
# denominator) pair.  ``s`` is the start of the left column and
# ``d = k - s`` the offset of the right one.


def _shifted_pascal(p: int, r: int, d: int, m: int) -> Ratio:
    # C(pm+r, m-d)
    return icomb(p * m + r, m - d), 1


def _catalan_triangle_right(p: int, r: int, d: int, m: int) -> Ratio:
    # ((p-1)m+r+d+1)/(pm+r+1) C(2(pm+r+1), m-d)
    return ((p - 1) * m + r + d + 1) * icomb(2 * (p * m + r + 1), m - d), p * m + r + 1


def _ballot_triangle_left(p: int, s: int, j: int) -> Ratio:
    # ps/((p+1)j-s) C((p+1)j-s, j-s)
    return p * s * icomb((p + 1) * j - s, j - s), (p + 1) * j - s


def _ballot_triangle_right(p: int, r: int, d: int, m: int) -> Ratio:
    # ((p-1)m+r+d+1)/(pm+r+1) C((p+1)m+r-d, pm+r); the sum takes no term below m = d
    if m < d:
        return 0, 1
    return ((p - 1) * m + d + r + 1) * icomb((p + 1) * m + r - d, p * m + r), p * m + r + 1


def _shifted_binomial_ratio(z: int, c: int, e: int, m: int) -> Ratio:
    # C(y + zm, m) at y = c/e; (c + zme)/e is in lowest terms
    return _binomial_ratio(c + z * m * e, e, m)


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
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


# a factor maps the slots outside n and the law's (in grid order) and a
# column shift to the term function of its column
Factor = Callable[..., Callable[[int], Ratio]]


class Law(NamedTuple):
    """The Riordan-array law of a convolution row: its extra slots, its points, its rhs."""

    axes: tuple[Axis, ...]  # outer slots it adds after the row's sets
    slots: tuple[str, ...]  # slots it enumerates at each n, through ``values``
    values: Callable[[int, Mapping[str, Scalar]], Iterable[tuple]]
    parts: tuple[GridPart, ...]  # its grid text; a k or s shows only when pinned
    lhs_only: tuple[str, ...]  # slots the lhs takes and the rhs does not
    shifts: Callable[..., tuple[int, int]]  # values -> (left column start, right offset)
    # (right factor, outer slots, the rhs's values) -> the rhs as a term function of n
    rhs: Callable[..., Callable[[int], Ratio]]


# column k of the array is column k - s convolved with (t h)^s: the right factor at offset k
_KS_LAW = Law(
    (), ("k", "s"), _ks_pairs, ((("k",), "", ""), (("s",), "", ""), ((), "1 <= s <= k <= n", "")),
    ("s",), lambda k, s: (s, k - s), lambda right, p, r, k: right(p, r, k),
)
# the column sum: the right factor at (p, r + 1) and offset k - 1
_K_LAW = Law(
    (), ("k",), lambda n, pinned: zip(_k_values(n, pinned)),
    ((("k",), "", ""), ((), "1 <= k <= n", "")),
    (), lambda k: (0, k - 1), lambda right, p, r, k: right(p, r + 1, k - 1),
)
# F_x * G_y = G_{x+y} over the rational grid: the right factor at y := x + y
_VANDERMONDE_LAW = Law(
    (("x", RATIONAL_GRID), ("y", RATIONAL_GRID)), (), lambda n, pinned: ((),),
    (_RATIONAL_PAIR_PART,), (), lambda: (0, 0), lambda right, v, x, y: right(v, x, x + y, 0),
)


class SumIdentity(NamedTuple):
    """A convolution identity sum_j left(j) right(n - j) == its law's rhs, declared as data.

    Its grid is the product of ``sets`` (the integer slots) and the law's
    axes, n in 0..max_n, then the law's slots at each n.  A pinned p below
    ``p_min`` or r below ``r_min`` is refused before any compute.
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


# column shift -> the highest index that a point reads from that column
Reach = dict[int, int]


def _reach(law: Law, n_values: Iterable[int], pinned: Mapping[str, Scalar]) -> tuple[Reach, Reach]:
    """How far the points read each left column (by start) and right column (by offset).

    A point at n reads the left column from its start to n, and the right
    one from 0 to n - start.  The grid of (n, law slots) is the same at
    every value of the other slots, so this is computed once per run.
    """
    lefts: Reach = {}
    rights: Reach = {}
    for n in n_values:
        for values in law.values(n, pinned):
            start, offset = law.shifts(*values)
            lefts[start] = max(lefts.get(start, n), n)
            rights[offset] = max(rights.get(offset, n - start), n - start)
    return lefts, rights


def _check_outer(
    row: SumIdentity, outer: dict, n_values: Iterable[int], reach: tuple[Reach, Reach],
    pinned: Mapping[str, Scalar],
) -> tuple[int, Counterexample | None]:
    """Check the points (n, law slots) at one value ``outer`` of the other slots.

    Returns the points checked and the first counterexample.  Each factor
    column is built on first use, up to the highest index ``reach`` says
    a point reads from it, and dropped on return.
    """
    args = tuple(outer.values())
    law = row.law
    rhs_values = [i for i, slot in enumerate(law.slots) if slot not in law.lhs_only]
    lefts: dict[int, Column] = {}
    rights: dict[int, Column] = {}
    # law values -> (left column, right column, the rhs as a term function of n)
    operands: dict[tuple, tuple[Column, Column, Callable[[int], Ratio]]] = {}

    def column(
        cache: dict[int, Column], factor: Factor, shift: int, start: int, last: Reach
    ) -> Column:
        col = cache.get(shift)
        if col is None:
            col = cache[shift] = _column(factor(*args, shift), start, last[shift] + 1)
        return col

    points = 0
    for n in n_values:
        for values in law.values(n, pinned):
            points += 1
            ops = operands.get(values)
            if ops is None:
                start, offset = law.shifts(*values)
                ops = operands[values] = (
                    column(lefts, row.left, start, start, reach[0]),
                    column(rights, row.right, offset, 0, reach[1]),
                    law.rhs(row.right, *args, *(values[i] for i in rhs_values)),
                )
            left, right, rhs = ops
            num, den = _dot(left, right, n), left.den * right.den
            rnum, rden = rhs(n)
            if rden == 0:  # cross-multiplied, an rhs over 0 would pass any lhs at rnum 0
                raise ZeroDivisionError(f"Fraction({rnum}, 0)")
            if num * rden != rnum * den:
                params = {**outer, "n": n, **dict(zip(law.slots, values))}
                cex = Counterexample(
                    {k: str(v) for k, v in params.items()},
                    str(Fraction(num, den)), str(Fraction(rnum, rden)),
                )
                return points, cex
    return points, None


def _check_sums(
    row: SumIdentity, parts: list[GridPart], max_n: int, pinned: Mapping[str, Scalar]
) -> IdentityReport:
    for slot, least in (("p", row.p_min), ("r", row.r_min), ("n", 0)):
        _require_min(row.id, slot, least, pinned)
    n_values = _pin_values(pinned, "n", range(max_n + 1))
    reach = _reach(row.law, n_values, pinned)
    points = 0
    cex = None
    for outer in _grid_points(row.sets + row.law.axes, pinned):
        checked, cex = _check_outer(row, outer, n_values, reach, pinned)
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
        lambda p, r, s: partial(_power_ratio, p, s),
        lambda p, r, d: partial(_shifted_pascal, p, r, d),
        _PR_SETS, _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "catalan-vandermonde",
        "sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i) = C(x+y+zn, n)",
        lambda z, x, y, _: partial(_catalan_power_ratio, z, *_ratio(x)),
        lambda z, x, y, _: partial(_shifted_binomial_ratio, z, *_ratio(y)),
        _Z_SET, _VANDERMONDE_LAW, None,
    ),
    SumIdentity(
        "catalan-column-sum",
        "sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1) = C(pn+r+1, n-k+1)",
        lambda p, r, _: partial(_catalan_power_ratio, p, 1, 1),
        lambda p, r, d: partial(_shifted_pascal, p, r, d),
        _PR_SETS, _K_LAW, 0, 0,
    ),
    SumIdentity(
        "catalan-triangle-convolution",
        "central convolution over the subsampled Catalan triangle (valid from p = 1 on)",
        lambda p, r, s: partial(_power_ratio, 2 * p, s),
        lambda p, r, d: partial(_catalan_triangle_right, p, r, d),
        (("p", (1, 2, 3, 4)), ("r", (0, 1, 2))), _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "ballot-triangle-convolution",
        "convolution over the subsampled ballot-variant triangle",
        lambda p, r, s: partial(_ballot_triangle_left, p, s),
        lambda p, r, d: partial(_ballot_triangle_right, p, r, d),
        _PR_SETS, _KS_LAW, 1, 0,
    ),
    SumIdentity(
        "ballot-vandermonde",
        "sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot(y, n-i) = ballot(x+y, n)",
        lambda p, x, y, _: partial(_catalan_power_ratio, p + 1, *_ratio(x)),
        lambda p, x, y, _: partial(_ballot_ratio, p, *_ratio(y)),
        _P_SET, _VANDERMONDE_LAW, 0,
    ),
    SumIdentity(
        "rothe-hagen",
        "sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i) "
        "= (x+y)/(x+y+zn) C(x+y+zn, n)",
        lambda z, x, y, _: partial(_catalan_power_ratio, z, *_ratio(x)),
        lambda z, x, y, _: partial(_catalan_power_ratio, z, *_ratio(y)),
        _Z_SET, _VANDERMONDE_LAW, None,
    ),
    SumIdentity(
        "central-binomial-vandermonde",
        "sum_i central-power(x, i) * central-ballot(y, n-i) = central-ballot(x+y, n)",
        lambda p, x, y, _: partial(_central_power_ratio, p, *_ratio(x)),
        lambda p, x, y, _: partial(_central_ballot_ratio, p, *_ratio(y)),
        _P_SET, _VANDERMONDE_LAW, 0,
    ),
)
_SUMS = {row.id: row for row in SUM_IDENTITIES}


# -- the identities' two sides at one point --------------------------------------


def _point(
    identity: str, slots: Mapping[str, Scalar], lhs: bool
) -> tuple[SumIdentity, tuple, tuple]:
    """The row of ``identity`` and the point's outer and law values (the rhs's, if not lhs)."""
    row = _SUMS.get(identity)
    if row is None:
        raise RegistryError(f"unknown sum identity {identity!r}")
    law = row.law
    skip = () if lhs else law.lhs_only
    names = [slot for slot in _slots(row) if slot != "n" and slot not in skip]
    if sorted(slots) != sorted(names):
        raise RegistryError(
            f"identity {identity!r} takes slots {names} besides n, got {sorted(slots)}"
        )
    outer = tuple(slots[slot] for slot in names if slot not in law.slots)
    values = tuple(slots[slot] for slot in law.slots if slot not in skip)
    return row, outer, values


def _require_domain(row: SumIdentity, n: int, slots: Mapping[str, Scalar]) -> None:
    """Refuse one point outside the row's domain by the slot at fault, before any compute.

    That is p below ``p_min``, r below ``r_min``, n below 0, and a k/s
    point outside 1 <= s <= k (an rhs takes no s).
    """
    if row.law is _KS_LAW and "s" in slots:
        p, k, s = slots["p"], slots["k"], slots["s"]
        if p < row.p_min or not 1 <= s <= k:
            raise ValueError(
                f"{row.id} needs p >= {row.p_min} and 1 <= s <= k, got p={p}, k={k}, s={s}"
            )
    point = {**slots, "n": n}
    for slot, least in (("p", row.p_min), ("r", row.r_min), ("n", 0)):
        _require_min(row.id, slot, least, point)


def sum_lhs(identity: str, n: int, **slots: Scalar) -> Fraction:
    """One point's lhs: the dot product at n of the row's two factor columns.

    A point outside the row's domain is refused (see :func:`_require_domain`).
    """
    row, outer, values = _point(identity, slots, lhs=True)
    _require_domain(row, n, slots)
    start, offset = row.law.shifts(*values)
    left = _column(row.left(*outer, start), start, n + 1)
    right = _column(row.right(*outer, offset), 0, n + 1)
    return Fraction(_dot(left, right, n), left.den * right.den)


def sum_rhs(identity: str, n: int, **slots: Scalar) -> Fraction:
    """One point's rhs, the right factor at the law's summed parameter; no ``lhs_only`` slot.

    A point outside the row's domain is refused, as by :func:`sum_lhs`.
    """
    row, outer, values = _point(identity, slots, lhs=False)
    _require_domain(row, n, slots)
    return Fraction(*row.law.rhs(row.right, *outer, *values)(n))


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

    ``check`` takes the point's slots, the precision and ``factors``, a
    memo that lives as long as this sweep.
    """
    _require_min(identity, "p", p_min, pinned)
    precision = min(max_n + 1, cap)
    factors: dict = {}
    points = 0
    for params in _grid_points(axes, pinned):
        rep = check(*params.values(), precision, factors=factors)
        points += rep.points
        if not rep.holds:
            return IdentityReport(identity, rep.grid, points, rep.counterexample)
    grid = f"{_grid_text(parts, pinned)}, coefficients below {precision}"
    return IdentityReport(identity, grid, points)


def _andrews_entry(variant: str) -> RegistryEntry:
    index, n_min, _ = ANDREWS_VARIANTS[variant]
    return RegistryEntry(
        f"andrews-{variant}",
        "alternating binomial sum over a period-5 window equals a Fibonacci number "
        f"(parameter n maps to F with index like {index(3)} at n=3)",
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


def _exact_pin(identity: str, slot: str, value: Scalar) -> Scalar:
    """A pin as the grid takes it: a float is refused, an integer slot's value made an int."""
    if isinstance(value, float):
        raise RegistryError(f"identity {identity!r} needs an exact {slot}, got {slot}={value}")
    if slot not in ("n", "p", "r", "z", "k", "s"):
        return value
    if Fraction(value).denominator != 1:
        raise RegistryError(f"identity {identity!r} needs an integer {slot}, got {slot}={value}")
    return int(value)


def check_registry(
    identity: str, max_n: int = 20, pinned: Mapping[str, Scalar] | None = None
) -> IdentityReport:
    """Run one registry identity over its grid (optionally pinning slots to exact values)."""
    entry = REGISTRY.get(identity)
    if entry is None:
        raise RegistryError(f"unknown identity {identity!r}")
    pinned = pinned or {}
    bad = set(pinned) - set(entry.slots)
    if bad:
        raise RegistryError(
            f"identity {identity!r} has no slots {sorted(bad)}; available: {entry.slots}"
        )
    pinned = {slot: _exact_pin(identity, slot, value) for slot, value in pinned.items()}
    return entry.run(max_n=max_n, pinned=pinned)
