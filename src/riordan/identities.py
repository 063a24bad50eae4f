"""A registry of exact combinatorial identities with brute-force checkers.

Every identity is evaluated on finite parameter grids with both sides
computed independently and exactly: alternating binomial sums against the
Fibonacci recurrence, convolution sums against closed-form binomials, and
product laws of generating functions coefficient by coefficient.  Infinite
sums are reduced to finite windows derived from the support of the
binomial coefficients (zero outside 0 <= lower <= upper) and widened by
one term on each side as a guard.

Binomial convention: C(n, m) = 0 for m < 0 or m > n when n >= 0; for a
rational upper argument the falling-factorial product is used.  Floors of
negative arguments round toward minus infinity (Python's ``//``).

Identities are data.  Each Andrews row maps n to (U, L1, L2) for one sum
``andrews_sum`` = sum_j C(U, L1 - 5j) - C(U, L2 - 5j); for a1/a2,
sum_k (-1)^k C(U, floor((n-1-5k)/2)) with U = n-1 or n splits by the
parity of k into L1 = floor((n-1)/2) and L2 = floor((n-6)/2).  Each
pointwise sum identity is one ``SumIdentity`` row (lhs, rhs, slot sets,
k/s tail) run by one grid runner.

Representation: the pointwise sums and the binomial-type terms run on
plain integers.  A rational argument x enters as the pair
(x.numerator, x.denominator), a term is an integer (numerator,
denominator) pair, e.g. C(a/b, k) = prod(a - i b) / (b^k k!), and each
sum keeps one integer total over a running common denominator that grows
(by a two-argument lcm) only when a term's denominator does not divide
it.  One ``Fraction`` is built per evaluated point; the public term
functions (``binomial`` and the ``_*_term`` helpers) are thin
``Fraction`` wrappers over the cached integer kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .arrays import TheoremViolationError, pascal
from .hypergeom import (
    HypergeometricSpec,
    PoleError,
    binomial_series,
    expand,
    power_spec,
    verify_power_identity,
)
from .reports import Counterexample, IdentityReport
from .series import FormalPowerSeries, lagrange_solve

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
    x = Fraction(x)
    return x.numerator, x.denominator


def _reduced(num: int, den: int) -> Ratio:
    g = gcd(num, den)
    return num // g, den // g


def _sum_ratios(terms: Iterable[Ratio]) -> Fraction:
    """Exact sum of (numerator, denominator) terms over one running denominator.

    The denominator is raised to the lcm only when a term's denominator
    does not divide it; a zero denominator raises ``ZeroDivisionError``.
    """
    total, den = 0, 1
    for num, d in terms:
        if den % d:
            common = lcm(den, d)
            total *= common // den
            den = common
        total += num * (den // d)
    return Fraction(total, den)


def _convolve_ratios(
    left: Callable[[int], Ratio], right: Callable[[int], Ratio], n: int
) -> Fraction:
    """sum_{i=0..n} left(i) * right(n - i) for (numerator, denominator) terms."""
    pairs = zip(map(left, range(n + 1)), map(right, range(n, -1, -1)))
    return _sum_ratios((u * w, v * t) for (u, v), (w, t) in pairs)


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


@lru_cache(maxsize=4096)
def _catalan_power_ratio(z: int, a: int, b: int, i: int) -> Ratio:
    # x/(x + zi) C(x + zi, i) at x = a/b, in the cancelled form
    # x prod_{1<=m<i} (x + zi - m) / i!, valid for rational x; equals [t^i]
    # of the x-th power of the generalized binomial series with step z
    if i == 0:
        return 1, 1
    num = a
    for m in range(1, i):
        num *= a + (z * i - m) * b
    return _reduced(num, b**i * factorial(i))


@lru_cache(maxsize=2048)
def _central_power_ratio(p: int, a: int, b: int, i: int) -> Ratio:
    # 2x/((2p-1)i + 2x) C(2pi + 2x - 1, i) at x = a/b, cancelled: the
    # denominator is the last factor of the falling product, so the first
    # i-1 factors remain
    if i == 0:
        return 1, 1
    num = 2 * a
    for m in range(i - 1):
        num *= 2 * a + (2 * p * i - 1 - m) * b
    return _reduced(num, b**i * factorial(i))


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
    num, den = _binomial_ratio(*_ratio(a), k)
    return Fraction(num, den)


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
    num, den = _catalan_power_ratio(z, *_ratio(x), i)
    return Fraction(num, den)


def _central_power_term(p: int, x: Scalar, i: int) -> Fraction:
    num, den = _central_power_ratio(p, *_ratio(x), i)
    return Fraction(num, den)


def _ballot_term(p: int, y: Scalar, m: int) -> Fraction:
    num, den = _ballot_ratio(p, *_ratio(y), m)
    return Fraction(num, den)


def _central_ballot_term(p: int, y: Scalar, m: int) -> Fraction:
    num, den = _central_ballot_ratio(p, *_ratio(y), m)
    return Fraction(num, den)


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


def check_andrews(identity: str, n_max: int) -> IdentityReport:
    """Check one alternating-binomial Fibonacci identity for all n <= n_max."""
    if identity not in ANDREWS_VARIANTS:
        raise RegistryError(f"unknown Andrews variant {identity!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    index, n_min, window = ANDREWS_VARIANTS[identity]
    points = 0
    cex = None
    for n in range(n_min, n_max + 1):
        points += 1
        lhs, rhs = fibonacci(index(n)), andrews_sum(*window(n))
        if lhs != rhs:
            cex = Counterexample({"n": str(n)}, lhs=str(lhs), rhs=str(rhs))
            break
    return IdentityReport(f"andrews-{identity}", f"{n_min} <= n <= {n_max}", points, cex)


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


def check_via_riordan(n_max: int) -> IdentityReport:
    """Reproduce the generating-function proof of the Fibonacci identities.

    Extracts every other row of Pascal's triangle, forms d(t) f(t h(t))
    for the period-5 weight f = (t - t^2 - t^3 + t^4)/(1 - t^5), and checks
    it equals t/(1 - 3t + t^2), whose coefficients are F_{2n}.  The
    odd-row extraction with weights (1 - t - t^3 + t^4)/(1 - t^5) must
    likewise give (1 - t)/(1 - 3t + t^2), the F_{2n+1} generating function.
    """
    n = n_max + 1
    base = pascal(2 * n + 2)
    even = base.extract_subarray(2, 0)
    odd = base.extract_subarray(2, 1)

    def failed(grid: str, points: int, params: dict, lhs, rhs) -> IdentityReport:
        cex = Counterexample(params, lhs=str(lhs), rhs=str(rhs))
        return IdentityReport("fibonacci-riordan", f"{grid}, n <= {n_max}", points, cex)

    # the extracted first columns have their own closed forms
    checked = 0
    for label, arr in (("even", even), ("odd", odd)):
        closed_form = _EXTRACTED_D[label]
        for m in range(n):
            checked += 1
            got, want = arr.d.coeff(m), closed_form(m)
            if got != want:
                params = {"rows": label, "column": "d", "n": str(m)}
                return failed(f"first column of rows {label}", checked, params, got, want)

    checks = [
        ("even", even, _weight_series([0, 1, -1, -1, 1], n),
         FormalPowerSeries([0, 1], precision=n), lambda m: fibonacci(2 * m)),
        ("odd", odd, _weight_series([1, -1, 0, -1, 1], n),
         FormalPowerSeries([1, -1], precision=n), lambda m: fibonacci(2 * m + 1)),
    ]
    fib_den = FormalPowerSeries([1, -3, 1], precision=n)
    points = 0
    for label, arr, weight, numerator, fib_value in checks:
        composed = arr.d * weight.compose(arr.h.shift_up())
        target = numerator / fib_den
        for m in range(n):
            points += 1
            got = composed.coeff(m)
            if got != target.coeff(m) or got != fib_value(m):
                return failed(f"rows {label}", points, {"rows": label, "n": str(m)},
                              got, target.coeff(m))
    return IdentityReport("fibonacci-riordan", f"even and odd extractions, n <= {n_max}", points)


# -- generating functions of the convolution families -----------------------


def fuss_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C((p+1)n+y, n) t^n, checked two ways.

    The direct summation must agree with the substitution route
    (1 - w)(1 + w)^(y+1) / (1 - p w) at w = t (1 + w)^(p+1).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    y = Fraction(y)
    direct = FormalPowerSeries([_ballot_term(p, y, m) for m in range(precision)])
    w = _power_fixed_point(p + 1, precision)
    via = (1 - w) * (1 + w).pow_rational(y + 1) / (1 - p * w)
    if direct != via:
        raise TheoremViolationError(
            f"fuss_ballot_gf routes disagree for p={p}, y={y}"
        )
    return direct


def central_power_gf(p: int, x: Scalar, precision: int) -> FormalPowerSeries:
    """sum 2x/((2p-1)n+2x) C(2pn+2x-1, n) t^n, checked two ways.

    Direct summation against (1 + w)^(2x) at w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = Fraction(x)
    for n in range(1, precision):
        if (2 * p - 1) * n + 2 * x == 0:
            raise PoleError(f"(2p-1)n + 2x vanishes at n = {n}")
    direct = FormalPowerSeries([_central_power_term(p, x, m) for m in range(precision)])
    w = _power_fixed_point(2 * p, precision)
    via = (1 + w).pow_rational(2 * x)
    if direct != via:
        raise TheoremViolationError(
            f"central_power_gf routes disagree for p={p}, x={x}"
        )
    return direct


def central_ballot_gf(p: int, y: Scalar, precision: int) -> FormalPowerSeries:
    """sum ((p-1)n+y+1)/(pn+y+1) C(2(pn+y+1), n) t^n, checked two ways.

    Direct summation against (1 - w)(1 + w)^(2y+2) / (1 + (1-2p) w) at
    w = t (1 + w)^(2p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    y = Fraction(y)
    direct = FormalPowerSeries(
        [_central_ballot_term(p, y, m) for m in range(precision)]
    )
    w = _power_fixed_point(2 * p, precision)
    via = (1 - w) * (1 + w).pow_rational(2 * y + 2) / (1 + (1 - 2 * p) * w)
    if direct != via:
        raise TheoremViolationError(
            f"central_ballot_gf routes disagree for p={p}, y={y}"
        )
    return direct


def fuss_ballot_spec(p: int, y: Scalar) -> HypergeometricSpec:
    """The fuss-ballot series as a hypergeometric spec (needs p >= 2)."""
    if p < 2:
        raise ValueError(f"the hypergeometric form needs p >= 2, got {p}")
    y = Fraction(y)
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
    y = Fraction(y)
    upper = [(2 * y + 2 + i) / Fraction(2 * p) for i in range(1, 2 * p + 1)]
    upper += [(y + p) / Fraction(p - 1), (y + 1) / Fraction(p)]
    lower = [(2 * y + 2 + i) / Fraction(2 * p - 1) for i in range(1, 2 * p)]
    lower += [(y + 1) / Fraction(p - 1), (y + p + 1) / Fraction(p)]
    return HypergeometricSpec(
        upper=upper, lower=lower, scale=Fraction((2 * p) ** (2 * p), (2 * p - 1) ** (2 * p - 1))
    )


def check_product_laws(p: int, x: Scalar, y: Scalar, precision: int) -> IdentityReport:
    """Check the two product laws and their hypergeometric restatements.

    (i)  B_{p+1}^x * fuss_ballot(y) = fuss_ballot(x+y)
    (ii) central_power(x) * central_ballot(y) = central_ballot(x+y)
    plus the same two equalities with every factor produced by the
    generic hypergeometric expansion instead of the direct sums.
    """
    x, y = Fraction(x), Fraction(y)
    n = precision
    pairs = [
        (
            "binomial-ballot",
            binomial_series(p + 1, x, n) * fuss_ballot_gf(p, y, n),
            fuss_ballot_gf(p, x + y, n),
        ),
        (
            "central-ballot",
            central_power_gf(p, x, n) * central_ballot_gf(p, y, n),
            central_ballot_gf(p, x + y, n),
        ),
        (
            "binomial-ballot-hypergeometric",
            expand(power_spec(p + 1, x), n) * expand(fuss_ballot_spec(p, y), n),
            expand(fuss_ballot_spec(p, x + y), n),
        ),
        (
            "central-ballot-hypergeometric",
            expand(power_spec(2 * p, 2 * x), n) * expand(central_ballot_spec(p, y), n),
            expand(central_ballot_spec(p, x + y), n),
        ),
    ]
    points = 0
    for label, lhs, rhs in pairs:
        for m in range(n):
            points += 1
            if lhs.coeff(m) != rhs.coeff(m):
                return IdentityReport(
                    identity="product-laws",
                    grid=f"p={p}, x={x}, y={y}, coefficients below {n}",
                    points=points,
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


# -- pointwise summation identities -------------------------------------------


def subarray_convolution_lhs(p: int, r: int, n: int, k: int, s: int) -> Fraction:
    """sum_j ps/((p-1)j+s) C(pj-1, j-s) C(p(n-j)+r, n-j-k+s)."""
    return _sum_ratios(
        (
            p * s * icomb(p * j - 1, j - s) * icomb(p * (n - j) + r, n - j - k + s),
            (p - 1) * j + s,
        )
        for j in range(s, n + 1)
    )


def subarray_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction(icomb(p * n + r, n - k))


def catalan_vandermonde_lhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i)."""
    c, e = _ratio(y)
    return _convolve_ratios(
        partial(_catalan_power_ratio, z, *_ratio(x)),
        # y + zm = (c + zme)/e is in lowest terms
        lambda m: _binomial_ratio(c + z * m * e, e, m),
        n,
    )


def catalan_vandermonde_rhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return binomial(Fraction(x) + Fraction(y) + z * n, n)


def catalan_column_sum_lhs(p: int, r: int, n: int, k: int) -> Fraction:
    """sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1)."""
    return _sum_ratios(
        (icomb(p * j + 1, j) * icomb(p * (n - j) + r, n - j - k + 1), p * j + 1)
        for j in range(n + 1)
    )


def catalan_column_sum_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction(icomb(p * n + r + 1, n - k + 1))


def catalan_triangle_convolution_lhs(p: int, r: int, n: int, k: int, s: int) -> Fraction:
    """The convolution over the subsampled Catalan triangle entries."""
    return _sum_ratios(
        (
            2 * p * s
            * icomb(2 * p * j - 1, j - s)
            * ((p - 1) * (n - j) + r + k - s + 1)
            * icomb(2 * (p * (n - j) + r + 1), n - j - k + s),
            ((2 * p - 1) * j + s) * (p * (n - j) + r + 1),
        )
        for j in range(s, n + 1)
    )


def catalan_triangle_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction((p - 1) * n + r + k + 1, p * n + r + 1) * icomb(
        2 * (p * n + r + 1), n - k
    )


def ballot_triangle_convolution_lhs(p: int, r: int, n: int, k: int, s: int) -> Fraction:
    """The convolution over the subsampled ballot-variant triangle entries."""
    return _sum_ratios(
        (
            p * s
            * icomb((p + 1) * j - s, j - s)
            * ((p - 1) * (n - j) + k - s + r + 1)
            * icomb((p + 1) * (n - j) + r - k + s, p * (n - j) + r),
            ((p + 1) * j - s) * (p * (n - j) + r + 1),
        )
        for j in range(s, n - k + s + 1)
    )


def ballot_triangle_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction((p - 1) * n + k + r + 1, p * n + r + 1) * icomb(
        (p + 1) * n + r - k, p * n + r
    )


def ballot_vandermonde_lhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot term at y, index n-i."""
    return _convolve_ratios(
        partial(_catalan_power_ratio, p + 1, *_ratio(x)),
        partial(_ballot_ratio, p, *_ratio(y)),
        n,
    )


def ballot_vandermonde_rhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return _ballot_term(p, Fraction(x) + Fraction(y), n)


def rothe_hagen_lhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i)."""
    return _convolve_ratios(
        partial(_catalan_power_ratio, z, *_ratio(x)),
        partial(_catalan_power_ratio, z, *_ratio(y)),
        n,
    )


def rothe_hagen_rhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return _catalan_power_term(z, Fraction(x) + Fraction(y), n)


def central_vandermonde_lhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i central power term at x * central ballot term at y."""
    return _convolve_ratios(
        partial(_central_power_ratio, p, *_ratio(x)),
        partial(_central_ballot_ratio, p, *_ratio(y)),
        n,
    )


def central_vandermonde_rhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return _central_ballot_term(p, Fraction(x) + Fraction(y), n)


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


def _ks_pairs(
    n: int, pinned: Mapping[str, Scalar], full_upto: int = 20
) -> Iterator[tuple[int, int]]:
    # all (k, s) with 1 <= s <= k <= n for small n, a corner sample beyond;
    # a pinned k or s is enumerated with every valid partner at every n
    if n <= full_upto or "k" in pinned or "s" in pinned:
        for k in _pin_values(pinned, "k", range(1, n + 1)):
            if 1 <= k <= n:
                for s in _pin_values(pinned, "s", range(1, k + 1)):
                    if 1 <= s <= k:
                        yield k, s
    else:
        for k in sorted({1, n // 2, n}):
            for s in sorted({1, (k + 1) // 2, k}):
                yield k, s


def _k_values(n: int, pinned: Mapping[str, Scalar], full_upto: int = 20) -> Iterator[int]:
    if n <= full_upto or "k" in pinned:
        for k in _pin_values(pinned, "k", range(1, n + 1)):
            if 1 <= k <= n:
                yield k
    else:
        yield from sorted({1, n // 2, n})


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


# a grid axis: a slot and its default values; pins of the integer slots are cast to int
Axis = tuple[str, Iterable]
_INTEGER_SLOTS = ("p", "r", "z")


def _grid_points(axes: tuple[Axis, ...], pinned: Mapping[str, Scalar]) -> Iterator[dict]:
    """Every point of the product of the axes, a pinned slot replacing its default set."""
    pins = {slot: int(v) if slot in _INTEGER_SLOTS else v for slot, v in pinned.items()}
    names = [slot for slot, _ in axes]
    sets = [_pin_values(pins, slot, values) for slot, values in axes]
    return (dict(zip(names, combo)) for combo in product(*sets))


class Tail(NamedTuple):
    """The slots a triangle identity enumerates per n after the rest of its grid."""

    slots: tuple[str, ...]
    values: Callable[[int, Mapping[str, Scalar]], Iterable[tuple]]
    constraint: str  # grid text of the default range
    lhs_only: tuple[str, ...]  # slots the lhs takes and the rhs does not


_KS_TAIL = Tail(("k", "s"), _ks_pairs, "1 <= s <= k <= n", ("s",))
_K_TAIL = Tail(("k",), lambda n, pinned: zip(_k_values(n, pinned)), "1 <= k <= n", ())
_NO_TAIL = Tail((), lambda n, pinned: ((),), "", ())


class SumIdentity(NamedTuple):
    """A pointwise identity lhs == rhs, declared as data.

    Its grid is the product of ``sets`` (the integer slots), x and y over
    RATIONAL_GRID when they are slots, n in 0..max_n, then the tail at
    each n.  A pinned p below ``p_min`` is refused before any compute.
    """

    id: str
    slots: tuple[str, ...]
    description: str
    lhs: Callable[..., Fraction]
    rhs: Callable[..., Fraction]
    sets: tuple[Axis, ...]
    tail: Tail
    p_min: int | None


def _sum_points(row: SumIdentity, max_n: int, pinned: Mapping[str, Scalar]) -> Iterator[dict]:
    axes = row.sets + tuple((slot, RATIONAL_GRID) for slot in ("x", "y") if slot in row.slots)
    for point in _grid_points(axes + (("n", range(max_n + 1)),), pinned):
        for values in row.tail.values(point["n"], pinned):
            yield {**point, **dict(zip(row.tail.slots, values))}


def _require_p(identity: str, p_min: int | None, pinned: Mapping[str, Scalar]) -> None:
    """Refuse a pinned p below the identity's domain, before any compute."""
    if p_min is not None and pinned.get("p", p_min) < p_min:
        raise RegistryError(f"identity {identity!r} needs p >= {p_min}, got p={pinned['p']}")


def _check_sums(
    row: SumIdentity, parts: list[GridPart], max_n: int, pinned: Mapping[str, Scalar]
) -> IdentityReport:
    _require_p(row.id, row.p_min, pinned)
    points = 0
    cex = None
    for params in _sum_points(row, max_n, pinned):
        points += 1
        left = row.lhs(**params)
        right = row.rhs(**{k: v for k, v in params.items() if k not in row.tail.lhs_only})
        if left != right:
            cex = Counterexample({k: str(v) for k, v in params.items()}, str(left), str(right))
            break
    grid = _grid_text([*parts, (("n",), f"n <= {max_n}", "")], pinned)
    return IdentityReport(row.id, grid, points, cex)


def _sum_entry(row: SumIdentity) -> RegistryEntry:
    parts = [((s,), f"{s} in ({','.join(map(str, v))})", "") for s, v in row.sets]
    if "x" in row.slots:
        parts.append(_RATIONAL_PAIR_PART)
    # k and s have no set of their own (the constraint names it): they show only when pinned
    parts += [((slot,), "", "") for slot in row.tail.slots] + [((), row.tail.constraint, "")]
    run = partial(_check_sums, row, parts)
    return RegistryEntry(row.id, row.description, row.slots, _grid_text(parts, {}), run)


_P_SET, _Z_SET = (("p", (2, 3, 4)),), (("z", (2, 3, 4)),)
_PR_SETS = _P_SET + (("r", (0, 1, 2)),)
SUM_IDENTITIES = (
    SumIdentity(
        "subarray-convolution", ("p", "r", "n", "k", "s"),
        "sum_j ps/((p-1)j+s) C(pj-1, j-s) C(p(n-j)+r, n-j-k+s) = C(pn+r, n-k)",
        subarray_convolution_lhs, subarray_convolution_rhs, _PR_SETS, _KS_TAIL, 1,
    ),
    SumIdentity(
        "catalan-vandermonde", ("z", "x", "y", "n"),
        "sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i) = C(x+y+zn, n)",
        catalan_vandermonde_lhs, catalan_vandermonde_rhs, _Z_SET, _NO_TAIL, None,
    ),
    SumIdentity(
        "catalan-column-sum", ("p", "r", "n", "k"),
        "sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1) = C(pn+r+1, n-k+1)",
        catalan_column_sum_lhs, catalan_column_sum_rhs, _PR_SETS, _K_TAIL, 0,
    ),
    SumIdentity(
        "catalan-triangle-convolution", ("p", "r", "n", "k", "s"),
        "central convolution over the subsampled Catalan triangle (valid from p = 1 on)",
        catalan_triangle_convolution_lhs, catalan_triangle_convolution_rhs,
        (("p", (1, 2, 3, 4)), ("r", (0, 1, 2))), _KS_TAIL, 1,
    ),
    SumIdentity(
        "ballot-triangle-convolution", ("p", "r", "n", "k", "s"),
        "convolution over the subsampled ballot-variant triangle",
        ballot_triangle_convolution_lhs, ballot_triangle_convolution_rhs, _PR_SETS, _KS_TAIL, 1,
    ),
    SumIdentity(
        "ballot-vandermonde", ("p", "x", "y", "n"),
        "sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot(y, n-i) = ballot(x+y, n)",
        ballot_vandermonde_lhs, ballot_vandermonde_rhs, _P_SET, _NO_TAIL, 0,
    ),
    SumIdentity(
        "rothe-hagen", ("z", "x", "y", "n"),
        "sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i) "
        "= (x+y)/(x+y+zn) C(x+y+zn, n)",
        rothe_hagen_lhs, rothe_hagen_rhs, _Z_SET, _NO_TAIL, None,
    ),
    SumIdentity(
        "central-binomial-vandermonde", ("p", "x", "y", "n"),
        "sum_i central-power(x, i) * central-ballot(y, n-i) = central-ballot(x+y, n)",
        central_vandermonde_lhs, central_vandermonde_rhs, _P_SET, _NO_TAIL, 0,
    ),
)


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
    """Add up the sub-reports of ``check`` over a grid; stop at the first failure."""
    _require_p(identity, p_min, pinned)
    precision = min(max_n + 1, cap)
    points = 0
    for params in _grid_points(axes, pinned):
        rep = check(*params.values(), precision)
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
        lambda max_n, pinned: check_andrews(variant, max_n),
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
            lambda max_n, pinned: check_via_riordan(max_n),
        ),
        *map(_sum_entry, SUM_IDENTITIES),
        RegistryEntry(
            "product-laws",
            "binomial-power and central product laws of the ballot series, "
            "directly and through hypergeometric expansion",
            ("p", "x", "y"), "p in (2, 3), (x, y) over the rational grid",
            partial(
                _sweep, "product-laws", lambda *args: check_product_laws(*args),
                (("p", (2, 3)), ("x", RATIONAL_GRID), ("y", RATIONAL_GRID)), 25,
                ((("p",), "p in (2, 3)", ""), _RATIONAL_PAIR_PART), 2,
            ),
        ),
        RegistryEntry(
            "hypergeometric-power-law",
            "rational powers of the base hypergeometric stream stay hypergeometric",
            ("p", "x"), "q in (2, 3, 4), exponents (2, 3, 1/2, 5/2)",
            partial(
                _sweep, "hypergeometric-power-law", lambda *args: verify_power_identity(*args),
                (("p", (2, 3, 4)), ("x", (2, 3, Fraction(1, 2), Fraction(5, 2)))), 30,
                ((("p",), "q in (2, 3, 4)", ""), (("x",), "rational exponents", "")), None,
            ),
        ),
    )
}


def registry_entries() -> list[RegistryEntry]:
    return list(REGISTRY.values())


def check_registry(
    identity: str, max_n: int = 20, pinned: Mapping[str, Scalar] | None = None
) -> IdentityReport:
    """Run one registry identity over its grid (optionally pinning slots)."""
    entry = REGISTRY.get(identity)
    if entry is None:
        raise RegistryError(f"unknown identity {identity!r}")
    pinned = pinned or {}
    bad = set(pinned) - set(entry.slots)
    if bad:
        raise RegistryError(
            f"identity {identity!r} has no slots {sorted(bad)}; available: {entry.slots}"
        )
    return entry.run(max_n=max_n, pinned=pinned)
