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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping, Union

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

_ZERO = Fraction(0)
_ONE = Fraction(1)

# rational sample points for identities that are polynomial in their slots
RATIONAL_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3, 7))


class RegistryError(ValueError):
    """Unknown identity id or unsupported parameter pin."""


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def binomial(a: Scalar, k: int) -> Fraction:
    """Generalized binomial: falling-factorial product over k!; 0 for k < 0."""
    if k < 0:
        return _ZERO
    a = Fraction(a)
    if a.denominator == 1 and a >= 0:
        return Fraction(icomb(int(a), k))
    num = _ONE
    for i in range(k):
        num *= a - i
    return num / factorial(k)


_fib_cache = [0, 1]


def fibonacci(n: int) -> int:
    """Exact F_n with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError(f"fibonacci needs n >= 0, got {n}")
    while len(_fib_cache) <= n:
        _fib_cache.append(_fib_cache[-1] + _fib_cache[-2])
    return _fib_cache[n]


@lru_cache(maxsize=None)
def _catalan_power_term(z: int, x: Scalar, i: int) -> Fraction:
    # x/(x + zi) C(x + zi, i), in the cancelled form x prod(x + zi - m)/i!
    # valid for rational x; equals [t^i] of the x-th power of the
    # generalized binomial series with step z
    if i == 0:
        return _ONE
    x = Fraction(x)
    prod = x
    for m in range(1, i):
        prod *= x + z * i - m
    return prod / factorial(i)


@lru_cache(maxsize=None)
def _central_power_term(p: int, x: Scalar, i: int) -> Fraction:
    # 2x/((2p-1)i + 2x) C(2pi + 2x - 1, i), cancelled: the denominator is the
    # last factor of the falling product, so the first i-1 factors remain
    if i == 0:
        return _ONE
    x = Fraction(x)
    prod = 2 * x
    for m in range(i - 1):
        prod *= 2 * p * i + 2 * x - 1 - m
    return prod / factorial(i)


def _ballot_term(p: int, y: Scalar, m: int) -> Fraction:
    # ((p-1)m + y + 1)/(pm + y + 1) C((p+1)m + y, m)
    y = Fraction(y)
    den = p * m + y + 1
    if den == 0:
        raise PoleError(f"pm + y + 1 vanishes at m = {m}")
    return ((p - 1) * m + y + 1) / den * binomial((p + 1) * m + y, m)


def _central_ballot_term(p: int, y: Scalar, m: int) -> Fraction:
    # ((p-1)m + y + 1)/(pm + y + 1) C(2(pm + y + 1), m)
    y = Fraction(y)
    den = p * m + y + 1
    if den == 0:
        raise PoleError(f"pm + y + 1 vanishes at m = {m}")
    return ((p - 1) * m + y + 1) / den * binomial(2 * (p * m + y + 1), m)


# -- the Fibonacci / alternating binomial suite --------------------------


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _sum_a1(n: int) -> int:
    # sum_k (-1)^k C(n-1, floor((n-1-5k)/2)), n >= 1
    lo, hi = -(n // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * icomb(n - 1, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def _sum_a2(n: int) -> int:
    lo, hi = -((n + 2) // 5) - 1, (n - 1) // 5 + 1
    return sum(_sign(k) * icomb(n, (n - 1 - 5 * k) // 2) for k in range(lo, hi + 1))


def _sum_a3(n: int) -> int:
    lo, hi = -((n + 2) // 5) - 1, n // 5 + 1
    return sum(
        icomb(2 * n + 1, n - 5 * j) - icomb(2 * n + 1, n - 5 * j - 1)
        for j in range(lo, hi + 1)
    )


def _sum_a121(n: int) -> int:
    lo, hi = -((n + 3) // 5) - 1, n // 5 + 1
    return sum(
        icomb(2 * n + 2, n - 5 * j) - icomb(2 * n + 2, n - 5 * j - 1)
        for j in range(lo, hi + 1)
    )


def _sum_a5(n: int) -> int:
    lo, hi = -((n + 3) // 5) - 1, n // 5 + 1
    return sum(
        icomb(2 * n + 1, n - 5 * j) - icomb(2 * n + 1, n - 5 * j - 2)
        for j in range(lo, hi + 1)
    )


def _sum_a6(n: int) -> int:
    lo, hi = -((n + 2) // 5) - 1, n // 5 + 1
    return sum(
        icomb(2 * n, n - 5 * j) - icomb(2 * n, n - 5 * j - 2)
        for j in range(lo, hi + 1)
    )


def _sum_a122(n: int) -> int:
    lo, hi = -((n + 2) // 5) - 1, (n - 1) // 5 + 1
    return sum(
        icomb(2 * n, n - 5 * j - 1) - icomb(2 * n, n - 5 * j - 2)
        for j in range(lo, hi + 1)
    )


# id -> (fibonacci index for parameter n, smallest valid n, summation)
ANDREWS_VARIANTS: dict[str, tuple[Callable[[int], int], int, Callable[[int], int]]] = {
    "a1": (lambda n: n, 1, _sum_a1),
    "a2": (lambda n: n, 1, _sum_a2),
    "a3": (lambda n: 2 * n + 1, 0, _sum_a3),
    "a121": (lambda n: 2 * n + 2, 0, _sum_a121),
    "a5": (lambda n: 2 * n + 2, 0, _sum_a5),
    "a6": (lambda n: 2 * n + 1, 0, _sum_a6),
    "a122": (lambda n: 2 * n, 0, _sum_a122),
}


def check_andrews(identity: str, n_max: int) -> IdentityReport:
    """Check one alternating-binomial Fibonacci identity for all n <= n_max."""
    if identity not in ANDREWS_VARIANTS:
        raise RegistryError(f"unknown Andrews variant {identity!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    index, n_min, total = ANDREWS_VARIANTS[identity]
    points = 0
    cex = None
    for n in range(n_min, n_max + 1):
        points += 1
        lhs, rhs = fibonacci(index(n)), total(n)
        if lhs != rhs:
            cex = Counterexample({"n": str(n)}, lhs=str(lhs), rhs=str(rhs))
            break
    return IdentityReport(
        identity=f"andrews-{identity}",
        grid=f"{n_min} <= n <= {n_max}",
        points=points,
        counterexample=cex,
    )


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

    # the extracted first columns have their own closed forms
    checked = 0
    for label, arr in (("even", even), ("odd", odd)):
        closed_form = _EXTRACTED_D[label]
        for m in range(n):
            checked += 1
            got, want = arr.d.coeff(m), closed_form(m)
            if got != want:
                return IdentityReport(
                    identity="fibonacci-riordan",
                    grid=f"first column of rows {label}, n <= {n_max}",
                    points=checked,
                    counterexample=Counterexample(
                        {"rows": label, "column": "d", "n": str(m)},
                        lhs=str(got),
                        rhs=str(want),
                    ),
                )

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
                return IdentityReport(
                    identity="fibonacci-riordan",
                    grid=f"rows {label}, n <= {n_max}",
                    points=points,
                    counterexample=Counterexample(
                        {"rows": label, "n": str(m)},
                        lhs=str(got),
                        rhs=str(target.coeff(m)),
                    ),
                )
    return IdentityReport(
        identity="fibonacci-riordan",
        grid=f"even and odd extractions, n <= {n_max}",
        points=points,
    )


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


def central_gfs(
    p: int, x: Scalar, y: Scalar, precision: int
) -> tuple[FormalPowerSeries, FormalPowerSeries]:
    """The pair (central power series at x, central ballot series at y)."""
    return central_power_gf(p, x, precision), central_ballot_gf(p, y, precision)


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
    total = _ZERO
    for j in range(s, n + 1):
        total += (
            Fraction(p * s, (p - 1) * j + s)
            * icomb(p * j - 1, j - s)
            * icomb(p * (n - j) + r, n - j - k + s)
        )
    return total


def subarray_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction(icomb(p * n + r, n - k))


def catalan_vandermonde_lhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i)."""
    return sum(
        (
            _catalan_power_term(z, Fraction(x), i)
            * binomial(Fraction(y) + z * (n - i), n - i)
            for i in range(n + 1)
        ),
        _ZERO,
    )


def catalan_vandermonde_rhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return binomial(Fraction(x) + Fraction(y) + z * n, n)


def catalan_column_sum_lhs(p: int, r: int, n: int, k: int) -> Fraction:
    """sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1)."""
    total = _ZERO
    for j in range(n + 1):
        total += (
            Fraction(icomb(p * j + 1, j), p * j + 1)
            * icomb(p * (n - j) + r, n - j - k + 1)
        )
    return total


def catalan_column_sum_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction(icomb(p * n + r + 1, n - k + 1))


def catalan_triangle_convolution_lhs(p: int, r: int, n: int, k: int, s: int) -> Fraction:
    """The convolution over the subsampled Catalan triangle entries."""
    total = _ZERO
    for j in range(s, n + 1):
        total += (
            Fraction(2 * p * s, (2 * p - 1) * j + s)
            * icomb(2 * p * j - 1, j - s)
            * Fraction((p - 1) * (n - j) + r + k - s + 1, p * (n - j) + r + 1)
            * icomb(2 * (p * (n - j) + r + 1), n - j - k + s)
        )
    return total


def catalan_triangle_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction((p - 1) * n + r + k + 1, p * n + r + 1) * icomb(
        2 * (p * n + r + 1), n - k
    )


def ballot_triangle_convolution_lhs(p: int, r: int, n: int, k: int, s: int) -> Fraction:
    """The convolution over the subsampled ballot-variant triangle entries."""
    total = _ZERO
    for j in range(s, n - k + s + 1):
        total += (
            Fraction(p * s, (p + 1) * j - s)
            * icomb((p + 1) * j - s, j - s)
            * Fraction((p - 1) * (n - j) + k - s + r + 1, p * (n - j) + r + 1)
            * icomb((p + 1) * (n - j) + r - k + s, p * (n - j) + r)
        )
    return total


def ballot_triangle_convolution_rhs(p: int, r: int, n: int, k: int) -> Fraction:
    return Fraction((p - 1) * n + k + r + 1, p * n + r + 1) * icomb(
        (p + 1) * n + r - k, p * n + r
    )


def ballot_vandermonde_lhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot term at y, index n-i."""
    x, y = Fraction(x), Fraction(y)
    return sum(
        (
            _catalan_power_term(p + 1, x, i) * _ballot_term(p, y, n - i)
            for i in range(n + 1)
        ),
        _ZERO,
    )


def ballot_vandermonde_rhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return _ballot_term(p, Fraction(x) + Fraction(y), n)


def rothe_hagen_lhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i)."""
    x, y = Fraction(x), Fraction(y)
    return sum(
        (
            _catalan_power_term(z, x, i) * _catalan_power_term(z, y, n - i)
            for i in range(n + 1)
        ),
        _ZERO,
    )


def rothe_hagen_rhs(z: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    return _catalan_power_term(z, Fraction(x) + Fraction(y), n)


def central_vandermonde_lhs(p: int, x: Scalar, y: Scalar, n: int) -> Fraction:
    """sum_i central power term at x * central ballot term at y."""
    x, y = Fraction(x), Fraction(y)
    return sum(
        (
            _central_power_term(p, x, i) * _central_ballot_term(p, y, n - i)
            for i in range(n + 1)
        ),
        _ZERO,
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


def _ks_pairs(n: int, full_upto: int = 20) -> Iterator[tuple[int, int]]:
    # all (k, s) with 1 <= s <= k <= n for small n; corner sample beyond
    if n <= full_upto:
        for k in range(1, n + 1):
            for s in range(1, k + 1):
                yield k, s
    else:
        for k in sorted({1, n // 2, n}):
            for s in sorted({1, (k + 1) // 2, k}):
                yield k, s


def _k_values(n: int, full_upto: int = 20) -> Iterator[int]:
    if n <= full_upto:
        yield from range(1, n + 1)
    else:
        yield from sorted({1, n // 2, n})


def _pin_values(pinned: Mapping[str, Scalar], name: str, default):
    if name in pinned:
        return (pinned[name],)
    return default


def _sum_identity_runner(
    identity: str,
    lhs: Callable[..., Fraction],
    rhs: Callable[..., Fraction],
    point_iter: Callable[[int, Mapping[str, Scalar]], Iterator[dict]],
    grid_text: Callable[[int, Mapping[str, Scalar]], str],
) -> Callable[..., IdentityReport]:
    def run(max_n: int = 20, pinned: Mapping[str, Scalar] | None = None) -> IdentityReport:
        pinned = pinned or {}
        points = 0
        cex = None
        for params in point_iter(max_n, pinned):
            points += 1
            left, right = lhs(**params), rhs(**params)
            if left != right:
                cex = Counterexample(
                    {k: str(v) for k, v in params.items()},
                    lhs=str(left),
                    rhs=str(right),
                )
                break
        return IdentityReport(
            identity=identity,
            grid=grid_text(max_n, pinned),
            points=points,
            counterexample=cex,
        )

    return run


def _convolution_points(ps, rs):
    def points(max_n, pinned):
        for p in _pin_values(pinned, "p", ps):
            for r in _pin_values(pinned, "r", rs):
                for n in range(0, max_n + 1):
                    for k, s in _ks_pairs(n):
                        if "k" in pinned and k != pinned["k"]:
                            continue
                        if "s" in pinned and s != pinned["s"]:
                            continue
                        yield {"p": int(p), "r": int(r), "n": n, "k": k, "s": s}

    return points


def _column_sum_points(ps, rs):
    def points(max_n, pinned):
        for p in _pin_values(pinned, "p", ps):
            for r in _pin_values(pinned, "r", rs):
                for n in range(0, max_n + 1):
                    for k in _k_values(n):
                        if "k" in pinned and k != pinned["k"]:
                            continue
                        yield {"p": int(p), "r": int(r), "n": n, "k": k}

    return points


def _rational_pair_points(zs, zname="p"):
    def points(max_n, pinned):
        for z in _pin_values(pinned, zname, zs):
            for x in _pin_values(pinned, "x", RATIONAL_GRID):
                for y in _pin_values(pinned, "y", RATIONAL_GRID):
                    for n in range(0, max_n + 1):
                        yield {zname: int(z), "x": Fraction(x), "y": Fraction(y), "n": n}

    return points


def _drop_lhs_only(params: dict, lhs_only: tuple[str, ...]) -> dict:
    return {k: v for k, v in params.items() if k not in lhs_only}


def _make_sum_entry(
    identity, description, slots, default_grid, lhs, rhs, point_iter, rhs_drop=()
):
    rhs_eval = (lambda **kw: rhs(**_drop_lhs_only(kw, rhs_drop))) if rhs_drop else rhs

    def grid_text(max_n, pinned):
        pins = ", ".join(f"{k}={v}" for k, v in pinned.items())
        return f"{default_grid}, n <= {max_n}" + (f" [{pins}]" if pins else "")

    return RegistryEntry(
        id=identity,
        description=description,
        slots=slots,
        default_grid=default_grid,
        run=_sum_identity_runner(identity, lhs, rhs_eval, point_iter, grid_text),
    )


def _andrews_entry(variant: str) -> RegistryEntry:
    index, n_min, _ = ANDREWS_VARIANTS[variant]
    sample = index(3)
    return RegistryEntry(
        id=f"andrews-{variant}",
        description=(
            "alternating binomial sum over a period-5 window equals "
            f"a Fibonacci number (parameter n maps to F with index like {sample} at n=3)"
        ),
        slots=("n",),
        default_grid=f"n from {n_min}",
        run=lambda max_n=20, pinned=None: check_andrews(variant, max_n),
    )


def _fibonacci_riordan_entry() -> RegistryEntry:
    return RegistryEntry(
        id="fibonacci-riordan",
        description=(
            "d(t) f(t h(t)) over the even/odd row extraction of the binomial "
            "triangle equals the even/odd Fibonacci generating function"
        ),
        slots=("n",),
        default_grid="coefficients 0..max_n, both extractions",
        run=lambda max_n=20, pinned=None: check_via_riordan(max_n),
    )


def _product_laws_entry() -> RegistryEntry:
    def run(max_n: int = 20, pinned: Mapping[str, Scalar] | None = None) -> IdentityReport:
        pinned = pinned or {}
        precision = min(max_n + 1, 25)
        points = 0
        for p in _pin_values(pinned, "p", (2, 3)):
            for x in _pin_values(pinned, "x", RATIONAL_GRID):
                for y in _pin_values(pinned, "y", RATIONAL_GRID):
                    rep = check_product_laws(int(p), x, y, precision)
                    points += rep.points
                    if not rep.holds:
                        return IdentityReport(
                            identity="product-laws",
                            grid=rep.grid,
                            points=points,
                            counterexample=rep.counterexample,
                        )
        return IdentityReport(
            identity="product-laws",
            grid=f"p in (2, 3), rational (x, y) grid, coefficients below {precision}",
            points=points,
        )

    return RegistryEntry(
        id="product-laws",
        description=(
            "binomial-power and central product laws of the ballot series, "
            "directly and through hypergeometric expansion"
        ),
        slots=("p", "x", "y"),
        default_grid="p in (2, 3), (x, y) over the rational grid",
        run=run,
    )


def _power_law_entry() -> RegistryEntry:
    def run(max_n: int = 20, pinned: Mapping[str, Scalar] | None = None) -> IdentityReport:
        pinned = pinned or {}
        precision = min(max_n + 1, 30)
        points = 0
        for q in _pin_values(pinned, "p", (2, 3, 4)):
            for r in _pin_values(pinned, "x", (2, 3, Fraction(1, 2), Fraction(5, 2))):
                rep = verify_power_identity(int(q), r, precision)
                points += rep.points
                if not rep.holds:
                    return rep
        return IdentityReport(
            identity="hypergeometric-power-law",
            grid=f"q in (2, 3, 4), rational exponents, coefficients below {precision}",
            points=points,
        )

    return RegistryEntry(
        id="hypergeometric-power-law",
        description="rational powers of the base hypergeometric stream stay hypergeometric",
        slots=("p", "x"),
        default_grid="q in (2, 3, 4), exponents (2, 3, 1/2, 5/2)",
        run=run,
    )


def _build_registry() -> dict[str, RegistryEntry]:
    entries: list[RegistryEntry] = []
    entries.extend(_andrews_entry(v) for v in ANDREWS_VARIANTS)
    entries.append(_fibonacci_riordan_entry())
    entries.append(
        _make_sum_entry(
            "subarray-convolution",
            "sum_j ps/((p-1)j+s) C(pj-1, j-s) C(p(n-j)+r, n-j-k+s) = C(pn+r, n-k)",
            ("p", "r", "n", "k", "s"),
            "p in (2,3,4), r in (0,1,2), 1 <= s <= k <= n",
            subarray_convolution_lhs,
            subarray_convolution_rhs,
            _convolution_points((2, 3, 4), (0, 1, 2)),
            rhs_drop=("s",),
        )
    )
    entries.append(
        _make_sum_entry(
            "catalan-vandermonde",
            "sum_i x/(x+zi) C(x+zi, i) C(y+z(n-i), n-i) = C(x+y+zn, n)",
            ("z", "x", "y", "n"),
            "z in (2,3,4), rational (x, y) grid",
            catalan_vandermonde_lhs,
            catalan_vandermonde_rhs,
            _rational_pair_points((2, 3, 4), zname="z"),
        )
    )
    entries.append(
        _make_sum_entry(
            "catalan-column-sum",
            "sum_j 1/(pj+1) C(pj+1, j) C(p(n-j)+r, n-j-k+1) = C(pn+r+1, n-k+1)",
            ("p", "r", "n", "k"),
            "p in (2,3,4), r in (0,1,2), 1 <= k <= n",
            catalan_column_sum_lhs,
            catalan_column_sum_rhs,
            _column_sum_points((2, 3, 4), (0, 1, 2)),
        )
    )
    entries.append(
        _make_sum_entry(
            "catalan-triangle-convolution",
            "central convolution over the subsampled Catalan triangle "
            "(valid from p = 1 on)",
            ("p", "r", "n", "k", "s"),
            "p in (1,2,3,4), r in (0,1,2), 1 <= s <= k <= n",
            catalan_triangle_convolution_lhs,
            catalan_triangle_convolution_rhs,
            _convolution_points((1, 2, 3, 4), (0, 1, 2)),
            rhs_drop=("s",),
        )
    )
    entries.append(
        _make_sum_entry(
            "ballot-triangle-convolution",
            "convolution over the subsampled ballot-variant triangle",
            ("p", "r", "n", "k", "s"),
            "p in (2,3,4), r in (0,1,2), 1 <= s <= k <= n",
            ballot_triangle_convolution_lhs,
            ballot_triangle_convolution_rhs,
            _convolution_points((2, 3, 4), (0, 1, 2)),
            rhs_drop=("s",),
        )
    )
    entries.append(
        _make_sum_entry(
            "ballot-vandermonde",
            "sum_i x/((p+1)i+x) C((p+1)i+x, i) * ballot(y, n-i) = ballot(x+y, n)",
            ("p", "x", "y", "n"),
            "p in (2,3,4), rational (x, y) grid",
            ballot_vandermonde_lhs,
            ballot_vandermonde_rhs,
            _rational_pair_points((2, 3, 4)),
        )
    )
    entries.append(
        _make_sum_entry(
            "rothe-hagen",
            "sum_i x/(x+zi) C(x+zi, i) y/(y+z(n-i)) C(y+z(n-i), n-i) "
            "= (x+y)/(x+y+zn) C(x+y+zn, n)",
            ("z", "x", "y", "n"),
            "z in (2,3,4), rational (x, y) grid",
            rothe_hagen_lhs,
            rothe_hagen_rhs,
            _rational_pair_points((2, 3, 4), zname="z"),
        )
    )
    entries.append(
        _make_sum_entry(
            "central-binomial-vandermonde",
            "sum_i central-power(x, i) * central-ballot(y, n-i) = central-ballot(x+y, n)",
            ("p", "x", "y", "n"),
            "p in (2,3,4), rational (x, y) grid",
            central_vandermonde_lhs,
            central_vandermonde_rhs,
            _rational_pair_points((2, 3, 4)),
        )
    )
    entries.append(_product_laws_entry())
    entries.append(_power_law_entry())
    return {e.id: e for e in entries}


REGISTRY: dict[str, RegistryEntry] = _build_registry()


def registry_entries() -> list[RegistryEntry]:
    return list(REGISTRY.values())


def check_registry(
    identity: str, max_n: int = 20, pinned: Mapping[str, Scalar] | None = None
) -> IdentityReport:
    """Run one registry identity over its grid (optionally pinning slots)."""
    entry = REGISTRY.get(identity)
    if entry is None:
        raise RegistryError(f"unknown identity {identity!r}")
    if pinned:
        bad = set(pinned) - set(entry.slots)
        if bad:
            raise RegistryError(
                f"identity {identity!r} has no slots {sorted(bad)}; "
                f"available: {entry.slots}"
            )
    return entry.run(max_n=max_n, pinned=pinned)
