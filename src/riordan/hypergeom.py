"""Generalized hypergeometric series as exact coefficient streams.

A spec holds upper parameters (a_1..a_p), lower parameters (c_1..c_q)
and a rational argument scale L; the expanded series is

    sum_n  (a_1)_n ... (a_p)_n / ((c_1)_n ... (c_q)_n) * (L t)^n / n!

computed through the term ratio

    A_{n+1} / A_n = prod(a_i + n) / prod(c_j + n) * L / (n + 1).

The expansion runs on plain integers.  With a_i = p_i/q_i, c_j = r_j/s_j
and L = u/v, the ratio is the integer constant u prod(s_j) / (v prod(q_i))
times prod(p_i + n q_i) / ((n + 1) prod(r_j + n s_j)), so each term is a
running integer pair (N, D) multiplied by two integer polynomials in n
and reduced by one gcd.  The terms are collected over one common
denominator by ``series._collect``, and the series is built once; a
``Fraction`` is made only when a coefficient is read.  ``binomial_series``
and ``pochhammer`` work the same way on the numerator and denominator of
their rational argument.

No symbolic simplification is attempted: the consumers only ever need
coefficient streams.  Alongside the generic expansion live the closed
forms tied to arrays whose A-sequence is (1 + t)^q: the h-series of such
an array, the generalized binomial series B_q and its rational powers,
and the coefficient formula for (t h)^s = t^s B_q^{qs}.  They are stated
once, as the integer kernel ``_binomial_power_ratio`` ([t^n] B_q^r):
``binomial_series``, the h-series (B_q^q), the stock Catalan triangles,
``power_coeff`` and the identity registry's factor columns all read it.
An integer r >= 1 (with q >= 1) takes ``math.comb``; any other r takes
one ``math.prod`` over the n - 1 falling factors of its cancelled form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple, Sequence, Union

from .reports import IdentityReport, series_verdict
from .series import FormalPowerSeries, SeriesError, _collect, _fraction, _reduced, _wrap

Scalar = Union[int, Fraction]


class HypergeomError(ValueError):
    """Base class for hypergeometric failures."""


class PoleError(HypergeomError):
    """A vanishing denominator: bad lower parameter or power-series pole."""


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


class HypergeometricSpec(NamedTuple("HypergeometricSpec", [
    ("upper", tuple[Fraction, ...]), ("lower", tuple[Fraction, ...]), ("scale", Fraction),
])):
    """Parameter lists plus argument scale; validated at construction."""

    __slots__ = ()

    def __new__(cls, upper: Sequence[Scalar], lower: Sequence[Scalar], scale: Scalar = 1):
        spec = super().__new__(
            cls, tuple(_fraction(a) for a in upper), tuple(_fraction(c) for c in lower),
            _fraction(scale),
        )
        for c in spec.lower:
            if _is_nonpositive_integer(c):
                raise PoleError(f"lower parameter {c} is zero or a negative integer")
        return spec

    @classmethod
    def _make(cls, iterable) -> "HypergeometricSpec":
        """Fields ``(upper, lower, scale)`` as a new spec; ``_replace`` builds through this too."""
        # the base refuses a wrong number of fields with TypeError
        return cls(*super()._make(iterable))


def pochhammer(a: Scalar, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise HypergeomError(f"pochhammer needs n >= 0, got {n}")
    a = _fraction(a)
    num, den = a.numerator, a.denominator
    # (num/den)_n = prod(num + i den) / den^n
    return Fraction(prod(num + i * den for i in range(n)), den**n)


def expand(spec: HypergeometricSpec, precision: int) -> FormalPowerSeries:
    """Exact coefficient stream of the spec, constant term 1."""
    if precision < 1:
        raise SeriesError("precision must be positive")
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(c.numerator, c.denominator) for c in spec.lower]
    # the scale and every parameter's denominator, as one constant ratio
    const_num = spec.scale.numerator * prod(d for _, d in lower)
    const_den = spec.scale.denominator * prod(d for _, d in upper)
    terms = [(1, 1)]  # each term N/D in lowest terms
    for n in range(precision - 1):
        num, den = terms[-1]
        # no factor vanishes: a lower parameter is never zero or a negative integer
        terms.append(_reduced(num * const_num * prod(a + n * b for a, b in upper),
                              den * const_den * (n + 1) * prod(c + n * d for c, d in lower)))
    return _wrap(*_collect(terms))


def power_spec(q: int, r: Scalar) -> HypergeometricSpec:
    """The spec whose expansion is (B_q)^r.

    Parameters are generated from q rather than stored as literals:
    upper (r+i)/q for i = 0..q-1, lower (r+i)/(q-1) for i = 1..q-1,
    argument scale q^q / (q-1)^(q-1).
    """
    if q < 2:
        raise HypergeomError(f"q must be >= 2, got {q}")
    r = _fraction(r)
    return HypergeometricSpec(
        upper=[(r + i) / q for i in range(q)],
        lower=[Fraction(r + i, q - 1) for i in range(1, q)],
        scale=Fraction(q**q, (q - 1) ** (q - 1)),
    )


def h_for_binomial_A(q: int, precision: int) -> FormalPowerSeries:
    """The h-series of a proper array whose A-sequence is (1 + t)^q.

    It is B_q^q: coefficient of t^(n-1) is C(qn, n) / ((q-1)n + 1); starts 1, q, ...
    """
    if q < 2:
        raise HypergeomError(f"q must be >= 2, got {q}")
    return binomial_series(q, q, precision)


def _binomial_power_ratio(q: int, a: int, b: int, n: int) -> tuple[int, int]:
    """[t^n] B_q^r at r = a/b (b > 0): r/(qn + r) C(qn + r, n), as a reduced integer pair.

    At an integer r >= 1 with q >= 1, qn + r is positive and the term is
    the integer r C(qn + r, n) / (qn + r), by ``math.comb``.  Any other r
    takes the cancelled product r prod_{1<=m<n} (qn + r - m) / n!
    = a prod_{1<=m<n} (a + (qn - m) b) / (b^n n!), formed by one
    ``math.prod``, so rational r is legal and no pole is checked: a
    vanishing qn + r is the caller's to refuse (the product has a finite
    value there, which is why the ``comb`` route is kept to q, r >= 1).
    """
    if n == 0:
        return 1, 1
    if b == 1 and a >= 1 and q >= 1:
        return a * comb(q * n + a, n) // (q * n + a), 1
    num = a * prod(range(a + (q * n - 1) * b, a + (q * n - n) * b, -b))
    return _reduced(num, b**n * factorial(n))


def binomial_series(q: int, r: Scalar, precision: int) -> FormalPowerSeries:
    """(B_q)^r with coefficient n equal to r/(qn+r) C(qn+r, n).

    The coefficients come from ``_binomial_power_ratio``, so rational r is
    legal; a vanishing qn + r below the precision is still rejected as a
    pole of the stated form.
    """
    if q < 1:
        raise HypergeomError(f"q must be >= 1, got {q}")
    if precision < 1:
        raise SeriesError("precision must be positive")
    r = _fraction(r)
    a, b = r.numerator, r.denominator
    for n in range(1, precision):
        if q * n * b + a == 0:
            raise PoleError(f"qn + r vanishes at n = {n}")
    return _wrap(*_collect(_binomial_power_ratio(q, a, b, n) for n in range(precision)))


def power_coeff(q: int, s: int, j: int) -> Fraction:
    """[t^j] (t h)^s = [t^(j-s)] B_q^{qs} for the A = (1+t)^q array: qs/((q-1)j+s) C(qj-1, j-s).

    Returns 0 for j < s (the order constraint).
    """
    if q < 2:
        raise HypergeomError(f"q must be >= 2, got {q}")
    if s < 1:
        raise HypergeomError(f"s must be >= 1, got {s}")
    if j < s:
        return Fraction(0)
    return Fraction(*_binomial_power_ratio(q, q * s, 1, j - s))


def verify_power_identity(q: int, r: Scalar, precision: int) -> IdentityReport:
    """Check (B_q)^r via two routes: rational power of the r=1 expansion
    against the direct expansion of the r-parameter spec."""
    lhs = expand(power_spec(q, 1), precision).pow_rational(_fraction(r))
    rhs = expand(power_spec(q, r), precision)
    return series_verdict(
        "hypergeometric-power-law", f"q={q}, r={r}, coefficients below {precision}",
        [({"q": str(q), "r": str(r)}, lhs, rhs)],
    )
