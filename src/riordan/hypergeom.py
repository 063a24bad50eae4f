"""Generalized hypergeometric series as exact coefficient streams.

A spec holds upper parameters (a_1..a_p), lower parameters (c_1..c_q)
and a rational argument scale L; the expanded series is

    sum_n  (a_1)_n ... (a_p)_n / ((c_1)_n ... (c_q)_n) * (L t)^n / n!

computed through the term ratio

    A_{n+1} / A_n = prod(a_i + n) / prod(c_j + n) * L / (n + 1).

The expansion runs on plain integers.  With a_i = p_i/q_i, c_j = r_j/s_j
and L = u/v, the ratio is the integer constant u prod(s_j) / (v prod(q_i))
times prod(p_i + n q_i) / ((n + 1) prod(r_j + n s_j)), a ratio of integer
linear factors in n.  Each term is stepped from the one before it by that
ratio (``series._ratio_steps``): the small ratio is reduced first, then
cross-reduced against the running pair (N, D), so the term stays in
lowest terms and no gcd has two full-width operands.  ``_terms`` is that
stream of terms.  ``expand`` puts them over one common denominator with
no further gcd (``series._extend``) and builds the series once; a
``Fraction`` is made only when a coefficient is read.  The CLI's
``hyper`` prints the same stream, term by term, with no common
denominator.  ``binomial_series`` and ``pochhammer`` work on the
numerator and denominator of their rational argument, from the closed
form, so they stay independent of the stepping that ``expand`` and the
identity columns use.

No symbolic simplification is attempted: the consumers only ever need
coefficient streams.  Alongside the generic expansion live the closed
forms tied to arrays whose A-sequence is (1 + t)^q: the h-series of such
an array, the generalized binomial series B_q and its rational powers,
and the coefficient formula for (t h)^s = t^s B_q^{qs}.  They are stated
once, as the integer kernel ``_binomial_power_ratio`` ([t^n] B_q^r):
``binomial_series``, the h-series (B_q^q), the stock Catalan triangles,
``power_coeff`` and the identity registry's factor columns all read it.
It reads its cancelled form r/n C(qn + r - 1, n - 1) off the one
generalized binomial, ``_binomial_ratio``.  Neither kernel reduces: each
hands back a raw integer pair, which its collector reduces once.  Their
term ratios are stated once, next to them, as integer linear factors
at every argument: ``_binomial_steps`` for C(a/b + zm, m) and
``_binomial_power_steps`` for B_q^r.  ``_spec`` reads a spec off a ratio,
and the identity registry steps a column by one where no factor can
vanish.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod
from typing import NamedTuple, Sequence, Union

from .reports import IdentityReport, series_verdict
from .series import (
    FormalPowerSeries, SeriesError, Steps, _collect, _extend, _fraction, _ratio_steps, _wrap,
)

Scalar = Union[int, Fraction]


class HypergeomError(ValueError):
    """Base class for hypergeometric failures."""


class PoleError(HypergeomError):
    """A vanishing denominator: a lower parameter that is zero or a negative integer."""


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


def _terms(spec: HypergeometricSpec):
    """The spec's terms ``(num, den)``, constant term first, each in lowest terms with ``den > 0``.

    Each term is stepped from the one before it by the term ratio
    (``series._ratio_steps``), so it is in lowest terms without a
    full-width gcd.  The stream never ends.
    """
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(c.numerator, c.denominator) for c in spec.lower]
    # the scale and every parameter's denominator, as one constant ratio
    const_num = spec.scale.numerator * prod(d for _, d in lower)
    const_den = spec.scale.denominator * prod(d for _, d in upper)
    # no factor below vanishes: a lower parameter is never zero or a negative integer
    return _ratio_steps(1, 1, [(const_num, 0), *upper], [(const_den, 0), *lower])


def expand(spec: HypergeometricSpec, precision: int) -> FormalPowerSeries:
    """Exact coefficient stream of the spec, constant term 1.

    The first ``precision`` terms of :func:`_terms`, which are in lowest
    terms, go over one lcm with no gcd at all.
    """
    if precision < 1:
        raise SeriesError("precision must be positive")
    nums: list[int] = []
    den = _extend(nums, 1, islice(_terms(spec), precision))
    return _wrap(nums, den)


def _spec(upper, lower) -> HypergeometricSpec:
    """The spec of the term ratio prod(upper) / ((m + 1) prod(lower)), factors c0 + c1 m.

    A factor in both lists cancels.  Each one left is c1 (c0/c1 + m), a
    parameter c0/c1, or a constant c0 (c1 = 0); the c1 and c0 go to the scale.
    """
    lower, kept = list(lower), []
    for factor in upper:
        if factor in lower:
            lower.remove(factor)
        else:
            kept.append(factor)
    return HypergeometricSpec(
        [Fraction(c0, c1) for c0, c1 in kept if c1],
        [Fraction(c0, c1) for c0, c1 in lower if c1],
        Fraction(prod(c1 or c0 for c0, c1 in kept), prod(c1 or c0 for c0, c1 in lower)),
    )


def power_spec(q: int, r: Scalar) -> HypergeometricSpec:
    """(B_q)^r as a spec read off its ratio: upper (r+i)/q, i < q; lower (r+i)/(q-1), 0 < i < q."""
    if q < 2:
        raise HypergeomError(f"q must be >= 2, got {q}")
    r = _fraction(r)
    return _spec(*_binomial_power_steps(q, r.numerator, r.denominator))


def h_for_binomial_A(q: int, precision: int) -> FormalPowerSeries:
    """The h-series of a proper array whose A-sequence is (1 + t)^q.

    It is B_q^q: coefficient of t^(n-1) is C(qn, n) / ((q-1)n + 1); starts 1, q, ...
    """
    if q < 2:
        raise HypergeomError(f"q must be >= 2, got {q}")
    return binomial_series(q, q, precision)


def _binomial_ratio(a: int, b: int, k: int) -> tuple[int, int]:
    """C(a/b, k) for b > 0, as a raw integer pair: prod_{i<k} (a - i b) / (b^k k!); 0 for k < 0.

    The one place that chooses ``math.comb``: at a nonnegative integer
    a/b.  Any other a/b takes one ``math.prod`` over the k falling
    factors, left for the caller's collector to reduce.
    """
    if k < 0:
        return 0, 1
    if a >= 0 and not a % b:
        return comb(a // b, k), 1
    return prod(range(a, a - k * b, -b)), b**k * factorial(k)


def _binomial_steps(z: int, a: int, b: int) -> Steps | None:
    """The ratio C(a/b + z(m+1), m+1) / C(a/b + zm, m) for b > 0, as linear factors in m.

    It is prod_{i=1..z} (a + ib + zbm) over b (m + 1) prod_{i=1..z-1}
    (a + ib + (z-1)bm), as pairs (c0, c1) for ``series._ratio_steps``
    (which supplies the m + 1), wherever term m is not 0; None at z < 1.
    """
    if z < 1:
        return None
    return ([(a + i * b, z * b) for i in range(1, z + 1)],
            [(b, 0), *((a + i * b, (z - 1) * b) for i in range(1, z))])


def _binomial_power_ratio(q: int, a: int, b: int, n: int) -> tuple[int, int]:
    """[t^n] B_q^r at r = a/b (b > 0): r/n C(qn + r - 1, n - 1), as a raw integer pair.

    This is r/(qn + r) C(qn + r, n) with its qn + r cancelled, read off
    ``_binomial_ratio``, so rational r is legal and the form has no pole:
    it is defined where qn + r vanishes too.  At an integer r the term is
    an integer (B_q^r has integer coefficients), and is returned over 1.
    """
    if n == 0:
        return 1, 1
    num, den = _binomial_ratio(a + (q * n - 1) * b, b, n - 1)
    if b == 1:
        return a * num // (n * den), 1
    return a * num, b * n * den


def _binomial_power_steps(q: int, a: int, b: int) -> Steps | None:
    """The ratio [t^(n+1)] B_q^r / [t^n] B_q^r at r = a/b, as linear factors in n.

    It is the ratio of C(r + qn, n) (``_binomial_steps``) times
    (r + qn)/(r + qn + q), whose denominator cancels the binomial's last
    upper factor: the upper factors are r + qn + i for i = 0..q-1.  None at q < 1.
    """
    if q < 1:
        return None
    upper, lower = _binomial_steps(q, a, b)
    return [(a, q * b), *upper[:-1]], lower


def binomial_series(q: int, r: Scalar, precision: int) -> FormalPowerSeries:
    """(B_q)^r with coefficient n equal to r/(qn+r) C(qn+r, n).

    The coefficients come from ``_binomial_power_ratio``, so rational r is
    legal, and so is an r at which qn + r vanishes: the cancelled form
    r/n C(qn + r - 1, n - 1) is the coefficient there.
    """
    if q < 1:
        raise HypergeomError(f"q must be >= 1, got {q}")
    if precision < 1:
        raise SeriesError("precision must be positive")
    r = _fraction(r)
    a, b = r.numerator, r.denominator
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
