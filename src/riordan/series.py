"""Truncated formal power series over exact rationals.

A series is a finite coefficient vector together with an explicit
precision: ``f`` is known modulo ``t**f.precision`` and nothing beyond.
Coefficients are exact rationals, stored as integer numerators over one
common positive denominator in lowest terms.  Every kernel runs on those
integers: products and sums reduce by one gcd per operation, and the
division and rational-power recurrences by one per output coefficient,
instead of one per coefficient operation.  :meth:`FormalPowerSeries.coeff`
and :attr:`FormalPowerSeries.coeffs` return :class:`fractions.Fraction`,
built by the one reader of the integer form, :func:`_fractions`: the
container's gcd(den, *nums) == 1 makes every value coprime at
denominator 1, so there a value takes no gcd, and otherwise one gcd
with the denominator (:func:`_coprime` fills a ``Fraction``'s slots from
the coprime pair).  No operation ever rounds.  Requesting a coefficient
at or past the precision is an error rather than a silent zero, and
binary operations truncate to the smaller operand precision, so
knowledge never grows by accident.

The package puts exact terms over one denominator here alone, and
reduces each term once.  A batch (a stream of terms, or a constructor's
fractions) goes over the lcm of its denominators and reaches lowest
terms by one gcd at the end (:func:`_collect`); no term in it is
reduced on its own.  A recurrence, whose next term reads the ones
before it, and a growing column reduce term by term (:func:`_reduced`,
:func:`_append_term`).  A hypergeometric term is stepped from the one
before it by its ratio of integer linear factors (:func:`_ratio_steps`,
a cross-reduced product whose gcds each have one small operand), so it
is born in lowest terms, and a batch of such terms joins its column over
one lcm with no gcd (:func:`_extend`): ``hypergeom.expand`` and the
identity registry's stepped columns.  The CLI's ``hyper`` prints
stepped terms as they come, over no common denominator; turning a
coefficient into text is the CLI's job alone.  Integer rows over one denominator
reach lowest terms by one gcd (:func:`_lowest`), and :func:`_stripped`
drops trailing zeros.

The square of a series is one :func:`_square`, which makes each product
``a_i a_(k-i)``, ``i < k - i``, once and doubles the sum, so it makes half
the products of a general one; ``**`` and every ladder of powers
(:func:`_ladder`, each even power the square of its half) square.  One
table of powers serves both Brent and Kung kernels:
:func:`_baby_and_giant_steps` holds the baby powers ``w^0 .. w^(m-1)``
and the giant step ``w^m`` in a small bounded cache keyed on the value
of ``w`` and ``m``, so a second :func:`_compose` at an equal inner, such
as the two weights composed with the one ``t h`` of the even and odd
extractions of Pascal's triangle, builds no power.  A Newton step's inner
is new at every step and read once, so its table is built past the
cache.  One kernel, :func:`lagrange_gf`, reads the Lagrange diagonals
``[t^n] F(t) phi(t)^n`` off that table (through :func:`_power_table`), and
:func:`_giant_powers` holds the powers ``phi^(qm)`` in a second small
bounded cache keyed on the value of ``phi``.  :func:`lagrange_coeffs`
reads every ``w^k`` off both.  Extractions at one ``p`` share the table
when they take the diagonal route, as every array known by ``(d, h)``
alone does; an array that keeps a short A-sequence extracts from its own
rows instead, with no diagonal.  A third small bounded cache,
:func:`_newton`, holds the Newton solves of :func:`lagrange_solve`,
keyed on the value ``phi`` mod ``t^(n-1)`` that a solve at precision
``n`` reads, so ``revert`` of ``t/phi`` reuses a solve of ``phi``.

Everything here is immutable and pure; values can be shared freely
across threads, and the three caches hold only immutable values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class SeriesError(ValueError):
    """Base class for series arithmetic failures."""


class PrecisionError(SeriesError):
    """A coefficient beyond the known precision was requested."""


class NonInvertibleError(SeriesError):
    """Division (or negative power) by a series with zero constant term."""


class CompositionOrderError(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class NormalizationError(SeriesError):
    """Rational power of a series whose constant term is not exactly 1."""


class ReversionOrderError(SeriesError):
    """Reversion of a series whose order is not exactly 1."""


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise SeriesError("float coefficients are not exact; use Fraction or int")
    return Fraction(value)


def _coprime(num: int, den: int = 1) -> Fraction:
    """The fraction ``num/den`` of a coprime pair with ``den > 0``, with no gcd.

    It sets the two slots of a bare ``Fraction``, as CPython 3.12's
    ``Fraction._from_coprime_ints`` does, so the value is
    ``Fraction(num, den)`` in every respect: numerator, denominator, hash and text.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _fractions(nums: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """Each ``x/den`` of integers over ``den > 0`` with gcd(den, *nums) == 1.

    The one reader of the integer form: at ``den == 1`` each value is
    already coprime and takes no gcd, otherwise each takes one gcd(x, den).
    """
    if den == 1:
        return tuple(map(_coprime, nums))
    return tuple([_coprime(x // g, den // g) for x in nums for g in (gcd(x, den),)])


# -- integer kernels ---------------------------------------------------
#
# A series is the integer tuple ``nums`` over the positive integer ``den``
# with gcd(den, *nums) == 1, so equal series have equal (nums, den).


def _wrap(nums, den: int) -> "FormalPowerSeries":
    # (nums, den) must already be canonical
    s = object.__new__(FormalPowerSeries)
    s._nums = tuple(nums)
    s._den = den
    return s


def _require_terms(count: int) -> None:
    # a series without an explicit precision needs at least one coefficient
    if count < 1:
        raise SeriesError("empty coefficient list needs an explicit precision")


def _series(nums, den: int) -> "FormalPowerSeries":
    """The series ``nums / den`` (``den != 0``), brought to canonical form."""
    if den < 0:
        nums, den = [-x for x in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    return _wrap(nums, den)


def _convolve(a, b, n: int) -> list[int]:
    """The first ``n`` coefficients of the product of integer sequences.

    The square of one tuple (``a is b``) is :func:`_square`'s.
    """
    if a is b:
        return _square(a, n)
    out = [0] * n
    oa = next((i for i in range(n) if a[i]), n)
    ob = next((i for i in range(n) if b[i]), n)
    a = a[oa:n]
    rb = b[n - 1:ob - 1 if ob else None:-1]  # b[n-1], ..., b[ob]
    for k in range(oa + ob, n):
        # a[i] b[k-i] for oa <= i <= k - ob; map stops at the shorter input
        out[k] = sum(map(mul, a, rb[n - 1 - k + oa:]))
    return out


def _square(a, n: int) -> list[int]:
    """The first ``n`` coefficients of the square of an integer sequence, at half the products.

    Coefficient ``k`` is twice the sum over the pairs ``i < k - i`` of
    ``a[i] a[k-i]``, plus ``a[k/2]^2`` when ``k`` is even.
    """
    out = [0] * n
    o = next((i for i in range(n) if a[i]), n)
    head = a[o:n]
    ra = a[n - 1::-1]  # ra[n-1-j] = a[j]
    for k in range(2 * o, n):
        # a[i] a[k-i] for o <= i <= (k-1)//2, the pairs below the middle
        s = sum(map(mul, head, ra[n - 1 - k + o:n - k + (k - 1) // 2]))
        s += s
        if not k & 1:
            x = a[k >> 1]
            s += x * x
        out[k] = s
    return out


def _reduced(num: int, den: int) -> tuple[int, int]:
    """``num/den`` (``den != 0``) in lowest terms, with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _lowest(rows, den: int) -> tuple[list, int]:
    """Integer ``rows`` over ``den > 0`` in lowest terms: one gcd over ``den`` and every entry."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            return [[x // g for x in row] for row in rows], den // g
    return rows, den


def _stripped(nums: Sequence[int]) -> Sequence[int]:
    """``nums`` without its trailing zeros."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _extend(xs: list[int], den: int, terms) -> int:
    """Append a batch of terms ``(num, d != 0)`` to the numerators ``xs`` over ``den > 0``.

    The batch goes over the lcm of ``den`` and its denominators, the
    prefix is rescaled once if that grows, and the new common denominator
    is returned.  No gcd is taken.  When ``xs/den`` is canonical and each
    term is in lowest terms with ``d > 0``, the result is canonical too:
    every prime of the lcm divides ``den`` or some term's denominator to
    its full power, and the numerator that goes with it (some prefix
    entry, or that term's) is prime to it and scaled by a cofactor prime
    to it.
    """
    pairs = list(terms)
    common = lcm(den, *(d for _, d in pairs))
    if common != den:
        grow = common // den
        xs[:] = [x * grow for x in xs]
    xs += [num * (common // d) for num, d in pairs]
    return common


def _collect(terms) -> tuple[list[int], int]:
    """Canonical numerators over one denominator of a batch of terms ``(num, den != 0)``.

    No term is reduced on its own: the batch goes over the lcm of its
    denominators (:func:`_extend`), and one gcd over it and every
    numerator (:func:`_lowest`) brings the whole to lowest terms.
    """
    nums: list[int] = []
    den = _extend(nums, 1, terms)
    (nums,), den = _lowest([nums], den)
    return nums, den


def _append_term(xs: list[int], den: int, num: int, step: int) -> int:
    """Append the term ``num/step`` to the numerators ``xs`` over ``den``.

    For a recurrence, whose next term reads the ones before it, or a
    column grown as it is read: ``xs`` is extended in place and the new
    common denominator returned.  The
    term is reduced once and the prefix rescaled only when the
    denominator must grow, so no integer gets larger than in the
    canonical form of the terms (a fraction-free recurrence would carry
    the product of every step); canonical ``xs/den`` stays canonical.
    An integer term (``step == 1``) is already reduced and needs no
    rescaling, so it is appended as ``num * den`` with no gcd.
    """
    if step == 1:
        xs.append(num * den)
        return den
    num, step = _reduced(num, step)
    if den % step:
        grow = step // gcd(den, step)
        xs[:] = [x * grow for x in xs]
        den *= grow
    xs.append(num * (den // step))
    return den


# the term ratio of a hypergeometric term: integer linear factors (c0, c1),
# each c0 + c1 k, of its numerator and of its denominator (the k + 1 of k! implied)
Steps = tuple[Sequence[tuple[int, int]], Sequence[tuple[int, int]]]


def _ratio_steps(num: int, den: int, upper, lower, k: int = 0):
    """The terms ``t_k, t_(k+1), ...`` from ``t_k = num/den``, each in lowest terms.

    ``t_(j+1) = t_j P(j)/Q(j)``: ``P`` is the product of the linear factors
    ``c0 + c1 j`` in ``upper``, ``Q`` that of ``lower`` times the ``j + 1``
    of the term's ``j!``, which no ratio lists, and ``Q(j)`` never vanishes.
    The first term is reduced once.  Each step reduces the small ratio
    ``P/Q`` first, then takes Knuth's cross-reduced product (TAOCP vol. 2,
    4.5.1): with ``g = gcd(P, D)`` and ``h = gcd(N, Q)``, ``N/D * P/Q`` is
    ``(N/h)(P/g)`` over ``(D/g)(Q/h)``, in lowest terms, so every gcd has
    one small operand.  A zero term is ``(0, 1)``, as is every term after it.
    """
    num, den = _reduced(num, den)
    while True:
        yield num, den
        p, q = 1, k + 1
        for c0, c1 in upper:
            p *= c0 + c1 * k
        for c0, c1 in lower:
            q *= c0 + c1 * k
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p //= g
        q //= g
        g, h = gcd(p, den), gcd(num, q)
        num, den = num // h * (p // g), den // g * (q // h)
        k += 1


def _solve(f, a: int, g, b: int) -> tuple[list[int], int]:
    """The quotient ``(f/a) / (g/b)`` of integer sequences, ``g_0 != 0``, to ``f``'s length.

    ``x_i = (b f_i/a - sum_{1<=j<=i} g_j x_{i-j}) / g_0``, built as integer
    numerators over one running common denominator by
    :func:`_append_term`, and canonical.  ``g`` is read only up to its last
    nonzero coefficient below ``f``'s length, so a short divisor padded with
    zeros, such as ``1 - 3t + t^2``, costs ``O(len(f) len(g))`` products
    rather than ``O(len(f)^2)``.
    """
    xs: list[int] = []
    den = 1
    g1, g0 = _stripped(g[1:len(f)]), g[0]
    for fi in f:
        s = sum(map(mul, g1, reversed(xs)))  # g_1 x_{i-1} + ... + g_i x_0
        den = _append_term(xs, den, fi * b * den - a * s, a * den * g0)
    return xs, den


class FormalPowerSeries:
    """A power series known modulo ``t**precision``.

    ``FormalPowerSeries(coeffs)`` takes the precision from the length of
    ``coeffs``; with an explicit ``precision`` the list is zero-padded or
    truncated to fit.  Instances are immutable; arithmetic returns new
    series truncated to the smaller operand precision.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar], precision: int | None = None):
        cs = [_fraction(c) for c in coeffs]
        if precision is not None:
            if precision < 1:
                raise SeriesError(f"precision must be positive, got {precision}")
            if len(cs) > precision:
                del cs[precision:]
            else:
                cs.extend([_ZERO] * (precision - len(cs)))
        else:
            _require_terms(len(cs))
        nums, self._den = _collect((c.numerator, c.denominator) for c in cs)
        self._nums = tuple(nums)

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, precision: int) -> "FormalPowerSeries":
        return cls.constant(1, precision)

    @classmethod
    def t(cls, precision: int) -> "FormalPowerSeries":
        """The series ``t`` (requires precision >= 2 to be visible)."""
        return cls.one(precision).shift_up().truncate(precision)

    @classmethod
    def constant(cls, value: Scalar, precision: int) -> "FormalPowerSeries":
        if precision < 1:
            raise SeriesError(f"precision must be positive, got {precision}")
        c = value if isinstance(value, (int, Fraction)) else _fraction(value)
        return _series([c.numerator] + [0] * (precision - 1), c.denominator)

    # -- basic queries -----------------------------------------------

    @property
    def precision(self) -> int:
        return len(self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as fractions, built on each access."""
        return _fractions(self._nums, self._den)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``t**n``; error if ``n`` is out of the known range."""
        if n < 0:
            raise SeriesError(f"negative index {n}")
        if n >= len(self._nums):
            raise PrecisionError(
                f"coefficient {n} requested but series only known mod t^{len(self._nums)}"
            )
        return _fractions((self._nums[n],), self._den)[0]

    __getitem__ = coeff

    @property
    def order(self) -> int:
        """Index of the first nonzero coefficient (= precision if all zero)."""
        for i, x in enumerate(self._nums):
            if x:
                return i
        return len(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        n = len(self._nums)
        head = ", ".join(str(self.coeff(i)) for i in range(min(n, 8)))
        tail = ", ..." if n > 8 else ""
        return f"FormalPowerSeries([{head}{tail}], precision={n})"

    # -- precision management ----------------------------------------

    def truncate(self, precision: int) -> "FormalPowerSeries":
        """Forget coefficients from ``precision`` on (never invents any)."""
        if precision < 1:
            raise SeriesError(f"precision must be positive, got {precision}")
        if precision > len(self._nums):
            raise PrecisionError(
                f"cannot extend precision {len(self._nums)} to {precision}"
            )
        if precision == len(self._nums):
            return self
        return _series(self._nums[:precision], self._den)

    def _padded(self, extra: int) -> "FormalPowerSeries":
        # Internal only: appends zeros *claiming* knowledge.  Every call site
        # must argue why the fabricated coefficients cannot reach the result.
        return _wrap(self._nums + (0,) * extra, self._den)

    def shift_up(self, k: int = 1) -> "FormalPowerSeries":
        """Multiply by ``t**k``; the result is genuinely known ``k`` orders further."""
        if k < 0:
            raise SeriesError("shift_up needs k >= 0")
        return _wrap((0,) * k + self._nums, self._den)

    def shift_down(self, k: int = 1) -> "FormalPowerSeries":
        """Divide by ``t**k``; the first ``k`` coefficients must vanish."""
        if k < 0:
            raise SeriesError("shift_down needs k >= 0")
        if len(self._nums) - k < 1:
            raise PrecisionError(f"shift_down({k}) would leave no known coefficients")
        if any(self._nums[:k]):
            raise SeriesError(f"series has order < {k}, cannot divide by t^{k}")
        return _wrap(self._nums[k:], self._den)

    # -- ring operations ---------------------------------------------

    def _combine(self, other, sign: int):
        # self + sign * other, over the lcm of the two denominators
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            den = lcm(self._den, c.denominator)
            k = den // self._den
            nums = [x * k for x in self._nums]
            nums[0] += sign * c.numerator * (den // c.denominator)
            return _series(nums, den)
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        den = lcm(self._den, other._den)
        p, q = den // self._den, sign * (den // other._den)
        return _series([x * p + y * q for x, y in zip(self._nums, other._nums)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap([-x for x in self._nums], self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        # a series on the left answers by its own __sub__, so other is a scalar or foreign
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            return _series([c.numerator * x for x in self._nums], c.denominator * self._den)
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        n = min(len(self._nums), len(other._nums))
        return _series(_convolve(self._nums, other._nums, n), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fraction(other)
            if not c:
                raise NonInvertibleError("division by zero scalar")
            return _series([c.denominator * x for x in self._nums], c.numerator * self._den)
        if not isinstance(other, FormalPowerSeries):
            return NotImplemented
        n = min(len(self._nums), len(other._nums))
        g = other._nums
        if not g[0]:
            raise NonInvertibleError("divisor has zero constant term")
        return _wrap(*_solve(self._nums[:n], self._den, g, other._den))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return FormalPowerSeries.constant(other, len(self._nums)) / self

    def __pow__(self, k: int):
        """Integer power by square-and-multiply; ``f**0`` is 1."""
        if not isinstance(k, int):
            return NotImplemented
        n = len(self._nums)
        if k < 0:
            if not self._nums[0]:
                raise NonInvertibleError("negative power of a series with f(0) = 0")
            return (FormalPowerSeries.one(n) / self) ** (-k)
        result = None  # 1, until the first factor
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return FormalPowerSeries.one(n) if result is None else result

    # -- calculus helpers --------------------------------------------

    def derivative(self) -> "FormalPowerSeries":
        """Termwise derivative; precision drops by one."""
        if len(self._nums) < 2:
            raise PrecisionError("derivative needs precision >= 2")
        return _series([i * x for i, x in enumerate(self._nums[1:], 1)], self._den)

    # -- composition, powers, reversion ------------------------------

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """``self(inner(t))``, by baby steps and giant steps; requires ``inner(0) = 0``.

        The route is :func:`_compose`, the one composition kernel, with the
        table of powers of ``inner`` cached by value.
        """
        if not isinstance(inner, FormalPowerSeries):
            raise SeriesError("compose needs a series argument")
        if inner._nums[0]:
            raise CompositionOrderError("inner series must have order >= 1")
        n = min(len(self._nums), len(inner._nums))
        return _compose(self._nums, self._den, inner.truncate(n), cached=True)

    def pow_rational(self, r: Scalar) -> "FormalPowerSeries":
        """``f**r`` for rational ``r``; needs ``f(0) = 1``.

        ``g = f**r`` solves ``f g' = r f' g``, which is J. C. P. Miller's
        recurrence ``m g_m = sum_{1<=k<=m} ((r+1)k - m) f_k g_{m-k}``
        (Knuth, TAOCP vol. 2, 4.7).  With ``r = a/b``, each ``g_m`` is two
        integer dot products of ``f``'s numerators, and of ``k f_k``, with
        ``g``'s, appended over ``g``'s running denominator by
        :func:`_append_term`.
        """
        r = _fraction(r)
        fs, d = self._nums, self._den
        if fs[0] != d:
            raise NormalizationError(
                "rational powers need constant term exactly 1; factor out constants first"
            )
        a, b = r.numerator, r.denominator
        f1 = fs[1:]
        kf1 = [k * x for k, x in enumerate(f1, 1)]
        gs, den = [1], 1
        for m in range(1, len(fs)):
            s = sum(map(mul, f1, reversed(gs)))  # f_1 g_{m-1} + ... + f_m g_0
            ks = sum(map(mul, kf1, reversed(gs)))  # the same with f_k weighted by k
            den = _append_term(gs, den, (a + b) * ks - b * m * s, b * d * den * m)
        return _wrap(gs, den)

    def revert(self) -> "FormalPowerSeries":
        """Compositional inverse: ``self.compose(result) = t``.

        Requires order exactly 1.  With ``self = t h``, the inverse ``w``
        solves ``w h(w) = t``, that is ``w = t phi(w)`` with ``phi = 1/h``,
        so it is :func:`lagrange_solve` of ``1/h``; the one padded
        coefficient of ``phi`` cannot reach ``w`` mod ``t^precision``.  The
        solve reads ``phi`` mod ``t^(precision-1)`` only and is shared by
        that value, so reverting ``t/phi`` after ``lagrange_solve(phi,
        precision)`` reuses that solve.  The independent Lagrange
        coefficient formula (:func:`lagrange_coeffs`) serves as the test
        oracle.
        """
        if self.order != 1:
            raise ReversionOrderError("reversion needs a series of order exactly 1")
        return lagrange_solve(1 / self.shift_down(), len(self._nums))


# -- composition by baby steps and giant steps ------------------------


def _compose(nums, den: int, w: FormalPowerSeries, cached: bool = False) -> FormalPowerSeries:
    """``nums/den`` composed with ``w``, at ``w``'s precision ``n``.

    ``w(0) = 0``; a coefficient past the input's length counts as 0, and one
    at or past ``n`` cannot reach the result (``w^i`` vanishes mod ``t^n``
    from ``i = n`` on).  Brent and Kung's baby-step/giant-step scheme:
    with ``L`` the input's length without its trailing zeros and
    ``m = isqrt(L - 1) + 1``, the input is split into blocks of ``m``
    coefficients, each block is one linear combination of the baby table
    ``w^0 .. w^(m-1)``, and the blocks are joined by Horner's rule in the
    giant step ``W = w^m``.  A length-``L`` input costs about ``m + L/m``
    products instead of ``L``.  Block ``b`` reaches the result times
    ``W^b``, of order ``b m`` or more, so Horner level ``b`` is formed mod
    ``t^(n - b m)`` only.  With ``cached``, as :meth:`~FormalPowerSeries.compose`
    asks, the table of powers is read from and stored in the cache of
    :func:`_baby_and_giant_steps`.  Without it, as for a Newton step of
    :func:`_newton`, whose ``w`` is met once, the table is built by the
    same function uncached and stored nowhere, so it evicts no table that
    is read again.
    """
    n = len(w._nums)
    nums = _stripped(nums[:n])
    m = isqrt(max(len(nums) - 1, 0)) + 1
    table = _baby_and_giant_steps if cached else _baby_and_giant_steps.__wrapped__
    powers, giant = table(w, m, len(nums) > m)
    blocks = [nums[i:i + m] for i in range(0, len(nums), m)] or [()]
    top = len(blocks) - 1
    acc = _linear_combination(blocks[top], den, powers, n - top * m)
    for b in range(top - 1, -1, -1):
        # W has order >= m, so the m zeros padded onto acc (known mod
        # t^(n - (b+1) m)) cannot reach the product mod t^(n - b m)
        acc = acc._padded(m) * giant
        if any(blocks[b]):
            acc = acc + _linear_combination(blocks[b], den, powers, n - b * m)
    return acc


@lru_cache(maxsize=8)
def _baby_and_giant_steps(w: FormalPowerSeries, m: int, giant: bool):
    """The baby table ``w^0 .. w^(m-1)`` as a tuple, and the giant step ``w^m`` if ``giant``.

    The giant step is None when ``giant`` is false.  Walked by
    :func:`_ladder`.  Cached by value: equal series, at equal
    precision and ``m``, share one table, which :func:`_compose` and
    :func:`_power_table` both read, so a second composition with an equal
    inner builds no power.
    """
    powers = _ladder(w, m + 1 if giant else m)
    return tuple(powers[:m]), powers[m] if giant else None


def _ladder(x: FormalPowerSeries, count: int) -> list[FormalPowerSeries]:
    """``x^0 .. x^(count-1)``, each even power the square of its half.

    An odd power is ``x`` times the power before it.  A square is one
    :func:`_square`, at half the products of a general product.
    """
    powers = [FormalPowerSeries.one(len(x._nums)), x][:count]
    for i in range(2, count):
        if i & 1:
            powers.append(powers[-1] * x)
        else:
            half = powers[i // 2]
            powers.append(half * half)
    return powers


def _linear_combination(coeffs, den: int, powers, length: int) -> FormalPowerSeries:
    """``sum coeffs[i]/den * powers[i]`` mod ``t^length``, up to the shorter list.

    The powers are known at least mod ``t^length``.
    """
    terms = [(c, s) for c, s in zip(coeffs, powers) if c]
    common = lcm(*(s._den for _, s in terms))
    out = [0] * length
    for c, s in terms:
        scale = c * (common // s._den)
        out = [x + scale * y for x, y in zip(out, s._nums)]
    return _series(out, common * den)


# -- Lagrange inversion ----------------------------------------------


def _check_phi(phi: FormalPowerSeries, n: int) -> FormalPowerSeries:
    """``phi`` mod ``t^n``, for a Lagrange solve at precision ``n >= 1`` with ``phi(0) != 0``."""
    if n < 1:
        raise SeriesError("precision must be positive")
    if not phi.coeff(0):
        raise SeriesError("phi(0) must be nonzero")
    if phi.precision >= n:
        return phi.truncate(n)
    if phi.precision == n - 1:
        # The solution of w = t phi(w) mod t^n only involves phi mod t^(n-1):
        # lagrange_solve keys its solve on phi mod t^(n-1), and coefficient
        # j < n of lagrange_coeffs reads [t^(j-k)] phi^j, j - k <= n - 2, so
        # one fabricated top coefficient cannot reach the result.
        return phi._padded(1)
    raise PrecisionError(f"phi known mod t^{phi.precision}, need at least t^{n - 1}")


def lagrange_solve(phi: FormalPowerSeries, precision: int) -> FormalPowerSeries:
    """The unique series ``w`` with ``w = t * phi(w)``, ``phi(0) != 0``.

    Computed by Newton iteration on ``F(w) = w - t phi(w)``, with
    ``F'(w) = 1 - t phi'(w)`` and doubling working precision.  A step
    from ``known`` to ``prec`` correct coefficients has ``F(w)`` of order
    ``known`` or more, so it needs ``F'(w)`` only mod ``t^h``,
    ``h = prec - known``.  It makes one composition, ``phi(w)`` mod
    ``t^(prec-1)`` by :func:`_compose`, and, when ``h > 1``, reads
    ``phi'(w)`` mod ``t^(h-1)`` off it by the chain rule:
    ``phi(w)' = phi'(w) w'``, and ``w'(0) = phi(0) != 0``, so ``phi'(w)``
    is ``phi(w)'/w'`` (Brent and Kung, J. ACM 25, 1978).  This is the one
    Newton iteration of the package: :meth:`revert`,
    ``RiordanArray.from_dA`` and the identity checkers solve through it.

    The solve is shared by value: the iteration (:func:`_newton`) is
    cached on ``phi`` mod ``t^(precision-1)`` and the precision.  That
    is all it reads, since every composition is at ``w`` mod
    ``t^(prec-1)``, ``prec <= precision``; it is also why
    :func:`_check_phi` may pad a ``phi`` known one order short.  So a
    ``phi`` that differs only at ``t^(precision-1)``, or is known only to
    there, shares one solve, as ``(t/phi).revert()`` does with
    ``lagrange_solve(phi, precision)``.  A refused ``phi`` raises before
    the cache and is never stored.
    """
    p = _check_phi(phi, precision)
    if precision == 1:
        return _wrap((0,), 1)
    return _newton(p.truncate(precision - 1), precision)


@lru_cache(maxsize=8)
def _newton(phi: FormalPowerSeries, precision: int) -> FormalPowerSeries:
    """The Newton iteration of :func:`lagrange_solve`, ``phi`` known mod ``t^(precision-1)``.

    Each step composes ``phi`` with a ``w`` that no later call meets, so
    its :func:`_compose` builds the table of powers of ``w`` uncached and
    stores nothing in the cache of :func:`_baby_and_giant_steps`.
    """
    w = _series([0, phi._nums[0]], phi._den)  # phi(0) t, correct mod t^2
    known = 2
    while known < precision:
        prec = min(2 * known, precision)
        h = prec - known
        # Zero-padding the current guess is safe: the Newton step below
        # repairs every coefficient up to twice the previously correct order.
        w = w._padded(h)
        # t phi(w) mod t^prec reads w and phi mod t^(prec-1) only; w is new at every
        # step, so _compose stores no table of its powers
        value = _compose(phi._nums, phi._den, w.truncate(prec - 1))
        # F(w) = t^known R, and the correction is t^known R / F'(w) mod t^prec
        r = (w - value.shift_up()).shift_down(known)
        if h > 1:
            # phi'(w) mod t^(h-1) = value'/w' reads value and w mod t^h, and
            # h <= known, so it reads only correct coefficients of w
            slope = value.truncate(h).derivative() / w.truncate(h).derivative()
            r = r / (1 - slope.shift_up())
        w = w - r.shift_up(known)
        known = prec
    return w


def _power_table(phi: FormalPowerSeries):
    """``m = isqrt(n - 1) + 1``, the reversed baby table ``phi^0 .. phi^(m-1)`` and ``phi^m``.

    ``n`` is ``phi``'s precision.  Each baby power is handed out as its
    numerators reversed, with its denominator: with ``rev = phi^r``
    reversed, ``rev[n - 1 - j + i] = phi^r[j - i]``, so coefficient ``j``
    of a product with ``phi^r`` is one dot product against a tail of
    ``rev``.  The giant step ``phi^m`` is None when ``m >= n``.  The
    powers come from the cache of :func:`_baby_and_giant_steps`, so equal
    series, at equal precision, share one table, which
    :func:`lagrange_gf` and :func:`lagrange_coeffs` both read.
    """
    n = len(phi._nums)
    m = isqrt(n - 1) + 1
    powers, giant = _baby_and_giant_steps(phi, m, n > m)
    return m, tuple((s._nums[::-1], s._den) for s in powers), giant


@lru_cache(maxsize=8)
def _giant_powers(phi: FormalPowerSeries) -> tuple[FormalPowerSeries, ...]:
    """``phi^(qm)`` for ``q = 0 .. (n-1)//m``, the :func:`_ladder` of the giant step ``phi^m``."""
    n = len(phi._nums)
    m, _, giant = _power_table(phi)
    return tuple(_ladder(giant, (n - 1) // m + 1)) if giant else (FormalPowerSeries.one(n),)


def lagrange_coeffs(phi: FormalPowerSeries, k: int, precision: int) -> FormalPowerSeries:
    """``w**k`` for ``w = t phi(w)`` straight from the coefficient formula.

    Coefficient ``j >= k`` is ``(k/j) [t^(j-k)] phi(t)**j``.  With
    ``j = qm + r``, ``[t^(j-k)] phi^j`` is one integer dot product of
    ``phi^(qm)`` (:func:`_giant_powers`) with the reversed ``phi^r``
    (:func:`_power_table`), so every ``k`` at one ``phi`` reads the same
    two cached tables, and a call with a warm table costs only its dot
    products.  Deliberately independent of :func:`lagrange_solve` and of
    composition, so the two routes can cross-check.
    """
    if k < 1:
        raise SeriesError("k must be >= 1")
    p = _check_phi(phi, precision)
    m, reversed_powers, _ = _power_table(p)
    giants = _giant_powers(p)
    terms = [(0, 1)] * min(k, precision)
    for j in range(k, precision):
        q, r = divmod(j, m)
        rev, den = reversed_powers[r]
        g = giants[q]
        dot = sum(map(mul, g._nums, rev[precision - 1 - (j - k):]))
        terms.append((k * dot, j * g._den * den))
    return _wrap(*_collect(terms))


def lagrange_gf(
    F: FormalPowerSeries, phi: FormalPowerSeries, precision: int
) -> FormalPowerSeries:
    """The Lagrange diagonal: the series whose coefficient ``n`` is ``[t^n] F(t) phi(t)**n``.

    Baby steps and giant steps (Brent and Kung, J. ACM 25, 1978): the
    baby table ``phi^0 .. phi^(m-1)`` and the giant step ``phi^m`` come
    from :func:`_power_table`, shared with every other call at an equal
    ``phi``, and ``G_q = F phi^(qm)`` is walked by one product with the
    giant step per block.  Coefficient ``j = qm + r`` is then
    ``[t^j] G_q phi^r``, one integer dot product of ``G_q[:j+1]`` with
    the reversed ``phi^r[:j+1]``.  A length-``n`` diagonal costs about
    ``sqrt(n)`` products and ``n`` dot products once the table is built,
    instead of ``n`` products.
    """
    if precision < 1:
        raise SeriesError("precision must be positive")
    if not phi.coeff(0):
        raise SeriesError("phi(0) must be nonzero")
    # coefficient n - 1 reads phi's coefficient n - 1, so phi is not padded here
    for name, series in (("F", F), ("phi", phi)):
        if series.precision < precision:
            raise PrecisionError(f"{name} known mod t^{series.precision}, need t^{precision}")
    m, reversed_powers, giant = _power_table(phi.truncate(precision))
    g = F.truncate(precision)
    terms = []
    for j in range(precision):
        q, r = divmod(j, m)
        if q and not r:
            g = g * giant
        rev, den = reversed_powers[r]
        terms.append((sum(map(mul, g._nums, rev[precision - 1 - j:])), g._den * den))
    return _wrap(*_collect(terms))
