"""Truncated formal power series over exact rationals.

A series is a finite coefficient vector together with an explicit
precision: ``f`` is known modulo ``t**f.precision`` and nothing beyond.
Coefficients are exact rationals, stored as integer numerators over one
common positive denominator in lowest terms.  Every kernel runs on those
integers: products and sums reduce by one gcd per operation, and the
division and exp recurrences by one per output coefficient, instead of
one per coefficient operation.  :meth:`FormalPowerSeries.coeff` and
:attr:`FormalPowerSeries.coeffs` return :class:`fractions.Fraction`.  No
operation ever rounds.  Requesting a coefficient at or past the
precision is an error rather than a silent zero, and binary operations
truncate to the smaller operand precision, so knowledge never grows by
accident.

Everything here is immutable and pure; values can be shared freely
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class SingularInversionError(SeriesError):
    """Denominator of the Lagrange generating-function form is not invertible."""


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise SeriesError("float coefficients are not exact; use Fraction or int")
    return Fraction(value)


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
    """The first ``n`` coefficients of the product of integer sequences."""
    out = [0] * n
    oa = next((i for i in range(n) if a[i]), n)
    ob = next((i for i in range(n) if b[i]), n)
    a = a[oa:n]
    rb = b[n - 1:ob - 1 if ob else None:-1]  # b[n-1], ..., b[ob]
    for k in range(oa + ob, n):
        # a[i] b[k-i] for oa <= i <= k - ob; map stops at the shorter input
        out[k] = sum(map(mul, a, rb[n - 1 - k + oa:]))
    return out


def _append_term(xs: list[int], den: int, num: int, step: int) -> int:
    """Append the term ``num/step`` to the numerators ``xs`` over ``den``.

    ``xs`` is extended in place and the new common denominator returned.
    The term is reduced once and the prefix rescaled only when the
    denominator must grow, so no integer gets larger than in the canonical
    form of the terms (a fraction-free recurrence would carry the product
    of every step); canonical ``xs/den`` stays canonical.
    """
    g = gcd(num, step)
    if step < 0:
        g = -g
    num //= g
    step //= g
    if den % step:
        grow = step // gcd(den, step)
        xs[:] = [x * grow for x in xs]
        den *= grow
    xs.append(num * (den // step))
    return den


def _solve(rhs, a: int, w, b: int, c, e: int) -> tuple[list[int], int]:
    """Solve ``x_i = (rhs_i/a - sum_{1<=j<=i} (w_j/b) x_{i-j}) * e / c_i``.

    The solution is built as integer numerators over one running common
    denominator by :func:`_append_term`, and is canonical.
    """
    xs: list[int] = []
    den = 1
    w1 = w[1:]
    for i, r in enumerate(rhs):
        s = sum(map(mul, w1, reversed(xs)))  # w_1 x_{i-1} + ... + w_i x_0
        den = _append_term(xs, den, (r * b * den - a * s) * e, a * b * den * c[i])
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
        # the lcm of reduced denominators shares no factor with every numerator
        den = lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "FormalPowerSeries":
        return cls([], precision=precision)

    @classmethod
    def one(cls, precision: int) -> "FormalPowerSeries":
        return cls([_ONE], precision=precision)

    @classmethod
    def t(cls, precision: int) -> "FormalPowerSeries":
        """The series ``t`` (requires precision >= 2 to be visible)."""
        return cls([_ZERO, _ONE], precision=precision)

    @classmethod
    def constant(cls, value: Scalar, precision: int) -> "FormalPowerSeries":
        return cls([_fraction(value)], precision=precision)

    # -- basic queries -----------------------------------------------

    @property
    def precision(self) -> int:
        return len(self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as fractions, built on each access."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``t**n``; error if ``n`` is out of the known range."""
        if n < 0:
            raise SeriesError(f"negative index {n}")
        if n >= len(self._nums):
            raise PrecisionError(
                f"coefficient {n} requested but series only known mod t^{len(self._nums)}"
            )
        return Fraction(self._nums[n], self._den)

    __getitem__ = coeff

    @property
    def order(self) -> int:
        """Index of the first nonzero coefficient (= precision if all zero)."""
        for i, x in enumerate(self._nums):
            if x:
                return i
        return len(self._nums)

    @property
    def is_zero(self) -> bool:
        return self.order == len(self._nums)

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

    @staticmethod
    def _coerce(value, precision: int):
        if isinstance(value, FormalPowerSeries):
            return value
        if isinstance(value, (int, Fraction)):
            return FormalPowerSeries.constant(value, precision)
        return None

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
        other = self._coerce(other, len(self._nums))
        if other is None:
            return NotImplemented
        return other - self

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
        b = other._den
        return _wrap(*_solve(self._nums[:n], self._den, g, b, [g[0]] * n, b))

    def __rtruediv__(self, other):
        other = self._coerce(other, len(self._nums))
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        """Integer power by square-and-multiply; ``f**0`` is 1."""
        if not isinstance(k, int):
            return NotImplemented
        n = len(self._nums)
        if k < 0:
            if not self._nums[0]:
                raise NonInvertibleError("negative power of a series with f(0) = 0")
            return (FormalPowerSeries.one(n) / self) ** (-k)
        result = FormalPowerSeries.one(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus helpers --------------------------------------------

    def derivative(self) -> "FormalPowerSeries":
        """Termwise derivative; precision drops by one."""
        if len(self._nums) < 2:
            raise PrecisionError("derivative needs precision >= 2")
        return _series([i * x for i, x in enumerate(self._nums[1:], 1)], self._den)

    def integral(self, constant: Scalar = 0) -> "FormalPowerSeries":
        """Termwise antiderivative; precision grows by one."""
        c = _fraction(constant)
        # coefficient i + 1 is nums[i] / (den (i + 1)); put all over den * lcm(1..n)
        scale = lcm(*range(1, len(self._nums) + 1))
        den = self._den * scale
        out = [c.numerator * den]
        out.extend(x * (scale // i) * c.denominator for i, x in enumerate(self._nums, 1))
        return _series(out, den * c.denominator)

    # -- composition, powers, reversion ------------------------------

    def compose(self, inner: "FormalPowerSeries") -> "FormalPowerSeries":
        """``self(inner(t))``, by baby steps and giant steps; requires ``inner(0) = 0``.

        The route is :func:`_compose_all`, the one composition kernel.
        """
        if not isinstance(inner, FormalPowerSeries):
            raise SeriesError("compose needs a series argument")
        if inner._nums[0]:
            raise CompositionOrderError("inner series must have order >= 1")
        n = min(len(self._nums), len(inner._nums))
        return _compose_all([(self._nums, self._den)], inner.truncate(n))[0]

    def _log(self) -> "FormalPowerSeries":
        # log f = integral(f'/f), valid for f(0) = 1
        if len(self._nums) == 1:
            return FormalPowerSeries.zero(1)
        return (self.derivative() / self).integral()

    @staticmethod
    def _exp(g: "FormalPowerSeries") -> "FormalPowerSeries":
        # exp g for g(0) = 0, via e' = e g' termwise: m e_m = sum k g_k e_{m-k}
        n = len(g._nums)
        rhs = [1] + [0] * (n - 1)
        w = [-k * x for k, x in enumerate(g._nums)]
        return _wrap(*_solve(rhs, 1, w, g._den, [1, *range(1, n)], 1))

    def pow_rational(self, r: Scalar) -> "FormalPowerSeries":
        """``f**r`` for rational ``r`` via exp(r log f); needs ``f(0) = 1``."""
        r = _fraction(r)
        if self._nums[0] != self._den:
            raise NormalizationError(
                "rational powers need constant term exactly 1; factor out constants first"
            )
        return self._exp(self._log() * r)

    def revert(self) -> "FormalPowerSeries":
        """Compositional inverse: ``self.compose(result) = t``.

        Requires order exactly 1.  With ``self = t h``, the inverse ``w``
        solves ``w h(w) = t``, that is ``w = t phi(w)`` with ``phi = 1/h``,
        so it is :func:`lagrange_solve` of ``1/h``; the one padded
        coefficient of ``phi`` cannot reach ``w`` mod ``t^precision``.  The
        independent Lagrange coefficient formula (:func:`lagrange_coeffs`)
        serves as the test oracle.
        """
        if self.order != 1:
            raise ReversionOrderError("reversion needs a series of order exactly 1")
        return lagrange_solve(1 / self.shift_down(), len(self._nums))

    # -- serialization -----------------------------------------------

    def to_record(self) -> dict:
        """JSON-ready record; fractions as decimal strings, round-trips exactly."""
        return {"prec": len(self._nums), "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_record(cls, record: dict) -> "FormalPowerSeries":
        return cls([Fraction(c) for c in record["coeffs"]], precision=record["prec"])


# -- composition by baby steps and giant steps ------------------------


def _compose_all(series, w: FormalPowerSeries) -> list[FormalPowerSeries]:
    """Each ``nums/den`` of ``series`` composed with ``w``, at ``w``'s precision ``n``.

    ``w(0) = 0``; a coefficient past an input's length counts as 0, and one
    at or past ``n`` cannot reach the result (``w^i`` vanishes mod ``t^n``
    from ``i = n`` on).  Brent and Kung's baby-step/giant-step scheme:
    with ``L`` the longest input without its trailing zeros and
    ``m = isqrt(L - 1) + 1``, every input is split into blocks of ``m``
    coefficients, each block is one linear combination of the baby table
    ``w^0 .. w^(m-1)``, and the blocks are joined by Horner's rule in the
    giant step ``W = w^m``.  A length-``L`` input costs about ``m + L/m``
    products instead of ``L``, and all inputs share the table and ``W``.
    """
    n = len(w._nums)
    trimmed = []
    for nums, den in series:
        nums = nums[:n]
        length = len(nums)
        while length and not nums[length - 1]:
            length -= 1
        trimmed.append((nums[:length], den))
    longest = max(len(nums) for nums, _ in trimmed)
    m = isqrt(max(longest - 1, 0)) + 1
    powers, giant = _baby_and_giant_steps(w, m, longest > m)
    out = []
    for nums, den in trimmed:
        blocks = [nums[i:i + m] for i in range(0, len(nums), m)] or [()]
        acc = _linear_combination(blocks.pop(), den, powers)
        for block in reversed(blocks):
            acc = acc * giant
            if any(block):
                acc = acc + _linear_combination(block, den, powers)
        out.append(acc)
    return out


def _baby_and_giant_steps(w: FormalPowerSeries, m: int, giant: bool):
    """The baby table ``w^0 .. w^(m-1)`` and, if ``giant``, the giant step ``w^m`` (else None)."""
    powers = [FormalPowerSeries.one(len(w._nums)), w][:m]
    while len(powers) < m:
        powers.append(powers[-1] * w)
    return powers, powers[-1] * w if giant else None


def _compose_with_derivative(
    g: FormalPowerSeries, w: FormalPowerSeries
) -> tuple[FormalPowerSeries, FormalPowerSeries]:
    """``g(w)`` and ``g'(w)`` at ``w``'s precision ``n``; ``w(0) = 0``, ``g`` known mod ``t^n``.

    The evaluation of each Newton step of :func:`lagrange_solve`.  Both
    come from one :func:`_compose_all` call, so they share its table of
    powers of ``w``.  ``g'(w)`` reads ``g`` up to index ``n``; a
    coefficient past ``g``'s precision counts as 0.
    """
    n = len(w._nums)
    slopes = [i * c for i, c in enumerate(g._nums[1:n + 1], 1)]
    value, slope = _compose_all([(g._nums, g._den), (slopes, g._den)], w)
    return value, slope


def _linear_combination(coeffs, den: int, powers) -> FormalPowerSeries:
    """``sum coeffs[i]/den * powers[i]`` up to the shorter list; the powers share a precision."""
    terms = [(c, s) for c, s in zip(coeffs, powers) if c]
    common = lcm(*(s._den for _, s in terms))
    out = [0] * len(powers[0]._nums)
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
        # The solution of w = t phi(w) mod t^n only involves phi mod t^(n-1),
        # so one fabricated top coefficient cannot reach the result.
        return phi._padded(1)
    raise PrecisionError(f"phi known mod t^{phi.precision}, need at least t^{n - 1}")


def lagrange_solve(phi: FormalPowerSeries, precision: int) -> FormalPowerSeries:
    """The unique series ``w`` with ``w = t * phi(w)``, ``phi(0) != 0``.

    Computed by Newton iteration on ``F(w) = w - t phi(w)``, with
    ``F'(w) = 1 - t phi'(w)`` and doubling working precision; each step
    reads ``phi(w)`` and ``phi'(w)`` from one baby-step/giant-step
    composition (:func:`_compose_all`), so a short phi costs a short table.
    This is the one Newton iteration of the package: :meth:`revert`,
    ``RiordanArray.from_dA`` and :func:`lagrange_gf` all solve through it.
    """
    p = _check_phi(phi, precision)
    w = _series([0, p._nums[0]][:precision], p._den)  # phi(0) t, correct mod t^2
    prec = 2
    while prec < precision:
        prec = min(2 * prec, precision)
        # Zero-padding the current guess is safe: the Newton step below
        # repairs every coefficient up to twice the previously correct order.
        w = w._padded(prec - len(w._nums))
        # t phi(w) and t phi'(w) mod t^prec read w mod t^(prec-1) only
        value, slope = _compose_with_derivative(p, w.truncate(prec - 1))
        # F(w) has order >= 1, so the quotient never reads the top
        # coefficient of F'(w), the only one to read p's last coefficient.
        w = w - (w - value.shift_up()) / (1 - slope.shift_up())
    return w


def _lagrange_diagonal(fs, phi: FormalPowerSeries) -> list[FormalPowerSeries]:
    """For each ``F`` of ``fs``, the series of ``[t^j] F(t) phi(t)^j``, ``j < n``.

    ``n`` is ``phi``'s precision, and each ``F`` is known mod ``t^n``.
    Baby steps and giant steps (Brent and Kung, J. ACM 25, 1978): with
    ``m = isqrt(n - 1) + 1``, the baby table ``phi^0 .. phi^(m-1)`` is
    built once and ``G_q = F phi^(qm)`` is walked by one product with the
    giant step ``phi^m`` per block.  Coefficient ``j = qm + r`` is then
    ``[t^j] G_q phi^r``, one integer dot product of ``G_q[:j+1]`` with the
    reversed ``phi^r[:j+1]``.  A length-``n`` diagonal costs about
    ``2 sqrt(n)`` products and ``n`` dot products instead of ``n`` products.
    """
    n = len(phi._nums)
    m = isqrt(n - 1) + 1
    powers, giant = _baby_and_giant_steps(phi, m, n > m)
    # with rev = phi^r reversed, rev[n - 1 - j + i] = phi^r[j - i]
    reversed_powers = [(s._nums[::-1], s._den) for s in powers]
    out = []
    for f in fs:
        g = f.truncate(n)
        nums, dens = [], []
        for j in range(n):
            q, r = divmod(j, m)
            if q and not r:
                g = g * giant
            rev, den = reversed_powers[r]
            nums.append(sum(map(mul, g._nums, rev[n - 1 - j:])))
            dens.append(g._den * den)
        common = lcm(*dens)
        out.append(_series([x * (common // d) for x, d in zip(nums, dens)], common))
    return out


def lagrange_coeffs(phi: FormalPowerSeries, k: int, precision: int) -> FormalPowerSeries:
    """``w**k`` for ``w = t phi(w)`` straight from the coefficient formula.

    Coefficient ``n`` is ``(k/n) [t^(n-k)] phi(t)**n = (k/n) [t^n] t^k phi(t)**n``,
    read off the Lagrange diagonal of ``F = t^k`` (:func:`_lagrange_diagonal`).
    Deliberately independent of :func:`lagrange_solve` and of composition,
    so the two routes can cross-check.
    """
    if k < 1:
        raise SeriesError("k must be >= 1")
    p = _check_phi(phi, precision)
    t_k = FormalPowerSeries.one(precision).shift_up(k).truncate(precision)
    (diagonal,) = _lagrange_diagonal([t_k], p)
    # coefficient 0 is [t^0] t^k = 0; put coefficient n's k/n over lcm(1..n)
    scale = lcm(*range(1, precision))
    nums = [0] + [k * x * (scale // n) for n, x in enumerate(diagonal._nums[1:], 1)]
    return _series(nums, scale * diagonal._den)


def lagrange_gf(
    F: FormalPowerSeries, phi: FormalPowerSeries, precision: int
) -> FormalPowerSeries:
    """The series whose coefficient ``n`` is ``[t^n] F(t) phi(t)**n``.

    Evaluated as ``F(w) / (1 - t phi'(w))`` at ``w = t phi(w)``, with
    ``F(w)`` and ``phi'(w)`` from one :func:`_compose_all` call.  The
    diagonal kernel :func:`_lagrange_diagonal` reads the same series
    coefficient by coefficient; the two routes share no step.
    """
    if precision < 1:
        raise SeriesError("precision must be positive")
    if not phi.coeff(0):
        raise SeriesError("phi(0) must be nonzero")
    if precision == 1:
        return FormalPowerSeries.constant(F.coeff(0), 1)
    # coefficient n - 1 reads phi's coefficient n - 1, so phi is not padded here
    for name, series in (("F", F), ("phi", phi)):
        if series.precision < precision:
            raise PrecisionError(f"{name} known mod t^{series.precision}, need t^{precision}")
    p = phi.truncate(precision)
    f = F.truncate(precision)
    w = lagrange_solve(p, precision)
    # phi' is known mod t^(n-1) only, so phi'(w) is read below its top coefficient
    dp = p.derivative()
    value, slope = _compose_all([(f._nums, f._den), (dp._nums, dp._den)], w)
    den = 1 - slope.truncate(precision - 1).shift_up()
    if not den.coeff(0):
        raise SingularInversionError("1 - t phi'(w) has zero constant term")
    return value / den
