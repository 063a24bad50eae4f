"""Riordan arrays as (d, h) pairs of truncated series.

An array ``D = (d, h)`` has entries ``d[n][k] = [t^n] d(t) (t h(t))^k``.
It is *proper* when ``h(0) != 0``; proper arrays are equivalently
determined by the first column ``d`` and the generating function ``A``
of their A-sequence, the unique weights with

    d[n+1][k+1] = a0 d[n][k] + a1 d[n][k+1] + a2 d[n][k+2] + ...

where ``h = A(t h)``.  This module builds arrays from either pair,
materializes finite triangles, recovers A-sequences from raw triangles,
extracts the row-subsampled arrays (keep row pn+r, shift left by
(p-1)n+r), and evaluates weighted row sums and the column convolution
identity.  Nothing is ever rounded.

A :class:`Triangle` stores its entries as integer rows over one common
positive denominator in lowest terms, the representation of
:class:`~riordan.series.FormalPowerSeries`.  Materializing a triangle
reads the cached columns' integer numerators and rescales them once to
the lcm of their denominators, and :func:`a_sequence` solves and verifies
the recurrence on those integers; :class:`fractions.Fraction` values are
built only when entries are read.

Extraction builds no column: the kept entries lie on Lagrange diagonals
``[t^n] F(t) phi(t)^n`` with ``phi = h^(p-1)``, so the new first column
and ``t h`` come from one
:func:`~riordan.series._lagrange_diagonal` call at the new, smaller
precision.  :func:`subarray_triangle` reads the same grid from the
columns and stays the independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .hypergeom import binomial_series
from .reports import Counterexample, IdentityReport
from .series import (
    FormalPowerSeries,
    PrecisionError,
    _append_term,
    _fraction,
    _lagrange_diagonal,
    _series,
    lagrange_solve,
)

_ZERO = Fraction(0)


class RiordanError(ValueError):
    """Base class for Riordan array failures."""


class InvalidDError(RiordanError):
    """d(0) = 0: the triangle would have a vanishing top-left entry."""


class ImproperAError(RiordanError):
    """A(0) = 0: no proper array has such an A-sequence."""


class ImproperArrayError(RiordanError):
    """Operation requires a proper array (h(0) != 0)."""


class NotRiordanError(RiordanError):
    """Triangle admits no A-sequence: the defining recurrence fails somewhere."""


class InsufficientDataError(RiordanError):
    """Triangle too small (or degenerate) to recover the requested A-terms."""


class TheoremViolationError(RiordanError):
    """Two provably-equal computation routes disagreed (test hook)."""


def _triangle(rows, den: int) -> "Triangle":
    """The triangle ``rows / den`` (``den > 0``), brought to canonical form."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
    tri = object.__new__(Triangle)
    tri._nums = tuple(map(tuple, rows))
    tri._den = den
    return tri


class Triangle:
    """A finite lower-triangular array of exact rationals.

    Row ``n`` has exactly ``n + 1`` entries.  The entries are stored as
    integer rows over one common positive denominator in lowest terms
    (``gcd(den, *all numerators) == 1``), so equal triangles have equal
    ``(rows, den)``; :attr:`rows` and :meth:`entry` build
    :class:`fractions.Fraction` values when read.  Floats are rejected.
    Serializes as plain text (one row per line, entries space-separated,
    integers bare and non-integers as ``p/q``), CSV, or JSON-line records
    with all numbers as decimal strings.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, rows: Iterable[Sequence]):
        norm = []
        for n, row in enumerate(rows):
            entries = [_fraction(c) for c in row]
            if len(entries) != n + 1:
                raise RiordanError(
                    f"row {n} has {len(entries)} entries, expected {n + 1}"
                )
            norm.append(entries)
        if not norm:
            raise RiordanError("a triangle needs at least one row")
        # the lcm of reduced denominators shares no factor with every numerator
        den = lcm(*(c.denominator for row in norm for c in row))
        self._nums = tuple(
            tuple(c.numerator * (den // c.denominator) for c in row) for row in norm
        )
        self._den = den

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as fractions, built on each access."""
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._nums)

    @property
    def nrows(self) -> int:
        return len(self._nums)

    def entry(self, n: int, k: int) -> Fraction:
        return Fraction(self._nums[n][k], self._den)

    @property
    def is_integral(self) -> bool:
        return self._den == 1

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"Triangle({self.nrows} rows)"

    def to_text(self) -> str:
        return "\n".join(" ".join(str(c) for c in row) for row in self.rows) + "\n"

    def to_csv(self) -> str:
        return "\n".join(",".join(str(c) for c in row) for row in self.rows) + "\n"

    def to_records(self) -> list[dict]:
        return [
            {"row": n, "entries": [str(c) for c in row]}
            for n, row in enumerate(self.rows)
        ]


class ASequence:
    """The recurrence weights of a proper array, as a series A with A(0) != 0."""

    __slots__ = ("series",)

    def __init__(self, series: FormalPowerSeries):
        if not series.coeff(0):
            raise ImproperAError("A(0) must be nonzero")
        self.series = series

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.series.coeffs

    def __eq__(self, other):
        if not isinstance(other, ASequence):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"ASequence({list(self.series.coeffs)})"


class RiordanArray:
    """The array ``(d, h)`` with entries ``[t^n] d (t h)^k``.

    The usable precision is ``min(d.precision, h.precision + 1)``: entry
    ``(n, k)`` only needs ``t h`` through order ``n``, and multiplying by
    ``t`` extends knowledge of ``h`` by one order.  Columns are cached as
    they are first touched; instances are otherwise immutable.
    """

    def __init__(self, d: FormalPowerSeries, h: FormalPowerSeries):
        if not d.coeff(0):
            raise InvalidDError("d(0) must be nonzero")
        n = min(d.precision, h.precision + 1)
        self._d = d.truncate(n)
        self._h = h.truncate(min(h.precision, n))
        self._th = self._h.shift_up().truncate(n)
        self._cols = {0: self._d}

    @classmethod
    def from_dA(cls, d: FormalPowerSeries, A: FormalPowerSeries) -> "RiordanArray":
        """Build the proper array with first column ``d`` and A-sequence ``A``.

        ``h`` is the unique solution of ``h = A(t h)``, i.e. ``t h`` solves
        ``w = t A(w)``.
        """
        if not A.coeff(0):
            raise ImproperAError("A(0) must be nonzero")
        if not d.coeff(0):
            raise InvalidDError("d(0) must be nonzero")
        n = min(d.precision, A.precision)
        th = lagrange_solve(A, n + 1)
        return cls(d.truncate(n), th.shift_down())

    @property
    def d(self) -> FormalPowerSeries:
        return self._d

    @property
    def h(self) -> FormalPowerSeries:
        return self._h

    @property
    def precision(self) -> int:
        return self._d.precision

    @property
    def proper(self) -> bool:
        return bool(self._h.coeff(0))

    def __repr__(self):
        return f"RiordanArray(precision={self.precision}, proper={self.proper})"

    def _column(self, k: int) -> FormalPowerSeries:
        # keyed cache with idempotent writes: concurrent callers may repeat
        # work but can never corrupt the indexing
        cols = self._cols
        cached = cols.get(k)
        if cached is not None:
            return cached
        j = k
        while j not in cols:
            j -= 1
        col = cols[j]
        while j < k:
            j += 1
            nxt = cols.get(j)
            if nxt is None:
                nxt = col * self._th
                cols[j] = nxt
            col = nxt
        return col

    def _check_index(self, n: int, k: int) -> None:
        if n < 0 or k < 0:
            raise RiordanError(f"negative index ({n}, {k})")
        if n >= self.precision or k >= self.precision:
            raise PrecisionError(
                f"entry ({n}, {k}) beyond array precision {self.precision}"
            )

    def entry(self, n: int, k: int) -> Fraction:
        """Exact entry; zero above the diagonal, error past the precision."""
        self._check_index(n, k)
        if k > n:
            return _ZERO  # ord((t h)^k) >= k
        return self._column(k).coeff(n)

    def row(self, n: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(n, k) for k in range(n + 1))

    def _band(self, tops: Sequence[int]) -> Triangle:
        """The triangle whose row ``i`` is entries ``(n, n-i), ..., (n, n)``, ``n = tops[i]``.

        Read straight from the cached columns' integer numerators, rescaled
        once to the lcm of their denominators.
        """
        if not tops:
            raise RiordanError("a triangle needs at least one row")
        for i, n in enumerate(tops):
            # k = n - i is the row's first and smallest column index, and k <= n
            self._check_index(n, n - i)
        lo = min(n - i for i, n in enumerate(tops))
        cols = [self._column(k) for k in range(lo, max(tops) + 1)]
        den = lcm(*(c._den for c in cols))
        scaled = [(c._nums, den // c._den) for c in cols]
        rows = [
            [nums[n] * scale for nums, scale in scaled[n - i - lo:n + 1 - lo]]
            for i, n in enumerate(tops)
        ]
        return _triangle(rows, den)

    def materialize(self, nrows: int, require_integral: bool = False) -> Triangle:
        """First ``nrows`` rows as a :class:`Triangle`."""
        if nrows < 1:
            raise RiordanError("nrows must be positive")
        if nrows > self.precision:
            raise PrecisionError(
                f"asked for {nrows} rows but precision is {self.precision}"
            )
        tri = self._band(range(nrows))
        if require_integral and not tri.is_integral:
            raise RiordanError("triangle has non-integer entries")
        return tri

    def extract_subarray(self, p: int, r: int) -> "RiordanArray":
        """Keep rows ``pn + r`` and columns from ``(p-1)n + r`` on.

        The result is again a Riordan array.  Entry ``(pn + r, (p-1)n + r + k)``
        is ``[t^n] t^k d h^(r+k) (h^(p-1))^n``, so the new first column is the
        Lagrange diagonal of ``F = d h^r`` and the new ``t h`` is that of
        ``F = t d h^(r+1)`` divided by it, both with ``phi = h^(p-1)`` and read by
        one :func:`~riordan.series._lagrange_diagonal` call at the new
        precision; no column of this array is built.  The A-sequence of the
        result equals ``A**p`` (checked by tests and by the CLI, not
        re-derived here), and :func:`subarray_triangle`, which reads the
        grid from the columns, is its oracle.
        """
        if p < 2:
            raise RiordanError(f"p must be >= 2, got {p}")
        if r < 0:
            raise RiordanError(f"r must be >= 0, got {r}")
        if not self.proper:
            raise ImproperArrayError("sub-array extraction needs a proper array")
        m = (self.precision - 1 - r) // p + 1 if self.precision > r else 0
        if m < 2:
            raise PrecisionError(
                f"precision {self.precision} too small to extract (p={p}, r={r})"
            )
        # rows pn + r < precision read d and h mod t^m only
        h = self._h.truncate(m)
        f = self._d.truncate(m) * h**r
        d_new, col1 = _lagrange_diagonal([f, (f * h).shift_up().truncate(m)], h**(p - 1))
        return RiordanArray(d_new, (col1 / d_new).shift_down())

    def weighted_row_sum(self, f: FormalPowerSeries, n: int) -> Fraction:
        """``sum_k f_k d[n][k]``, the finite sum; it equals ``[t^n] d(t) f(t h(t))``."""
        return sum((f.coeff(k) * self.entry(n, k) for k in range(n + 1)), _ZERO)

    def convolution_identity(self, n: int, k: int, s: int) -> IdentityReport:
        """Check ``d[n][k] = sum_{j=s}^{n} d[n-j][k-s] [t^j](t h)^s`` exactly."""
        if not (1 <= s <= k <= n):
            raise RiordanError(f"need 1 <= s <= k <= n, got n={n}, k={k}, s={s}")
        lhs = self.entry(n, k)
        ths = self._th**s
        rhs = sum(
            (self.entry(n - j, k - s) * ths.coeff(j) for j in range(s, n + 1)), _ZERO
        )
        cex = None
        if lhs != rhs:
            cex = Counterexample(
                params={"n": str(n), "k": str(k), "s": str(s)},
                lhs=str(lhs),
                rhs=str(rhs),
            )
        return IdentityReport(
            identity="riordan-convolution",
            grid=f"n={n}, k={k}, s={s}",
            points=1,
            counterexample=cex,
        )


def subarray_triangle(array: RiordanArray, p: int, r: int, nrows: int) -> Triangle:
    """The extracted grid straight from the definition ``d[pn+r][(p-1)n+r+k]``.

    Independent of :meth:`RiordanArray.extract_subarray`; used as its oracle.
    """
    # row n of the grid ends on the diagonal of array row pn + r
    return array._band([p * n + r for n in range(nrows)])


def a_sequence(triangle: Triangle, terms: int | None = None) -> ASequence:
    """Recover the A-sequence of a triangle from the defining recurrence.

    Solves the triangular system given by positions ``(n+1, 1)`` for
    increasing ``n``, then verifies the recurrence on *every* in-range
    ``(n, k)`` pair.  ``nrows`` rows recover ``nrows - 1`` terms.

    The recurrence is homogeneous, so it runs on the triangle's integer
    rows ``R``.  The terms are integer numerators ``x_i`` over one running
    common denominator ``E``, built as in the series division kernel, and
    each check is the integer test ``E R[n+1][k+1] == sum_i x_i R[n][k+i]``.
    """
    rows = triangle._nums
    available = triangle.nrows - 1
    if terms is None:
        terms = available
    if terms < 1 or terms > available:
        raise InsufficientDataError(
            f"{triangle.nrows} rows recover at most {available} terms, asked for {terms}"
        )
    xs: list[int] = []
    den = 1
    for n in range(available):
        pivot = rows[n][n]
        if not pivot:
            raise InsufficientDataError(
                f"zero diagonal entry at row {n}: triangle is not a proper array"
            )
        num = den * rows[n + 1][1] - sum(map(mul, xs, rows[n]))  # xs has n terms
        den = _append_term(xs, den, num, den * pivot)
    for n in range(available):
        row, lhs_row = rows[n], rows[n + 1]
        for k in range(n + 1):
            rhs = sum(map(mul, xs, row[k:]))
            if den * lhs_row[k + 1] != rhs:
                tri_den = triangle._den
                raise NotRiordanError(
                    f"recurrence fails at (n={n + 1}, k={k + 1}): "
                    f"{Fraction(lhs_row[k + 1], tri_den)} != {Fraction(rhs, den * tri_den)}"
                )
    return ASequence(_series(xs[:terms], den))


# -- the three stock triangles ----------------------------------------


def catalan_gf(precision: int) -> FormalPowerSeries:
    """1, 1, 2, 5, 14, ...: the Catalan number generating function B_2."""
    return binomial_series(2, 1, precision)


def central_binomial_gf(precision: int) -> FormalPowerSeries:
    """1, 2, 6, 20, ...: central binomial coefficients, i.e. (1-4t)^(-1/2)."""
    return FormalPowerSeries([comb(2 * m, m) for m in range(precision)])


def pascal(precision: int) -> RiordanArray:
    """Pascal's triangle: d = h = 1/(1-t), A = 1 + t."""
    g = FormalPowerSeries([1] * precision)
    return RiordanArray(g, g)


def catalan_triangle(precision: int) -> RiordanArray:
    """Shapiro's Catalan triangle: entries (k+1)/(n+1) C(2n+2, n-k).

    First column (and h-series) is B_2^2 = 1, 2, 5, 14, ...; A = (1 + t)^2.
    """
    shifted = binomial_series(2, 2, precision)
    return RiordanArray(shifted, shifted)


def ballot_triangle(precision: int) -> RiordanArray:
    """The ballot-style variant: entries (k+1)/(n+1) C(2n-k, n).

    d = h = the Catalan generating function; A = 1/(1-t).
    """
    c = catalan_gf(precision)
    return RiordanArray(c, c)
