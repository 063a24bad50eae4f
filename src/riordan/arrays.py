"""Riordan arrays as (d, h) pairs of truncated series.

An array ``D = (d, h)`` has entries ``d[n][k] = [t^n] d(t) (t h(t))^k``.
It is *proper* when ``h(0) != 0``; proper arrays are equivalently
determined by the first column ``d`` and the generating function ``A``
of their A-sequence, the unique weights with

    d[n+1][k+1] = a0 d[n][k] + a1 d[n][k+1] + a2 d[n][k+2] + ...

where ``h = A(t h)``.  This module builds arrays from either pair,
materializes finite triangles, recovers A-sequences (as series) from raw
triangles and extracts the row-subsampled arrays (keep row pn+r, shift
left by (p-1)n+r).  Nothing is ever rounded.

A :class:`Triangle` stores its entries as integer rows over one common
positive denominator in lowest terms, the representation of
:class:`~riordan.series.FormalPowerSeries`, reached by that module's
:func:`~riordan.series._collect` and :func:`~riordan.series._lowest`.
An array keeps its A-sequence when it is known exactly, as a series
``P`` and a count ``j`` with ``A = P/(1 - t)^j``: ``from_dA`` keeps
``(A, 0)``, ``pascal`` and ``catalan_triangle`` keep ``(1 + t, 0)`` and
``((1 + t)^2, 0)``, and ``ballot_triangle`` keeps ``(1, 1)``.  One row
step, :func:`_step`, runs the recurrence multiplied through by
``(1 - t)^j``,

    sum_i (-1)^i C(j, i) d[n+1][k+1+i] = sum_l P_l d[n][k+l],

on integer rows: row ``n`` correlated with ``P`` and then summed ``j``
times from the right (each a suffix running sum) gives entries
``1..n+1`` of row ``n+1``, so an entry costs one product per nonzero
term of ``P`` and ``j`` additions.  The row generator puts ``d[n+1]``
in front of each step.  ``from_dA`` solves ``h`` (a Newton solve)
only when ``h``, an entry or a column is first read; the rows never
need it.  Any other array materializes from its cached columns,
column ``k`` being column ``k-1`` times ``t h``, whose integer numerators
are rescaled once to the lcm of their denominators; that column route is
the row route's oracle in the tests.  :func:`a_sequence` recovers ``A``
from a triangle given from outside: it solves the recurrence from
neighbouring rows of the triangle's integer rows and checks each row
against the step of the row before it, from ``A`` compacted to
``P/(1 - t)^j``, with no array rebuilt; :class:`fractions.Fraction`
values are built only when entries are read.  An array built here needs
no such recovery, as it keeps its ``A``.  One reader,
:meth:`RiordanArray._rows`, hands out the generator's first rows after a
row-count check; :meth:`RiordanArray.materialize` puts them over one
denominator as a :class:`Triangle`, and the CLI writes them as they come.

Extraction reads the new first column and ``t h`` by one of two
routes.  The rows route walks the row generator once, one row at a
time, and reads them off rows ``pn + r``; it needs ``A = P/(1 - t)^j``.
The walk keeps two entries of every row, cached by ``(p, r // p)``
beside the columns, so one walk serves every residue ``r`` at that key:
the even and the odd rows of Pascal's triangle are read off one walk.
The diagonal route reads the kept entries as Lagrange diagonals
``[t^n] F(t) phi(t)^n`` with ``phi = h^(p-1)``, by
:func:`~riordan.series.lagrange_gf` at the new, smaller precision.  An
array known only by ``(d, h)`` takes the diagonal; one that keeps a
short ``P`` and a small ``j`` takes the rows, and a dense ``P`` the
diagonal, by an estimate of their costs.  When the base keeps
``A`` the result keeps ``A^p = P^p/(1 - t)^(jp)`` (Merlini, Rogers,
Sprugnoli & Verri, Canad. J. Math. 49, 1997) on either route, so its
own rows run the recurrence too; otherwise it keeps no A-sequence.
:func:`subarray_triangle` reads the same grid from the columns, never
from the rows, and stays the independent oracle of both routes and of
the rows built from ``A^p``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, pairwise
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .hypergeom import binomial_series
from .series import (
    FormalPowerSeries,
    PrecisionError,
    _append_term,
    _collect,
    _fraction,
    _lowest,
    _series,
    _stripped,
    _wrap,
    lagrange_gf,
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


def _step(row: Sequence[int], P: Sequence[int], j: int) -> list[int]:
    """One step of the recurrence on ``A = P/(1 - t)^j``, over the integers.

    Row ``n`` of a triangle gives ``sum_i A_i d[n][k+i]`` for every ``k``
    of the row, the entries ``1..n+1`` of row ``n+1``, over ``P``'s
    denominator.  The row is correlated with ``P``'s numerators, one term
    of ``P`` at a time across the whole row, so an entry costs one product
    per nonzero term; then it is summed ``j`` times from the right, as
    ``x[k] - x[k+1] = c[k]`` is a suffix running sum, at ``j`` additions
    an entry.  ``P[0]`` must exist.
    """
    c = P[0]
    out = list(row) if c == 1 else [c * x for x in row]
    for i in range(1, min(len(P), len(row))):
        c = P[i]
        if c:
            tail = row[i:]
            out[:len(tail)] = (map(add, out, tail) if c == 1
                               else [y + c * x for y, x in zip(out, tail)])
    for _ in range(j):
        out = list(accumulate(reversed(out)))[::-1]
    return out


def _triangle(rows, den: int) -> "Triangle":
    """The triangle ``rows / den`` (``den > 0``), brought to lowest terms by :func:`_lowest`."""
    rows, den = _lowest(rows, den)
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
        nums, self._den = _collect((c.numerator, c.denominator) for row in norm for c in row)
        flat = iter(nums)
        self._nums = tuple(tuple(islice(flat, n + 1)) for n in range(len(norm)))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as fractions, built on each access."""
        den = self._den
        if den == 1:
            return tuple(tuple(map(Fraction, row)) for row in self._nums)
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._nums)

    @property
    def nrows(self) -> int:
        return len(self._nums)

    def entry(self, n: int, k: int) -> Fraction:
        """Exact entry; zero above the diagonal, error past the last row."""
        if n < 0 or k < 0:
            raise RiordanError(f"negative index ({n}, {k})")
        if n >= len(self._nums):
            raise RiordanError(f"row {n} is past the last row, {len(self._nums) - 1}")
        return Fraction(self._nums[n][k], self._den) if k <= n else _ZERO

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"Triangle({self.nrows} rows)"


class RiordanArray:
    """The array ``(d, h)`` with entries ``[t^n] d (t h)^k``.

    The usable precision is ``min(d.precision, h.precision + 1)``: entry
    ``(n, k)`` only needs ``t h`` through order ``n``, and multiplying by
    ``t`` extends knowledge of ``h`` by one order.  Columns are cached as
    they are first touched, and an array built from its A-sequence solves
    ``h`` once, when it is first needed; instances are otherwise immutable.
    """

    def __init__(self, d: FormalPowerSeries, h: FormalPowerSeries):
        if not d.coeff(0):
            raise InvalidDError("d(0) must be nonzero")
        n = min(d.precision, h.precision + 1)
        self._d = d.truncate(n)
        self._h = h.truncate(min(h.precision, n))
        self._cols = {0: self._d}
        self._kept = {}
        self._P = None

    @classmethod
    def from_dA(cls, d: FormalPowerSeries, A: FormalPowerSeries) -> "RiordanArray":
        """Build the proper array with first column ``d`` and A-sequence ``A``.

        ``h`` is the unique solution of ``h = A(t h)``, i.e. ``t h`` solves
        ``w = t A(w)``.  That solve waits until ``h``, an entry or a column
        is first read: :meth:`materialize` builds the rows from ``A`` alone.
        """
        if not A.coeff(0):
            raise ImproperAError("A(0) must be nonzero")
        if not d.coeff(0):
            raise InvalidDError("d(0) must be nonzero")
        n = min(d.precision, A.precision)
        array = object.__new__(cls)
        array._d = d.truncate(n)
        array._h = None
        array._cols = {0: array._d}
        array._kept = {}
        return array._with_A(A)

    def _with_A(self, P: FormalPowerSeries, j: int = 0) -> "RiordanArray":
        """This array, told its A-sequence ``A = P/(1 - t)^j``.

        ``P`` is known mod t^precision at least, and ``j >= 0``.
        """
        self._P = P.truncate(self.precision)
        self._j = j
        return self

    @property
    def d(self) -> FormalPowerSeries:
        return self._d

    @property
    def h(self) -> FormalPowerSeries:
        if self._h is None:
            # t h solves w = t A(w); rows below the precision read A mod t^(precision-1)
            self._h = lagrange_solve(self.A, self.precision + 1).shift_down()
        return self._h

    @property
    def A(self) -> FormalPowerSeries | None:
        """The A-sequence mod ``t^precision`` when the array keeps it, else None.

        ``from_dA``, the three stock triangles and the arrays extracted
        from an array that keeps it keep it, as ``P/(1 - t)^j``; this is
        that quotient, formed on each read as ``j`` prefix sums of ``P``'s
        numerators.  A prefix sum is unimodular, so the result stays in
        lowest terms over ``P``'s denominator.
        """
        if self._P is None:
            return None
        nums = self._P._nums
        for _ in range(self._j):
            nums = accumulate(nums)
        return _wrap(nums, self._P._den)

    @property
    def precision(self) -> int:
        return self._d.precision

    @property
    def proper(self) -> bool:
        # h(0) = A(0) != 0 whenever A is known
        return self._P is not None or bool(self._h.coeff(0))

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
        th = self.h.shift_up().truncate(self.precision)
        while j < k:
            j += 1
            nxt = cols.get(j)
            if nxt is None:
                nxt = col * th
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

    def _band(self, tops: Sequence[int]) -> Triangle:
        """The triangle whose row ``i`` is entries ``(n, n-i), ..., (n, n)``, ``n = tops[i]``.

        Read straight from the cached columns' integer numerators, rescaled
        once to the lcm of their denominators.  ``_band(range(nrows))`` is
        the column route of :meth:`materialize`, and the oracle of its rows.
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

    def _row_stream(self):
        """Rows ``0 .. precision-1`` by the recurrence on ``A = P/(1 - t)^j``, one at a time.

        Each row is yielded as integers over its own denominator, brought
        to lowest terms by :func:`~riordan.series._lowest` from row 1 on.
        Row ``n+1`` is ``d[n+1]`` followed by :func:`_step` of row ``n``,
        over ``P.den`` times row ``n``'s denominator.
        """
        dn, dd = self._d._nums, self._d._den
        a, ad = _stripped(self._P._nums), self._P._den
        row, den = [dn[0]], dd
        yield row, den
        for n in range(1, len(dn)):
            step = ad * den
            den = lcm(step, dd)
            scale = den // step
            row = _step(row, a, self._j)
            if scale != 1:
                row = [x * scale for x in row]
            row.insert(0, dn[n] * (den // dd))
            (row,), den = _lowest([row], den)
            yield row, den

    def _rows(self, nrows: int):
        """The first ``nrows`` rows of :meth:`_row_stream`, after the row-count check.

        No row is made until the first is read, so :meth:`materialize`
        refuses through it also on an array that has no rows to walk.
        """
        if nrows < 1:
            raise RiordanError("nrows must be positive")
        if nrows > self.precision:
            raise PrecisionError(
                f"asked for {nrows} rows but precision is {self.precision}"
            )
        return islice(self._row_stream(), nrows)

    def materialize(self, nrows: int) -> Triangle:
        """First ``nrows`` rows as a :class:`Triangle`.

        Built by the recurrence on ``A = P/(1 - t)^j`` when the array keeps its
        A-sequence (an extracted array keeps ``A^p`` when its base kept
        ``A``), and from the columns otherwise; both give the same
        canonical triangle.  The rows of :meth:`_row_stream` are rescaled
        once to the lcm of their denominators.
        """
        rows = self._rows(nrows)
        if self._P is None:
            return self._band(range(nrows))
        rows, dens = zip(*rows)
        den = lcm(*dens)
        if den != 1:
            rows = [r if e == den else [x * (den // e) for x in r] for r, e in zip(rows, dens)]
        return _triangle(rows, den)

    def extract_subarray(self, p: int, r: int) -> "RiordanArray":
        """Keep rows ``pn + r`` and columns from ``(p-1)n + r`` on.

        The result is again a Riordan array, of precision
        ``m = (precision - 1 - r) // p + 1``; its first column is the kept
        entries ``(pn + r, (p-1)n + r)``, its ``t h`` those one column to
        the right, and its ``h`` the second divided by the first.  They are
        read by one of two routes.  The rows route walks the row generator
        once, holding one row at a time and building no column, and reads
        rows ``pn + r``; it needs the A-sequence ``A = P/(1 - t)^j``, and
        its walk serves every ``r`` at one ``r // p``.  The diagonal route
        reads entry ``(pn + r, (p-1)n + r + k)`` as ``[t^n] t^k d h^(r+k)
        (h^(p-1))^n``: the new first column is the Lagrange diagonal of
        ``F = d h^r`` and the new ``t h`` is that of ``F = t d h^(r+1)``,
        both with ``phi = h^(p-1)``, each read by
        :func:`~riordan.series.lagrange_gf` at the new precision.  The
        table of ``phi`` is cached by value, so the second diagonal, and
        extractions at one ``p`` and an equal new precision (``r = 0`` and
        ``r = 1`` on an even precision), reuse the first one's table.  An
        array known by ``(d, h)`` alone takes the diagonal, and one that
        keeps ``A = P/(1 - t)^j`` takes whichever is estimated cheaper: a
        short ``P`` and a small ``j`` take the rows, a dense ``P`` (a long
        ``--A`` list) the diagonal.  When this array keeps ``A`` the result
        keeps ``A^p = P^p/(1 - t)^(jp)``, ``P^p`` mod ``t^m``, on either
        route, so that its rows also run the recurrence.
        :func:`subarray_triangle`, which reads the grid from the columns,
        is the oracle.
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
        # An array known by (d, h) alone has no rows to walk.  The row walk
        # makes about (p m)^2 / 2 entries at |P| products and j additions
        # each; the diagonal makes about 3 isqrt(m) products of length m,
        # after a Newton solve of h at the base precision on a from_dA
        # array.  Timed on the stock triangles and on short and dense
        # from_dA arrays at p = 2..5 and m = 30..200, the rows were the
        # cheaper, or within 1.8 times, while p (|P| + j + 1) <= m, and a
        # dense A (|P| about p m) was up to 2.6 times cheaper on the diagonal.
        short = self._P is not None and p * (len(_stripped(self._P._nums)) + self._j + 1) <= m
        d_new, col1 = (self._rows_route if short else self._diagonal_route)(p, r, m)
        sub = RiordanArray(d_new, (col1 / d_new).shift_down())
        return sub if self._P is None else sub._with_A(self._P.truncate(m) ** p, self._j * p)

    def _diagonal_route(self, p: int, r: int, m: int):
        """The extracted first column and ``t h`` as two Lagrange diagonals."""
        # rows pn + r < precision read d and h mod t^m only; a from_dA base
        # that has not solved h solves it to that order, and keeps nothing
        h = (self._h if self._h is not None
             else lagrange_solve(self.A, m + 1).shift_down()).truncate(m)
        f = self._d.truncate(m) * h**r
        phi = h**(p - 1)
        return lagrange_gf(f, phi, m), lagrange_gf((f * h).shift_up().truncate(m), phi, m)

    def _rows_route(self, p: int, r: int, m: int):
        """The extracted first column and ``t h`` off rows ``pn + r`` of one row walk.

        With ``q = r // p``, row ``pn + r`` holds the kept entries ``(pn + r,
        (p-1)n + r)`` and ``(pn + r, (p-1)n + r + 1)`` at columns ``c`` and
        ``c + 1``, ``c = R - R//p + q`` for ``R = pn + r``.  One walk of
        :meth:`_row_stream` keeps those two entries of every row ``R``, and
        its denominator, as three flat lists cached by ``(p, q)`` beside the
        columns, so it serves every residue ``r`` at that key.  An entry
        above the diagonal is 0.
        """
        q = r // p
        kept = self._kept.get((p, q))
        if kept is None:
            firsts, seconds, dens = kept = [], [], []
            for R, (row, den) in enumerate(self._row_stream()):
                c = R - R // p + q
                firsts.append(row[c] if c <= R else 0)
                seconds.append(row[c + 1] if c < R else 0)
                dens.append(den)
            self._kept[(p, q)] = kept
        firsts, seconds, dens = kept
        rows = range(r, r + p * m, p)
        return (_wrap(*_collect((firsts[i], dens[i]) for i in rows)),
                _wrap(*_collect((seconds[i], dens[i]) for i in rows)))


def subarray_triangle(array: RiordanArray, p: int, r: int, nrows: int) -> Triangle:
    """The extracted grid straight from the definition ``d[pn+r][(p-1)n+r+k]``.

    Read from the cached columns of ``array``, never from its rows, so it
    is independent of both routes of :meth:`RiordanArray.extract_subarray`
    and of the rows the extracted array builds from ``A^p``; used as the
    oracle of all three.
    """
    # row n of the grid ends on the diagonal of array row pn + r
    return array._band([p * n + r for n in range(nrows)])


def a_sequence(triangle: Triangle, terms: int | None = None) -> FormalPowerSeries:
    """Recover the A-sequence of a triangle from the defining recurrence.

    Solves the triangular system given by positions ``(n+1, 1)`` for
    increasing ``n``, then verifies the recurrence on *every* in-range
    ``(n, k)`` pair.  ``nrows`` rows recover ``nrows - 1`` terms, returned
    as the series A mod ``t^terms``; A(0) = 0 is refused, as no proper
    array has it.

    The work is on the triangle's integer rows, whose one denominator
    cancels from the solve: the ``N = nrows - 1`` terms are numerators
    ``x_i`` over one running common denominator, as in the series
    division kernel.  The check reads ``A`` in the row recurrence's form
    ``P/(1 - t)^j``, ``P = x (1 - t)^j`` mod ``t^N`` (each factor one
    difference), at the ``j`` of least cost ``|P| + j`` an entry (no ``j``
    past the best cost so far can beat it: the ballot triangle's
    ``x = 1, 1, 1, ...`` gives ``(1, 1)``).  Entries ``1..n`` of row ``n``,
    times the solve's denominator, must equal :func:`_step` of row
    ``n - 1``; the first entry that differs is the first to fail the
    recurrence.  Both the solve and the check read only neighbouring rows.
    """
    rows, tden = triangle._nums, triangle._den
    available = len(rows) - 1
    if terms is None:
        terms = available
    if terms < 1 or terms > available:
        raise InsufficientDataError(f"{len(rows)} rows recover at most {available} "
                                    f"terms, asked for {terms}")
    xs: list[int] = []
    den = 1
    for n, (row, nxt) in enumerate(pairwise(rows)):
        pivot = row[n]
        if not pivot:
            raise InsufficientDataError(f"zero diagonal entry at row {n}: "
                                        "triangle is not a proper array")
        dot = sum(map(mul, xs, row))  # xs has n terms, over den
        den = _append_term(xs, den, den * nxt[1] - dot, den * pivot)
    if not xs[0]:
        # x_0 = 0 zeroes entry (1, 1), a pivot unless there are two rows,
        # whose one check cannot fail
        raise ImproperAError("A(0) must be nonzero")
    best = (len(_stripped(xs)), 0, xs)  # cost |P| + j, j, P
    diff = xs
    for j in range(1, available):
        if j >= best[0]:
            break
        diff = list(map(sub, diff, [0, *diff]))  # times 1 - t, mod t^N
        best = min(best, (len(_stripped(diff)) + j, j, diff))
    j, P = best[1], _stripped(best[2])
    for n, (row, nxt) in enumerate(pairwise(rows), 1):
        step = _step(row, P, j)  # entries 1..n of row n, over den * tden
        lhs = [x * den for x in nxt[1:]] if den != 1 else list(nxt[1:])
        if lhs != step:
            k = next(k for k, (x, y) in enumerate(zip(lhs, step), 1) if x != y)
            raise NotRiordanError(f"recurrence fails at (n={n}, k={k}): {Fraction(nxt[k], tden)}"
                                  f" != {Fraction(step[k - 1], den * tden)}")
    return _series(xs[:terms], den)


# -- the three stock triangles ----------------------------------------


def pascal(precision: int) -> RiordanArray:
    """Pascal's triangle: d = h = 1/(1-t), A = 1 + t."""
    g = FormalPowerSeries([1] * precision)
    return RiordanArray(g, g)._with_A(FormalPowerSeries([1, 1], precision=precision))


def catalan_triangle(precision: int) -> RiordanArray:
    """Shapiro's Catalan triangle: entries (k+1)/(n+1) C(2n+2, n-k).

    First column (and h-series) is B_2^2 = 1, 2, 5, 14, ...; A = (1 + t)^2.
    """
    shifted = binomial_series(2, 2, precision)
    A = FormalPowerSeries([1, 2, 1], precision=precision)
    return RiordanArray(shifted, shifted)._with_A(A)


def ballot_triangle(precision: int) -> RiordanArray:
    """The ballot-style variant: entries (k+1)/(n+1) C(2n-k, n).

    d = h = the Catalan generating function B_2 = 1, 1, 2, 5, 14, ...; A = 1/(1-t),
    kept as P = 1 and j = 1.
    """
    c = binomial_series(2, 1, precision)
    return RiordanArray(c, c)._with_A(FormalPowerSeries.one(precision), 1)
