"""Differential tests: the integer array kernels against a Fraction reference.

``Triangle`` stores integer rows over one common denominator, and
``materialize``, ``subarray_triangle`` and ``a_sequence`` run on those
integers.  The references below are the plain per-entry ``Fraction``
versions: a triangle built entry by entry through ``RiordanArray.entry``,
and the A-sequence solve and verify loops on ``Fraction`` rows.  Results,
exception types and messages must agree exactly, and every triangle must
be in canonical form (positive denominator sharing no factor with all
numerators).  An array that keeps its A-sequence ``P/(1 - t)^j``
materializes by the recurrence; the column route (``_band``) is that
route's oracle, and series division that of ``A``.  On such an array
``extract_subarray`` reads the base's rows (or, for a dense A, a Lagrange
diagonal) and keeps ``A^p``; the Lagrange-diagonal route on the same
``(d, h)`` with no A, and ``subarray_triangle`` (the base's columns), are
its oracles.
"""

from fractions import Fraction
from itertools import chain
from math import ceil, comb, gcd, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan import arrays as arrays_module
from riordan import series
from riordan.arrays import (
    ImproperAError,
    InsufficientDataError,
    NotRiordanError,
    RiordanArray,
    Triangle,
    a_sequence,
    ballot_triangle,
    catalan_triangle,
    pascal,
    subarray_triangle,
)
from riordan.series import FormalPowerSeries as FPS
from riordan.series import PrecisionError

KERNEL = settings(derandomize=True, database=None, max_examples=60, deadline=None)


# -- Fraction reference ------------------------------------------------------


def ref_a_sequence(triangle, terms=None):
    rows = triangle.rows
    available = triangle.nrows - 1
    if terms is None:
        terms = available
    if terms < 1 or terms > available:
        raise InsufficientDataError(
            f"{triangle.nrows} rows recover at most {available} terms, asked for {terms}"
        )
    a = []
    for n in range(available):
        pivot = rows[n][n]
        if not pivot:
            raise InsufficientDataError(
                f"zero diagonal entry at row {n}: triangle is not a proper array"
            )
        acc = rows[n + 1][1]
        for i in range(n):
            if a[i] and rows[n][i]:
                acc -= a[i] * rows[n][i]
        a.append(acc / pivot)
    for n in range(available):
        for k in range(n + 1):
            rhs = sum((a[i] * rows[n][k + i] for i in range(n - k + 1)), Fraction(0))
            if rows[n + 1][k + 1] != rhs:
                raise NotRiordanError(
                    f"recurrence fails at (n={n + 1}, k={k + 1}): "
                    f"{rows[n + 1][k + 1]} != {rhs}"
                )
    if not a[0]:
        raise ImproperAError("A(0) must be nonzero")
    return FPS(a[:terms])


def ref_materialize(array, nrows):
    return Triangle([array.entry(n, k) for k in range(n + 1)] for n in range(nrows))


def ref_subarray_triangle(array, p, r, nrows):
    return Triangle(
        [
            [array.entry(p * n + r, (p - 1) * n + r + k) for k in range(n + 1)]
            for n in range(nrows)
        ]
    )


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def recovered(triangle, terms=None):
    return a_sequence(triangle, terms)


def assert_canonical(tri):
    assert tri._den > 0
    assert gcd(tri._den, *chain.from_iterable(tri._nums)) == 1


# -- strategies ---------------------------------------------------------------

integer = st.integers(-6, 6)
rational = st.builds(
    lambda n, d, k: Fraction(n * k, d * k),
    st.integers(-6, 6), st.integers(1, 6), st.integers(1, 4),
)
unit = st.sampled_from([1, -1, 2, Fraction(3, 5), Fraction(-7, 4)])


@st.composite
def arrays(draw, rational_entries=True):
    """A proper ``(d, A)`` array, known to ``rows`` orders, and ``rows``."""
    coeff = st.one_of(integer, rational) if rational_entries else integer
    lead = unit if rational_entries else st.sampled_from([1, -1, 2, -3])
    rows = draw(st.integers(2, 9))
    d = [draw(lead)] + draw(st.lists(coeff, max_size=rows - 1))
    A = [draw(lead)] + draw(st.lists(coeff, max_size=rows - 1))
    return RiordanArray.from_dA(FPS(d, precision=rows), FPS(A, precision=rows)), rows


any_array = st.one_of(arrays(rational_entries=False), arrays())


# -- a_sequence ----------------------------------------------------------------


@KERNEL
@given(any_array)
def test_a_sequence_matches_reference(case):
    array, rows = case
    tri = array.materialize(rows)
    got = recovered(tri)
    assert got == ref_a_sequence(tri)


@KERNEL
@given(any_array, st.data())
def test_a_sequence_recovers_the_building_A(case, data):
    array, rows = case
    A = data.draw(st.lists(st.one_of(integer, rational), min_size=rows, max_size=rows))
    A[0] = A[0] or 1
    built = RiordanArray.from_dA(array.d, FPS(A))
    assert recovered(built.materialize(rows)) == FPS(A[: rows - 1])


@KERNEL
@given(any_array, st.data())
def test_perturbed_entry_gives_the_same_outcome(case, data):
    array, rows = case
    entries = [list(row) for row in array.materialize(rows).rows]
    n = data.draw(st.integers(1, rows - 1))
    k = data.draw(st.integers(0, n))
    entries[n][k] += data.draw(st.one_of(st.integers(1, 5), rational.filter(bool)))
    tri = Triangle(entries)
    got = outcome(recovered, tri)
    assert got == outcome(ref_a_sequence, tri)
    if k >= 2:
        # the entry is the left side of the check at (n-1, k-1), whose right
        # side uses only A-terms solved from rows the perturbation left alone
        assert got[0] in (NotRiordanError, InsufficientDataError)


@KERNEL
@given(st.integers(1, 7), st.data())
def test_zero_pivot_gives_the_same_outcome(nrows, data):
    entry = st.one_of(integer, rational)
    entries = [data.draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for n in range(nrows)]
    zero_at = data.draw(st.integers(0, nrows - 1))
    entries[zero_at][zero_at] = 0
    tri = Triangle(entries)
    got = outcome(recovered, tri)
    assert got == outcome(ref_a_sequence, tri)
    if zero_at < nrows - 1:
        # the pivot of row zero_at is reached before any verification
        assert got[0] is InsufficientDataError


@KERNEL
@given(any_array)
def test_terms_bounds_match_reference(case):
    array, rows = case
    tri = array.materialize(rows)
    for terms in (None, -1, 0, 1, rows - 2, rows - 1, rows, rows + 3):
        assert outcome(recovered, tri, terms) == outcome(ref_a_sequence, tri, terms)


def test_one_row_recovers_nothing():
    tri = Triangle([[3]])
    assert outcome(recovered, tri) == outcome(ref_a_sequence, tri)
    with pytest.raises(InsufficientDataError, match="1 rows recover at most 0 terms"):
        a_sequence(tri)


# -- materialize / subarray_triangle ------------------------------------------


@KERNEL
@given(any_array)
def test_materialize_matches_reference(case):
    array, rows = case
    tri = array.materialize(rows)
    assert tri == ref_materialize(array, rows)
    assert tri.rows == ref_materialize(array, rows).rows
    assert_canonical(tri)
    for nrows in range(1, rows + 1):
        assert array.materialize(nrows) == ref_materialize(array, nrows)


@KERNEL
@given(any_array, st.integers(-1, 4), st.integers(-2, 3), st.integers(0, 5))
def test_subarray_triangle_matches_reference(case, p, r, nrows):
    array, _ = case
    got = outcome(subarray_triangle, array, p, r, nrows)
    assert got == outcome(ref_subarray_triangle, array, p, r, nrows)
    if isinstance(got, Triangle):
        assert_canonical(got)


# -- the A-sequence rows against the columns ---------------------------------------


@st.composite
def dA_pairs(draw):
    """Rational ``d`` and ``A`` known to at least ``rows`` orders, and ``rows``.

    A's nonzero terms may stop well short of its precision (trailing zeros),
    and either series may be known exactly to ``rows`` or a little further.
    """
    rows = draw(st.integers(1, 10))
    coeff = st.one_of(integer, rational)
    d = [draw(unit)] + draw(st.lists(coeff, max_size=rows + 1))
    A = [draw(unit)] + draw(st.lists(coeff, max_size=rows + 1))
    d_prec = rows + draw(st.integers(0, 2))
    A_prec = rows + draw(st.integers(0, 2))
    return FPS(d, precision=d_prec), FPS(A, precision=A_prec), rows


@KERNEL
@given(dA_pairs())
def test_rows_by_A_match_the_columns(case):
    d, A, rows = case
    array = RiordanArray.from_dA(d, A)
    for nrows in range(1, rows + 1):
        tri = array.materialize(nrows)
        assert tri == array._band(range(nrows))
        assert_canonical(tri)
    # the same (d, h) with no A known takes the column route
    assert RiordanArray(array.d, array.h).materialize(rows) == tri


@KERNEL
@given(dA_pairs(), st.integers(1, 3))
def test_too_short_A_gives_the_column_routes_precision_error(case, short):
    d, A, rows = case
    A = A.truncate(max(1, rows - short))
    array = RiordanArray.from_dA(d, A)
    got = outcome(array.materialize, rows)
    if A.precision < rows:
        assert got == (PrecisionError,
                       f"asked for {rows} rows but precision is {A.precision}")
    assert got == outcome(RiordanArray(array.d, array.h).materialize, rows)


@pytest.mark.parametrize("factory", [pascal, catalan_triangle, ballot_triangle])
def test_stock_triangles_rows_match_their_columns(factory):
    array = factory(60)
    assert array.A is not None
    assert array.materialize(60) == array._band(range(60))
    assert array.materialize(23) == factory(23)._band(range(23))


def one_minus_t_power(j, precision):
    """The series ``(1 - t)^j`` mod ``t^precision``."""
    return FPS([(-1) ** i * comb(j, i) for i in range(j + 1)], precision=precision)


@st.composite
def dPQ_arrays(draw):
    """An array ``(d, h)`` told its A-sequence ``P/(1 - t)^j``, and its precision ``rows``.

    ``d`` and ``P`` are both integer or both rational, and ``j`` is 0..4,
    set through ``_with_A`` as the stock triangles set theirs.  ``h``
    solves ``h = (P/(1 - t)^j)(t h)`` by Newton, on its own route.
    """
    rows = draw(st.integers(1, 12))
    coeff = draw(st.sampled_from([integer, st.one_of(integer, rational)]))
    lead = unit if coeff is not integer else st.sampled_from([1, -1, 2, -3])
    d = [draw(lead)] + draw(st.lists(coeff, max_size=rows - 1))
    P = [draw(lead)] + draw(st.lists(coeff, max_size=rows - 1))
    j = draw(st.integers(0, 4))
    d, P = FPS(d, precision=rows), FPS(P, precision=rows)
    h = series.lagrange_solve(P / one_minus_t_power(j, rows), rows + 1).shift_down()
    return RiordanArray(d, h)._with_A(P, j), rows


@KERNEL
@given(dPQ_arrays())
def test_row_generator_matches_the_columns(case):
    array, rows = case
    for nrows in range(1, rows + 1):
        tri = array.materialize(nrows)
        assert tri == array._band(range(nrows))
        assert_canonical(tri)
    streamed = list(array._row_stream())
    assert len(streamed) == rows
    for n, (row, den) in enumerate(streamed):
        assert [Fraction(x, den) for x in row] == list(tri.rows[n])
        if n:
            # each row leaves the generator in lowest terms
            assert den > 0 and gcd(den, *row) == 1
    # A is P/(1 - t)^j by j prefix sums; series division is its oracle
    A = array.A
    assert A == array._P / one_minus_t_power(array._j, rows)
    assert gcd(A._den, *A._nums) == 1


def test_from_dA_solves_h_only_when_it_is_read(monkeypatch):
    calls = []
    solve = arrays_module.lagrange_solve

    def counted(phi, precision):
        calls.append(precision)
        return solve(phi, precision)

    monkeypatch.setattr(arrays_module, "lagrange_solve", counted)
    d = FPS([1, Fraction(1, 2), -3, 2, 0, 1], precision=12)
    A = FPS([2, 1, Fraction(-1, 3)], precision=12)
    array = RiordanArray.from_dA(d, A)
    tri = array.materialize(12)
    assert (array.precision, array.proper, array.A) == (12, True, A)
    assert repr(array) == "RiordanArray(precision=12, proper=True)"
    assert calls == []
    h = array.h
    assert calls == [13]
    assert array.h is h
    assert array._band(range(12)) == tri
    assert array.entry(11, 4) == tri.entry(11, 4)
    assert calls == [13]


# -- extract_subarray against its oracle ----------------------------------------


@st.composite
def extractions(draw):
    """A proper rational ``(d, h)`` array with ``h`` one order short, p in 2..5 and r in 0..4.

    The array has at least ``p + r + 1`` rows, so that at least two rows are extracted.
    """
    p = draw(st.integers(2, 5))
    r = draw(st.integers(0, 4))
    rows = draw(st.integers(p + r + 1, p + r + 14))
    coeff = st.one_of(integer, rational)
    d = [draw(unit)] + draw(st.lists(coeff, min_size=rows - 1, max_size=rows - 1))
    h = [draw(unit)] + draw(st.lists(coeff, min_size=rows - 2, max_size=rows - 2))
    return RiordanArray(FPS(d), FPS(h)), p, r


@KERNEL
@given(extractions())
def test_extract_subarray_matches_the_extracted_grid(case):
    base, p, r = case
    sub = base.extract_subarray(p, r)
    m = (base.precision - 1 - r) // p + 1
    assert sub.precision == m
    tri = sub.materialize(m)
    assert tri == subarray_triangle(base, p, r, m)
    assert_canonical(tri)


@st.composite
def A_keeping_bases(draw, kind):
    """An array that keeps its A-sequence, of 30 to 40 rows, p in 2..5 and r in 0..4.

    The base is an integer or rational ``from_dA`` array, a stock
    triangle, or a sub-array already extracted from one of those.
    """
    p = draw(st.integers(2, 5))
    r = draw(st.integers(0, 4))
    rows = draw(st.integers(30, 40))
    if kind == "extracted":
        p0, r0 = draw(st.integers(2, 3)), draw(st.integers(0, 2))
        precision = p0 * (rows - 1) + r0 + 1  # extracts exactly `rows` rows
    else:
        precision = rows
    if kind in ("stock", "extracted"):
        base = draw(st.sampled_from([pascal, catalan_triangle, ballot_triangle]))(precision)
    else:
        coeff = integer if kind in ("integer", "dense") else st.one_of(integer, rational)
        lead = st.sampled_from([1, -1, 2]) if kind in ("integer", "dense") else unit
        d = [draw(lead)] + draw(st.lists(coeff, max_size=5))
        # a dense A has no zero term below the precision
        tail = (st.lists(st.sampled_from([1, -1, 2, -3]), min_size=precision - 1,
                         max_size=precision - 1) if kind == "dense"
                else st.lists(coeff, max_size=5))
        A = [draw(lead)] + draw(tail)
        base = RiordanArray.from_dA(FPS(d, precision=precision), FPS(A, precision=precision))
    if kind == "extracted":
        base = base.extract_subarray(p0, r0)
    return base, p, r


@pytest.mark.parametrize("kind", ["integer", "rational", "dense", "stock", "extracted"])
@settings(KERNEL, max_examples=30)
@given(data=st.data())
def test_extraction_by_rows_matches_the_diagonal_and_keeps_A_to_the_p(kind, data):
    base, p, r = data.draw(A_keeping_bases(kind))
    assert base.A is not None
    sub = base.extract_subarray(p, r)
    m = (base.precision - 1 - r) // p + 1
    # the same (d, h) with A dropped takes the Lagrange-diagonal route
    diagonal = RiordanArray(base.d, base.h).extract_subarray(p, r)
    assert diagonal.A is None
    assert (sub.d._nums, sub.d._den) == (diagonal.d._nums, diagonal.d._den)
    assert (sub.h._nums, sub.h._den) == (diagonal.h._nums, diagonal.h._den)
    # the rows route, whichever route the cost estimate picked above
    d_rows, col1_rows = base._rows_route(p, r, m)
    d_diag, col1_diag = base._diagonal_route(p, r, m)
    assert (d_rows._nums, d_rows._den) == (d_diag._nums, d_diag._den)
    assert (col1_rows._nums, col1_rows._den) == (col1_diag._nums, col1_diag._den)
    assert sub.A == (base.A ** p).truncate(m)
    tri = sub.materialize(m)
    assert tri == subarray_triangle(base, p, r, m)
    assert_canonical(tri)


def counted_products(monkeypatch):
    """The lengths of the series products made from here on."""
    calls = []
    convolve = series._convolve

    def counted(a, b, n):
        calls.append(n)
        return convolve(a, b, n)

    monkeypatch.setattr(series, "_convolve", counted)
    return calls


def test_extraction_takes_baby_and_giant_steps(monkeypatch):
    # entry by entry, the extraction built 101 full-length columns of pascal(202)
    base = pascal(202)
    plain = RiordanArray(base.d, base.h)  # no A: the Lagrange-diagonal route
    calls = counted_products(monkeypatch)
    sub = plain.extract_subarray(2, 0)
    assert 0 < len(calls) <= 3 * ceil(sqrt(101)) + 4
    assert sub.precision == 101
    assert sub.A is None
    assert sub.materialize(8) == subarray_triangle(pascal(17), 2, 0, 8)


def no_diagonal(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Lagrange diagonal was built")

    monkeypatch.setattr(arrays_module, "_lagrange_diagonal", refuse)


def test_extraction_on_an_A_keeping_base_reads_its_rows(monkeypatch):
    # pascal(202) keeps A = 1 + t: one walk of its rows, no column and no diagonal
    no_diagonal(monkeypatch)
    calls = counted_products(monkeypatch)
    base = pascal(202)
    sub = base.extract_subarray(2, 0)
    assert list(base._cols) == [0]
    assert len(calls) <= 1  # only A^2 = P^2, one product
    assert sub.precision == 101
    assert sub.A == FPS([1, 2, 1], precision=101)
    assert sub.materialize(8) == subarray_triangle(pascal(17), 2, 0, 8)


def test_extraction_on_a_dense_A_takes_the_diagonal(monkeypatch):
    # A = 1/(1-t) given term by term: a row walk would cost n products an entry
    base = RiordanArray.from_dA(FPS.one(201), FPS([1] * 201))
    diagonals = []
    diagonal = arrays_module._lagrange_diagonal
    monkeypatch.setattr(arrays_module, "_lagrange_diagonal",
                        lambda fs, phi: diagonals.append(len(fs)) or diagonal(fs, phi))
    sub = base.extract_subarray(2, 0)
    assert diagonals == [2]
    assert sub.A == (base.A ** 2).truncate(101)
    assert sub.materialize(12) == subarray_triangle(base, 2, 0, 12)
    # the same A kept as P/(1-t)^j = 1/(1-t), as the ballot triangle keeps it, takes the rows
    no_diagonal(monkeypatch)
    short = RiordanArray.from_dA(FPS.one(201), FPS.one(201))._with_A(FPS.one(201), 1)
    assert short.extract_subarray(2, 0).materialize(12) == sub.materialize(12)


@pytest.mark.parametrize("p", [2, 3])
def test_extractions_at_one_p_agree_with_a_warm_or_a_cleared_table(p):
    # extractions at one p and an equal new precision share the table of phi = h^(p-1)
    rational = RiordanArray(FPS([2, Fraction(-1, 3), 0, 5, 1, 1, 0, 7, 1, -1, 2, 0, 3]),
                            FPS([Fraction(3, 5), 1, 0, -2, 4, 0, 1, 1, 0, 0, 2, 1, 1]))
    # the table is shared on the diagonal route only: pascal(27) without its A
    for base in (RiordanArray(pascal(27).d, pascal(27).h), rational):
        cleared = []
        for r in (0, 1, 2):
            series._power_table.cache_clear()
            series._giant_powers.cache_clear()
            sub = base.extract_subarray(p, r)
            assert sub.materialize(sub.precision) == subarray_triangle(base, p, r, sub.precision)
            cleared.append((sub.d, sub.h))
        warm = [base.extract_subarray(p, r) for r in (0, 1, 2, 1, 0)]
        assert [(sub.d, sub.h) for sub in warm] == cleared + cleared[1::-1]


def test_extraction_builds_no_column(monkeypatch):
    # subarray_triangle reads the grid from the column cache, and is the
    # oracle only while extract_subarray stays off it
    rational = RiordanArray(FPS([2, Fraction(-1, 3), 0, 5, 1, 1, 0, 7]),
                            FPS([Fraction(3, 5), 1, 0, -2, 4, 0, 1]))
    cases = [(pascal(21), 3, 1), (pascal(14), 2, 0), (rational, 2, 3)]
    want = [subarray_triangle(base, p, r, (base.precision - 1 - r) // p + 1)
            for base, p, r in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("extract_subarray built a column")

    monkeypatch.setattr(RiordanArray, "_column", refuse)
    subs = [base.extract_subarray(p, r) for base, p, r in cases]
    monkeypatch.undo()
    assert [sub.materialize(tri.nrows) for sub, tri in zip(subs, want)] == want


# -- the canonical form --------------------------------------------------------


@KERNEL
@given(any_array)
def test_fraction_rows_give_the_materialized_triangle(case):
    array, rows = case
    tri = array.materialize(rows)
    # the same entries with a shared factor spelled out in every fraction
    spelled = [[Fraction(c.numerator * 6, c.denominator * 6) for c in row] for row in tri.rows]
    rebuilt = Triangle(spelled)
    assert rebuilt == tri
    assert hash(rebuilt) == hash(tri)
    assert (rebuilt._nums, rebuilt._den) == (tri._nums, tri._den)
    assert (rebuilt._den == 1) == all(c.denominator == 1 for row in tri.rows for c in row)
