"""Differential tests: the integer array kernels against a Fraction reference.

``Triangle`` stores integer rows over one common denominator, and
``materialize``, ``subarray_triangle`` and ``a_sequence`` run on those
integers.  The references below are the plain per-entry ``Fraction``
versions: a triangle built entry by entry through ``RiordanArray.entry``,
and the A-sequence solve and verify loops on ``Fraction`` rows.  Results,
exception types and messages must agree exactly, and every triangle must
be in canonical form (positive denominator sharing no factor with all
numerators).  An array that keeps its A-sequence materializes by the
recurrence; the column route (``_band``) is that route's oracle.
"""

from fractions import Fraction
from itertools import chain
from math import ceil, gcd, sqrt

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


def test_extraction_takes_baby_and_giant_steps(monkeypatch):
    # entry by entry, the extraction built 101 full-length columns of pascal(202)
    calls = []
    convolve = series._convolve

    def counted(a, b, n):
        calls.append(n)
        return convolve(a, b, n)

    monkeypatch.setattr(series, "_convolve", counted)
    sub = pascal(202).extract_subarray(2, 0)
    assert 0 < len(calls) <= 3 * ceil(sqrt(101)) + 4
    assert sub.precision == 101
    assert sub.materialize(8) == subarray_triangle(pascal(17), 2, 0, 8)


@pytest.mark.parametrize("p", [2, 3])
def test_extractions_at_one_p_agree_with_a_warm_or_a_cleared_table(p):
    # extractions at one p and an equal new precision share the table of phi = h^(p-1)
    rational = RiordanArray(FPS([2, Fraction(-1, 3), 0, 5, 1, 1, 0, 7, 1, -1, 2, 0, 3]),
                            FPS([Fraction(3, 5), 1, 0, -2, 4, 0, 1, 1, 0, 0, 2, 1, 1]))
    for base in (pascal(27), rational):
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
