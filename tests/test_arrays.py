"""Riordan array construction, extraction, and recovery tests.

Golden rows come from the classical triangles (Pascal, Shapiro's Catalan
triangle, the ballot variant); cross-checks use closed-form binomials and
the definitional sub-array grid as independent oracles.
"""

import re
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from riordan.arrays import (
    ImproperAError,
    ImproperArrayError,
    InsufficientDataError,
    InvalidDError,
    NotRiordanError,
    RiordanArray,
    RiordanError,
    Triangle,
    a_sequence,
    ballot_triangle,
    catalan_triangle,
    pascal,
    subarray_triangle,
)
from riordan.hypergeom import binomial_series, h_for_binomial_A
from riordan.series import FormalPowerSeries, PrecisionError, SeriesError

FPS = FormalPowerSeries


def shifted_catalan(n):
    """1, 2, 5, 14, ...: Catalan numbers from index 1 on."""
    return FPS([Fraction(comb(2 * m + 2, m + 1), m + 2) for m in range(n)])


# -- construction -------------------------------------------------------


def test_pascal_entries():
    p = pascal(10)
    assert p.entry(4, 2) == 6
    assert p.entry(6, 3) == 20
    for n in range(10):
        for k in range(n + 1):
            assert p.entry(n, k) == comb(n, k)


def test_identity_matrix():
    eye = RiordanArray(FPS.one(6), FPS.one(6))
    for n in range(6):
        for k in range(6):
            want = 1 if n == k else 0
            got = eye.entry(n, k) if k <= n else eye.entry(n, k)
            assert got == want


def test_from_dh_central_binomial_array():
    arr = RiordanArray(FPS([comb(2 * m, m) for m in range(9)]), shifted_catalan(9))
    assert arr.entry(3, 1) == 15
    for n in range(9):
        for k in range(n + 1):
            assert arr.entry(n, k) == comb(2 * n, n + k)


def test_invalid_d_rejected():
    with pytest.raises(InvalidDError):
        RiordanArray(FPS.t(5), FPS.one(5))


def test_from_dA_h_series():
    arr = RiordanArray.from_dA(FPS([comb(2 * m, m) for m in range(8)]), (1 + FPS.t(8)) ** 2)
    assert list(arr.h.coeffs[:5]) == [1, 2, 5, 14, 42]
    assert arr.h == shifted_catalan(arr.h.precision)


def test_from_dA_identity():
    arr = RiordanArray.from_dA(FPS.one(5), FPS.one(5))
    assert arr.h == FPS.one(arr.h.precision)


def test_from_dA_ballot_variant():
    arr = RiordanArray.from_dA(binomial_series(2, 1, 8), FPS([1] * 8))
    assert tuple(arr.entry(4, k) for k in range(5)) == (14, 14, 9, 4, 1)
    assert arr.d == ballot_triangle(8).d
    assert arr.h.truncate(7) == ballot_triangle(8).h.truncate(7)


def test_from_dA_rejects_improper_A():
    with pytest.raises(ImproperAError):
        RiordanArray.from_dA(FPS.one(5), FPS.t(5))


def test_from_dA_first_column_is_d():
    arr = RiordanArray.from_dA(shifted_catalan(9), (1 + FPS.t(9)) ** 2)
    for n in range(arr.precision):
        assert arr.entry(n, 0) == arr.d.coeff(n)


# -- entry semantics ------------------------------------------------------


def test_entry_above_diagonal_is_zero():
    p = pascal(8)
    assert p.entry(2, 5) == 0
    assert p.entry(0, 7) == 0


def test_entry_out_of_precision():
    p = pascal(5)
    with pytest.raises(PrecisionError):
        p.entry(5, 0)
    with pytest.raises(PrecisionError):
        p.entry(2, 5)


def test_diagonal_value():
    for arr in (pascal(7), catalan_triangle(7), ballot_triangle(7)):
        d0 = arr.d.coeff(0)
        h0 = arr.h.coeff(0)
        for n in range(7):
            assert arr.entry(n, n) == d0 * h0**n


def test_catalan_triangle_golden():
    tri = catalan_triangle(7).materialize(7)
    assert [list(r) for r in tri.rows] == [
        [1],
        [2, 1],
        [5, 4, 1],
        [14, 14, 6, 1],
        [42, 48, 27, 8, 1],
        [132, 165, 110, 44, 10, 1],
        [429, 572, 429, 208, 65, 12, 1],
    ]
    assert catalan_triangle(7).entry(4, 1) == 48


def test_catalan_triangle_closed_form():
    arr = catalan_triangle(9)
    for n in range(9):
        for k in range(n + 1):
            assert arr.entry(n, k) == Fraction(k + 1, n + 1) * comb(2 * n + 2, n - k)


def test_ballot_triangle_golden():
    tri = ballot_triangle(7).materialize(7)
    assert [list(r) for r in tri.rows] == [
        [1],
        [1, 1],
        [2, 2, 1],
        [5, 5, 3, 1],
        [14, 14, 9, 4, 1],
        [42, 42, 28, 14, 5, 1],
        [132, 132, 90, 48, 20, 6, 1],
    ]
    assert ballot_triangle(7).entry(6, 2) == 90


def test_ballot_triangle_closed_form():
    arr = ballot_triangle(9)
    for n in range(9):
        for k in range(n + 1):
            assert arr.entry(n, k) == Fraction(k + 1, n + 1) * comb(2 * n - k, n)


@pytest.mark.parametrize("n", range(1, 31))
def test_stock_series_match_binomial_closed_forms(n):
    assert ballot_triangle(n).d == FPS([Fraction(comb(2 * m, m), m + 1) for m in range(n)])
    assert catalan_triangle(n).d == shifted_catalan(n)


@pytest.mark.parametrize(
    "factory",
    [pascal, catalan_triangle, ballot_triangle,
     partial(binomial_series, 2, 1), partial(h_for_binomial_A, 2)],
)
@pytest.mark.parametrize("precision", [0, -1])
def test_stock_factories_refuse_precision_below_one(factory, precision):
    with pytest.raises(SeriesError):
        factory(precision)


# -- materialize / Triangle ------------------------------------------------


def test_materialize_pascal():
    tri = pascal(5).materialize(3)
    assert [list(r) for r in tri.rows] == [[1], [1, 1], [1, 2, 1]]


def test_materialize_too_many_rows():
    with pytest.raises(PrecisionError):
        pascal(4).materialize(5)


def test_triangle_shape_validated():
    with pytest.raises(RiordanError):
        Triangle([[1], [1, 1, 1]])


def test_triangle_rejects_floats():
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        Triangle([[0.1]])
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        Triangle([[1], [1, 0.5]])


def test_triangle_cells():
    tri = Triangle([[1], [Fraction(1, 2), 3]])
    assert tri.cells() == [["1"], ["1/2", "3"]]


def test_triangle_entry_reads_as_the_array_does():
    arr = pascal(5)
    tri = arr.materialize(5)
    assert tri.entry(3, 1) == arr.entry(3, 1) == 3
    assert tri.entry(2, 3) == arr.entry(2, 3) == 0  # above the diagonal
    assert tri.entry(4, 4) == 1
    assert repr(tri) == "Triangle(5 rows)"
    assert (tri == 3) is False


@pytest.mark.parametrize("call, message", [
    (lambda tri: tri.entry(3, -1), "negative index (3, -1)"),
    (lambda tri: tri.entry(-1, 0), "negative index (-1, 0)"),
    (lambda tri: tri.entry(5, 0), "row 5 is past the last row, 4"),
    (lambda tri: pascal(4).materialize(0), "nrows must be positive"),
], ids=["negative-k", "negative-n", "past-last-row", "materialize-0"])
def test_triangle_reads_refuse_bad_indices(call, message):
    # no index wraps round a row, or round the rows
    with pytest.raises(RiordanError, match=f"^{re.escape(message)}$") as info:
        call(pascal(5).materialize(5))
    assert info.type is RiordanError


# -- A-sequence recovery ------------------------------------------------------


def test_pascal_a_sequence():
    seq = a_sequence(pascal(9).materialize(9))
    assert list(seq.coeffs) == [1, 1, 0, 0, 0, 0, 0, 0]


def test_catalan_triangle_a_sequence():
    seq = a_sequence(catalan_triangle(9).materialize(9))
    assert list(seq.coeffs) == [1, 2, 1, 0, 0, 0, 0, 0]


def test_ballot_triangle_a_sequence():
    seq = a_sequence(ballot_triangle(9).materialize(9))
    assert list(seq.coeffs) == [1] * 8


def test_a_sequence_term_request():
    tri = pascal(6).materialize(6)
    assert list(a_sequence(tri, terms=3).coeffs) == [1, 1, 0]
    with pytest.raises(InsufficientDataError):
        a_sequence(tri, terms=6)


def test_a_sequence_rejects_non_riordan():
    # Pascal with one corrupted entry at a position the solver never uses;
    # only the full-grid verification can catch it
    tri = Triangle([[1], [1, 1], [1, 2, 1], [1, 3, 4, 1]])
    with pytest.raises(NotRiordanError):
        a_sequence(tri)


def test_a_sequence_improper_triangle():
    improper = RiordanArray(FPS([1] * 6), FPS.t(6))
    with pytest.raises(InsufficientDataError):
        a_sequence(improper.materialize(5))


def test_a_sequence_handles_rational_triangles():
    # scale Pascal's h by 1/3: entries stay rational, A = (1 + t/3 style) works
    arr = RiordanArray(FPS([1] * 8), FPS([Fraction(1, 3)] * 8))
    seq = a_sequence(arr.materialize(8))
    want = RiordanArray.from_dA(FPS([1] * 8), FPS(list(seq.coeffs)))
    assert want.h.truncate(6) == arr.h.truncate(6)


# -- sub-array extraction ------------------------------------------------------


def test_extract_pascal_even_rows():
    sub = pascal(11).extract_subarray(2, 0)
    tri = sub.materialize(5)
    assert [list(r) for r in tri.rows] == [
        [1],
        [2, 1],
        [6, 4, 1],
        [20, 15, 6, 1],
        [70, 56, 28, 8, 1],
    ]
    for n in range(sub.precision):
        for k in range(n + 1):
            assert sub.entry(n, k) == comb(2 * n, n + k)


def test_extract_pascal_p3_r1():
    sub = pascal(20).extract_subarray(3, 1)
    assert [[sub.entry(n, k) for k in range(n + 1)] for n in range(3)] == [[1], [4, 1], [21, 7, 1]]
    for n in range(sub.precision):
        for k in range(n + 1):
            assert sub.entry(n, k) == comb(3 * n + 1, 2 * n + k + 1)


def test_extract_pascal_p3_r1_row5():
    # row 5 from the closed form C(16, 11 + k); also forced by the recurrence
    # with weights (1 + t)^3 from row 4
    sub = pascal(17).extract_subarray(3, 1)
    assert [sub.entry(5, k) for k in range(6)] == [4368, 1820, 560, 120, 16, 1]
    r4 = [sub.entry(4, k) for k in range(5)]
    assert sub.entry(5, 1) == r4[0] + 3 * r4[1] + 3 * r4[2] + r4[3]
    assert sub.entry(5, 1) == 715 + 858 + 234 + 13 == 1820


def test_extract_matches_definition_grid():
    for base in (pascal(25), catalan_triangle(25), ballot_triangle(25)):
        for p, r in ((2, 0), (2, 1), (3, 0), (3, 2)):
            sub = base.extract_subarray(p, r)
            nrows = sub.precision
            assert sub.materialize(nrows) == subarray_triangle(base, p, r, nrows)


def test_extract_a_sequence_is_a_power():
    bases = {
        "pascal": (pascal(46), FPS([1, 1], precision=12)),
        "catalan": (catalan_triangle(46), FPS([1, 2, 1], precision=12)),
        "ballot": (ballot_triangle(46), FPS([1] * 12)),
    }
    for base, base_a in bases.values():
        for p in (2, 3, 5):
            for r in (0, 1):
                sub = base.extract_subarray(p, r)
                nrows = min(sub.precision, 9)
                seq = a_sequence(sub.materialize(nrows))
                want = (base_a**p).truncate(len(seq.coeffs))
                assert seq == want


def test_extract_requires_proper():
    improper = RiordanArray(FPS([1] * 8), FPS.t(8))
    with pytest.raises(ImproperArrayError):
        improper.extract_subarray(2, 0)


def test_extract_precision_shortfall():
    with pytest.raises(PrecisionError):
        pascal(3).extract_subarray(3, 1)


def test_extract_parameter_validation():
    with pytest.raises(RiordanError):
        pascal(10).extract_subarray(1, 0)
    with pytest.raises(RiordanError):
        pascal(10).extract_subarray(2, -1)


# -- recurrence invariant ------------------------------------------------------------


def test_recovered_recurrence_holds_on_full_grid():
    # a_sequence verifies every in-range (n, k) internally; run it over the
    # three stock triangles plus an extraction to exercise that path
    for arr in (pascal(10), catalan_triangle(10), ballot_triangle(10)):
        a_sequence(arr.materialize(10))
    a_sequence(pascal(21).extract_subarray(2, 1).materialize(9))


def test_a_sequence_refuses_a_zero_A0():
    # two rows pass the recurrence check with A(0) = 0, which no proper array has
    with pytest.raises(ImproperAError, match="A\\(0\\) must be nonzero"):
        a_sequence(Triangle([[1], [1, 0]]))
