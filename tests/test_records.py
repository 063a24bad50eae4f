"""The package's value records: construction, equality, read-only fields, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan.hypergeom import HypergeometricSpec, PoleError
from riordan.identities import RegistryEntry
from riordan.reports import Counterexample, IdentityReport, series_verdict
from riordan.series import FormalPowerSeries, SeriesError


def _run():
    return IdentityReport("demo", "n <= 3", 4)


def test_counterexample_construction_equality_and_rendering():
    cex = Counterexample({"n": "3"}, "8", "9")
    assert cex == Counterexample(params={"n": "3"}, lhs="8", rhs="9")
    assert (cex.params, cex.lhs, cex.rhs) == ({"n": "3"}, "8", "9")
    assert cex != Counterexample({"n": "3"}, "8", "10")
    assert cex.to_record() == {"params": {"n": "3"}, "lhs": "8", "rhs": "9"}
    assert repr(cex) == "Counterexample(params={'n': '3'}, lhs='8', rhs='9')"


def test_identity_report_defaults_to_holds():
    rep = IdentityReport("demo", "n <= 3", 4)
    assert rep == IdentityReport(identity="demo", grid="n <= 3", points=4, counterexample=None)
    assert rep.counterexample is None and rep.holds and rep.verdict == "holds"
    assert rep.to_record() == {
        "id": "demo", "grid": "n <= 3", "points": 4, "verdict": "holds", "counterexample": None,
    }
    assert repr(rep) == "IdentityReport(identity='demo', grid='n <= 3', points=4, counterexample=None)"


def test_identity_report_with_a_counterexample():
    rep = IdentityReport("demo", "n <= 3", 4, Counterexample({"n": "3"}, "8", "9"))
    assert not rep.holds and rep.verdict == "counterexample"
    assert rep != IdentityReport("demo", "n <= 3", 4)
    assert rep.to_record() == {
        "id": "demo", "grid": "n <= 3", "points": 4, "verdict": "counterexample",
        "counterexample": {"params": {"n": "3"}, "lhs": "8", "rhs": "9"},
    }
    assert repr(rep) == (
        "IdentityReport(identity='demo', grid='n <= 3', points=4, "
        "counterexample=Counterexample(params={'n': '3'}, lhs='8', rhs='9'))"
    )


def test_registry_entry_construction_and_record():
    entry = RegistryEntry("demo", "a sketch", ("n", "k"), "n <= 3", _run)
    assert entry == RegistryEntry(
        id="demo", description="a sketch", slots=("n", "k"), default_grid="n <= 3", run=_run
    )
    assert entry.run() == IdentityReport("demo", "n <= 3", 4)
    assert entry.to_record() == {
        "id": "demo", "description": "a sketch", "slots": ["n", "k"], "default_grid": "n <= 3",
    }


def test_hypergeometric_spec_converts_its_parameters():
    spec = HypergeometricSpec([Fraction(1, 2), 1], [2])
    assert spec == HypergeometricSpec(upper=(Fraction(1, 2), 1), lower=[Fraction(2)], scale=1)
    assert spec.upper == (Fraction(1, 2), Fraction(1)) and spec.lower == (Fraction(2),)
    assert all(type(v) is Fraction for v in (*spec.upper, *spec.lower, spec.scale))
    assert spec.scale == 1
    assert spec != HypergeometricSpec([Fraction(1, 2), 1], [2], Fraction(1, 3))
    assert repr(spec) == (
        "HypergeometricSpec(upper=(Fraction(1, 2), Fraction(1, 1)), "
        "lower=(Fraction(2, 1),), scale=Fraction(1, 1))"
    )


@pytest.mark.parametrize("lower", [[0], [-3], [1, Fraction(-2)]])
def test_hypergeometric_spec_refuses_a_pole(lower):
    with pytest.raises(PoleError, match="is zero or a negative integer"):
        HypergeometricSpec([1], lower)


@pytest.mark.parametrize("upper, lower, scale", [([0.5], [2], 1), ([1], [2.0], 1), ([1], [2], 0.5)])
def test_hypergeometric_spec_refuses_floats(upper, lower, scale):
    with pytest.raises(SeriesError, match="float coefficients are not exact"):
        HypergeometricSpec(upper, lower, scale)


@pytest.mark.parametrize("changes, error, message", [
    ({"lower": (0,)}, PoleError, "lower parameter 0 is zero or a negative integer"),
    ({"lower": (2, -1)}, PoleError, "lower parameter -1 is zero or a negative integer"),
    ({"upper": (0.5,)}, SeriesError, "float coefficients are not exact"),
    ({"scale": 0.5}, SeriesError, "float coefficients are not exact"),
])
def test_hypergeometric_spec_replace_validates(changes, error, message):
    with pytest.raises(error, match=message):
        HypergeometricSpec([1], [2])._replace(**changes)


@pytest.mark.parametrize("fields, error, message", [
    ([(0.5,), (), 1], SeriesError, "float coefficients are not exact"),
    ([(1,), (0,), 1], PoleError, "lower parameter 0 is zero or a negative integer"),
    ([(1,), ()], TypeError, "Expected 3 arguments, got 2"),
    ([(1,), (2,), 1, 4], TypeError, "Expected 3 arguments, got 4"),
])
def test_hypergeometric_spec_make_validates(fields, error, message):
    with pytest.raises(error, match=message):
        HypergeometricSpec._make(fields)


@pytest.mark.parametrize("build", [
    lambda: HypergeometricSpec([1], [2])._replace(upper=[Fraction(1, 2), 3], scale=4),
    lambda: HypergeometricSpec._make(([Fraction(1, 2), 3], [2], 4)),
], ids=["_replace", "_make"])
def test_hypergeometric_spec_replace_and_make_convert(build):
    spec = build()
    assert spec == HypergeometricSpec([Fraction(1, 2), 3], [2], 4)
    assert type(spec) is HypergeometricSpec
    assert all(type(v) is Fraction for v in (*spec.upper, *spec.lower, spec.scale))


@pytest.mark.parametrize("record, field", [
    (Counterexample({"n": "3"}, "8", "9"), "lhs"),
    (IdentityReport("demo", "n <= 3", 4), "points"),
    (IdentityReport("demo", "n <= 3", 4), "counterexample"),
    (RegistryEntry("demo", "a sketch", ("n",), "n <= 3", _run), "run"),
    (HypergeometricSpec([1], [2]), "upper"),
    (HypergeometricSpec([1], [2]), "scale"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_record_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    assert getattr(record, field) == before


# -- series_verdict against a plain Fraction loop --------------------------------


def ref_series_verdict(comparisons):
    """(points, counterexample) of coefficient lists, one coefficient at a time."""
    points = 0
    for params, lhs, rhs in comparisons:
        for m, (a, b) in enumerate(zip(lhs, rhs)):
            points += 1
            if a != b:
                return points, Counterexample({**params, "n": str(m)}, str(a), str(b))
    return points, None


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def comparisons(draw):
    """Equal coefficient lists of one precision, one comparison perturbed at up to
    two coefficients (or none), with params of varying keys and order."""
    n = draw(st.integers(1, 7))
    count = draw(st.integers(1, 4))
    out = []
    for i in range(count):
        coeffs = draw(st.lists(fractions, min_size=n, max_size=n))
        keys = draw(st.permutations(["law", "p", "x"]))[:draw(st.integers(0, 3))]
        out.append(({key: f"{key}{i}" for key in keys}, coeffs, list(coeffs)))
    bad = draw(st.integers(0, count))
    if bad < count:
        for m in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)):
            out[bad][2][m] += draw(fractions.filter(bool))
    return out


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(comparisons())
def test_series_verdict_matches_a_fraction_loop(cases):
    points, cex = ref_series_verdict(cases)
    rep = series_verdict("demo", "a grid", [
        (params, FormalPowerSeries(lhs), FormalPowerSeries(rhs)) for params, lhs, rhs in cases
    ])
    assert rep == IdentityReport("demo", "a grid", points, cex)
    if cex is not None:
        failed = next(params for params, lhs, rhs in cases if lhs != rhs)
        assert list(rep.counterexample.params) == [*failed, "n"]
