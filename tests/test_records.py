"""The package's value records: construction, equality, read-only fields, rendering."""

from fractions import Fraction

import pytest

from riordan.hypergeom import HypergeometricSpec, PoleError
from riordan.identities import RegistryEntry
from riordan.reports import Counterexample, IdentityReport
from riordan.series import SeriesError


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


def test_hypergeometric_spec_replace_converts():
    spec = HypergeometricSpec([1], [2])._replace(upper=[Fraction(1, 2), 3], scale=4)
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
