"""Identity registry tests: Fibonacci suite, convolution sums, product laws, array cross-checks."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from riordan import identities
from riordan.arrays import RiordanError, ballot_triangle, catalan_triangle, pascal
from riordan.hypergeom import HypergeometricSpec, binomial_series, expand, power_spec
from riordan.identities import (
    _FIB_CACHE_MAX,
    _VANDERMONDE_LAW,
    _at,
    ANDREWS_VARIANTS,
    RATIONAL_GRID,
    RegistryError,
    SumIdentity,
    _fib_cache,
    _sum_entry,
    andrews_sum,
    binomial,
    central_ballot_gf,
    central_ballot_spec,
    central_power_gf,
    check_andrews,
    check_product_laws,
    check_registry,
    check_via_riordan,
    fibonacci,
    fuss_ballot_gf,
    fuss_ballot_spec,
    registry_entries,
    sum_lhs,
    sum_rhs,
)
from riordan.reports import Counterexample, IdentityReport
from riordan.series import FormalPowerSeries, SeriesError, lagrange_gf

FPS = FormalPowerSeries


# -- elementary pieces ---------------------------------------------------


def test_fibonacci_values():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(10) == 55
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_fibonacci_past_the_cache_cap():
    a, b = 0, 1
    for _ in range(5000):
        a, b = b, a + b
    assert fibonacci(5000) == a
    cap = _FIB_CACHE_MAX
    assert fibonacci(cap + 2) == fibonacci(cap + 1) + fibonacci(cap)
    assert len(_fib_cache) <= cap


def test_andrews_sum_is_two_residue_classes_of_one_row():
    # row 5 is 1 5 10 10 5 1: class 2 mod 5 holds C(5, 2), class 0 holds C(5, 0) and C(5, 5)
    assert andrews_sum(5, 2, 0) == 10 - 2
    assert andrews_sum(5, -3, 12) == 0  # -3 and 12 are both 2 mod 5
    assert andrews_sum(0, 0, 1) == 1
    with pytest.raises(ValueError, match="nonnegative upper index, got -1"):
        andrews_sum(-1, 0, 0)


def test_generalized_binomial():
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(7, 3) == 35
    assert binomial(Fraction(7, 2), -1) == 0
    assert binomial(-3, 2) == 6  # falling factorial (-3)(-4)/2


def test_negative_floor_division_matters():
    # the window arithmetic relies on floor-toward-minus-infinity
    assert (-3) // 2 == -2


# -- Andrews suite -------------------------------------------------------


def _window(variant, n):
    # (upper, low1, low2) of the variant's sum at n
    return tuple(_at(affine, n) for affine in ANDREWS_VARIANTS[variant][2])


def test_andrews_a1_values():
    rep = check_andrews("a1", 40)
    assert rep.holds
    # n = 5: both sides are 5 (terms at k = -1, 0, 1)
    assert andrews_sum(*_window("a1", 5)) == 5 == fibonacci(5)
    assert andrews_sum(*_window("a1", 1)) == 1 == fibonacci(1)


def test_andrews_a122_marked_row():
    # n = 3: F_6 = 8 = 15 - 6 - 1 from the marked even-row triangle
    assert _window("a122", 3) == (6, 2, 1)
    assert andrews_sum(6, 2, 1) == comb(6, 2) - comb(6, 1) - comb(6, 6) == 8 == fibonacci(6)


@pytest.mark.parametrize("variant", ["a1", "a2", "a3", "a121", "a5", "a6", "a122"])
def test_andrews_all_variants_hold(variant):
    rep = check_andrews(variant, 60)
    assert rep.holds, rep.to_record()


def test_andrews_unknown_variant():
    with pytest.raises(RegistryError):
        check_andrews("a7", 10)


# -- the generating-function reproduction ----------------------------------


def test_check_via_riordan_holds():
    assert check_via_riordan(30).holds


def test_even_fibonacci_gf_coefficients():
    f = FPS([0, 1], precision=12) / FPS([1, -3, 1], precision=12)
    assert [f.coeff(n) for n in range(6)] == [fibonacci(2 * n) for n in range(6)]
    assert f.coeff(5) == 55
    assert f.coeff(0) == 0


def test_odd_fibonacci_gf_coefficients():
    f = FPS([1, -1], precision=8) / FPS([1, -3, 1], precision=8)
    assert list(f.coeffs[:4]) == [1, 2, 5, 13]


# -- ballot-family generating functions ---------------------------------------


def test_fuss_ballot_low_coefficients():
    a = fuss_ballot_gf(2, 0, 6)
    assert a.coeff(0) == 1
    assert a.coeff(1) == Fraction(2, 3) * comb(3, 1) == 2
    for y in (0, 1, Fraction(1, 2)):
        assert fuss_ballot_gf(3, y, 5).coeff(0) == 1


def test_fuss_ballot_matches_hypergeometric_form():
    for p in (2, 3):
        for y in (0, 1, Fraction(3, 7)):
            assert expand(fuss_ballot_spec(p, y), 12) == fuss_ballot_gf(p, y, 12)


def test_fuss_ballot_matches_lagrange_gf():
    # coefficient n is [t^n] (1 - t)(1 + t)^y ((1 + t)^(p+1))^n
    n = 10
    for p in (2, 3):
        got = fuss_ballot_gf(p, 0, n)
        via = lagrange_gf(1 - FPS.t(n), (1 + FPS.t(n)) ** (p + 1), n)
        assert got == via


def test_fuss_ballot_exponential_structure():
    # the ratio at shifted parameters is parameter-free:
    # A(y1) A(y2 + x) = A(y2) A(y1 + x), tested in product form
    n = 12
    for p in (2, 3):
        for y1, y2, x in ((0, 1, 2), (Fraction(1, 2), 1, Fraction(3, 7))):
            lhs = fuss_ballot_gf(p, y1, n) * fuss_ballot_gf(p, Fraction(y2) + x, n)
            rhs = fuss_ballot_gf(p, y2, n) * fuss_ballot_gf(p, Fraction(y1) + x, n)
            assert lhs == rhs


def test_central_power_is_binomial_series():
    for p in (2, 3):
        for x in (1, 2, Fraction(1, 2), Fraction(3, 7)):
            assert central_power_gf(p, x, 10) == binomial_series(2 * p, 2 * Fraction(x), 10)


def test_central_power_at_zero():
    assert central_power_gf(2, 0, 8) == FPS.one(8)


def test_central_ballot_low_coefficients():
    d = central_ballot_gf(2, 0, 5)
    assert d.coeff(0) == 1
    assert d.coeff(1) == Fraction(2, 3) * comb(6, 1) == 4


def test_central_ballot_matches_hypergeometric_form():
    for p in (2, 3):
        for y in (0, 1, Fraction(1, 2), Fraction(3, 7)):
            assert expand(central_ballot_spec(p, y), 10) == central_ballot_gf(p, y, 10)


# -- specs read off the term ratios --------------------------------------------
# the hand-written parameter lists that the three specs replaced, as the reference


def listed_power_spec(q, r):
    r = Fraction(r)
    return HypergeometricSpec(
        upper=[(r + i) / q for i in range(q)],
        lower=[Fraction(r + i, q - 1) for i in range(1, q)],
        scale=Fraction(q**q, (q - 1) ** (q - 1)),
    )


def listed_fuss_ballot_spec(p, y):
    y = Fraction(y)
    return HypergeometricSpec(
        upper=[(y + i) / (p + 1) for i in range(1, p + 2)] + [(y + p) / (p - 1)],
        lower=[(y + i) / p for i in range(2, p + 2)] + [(y + 1) / (p - 1)],
        scale=Fraction((p + 1) ** (p + 1), p**p),
    )


def listed_central_ballot_spec(p, y):
    y = Fraction(y)
    upper = [(2 * y + 2 + i) / Fraction(2 * p) for i in range(1, 2 * p + 1)]
    upper += [(y + p) / Fraction(p - 1), (y + 1) / Fraction(p)]
    lower = [(2 * y + 2 + i) / Fraction(2 * p - 1) for i in range(1, 2 * p)]
    lower += [(y + 1) / Fraction(p - 1), (y + p + 1) / Fraction(p)]
    return HypergeometricSpec(
        upper=upper, lower=lower, scale=Fraction((2 * p) ** (2 * p), (2 * p - 1) ** (2 * p - 1))
    )


def spec_outcome(make, p, v):
    """The spec's parameter multisets, scale and 12-term expansion, or its refusal."""
    try:
        spec = make(p, v)
    except Exception as exc:
        return type(exc), str(exc)
    return Counter(spec.upper), Counter(spec.lower), spec.scale, expand(spec, 12)


# negative and zero-crossing arguments: numerators -12..12 over 1..5
SPEC_GRID = sorted({Fraction(n, d) for n in range(-12, 13) for d in range(1, 6)})


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("derived, listed", [
    (power_spec, listed_power_spec),
    (fuss_ballot_spec, listed_fuss_ballot_spec),
    (central_ballot_spec, listed_central_ballot_spec),
], ids=["power", "fuss-ballot", "central-ballot"])
def test_specs_read_off_the_ratio_equal_the_listed_parameters(derived, listed, p):
    refused = 0
    for v in SPEC_GRID:
        want = spec_outcome(listed, p, v)
        assert spec_outcome(derived, p, v) == want, v
        refused += len(want) == 2
    assert 0 < refused < len(SPEC_GRID)


# -- product laws ---------------------------------------------------------------


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("v", [1, Fraction(1, 2), Fraction(-3, 7), *range(-12, 1),
                               *(Fraction(k, 2) for k in range(-9, 4, 2))])
def test_direct_sums_equal_their_substitution(p, v):
    # the (e, a, ballot) of each direct sum at w = t (1 + w)^e.  The integers down to -12
    # and the odd halves put v on poles of the stated forms below 9 terms, at every p:
    # pm + v + 1 = 0 of the ballot forms (m = 3 at p = 2, v = -7) and (2p-1)m + 2v = 0
    # of the central power; the sums start at p = 1, so p = 0 reads their kernels
    # through _direct_sum
    n = 9
    for gf, kernel, z, arg, route in (
        (fuss_ballot_gf, identities._ballot_ratio, p, v, (p + 1, v + 1, True)),
        (central_power_gf, identities._binomial_power_ratio, 2 * p, 2 * v, (2 * p, 2 * v, False)),
        (central_ballot_gf, identities._central_ballot_ratio, p, v, (2 * p, 2 * v + 2, True)),
    ):
        got = gf(p, v, n) if p else identities._direct_sum(kernel, z, arg, n)
        assert got == identities._substitution(*route, n), gf.__name__


def test_product_laws_hold():
    assert check_product_laws(2, 1, 0, 25).holds
    assert check_product_laws(2, Fraction(3, 2), Fraction(1, 2), 20).holds
    assert check_product_laws(3, Fraction(3, 7), 1, 15).holds


def test_product_laws_trivial_x():
    rep = check_product_laws(2, 0, 1, 15)
    assert rep.holds


def test_product_laws_build_and_route_check_each_direct_sum_once_per_sweep(monkeypatch):
    built, checked = [], []
    for name in ("fuss_ballot_gf", "central_power_gf", "central_ballot_gf"):
        real = getattr(identities, name)

        def record(p, v, n, real=real):
            built.append((real.__name__, p, v))
            return real(p, v, n)
        monkeypatch.setattr(identities, name, record)
    substitution = identities._substitution
    monkeypatch.setattr(identities, "_substitution", lambda *a: checked.append(a) or substitution(*a))
    assert check_registry("product-laws", max_n=3).holds
    # the y grid and every x + y, at each p, for the two ballot series; x for the power
    assert len(built) == len(set(built)) == len(checked) > 2 * 5


def test_product_laws_memo_keys_on_the_direct_sum_not_its_name(monkeypatch):
    # three rebound direct sums that all share the name "<lambda>" must keep
    # three memo entries, or central_ballot_gf would read fuss_ballot_gf's series
    for name in ("fuss_ballot_gf", "central_power_gf", "central_ballot_gf"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda p, v, n, real=real: real(p, v, n))
    report = check_registry("product-laws", max_n=3)
    assert report.holds, report.counterexample


# -- summation identities ----------------------------------------------------------


def test_subarray_convolution_examples():
    for p, r, n, k, s in ((2, 0, 5, 2, 1), (3, 1, 7, 4, 2), (4, 2, 6, 6, 3)):
        point = {"p": p, "r": r, "k": k, "s": s}
        assert sum_lhs("subarray-convolution", n, **point) == sum_rhs(
            "subarray-convolution", n, **point
        )


@pytest.mark.parametrize("p, k, s, message", [
    (2, 2, 3, "needs s <= k, got k=2, s=3"),
    (2, 2, 0, "needs s >= 1, got s=0"),
    (0, 2, 1, "needs p >= 1, got p=0"),
])
def test_triangle_sums_refuse_points_outside_their_domain(p, k, s, message):
    # the left column starts at s and the right one is offset by k - s >= 0
    message = f"identity 'subarray-convolution' {message}"
    for side in (sum_lhs, sum_rhs):
        with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
            side("subarray-convolution", 5, p=p, r=0, k=k, s=s)


@pytest.mark.parametrize("identity, slots, p_min", [
    ("catalan-column-sum", {"r": 0, "k": 1}, 0),
    ("ballot-vandermonde", {"x": 1, "y": 1}, 0),
    ("central-binomial-vandermonde", {"x": 1, "y": 1}, 0),
])
def test_sums_refuse_p_below_their_domain(identity, slots, p_min):
    message = f"identity {identity!r} needs p >= {p_min}, got p={p_min - 1}"
    with pytest.raises(RegistryError, match=re.escape(message)):
        sum_lhs(identity, 3, p=p_min - 1, **slots)
    assert sum_lhs(identity, 3, p=p_min, **slots) == sum_rhs(identity, 3, p=p_min, **slots)


@pytest.mark.parametrize("identity, n, slots, message", [
    ("catalan-column-sum", 3, {"p": -1, "r": 0, "k": 1}, "needs p >= 0, got p=-1"),
    ("ballot-triangle-convolution", -1, {"p": 3, "r": -2, "k": 5, "s": 1},
     "needs r >= 0, got r=-2"),
    ("catalan-triangle-convolution", 1, {"p": 1, "r": -2, "k": 1, "s": 1},
     "needs r >= 0, got r=-2"),
    ("subarray-convolution", -1, {"p": 2, "r": 0, "k": 1, "s": 1}, "needs n >= 0, got n=-1"),
    # read as F_1 * G_{p(k-1)+r} at n - k + 1, k = 0 would sum one term past j = n
    ("catalan-column-sum", 3, {"p": 2, "r": 0, "k": 0}, "needs k >= 1, got k=0"),
])
def test_both_sides_refuse_points_outside_the_domain(identity, n, slots, message):
    # the rhs refuses what the lhs refuses, naming the slot at fault
    message = re.escape(f"identity {identity!r} {message}")
    for side in (sum_lhs, sum_rhs):
        with pytest.raises(RegistryError, match=message):
            side(identity, n, **slots)


@pytest.mark.parametrize("call", [
    lambda: central_power_gf(2, 0.1, 3),
    lambda: binomial(0.1, 2),
    lambda: fuss_ballot_gf(2, 0.5, 4),
    lambda: fuss_ballot_spec(2, 0.5),
    lambda: central_ballot_spec(2, 0.5),
    lambda: check_product_laws(2, 0.5, 1, 4),
])
def test_value_functions_refuse_floats(call):
    message = "float coefficients are not exact; use Fraction or int"
    with pytest.raises(SeriesError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: fibonacci(-1), "fibonacci needs n >= 0, got -1"),
    (lambda: fuss_ballot_spec(1, 1), "the hypergeometric form needs p >= 2, got 1"),
    (lambda: central_ballot_spec(1, 1), "the hypergeometric form needs p >= 2, got 1"),
], ids=["fibonacci", "fuss-ballot-spec", "central-ballot-spec"])
def test_value_functions_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError


def test_catalan_column_sum_hand_checked():
    # p=2, r=0, k=1, n=2: terms 6 + 2 + 2 = 10 = C(5, 2)
    point = {"p": 2, "r": 0, "k": 1}
    assert sum_lhs("catalan-column-sum", 2, **point) == 10
    assert sum_rhs("catalan-column-sum", 2, **point) == 10


def test_rothe_hagen_empty_convolution():
    point = {"z": 3, "x": Fraction(1, 2), "y": Fraction(3, 7)}
    assert sum_lhs("rothe-hagen", 0, **point) == 1
    assert sum_rhs("rothe-hagen", 0, **point) == 1


def test_rothe_hagen_rational_points():
    for x in RATIONAL_GRID:
        for y in (Fraction(1, 2), Fraction(3, 7)):
            for n in range(8):
                point = {"z": 2, "x": x, "y": y}
                assert sum_lhs("rothe-hagen", n, **point) == sum_rhs("rothe-hagen", n, **point)


def test_ballot_vandermonde_rational_points():
    for x, y in ((2, 1), (Fraction(1, 2), Fraction(3, 7)), (Fraction(3, 2), Fraction(1, 2))):
        for n in range(8):
            point = {"p": 2, "x": x, "y": y}
            assert sum_lhs("ballot-vandermonde", n, **point) == sum_rhs(
                "ballot-vandermonde", n, **point
            )


def test_subarray_convolution_matches_catalan_vandermonde():
    # substituting j = i + s, x = ps, y = pk - ps + r, n -> n - k turns one
    # parameterization into the other; both must give the same number
    for p in (2, 3):
        for r in (0, 1):
            for n in range(1, 9):
                for k in range(1, n + 1):
                    for s in range(1, k + 1):
                        direct = sum_lhs("subarray-convolution", n, p=p, r=r, k=k, s=s)
                        mapped_point = {"z": p, "x": p * s, "y": p * k - p * s + r}
                        mapped = sum_lhs("catalan-vandermonde", n - k, **mapped_point)
                        assert direct == mapped
                        assert mapped == sum_rhs("catalan-vandermonde", n - k, **mapped_point)
                        assert direct == sum_rhs("subarray-convolution", n, p=p, r=r, k=k, s=s)


@pytest.mark.parametrize("identity, n, slots, message", [
    ("product-laws", 3, {"p": 2, "x": 1, "y": 1}, "unknown sum identity 'product-laws'"),
    ("no-such-identity", 3, {}, "unknown sum identity 'no-such-identity'"),
    ("rothe-hagen", 3, {"z": 2, "x": 1}, "takes slots ['z', 'x', 'y'] besides n, got ['x', 'z']"),
    ("subarray-convolution", 3, {"p": 2, "r": 0, "k": 2},
     "takes slots ['p', 'r', 'k', 's'] besides n, got ['k', 'p', 'r']"),
    # an unknown slot is refused as check_registry refuses its pin
    ("rothe-hagen", 3, {"z": 2, "x": 1, "y": 1, "k": 1},
     "identity 'rothe-hagen' has no slots ['k']; available: ('z', 'x', 'y', 'n')"),
    ("catalan-column-sum", 3, {"p": 2, "r": 0, "s": 1},
     "identity 'catalan-column-sum' has no slots ['s']; available: ('p', 'r', 'n', 'k')"),
])
def test_sum_sides_refuse_unknown_ids_and_slots(identity, n, slots, message):
    for side in (sum_lhs, sum_rhs):
        with pytest.raises(RegistryError, match=re.escape(message)):
            side(identity, n, **slots)


def test_sum_rhs_of_a_k_s_row_takes_s():
    # G_{x+y} at x + y = ps + p(k - s) + r does not depend on s
    point = {"p": 2, "r": 0, "k": 2}
    assert sum_rhs("subarray-convolution", 4, **point, s=1) == comb(8, 2)
    assert sum_rhs("subarray-convolution", 4, **point, s=2) == comb(8, 2)
    for side in (sum_lhs, sum_rhs):
        with pytest.raises(RegistryError, match=re.escape("takes slots ['p', 'r', 'k', 's']")):
            side("subarray-convolution", 4, **point)


@pytest.mark.parametrize("identity, n, slots, exact", [
    ("subarray-convolution", 3, {"p": 2, "r": 0, "k": Fraction(2), "s": 1}, {"k": 2}),
    ("subarray-convolution", 3, {"p": 2, "r": 0, "k": "2", "s": 1}, {"k": 2}),
    ("rothe-hagen", 3, {"z": 2, "x": "1/2", "y": 1}, {"x": Fraction(1, 2)}),
    ("rothe-hagen", Fraction(3), {"z": "2", "x": 1, "y": "6/2"}, {"z": 2, "y": 3}),
])
def test_sum_sides_take_the_pins_check_registry_takes(identity, n, slots, exact):
    # each value is read as its exact pin, so the sides equal those at the exact point
    for side in (sum_lhs, sum_rhs):
        assert side(identity, n, **slots) == side(identity, int(n), **{**slots, **exact})
    report = check_registry(identity, 3, {**slots, "n": n})
    assert (report.holds, report.points) == (True, 1)


@pytest.mark.parametrize("identity, n, slots, message", [
    ("rothe-hagen", 3, {"z": Fraction(5, 2), "x": 1, "y": 1}, "needs an integer z, got z=5/2"),
    ("rothe-hagen", 3.0, {"z": 2, "x": 1, "y": 1}, "needs an exact n, got n=3.0"),
    ("rothe-hagen", 3, {"z": 2, "x": 0.5, "y": 1}, "needs an exact x, got x=0.5"),
    ("subarray-convolution", 3, {"p": 2, "r": 0, "k": "5/2", "s": 1},
     "needs an integer k, got k=5/2"),
])
def test_sum_sides_refuse_the_pins_check_registry_refuses(identity, n, slots, message):
    message = f"identity {identity!r} {message}"
    for side in (sum_lhs, sum_rhs):
        with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
            side(identity, n, **slots)
    with pytest.raises(RegistryError, match=f"^{re.escape(message)}$"):
        check_registry(identity, 3, {**slots, "n": n})


# -- weighted row sums and the column convolution of an array --------------------
# Both read a Riordan array's entries at one point.  The k/s rows above check
# the column convolution of the extracted arrays as registry sums; these
# helpers check it, and the weighted row sum, on any array.


def weighted_row_sum(arr, f, n):
    """``sum_k f_k d[n][k]``, the finite sum; it equals ``[t^n] d(t) f(t h(t))``."""
    return sum((f.coeff(k) * arr.entry(n, k) for k in range(n + 1)), Fraction(0))


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def andrews_weight(n):
    """(t - t^2 - t^3 + t^4) / (1 - t^5) to precision n."""
    return FPS([0, 1, -1, -1, 1], precision=n) / FPS([1, 0, 0, 0, 0, -1], precision=n)


def via_gf(arr, f, n):
    """[t^n] d(t) f(t h(t)), the generating-function route of a weighted row sum."""
    return (arr.d * f.compose(arr.h.shift_up())).coeff(n)


def test_weighted_row_sum_fibonacci():
    sub = pascal(13).extract_subarray(2, 0)
    f = andrews_weight(sub.precision)
    assert weighted_row_sum(sub, f, 3) == 8 == fib(6) == via_gf(sub, f, 3)
    assert weighted_row_sum(sub, f, 5) == 55 == fib(10) == via_gf(sub, f, 5)


def test_weighted_row_sum_constant_weight():
    for arr in (pascal(6), ballot_triangle(6)):
        f = FPS.one(6)
        assert weighted_row_sum(arr, f, 0) == arr.d.coeff(0) == via_gf(arr, f, 0)


def test_weighted_row_sum_random_weights():
    rng = random.Random(37)
    arr = catalan_triangle(10)
    for _ in range(5):
        f = FPS([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(10)])
        for n in range(10):
            direct = sum(f.coeff(k) * arr.entry(n, k) for k in range(n + 1))
            assert weighted_row_sum(arr, f, n) == direct == via_gf(arr, f, n)


def convolution_identity(arr, n, k, s):
    """Check ``d[n][k] = sum_{j=s}^{n} d[n-j][k-s] [t^j](t h)^s`` exactly at one point."""
    if not (1 <= s <= k <= n):
        raise RiordanError(f"need 1 <= s <= k <= n, got n={n}, k={k}, s={s}")
    lhs = arr.entry(n, k)
    ths = arr.h.shift_up().truncate(arr.precision) ** s
    rhs = sum((arr.entry(n - j, k - s) * ths.coeff(j) for j in range(s, n + 1)), Fraction(0))
    cex = None
    if lhs != rhs:
        cex = Counterexample({"n": str(n), "k": str(k), "s": str(s)}, str(lhs), str(rhs))
    return IdentityReport("riordan-convolution", f"n={n}, k={k}, s={s}", 1, cex)


def test_convolution_pascal_s1():
    p = pascal(12)
    rep = convolution_identity(p, 5, 2, 1)
    assert rep.holds
    # the s = 1 case reads sum_j C(n-j, k-1) = C(n, k)
    assert sum(comb(5 - j, 1) for j in range(1, 6)) == comb(5, 2) == 10


def test_convolution_pascal_general_s():
    p = pascal(14)
    for n in range(1, 14):
        for k in range(1, n + 1):
            for s in range(1, k + 1):
                assert convolution_identity(p, n, k, s).holds
                closed = sum(
                    comb(n - j, k - s) * comb(j - 1, s - 1) for j in range(s, n + 1)
                )
                assert closed == comb(n, k)


def test_convolution_trivial_point():
    rep = convolution_identity(pascal(5), 1, 1, 1)
    assert rep.holds and rep.points == 1


def test_convolution_other_arrays():
    for arr in (catalan_triangle(12), ballot_triangle(12)):
        for n, k, s in ((6, 3, 2), (9, 5, 1), (11, 11, 4)):
            assert convolution_identity(arr, n, k, s).holds


def test_convolution_validates_parameters():
    with pytest.raises(RiordanError):
        convolution_identity(pascal(8), 3, 2, 0)
    with pytest.raises(RiordanError):
        convolution_identity(pascal(8), 2, 3, 1)


# -- registry plumbing ----------------------------------------------------------


def test_registry_lists_all_entries():
    ids = [e.id for e in registry_entries()]
    assert len(ids) == len(set(ids)) == 18
    for expected in (
        "andrews-a1",
        "fibonacci-riordan",
        "subarray-convolution",
        "catalan-vandermonde",
        "catalan-column-sum",
        "catalan-triangle-convolution",
        "ballot-triangle-convolution",
        "ballot-vandermonde",
        "rothe-hagen",
        "central-binomial-vandermonde",
        "product-laws",
        "hypergeometric-power-law",
    ):
        assert expected in ids


@pytest.mark.parametrize(
    "identity",
    [
        "subarray-convolution",
        "catalan-vandermonde",
        "catalan-column-sum",
        "catalan-triangle-convolution",
        "ballot-triangle-convolution",
        "ballot-vandermonde",
        "rothe-hagen",
        "central-binomial-vandermonde",
    ],
)
def test_registry_identities_hold_small_grid(identity):
    rep = check_registry(identity, max_n=10)
    assert rep.holds, rep.to_record()
    assert rep.points > 0


def test_registry_pinning():
    rep = check_registry("rothe-hagen", max_n=15, pinned={"x": 2, "y": 3, "z": 4})
    assert rep.holds
    assert rep.points == 16


def test_registry_unknown_id():
    with pytest.raises(RegistryError):
        check_registry("no-such-id")


def test_registry_rejects_bad_pin():
    with pytest.raises(RegistryError):
        check_registry("rothe-hagen", pinned={"p": 2})


def test_counterexample_payload():
    # lhs(n) = (F_1 * G_0)(n) = sum_j [j = 0] * (n - j) = n, against a factor pair that
    # breaks the law from n = 3 on: G_1(n) = n + 1 there
    law = _VANDERMONDE_LAW._replace(axes=(), parts=(), point=lambda n: (1, 0, n))
    row = SumIdentity(
        "broken", "n = n, wrong from 3 on",
        lambda x: identities.Column(lambda j: (int(j == 0), 1)),
        lambda y: identities.Column(lambda m: (m + y * (m >= 3), 1)),
        (), law, None,
    )
    rep = _sum_entry(row).run(max_n=10, pinned={})
    assert not rep.holds
    assert rep.verdict == "counterexample"
    assert rep.counterexample.params == {"n": "3"}
    assert rep.counterexample.lhs == "3"
    assert rep.counterexample.rhs == "4"
    assert rep.points == 4  # stopped at the first (lexicographically smallest) failure


def test_power_law_failure_counts_every_sub_check(monkeypatch):
    # the 3rd (q, r) sub-check fails: the report still counts the 2 before it
    calls = []
    real = identities.verify_power_identity

    def third_fails(q, r, precision):
        calls.append((q, r))
        rep = real(q, r, precision)
        if len(calls) < 3:
            return rep
        return IdentityReport(rep.identity, rep.grid, rep.points, Counterexample({}, "0", "1"))

    monkeypatch.setattr(identities, "verify_power_identity", third_fails)
    rep = check_registry("hypergeometric-power-law", max_n=9)
    assert not rep.holds
    assert len(calls) == 3
    assert rep.points == 30
    assert rep.grid == "q=2, r=1/2, coefficients below 10"


def test_registry_n_pin_checks_that_n_only():
    rep = check_registry("rothe-hagen", max_n=10, pinned={"n": 4})
    assert rep.holds
    assert rep.points == 3 * 5 * 5
    assert rep.grid == "z in (2,3,4), rational (x, y) grid, n=4"


@pytest.mark.parametrize("variant", sorted(ANDREWS_VARIANTS))
def test_andrews_n_pin_checks_that_n_only(monkeypatch, variant):
    windows = []
    real = identities.andrews_sum
    monkeypatch.setattr(identities, "andrews_sum", lambda *w: windows.append(w) or real(*w))
    rep = check_registry(f"andrews-{variant}", 5, {"n": 7})
    assert (rep.holds, rep.points, rep.grid) == (True, 1, "n=7")
    assert windows == [_window(variant, 7)]


@pytest.mark.parametrize(
    "entry", [e for e in registry_entries() if "n" in e.slots], ids=lambda e: e.id)
def test_an_n_pin_below_the_first_n_is_refused_by_name(entry):
    least = {f"andrews-{v}": row[1] for v, row in ANDREWS_VARIANTS.items()}.get(entry.id, 0)
    message = f"identity {entry.id!r} needs n >= {least}, got n={least - 1}"
    with pytest.raises(RegistryError, match=re.escape(message)):
        check_registry(entry.id, 5, {"n": least - 1})


def test_fibonacci_riordan_n_pin_checks_coefficient_n_of_both_extractions(monkeypatch):
    wrong = dict(identities._EXTRACTED_D, even=lambda m: comb(2 * m, m) + (m == 3))
    rep = check_registry("fibonacci-riordan", 5, {"n": 7})
    assert (rep.holds, rep.points, rep.grid) == (True, 2, "even and odd extractions, n=7")
    monkeypatch.setattr(identities, "_EXTRACTED_D", wrong)
    assert check_registry("fibonacci-riordan", 5, {"n": 2}).holds
    rep = check_registry("fibonacci-riordan", 5, {"n": 3})
    assert rep.grid == "first column of rows even, n=3"
    assert rep.counterexample.params == {"rows": "even", "column": "d", "n": "3"}


# a value inside every identity's domain for each slot
PIN_VALUES = {"n": 3, "p": 2, "r": 1, "z": 2, "k": 2, "s": 1,
              "x": Fraction(1, 2), "y": Fraction(3, 2)}


@pytest.mark.parametrize("entry", registry_entries(), ids=lambda e: e.id)
def test_every_listed_slot_pin_is_named_in_the_grid(entry):
    for slot in entry.slots:
        value = PIN_VALUES[slot]
        rep = check_registry(entry.id, 4, {slot: value})
        assert rep.holds and rep.points > 0, (slot, rep.to_record())
        assert f"{slot}={value}" in rep.grid.split(", "), (slot, rep.grid)


def test_report_record_shape():
    rec = check_andrews("a1", 5).to_record()
    assert rec["id"] == "andrews-a1"
    assert rec["verdict"] == "holds"
    assert rec["counterexample"] is None
    assert rec["points"] == 5
