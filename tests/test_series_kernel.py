"""Differential tests: the integer series kernels against a Fraction reference.

``FormalPowerSeries`` stores integer numerators over one common
denominator.  The reference below is the plain coefficient-by-coefficient
``Fraction`` arithmetic on lists; every kernel must agree with it exactly,
and every result must be in canonical form (positive denominator sharing
no factor with all numerators).
"""

from fractions import Fraction
from math import ceil, gcd, isqrt, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordan import series
from riordan.series import FormalPowerSeries as FPS
from riordan.series import (
    _append_term,
    _collect,
    _compose,
    _extend,
    _ratio_steps,
    lagrange_coeffs,
    lagrange_gf,
    lagrange_solve,
)

KERNEL = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# for the tests whose Fraction reference composes at precision up to 40
HEAVY = settings(KERNEL, max_examples=30)


# -- Fraction reference ------------------------------------------------------


def ref_mul(a, b):
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


def ref_div(f, g):
    n = min(len(f), len(g))
    g = [Fraction(x) for x in g]
    out = []
    for i in range(n):
        out.append((f[i] - sum(g[j] * out[i - j] for j in range(1, i + 1))) / g[0])
    return out


def ref_pow(f, k):
    out = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for _ in range(k):
        out = ref_mul(out, f)
    return out


def ref_compose(f, g):
    n = min(len(f), len(g))
    acc = [Fraction(0)] * n
    for c in reversed(f[:n]):
        acc = ref_mul(acc, g[:n])
        acc[0] += c
    return acc


def ref_derivative(f):
    return [i * f[i] for i in range(1, len(f))]


def ref_revert(g):
    # Newton on g(w) = t with two Horner compositions per step: a route that
    # shares no table of powers with the kernel under test
    n = len(g)
    w = [Fraction(0), 1 / Fraction(g[1])][:n]
    prec = 2
    while prec < n:
        prec = min(2 * prec, n)
        w = w + [Fraction(0)] * (prec - len(w))
        err = ref_compose(g[:prec], w)
        err[1] -= 1
        inv = ref_div([1] + [0] * (prec - 2), ref_compose(ref_derivative(g[:prec]), w))
        step = ref_mul(err, inv + [0])  # err has order 2: inv's top never matters
        w = [x - y for x, y in zip(w, step)]
    return w


def ref_lagrange_solve(phi, n):
    # w = t phi(w) as the inverse of t / phi(t), with phi known mod t^n
    if n == 1:
        return [Fraction(0)]
    return ref_revert(ref_div([0, 1] + [0] * (n - 2), phi[:n]))


def ref_pow_rational(f, r):
    # Miller's recurrence for g = f**r, f(0) = 1: n g_n = sum ((r+1)k - n) f_k g_{n-k}
    out = [Fraction(1)]
    for n in range(1, len(f)):
        out.append(sum(((r + 1) * k - n) * f[k] * out[n - k] for k in range(1, n + 1)) / n)
    return out


# -- strategies ---------------------------------------------------------------

# integers, and fractions built from a numerator and denominator that share a
# factor (the Fraction reduces them; the series must too)
integer = st.integers(-30, 30)
rational = st.builds(
    lambda n, d, k: Fraction(n * k, d * k),
    st.integers(-30, 30), st.integers(1, 12), st.integers(1, 6),
)
coefficient = st.one_of(integer, rational, st.just(0))
unit = st.sampled_from([1, -1, 2, Fraction(3, 5), Fraction(-7, 4), 12])


def coeff_lists(min_size=1, max_size=12, unit=False, order_one=False):
    def shape(cs):
        cs = list(cs)
        if unit:
            cs[0] = 1
        if order_one:
            cs[0] = 0
            cs[1] = cs[1] or 1
        return cs

    lo = 2 if order_one else min_size
    return st.lists(coefficient, min_size=lo, max_size=max_size).map(shape)


def integral_or_rational_lists(**kw):
    return st.one_of(
        st.lists(integer, min_size=kw.get("min_size", 1), max_size=12), coeff_lists(**kw)
    )


def canonical(s):
    assert s._den > 0
    assert gcd(s._den, *s._nums) == 1
    return list(s.coeffs)


@pytest.fixture
def convolutions(monkeypatch):
    """The length of each integer product the series kernels form, in order.

    The cached power tables start empty, so a table is counted when it is built.
    """
    series._power_table.cache_clear()
    series._giant_powers.cache_clear()
    calls = []
    convolve = series._convolve

    def counted(a, b, n):
        calls.append(n)
        return convolve(a, b, n)

    monkeypatch.setattr(series, "_convolve", counted)
    return calls


# -- kernels against the reference -----------------------------------------


@KERNEL
@given(integral_or_rational_lists(), integral_or_rational_lists())
def test_mul_add_sub(a, b):
    f, g = FPS(a), FPS(b)
    n = min(len(a), len(b))
    assert canonical(f * g) == ref_mul(a, b)
    assert canonical(f + g) == [x + y for x, y in zip(a, b)]
    assert canonical(f - g) == [x - y for x, y in zip(a, b)]
    assert canonical(-f) == [-x for x in a]
    assert (f * g).precision == (f + g).precision == n


@KERNEL
@given(coeff_lists(), coefficient)
def test_scalar_ops(a, c):
    f = FPS(a)
    assert canonical(f * c) == canonical(c * f) == [x * c for x in a]
    assert canonical(f + c) == [a[0] + c] + a[1:]
    assert canonical(c - f) == [c - a[0]] + [-x for x in a[1:]]
    if c:
        assert canonical(f / c) == [Fraction(x) / c for x in a]


@KERNEL
@given(integral_or_rational_lists(), coefficient, unit)
def test_scalar_on_the_left_is_its_constant_series(a, c, a0):
    # series equality compares the canonical (nums, den)
    f, g = FPS(a), FPS([a0] + a[1:])
    assert c - f == FPS.constant(c, f.precision) - f
    assert c / g == FPS.constant(c, g.precision) / g


@pytest.mark.parametrize("other", [0.5, "a", None, [1]])
def test_foreign_scalar_on_the_left_is_refused(other):
    f = FPS([1, 2, 3])
    with pytest.raises(TypeError):
        other - f
    with pytest.raises(TypeError):
        other / f


@KERNEL
@given(integral_or_rational_lists(), coeff_lists(), unit)
def test_div(a, b, b0):
    b[0] = b0
    assert canonical(FPS(a) / FPS(b)) == ref_div(a, b)


@KERNEL
@given(coeff_lists(max_size=8), st.integers(-3, 4))
def test_pow(a, k):
    if k < 0:
        a[0] = a[0] or 2
        want = ref_pow(ref_div([1] + [0] * (len(a) - 1), a), -k)
    else:
        want = ref_pow(a, k)
    assert canonical(FPS(a) ** k) == want


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (5, 3)])
def test_pow_starts_from_the_first_factor(convolutions, k, products):
    # square-and-multiply with no product by 1: f**5 is f * (f^2)^2
    f = [2, Fraction(1, 3), -1, 4]
    got = FPS(f) ** k
    assert len(convolutions) == products
    assert canonical(got) == ref_pow(f, k)


@KERNEL
@given(integral_or_rational_lists(max_size=10), coeff_lists(max_size=10, order_one=True))
def test_compose(a, g):
    assert canonical(FPS(a).compose(FPS(g))) == ref_compose(a, g)


@KERNEL
@given(coeff_lists(min_size=2, order_one=True))
def test_revert(a):
    w = FPS(a).revert()
    t = [0, 1] + [0] * (len(a) - 2)
    assert ref_compose(a, canonical(w)) == t
    assert ref_compose(canonical(w), a) == t


@KERNEL
@given(coeff_lists(unit=True), rational)
def test_pow_rational(a, r):
    assert canonical(FPS(a).pow_rational(r)) == ref_pow_rational(a, r)


@KERNEL
@given(coeff_lists(unit=True, max_size=10), st.integers(-6, 6), st.integers(1, 4))
def test_pow_rational_to_the_denominator(a, p, q):
    # (f^(p/q))^q = f^p by integer powers and, for p < 0, division: no step
    # is shared with Miller's recurrence
    f = FPS(a)
    assert f.pow_rational(Fraction(p, q)) ** q == f**p


@KERNEL
@given(coeff_lists(min_size=2))
def test_derivative(a):
    f = FPS(a)
    d = f.derivative()
    assert canonical(d) == [i * x for i, x in enumerate(a)][1:]
    assert d.precision == f.precision - 1


@KERNEL
@given(coeff_lists(max_size=9), unit, st.integers(1, 4))
def test_lagrange_coeffs_against_solve(phi, phi0, k):
    phi[0] = phi0
    n = len(phi)
    got = lagrange_coeffs(FPS(phi), k, n)
    want = [Fraction(0)] * n
    for m in range(max(k, 1), n):
        want[m] = Fraction(k, m) * ref_pow(phi, m)[m - k]
    assert canonical(got) == want
    assert got == lagrange_solve(FPS(phi), n) ** k


# -- the Newton solve and reversion against Horner composition ----------------


precision = st.integers(1, 40)
# a series of order exactly 1 (so, precision 2 at least) for reversion
dense_order_one = st.integers(2, 40).flatmap(
    lambda n: coeff_lists(min_size=n, max_size=n, order_one=True)
)


@st.composite
def phi_and_precision(draw):
    """phi with phi(0) of either sign, up to trailing zeros, and the precision to solve at.

    phi is known mod t^n, or only mod t^(n-1), where ``_check_phi`` pads it.
    """
    n = draw(precision)
    phi = draw(coeff_lists(max_size=n))
    phi[0] = draw(unit) * draw(st.sampled_from([1, -1]))
    phi += [0] * draw(st.integers(0, 3))
    known = draw(st.sampled_from([n, max(n - 1, 1)]))
    return phi, n, known


@HEAVY
@given(phi_and_precision())
def test_lagrange_solve_matches_reverting_t_over_phi(case):
    phi, n, known = case
    got = lagrange_solve(FPS(phi, precision=known), n)
    padded = (phi + [0] * n)[:n]
    assert canonical(got) == ref_lagrange_solve(padded, n)
    if known < n:
        # the padded coefficient phi_(n-1) cannot reach w mod t^n
        padded[n - 1] += 5
        assert lagrange_solve(FPS(padded), n) == got


PHI = [Fraction(3, 2), -1, Fraction(2, 7), 0, 5, Fraction(-4, 9), 1, 0, Fraction(1, 3)]


@pytest.mark.parametrize("n", [3, 5, 9, 17, 33])
@pytest.mark.parametrize("missing", [0, 1])
def test_lagrange_solve_when_the_last_step_gains_one_coefficient(n, missing):
    # precision 2 doubles to n - 1, and the last step goes from n - 1 to n:
    # its F'(w) is 1 mod t, so it composes phi alone and takes no slope.
    # phi is known mod t^(n - missing)
    phi = [PHI[i % len(PHI)] + i for i in range(n - missing)]
    got = lagrange_solve(FPS(phi), n)
    assert canonical(got) == ref_lagrange_solve(phi + [0], n)


def test_lagrange_solve_composes_each_step_to_the_order_it_reaches(monkeypatch):
    # each step from known to prec composes phi at w mod t^(prec - 1) and, when
    # h = prec - known > 1, phi' at w mod t^(h - 1), each on its own table
    calls = []
    compose = series._compose

    def recorded(nums, den, w):
        calls.append(w.precision)
        return compose(nums, den, w)

    monkeypatch.setattr(series, "_compose", recorded)
    lagrange_solve(FPS(PHI * 4), 33)
    assert calls == [3, 1, 7, 3, 15, 7, 31, 15, 32]


@KERNEL
@given(dense_order_one)
def test_revert_matches_newton_by_horner(g):
    assert canonical(FPS(g).revert()) == ref_revert(g)


# -- baby steps and giant steps at the block edges ------------------------------


@st.composite
def block_edges(draw):
    """An outer series of length m^2 - 1, m^2 or m^2 + 1 and an inner one of order >= 1.

    The outer series has up to two all-zero blocks of the kernel's block size
    isqrt(L - 1) + 1 and up to three trailing zeros; the inner one's precision
    is 1, 2, or the outer length with or without those zeros.
    """
    m = draw(st.integers(1, 6))
    length = max(m * m + draw(st.sampled_from([-1, 0, 1])), 1)
    f = draw(st.lists(coefficient, min_size=length, max_size=length))
    size = isqrt(length - 1) + 1
    for j in draw(st.sets(st.integers(0, (length - 1) // size), max_size=2)):
        f[j * size:(j + 1) * size] = [0] * len(f[j * size:(j + 1) * size])
    f += [0] * draw(st.integers(0, 3))
    n = draw(st.sampled_from([1, 2, length, len(f)]))
    order = draw(st.integers(1, 3))
    w = ([0] * order + draw(st.lists(coefficient, min_size=n, max_size=n)))[:n]
    return f, w


@HEAVY
@given(block_edges())
@example(([5], [0]))
@example(([5, 0, 0], [0, 0, 3]))
def test_compose_at_block_edges(case):
    f, w = case
    assert canonical(FPS(f).compose(FPS(w))) == ref_compose(f, w)


@HEAVY
@given(block_edges(), st.integers(0, 1))
@example(([5], [0]), 0)
@example(([5], [0]), 1)
@example(([5, 0, 0], [0, 0, 3]), 1)
def test_compose_kernel_reads_an_input_longer_than_w_at_block_edges(case, extra):
    # lagrange_solve composes phi, known mod t^n, at w known mod t^(n-1): the
    # kernel trims an input one coefficient longer than w to w's precision
    f, w = case
    n = len(w)
    g = (f + [0] * (n + 1))[:n + extra]  # g known mod t^n or mod t^(n+1)
    outer = FPS(g)
    got = _compose(outer._nums, outer._den, FPS(w))
    assert canonical(got) == ref_compose(g, w)
    assert got.precision == n


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("order", [1, 2])
def test_compose_with_a_top_block_of_one_coefficient(m, order):
    # length m (m - 1) + 1 splits into blocks of m whose last holds one
    # coefficient, and its Horner level is formed mod t^1
    n = m * (m - 1) + 1
    assert isqrt(n - 1) + 1 == m and (n - 1) % m == 0
    f = [Fraction(i * i - 7, i % 4 + 1) for i in range(n)]
    w = ([0] * order + [Fraction(2 - i, 3) for i in range(1, n)])[:n]
    assert canonical(FPS(f).compose(FPS(w))) == ref_compose(f, w)


def test_dense_compose_takes_baby_and_giant_steps(convolutions):
    # Horner's rule would make 100 products; baby steps and giant steps at most
    # 2 ceil(sqrt(100)) + 1
    f = FPS(range(1, 101))
    w = FPS([0, *range(1, 100)])
    got = f.compose(w)
    assert 0 < len(convolutions) <= 2 * ceil(sqrt(100)) + 1
    # with m = 10, Horner level b reaches the result times W^b, of order 10 b,
    # so its giant product is formed mod t^(100 - 10 b) only
    assert convolutions[-9:] == [100 - 10 * b for b in range(8, -1, -1)]
    assert got.precision == 100
    # the low coefficients against the Fraction reference at a precision it reaches fast
    assert canonical(got.truncate(12)) == ref_compose(list(range(1, 13)), [0, *range(1, 12)])


def test_lagrange_solve_calls_neither_revert_nor_lagrange_coeffs(monkeypatch):
    # lagrange_solve and lagrange_coeffs are two routes to one series, and
    # criterion 9 compares them only while neither calls the other
    phi = FPS([Fraction(3, 2), -1, Fraction(2, 7), 0, 5, 0, 0, 0, 0, 0, 0, 0])
    want = lagrange_coeffs(phi, 1, 12)

    def refuse(*args, **kwargs):
        raise AssertionError("lagrange_solve took another route")

    monkeypatch.setattr(series.FormalPowerSeries, "revert", refuse)
    monkeypatch.setattr(series, "lagrange_coeffs", refuse)
    assert lagrange_solve(phi, 12) == want


# -- the Lagrange diagonal by baby steps and giant steps -------------------------


def ref_lagrange_coeffs(phi, k, n):
    # coefficient j is (k/j) [t^(j-k)] phi^j, from a chain of plain products
    out = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for j in range(1, n):
        power = ref_mul(power, phi)
        if j >= k:
            out[j] = Fraction(k, j) * power[j - k]
    return out


@st.composite
def lagrange_edges(draw):
    """phi at a precision n of m^2 - 1, m^2 or m^2 + 1 (n <= 37), and k from 1 to n + 1.

    phi has up to three inner zeros and up to three trailing zeros, and is
    known mod t^n or only mod t^(n-1), where ``_check_phi`` pads it.
    """
    m = draw(st.integers(1, 6))
    n = max(m * m + draw(st.sampled_from([-1, 0, 1])), 1)
    phi = draw(st.lists(coefficient, min_size=n, max_size=n))
    phi[0] = draw(unit) * draw(st.sampled_from([1, -1]))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)) - {0}:
        phi[i] = 0
    trailing = draw(st.integers(0, min(3, n - 1)))
    phi[n - trailing:] = [0] * trailing
    known = draw(st.sampled_from([n, max(n - 1, 1)]))
    k = draw(st.integers(1, n + 1))
    return phi[:known], n, k


@HEAVY
@given(lagrange_edges())
@example(([2], 1, 1))
@example(([1, 0, 0, 0], 5, 5))  # padded phi, k = n
def test_lagrange_coeffs_at_block_edges(case):
    phi, n, k = case
    padded = (phi + [0] * n)[:n]
    got = lagrange_coeffs(FPS(phi), k, n)
    assert canonical(got) == ref_lagrange_coeffs(padded, k, n)
    if len(phi) < n:
        # the padded coefficient phi_(n-1) cannot reach coefficient n - 1
        padded[n - 1] += 5
        assert lagrange_coeffs(FPS(padded), k, n) == got


@st.composite
def diagonal_cases(draw):
    """phi with phi(0) != 0 at precision n, and one to three F known mod t^n or further."""
    n = draw(precision)
    phi = draw(st.lists(coefficient, min_size=n, max_size=n))
    phi[0] = draw(unit)
    fs = draw(st.lists(
        st.integers(n, n + 2).flatmap(lambda size: st.lists(coefficient, min_size=size,
                                                             max_size=size)),
        min_size=1, max_size=3,
    ))
    return fs, phi


@HEAVY
@given(diagonal_cases())
@example(([[5], [Fraction(-2, 3), 4, 1]], [Fraction(3, 5)]))  # precision 1, F longer
def test_lagrange_gf_matches_the_fraction_reference(case):
    # coefficient j is [t^j] F phi^j, the convolution of F with a chain of plain products
    fs, phi = case
    n = len(phi)
    powers = ref_powers(phi, n)
    for f in fs:
        got = lagrange_gf(FPS(f), FPS(phi), n)
        assert canonical(got) == [
            sum(f[i] * powers[j][j - i] for i in range(j + 1)) for j in range(n)
        ], (f, phi)


def test_dense_lagrange_coeffs_takes_baby_and_giant_steps(convolutions):
    # a chain of powers would make 99 products; baby steps and giant steps at
    # most 2 ceil(sqrt(100)) + 2
    phi = FPS([3, *range(1, 100)])
    got = lagrange_coeffs(phi, 2, 100)
    assert 0 < len(convolutions) <= 2 * ceil(sqrt(100)) + 2
    assert got.precision == 100
    assert canonical(got.truncate(12)) == ref_lagrange_coeffs([3, *range(1, 12)], 2, 12)


@pytest.mark.parametrize("kernel", [
    lambda phi: [lagrange_coeffs(phi, k, 12) for k in (1, 3)],
    lambda phi: lagrange_gf(FPS([1, -2, Fraction(1, 3), 0, 4] * 3), phi, 12),
], ids=["lagrange_coeffs", "lagrange_gf"])
def test_lagrange_coeffs_calls_no_composition(monkeypatch, kernel):
    # lagrange_coeffs is the oracle of lagrange_solve and revert, so it takes
    # neither them nor the composition kernel they share; lagrange_gf, the
    # Lagrange-diagonal kernel, reads the power table alone as well
    phi = FPS([Fraction(3, 2), -1, Fraction(2, 7), 0, 5, 0, 0, 0, 0, 0, 0, 0])
    want = kernel(phi)
    series._power_table.cache_clear()
    series._giant_powers.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a Lagrange kernel took another route")

    monkeypatch.setattr(series, "lagrange_solve", refuse)
    monkeypatch.setattr(series, "_compose", refuse)
    monkeypatch.setattr(series.FormalPowerSeries, "revert", refuse)
    assert kernel(phi) == want


def ref_powers(phi, n):
    """``phi^0 .. phi^(n-1)`` mod ``t^n`` by a chain of plain products, ``phi`` padded to ``n``."""
    phi = (list(phi) + [0] * n)[:n]
    out = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for _ in range(1, n):
        out.append(ref_mul(out[-1], phi))
    return out


@st.composite
def power_table_streams(draw):
    """Lagrange calls on a stream of phis that share, collide in and evict the power tables.

    Each base phi (integer or rational, precision 1 to 17) comes with the
    same phi with another last coefficient, the same phi known one order
    less (padded by ``_check_phi``), and one order more (truncated by
    ``_check_phi``, or read at the higher precision).  Every call is
    made twice, the second pass in another order, so with enough bases a
    table is evicted before it is read again.
    """
    variants = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 17))
        phi = draw(st.lists(coefficient if draw(st.booleans()) else integer,
                            min_size=n, max_size=n))
        phi[0] = draw(unit)
        other_last = phi[:-1] + [phi[-1] + draw(st.sampled_from([1, -2, Fraction(1, 3)]))]
        longer = phi + [draw(integer)]
        variants += [(phi, n), (phi[:-1] or phi, n), (longer, n), (longer, n + 1)]
        if n > 1:
            variants.append((other_last, n))
    calls = [(phi, n, draw(st.integers(1, n + 2))) for phi, n in variants]
    f = draw(st.lists(coefficient, min_size=18, max_size=18))
    return calls + draw(st.permutations(calls)), f


@HEAVY
@given(power_table_streams())
@example(([([2, 1], 2, 1), ([2, 1, 5], 2, 1), ([2, 1, 6], 3, 2)] * 2, [1] * 18))
def test_lagrange_coeffs_and_diagonals_read_the_table_of_their_own_phi(case):
    # every call builds its phi afresh, so equal phis are distinct objects
    calls, f = case
    series._power_table.cache_clear()
    series._giant_powers.cache_clear()
    chains = {}
    for phi, n, k in calls:
        key = (tuple(phi), n)
        if key not in chains:
            chains[key] = ref_powers(phi, n)
        powers = chains[key]
        want = [Fraction(k, j) * powers[j][j - k] if j >= k else 0 for j in range(n)]
        assert canonical(lagrange_coeffs(FPS(phi), k, n)) == want, (phi, n, k)
        # the diagonal reads every coefficient of the table, the last one too
        diagonal = lagrange_gf(FPS(f[:n]), FPS(phi, n), n)
        assert canonical(diagonal) == [
            sum(f[i] * powers[j][j - i] for i in range(j + 1)) for j in range(n)
        ], (phi, n)


# -- terms appended one at a time ----------------------------------------------


@KERNEL
@given(
    st.lists(st.integers(-10**12, 10**12), max_size=8),
    st.integers(1, 10**12),
    st.integers(-10**30, 10**30),
)
def test_integer_term_appends_as_the_reduced_route_does(xs, den, num):
    # a step of 1 skips the gcd; a step of -1 is the same term and takes the reduced route
    fast, slow = list(xs), list(xs)
    got = _append_term(fast, den, num, 1)
    assert (fast, got) == (slow, _append_term(slow, den, -num, -1))
    assert got == den
    assert [Fraction(x, got) for x in fast] == [Fraction(x, den) for x in xs] + [num]


# -- a batch of terms over one denominator ------------------------------------------


raw_pairs = st.tuples(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6).filter(bool))


@KERNEL
@given(st.one_of(
    st.lists(raw_pairs, max_size=30),  # negative denominators among them
    # unreduced pairs: each term scaled by a common factor of its own
    st.lists(st.builds(lambda t, g: (t[0] * g, t[1] * g), raw_pairs,
                       st.integers(-10**6, 10**6).filter(bool)), max_size=30),
    st.lists(st.tuples(st.integers(-10**30, 10**30), st.just(1)), max_size=30),  # integers
    st.lists(raw_pairs, min_size=1, max_size=1),  # a single term
))
def test_collect_puts_a_batch_in_lowest_terms(terms):
    nums, den = _collect(terms)
    assert [Fraction(x, den) for x in nums] == [Fraction(n, d) for n, d in terms]
    assert den > 0 and gcd(den, *nums) == 1


def test_collect_reduces_no_term_on_its_own(monkeypatch):
    # over the lcm, then one gcd: a per-term reduction would call _reduced
    def fail(*args):
        raise AssertionError("_collect reduced a term on its own")

    monkeypatch.setattr(series, "_reduced", fail)
    assert _collect([(2, 4), (3, -6), (10, 8), (7, 1)]) == ([2, -2, 5, 28], 4)


reduced_pairs = raw_pairs.map(lambda t: (Fraction(*t).numerator, Fraction(*t).denominator))


@KERNEL
@given(st.lists(raw_pairs, max_size=20), st.lists(reduced_pairs, max_size=20))
def test_extend_keeps_a_canonical_column_canonical_with_no_gcd(prefix, terms):
    # terms in lowest terms over their lcm are canonical, and so is a canonical prefix rescaled
    xs, den = _collect(prefix)

    def fail(*args):
        raise AssertionError("_extend took a gcd")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "gcd", fail)
        patch.setattr(series, "_reduced", fail)
        got = _extend(xs, den, terms)
    assert (xs, got) == _collect(prefix + terms)


@KERNEL
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-3, 3)), max_size=4),
       st.lists(st.one_of(st.tuples(st.integers(1, 9), st.integers(0, 3)),
                          st.tuples(st.integers(-9, -1), st.integers(-3, 0))), max_size=4),
       raw_pairs, st.integers(0, 5), st.integers(1, 25))
def test_ratio_steps_are_the_fraction_products_in_lowest_terms(upper, lower, start, k, count):
    # c0 + c1 j with c0 != 0 and c1 zero or of the sign of c0 never vanishes at j >= 0;
    # the j + 1 of the term's j! is the stepper's own lower factor
    want, value = [], Fraction(*start)
    for j in range(k, k + count):
        want.append((value.numerator, value.denominator))
        for c0, c1 in upper:
            value *= c0 + c1 * j
        for c0, c1 in lower:
            value /= c0 + c1 * j
        value /= j + 1
    steps = _ratio_steps(*start, upper, lower, k)
    assert [next(steps) for _ in range(count)] == want


# -- canonical form and precision rules ----------------------------------------


def test_canonical_form_equality_and_hash():
    half = FPS([Fraction(2, 4)])
    assert half == FPS([Fraction(1, 2)]) == FPS(["1/2"])
    assert hash(half) == hash(FPS([Fraction(1, 2)]))
    assert (half._nums, half._den) == ((1,), 2)
    # a common factor of every numerator cancels against the denominator
    f = FPS([Fraction(2, 3), Fraction(4, 3)]) * 3
    assert (f._nums, f._den) == ((2, 4), 1)
    assert hash(f) == hash(FPS([2, 4]))
    g = FPS([1, 2, 3]) / -6
    assert g._den == 6 and g._nums == (-1, -2, -3)
    assert FPS.constant(0, 4)._den == 1
    assert (FPS([Fraction(1, 2), 1]) - FPS([Fraction(1, 2), 0]))._den == 1


def test_truncation_reduces_and_precision_rules_hold():
    f = FPS([1, 2, Fraction(1, 6)])
    assert f._den == 6
    assert f.truncate(2)._den == 1
    assert f.truncate(2) == FPS([1, 2])
    assert (f * FPS([1] * 10)).precision == 3
    assert f.shift_up(2).precision == 5
    assert f.shift_up(2).shift_down(2) == f
    assert (f / FPS([2] * 7)).precision == 3
    assert f.compose(FPS.t(9)) == f
