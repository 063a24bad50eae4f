"""Acceptance suite: one test per criterion, all exact, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Every tolerance is exact equality; there are no approximate
comparisons anywhere.
"""

import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from closed_forms import power_series_coeff

from riordan.arrays import (
    RiordanArray,
    a_sequence,
    ballot_triangle,
    catalan_triangle,
    pascal,
    subarray_triangle,
)
from riordan.cli import main
from riordan.hypergeom import (
    binomial_series,
    expand,
    h_for_binomial_A,
    power_coeff,
    power_spec,
)
from riordan.identities import (
    ANDREWS_VARIANTS,
    RATIONAL_GRID,
    check_andrews,
    check_product_laws,
    check_registry,
    fibonacci,
)
from riordan.series import (
    FormalPowerSeries,
    lagrange_coeffs,
    lagrange_solve,
)

FPS = FormalPowerSeries
FIXTURES = Path(__file__).parent / "fixtures"


def _pass(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_andrews_suite():
    start = time.monotonic()
    for variant in ANDREWS_VARIANTS:
        report = check_andrews(variant, 200)
        assert report.holds, report.to_record()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"Andrews suite took {elapsed:.2f}s"
    _pass(1, f"7 Fibonacci identities exact for n <= 200 in {elapsed:.2f}s")


def test_criterion_02_generating_function_reproduction():
    n = 100
    base = pascal(2 * n + 2)
    sub = base.extract_subarray(2, 0)
    weight = FPS([0, 1, -1, -1, 1], precision=n) / FPS(
        [1, 0, 0, 0, 0, -1], precision=n
    )
    composed = sub.d * weight.compose(sub.h.shift_up())
    target = FPS([0, 1], precision=n) / FPS([1, -3, 1], precision=n)
    for m in range(n):
        assert composed.coeff(m) == target.coeff(m) == fibonacci(2 * m)
    _pass(2, "d(t) f(t h(t)) = t/(1 - 3t + t^2) with F_{2n} coefficients, 100 terms")


def test_criterion_03_subarray_a_sequences():
    terms = 20
    nrows = terms + 1
    bases = [
        (pascal(4 * nrows + 3), FPS([1, 1], precision=terms)),
        (catalan_triangle(4 * nrows + 3), FPS([1, 2, 1], precision=terms)),
        (ballot_triangle(4 * nrows + 3), FPS([1] * terms)),
    ]
    for base, base_a in bases:
        for p in (2, 3, 4):
            for r in (0, 1, 2):
                tri = subarray_triangle(base, p, r, nrows)
                recovered = a_sequence(tri, terms=terms)
                assert recovered == base_a**p, (p, r)
    _pass(3, "extracted A-sequences equal A^p: 3 bases x (p, r) in {2,3,4}x{0,1,2}, 20 terms")


def test_criterion_04_h_closed_forms_agree():
    n = 50
    for q in range(2, 7):
        closed = h_for_binomial_A(q, n)
        hyper = expand(power_spec(q, q), n)
        solved = RiordanArray.from_dA(FPS.one(n), (1 + FPS.t(n)) ** q).h.truncate(n)
        powered = binomial_series(q, 1, n).pow_rational(q)
        assert closed == hyper == solved == powered, q
    _pass(4, "four h-series routes agree on 50 coefficients for q in 2..6")


def test_criterion_05_power_coefficient_closed_form():
    for q in range(2, 6):
        th = h_for_binomial_A(q, 41).shift_up()
        for s in range(1, 5):
            ths = th**s
            for j in range(41):
                want = ths.coeff(j)
                assert power_coeff(q, s, j) == want, (q, s, j)
                if j >= s:
                    assert power_series_coeff(q, s, j - s) == want, (q, s, j)
    _pass(5, "(t h)^s closed form matches the series oracle, q in 2..5, s in 1..4, j <= 40")


GOLDEN = [
    ("pascal_7.txt", lambda: pascal(7).materialize(7)),
    (
        "extracted_pascal_p2_r0_7.txt",
        lambda: pascal(15).extract_subarray(2, 0).materialize(7),
    ),
    (
        "extracted_pascal_p3_r1_7.txt",
        lambda: pascal(21).extract_subarray(3, 1).materialize(7),
    ),
    ("catalan_triangle_7.txt", lambda: catalan_triangle(7).materialize(7)),
    ("ballot_triangle_7.txt", lambda: ballot_triangle(7).materialize(7)),
]


def test_criterion_06_golden_triangles():
    for name, build in GOLDEN:
        text = (FIXTURES / name).read_text()
        # one row per line, entries split by single spaces, one final newline
        assert text.endswith("\n") and not text.endswith("\n\n"), name
        want = [line.split(" ") for line in text[:-1].split("\n")]
        assert build().cells() == want, name
    _pass(6, "5 golden triangles byte-exact (row 5 of the (3,1) extraction pinned to 4368 1820 560 120 16 1)")


REGISTRY_IDS = [
    "subarray-convolution",
    "catalan-vandermonde",
    "catalan-column-sum",
    "catalan-triangle-convolution",
    "ballot-triangle-convolution",
    "ballot-vandermonde",
    "rothe-hagen",
    "central-binomial-vandermonde",
]


@pytest.mark.parametrize("identity", REGISTRY_IDS)
def test_criterion_07_identity_registry(identity):
    report = check_registry(identity, max_n=20)
    assert report.holds, report.to_record()
    assert report.points > 0
    _pass(7, f"{identity} holds with zero counterexamples ({report.points} points)")


def test_criterion_08_product_laws():
    for p in (2, 3):
        for x in RATIONAL_GRID:
            for y in RATIONAL_GRID:
                report = check_product_laws(p, x, y, 25)
                assert report.holds, report.to_record()
    _pass(8, "product laws and hypergeometric restatements exact to order 25, p in {2,3}")


def test_criterion_09_series_core_properties():
    rng = random.Random(2024)
    n = 40
    for trial in range(5):
        phi = FPS(
            [Fraction(rng.randint(1, 6), rng.randint(1, 6))]
            + [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n - 1)]
        )
        w = lagrange_solve(phi, n)
        for k in range(1, 6):
            assert lagrange_coeffs(phi, k, n) == w**k, (trial, k)
        g = FPS.t(n) / phi
        assert g.compose(g.revert()) == FPS.t(n)
        assert g.revert().compose(g) == FPS.t(n)
        f = FPS([1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(19)])
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert f.pow_rational(a) * f.pow_rational(b) == f.pow_rational(a + b)
    _pass(9, "Lagrange formula vs Newton solve (5 random phi, k <= 5, N = 40), round trips, power additivity")


def test_criterion_10_cli_one_shot(capsys):
    code = main(["check", "--all", "--max-n", "50", "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 18
    assert all(r["verdict"] == "holds" for r in records)
    for line, rec in zip(lines, records):
        assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line
    _pass(10, "check --all --max-n 50 --format jsonl: exit 0, 18 records, byte-exact round trip")
