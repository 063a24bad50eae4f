"""The benchmark workloads: seeded inputs, the timed batch, exact output checks.

Each workload is two functions.  ``make_<name>(seed, size)`` returns
``(inputs, expected)`` as plain data (ints, Fractions, bytes), built
without touching ``riordan`` so that generating inputs is never timed.
``run_<name>(inputs, expected, clock)`` runs the batch once, timed by
``clock`` (a ``hostspeed`` stopwatch or probe), and returns an
:class:`Outcome`.  The batch reaches ``riordan`` only through module
attributes (``series.lagrange_solve``, ``arrays.pascal``, ``cli.main``)
and methods, so the tracer in ``layertrace.py`` sees every call it wraps.

An operation fails on a wrong value, an exception or an output-byte
mismatch; a failed operation contributes no work.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from hostspeed import Stopwatch

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# workload -> size -> parameters; "tiny" is for the self-tests only
SIZES = {
    "check-all": {
        "full": {"max_n": 50},
        "tiny": {"max_n": 4},
    },
    "series-rational": {
        # criterion 9's shape at n = 32.  One trial's cost varies by about 25%
        # with its random phi, so a batch averages 12 trials
        "full": {"trials": 12, "n": 32, "k_max": 5, "f_terms": 20},
        "tiny": {"trials": 1, "n": 8, "k_max": 2, "f_terms": 4},
    },
    "triangle-integer": {
        # gf_n = 100 is criterion 2's size: both extractions of pascal(202).
        # One (d, A) pair's cost varies by about 25% with its seed, so there are 6
        "full": {"gf_n": 100, "sub_terms": 10, "pairs": 6, "rows": 60},
        "tiny": {"gf_n": 8, "sub_terms": 3, "pairs": 1, "rows": 6},
    },
}


@dataclass
class Outcome:
    attempted: int
    failed: int
    work: int  # units of work in operations that passed
    wall_s: float  # first call into riordan to last result
    norm_s: float  # wall_s at the reference host speed (hostspeed.py)


class _Tally:
    """Counts operations; an exception fails the operations it skipped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0

    def record(self, ok: bool, work: int) -> None:
        self.attempted += 1
        if ok:
            self.work += work
        else:
            self.failed += 1

    def abort(self, remaining: int) -> None:
        self.attempted += remaining
        self.failed += remaining

    def outcome(self, clock: Stopwatch) -> Outcome:
        return Outcome(self.attempted, self.failed, self.work, clock.wall_s, clock.norm_s)


# -- check-all -----------------------------------------------------------------


def make_check_all(seed: int, size: str = "full"):
    """Fixed input: the seed is ignored.  Expected bytes come from the seed commit."""
    max_n = SIZES["check-all"][size]["max_n"]
    argv = ["check", "--all", "--max-n", str(max_n), "--format", "jsonl"]
    expected = (EXPECTED_DIR / f"check_all_n{max_n}.jsonl").read_bytes()
    return argv, expected


def run_check_all(argv, expected: bytes, clock: Stopwatch | None = None) -> Outcome:
    """One ``riordan.cli.main`` call; one operation per expected jsonl record.

    Work unit: identity points, the sum of ``points`` over passing records.
    """
    import riordan.cli as cli

    clock = clock or Stopwatch()
    buf = io.StringIO()
    try:
        with clock, redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception:  # a crash fails every record; the benchmark keeps going
        code = None
    want = expected.splitlines(keepends=True)
    got = buf.getvalue().encode("utf-8").splitlines(keepends=True)
    tally = _Tally()
    for i in range(max(len(want), len(got))):
        ok = code == 0 and i < len(want) and i < len(got) and got[i] == want[i]
        tally.record(ok, json.loads(got[i])["points"] if ok else 0)
    return tally.outcome(clock)


# -- series-rational -----------------------------------------------------------


def _rand_fraction(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def make_series_rational(seed: int, size: str = "full"):
    """Random rational phi (criterion 9's coefficient ranges) plus a power test."""
    cfg = SIZES["series-rational"][size]
    rng = random.Random(f"series-rational:{seed}")
    n = cfg["n"]
    trials = []
    for _ in range(cfg["trials"]):
        phi = [Fraction(rng.randint(1, 6), rng.randint(1, 6))]
        phi += [_rand_fraction(rng, -6, 6, 6) for _ in range(n - 1)]
        f = [Fraction(1)] + [_rand_fraction(rng, -5, 5, 5) for _ in range(cfg["f_terms"] - 1)]
        a, b = _rand_fraction(rng, -4, 4, 4), _rand_fraction(rng, -4, 4, 4)
        trials.append({"phi": phi, "f": f, "a": a, "b": b})
    inputs = {"n": n, "k_max": cfg["k_max"], "trials": trials}
    # both reversion round trips must give back t exactly
    expected = {"round_trip": [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)}
    return inputs, expected


def run_series_rational(inputs, expected, clock: Stopwatch | None = None) -> Outcome:
    """Per trial: ``lagrange_solve`` vs ``lagrange_coeffs`` for k <= k_max, both
    ``revert``/``compose`` round trips, and ``pow_rational`` additivity.

    Work unit: output coefficients verified.
    """
    import riordan.series as series

    FPS = series.FormalPowerSeries
    n, k_max = inputs["n"], inputs["k_max"]
    round_trip = list(expected["round_trip"])
    ops_per_trial = k_max + 3
    tally = _Tally()
    clock = clock or Stopwatch()
    with clock:
        for trial in inputs["trials"]:
            before = tally.attempted
            try:
                phi = FPS(trial["phi"])
                w = series.lagrange_solve(phi, n)
                for k in range(1, k_max + 1):
                    tally.record(series.lagrange_coeffs(phi, k, n) == w**k, n)
                g = FPS.t(n) / phi
                inverse = g.revert()
                tally.record(list(g.compose(inverse).coeffs) == round_trip, n)
                tally.record(list(inverse.compose(g).coeffs) == round_trip, n)
                f, a, b = FPS(trial["f"]), trial["a"], trial["b"]
                tally.record(
                    f.pow_rational(a) * f.pow_rational(b) == f.pow_rational(a + b),
                    f.precision)
            except Exception:
                tally.abort(ops_per_trial - (tally.attempted - before))
    return tally.outcome(clock)


# -- triangle-integer ----------------------------------------------------------


def _fibonacci(count: int) -> list[int]:
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def _poly_pow(coeffs: list[int], p: int, terms: int) -> list[int]:
    out = [1] + [0] * (terms - 1)
    for _ in range(p):
        out = [
            sum(out[i] * coeffs[j - i] for i in range(j + 1) if j - i < len(coeffs))
            for j in range(terms)
        ]
    return out


def _triangle_from_dA(d: list[int], a: list[int], rows: int) -> list[list[int]]:
    # the A-sequence recurrence d[n+1][k+1] = sum_i a_i d[n][k+i], column 0 = d
    tri = [[d[0]]]
    for n in range(rows - 1):
        prev = tri[-1]
        row = [d[n + 1] if n + 1 < len(d) else 0]
        for k in range(n + 1):
            row.append(sum(a[i] * prev[k + i] for i in range(min(len(a), n - k + 1))))
        tri.append(row)
    return tri


# stock bases with their A-sequence; A^p is the extracted array's A-sequence
_SUB_BASES = (("pascal", [1, 1]), ("catalan_triangle", [1, 2, 1]), ("ballot_triangle", None))
_SUB_PR = tuple((p, r) for p in (2, 3, 4) for r in (0, 1, 2))


def make_triangle_integer(seed: int, size: str = "full"):
    """Fixed n = 100 reproduction and sub-array grid, plus seeded (d, A) pairs."""
    cfg = SIZES["triangle-integer"][size]
    rng = random.Random(f"triangle-integer:{seed}")
    rows = cfg["rows"]
    pairs = []
    for _ in range(cfg["pairs"]):
        # A(0) = 1 keeps t/A, h and every column integral; nonzero tails of a
        # fixed length keep the coefficient growth, and so the cost, alike
        d = [rng.choice((1, 2))] + [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]
        a = [1] + [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
        pairs.append({"d": d, "A": a})
    gf_n, terms = cfg["gf_n"], cfg["sub_terms"]
    fib = _fibonacci(2 * gf_n + 1)
    expected = {
        "even_d": [comb(2 * m, m) for m in range(gf_n)],
        "odd_d": [comb(2 * m + 1, m + 1) for m in range(gf_n)],
        "even_fib": fib[0::2][:gf_n],
        "odd_fib": fib[1::2][:gf_n],
        "sub_a": {
            (name, p): _poly_pow(a if a else [1] * terms, p, terms)
            for name, a in _SUB_BASES
            for p in (2, 3, 4)
        },
        "pairs": [
            {
                "rows": _triangle_from_dA(pr["d"], pr["A"], rows),
                "A": (pr["A"] + [0] * rows)[: rows - 1],
            }
            for pr in pairs
        ],
    }
    inputs = {"gf_n": gf_n, "sub_terms": terms, "rows": rows, "pairs": pairs}
    return inputs, expected


def _gf_reproduction(arrays, FPS, gf_n, expected, tally) -> None:
    # criterion 2 / fibonacci-riordan: d(t) f(t h(t)) over both row extractions
    base = arrays.pascal(2 * gf_n + 2)
    fib_den = FPS([1, -3, 1], precision=gf_n)
    period = FPS([1, 0, 0, 0, 0, -1], precision=gf_n)
    for label, r, signs, numer in (
        ("even", 0, [0, 1, -1, -1, 1], [0, 1]),
        ("odd", 1, [1, -1, 0, -1, 1], [1, -1]),
    ):
        sub = base.extract_subarray(2, r)
        # the extraction reads two entries for each of its (2 gf_n + 1 - r) // 2 + 1 rows
        entries = 2 * ((2 * gf_n + 1 - r) // 2 + 1)
        tally.record(list(sub.d.coeffs[:gf_n]) == expected[f"{label}_d"], entries)
        weight = FPS(signs, precision=gf_n) / period
        composed = sub.d * weight.compose(sub.h.shift_up())
        target = FPS(numer, precision=gf_n) / fib_den
        want = expected[f"{label}_fib"]
        tally.record(list(composed.coeffs) == want and list(target.coeffs) == want, gf_n)


def _subarray_grid(arrays, terms, expected, tally) -> None:
    # criterion 3: the extracted grid's A-sequence is A^p, over 3 bases x 9 (p, r)
    nrows = terms + 1
    for name, _ in _SUB_BASES:
        base = getattr(arrays, name)(4 * nrows + 3)
        for p, r in _SUB_PR:
            tri = arrays.subarray_triangle(base, p, r, nrows)
            recovered = arrays.a_sequence(tri, terms=terms)
            tally.record(list(recovered.coeffs) == expected["sub_a"][(name, p)],
                         nrows * (nrows + 1) // 2)


def _seeded_pairs(arrays, FPS, rows, pairs, expected, tally) -> None:
    for pair, want in zip(pairs, expected):
        d = FPS(pair["d"], precision=rows)
        a = FPS(pair["A"], precision=rows)
        tri = arrays.RiordanArray.from_dA(d, a).materialize(rows)
        tally.record([list(row) for row in tri.rows] == want["rows"],
                     rows * (rows + 1) // 2)
        tally.record(list(arrays.a_sequence(tri).coeffs) == want["A"], rows - 1)


def run_triangle_integer(inputs, expected, clock: Stopwatch | None = None) -> Outcome:
    """Integer-coefficient arrays: the n = 100 reproduction, the sub-array
    A^p grid, and seeded (d, A) pairs through ``from_dA``/``materialize``/
    ``a_sequence``.

    Work unit: triangle entries produced (plus the n coefficients of each
    generating-function check and the recovered A-sequence terms).
    """
    import riordan.arrays as arrays
    import riordan.series as series

    FPS = series.FormalPowerSeries
    tally = _Tally()
    clock = clock or Stopwatch()
    parts = (
        (4, lambda: _gf_reproduction(arrays, FPS, inputs["gf_n"], expected, tally)),
        (len(_SUB_BASES) * len(_SUB_PR),
         lambda: _subarray_grid(arrays, inputs["sub_terms"], expected, tally)),
        (2 * len(inputs["pairs"]),
         lambda: _seeded_pairs(arrays, FPS, inputs["rows"], inputs["pairs"],
                               expected["pairs"], tally)),
    )
    with clock:
        for ops, part in parts:
            before = tally.attempted
            try:
                part()
            except Exception:
                tally.abort(ops - (tally.attempted - before))
    return tally.outcome(clock)


WORKLOADS = {
    "check-all": (make_check_all, run_check_all),
    "series-rational": (make_series_rational, run_series_rational),
    "triangle-integer": (make_triangle_integer, run_triangle_integer),
}
