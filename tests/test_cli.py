"""CLI behaviour: rendering, exit codes, jsonl round trips."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from riordan import cli, identities
from riordan.arrays import a_sequence, ballot_triangle, catalan_triangle, pascal
from riordan.cli import main
from riordan.hypergeom import HypergeometricSpec, _terms, expand, h_for_binomial_A
from riordan.reports import Counterexample, IdentityReport
from riordan.series import FormalPowerSeries


EXPECTED = Path(__file__).parent.parent / "bench" / "expected"
SRC = Path(__file__).parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return out.splitlines()


# -- triangle -----------------------------------------------------------


def test_triangle_pascal_small(capsys):
    code, out, _ = run(capsys, "triangle", "pascal", "--rows", "3")
    assert code == 0
    assert out == "1\n1 1\n1 2 1\n"


def test_triangle_catalan42(capsys):
    code, out, _ = run(capsys, "triangle", "catalan42", "--rows", "5")
    assert code == 0
    assert [l.split() for l in lines(out)] == [
        ["1"],
        ["2", "1"],
        ["5", "4", "1"],
        ["14", "14", "6", "1"],
        ["42", "48", "27", "8", "1"],
    ]


def test_triangle_ballot43(capsys):
    code, out, _ = run(capsys, "triangle", "ballot43", "--rows", "4")
    assert code == 0
    assert [l.split() for l in lines(out)] == [
        ["1"],
        ["1", "1"],
        ["2", "2", "1"],
        ["5", "5", "3", "1"],
    ]


def test_triangle_text_alignment(capsys):
    _, out, _ = run(capsys, "triangle", "pascal", "--rows", "5")
    assert lines(out)[4] == "1 4 6 4 1"
    assert lines(out)[0] == "1"


EMITTED = {
    # text right-aligns each column to its widest cell
    "text": ["  1\n", "1/2    3\n", " 10 -2/3 1\n"],
    "csv": ["1\n", "1/2,3\n", "10,-2/3,1\n"],
    "jsonl": [
        '{"entries":["1"],"row":0}\n',
        '{"entries":["1/2","3"],"row":1}\n',
        '{"entries":["10","-2/3","1"],"row":2}\n',
    ],
}


@pytest.mark.parametrize("fmt", EMITTED)
def test_emit_triangle_writes_one_row_per_write(fmt):
    # rows as the row generator yields them, integers over the row's own denominator
    events = []

    def rows():
        for n, row in enumerate([([1], 1), ([1, 6], 2), ([30, -2, 3], 3)]):
            events.append(("pull", n))
            yield row

    cli._emit_triangle(rows(), fmt, SimpleNamespace(write=events.append))
    writes = [e for e in events if isinstance(e, str)]
    assert writes == EMITTED[fmt]
    pulls = [("pull", n) for n in range(3)]
    if fmt == "text":
        # the column widths need every row, so the first write follows the last pull
        assert events == pulls + writes
    else:
        # row n goes out before row n + 1 is pulled
        assert events == [e for pair in zip(pulls, writes) for e in pair]


def dA_args(name=None, d=None, A=None):
    return SimpleNamespace(name=name, d=d, A=A)


@pytest.mark.parametrize("args", [
    dA_args("pascal"), dA_args("catalan42"), dA_args("ballot43"),
    dA_args(d="1/2,1,-3/4,2", A="2/3,1,1/5"),
], ids=["pascal", "catalan42", "ballot43", "dA"])
def test_every_built_array_and_its_extraction_keep_A(args):
    # the CLI streams the rows of the row generator, which reads the kept A
    array = cli._build_array(args, 13)
    assert array.A is not None
    for p, r in [(2, 0), (3, 1)]:
        sub = array.extract_subarray(p, r)
        assert sub.A is not None
        # and the entry strings are those of the materialized triangle's fractions
        streamed = [cli._entry_texts(*row) for row in sub._rows(sub.precision)]
        assert streamed == [list(map(str, row)) for row in sub.materialize(sub.precision).rows]


@pytest.mark.parametrize("factory", [pascal, catalan_triangle, ballot_triangle])
def test_streamed_rows_are_refused_as_materialize_refuses_them(factory):
    array = factory(6)
    for nrows in (0, 7):
        with pytest.raises(ValueError) as streamed:
            array._rows(nrows)
        with pytest.raises(ValueError) as materialized:
            array.materialize(nrows)
        assert (type(streamed.value), str(streamed.value)) == (
            type(materialized.value), str(materialized.value))
    assert len(list(array._rows(6))) == 6


@pytest.mark.parametrize("args", [
    dA_args("pascal"), dA_args("catalan42"), dA_args("ballot43"),
    dA_args(d="1/2,1,-3/4,2", A="2/3,1,1/5"),
    dA_args(d="1,-1/3", A=",".join(f"{(-1) ** i}/{i + 1}" for i in range(25))),
], ids=["pascal", "catalan42", "ballot43", "rational", "dense"])
def test_the_A_the_cli_prints_is_the_A_its_rows_recover(args):
    # aseq and extract --aseq print the A an array keeps; a proper array is
    # fixed by d and A, so the rows built from A must recover it, on a base
    # and on each extraction (a dense A extracts by the diagonal route)
    array = cli._build_array(args, 25)
    for each in [array, *(array.extract_subarray(p, r) for p in (2, 3, 4) for r in (0, 1, 2))]:
        n = each.precision
        assert each.A.truncate(n - 1) == a_sequence(each.materialize(n))


def test_triangle_past_the_array_precision_exits_2(capsys, monkeypatch):
    # a builtin one row short of the rows asked for is refused, not cut short
    monkeypatch.setitem(cli._BUILTINS, "pascal", lambda precision: pascal(precision - 1))
    for fmt in EMITTED:
        code, out, err = run(capsys, "triangle", "pascal", "--rows", "5", "--format", fmt)
        assert (code, out, err) == (2, "", "riordan: asked for 5 rows but precision is 4\n")


def test_triangle_explicit_dA(capsys):
    code, out, _ = run(
        capsys, "triangle", "--d", "1,1,1,1,1", "--A", "1,1", "--rows", "4"
    )
    assert code == 0
    assert [l.split() for l in lines(out)] == [
        ["1"],
        ["1", "1"],
        ["1", "2", "1"],
        ["1", "3", "3", "1"],
    ]


def test_triangle_unknown_builtin(capsys):
    code, _, err = run(capsys, "triangle", "nosuch", "--rows", "3")
    assert code == 2
    assert "unknown triangle" in err


def test_triangle_name_and_explicit_conflict(capsys):
    code, _, err = run(capsys, "triangle", "pascal", "--d", "1", "--A", "1")
    assert code == 2


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "pascal", "--rows", "3", "--format", "csv")
    assert code == 0
    assert out == "1\n1,1\n1,2,1\n"


def test_triangle_jsonl_round_trip(capsys):
    code, out, _ = run(
        capsys, "triangle", "catalan42", "--rows", "6", "--format", "jsonl"
    )
    assert code == 0
    for line in lines(out):
        rec = json.loads(line)
        assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line


# -- extract -------------------------------------------------------------


def test_extract_pascal_even(capsys):
    code, out, _ = run(capsys, "extract", "pascal", "--p", "2", "--r", "0", "--rows", "4")
    assert code == 0
    assert [l.split() for l in lines(out)] == [
        ["1"],
        ["2", "1"],
        ["6", "4", "1"],
        ["20", "15", "6", "1"],
    ]


def test_extract_pascal_p3_r1(capsys):
    code, out, _ = run(capsys, "extract", "pascal", "--p", "3", "--r", "1", "--rows", "2")
    assert code == 0
    assert [l.split() for l in lines(out)] == [["1"], ["4", "1"]]


def test_extract_with_aseq_claim(capsys):
    code, out, _ = run(
        capsys,
        "extract",
        "pascal",
        "--p",
        "2",
        "--r",
        "0",
        "--rows",
        "4",
        "--aseq",
        "--terms",
        "4",
    )
    assert code == 0
    assert "A = 1 2 1 0" in out
    assert "claim A_new = A^2: ok" in out


def test_extract_aseq_catalan_base(capsys):
    code, out, _ = run(
        capsys, "extract", "catalan42", "--p", "2", "--aseq", "--terms", "5",
        "--rows", "3",
    )
    assert code == 0
    # A^2 for A = (1+t)^2 is (1+t)^4
    assert "A = 1 4 6 4 1" in out


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_extract_aseq_claim_is_judged_on_the_extracted_h(capsys, monkeypatch, fmt):
    # The sub-array's rows run on A^p, so the A recovered from them is A^p
    # whatever the extraction read.  The claim must fail when the h read
    # from the base rows does not solve h = (A^p)(t h), although the rows,
    # and the printed A, stay right.
    extract = cli.RiordanArray.extract_subarray

    def wrong_h(self, p, r):
        sub = extract(self, p, r)
        bump = FormalPowerSeries([0, 0, 1], precision=sub.h.precision)
        return cli.RiordanArray(sub.d, sub.h + bump)._with_A(sub._P, sub._j)

    monkeypatch.setattr(cli.RiordanArray, "extract_subarray", wrong_h)
    code, out, _ = run(capsys, "extract", "pascal", "--p", "2", "--rows", "4",
                       "--aseq", "--format", fmt)
    assert code == 1
    if fmt == "jsonl":
        assert lines(out)[-2:] == ['{"aseq":["1","2","1"]}', '{"claim":"a-power","holds":false}']
    else:
        assert lines(out)[-2:] == ["A = 1 2 1", "claim A_new = A^2: FAILED"]


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_extract_aseq_claim_fails_on_rows_from_a_wrong_power(capsys, monkeypatch, fmt):
    # An extraction that reads the right h but keeps A^(p+1): its rows, and
    # the A printed from them, are wrong, and the claim must say so.
    extract = cli.RiordanArray.extract_subarray

    def wrong_power(self, p, r):
        sub = extract(self, p, r)
        return cli.RiordanArray(sub.d, sub.h)._with_A(sub._P * self.A.truncate(sub.precision))

    monkeypatch.setattr(cli.RiordanArray, "extract_subarray", wrong_power)
    code, out, _ = run(capsys, "extract", "pascal", "--p", "2", "--rows", "4",
                       "--aseq", "--format", fmt)
    assert code == 1
    if fmt == "jsonl":
        assert lines(out)[-2:] == ['{"aseq":["1","3","3"]}', '{"claim":"a-power","holds":false}']
    else:
        assert lines(out)[-2:] == ["A = 1 3 3", "claim A_new = A^2: FAILED"]


def test_extract_requires_valid_p(capsys):
    code, _, err = run(capsys, "extract", "pascal", "--p", "1", "--rows", "3")
    assert code == 2


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_extract_aseq_refuses_terms_below_one(capsys, terms):
    code, out, err = run(
        capsys, "extract", "pascal", "--p", "2", "--aseq", "--rows", "2", "--terms", terms
    )
    assert (code, out, err) == (2, "", "riordan: --terms must be >= 1\n")


@pytest.mark.parametrize("spec", [("pascal",), ("--d", "1,2", "--A", "1,1")], ids=["name", "dA"])
@pytest.mark.parametrize("terms", ["0", "3"])
def test_extract_refuses_terms_without_aseq_before_any_compute(capsys, monkeypatch, spec, terms):
    # --terms counts A-sequence terms: without --aseq it would be ignored
    def fail(*args, **kwargs):
        raise AssertionError("built an array before the options were checked")

    for name in cli._BUILTINS:
        monkeypatch.setitem(cli._BUILTINS, name, fail)
    monkeypatch.setattr(cli.RiordanArray, "from_dA", fail)
    code, out, err = run(capsys, "extract", *spec, "--p", "2", "--terms", terms)
    assert (code, out, err) == (2, "", "riordan: --terms is read only with --aseq\n")


# -- aseq ------------------------------------------------------------------


def test_aseq_pascal(capsys):
    code, out, _ = run(capsys, "aseq", "pascal", "--terms", "6")
    assert code == 0
    assert out == "A = 1 1 0 0 0 0\n"


def test_aseq_ballot(capsys):
    code, out, _ = run(capsys, "aseq", "ballot43", "--terms", "5")
    assert code == 0
    assert out == "A = 1 1 1 1 1\n"


def test_aseq_reads_no_row_and_extract_walks_the_sub_array_once(capsys, monkeypatch):
    stream, extract = cli.RiordanArray._row_stream, cli.RiordanArray.extract_subarray

    def fail(self):
        raise AssertionError("aseq walked the array's rows")

    monkeypatch.setattr(cli.RiordanArray, "_row_stream", fail)
    assert run(capsys, "aseq", "ballot43", "--terms", "5") == (0, "A = 1 1 1 1 1\n", "")
    # extract --aseq walks the sub-array's rows for the printed triangle alone
    walks, subs = [], []
    monkeypatch.setattr(cli.RiordanArray, "_row_stream",
                        lambda self: walks.append(self) or stream(self))
    monkeypatch.setattr(cli.RiordanArray, "extract_subarray",
                        lambda self, p, r: subs.append(extract(self, p, r)) or subs[-1])
    code, out, _ = run(capsys, "extract", "ballot43", "--p", "3", "--rows", "4",
                       "--aseq", "--terms", "6")
    assert code == 0
    assert lines(out)[-2:] == ["A = 1 3 6 10 15 21", "claim A_new = A^3: ok"]
    assert [walk for walk in walks if walk is subs[0]] == subs


def test_aseq_improper_triangle(capsys):
    # d, A with A(0) = 0 is rejected before any recovery runs
    code, _, err = run(capsys, "aseq", "--d", "1,1", "--A", "0,1", "--terms", "3")
    assert code == 2


# Run from a small parent: a child's ru_maxrss can count pages of the
# process it was forked from, so the test runner must not fork it.
_PEAK_KIB = (
    "import os, subprocess, sys\n"
    "for argv in (['-c', 'import riordan.cli'], ['-m', 'riordan', *sys.argv[1:]]):\n"
    "    with open(os.devnull, 'w') as out:\n"
    "        child = subprocess.Popen([sys.executable, *argv], stdout=out)\n"
    "        _, status, usage = os.wait4(child.pid, 0)\n"
    "    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_aseq_holds_no_triangle():
    # aseq prints the A the array keeps and walks no row, so 800 terms peak
    # within 4 MiB of the import, where a materialized triangle took some
    # 40 MiB more
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_KIB, "aseq", "ballot43", "--terms", "800"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    (imported_code, imported), (code, peak) = (map(int, line.split())
                                               for line in done.stdout.splitlines())
    assert (imported_code, code) == (0, 0)
    assert peak - imported <= 4 * 1024  # KiB


ARRAYS_CLI = [
    json.loads(line) for line in (FIXTURES / "arrays_cli.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", ARRAYS_CLI, ids=lambda case: " ".join(case["argv"]))
def test_arrays_cli_matches_golden(capsys, case):
    # stdout, stderr and exit code of triangle/extract/aseq, byte for byte
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


# -- check -------------------------------------------------------------------


CHECK_CLI = [
    json.loads(line) for line in (FIXTURES / "check_cli.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", CHECK_CLI, ids=lambda case: " ".join(case["argv"]))
def test_check_cli_matches_golden(capsys, case):
    # stdout, stderr and exit code of check; runs at the stated ballot forms' former poles
    # and central-factor pins among them
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


# pins at the bounds of the stepped factor columns: z and p from below 1 up, negative
# rational arguments, and a former pole; and an s pin above the k pin; replayed byte for byte
CHECK_PINS = [
    json.loads(line) for line in (FIXTURES / "check_pins.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", CHECK_PINS, ids=lambda case: " ".join(case["argv"]))
def test_check_pins_match_golden(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_check_andrews_holds(capsys):
    code, out, _ = run(capsys, "check", "andrews-a1", "--max-n", "100")
    assert code == 0
    assert "andrews-a1: holds" in out


def test_check_rothe_hagen_pinned(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "rothe-hagen",
        "--n-max",
        "15",
        "--x",
        "2",
        "--y",
        "3",
        "--z",
        "4",
    )
    assert code == 0
    assert "rothe-hagen: holds" in out


def test_check_unknown_id(capsys):
    code, _, err = run(capsys, "check", "no-such-id")
    assert code == 2
    assert "unknown identity" in err


def test_check_list(capsys):
    code, out, _ = run(capsys, "check", "--list")
    assert code == 0
    assert "andrews-a1" in out
    assert "rothe-hagen" in out
    assert "product-laws" in out


def test_check_list_jsonl(capsys):
    code, out, _ = run(capsys, "check", "--list", "--format", "jsonl")
    assert code == 0
    ids = [json.loads(l)["id"] for l in lines(out)]
    assert len(ids) == 18


def test_check_all_small_grid_jsonl(capsys):
    code, out, _ = run(
        capsys, "check", "--all", "--max-n", "6", "--format", "jsonl"
    )
    assert code == 0
    recs = [json.loads(l) for l in lines(out)]
    assert len(recs) == 18
    assert all(r["verdict"] == "holds" for r in recs)
    for line, rec in zip(lines(out), recs):
        assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line


def test_check_all_matches_golden_jsonl(capsys):
    code, out, _ = run(capsys, "check", "--all", "--max-n", "50", "--format", "jsonl")
    assert code == 0
    assert out.encode() == (EXPECTED / "check_all_n50.jsonl").read_bytes()


def test_check_all_at_max_n_4_matches_golden_jsonl(capsys):
    code, out, _ = run(capsys, "check", "--all", "--max-n", "4", "--format", "jsonl")
    assert code == 0
    assert out.encode() == (EXPECTED / "check_all_n4.jsonl").read_bytes()


def test_check_all_at_max_n_100_keeps_its_bytes(capsys):
    # too large for a fixture file: the sha256 of the output pins its bytes
    code, out, _ = run(capsys, "check", "--all", "--max-n", "100", "--format", "jsonl")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "723e8d7b3ea14387b4bd27ecaa71f64cad0cab9af4afa093887ea9535daa416c"
    )


# outputs too large for fixture files: the sha256 of each pins its bytes
LARGER_OUTPUTS = {
    "triangle pascal --rows 300":
        "8e35abd1903a43e535d4f65b364ac5f0221626db157a3e8b0dde29d002c78e42",
    "triangle ballot43 --rows 80 --format csv":
        "753106efa416298fbaddf38dfdd2a2844751830f0ef61ca860f3e3974d925f93",
    "triangle --d 1/2,1,-3/4,2 --A 2/3,1,1/5 --rows 25 --format jsonl":
        "7c8a78e43bf95ea67e5ab4bc7f899f945bc24a7296ae95d228baec5884e86305",
    "extract catalan42 --p 3 --r 1 --rows 12 --aseq --format jsonl":
        "7db9ef8c8dfa54fb799008e5d9a749a20d06a14dca87cd1878d34e5378f971a3",
    "aseq ballot43 --terms 9 --format jsonl":
        "66c04cf29ce9499010ea9e1ce8e9e21e379dfc32f811fff9164154b483d0b821",
    "hyper --upper 1/2,1/3,5/7 --lower 2/7,3/11 --scale 3/5 --terms 200 --format csv":
        "59d39fedb6c4769ecc7c4010c7f826211a71634e7deddfcd5a4801aeac7a5d33",
    "hyper --upper 1/2,1/3,5/7 --lower 2/7,3/11 --scale 3/5 --terms 2000 --format csv":
        "d1a0ecb1fee13b70edf80cb16d20cedc295b3cfebf2c011a6f372aa0ddbf7054",
    "hyper --upper 1/2,1/3,5/7 --lower 2/7,3/11 --scale 3/5 --terms 2000 --format jsonl":
        "9fc63818c4732f438a81205f09c870317f4747cb32f0de658390b2d61a198b3f",
    "check product-laws --max-n 30 --format jsonl":
        "017b828f3a9d65764fc4c4ce10b72d8c61fa7a97219b8084099f8f4a7fef9347",
    "check fibonacci-riordan --max-n 60":
        "3ecb5a8e05ec74df987e22f87601c69fcf1efc17a26a29fc08049835493088f0",
}


@pytest.mark.parametrize("command", LARGER_OUTPUTS)
def test_larger_outputs_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGER_OUTPUTS[command]


def stub_entry(monkeypatch, identity, outcome):
    """Make ``identity``'s registry run raise ``outcome``, or return it if it is a report."""
    entry = identities.REGISTRY[identity]

    def run_entry(max_n, pinned):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setitem(identities.REGISTRY, identity, entry._replace(run=run_entry))


def route_failure(identity):
    # the shape of a report whose two routes disagree, on a stub grid
    return IdentityReport(identity, "stub grid", 3, Counterexample(
        {"routes": "direct/substitution", "n": "2"}, lhs="1", rhs="2"))


@pytest.mark.parametrize(
    "failures, code",
    [
        ({"rothe-hagen": ValueError("boom")}, 2),
        ({"rothe-hagen": ZeroDivisionError("pole")}, 2),
        ({"rothe-hagen": route_failure("rothe-hagen")}, 1),
        # an error beats a counterexample, whichever comes first
        ({"andrews-a1": route_failure("andrews-a1"),
          "product-laws": ValueError("boom")}, 2),
        ({"andrews-a1": ValueError("boom"),
          "product-laws": route_failure("product-laws")}, 2),
    ],
)
def test_check_all_goes_on_past_an_identity_that_raises(capsys, monkeypatch, failures, code):
    for identity, outcome in failures.items():
        stub_entry(monkeypatch, identity, outcome)
    got, out, err = run(capsys, "check", "--all", "--max-n", "4", "--format", "jsonl")
    assert got == code
    golden = map(json.loads, lines((EXPECTED / "check_all_n4.jsonl").read_text()))
    assert [json.loads(line) for line in lines(out)] == [
        failures[rec["id"]].to_record() if rec["id"] in failures else rec
        for rec in golden
        if not isinstance(failures.get(rec["id"]), Exception)
    ]
    assert lines(err) == [
        f"riordan: {identity}: {outcome}"
        for identity, outcome in failures.items() if isinstance(outcome, Exception)
    ]


def test_check_all_counterexample_then_raise_exits_2(capsys, monkeypatch):
    # a counterexample record (1) from fibonacci-riordan, then an identity that raises (2)
    wrong = dict(identities._EXTRACTED_D, odd=lambda m: comb(2 * m + 1, m + 1) + (m == 3))
    monkeypatch.setattr(identities, "_EXTRACTED_D", wrong)
    stub_entry(monkeypatch, "hypergeometric-power-law", ValueError("boom"))
    code, out, err = run(capsys, "check", "--all", "--max-n", "4", "--format", "jsonl")
    assert code == 2
    verdicts = {rec["id"]: rec["verdict"] for rec in map(json.loads, lines(out))}
    assert len(verdicts) == 17
    assert verdicts.pop("fibonacci-riordan") == "counterexample"
    assert set(verdicts.values()) == {"holds"}
    assert err == "riordan: hypergeometric-power-law: boom\n"


def test_check_all_reports_each_empty_grid_and_goes_on(capsys):
    code, out, err = run(capsys, "check", "--all", "--max-n", "0")
    assert code == 2
    assert lines(err)[0] == (
        "riordan: andrews-a1: no points checked (1 <= n <= 0); an empty grid is not a pass"
    )
    empty = [line.split(": ")[1] for line in lines(err)]
    assert all(line.endswith("; an empty grid is not a pass") for line in lines(err))
    held = [line.split(": ")[0] for line in lines(out)]
    assert all(": holds (" in line for line in lines(out))
    assert sorted(empty + held) == sorted(identities.REGISTRY)
    assert "andrews-a3" in held and "subarray-convolution" in empty


def test_check_all_on_a_negative_bound_reports_every_grid_empty(capsys):
    code, out, err = run(capsys, "check", "--all", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert [line.split(": ")[1] for line in lines(err)] == list(identities.REGISTRY)
    for line in lines(err):
        assert re.fullmatch(
            r"riordan: [a-z0-9-]+: no points checked \(.+\); an empty grid is not a pass", line
        )


@pytest.mark.parametrize("max_n", ["-1", "-3"])
def test_fibonacci_riordan_builds_nothing_for_an_empty_grid(capsys, monkeypatch, max_n):
    def fail(*args, **kwargs):
        raise AssertionError("built an array for an empty grid")

    monkeypatch.setattr(identities, "pascal", fail)
    code, out, err = run(capsys, "check", "fibonacci-riordan", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err == (
        f"riordan: fibonacci-riordan: no points checked (even and odd extractions, "
        f"n <= {max_n}); an empty grid is not a pass\n"
    )


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("jsonl", "jsonl")])
def test_check_list_matches_golden(capsys, fmt, suffix):
    code, out, _ = run(capsys, "check", "--list", "--format", fmt)
    assert code == 0
    assert out.encode() == (FIXTURES / f"check_list.{suffix}").read_bytes()


@pytest.mark.parametrize(
    "argv", [("check", "--list"), ("check", "andrews-a1", "--max-n", "4"), ("check", "--all")]
)
def test_check_refuses_csv_before_any_compute(capsys, monkeypatch, argv):
    # a report has no table shape: csv would print the text layout under another name
    def fail(*args, **kwargs):
        raise AssertionError("computed before --format was checked")

    monkeypatch.setattr(cli, "registry_entries", fail)
    monkeypatch.setattr(cli, "check_registry", fail)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err


def test_python_m_riordan_is_the_cli():
    # the package runs as a module, with the riordan entry point's output and exit codes
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def riordan(*argv):
        done = subprocess.run([sys.executable, "-m", "riordan", *argv], env=env,
                              capture_output=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert riordan("check", "--list") == (0, (FIXTURES / "check_list.txt").read_bytes(), b"")
    assert riordan("check", "--list", "--max-n", "5") == (
        2, b"", b"riordan: --list stands alone; drop --max-n\n")


@pytest.mark.parametrize("argv, dropped", [
    (("andrews-a1",), "identity 'andrews-a1'"),
    (("--all",), "--all"),
    (("--p", "3", "andrews-a1"), "identity 'andrews-a1', --p"),
    (("--x", "1/2", "--z", "0", "--all"), "--all, --x, --z"),
    (("--max-n", "5"), "--max-n"),
    (("--n-max", "20"), "--max-n"),
    (("--p", "3", "--max-n", "5", "andrews-a1"), "identity 'andrews-a1', --max-n, --p"),
])
def test_check_list_refuses_what_it_would_ignore_before_any_compute(
    capsys, monkeypatch, argv, dropped
):
    # --list prints the whole registry, so an id, --all or a pin would be ignored
    def fail(*args, **kwargs):
        raise AssertionError("computed before the options were checked")

    monkeypatch.setattr(cli, "registry_entries", fail)
    monkeypatch.setattr(cli, "check_registry", fail)
    code, out, err = run(capsys, "check", "--list", *argv)
    assert (code, out, err) == (2, "", f"riordan: --list stands alone; drop {dropped}\n")


@pytest.fixture
def no_compute(monkeypatch):
    """Make any compute in the identity layer fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("computed before the pin was checked")

    monkeypatch.setattr(identities, "andrews_sum", fail)
    monkeypatch.setattr(identities, "_grid_points", fail)


@pytest.mark.parametrize(
    "identity, slot, value, least",
    [
        pytest.param("subarray-convolution", "p", 0, 1, id="subarray-convolution"),
        pytest.param("catalan-triangle-convolution", "p", 0, 1,
                     id="catalan-triangle-convolution"),
        pytest.param("ballot-triangle-convolution", "p", 0, 1, id="ballot-triangle-convolution"),
        pytest.param("catalan-column-sum", "p", -1, 0, id="catalan-column-sum"),
        pytest.param("ballot-vandermonde", "p", -1, 0, id="ballot-vandermonde"),
        pytest.param("central-binomial-vandermonde", "p", -1, 0,
                     id="central-binomial-vandermonde"),
        pytest.param("product-laws", "p", 1, 2, id="product-laws-p1"),
        pytest.param("product-laws", "p", -1, 2, id="product-laws-p-1"),
        pytest.param("hypergeometric-power-law", "p", 1, 2, id="hypergeometric-power-law-p1"),
        pytest.param("subarray-convolution", "r", -1, 0, id="subarray-convolution-r-1"),
        pytest.param("catalan-triangle-convolution", "r", -1, 0,
                     id="catalan-triangle-convolution-r-1"),
        pytest.param("ballot-triangle-convolution", "r", -2, 0,
                     id="ballot-triangle-convolution-r-2"),
        pytest.param("catalan-column-sum", "r", -3, 0, id="catalan-column-sum-r-3"),
        pytest.param("subarray-convolution", "k", 0, 1, id="subarray-convolution-k0"),
        pytest.param("subarray-convolution", "k", -2, 1, id="subarray-convolution-k-2"),
        pytest.param("subarray-convolution", "s", 0, 1, id="subarray-convolution-s0"),
        pytest.param("catalan-triangle-convolution", "k", 0, 1,
                     id="catalan-triangle-convolution-k0"),
        pytest.param("ballot-triangle-convolution", "s", -1, 1,
                     id="ballot-triangle-convolution-s-1"),
        pytest.param("catalan-column-sum", "k", 0, 1, id="catalan-column-sum-k0"),
    ],
)
def test_check_out_of_domain_pin_names_the_pin(capsys, no_compute, identity, slot, value, least):
    code, out, err = run(capsys, "check", identity, f"--{slot}", str(value))
    assert code == 2
    assert out == ""
    assert err == f"riordan: identity {identity!r} needs {slot} >= {least}, got {slot}={value}\n"


def domain_bounds(row):
    """A valid point of the row, and each bound of its domain: (name, outside, at the bound).

    ``outside`` and ``at`` are the slots that replace the point's; the name
    ``s<=k`` is the one bound that ties two slots.
    """
    point = {slot: values[0] for slot, values in row.sets}
    point.update({"x": 1, "y": 1, "n": 3, "k": 2, "s": 1})
    slots = identities._slots(row)
    point = {slot: point[slot] for slot in slots}
    bounds = [(slot, {slot: least - 1}, {slot: least}) for slot, least in (
        ("p", row.p_min), ("r", row.r_min), ("n", 0), ("k", 1), ("s", 1))
        if least is not None and slot in slots]
    if "s" in slots:
        bounds.append(("s<=k", {"k": 2, "s": 3}, {"k": 2, "s": 2}))
    return point, bounds


DOMAIN_BOUNDS = [
    pytest.param(row, outside, at, id=f"{row.id}-{name}")
    for row in identities.SUM_IDENTITIES
    for name, outside, at in domain_bounds(row)[1]
]


@pytest.mark.parametrize("row, outside, at", DOMAIN_BOUNDS)
def test_every_domain_bound_is_refused_alike_by_check_and_both_sides(
    capsys, no_compute, row, outside, at
):
    # the value just outside the bound is refused with one message by the CLI (which has
    # no --n, so n goes through check_registry), check_registry, sum_lhs and sum_rhs
    point = {**domain_bounds(row)[0], **outside}
    with pytest.raises(identities.RegistryError) as refused:
        identities.check_registry(row.id, 2, outside)
    message = str(refused.value)
    assert message.startswith(f"identity {row.id!r} needs ")
    assert all(f"{slot}={value}" in message for slot, value in outside.items())
    if "n" not in outside:
        argv = [f"--{slot}={value}" for slot, value in outside.items()]
        assert run(capsys, "check", row.id, *argv) == (2, "", f"riordan: {message}\n")
    n = point.pop("n")
    for side in (identities.sum_lhs, identities.sum_rhs):
        with pytest.raises(identities.RegistryError) as refused:
            side(row.id, n, **point)
        assert str(refused.value) == message


@pytest.mark.parametrize("row, outside, at", DOMAIN_BOUNDS)
def test_every_domain_bound_itself_is_taken(capsys, row, outside, at):
    point = {**domain_bounds(row)[0], **at}
    # at n = 0 a k row has no points, and so no counterexample
    assert identities.check_registry(row.id, 2, at).holds
    if "n" not in at:
        argv = [f"--{slot}={value}" for slot, value in at.items()]
        code, out, err = run(capsys, "check", row.id, "--max-n", "2", *argv)
        assert (code, err) == (0, "") and ": holds (" in out
    n = point.pop("n")
    assert identities.sum_lhs(row.id, n, **point) == identities.sum_rhs(row.id, n, **point)


@pytest.mark.parametrize(
    "identity, slot, value, kind",
    [
        ("subarray-convolution", "p", Fraction(5, 2), "an integer"),
        ("subarray-convolution", "r", Fraction(1, 2), "an integer"),
        ("subarray-convolution", "k", Fraction(5, 2), "an integer"),
        ("subarray-convolution", "s", Fraction(3, 2), "an integer"),
        ("catalan-column-sum", "n", Fraction(7, 3), "an integer"),
        ("catalan-vandermonde", "z", Fraction(7, 2), "an integer"),
        ("catalan-vandermonde", "z", 2.0, "an exact"),
        ("rothe-hagen", "x", 0.5, "an exact"),
        ("product-laws", "y", 1.5, "an exact"),
        # a value that Fraction does not read
        ("rothe-hagen", "x", "abc", "an exact"),
        ("rothe-hagen", "y", "1/0", "an exact"),
        ("catalan-vandermonde", "z", None, "an exact"),
        # a string is read as a rational
        ("subarray-convolution", "p", "5/2", "an integer"),
    ],
)
def test_check_refuses_inexact_pins_by_name(no_compute, identity, slot, value, kind):
    message = f"identity {identity!r} needs {kind} {slot}, got {slot}={value}"
    with pytest.raises(identities.RegistryError) as exc:
        identities.check_registry(identity, 5, {slot: value})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "identity, pins",
    [
        ("catalan-vandermonde", {"z": 2}),
        ("subarray-convolution", {"p": 3, "r": 1, "k": 2}),
        ("ballot-vandermonde", {"p": 2, "x": Fraction(1, 2)}),
        ("rothe-hagen", {"x": 1, "y": Fraction(-2, 3)}),
        ("product-laws", {"p": 3, "x": Fraction(5, 2)}),
    ],
)
def test_integral_fraction_pins_check_as_ints(identity, pins):
    # every pin is read through Fraction: "6/2" in an integer slot is 3, as 3 and Fraction(3) are
    as_fractions = {slot: Fraction(v) for slot, v in pins.items()}
    as_strings = {s: f"{2 * v.numerator}/{2 * v.denominator}" for s, v in as_fractions.items()}
    got = identities.check_registry(identity, 6, as_fractions)
    assert got.to_record() == identities.check_registry(identity, 6, pins).to_record()
    assert got.to_record() == identities.check_registry(identity, 6, as_strings).to_record()
    assert got.holds and got.points > 0


@pytest.mark.parametrize(
    "argv, slot, value",
    [
        (("subarray-convolution", "--p", "1/2"), "p", "1/2"),
        (("catalan-vandermonde", "--z", "7/2"), "z", "7/2"),
        (("subarray-convolution", "--k", "0.5"), "k", "0.5"),
        (("subarray-convolution", "--p", "2/4"), "p", "2/4"),
    ],
)
def test_check_refuses_a_fractional_integer_pin_by_name(capsys, no_compute, argv, slot, value):
    # the CLI passes every pin as given; the registry reads it, refuses it by name
    # and echoes it as given
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (2, "")
    assert err == f"riordan: identity {argv[0]!r} needs an integer {slot}, got {slot}={value}\n"


@pytest.mark.parametrize("slot, value", [("x", "abc"), ("y", "1/0"), ("x", "1/2/3")])
def test_check_refuses_a_pin_that_is_no_rational_by_name(capsys, no_compute, slot, value):
    code, out, err = run(capsys, "check", "rothe-hagen", f"--{slot}", value)
    assert (code, out) == (2, "")
    assert err == f"riordan: identity 'rothe-hagen' needs an exact {slot}, got {slot}={value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("triangle", "pascal", "--rows", "3", "--precision", "4"),
        ("extract", "pascal", "--p", "2", "--precision", "4"),
        ("aseq", "pascal", "--terms", "3", "--precision", "4"),
        ("hyper", "--upper", "1", "--terms", "3", "--precision", "4"),
        ("check", "andrews-a3", "--max-n", "3", "--precision", "4"),
    ],
)
def test_cli_refuses_bad_arguments_as_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("check", "rothe-hagen", "--max-n", "3"), "--x", "-1/2"),
        (("check", "rothe-hagen", "--max-n", "3"), "--y", "-1/2"),
        (("hyper", "--terms", "4"), "--upper", "-1/2"),
        (("hyper", "--upper", "1", "--terms", "4"), "--lower", "-1/2"),
        (("hyper", "--upper", "1", "--terms", "4"), "--scale", "-1/2"),
        (("triangle", "--A", "1,1", "--rows", "4"), "--d", "-1/2,1"),
        (("triangle", "--d", "1", "--rows", "4"), "--A", "-1/2,1"),
        (("extract", "--A", "1,1", "--p", "2", "--rows", "3"), "--d", "-1/2,1"),
    ],
)
def test_negative_fraction_is_a_value_as_a_separate_token(capsys, argv, option, value):
    # argparse reads -3 as a value but -1/2 as an option; both must be values
    separate = run(capsys, *argv, option, value)
    joined = run(capsys, *argv, f"{option}={value}")
    assert separate[:2] == joined[:2]
    assert separate[0] == 0 and separate[1]


def test_option_after_a_value_option_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "rothe-hagen", "--x", "--y", "1"])
    assert exc.value.code == 2
    assert "argument --x: expected one argument" in capsys.readouterr().err


def test_abbreviated_options_are_refused(capsys):
    # check has no --n flag (an n pin goes through check_registry): with
    # abbreviations, --n 5 would be read as --n-max 5
    for argv in (("check", "andrews-a1", "--n", "5"), ("check", "andrews-a1", "--max", "5"),
                 ("triangle", "pascal", "--row", "3"), ("hyper", "--up", "1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    holds = (0, "andrews-a1: holds (5 points, 1 <= n <= 5)\n", "")
    for option in ("--max-n", "--n-max"):
        assert run(capsys, "check", "andrews-a1", option, "5") == holds


@pytest.mark.parametrize(
    "argv, message",
    [
        # a pin whose hypergeometric spec has a lower parameter that is zero or a
        # negative integer: the spec route refuses it, and no two routes disagree
        (("product-laws", "--y", "-3"), "lower parameter 0 is zero or a negative integer"),
        (("hypergeometric-power-law", "--x", "-2"),
         "lower parameter -1 is zero or a negative integer"),
    ],
)
def test_check_faulty_pins_fail_as_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert err == f"riordan: {message}\n"


def check_record(capsys, *argv):
    code, out, _ = run(capsys, "check", *argv, "--format", "jsonl")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(
    "argv, counts",
    [
        # k = 7 at every n >= 7 with s = 1..7, for 3 p x 3 r
        (("subarray-convolution", "--k", "7"), {20: 882, 40: 2142}),
        (("catalan-column-sum", "--k", "30"), {30: 9, 40: 99}),
        # s = 2 with k = 2..n at every n >= 2
        (("subarray-convolution", "--s", "2"), {20: 1710, 24: 2484}),
        (("ballot-triangle-convolution", "--k", "4", "--s", "4"), {20: 153, 23: 180}),
    ],
)
def test_check_pins_are_enumerated_at_every_n(capsys, argv, counts):
    for max_n, points in counts.items():
        rec = check_record(capsys, *argv, "--max-n", str(max_n))
        assert rec["verdict"] == "holds"
        assert rec["points"] == points


@pytest.mark.parametrize(
    "argv, grid",
    [
        (("rothe-hagen", "--z", "0", "--max-n", "6"), "z=0, rational (x, y) grid, n <= 6"),
        (("rothe-hagen", "--x", "1/2", "--max-n", "6"),
         "z in (2,3,4), x=1/2, y over the rational grid, n <= 6"),
        (("catalan-vandermonde", "--x", "2", "--y", "3", "--z", "4", "--max-n", "5"),
         "z=4, x=2, y=3, n <= 5"),
        (("subarray-convolution", "--p", "3", "--k", "2", "--max-n", "5"),
         "p=3, r in (0,1,2), k=2, 1 <= s <= k <= n, n <= 5"),
        (("product-laws", "--p", "2", "--y", "3", "--max-n", "4"),
         "p=2, y=3, x over the rational grid, coefficients below 5"),
        (("hypergeometric-power-law", "--x", "1/3", "--max-n", "4"),
         "q in (2, 3, 4), x=1/3, coefficients below 5"),
    ],
)
def test_check_grid_text_names_the_pins(capsys, argv, grid):
    assert check_record(capsys, *argv)["grid"] == grid


def test_check_unpinned_grid_text(capsys):
    rec = check_record(capsys, "subarray-convolution", "--max-n", "3")
    assert rec["grid"] == "p in (2,3,4), r in (0,1,2), 1 <= s <= k <= n, n <= 3"


def test_check_requires_target(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2


def test_check_pin_on_wrong_identity(capsys):
    code, _, err = run(capsys, "check", "andrews-a1", "--x", "2")
    assert code == 2


# -- a closed output pipe ---------------------------------------------------------


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``write`` raises, or only ``flush`` (buffered)."""

    def __init__(self, raising: str):
        super().__init__()
        self.raising = raising

    def write(self, text):
        if self.raising == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.raising == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("raising", ["write", "flush"])
def test_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch, raising):
    monkeypatch.setattr(sys, "stdout", ClosedPipe(raising))
    assert main(["check", "andrews-a1", "--max-n", "4"]) == 141
    assert capsys.readouterr().err == ""
    # the rest of the output, and the flush at exit, go to devnull
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def cli_process(argv, unbuffered: bool) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "riordan.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def ended(proc: subprocess.Popen) -> tuple[int, bytes]:
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_after_one_line_ends_the_cli_quietly(unbuffered):
    # 2 MB of rows: more than a pipe holds, so rows are still written after the close
    proc = cli_process(["triangle", "pascal", "--rows", "300", "--format", "jsonl"], unbuffered)
    first = proc.stdout.readline()
    proc.stdout.close()
    assert json.loads(first) == {"entries": ["1"], "row": 0}
    assert ended(proc) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_check_all_into_a_closed_pipe_exits_141_not_1(unbuffered):
    # the reader is gone before the first report: exit 1 would claim a counterexample
    proc = cli_process(["check", "--all", "--max-n", "50", "--format", "jsonl"], unbuffered)
    proc.stdout.close()
    assert ended(proc) == (141, b"")


# -- hyper ----------------------------------------------------------------------


def test_hyper_catalan(capsys):
    code, out, _ = run(
        capsys, "hyper", "--upper", "1/2,1", "--lower", "2", "--scale", "4",
        "--terms", "5",
    )
    assert code == 0
    assert out == "1 1 2 5 14\n"


def test_hyper_single_term(capsys):
    code, out, _ = run(capsys, "hyper", "--upper", "1", "--terms", "1")
    assert code == 0
    assert out == "1\n"


def test_hyper_matches_h_series(capsys):
    # the q = 3 parameter lists: upper (3+i)/3, lower (3+i)/2, scale 27/4
    code, out, _ = run(
        capsys,
        "hyper",
        "--upper",
        "1,4/3,5/3",
        "--lower",
        "2,5/2",
        "--scale",
        "27/4",
        "--terms",
        "8",
    )
    assert code == 0
    assert out.split() == [str(c) for c in h_for_binomial_A(3, 8).coeffs]


def test_hyper_pole_exit_code(capsys):
    code, _, err = run(capsys, "hyper", "--upper", "1", "--lower", "0", "--terms", "3")
    assert code == 2


def test_hyper_bad_rational(capsys):
    code, _, err = run(capsys, "hyper", "--upper", "x", "--terms", "3")
    assert code == 2


HYPER_CLI = [
    json.loads(line) for line in (FIXTURES / "hyper_cli.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", HYPER_CLI, ids=lambda case: " ".join(case["argv"]))
def test_hyper_cli_matches_golden(capsys, case):
    # stdout, stderr and exit code of hyper, byte for byte
    code, out, err = run(capsys, *case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("upper, lower, scale, terms", [
    ("1/2,1", "2", "4", 1),
    ("1/2,1/3,5/7", "2/7,3/11", "3/5", 40),
    ("1", "", "-7/3", 12),
    ("-3", "1/2", "1", 6),
])
def test_hyper_writes_each_term_as_it_is_stepped(monkeypatch, upper, lower, scale, terms):
    # the bytes are those of the whole line or record, which expand's coefficients give
    spec = HypergeometricSpec(cli._parse_rational_list(upper), cli._parse_rational_list(lower),
                              Fraction(scale))
    texts = [str(c) for c in expand(spec, terms).coeffs]
    whole = {"text": " ".join(texts), "csv": ",".join(texts),
             "jsonl": cli._canonical_json({"coeffs": texts, "prec": terms})}
    events = []

    def pulled(spec):
        for k, term in enumerate(_terms(spec)):
            events.append(("pull", k))
            yield term

    monkeypatch.setattr(cli, "_terms", pulled)
    for fmt, line in whole.items():
        events.clear()
        args = SimpleNamespace(upper=upper, lower=lower, scale=scale, terms=terms, format=fmt)
        assert cli._cmd_hyper(args, SimpleNamespace(write=events.append)) == 0
        writes = [e for e in events if isinstance(e, str)]
        assert "".join(writes) == line + "\n"
        # term k goes out before term k + 1 is pulled, and the tail after the last
        pulls = [("pull", k) for k in range(terms)]
        assert events == [e for pair in zip(pulls, writes) for e in pair] + writes[-1:]


def test_hyper_jsonl(capsys):
    code, out, _ = run(
        capsys, "hyper", "--upper", "1", "--terms", "4", "--format", "jsonl"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {"prec": 4, "coeffs": ["1", "1", "1", "1"]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_cli_writes_integers_past_the_digit_limit_and_restores_it(capsys):
    # coefficient 2 is 10^4300, 4301 digits: one past CPython's default limit
    # on integer strings, which a run lifts for itself only
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        scale = "1" + "0" * 2150
        big = ("hyper", "--upper", "1", "--scale", scale, "--terms", "3", "--format", "csv")
        assert run(capsys, *big) == (0, f"1,{scale},1{'0' * 4300}\n", "")
        assert sys.get_int_max_str_digits() == 4300
        # a command that fails restores it too
        assert run(capsys, "hyper", "--upper", "1", "--lower", "0")[0] == 2
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


# -- honest verdicts ------------------------------------------------------------


def test_check_zero_points_is_not_a_pass(capsys):
    code, out, err = run(capsys, "check", "rothe-hagen", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert "no points checked" in err


@pytest.mark.parametrize("variant", ["a3", "a121", "a5", "a6", "a122"])
def test_check_andrews_from_n_0_at_max_n_0(capsys, variant):
    code, out, _ = run(capsys, "check", f"andrews-{variant}", "--max-n", "0")
    assert code == 0
    assert out == f"andrews-{variant}: holds (1 points, 0 <= n <= 0)\n"


@pytest.mark.parametrize("variant", ["a1", "a2"])
def test_check_andrews_from_n_1_at_max_n_0_is_not_a_pass(capsys, variant):
    code, out, err = run(capsys, "check", f"andrews-{variant}", "--max-n", "0")
    assert code == 2
    assert out == ""
    assert err == (
        f"riordan: andrews-{variant}: no points checked (1 <= n <= 0); "
        "an empty grid is not a pass\n"
    )


def wrong_kernel(p, a, b, m):
    # a direct-sum term kernel whose term 1 is 2, against the true one of the substitution route
    return m + 1, 1


def assert_route_failure_report(capsys, gf, slot, rhs, p=2, points=2):
    """``gf``'s two routes disagree at p and the grid's first (x, y) = (1/2, 1/2), at n = 1,
    where the substitution route has the true term ``rhs``.

    The report counts the sweep's points before that one plus m + 1 = 2, in both formats.
    """
    cex = {"routes": f"{gf} direct/substitution", "p": str(p), slot: "1/2", "n": "1"}
    grid = f"p={p}, x=1/2, y=1/2, coefficients below 4"
    assert run(capsys, "check", "product-laws", "--max-n", "3") == (
        1,
        f"product-laws: counterexample ({points} points, {grid})\n"
        f"  counterexample at {', '.join(f'{k}={v}' for k, v in cex.items())}: lhs=2 rhs={rhs}\n",
        "",
    )
    code, out, err = run(capsys, "check", "product-laws", "--max-n", "3", "--format", "jsonl")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "id": "product-laws", "grid": grid, "points": points, "verdict": "counterexample",
        "counterexample": {"params": cex, "lhs": "2", "rhs": str(rhs)},
    }


def test_check_disagreeing_routes_exit_1(capsys, monkeypatch):
    # a wrong direct summation makes fuss_ballot_gf's two routes disagree
    monkeypatch.setattr(identities, "_ballot_ratio", wrong_kernel)
    # term 1 at p = 2, y = 1/2: (p + y)/(p + y + 1) C(p + 1 + y, 1) = 5/7 * 7/2
    assert_route_failure_report(capsys, "fuss_ballot_gf", "y", "5/2")


@pytest.mark.parametrize("kernel, gf, slot, rhs", [
    # term 1 at p = 2, x = 1/2: 2x/(2p - 1 + 2x) C(2p + 2x - 1, 1) = 1/4 * 4
    pytest.param("_binomial_power_ratio", "central_power_gf", "x", "1",
                 id="_binomial_power_ratio-central_power_gf"),
    # term 1 at p = 2, y = 1/2: (p + y)/(p + y + 1) C(2(p + y + 1), 1) = 5/7 * 7
    pytest.param("_central_ballot_ratio", "central_ballot_gf", "y", "5",
                 id="_central_ballot_ratio-central_ballot_gf"),
])
def test_check_disagreeing_central_routes_exit_1(capsys, monkeypatch, kernel, gf, slot, rhs):
    # a wrong direct summation makes the central series' two routes disagree
    monkeypatch.setattr(identities, kernel, wrong_kernel)
    assert_route_failure_report(capsys, gf, slot, rhs)


def test_check_disagreeing_routes_count_the_points_before_them(capsys, monkeypatch):
    # fuss_ballot_gf is wrong at p = 3 only: p = 2 holds on its 25 (x, y) points,
    # 4 laws of 4 coefficients each, then the first p = 3 point fails
    real = identities._ballot_ratio
    monkeypatch.setattr(
        identities, "_ballot_ratio", lambda p, *args: (wrong_kernel if p == 3 else real)(p, *args)
    )
    # term 1 at p = 3, y = 1/2: (p + y)/(p + y + 1) C(p + 1 + y, 1) = 7/9 * 9/2
    assert_route_failure_report(capsys, "fuss_ballot_gf", "y", "7/2", p=3, points=25 * 16 + 2)


def fibonacci_off_at_6(monkeypatch):
    # F_6 one too large, every other F_n unchanged
    fibonacci = identities.fibonacci
    monkeypatch.setattr(identities, "fibonacci", lambda n: fibonacci(n) + (n == 6))


def off_at_3(series):
    # the series with coefficient 3 one too large
    return series + FormalPowerSeries([0, 0, 0, 1], precision=series.precision)


def test_check_andrews_prints_its_counterexample(capsys, monkeypatch):
    # a121 reads F_(2n+2) against the window sum: F_6 = 8 at n = 2
    fibonacci_off_at_6(monkeypatch)
    assert run(capsys, "check", "andrews-a121", "--max-n", "5") == (
        1,
        "andrews-a121: counterexample (3 points, 0 <= n <= 5)\n"
        "  counterexample at n=2: lhs=9 rhs=8\n",
        "",
    )


@pytest.mark.parametrize("weight_off, rhs", [(False, 9), (True, 8)])
def test_check_via_riordan_prints_the_side_that_differs(capsys, monkeypatch, weight_off, rhs):
    # even rows give F_6 at n = 3.  With only F_6 wrong, the series meets its
    # generating-function target and F_6 is the side that differs; with the
    # weight wrong too, the target differs first.  The weight's t^3 adds
    # d[3][3] = 1 of the even extraction to the series.
    fibonacci_off_at_6(monkeypatch)
    if weight_off:
        weight = identities._weight_series
        monkeypatch.setattr(identities, "_weight_series", lambda *a: off_at_3(weight(*a)))
    lhs = 9 if weight_off else 8
    assert run(capsys, "check", "fibonacci-riordan", "--max-n", "5") == (
        1,
        "fibonacci-riordan: counterexample (4 points, rows even, n <= 5)\n"
        f"  counterexample at rows=even, n=3: lhs={lhs} rhs={rhs}\n",
        "",
    )


def test_check_product_laws_reports_the_first_law_that_fails(capsys, monkeypatch):
    # B_3^(1/2) one too large at t^3: the first law fails at n = 3, after 4 points,
    # by fuss_ballot(1)'s constant term 1
    binomial_series = identities.binomial_series
    monkeypatch.setattr(identities, "binomial_series", lambda *a: off_at_3(binomial_series(*a)))
    rhs = identities.fuss_ballot_gf(2, Fraction(3, 2), 6).coeff(3)
    argv = ("check", "product-laws", "--p", "2", "--x", "1/2", "--y", "1", "--max-n", "5")
    assert run(capsys, *argv) == (
        1,
        "product-laws: counterexample (4 points, p=2, x=1/2, y=1, coefficients below 6)\n"
        f"  counterexample at law=binomial-ballot, p=2, x=1/2, y=1, n=3: lhs={rhs + 1} rhs={rhs}\n",
        "",
    )


def test_check_product_laws_counts_the_laws_before_the_one_that_fails(capsys, monkeypatch):
    # the expansion of B_3^x read at x + 1: the third law fails at n = 1,
    # after the first two laws' 6 coefficients each, as fuss_ballot(x + 1 + y)
    power_spec = identities.power_spec
    monkeypatch.setattr(identities, "power_spec", lambda q, r: power_spec(q, r + 1))
    lhs, rhs = (identities.fuss_ballot_gf(2, Fraction(y, 2), 6).coeff(1) for y in (5, 3))
    argv = ("check", "product-laws", "--p", "2", "--x", "1/2", "--y", "1", "--max-n", "5")
    assert run(capsys, *argv) == (
        1,
        "product-laws: counterexample (14 points, p=2, x=1/2, y=1, coefficients below 6)\n"
        "  counterexample at law=binomial-ballot-hypergeometric, p=2, x=1/2, y=1, n=1: "
        f"lhs={lhs} rhs={rhs}\n",
        "",
    )


@pytest.mark.parametrize("argv, message", [
    (("andrews-a1", "--all"), "give an identity id or --all, not both"),
    (("--all", "--p", "2"), "parameter pins only combine with a single identity id"),
])
def test_check_all_refuses_an_id_or_a_pin(capsys, argv, message):
    assert run(capsys, "check", *argv) == (2, "", f"riordan: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("triangle", "pascal", "--rows", "0"), "--rows must be >= 1"),
    (("extract", "pascal", "--p", "2", "--rows", "0"), "--rows must be >= 1"),
    (("triangle", "--d", "1", "--rows", "3"),
     "explicit triangles need both --d and --A coefficient lists"),
    (("triangle", "--d", "", "--A", "1", "--rows", "3"),
     "--d and --A need at least one coefficient"),
])
def test_triangle_and_extract_refuse_no_rows_and_a_missing_list(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"riordan: {message}\n")


def test_check_via_riordan_closed_form_mismatch(capsys, monkeypatch):
    wrong = dict(identities._EXTRACTED_D, odd=lambda m: comb(2 * m + 1, m + 1) + (m == 3))
    monkeypatch.setattr(identities, "_EXTRACTED_D", wrong)
    code, out, _ = run(
        capsys, "check", "fibonacci-riordan", "--max-n", "5", "--format", "jsonl"
    )
    assert code == 1
    rec = json.loads(out)
    assert rec["verdict"] == "counterexample"
    assert rec["counterexample"] == {
        "params": {"rows": "odd", "column": "d", "n": "3"},
        "lhs": "35",
        "rhs": "36",
    }
    assert rec["points"] == 6 + 4


def test_check_via_riordan_checks_each_point_in_order(capsys, monkeypatch):
    # a point (rows, n) checks the first column, then the series: with the odd
    # first column wrong at n = 1 and F_6 wrong at (even, 3), the even point
    # is met first, after 4 points
    fibonacci_off_at_6(monkeypatch)
    wrong = dict(identities._EXTRACTED_D, odd=lambda m: comb(2 * m + 1, m + 1) + (m == 1))
    monkeypatch.setattr(identities, "_EXTRACTED_D", wrong)
    assert run(capsys, "check", "fibonacci-riordan", "--max-n", "5") == (
        1,
        "fibonacci-riordan: counterexample (4 points, rows even, n <= 5)\n"
        "  counterexample at rows=even, n=3: lhs=8 rhs=9\n",
        "",
    )
