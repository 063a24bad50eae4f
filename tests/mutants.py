"""A standing mutant suite: small faults in ``src/`` that named tests must catch.

Each mutant is data: a name, a file under ``src/``, an exact snippet of that
file, the snippet's replacement, and the pytest node ids that must fail
with the replacement in place.  A run copies ``src/`` to a temporary
directory, applies one mutant to the copy, and runs only the mutant's
tests against it (``PYTHONPATH`` names the copy).  The mutant is killed
when every one of its tests fails.  The repository's own ``src/`` is
never edited.

Run it from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named mutants only

It prints one line per mutant and exits 1 if any survived.  pytest does
not collect this file (no ``test_`` prefix); ``test_mutants.py`` checks,
as part of the suite, that each snippet occurs exactly once in its file
and that each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "ballot-ratio-reads-C-N-m",
        "riordan/identities.py",
        "    num, den = _binomial_ratio((p + 1) * m * b + a, b, m - 1)\n",
        "    num, den = _binomial_ratio((p + 1) * m * b + a, b, m)\n",
        (
            "tests/test_identities_kernel.py::test_ballot_kernels_and_poles",
            "tests/test_identities_kernel.py"
            "::test_factor_kernel_term_m_is_a_polynomial_of_degree_m",
            "tests/test_identities.py::test_direct_sums_equal_their_substitution[v1-2]",
        ),
    ),
    Mutant(
        "central-ballot-ratio-without-its-factor-2",
        "riordan/identities.py",
        "    return 2 * ((p - 1) * m * b + a + b) * num, b * m * den\n",
        "    return ((p - 1) * m * b + a + b) * num, b * m * den\n",
        (
            "tests/test_identities_kernel.py::test_ballot_kernels_and_poles",
            "tests/test_identities.py::test_direct_sums_equal_their_substitution[v1-2]",
            "tests/test_cli.py::test_check_cli_matches_golden[check --all --max-n 4]",
        ),
    ),
    Mutant(
        "ballot-ratio-in-its-stated-form",
        "riordan/identities.py",
        "    if m == 0:\n        return 1, 1\n"
        "    num, den = _binomial_ratio((p + 1) * m * b + a, b, m - 1)\n"
        "    return ((p - 1) * m * b + a + b) * num, b * m * den\n",
        "    num, den = _binomial_ratio((p + 1) * m * b + a, b, m)\n"
        "    return ((p - 1) * m * b + a + b) * num, (p * m * b + a + b) * den\n",
        (
            "tests/test_identities_kernel.py::test_ballot_kernels_and_poles",
            "tests/test_identities_kernel.py"
            "::test_factor_kernel_term_m_is_a_polynomial_of_degree_m",
            "tests/test_identities.py::test_direct_sums_equal_their_substitution[-7-2]",
            "tests/test_cli.py::test_check_cli_matches_golden[check ballot-vandermonde --y -3]",
        ),
    ),
    Mutant(
        "s-at-most-k-rule-dropped",
        "riordan/identities.py",
        '    if "k" in pinned and pinned.get("s", 1) > pinned["k"]:\n',
        "    if False:\n",
        (
            "tests/test_identities.py::test_triangle_sums_refuse_points_outside_their_domain"
            "[2-2-3-needs s <= k, got k=2, s=3]",
            "tests/test_cli.py::test_every_domain_bound_is_refused_alike_by_check_and_both_sides"
            "[subarray-convolution-s<=k]",
        ),
    ),
    Mutant(
        "newton-keyed-on-phi-mod-t-n-minus-2",
        "riordan/series.py",
        "    return _newton(p.truncate(precision - 1), precision)\n",
        "    return _newton(p.truncate(precision - 2), precision)\n",
        (
            "tests/test_series_kernel.py::test_lagrange_solve_matches_reverting_t_over_phi",
            "tests/test_series.py::test_revert_solves_through_lagrange_solve",
        ),
    ),
    Mutant(
        "a-sequence-check-without-the-solve-denominator",
        "riordan/arrays.py",
        "        lhs = [x * den for x in nxt[1:]] if den != 1 else list(nxt[1:])\n",
        "        lhs = list(nxt[1:])\n",
        (
            "tests/test_arrays.py::test_a_sequence_handles_rational_triangles",
            "tests/test_arrays_kernel.py::test_a_sequence_matches_reference",
            "tests/test_arrays_kernel.py::test_a_sequence_recovers_the_building_A",
        ),
    ),
    Mutant(
        "step-suffix-sums-skipped",
        "riordan/arrays.py",
        "    for _ in range(j):\n        out = list(accumulate(reversed(out)))[::-1]\n",
        "",
        (
            "tests/test_arrays.py::test_ballot_triangle_a_sequence",
            "tests/test_arrays_kernel.py::test_a_sequence_checks_through_the_compacted_A",
            "tests/test_arrays_kernel.py::test_stock_triangles_rows_match_their_columns"
            "[ballot_triangle]",
        ),
    ),
    Mutant(
        "a-sequence-zero-A0-accepted",
        "riordan/arrays.py",
        "    if not xs[0]:\n",
        "    if False:\n",
        (
            "tests/test_arrays.py::test_a_sequence_refuses_a_zero_A0",
            "tests/test_arrays_kernel.py::test_zero_pivot_gives_the_same_outcome",
        ),
    ),
    Mutant(
        "newton-slope-without-division-by-w-prime",
        "riordan/series.py",
        "            slope = value.truncate(h).derivative() / w.truncate(h).derivative()\n",
        "            slope = value.truncate(h).derivative()\n",
        (
            "tests/test_arrays.py::test_from_dA_h_series",
            "tests/test_arrays_kernel.py::test_a_sequence_matches_reference",
        ),
    ),
    Mutant(
        "andrews-fibonacci-index-off-by-one",
        "riordan/identities.py",
        '    "a3": ((2, 1, 1), 0,',
        '    "a3": ((2, 2, 1), 0,',
        (
            "tests/test_identities.py::test_andrews_all_variants_hold[a3]",
            "tests/test_identities_kernel.py::test_andrews_integer_table_gives_the_lambdas_values",
        ),
    ),
    Mutant(
        "andrews-window-map-shifted-by-one",
        "riordan/identities.py",
        '    "a6": ((2, 1, 1), 0, ((2, 0, 1), (1, 0, 1), (1, -2, 1))),\n',
        '    "a6": ((2, 1, 1), 0, ((2, 0, 1), (1, 0, 1), (1, -1, 1))),\n',
        (
            "tests/test_identities.py::test_andrews_all_variants_hold[a6]",
            "tests/test_identities_kernel.py::test_andrews_integer_table_gives_the_lambdas_values",
            "tests/test_identities_kernel.py::test_andrews_table_matches_per_identity_sums",
        ),
    ),
    Mutant(
        "andrews-sum-residue-off-by-one",
        "riordan/identities.py",
        "range(low1 % 5, upper + 1, 5)",
        "range((low1 + 1) % 5, upper + 1, 5)",
        (
            "tests/test_identities.py::test_andrews_sum_is_two_residue_classes_of_one_row",
            "tests/test_identities_kernel.py::test_andrews_sum_matches_a_guard_window_sum",
        ),
    ),
    Mutant(
        "aseq-prints-A-mod-t-terms-plus-one",
        "riordan/cli.py",
        "    _emit_aseq(array.A.truncate(args.terms), args.format, out)\n",
        "    _emit_aseq(array.A.truncate(args.terms + 1), args.format, out)\n",
        (
            "tests/test_cli.py::test_aseq_pascal",
            "tests/test_cli.py::test_aseq_ballot",
            "tests/test_cli.py::test_arrays_cli_matches_golden"
            "[aseq catalan42 --terms 8 --format csv]",
        ),
    ),
    Mutant(
        "emit-terms-csv-separator-as-space",
        "riordan/cli.py",
        'else ("", "", ",")\n',
        'else ("", "", " ")\n',
        (
            "tests/test_cli.py::test_arrays_cli_matches_golden"
            "[aseq ballot43 --terms 8 --format csv]",
            "tests/test_cli.py::test_hyper_cli_matches_golden"
            "[hyper --upper 1/2,1 --lower 2 --scale 4 --terms 8 --format csv]",
            "tests/test_cli.py::test_hyper_writes_each_term_as_it_is_stepped[1---7/3-12]",
        ),
    ),
    Mutant(
        "rows-without-the-precision-refusal",
        "riordan/arrays.py",
        "        if nrows > self.precision:\n",
        "        if False:\n",
        (
            "tests/test_cli.py::test_streamed_rows_are_refused_as_materialize_refuses_them[pascal]",
            "tests/test_cli.py::test_triangle_past_the_array_precision_exits_2",
            "tests/test_arrays_kernel.py::test_too_short_A_gives_the_column_routes_precision_error",
        ),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's one snippet in its file under ``src``."""
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet does not occur exactly once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def failed_tests(report: str) -> set[str]:
    """The node ids that pytest's ``-rfE`` summary names as failed or in error."""
    failed = set()
    for line in report.splitlines():
        for status in ("FAILED ", "ERROR "):
            if line.startswith(status):
                failed.add(line[len(status):].split(" - ", 1)[0])
    return failed


def run(mutant: Mutant) -> set[str]:
    """The mutant's tests that did not fail against a mutated copy of ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                   *mutant.tests]
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return set(mutant.tests) - failed_tests(done.stdout)


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in [known[name] for name in names] or MUTANTS:
        passing = run(mutant)
        survived += bool(passing)
        verdict = "survived" if passing else "killed"
        print(f"{mutant.name}: {verdict} ({len(mutant.tests) - len(passing)}"
              f"/{len(mutant.tests)} tests failed)")
        for node in sorted(passing):
            print(f"  did not fail: {node}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
