"""Command-line front end.

Subcommands: triangle, extract, aseq, check, hyper.  Output formats are
text (aligned columns), csv (all but check), and jsonl (canonical JSON,
one record per line, all numbers as decimal strings so arbitrary
precision survives the round trip).  Exit codes: 0 success / identity
holds, 1 counterexample found (a report on stdout; two computation
routes that disagree are one too), 2 every other failure that ends a
command, as ``riordan: <message>`` on stderr (usage and spec errors, a
check that covers no points), 141 (128 + SIGPIPE) the reader closed the
output pipe.  Integers print in full, past CPython's default limit on
the digits of an integer string.

This is the one module that turns exact values into text, and it prints
what the kernels yield: ``hyper`` the lowest-terms pairs of
``hypergeom._terms`` as ``num`` or ``num/den``, each written as it is
stepped, and ``triangle`` and ``extract`` the rows that
``RiordanArray._rows`` hands out (every array built here keeps its
A-sequence, as does each extraction of one), each entry over its row's
own denominator.  csv and jsonl hold one row at a time; text keeps the
rows' strings for its column widths.  ``aseq`` and ``extract --aseq``
print the A-sequence the array keeps and walk no row for it: a proper
array is fixed by its first column and its A-sequence, so its rows
recover the A they were built from.  One writer, ``_emit_terms``, prints
every line of exact terms, each term as it comes.  ``check`` passes each
pin as given to ``check_registry``, which reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from .arrays import RiordanArray, ballot_triangle, catalan_triangle, pascal
from .hypergeom import HypergeometricSpec, _terms
from .identities import REGISTRY, check_registry, registry_entries
from .series import FormalPowerSeries, _fractions

# builtin name -> array factory; each builtin array keeps its A-sequence
_BUILTINS = {"pascal": pascal, "catalan42": catalan_triangle, "ballot43": ballot_triangle}


class UsageError(ValueError):
    pass


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [_parse_rational(tok.strip()) for tok in text.split(",")]


def _build_array(args, precision: int) -> RiordanArray:
    """The named or ``--d``/``--A`` array at ``precision``; it keeps its A-sequence."""
    explicit = args.d is not None or args.A is not None
    if args.name is not None and explicit:
        raise UsageError("give either a builtin name or --d/--A, not both")
    if args.name is not None:
        if args.name not in _BUILTINS:
            raise UsageError(
                f"unknown triangle {args.name!r}; builtins: {', '.join(_BUILTINS)}"
            )
        return _BUILTINS[args.name](precision)
    if args.d is None or args.A is None:
        raise UsageError("explicit triangles need both --d and --A coefficient lists")
    d_coeffs = _parse_rational_list(args.d)
    a_coeffs = _parse_rational_list(args.A)
    if not d_coeffs or not a_coeffs:
        raise UsageError("--d and --A need at least one coefficient")
    d = FormalPowerSeries(d_coeffs, precision=precision)
    a = FormalPowerSeries(a_coeffs, precision=precision)
    return RiordanArray.from_dA(d, a)


def _entry_texts(nums, den: int) -> list[str]:
    """Integer entries over ``den > 0``, each as the ``str`` of its fraction."""
    if den == 1:
        return list(map(str, nums))
    return list(map(str, _fractions(nums, den)))


def _emit_triangle(rows, fmt: str, out) -> None:
    """Write the rows ``(nums, den)``, one per ``write``.

    csv and jsonl write each row before the next is pulled.  text right-aligns
    each column to its widest entry, so it keeps every row's strings and
    writes once the last row is in.
    """
    rows = (_entry_texts(*row) for row in rows)
    if fmt == "jsonl":
        for n, row in enumerate(rows):
            out.write(_canonical_json({"row": n, "entries": row}) + "\n")
    elif fmt == "csv":
        for row in rows:
            out.write(",".join(row) + "\n")
    else:
        rows = list(rows)
        # column k first appears in row k, and the last row has every column
        widths = list(map(len, rows[-1]))
        for row in rows[:-1]:
            widths[:len(row)] = map(max, widths, map(len, row))
        for row in rows:
            out.write(" ".join(map(str.rjust, row, widths)) + "\n")


def _emit_terms(texts, fmt: str, out, label: str, record: dict) -> None:
    """Write a nonempty iterator of term texts as one line, each text as it comes.

    text writes them after ``label``, space-separated, and csv comma-separated;
    jsonl writes ``record`` with its one ``""`` filled by the quoted texts: the
    record's head, each quoted text, then its tail.
    """
    head, tail, sep = (label, "", " ") if fmt == "text" else ("", "", ",")
    if fmt == "jsonl":
        head, tail = _canonical_json(record).split('""')
        texts = map(_canonical_json, texts)
    out.write(head + next(texts))
    for text in texts:
        out.write(sep + text)
    out.write(tail + "\n")


def _emit_aseq(seq: FormalPowerSeries, fmt: str, out) -> None:
    """The line ``A = …``, or the record ``{"aseq": […]}``, of an A-sequence."""
    _emit_terms(map(str, seq.coeffs), fmt, out, "A = ", {"aseq": [""]})


def _emit_report(report, fmt: str, out) -> None:
    if fmt == "jsonl":
        out.write(_canonical_json(report.to_record()) + "\n")
    else:
        line = f"{report.identity}: {report.verdict} ({report.points} points, {report.grid})"
        out.write(line + "\n")
        if not report.holds:
            cex = report.counterexample
            params = ", ".join(f"{k}={v}" for k, v in cex.params.items())
            out.write(f"  counterexample at {params}: lhs={cex.lhs} rhs={cex.rhs}\n")


# the failures that end a command with exit 2
_FAILURES = (ValueError, ZeroDivisionError)


# -- subcommands -------------------------------------------------------


def _cmd_triangle(args, out) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be >= 1")
    array = _build_array(args, args.rows)
    _emit_triangle(array._rows(args.rows), args.format, out)
    return 0


def _cmd_extract(args, out) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be >= 1")
    if args.p < 2 or args.r < 0:
        raise UsageError("need p >= 2 and r >= 0")
    if args.terms is not None:
        if not args.aseq:
            raise UsageError("--terms is read only with --aseq")
        if args.terms < 1:
            raise UsageError("--terms must be >= 1")
    terms = args.terms if args.terms is not None else max(args.rows - 1, 1)
    need_rows = max(args.rows, (terms + 1) if args.aseq else 1)
    # auto-raise the base precision so the extraction never hits a shortfall
    base = _build_array(args, args.p * need_rows + args.r + 1)
    sub = base.extract_subarray(args.p, args.r)
    _emit_triangle(sub._rows(args.rows), args.format, out)
    if not args.aseq:
        return 0
    kept = sub.A.truncate(terms)
    _emit_aseq(kept, args.format, out)
    # The printed rows and A come from the A-sequence the sub-array keeps, and
    # its h from the entries the extraction read; the claim holds when the
    # printed A is A^p and the read h solves h = (A^p)(t h).
    a_p = base.A.truncate(terms) ** args.p
    h = sub.h.truncate(terms)
    claim_ok = kept == a_p and a_p.compose(h.shift_up().truncate(terms)) == h
    if args.format == "jsonl":
        out.write(_canonical_json({"claim": "a-power", "holds": claim_ok}) + "\n")
    else:
        out.write(f"claim A_new = A^{args.p}: {'ok' if claim_ok else 'FAILED'}\n")
    return 0 if claim_ok else 1


def _cmd_aseq(args, out) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    array = _build_array(args, args.terms + 1)
    _emit_aseq(array.A.truncate(args.terms), args.format, out)
    return 0


# the check pins --p .. --z, passed on as given: slot -> the kind its help text names
_PINS = {"p": "", "r": "", "k": "", "s": "", "x": "rational ", "y": "rational ", "z": "integer "}


def _cmd_check(args, out) -> int:
    pinned = {slot: getattr(args, slot) for slot in _PINS if getattr(args, slot) is not None}
    if args.list:
        ignored = [f"--{slot}" for slot in pinned]
        if args.max_n is not None:
            ignored.insert(0, "--max-n")
        if args.all:
            ignored.insert(0, "--all")
        if args.identity is not None:
            ignored.insert(0, f"identity {args.identity!r}")
        if ignored:
            raise UsageError(f"--list stands alone; drop {', '.join(ignored)}")
        for entry in registry_entries():
            if args.format == "jsonl":
                out.write(_canonical_json(entry.to_record()) + "\n")
            else:
                out.write(f"{entry.id}: {entry.description}\n")
                out.write(
                    f"  slots: {', '.join(entry.slots)}; default grid: {entry.default_grid}\n"
                )
        return 0
    ids: list[str]
    if args.all:
        if args.identity is not None:
            raise UsageError("give an identity id or --all, not both")
        if pinned:
            raise UsageError("parameter pins only combine with a single identity id")
        ids = list(REGISTRY)
    elif args.identity is not None:
        ids = [args.identity]
    else:
        raise UsageError("need an identity id, --all, or --list")
    max_n = 20 if args.max_n is None else args.max_n
    # the worst exit code seen: an error (2) beats a counterexample (1) beats a pass
    worst = 0
    for identity in ids:
        try:
            report = check_registry(identity, max_n=max_n, pinned=pinned or None)
        except _FAILURES as exc:
            if not args.all:
                raise
            # one identity that raises does not end a run of the whole registry
            print(f"riordan: {identity}: {exc}", file=sys.stderr)
            code = 2
        else:
            if report.points:
                _emit_report(report, args.format, out)
                code = 0 if report.holds else 1
            else:
                print(
                    f"riordan: {identity}: no points checked ({report.grid}); "
                    "an empty grid is not a pass",
                    file=sys.stderr,
                )
                code = 2
        worst = max(worst, code)
    return worst


def _cmd_hyper(args, out) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    spec = HypergeometricSpec(
        upper=_parse_rational_list(args.upper),
        lower=_parse_rational_list(args.lower),
        scale=_parse_rational(args.scale),
    )
    # each term is in lowest terms, so its text is that of its fraction
    texts = (str(n) if d == 1 else f"{n}/{d}" for n, d in islice(_terms(spec), args.terms))
    _emit_terms(texts, args.format, out, "", {"coeffs": [""], "prec": args.terms})
    return 0


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, but a token such as ``-1/2``, ``-.5`` or ``-1/2,1`` is always a value.

    argparse alone reads ``--x -1/2`` as ``--x`` with no argument.  No option may be
    abbreviated: ``--n 5`` would silently set ``--n-max``.  Subparsers share the class.
    """

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_common(sp, formats=("text", "csv", "jsonl")) -> None:
    sp.add_argument(
        "--format",
        choices=formats,
        default="text",
        help="output format (default: text)",
    )


def _add_triangle_spec(sp) -> None:
    sp.add_argument(
        "name",
        nargs="?",
        help=f"builtin triangle: {', '.join(_BUILTINS)}",
    )
    sp.add_argument("--d", help="comma-separated rational coefficients of d")
    sp.add_argument("--A", help="comma-separated A-sequence coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riordan",
        description="Exact Riordan array and combinatorial identity toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="materialize a triangle")
    _add_triangle_spec(p_tri)
    p_tri.add_argument("--rows", type=int, default=7)
    _add_common(p_tri)

    p_ext = sub.add_parser("extract", help="extract the (p, r) sub-array")
    _add_triangle_spec(p_ext)
    p_ext.add_argument("--p", type=int, required=True, help="row step (>= 2)")
    p_ext.add_argument("--r", type=int, default=0, help="row offset (>= 0)")
    p_ext.add_argument("--rows", type=int, default=7)
    p_ext.add_argument(
        "--aseq",
        action="store_true",
        help="also print the A-sequence the sub-array keeps, and check that it "
        "is A^p and that the extracted h solves h = (A^p)(t h)",
    )
    p_ext.add_argument("--terms", type=int, default=None, help="A-sequence terms")
    _add_common(p_ext)

    p_aseq = sub.add_parser("aseq", help="print the A-sequence a triangle keeps")
    _add_triangle_spec(p_aseq)
    p_aseq.add_argument("--terms", type=int, default=8)
    _add_common(p_aseq)

    p_check = sub.add_parser("check", help="run identity checks")
    p_check.add_argument("identity", nargs="?", help="registry id")
    p_check.add_argument("--all", action="store_true", help="run the whole registry")
    p_check.add_argument("--list", action="store_true", help="list registry entries")
    p_check.add_argument(
        "--max-n", "--n-max", dest="max_n", type=int, help="grid bound (default: 20)"
    )
    for slot, kind in _PINS.items():
        p_check.add_argument(f"--{slot}", help=f"pin the {kind}{slot} slot")
    # a report or a registry entry has no table shape, so check has no csv
    _add_common(p_check, ("text", "jsonl"))

    p_hyper = sub.add_parser("hyper", help="expand a hypergeometric series")
    p_hyper.add_argument("--upper", default="", help="upper parameters, e.g. 1/2,1")
    p_hyper.add_argument("--lower", default="", help="lower parameters, e.g. 2")
    p_hyper.add_argument("--scale", default="1", help="rational argument scale")
    p_hyper.add_argument("--terms", type=int, default=8)
    _add_common(p_hyper)

    return parser


_COMMANDS = {
    "triangle": _cmd_triangle,
    "extract": _cmd_extract,
    "aseq": _cmd_aseq,
    "check": _cmd_check,
    "hyper": _cmd_hyper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact coefficients may pass CPython's limit on the digits of an integer
    # string (3.10.7+; 0 is no limit): lifted for this run only, so that a
    # caller in the same process keeps its own limit
    old_limit = getattr(sys, "get_int_max_str_digits", int)()
    if old_limit:
        sys.set_int_max_str_digits(0)
    try:
        code = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()  # here, so a closed pipe is seen before the exit flush
        return code
    except BrokenPipeError:
        # the reader stopped reading (``| head``): no traceback, and what is still
        # buffered goes to devnull, so the flush at exit raises nothing either
        sys.stdout = open(os.devnull, "w")
        return 141
    except _FAILURES as exc:
        print(f"riordan: {exc}", file=sys.stderr)
        return 2
    finally:
        if old_limit:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
