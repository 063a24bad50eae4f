"""Command-line front end.

Subcommands: triangle, extract, aseq, check, hyper.  Output formats are
text (aligned columns), csv, and jsonl (canonical JSON, one record per
line, all numbers as decimal strings so arbitrary precision survives the
round trip).  Exit codes: 0 success / identity holds, 1 counterexample
found (including two computation routes that disagree), 2 usage or spec
error (including a check that covers no points).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .arrays import (
    RiordanArray,
    TheoremViolationError,
    Triangle,
    a_sequence,
    ballot_triangle,
    catalan_triangle,
    pascal,
)
from .hypergeom import HypergeometricSpec, expand
from .identities import REGISTRY, check_registry, registry_entries
from .series import FormalPowerSeries

# builtin name -> (array factory, precision -> its A-sequence as a series)
_BUILTINS = {
    "pascal": (pascal, lambda n: 1 + FormalPowerSeries.t(n)),
    "catalan42": (catalan_triangle, lambda n: (1 + FormalPowerSeries.t(n)) ** 2),
    "ballot43": (ballot_triangle, lambda n: 1 / (1 - FormalPowerSeries.t(n))),
}


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


def _build_array(args, precision: int) -> tuple[RiordanArray, FormalPowerSeries]:
    """Array plus its known A-sequence (for claim checks), both at ``precision``."""
    explicit = args.d is not None or args.A is not None
    if args.name is not None and explicit:
        raise UsageError("give either a builtin name or --d/--A, not both")
    if args.name is not None:
        if args.name not in _BUILTINS:
            raise UsageError(
                f"unknown triangle {args.name!r}; builtins: {', '.join(_BUILTINS)}"
            )
        factory, a_series = _BUILTINS[args.name]
        return factory(precision), a_series(precision)
    if args.d is None or args.A is None:
        raise UsageError("explicit triangles need both --d and --A coefficient lists")
    d_coeffs = _parse_rational_list(args.d)
    a_coeffs = _parse_rational_list(args.A)
    if not d_coeffs or not a_coeffs:
        raise UsageError("--d and --A need at least one coefficient")
    d = FormalPowerSeries(d_coeffs, precision=precision)
    a = FormalPowerSeries(a_coeffs, precision=precision)
    return RiordanArray.from_dA(d, a), a


def _triangle_text(tri: Triangle) -> str:
    rows = [[str(c) for c in row] for row in tri.rows]
    widths = {}
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths.get(k, 0), len(cell))
    lines = [
        " ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines) + "\n"


def _emit_triangle(tri: Triangle, fmt: str, out) -> None:
    if fmt == "text":
        out.write(_triangle_text(tri))
    elif fmt == "csv":
        out.write(tri.to_csv())
    else:
        for rec in tri.to_records():
            out.write(_canonical_json(rec) + "\n")


def _emit_series(series: FormalPowerSeries, fmt: str, out) -> None:
    if fmt == "text":
        out.write(" ".join(str(c) for c in series.coeffs) + "\n")
    elif fmt == "csv":
        out.write(",".join(str(c) for c in series.coeffs) + "\n")
    else:
        out.write(_canonical_json(series.to_record()) + "\n")


def _emit_aseq(coeffs, fmt: str, out) -> None:
    if fmt == "jsonl":
        out.write(_canonical_json({"aseq": [str(c) for c in coeffs]}) + "\n")
    elif fmt == "csv":
        out.write(",".join(str(c) for c in coeffs) + "\n")
    else:
        out.write("A = " + " ".join(str(c) for c in coeffs) + "\n")


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


# -- failures ----------------------------------------------------------

_FAILURES = (ValueError, ZeroDivisionError)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and message of a failure that ends a command."""
    if isinstance(exc, TheoremViolationError):
        # two routes that must agree did not: a counterexample, not a usage error
        return 1, f"counterexample: {exc}"
    return 2, str(exc)


# -- subcommands -------------------------------------------------------


def _cmd_triangle(args, out) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be >= 1")
    array, _ = _build_array(args, args.rows)
    _emit_triangle(array.materialize(args.rows), args.format, out)
    return 0


def _cmd_extract(args, out) -> int:
    if args.rows < 1:
        raise UsageError("--rows must be >= 1")
    if args.p < 2 or args.r < 0:
        raise UsageError("need p >= 2 and r >= 0")
    terms = args.terms if args.terms is not None else max(args.rows - 1, 1)
    need_rows = max(args.rows, (terms + 1) if args.aseq else 1)
    # auto-raise the base precision so the extraction never hits a shortfall
    base, base_a = _build_array(args, args.p * need_rows + args.r + 1)
    sub = base.extract_subarray(args.p, args.r)
    _emit_triangle(sub.materialize(args.rows), args.format, out)
    if not args.aseq:
        return 0
    recovered = a_sequence(sub.materialize(terms + 1), terms=terms)
    _emit_aseq(recovered.coeffs, args.format, out)
    want = base_a.truncate(terms) ** args.p
    claim_ok = recovered.series == want
    if args.format == "jsonl":
        out.write(_canonical_json({"claim": "a-power", "holds": claim_ok}) + "\n")
    else:
        out.write(f"claim A_new = A^{args.p}: {'ok' if claim_ok else 'FAILED'}\n")
    return 0 if claim_ok else 1


def _cmd_aseq(args, out) -> int:
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    array, _ = _build_array(args, args.terms + 1)
    seq = a_sequence(array.materialize(args.terms + 1), terms=args.terms)
    _emit_aseq(seq.coeffs, args.format, out)
    return 0


def _cmd_check(args, out) -> int:
    if args.list:
        for entry in registry_entries():
            if args.format == "jsonl":
                out.write(_canonical_json(entry.to_record()) + "\n")
            else:
                out.write(f"{entry.id}: {entry.description}\n")
                out.write(
                    f"  slots: {', '.join(entry.slots)}; default grid: {entry.default_grid}\n"
                )
        return 0
    pinned = {}
    for slot in ("p", "r", "k", "s", "x", "y", "z"):
        value = getattr(args, slot)
        if value is not None:
            pinned[slot] = _parse_rational(value) if slot in ("x", "y") else value
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
    # the worst exit code seen: an error (2) beats a counterexample (1) beats a pass
    worst = 0
    for identity in ids:
        try:
            report = check_registry(identity, max_n=args.max_n, pinned=pinned or None)
        except _FAILURES as exc:
            if not args.all:
                raise
            # one identity that raises does not end a run of the whole registry
            code, message = _failure(exc)
            print(f"riordan: {identity}: {message}", file=sys.stderr)
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
    _emit_series(expand(spec, args.terms), args.format, out)
    return 0


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, but a token such as ``-1/2``, ``-.5`` or ``-1/2,1`` is always a value.

    argparse alone reads ``--x -1/2`` as ``--x`` with no argument.  Subparsers share the class.
    """

    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_common(sp) -> None:
    sp.add_argument(
        "--format",
        choices=("text", "csv", "jsonl"),
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
        help="also recover the A-sequence and check it equals A^p",
    )
    p_ext.add_argument("--terms", type=int, default=None, help="A-sequence terms")
    _add_common(p_ext)

    p_aseq = sub.add_parser("aseq", help="recover a triangle's A-sequence")
    _add_triangle_spec(p_aseq)
    p_aseq.add_argument("--terms", type=int, default=8)
    _add_common(p_aseq)

    p_check = sub.add_parser("check", help="run identity checks")
    p_check.add_argument("identity", nargs="?", help="registry id")
    p_check.add_argument("--all", action="store_true", help="run the whole registry")
    p_check.add_argument("--list", action="store_true", help="list registry entries")
    p_check.add_argument(
        "--max-n", "--n-max", dest="max_n", type=int, default=20, help="grid bound"
    )
    p_check.add_argument("--p", type=int, default=None, help="pin the p slot")
    p_check.add_argument("--r", type=int, default=None, help="pin the r slot")
    p_check.add_argument("--k", type=int, default=None, help="pin the k slot")
    p_check.add_argument("--s", type=int, default=None, help="pin the s slot")
    p_check.add_argument("--x", default=None, help="pin the rational x slot")
    p_check.add_argument("--y", default=None, help="pin the rational y slot")
    p_check.add_argument("--z", type=int, default=None, help="pin the integer z slot")
    _add_common(p_check)

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
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except _FAILURES as exc:
        code, message = _failure(exc)
        print(f"riordan: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
