"""Command-line interface.

Exit codes: 0 for success (verifications: every check passed), 1 when a
verification or sweep found a counterexample, 2 for usage errors and
violated preconditions, 3 for an internal error (a bug: the traceback goes
to stderr), and 141, with nothing on stderr, when the reader closes stdout
early (``hankelrev ... | head -1``), as a death by SIGPIPE would give.  All
numeric output is exact decimal text at any magnitude.

This module is the one place where results become text.  Transforms,
reports and sweeps arrive holding ints, and each value is rendered with
``series._decimal`` only when it is printed (a sweep without ``--full``
prints no passing row).  A report's claims are int columns; the writers
walk its rows as plain ``(n, claim, lhs, rhs)`` tuples
(``ConjectureReport.rows``), made as they are printed and kept nowhere,
so neither ``verify`` nor ``sweep`` makes a ``Check``.  Within one report
each distinct value is rendered once.  Report and sweep JSON is written
straight from those rows, byte for byte as ``json.dumps(..., indent=2)``
would print it, and a CSV line is its cells joined by commas, byte for
byte as ``csv.writer`` would write it.

Each job has one handler: ``prop9`` is ``verify --conjecture prop9`` under
its own name, with ``--n`` for the depth, and one check refuses a command
that does not give exactly one of the sources (--seq, --gf, --family) its
subcommand takes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback

from hankelrev.conjectures import (
    CONJECTURES,
    SWEEPABLE,
    ConjectureReport,
    SweepResult,
    sweep,
)
from hankelrev.families import FamilyParams, family_base_ogf, family_reversion_terms
from hankelrev.gf import expand_gf
from hankelrev.hankel import (
    binomial_transform,
    hankel_transform,
    hankel_triple,
    inverse_binomial_transform,
)
from hankelrev.series import _decimal, _parse_int

DEFAULT_DEPTH = 6
DEFAULT_SHIFT_ORDER = 10

_json_string = json.encoder.encode_basestring_ascii


# ----------------------------------------------------------------------
# input plumbing


# argparse names the type in its "invalid int value" message
_parse_int.__name__ = "int"


def _parse_sequence(text: str) -> list[int]:
    if text == "-":
        text = sys.stdin.read()
    entries = [piece.strip() for piece in text.split(",")]
    if entries == [""]:
        raise ValueError("empty sequence")
    values = []
    for piece in entries:
        try:
            values.append(_parse_int(piece))
        except ValueError:
            raise ValueError(f"invalid sequence entry {piece!r}") from None
    return values


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = _parse_int(lo_text), _parse_int(hi_text)
    else:
        lo = hi = _parse_int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _family_params(args: argparse.Namespace) -> FamilyParams:
    if args.alpha is None:
        raise ValueError("--family needs --alpha")
    return FamilyParams(args.alpha, args.beta if args.beta is not None else 0, args.family)


def _require_one_source(args: argparse.Namespace) -> None:
    """Refuse unless exactly one of the sources the subcommand has is given:
    --seq, --gf and --family, or --gf and --family."""
    sources = [name for name in ("seq", "gf", "family") if hasattr(args, name)]
    if sum(bool(getattr(args, name)) for name in sources) != 1:
        raise ValueError("provide exactly one of " + ", ".join(f"--{n}" for n in sources))


def _sequence_from_args(args: argparse.Namespace, extra: int) -> tuple[list[int], int]:
    """The terms of --seq, --gf or --family and the depth to take them to.

    A pass at depth d reads 2*d + extra terms.  Without --depth, --seq goes
    as deep as its terms allow and the other two sources to DEFAULT_DEPTH.
    """
    _require_one_source(args)
    terms = _parse_sequence(args.seq) if args.seq else None
    depth = args.depth
    if depth is None:
        depth = DEFAULT_DEPTH if terms is None else max((len(terms) - extra) // 2, 0)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if terms is not None:
        return terms, depth
    count = 2 * depth + extra
    if args.gf:
        return expand_gf(args.gf, count - 1).integer_coefficients(), depth
    return family_reversion_terms(_family_params(args), count), depth


# ----------------------------------------------------------------------
# rendering


def _align_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    """CSV lines, a cell quoted only where it needs it, without the last newline.

    The text is ``csv.writer``'s, but a line is its cells joined by commas.
    Only a cell with a comma, a quote, CR, LF or NUL, or the lone empty cell
    of a one-cell row, goes through the writer, whose rules for CR and NUL
    differ between Python versions.  Decimal cells never do.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def quoted(cells: list[str]) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(cells)
        return buffer.getvalue()[:-1]

    # five ``in`` scans of a cell run at memchr speed, four times faster
    # than one regular-expression search on thousand-digit cells
    lines = [
        quoted(row) if row == [""]
        else ",".join([
            quoted([cell])
            if "," in cell or '"' in cell or "\r" in cell or "\n" in cell or "\0" in cell
            else cell
            for cell in row
        ])
        for row in [header, *rows]
    ]
    return "\n".join(lines).rstrip("\n")


def _emit_values(values: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(values))
    elif fmt == "csv":
        print(",".join(values))
    else:
        rows = [[str(n), v] for n, v in enumerate(values)]
        print(_align_table(["n", "value"], rows))


class _Decimals(dict):
    """Decimal text of ints, each distinct value rendered once.

    One is made per rendered report: rows repeat values (prop9 at n has
    (n+1)^2 product rows over 2n+1 distinct H entries, and conjecture 8's
    ratio rows repeat h and h**).
    """

    def __missing__(self, value: int) -> str:
        text = self[value] = _decimal(value)
        return text


def _sides(lhs: int, rhs: int, text: _Decimals) -> tuple[str, str, bool]:
    """Both sides of a row as decimal text, and whether they are equal."""
    if lhs == rhs:
        lhs = text[lhs]
        return lhs, lhs, True
    return text[lhs], text[rhs], False


# JSON is written here as ``json.dumps(..., indent=2)`` writes it, byte for
# byte: with an indent, CPython skips its C encoder for a generator-based
# Python one that took a third of a sweep's time.  Every value is a string
# (escaped by json's own C routine), a decimal in quotes, true, false or null.


def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of rendered items whose opening bracket sits at indent pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_object(fields: dict[str, str], pad: str) -> str:
    """A JSON object of rendered values under plain ASCII keys, opened at indent pad."""
    inner = "\n" + pad + "  "
    body = ("," + inner).join(f'"{key}": {value}' for key, value in fields.items())
    return "{" + inner + body + "\n" + pad + "}"


def _report_json(report: ConjectureReport, pad: str) -> str:
    """The report as JSON opened at indent pad; integers are decimal strings."""
    text = _Decimals()
    lead = "\n" + pad + "      "  # a row's fields: report, checks list, row
    sep = "," + lead
    close = "\n" + pad + "    }"
    rows = []
    for n, claim, lhs, rhs in report.rows():
        lhs, rhs, passed = _sides(lhs, rhs, text)
        rows.append(
            f'{{{lead}"n": "{n}"{sep}"claim": {_json_string(claim)}{sep}"lhs": "{lhs}"'
            f'{sep}"rhs": "{rhs}"{sep}"pass": {"true" if passed else "false"}{close}'
        )
    params = report.params
    return _json_object({
        "conjecture": _json_string(report.conjecture_id),
        "alpha": "null" if params is None else f'"{_decimal(params.alpha)}"',
        "beta": "null" if params is None else f'"{_decimal(params.beta)}"',
        "depth": f'"{report.depth}"',
        "checks": _json_list(rows, pad + "  "),
        "all_pass": "true" if report.all_pass else "false",
        "notes": _json_list([_json_string(note) for note in report.notes], pad + "  "),
    }, pad)


def _report_csv(report: ConjectureReport) -> str:
    params = report.params
    alpha = "" if params is None else _decimal(params.alpha)
    beta = "" if params is None else _decimal(params.beta)
    text = _Decimals()
    rows = []
    for n, claim, lhs, rhs in report.rows():
        lhs, rhs, passed = _sides(lhs, rhs, text)
        rows.append([
            report.conjecture_id, alpha, beta, str(report.depth), str(n), claim,
            lhs, rhs, "true" if passed else "false",
        ])
    header = ["conjecture", "alpha", "beta", "depth", "n", "claim", "lhs", "rhs", "pass"]
    return _csv_text(header, rows)


def render_report(report: ConjectureReport, fmt: str) -> str:
    """Render a verification report in the requested format."""
    if fmt == "json":
        return _report_json(report, "")
    if fmt == "csv":
        return _report_csv(report)
    params = report.params
    heading = f"conjecture {report.conjecture_id}"
    if params is not None:
        heading += f": alpha={_decimal(params.alpha)} beta={_decimal(params.beta)}"
    heading += f" depth={report.depth}"
    lines = [heading]
    for note in report.notes:
        lines.append(f"note: {note}")
    text = _Decimals()
    rows = []
    passed = 0
    for n, claim, lhs, rhs in report.rows():
        lhs, rhs, ok = _sides(lhs, rhs, text)
        passed += ok
        rows.append([str(n), claim, lhs, rhs, "ok" if ok else "FAIL"])
    lines.append(_align_table(["n", "claim", "lhs", "rhs", "status"], rows))
    verdict = "all checks passed" if passed == len(rows) else "CHECKS FAILED"
    lines.append(f"{verdict} ({passed}/{len(rows)})")
    return "\n".join(lines)


def _sweep_json(result: SweepResult, full: bool) -> str:
    """The sweep as JSON; with full, every report, not just the counterexamples."""
    pad = "    "  # a report or skipped point is an item of a list under the sweep
    skipped = [
        _json_object({"alpha": f'"{_decimal(p.alpha)}"', "beta": f'"{_decimal(p.beta)}"'}, pad)
        for p in result.skipped
    ]
    fields = {
        "conjecture": _json_string(result.conjecture_id),
        "depth": f'"{result.depth}"',
        "grid_points": f'"{len(result.grid)}"',
        "checked": f'"{len(result.reports)}"',
        "skipped": _json_list(skipped, "  "),
        "counterexamples": _json_list(
            [_report_json(r, pad) for r in result.counterexamples], "  "
        ),
        "all_pass": "false" if result.counterexamples else "true",
    }
    if full:
        fields["reports"] = _json_list([_report_json(r, pad) for r in result.reports], "  ")
    return _json_object(fields, "")


def _render_sweep(result: SweepResult, fmt: str, full: bool) -> str:
    if fmt == "json":
        return _sweep_json(result, full)
    if fmt == "csv":
        evaluated = {
            (r.params.alpha, r.params.beta): "pass" if r.all_pass else "fail"
            for r in result.reports
            if r.params is not None
        }
        rows = [
            [
                result.conjecture_id, _decimal(point.alpha), _decimal(point.beta),
                str(result.depth), evaluated.get((point.alpha, point.beta), "skipped"),
            ]
            for point in result.grid
        ]
        return _csv_text(["conjecture", "alpha", "beta", "depth", "status"], rows)
    lines = [
        f"conjecture {result.conjecture_id}: depth={result.depth}"
        f" grid={len(result.grid)} checked={len(result.reports)}"
        f" skipped={len(result.skipped)}"
        f" counterexamples={len(result.counterexamples)}"
    ]
    for report in result.counterexamples:
        lines.append("")
        lines.append(render_report(report, "table"))
    if not result.counterexamples:
        lines.append("no counterexamples")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# command handlers


def _cmd_expand(args: argparse.Namespace) -> int:
    _require_one_source(args)
    if args.gf:
        series = expand_gf(args.gf, args.order)
    else:
        series = family_base_ogf(_family_params(args), args.order)
    _emit_values(series.coefficient_strings(), args.format)
    return 0


def _cmd_revert(args: argparse.Namespace) -> int:
    _require_one_source(args)
    if args.gf:
        values = expand_gf(args.gf, args.order).revert().coefficient_strings()
    else:
        params = _family_params(args)
        if args.order < 0:
            raise ValueError("order must be non-negative")
        terms = family_reversion_terms(params, args.order + 1)
        values = [_decimal(t) for t in terms]
    _emit_values(values, args.format)
    return 0


def _cmd_hankel(args: argparse.Namespace) -> int:
    terms, depth = _sequence_from_args(args, 1)
    transform = hankel_transform(terms, depth)
    _emit_values([_decimal(v) for v in transform], args.format)
    return 0


def _cmd_triple(args: argparse.Namespace) -> int:
    terms, depth = _sequence_from_args(args, 3)
    triple = hankel_triple(terms, depth)
    if args.format == "json":
        print(json.dumps({
            "depth": str(triple.depth),
            "h": [_decimal(v) for v in triple.h],
            "h_star": [_decimal(v) for v in triple.h_star],
            "h_star_star": [_decimal(v) for v in triple.h_star_star],
        }))
        return 0
    header = ["n", "h", "h_star", "h_star_star"]
    rows = [[_decimal(v) for v in row] for row in triple.rows()]
    print(_csv_text(header, rows) if args.format == "csv" else _align_table(header, rows))
    return 0


def _cmd_binomial(args: argparse.Namespace) -> int:
    terms = _parse_sequence(args.seq)
    result = inverse_binomial_transform(terms) if args.inverse else binomial_transform(terms)
    _emit_values([_decimal(v) for v in result], args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    conjecture = CONJECTURES[args.conjecture]
    for name in conjecture.parameters:
        if getattr(args, name) is None:
            raise ValueError(f"conjecture {args.conjecture} needs --{name}")
    report = conjecture.verify(args.alpha, args.beta, args.depth, args.order)
    print(render_report(report, args.format))
    return 0 if report.all_pass else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    alpha_range = _parse_range(args.alpha_range)
    beta_range = _parse_range(args.beta_range) if args.beta_range else None
    result = sweep(args.conjecture, alpha_range, beta_range, args.depth)
    print(_render_sweep(result, args.format, args.full))
    return 0 if not result.counterexamples else 1


def _cmd_oeis(args: argparse.Namespace) -> int:
    from hankelrev import oeis

    terms = _parse_sequence(args.seq)
    mode = "offline" if args.offline else "online"
    try:
        matches = oeis.lookup(terms, mode=mode)
    except oeis.OeisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [[m.id, str(m.matched_prefix_length), m.name] for m in matches]
    if args.format == "json":
        entries = [{"id": i, "name": name, "matched_prefix_length": k} for i, k, name in rows]
        print(json.dumps(entries, indent=2))
    elif args.format == "csv":
        print(_csv_text(["id", "matched_prefix_length", "name"], rows))
    elif not matches:
        print("no matches")
    else:
        print(_align_table(["id", "matched", "name"], rows))
    return 0


# ----------------------------------------------------------------------
# parser assembly


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("A", "B", "C"), help="use a built-in family")
    parser.add_argument("--alpha", type=_parse_int, help="family parameter alpha")
    parser.add_argument("--beta", type=_parse_int, help="family parameter beta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelrev",
        description="Exact Hankel/binomial transforms, series reversion, and"
        " verification of reversion/Hankel identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, handler in (
        ("expand", "expand a generating function to a series", _cmd_expand),
        ("revert", "compositional inverse of a series", _cmd_revert),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--gf", help="generating-function expression")
        _add_family_options(p)
        p.add_argument("--order", type=int, required=True, help="truncation order")
        _add_format(p)
        p.set_defaults(handler=handler)

    for name, summary, handler in (
        ("hankel", "Hankel transform of a sequence", _cmd_hankel),
        ("triple", "Hankel transforms of a sequence and its two shifts", _cmd_triple),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seq", help="comma-separated integers, or - for stdin")
        p.add_argument("--gf", help="derive the sequence from an expression")
        _add_family_options(p)
        p.add_argument("--depth", type=int, help="transform depth (default: deepest available)")
        _add_format(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("binomial", help="binomial transform of a sequence")
    p.add_argument("--seq", required=True, help="comma-separated integers, or - for stdin")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    _add_format(p)
    p.set_defaults(handler=_cmd_binomial)

    p = sub.add_parser("verify", help="verify one identity set at fixed parameters")
    p.add_argument(
        "--conjecture",
        required=True,
        # prop9 has its own subcommand, sized by --n
        choices=tuple(cid for cid in CONJECTURES if cid != "prop9"),
        help="which identity set to check",
    )
    p.add_argument("--alpha", type=_parse_int, help="family parameter alpha")
    p.add_argument("--beta", type=_parse_int, help="family parameter beta")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="check depth")
    p.add_argument(
        "--order",
        type=int,
        default=DEFAULT_SHIFT_ORDER,
        help="series order for alpha_shift",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="verify one identity set over a parameter grid")
    p.add_argument(
        "--conjecture",
        required=True,
        choices=SWEEPABLE,
        help="which identity set to sweep",
    )
    p.add_argument("--alpha-range", default="-5:5", help="inclusive range LO:HI")
    p.add_argument("--beta-range", help="inclusive range LO:HI")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="check depth")
    p.add_argument("--full", action="store_true", help="include every report in json output")
    _add_format(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("prop9", help="verify the scaled-Catalan factorization H = T*T^t")
    p.add_argument("--alpha", type=_parse_int, required=True, help="scale parameter")
    p.add_argument(
        "--n", type=int, default=DEFAULT_DEPTH, dest="depth", metavar="N", help="matrix index"
    )
    _add_format(p)
    # verify under its own name: no --beta, and --n for the depth
    p.set_defaults(handler=_cmd_verify, conjecture="prop9", beta=None, order=None)

    p = sub.add_parser("oeis", help="identify a sequence prefix")
    p.add_argument("--seq", required=True, help="comma-separated integers, or - for stdin")
    p.add_argument(
        "--offline",
        action="store_true",
        help="consult only the cache and bundled fixtures",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_oeis)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`, built once per process."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # the reader closed stdout: not a fault of the program, see main
    except Exception:
        traceback.print_exc()
        print("error: internal error (see the traceback above)", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``).  What is still buffered goes
        # to the null device, so the interpreter's final flush does not raise
        # again; 141 = 128 + SIGPIPE, what a shell reports for that death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
