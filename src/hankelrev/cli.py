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
prints no passing row).  One generator walks ``report.rows()``, in the
order the report gives, and yields its rows as text,
``(n, claim, lhs, rhs, passed)``; it renders each distinct value once
per report and makes no ``Check``.  Three writers print rows, an
aligned table, CSV and JSON, for reports and sweeps and for the value
tables of the other commands alike.  Each makes
its line template once (the column widths, a report's fixed CSV prefix,
the JSON text around a claim label) and writes each line to stdout as
it makes it, rather than joining the whole output first.  JSON is byte for byte
what ``json.dumps(..., indent=2)`` would print, and CSV what
``csv.writer`` would write; only free text (ids, claim labels, OEIS
names) is ever quoted.

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
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from hankelrev.conjectures import (
    CONJECTURES,
    DEFAULT_DEPTH,
    SWEEPABLE,
    ConjectureReport,
    SweepResult,
    sweep,
)
from hankelrev.families import FamilyParams, family_base_ogf, family_reversion_terms
from hankelrev.gf import eval_gf, expand_gf, parse_gf
from hankelrev.hankel import (
    binomial_transform,
    hankel_transform,
    hankel_triple,
    inverse_binomial_transform,
)
from hankelrev.series import _decimal, _parse_int

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


class _Memo(dict):
    """The values of a one-argument function, each computed at the first
    lookup of its argument.  A report gets its own: rows repeat values
    (prop9 at n has (n+1)^2 product rows over 2n+1 distinct H entries, and
    conjecture 8's ratio rows repeat h and h**), and claims repeat labels."""

    __slots__ = ("function",)

    def __init__(self, function: Callable[[Any], str]) -> None:
        self.function = function

    def __missing__(self, key: Any) -> str:
        value = self[key] = self.function(key)
        return value


def _csv_field(text: str) -> str:
    """Free text (an id, a claim label, an OEIS name) as a CSV field, byte
    for byte as ``csv.writer`` writes it: with a comma, a quote or LF, it
    is quoted and its quotes doubled.  Text with CR or NUL goes through the
    writer, whose rules for those differ between Python versions."""
    if "\r" in text or "\0" in text:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text])
        return buffer.getvalue()[:-1]
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(header: Sequence[str], rows: list[Sequence[str]]) -> None:
    """Columns two spaces apart, each as wide as its widest cell, and no
    blanks at the end of a line."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    template = "  ".join([*(f"{{:{width}}}" for width in widths[:-1]), "{}"])
    write = sys.stdout.write
    for row in (header, *rows):
        write(template.format(*row).rstrip() + "\n")


def _write_csv(header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    """CSV lines of cells that need no quoting (free text has been through
    :func:`_csv_field`)."""
    write = sys.stdout.write
    write(",".join(header) + "\n")
    for row in rows:
        write(",".join(row) + "\n")


def _write_values(values: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(values))
    elif fmt == "csv":
        print(",".join(values))
    else:
        _write_table(("n", "value"), [(str(n), v) for n, v in enumerate(values)])


def _rendered_rows(report: ConjectureReport) -> Iterator[tuple[str, str, str, str, bool]]:
    """(n, claim, lhs, rhs, passed) for each row of ``report.rows()``, in
    its order, with n and both sides as decimal text.  A passing row's two
    sides are one text, looked up once."""
    text = _Memo(_decimal)
    for n, label, left, right in report.rows():
        if left == right:
            left = text[left]
            yield str(n), label, left, left, True
        else:
            yield str(n), label, text[left], text[right], False


def _parameters(report: ConjectureReport) -> tuple[str, str] | None:
    """alpha and beta as decimal text, or None for a report without them."""
    params = report.params
    return None if params is None else (_decimal(params.alpha), _decimal(params.beta))


def _report_table(report: ConjectureReport) -> None:
    params = _parameters(report)
    heading = f"conjecture {report.conjecture_id}"
    if params is not None:
        heading += f": alpha={params[0]} beta={params[1]}"
    write = sys.stdout.write
    write(f"{heading} depth={report.depth}\n")
    for note in report.notes:
        write(f"note: {note}\n")
    status = ("FAIL", "ok")
    rows = [(n, claim, lhs, rhs, status[ok]) for n, claim, lhs, rhs, ok in _rendered_rows(report)]
    _write_table(("n", "claim", "lhs", "rhs", "status"), rows)
    passed = len(rows) if report.all_pass else [row[4] for row in rows].count("ok")
    verdict = "all checks passed" if passed == len(rows) else "CHECKS FAILED"
    write(f"{verdict} ({passed}/{len(rows)})\n")


def _report_csv(report: ConjectureReport) -> None:
    alpha, beta = _parameters(report) or ("", "")
    prefix = f"{_csv_field(report.conjecture_id)},{alpha},{beta},{report.depth},"
    labels = _Memo(_csv_field)
    ends = (",false\n", ",true\n")
    write = sys.stdout.write
    write("conjecture,alpha,beta,depth,n,claim,lhs,rhs,pass\n")
    for n, claim, lhs, rhs, ok in _rendered_rows(report):
        write(f"{prefix}{n},{labels[claim]},{lhs},{rhs}{ends[ok]}")


# JSON is written here as ``json.dumps(..., indent=2)`` writes it, byte for
# byte: with an indent, CPython skips its C encoder for a generator-based
# Python one that took a third of a sweep's time.  Every value is a string
# (escaped by json's own C routine), a decimal in quotes, true, false or
# null.  A JSON writer starts at its opening bracket and stops after its
# closing one; ``pad`` is the indent of the line that holds both.


def _json_list(items: Iterable[Any], pad: str, write_item: Callable[[Any, str], None]) -> None:
    """A JSON array; ``write_item(item, inner)`` writes each item, at indent inner."""
    write = sys.stdout.write
    inner = pad + "  "
    lead = "[\n" + inner
    for item in items:
        write(lead)
        write_item(item, inner)
        lead = ",\n" + inner
    write("[]" if lead[0] == "[" else "\n" + pad + "]")


def _report_json(report: ConjectureReport, pad: str) -> None:
    """The report as JSON; integers are decimal strings."""
    params = _parameters(report)
    alpha, beta = ("null", "null") if params is None else (f'"{params[0]}"', f'"{params[1]}"')
    field = ",\n" + pad + "  "
    write = sys.stdout.write
    write(
        f'{{\n{pad}  "conjecture": {_json_string(report.conjecture_id)}{field}"alpha": {alpha}'
        f'{field}"beta": {beta}{field}"depth": "{report.depth}"{field}"checks": '
    )
    sep = ",\n" + pad + "      "  # between a row's fields: report, checks list, row
    labels = _Memo(lambda label: f'{sep}"claim": {_json_string(label)}{sep}"lhs": "')
    ends = (f'"{sep}"pass": false\n{pad}    }}', f'"{sep}"pass": true\n{pad}    }}')
    lead, rest = f"[\n{pad}    {{{sep[1:]}", f",\n{pad}    {{{sep[1:]}"
    for n, claim, lhs, rhs, ok in _rendered_rows(report):
        write(f'{lead}"n": "{n}"{labels[claim]}{lhs}"{sep}"rhs": "{rhs}{ends[ok]}')
        lead = rest
    write("[]" if lead[0] == "[" else f"\n{pad}  ]")
    write(f'{field}"all_pass": {"true" if report.all_pass else "false"}{field}"notes": ')
    _json_list(report.notes, pad + "  ", lambda note, _: write(_json_string(note)))
    write(f"\n{pad}}}")


def render_report(report: ConjectureReport, fmt: str) -> None:
    """Write a verification report to stdout in the requested format."""
    if fmt == "json":
        _report_json(report, "")
        sys.stdout.write("\n")
    elif fmt == "csv":
        _report_csv(report)
    else:
        _report_table(report)


def _point_json(point: FamilyParams, pad: str) -> None:
    alpha, beta = _decimal(point.alpha), _decimal(point.beta)
    sys.stdout.write(f'{{\n{pad}  "alpha": "{alpha}",\n{pad}  "beta": "{beta}"\n{pad}}}')


def _render_sweep(result: SweepResult, fmt: str, full: bool) -> None:
    """Write the sweep to stdout; with full, its JSON holds every report,
    not just the counterexamples."""
    write = sys.stdout.write
    if fmt == "json":
        write(
            f'{{\n  "conjecture": {_json_string(result.conjecture_id)},\n  "depth": "{result.depth}"'
            f',\n  "grid_points": "{len(result.grid)}",\n  "checked": "{len(result.reports)}"'
            ',\n  "skipped": '
        )
        _json_list(result.skipped, "  ", _point_json)
        write(',\n  "counterexamples": ')
        _json_list(result.counterexamples, "  ", _report_json)
        write(f',\n  "all_pass": {"false" if result.counterexamples else "true"}')
        if full:
            write(',\n  "reports": ')
            _json_list(result.reports, "  ", _report_json)
        write("\n}\n")
    elif fmt == "csv":
        status = {
            (r.params.alpha, r.params.beta): "pass" if r.all_pass else "fail"
            for r in result.reports
            if r.params is not None
        }
        cid, depth = _csv_field(result.conjecture_id), str(result.depth)
        _write_csv(("conjecture", "alpha", "beta", "depth", "status"), (
            (cid, _decimal(p.alpha), _decimal(p.beta), depth, status.get((p.alpha, p.beta), "skipped"))
            for p in result.grid
        ))
    else:
        write(
            f"conjecture {result.conjecture_id}: depth={result.depth}"
            f" grid={len(result.grid)} checked={len(result.reports)}"
            f" skipped={len(result.skipped)}"
            f" counterexamples={len(result.counterexamples)}\n"
        )
        for report in result.counterexamples:
            write("\n")
            render_report(report, "table")
        if not result.counterexamples:
            write("no counterexamples\n")


# ----------------------------------------------------------------------
# command handlers


def _cmd_expand(args: argparse.Namespace) -> int:
    _require_one_source(args)
    if args.gf:
        series = expand_gf(args.gf, args.order)
    else:
        series = family_base_ogf(_family_params(args), args.order)
    _write_values(series.coefficient_strings(), args.format)
    return 0


def _cmd_revert(args: argparse.Namespace) -> int:
    _require_one_source(args)
    source = parse_gf(args.gf) if args.gf else _family_params(args)
    if args.order < 0:
        raise ValueError("order must be non-negative")
    if args.gf:
        # expanded to x^1 at least: reversibility is read off that coefficient
        series = eval_gf(source, max(args.order, 1)).revert()
        values = series.coefficient_strings()[: args.order + 1]
    else:
        values = [_decimal(t) for t in family_reversion_terms(source, args.order + 1)]
    _write_values(values, args.format)
    return 0


def _cmd_hankel(args: argparse.Namespace) -> int:
    terms, depth = _sequence_from_args(args, 1)
    transform = hankel_transform(terms, depth)
    _write_values([_decimal(v) for v in transform], args.format)
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
    rows = [list(map(_decimal, row)) for row in triple.rows()]
    (_write_csv if args.format == "csv" else _write_table)(("n", "h", "h_star", "h_star_star"), rows)
    return 0


def _cmd_binomial(args: argparse.Namespace) -> int:
    terms = _parse_sequence(args.seq)
    result = inverse_binomial_transform(terms) if args.inverse else binomial_transform(terms)
    _write_values([_decimal(v) for v in result], args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    conjecture = CONJECTURES[args.conjecture]
    for name in ("alpha", "beta"):
        if (getattr(args, name) is None) == (name in conjecture.parameters):
            verb = "needs" if name in conjecture.parameters else "takes no"
            raise ValueError(f"conjecture {args.conjecture} {verb} --{name}")
    report = conjecture.verify(args.alpha, args.beta, args.depth)
    render_report(report, args.format)
    return 0 if report.all_pass else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    alpha_range = _parse_range(args.alpha_range)
    beta_range = _parse_range(args.beta_range) if args.beta_range else None
    result = sweep(args.conjecture, alpha_range, beta_range, args.depth)
    _render_sweep(result, args.format, args.full)
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
        fields = [(_csv_field(i), k, _csv_field(name)) for i, k, name in rows]
        _write_csv(("id", "matched_prefix_length", "name"), fields)
    elif not matches:
        print("no matches")
    else:
        _write_table(("id", "matched", "name"), rows)
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
    p.set_defaults(handler=_cmd_verify, conjecture="prop9", beta=None)

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
