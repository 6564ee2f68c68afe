"""End-to-end command-line behavior, including exit codes."""

import argparse
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelrev import (
    CONJECTURES,
    Check,
    ConjectureReport,
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    SWEEPABLE,
    SweepResult,
    prop9_verify,
    sweep,
    verify_anchors,
    verify_conjecture4,
    verify_conjecture8,
)
from hankelrev import cli, conjectures, series
from hankelrev.cli import render_report, run
from hankelrev.conjectures import CLAIM_C8_H, CLAIM_C8_HSS, CLAIM_C8_HSTAR, Block, Claim
from hankelrev.series import _decimal
from oracles import (
    align_table_ref,
    csv_text_ref,
    report_text_ref,
    row_blocks,
    sweep_text_ref,
    values_text_ref,
)

SRC = Path(__file__).resolve().parents[1] / "src"

WORKED_TABLE = (
    "n,h,h_star,h_star_star\n"
    "0,0,1,-3\n"
    "1,-1,-5,-70\n"
    "2,-15,-125,7125\n"
    "3,1750,15625,3765625\n"
    "4,890625,9765625,-9843750000\n"
    "5,-2353515625,-30517578125,-129058837890625\n"
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed(write, *args):
    """What a writer of the CLI (``render_report``, ``_render_sweep``) prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(*args)
    return out.getvalue()


# every report command in every format; tests/reports.txt holds the output
# of each, frozen: a change to any row, label, value or order shows here
REPORT_COMMANDS = [
    f"{command} --format {fmt}"
    for command in (
        "verify --conjecture 4 --alpha=-3 --beta=-5 --depth 3",
        "verify --conjecture 4 --alpha 0 --beta 1 --depth 3",
        "verify --conjecture 6 --alpha 3 --beta 3 --depth 3",
        "verify --conjecture 6 --alpha 2 --beta 5 --depth 3",
        "verify --conjecture 8 --alpha 7 --depth 3",
        "verify --conjecture alpha_shift --alpha 1 --beta 2 --depth 3",
        "verify --conjecture anchors --depth 3",
        "prop9 --alpha=-3 --n 4",
        "sweep --conjecture 4 --alpha-range=0:1 --beta-range=0:1 --depth 2 --full",
        "sweep --conjecture prop9 --alpha-range=0:1 --depth 2 --full",
        "sweep --conjecture alpha_shift --alpha-range=1:1 --beta-range=0:1 --depth 2 --full",
    )
    for fmt in ("table", "json", "csv")
]


def frozen_reports():
    """Command line -> (exit code, stdout) from tests/reports.txt.

    Each block is a ``$ hankelrev ARGS`` line, the stdout, and ``[exit N]``.
    """
    text = (Path(__file__).parent / "reports.txt").read_text()
    frozen = {}
    for block in text.split("$ hankelrev ")[1:]:
        command, rest = block.split("\n", 1)
        stdout, code = rest.rsplit("[exit ", 1)
        frozen[command] = (int(code.rstrip("]\n")), stdout)
    return frozen


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_matches_frozen_output(capsys, command):
    code, out, err = invoke(capsys, *shlex.split(command))
    assert ((code, out), err) == (frozen_reports()[command], "")


def test_help_matches_frozen_output(capsys, monkeypatch):
    # tests/help.txt holds `hankelrev --help` and the help of each
    # subcommand at 80 columns, each after a `$ hankelrev ARGS` line.
    # argparse 3.13 wraps a usage line by whole action parts, so `...`
    # stays on the line of the subcommand list; tests/help-3.13.txt holds
    # that layout.  The formatter method that does it picks the file.
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for command in (
        "", "expand", "revert", "hankel", "triple", "binomial", "verify", "sweep", "prop9", "oeis",
    ):
        argv = f"{command} --help".split()
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        blocks.append(f"$ hankelrev {' '.join(argv)}\n{out}")
    whole_parts = hasattr(argparse.HelpFormatter, "_get_actions_usage_parts")
    frozen = "help-3.13.txt" if whole_parts else "help.txt"
    assert "".join(blocks) == (Path(__file__).parent / frozen).read_text()


class TestExpand:
    def test_gf_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--gf", "x/(1-3*x-5*x^2)", "--order", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1,3,14,57,241\n"

    def test_family_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--family", "A", "--alpha=-3", "--beta=-5",
            "--order", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "0,1,3,14,57,241\n"

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "expand", "--gf", "1/(1-x)", "--order", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == ["1", "1", "1", "1"]

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "expand", "--gf", "1/(1-x)", "--order", "2")
        assert code == 0
        assert out == "n  value\n0  1\n1  1\n2  1\n"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = invoke(
            capsys, "expand", "--gf", "x", "--family", "A", "--alpha", "1",
            "--order", "3",
        )
        assert code == 2
        assert "error: provide exactly one of --gf, --family" in err

    def test_gf_syntax_error_exits_2(self, capsys):
        code, _, err = invoke(capsys, "expand", "--gf", "x^", "--order", "3")
        assert code == 2
        assert "syntax error at offset 2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(" * 300 + "x" + ")" * 300, "offset 100: parentheses nested more than 100 deep"),
            # the byte 0xff, as Python decodes it from argv
            ("1+\udcff", "offset 2: unexpected character '\\udcff'"),
        ],
        ids=["300-parentheses", "lone-surrogate"],
    )
    def test_hostile_gf_is_a_usage_error(self, capsys, text, message):
        code, out, err = invoke(capsys, "expand", "--gf", text, "--order", "1")
        assert (code, out) == (2, "")
        assert err == f"error: syntax error at {message}\n"


class TestOperatorChains:
    # the parser builds a chain as a left-deep tree, one node per operand:
    # 3000 operands are three times Python's default recursion limit
    @pytest.mark.parametrize("gf, short", [
        ("+".join(["x"] * 3000), "3000*x"),
        ("-".join(["x"] * 3000), "-2998*x"),
        ("*".join(["x"] + ["2"] * 2999), f"{2**2999}*x"),
        # a divisor that holds a sqrt is walked to find it
        ("x/(" + "+".join(["x"] * 2999) + "+sqrt(1+x)-1)", "x/(2999*x+sqrt(1+x)-1)"),
    ], ids=["sum", "difference", "product", "sqrt-divisor"])
    def test_long_chain_exits_0(self, capsys, gf, short):
        code, out, err = invoke(capsys, "expand", f"--gf={gf}", "--order", "4", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == invoke(capsys, "expand", f"--gf={short}", "--order", "4", "--format", "csv")[1]

    @pytest.mark.parametrize("gf, code, out, err", [
        ("/".join(["1"] * 3000), 0, "1,0,0\n", ""),
        # each divisor x raises the order of everything to its left by one
        ("x^3000/" + "/".join(["x"] * 3000), 0, "1,0,0\n", ""),
        # the numerator's error comes before those of its divisors
        ("sqrt(4)/" + "/".join(["0"] * 3000), 2, "", "error: sqrt requires unit constant term\n"),
        ("1/" + "/".join(["0"] * 3000), 2, "", "error: non-invertible series\n"),
    ], ids=["ones", "powers-of-x", "numerator-error", "zero-divisors"])
    def test_long_quotient_chain(self, capsys, gf, code, out, err):
        assert invoke(capsys, "expand", f"--gf={gf}", "--order", "2", "--format", "csv") == (
            code, out, err
        )


class TestRevert:
    def test_gf(self, capsys):
        code, out, _ = invoke(
            capsys, "revert", "--gf", "x/(1-3*x-5*x^2)", "--order", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1,-3,4,18,-139\n"

    def test_family(self, capsys):
        code, out, _ = invoke(
            capsys, "revert", "--family", "C", "--alpha", "2", "--order", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1,2,8,40,224\n"

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("table", "n  value\n0  0\n1  1\n2  0\n3  0\n4  0\n5  0\n"),
            ("csv", "0,1,0,0,0,0\n"),
        ],
    )
    def test_family_c_at_zero_alpha_is_x(self, capsys, fmt, expected):
        # the base f = x reverts to x
        family = invoke(
            capsys, "revert", "--family", "C", "--alpha", "0", "--order", "5", "--format", fmt
        )
        gf = invoke(capsys, "revert", "--gf", "x", "--order", "5", "--format", fmt)
        assert family == gf == (0, expected, "")

    @pytest.mark.parametrize(
        "argv",
        [("verify", "--conjecture", "8", "--alpha", "0"), ("prop9", "--alpha", "0")],
        ids=["conjecture-8", "prop9"],
    )
    def test_conjectures_on_family_c_still_refuse_zero_alpha(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert "error: alpha must be nonzero" in err

    def test_family_without_alpha_exits_2(self, capsys):
        argv = ("revert", "--family", "A", "--order", "3")
        assert invoke(capsys, *argv) == (2, "", "error: --family needs --alpha\n")

    def test_non_reversible_input_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "revert", "--gf", "1+x", "--order", "4", "--format", "csv",
        )
        assert code == 2
        assert "error: series not reversible" in err

    def test_gf_at_order_0_is_read_off_x(self, capsys):
        # an order-0 expansion has no x^1 coefficient to check; the family
        # A series at alpha = beta = 1 is x/(1+x+x^2)
        family = invoke(capsys, "revert", "--family", "A", "--alpha", "1", "--beta", "1",
                        "--order", "0")
        gf = invoke(capsys, "revert", "--gf", "x/(1+x+x^2)", "--order", "0")
        assert family == gf == (0, "n  value\n0  0\n", "")

    @pytest.mark.parametrize("gf, order, message", [
        ("x^2", "0", "series not reversible"),
        ("1+x", "0", "series not reversible"),
        ("x", "-1", "order must be non-negative"),
    ])
    def test_gf_refused_at_low_order(self, capsys, gf, order, message):
        assert invoke(capsys, "revert", "--gf", gf, "--order", order) == (2, "", f"error: {message}\n")


class TestHankel:
    def test_explicit_depth(self, capsys):
        code, out, _ = invoke(
            capsys, "hankel", "--seq", "1,1,2,5,14,42,132", "--depth", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out == "1,1,1\n"

    def test_depth_defaults_to_deepest_available(self, capsys):
        code, out, _ = invoke(
            capsys, "hankel", "--seq", "1,2,6,20,70,252,924", "--format", "csv",
        )
        assert code == 0
        assert out == "1,2,4,8\n"

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0,1,-3,4,18"))
        code, out, _ = invoke(capsys, "hankel", "--seq", "-", "--format", "csv")
        assert code == 0
        assert out == "0,-1,-15\n"

    def test_empty_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert invoke(capsys, "binomial", "--seq", "-") == (2, "", "error: empty sequence\n")

    def test_invalid_entry_exits_2(self, capsys):
        code, _, err = invoke(capsys, "hankel", "--seq", "1,x,3", "--format", "csv")
        assert code == 2
        assert "error: invalid sequence entry 'x'" in err

    def test_too_few_terms_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "hankel", "--seq", "1,2,3", "--depth", "4", "--format", "csv",
        )
        assert code == 2
        assert "needs at least 9 terms, got 3" in err


class TestTriple:
    def test_family_worked_example(self, capsys):
        code, out, _ = invoke(
            capsys, "triple", "--family", "A", "--alpha=-3", "--beta=-5",
            "--depth", "5", "--format", "csv",
        )
        assert code == 0
        assert out == WORKED_TABLE

    def test_sequence_input(self, capsys):
        code, out, _ = invoke(
            capsys, "triple", "--seq", "0,1,1,2,5,14,42,132,429", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "n,h,h_star,h_star_star\n"
            "0,0,1,1\n"
            "1,-1,1,1\n"
            "2,-2,1,1\n"
            "3,-3,1,1\n"
        )

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = invoke(
            capsys, "triple", "--seq", "0,1,1,2,5,14,42,132,429", "--format", "json",
        )
        assert code == 0
        assert out == (
            '{"depth": "3", "h": ["0", "-1", "-2", "-3"],'
            ' "h_star": ["1", "1", "1", "1"],'
            ' "h_star_star": ["1", "1", "1", "1"]}\n'
        )


class TestBinomial:
    def test_forward(self, capsys):
        code, out, _ = invoke(capsys, "binomial", "--seq", "1,1,1,1", "--format", "csv")
        assert code == 0
        assert out == "1,2,4,8\n"

    def test_inverse(self, capsys):
        code, out, _ = invoke(
            capsys, "binomial", "--seq", "1,2,4,8", "--inverse", "--format", "csv",
        )
        assert code == 0
        assert out == "1,1,1,1\n"


class TestVerify:
    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--conjecture", "4", "--alpha=-3", "--beta=-5",
            "--depth", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjecture"] == "4"
        assert payload["all_pass"] is True
        assert payload["alpha"] == "-3"

    def test_table_verdict(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--conjecture", "8", "--alpha", "2", "--depth", "1",
        )
        assert code == 0
        assert out.splitlines()[-1] == "all checks passed (8/8)"

    def test_anchors_note_shown(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--conjecture", "anchors", "--depth", "2")
        assert code == 0
        assert "note: the transform of the head-zeroed Catalan sequence" in out

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        failing = ConjectureReport(
            conjecture_id="8",
            params=FamilyParams(2, 0, FAMILY_C),
            depth=1,
            blocks=row_blocks([Check(0, "demo claim", 1, 2)]),
        )
        monkeypatch.setattr(conjectures, "verify_conjecture8", lambda a, d: failing)
        code, out, _ = invoke(
            capsys, "verify", "--conjecture", "8", "--alpha", "2", "--depth", "1",
        )
        assert code == 1
        assert "FAIL" in out
        assert out.splitlines()[-1] == "CHECKS FAILED (0/1)"

    def test_precondition_violation_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--conjecture", "4", "--alpha", "1", "--beta", "0",
            "--depth", "3",
        )
        assert code == 2
        assert "error: beta must be nonzero" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = invoke(capsys, "verify", "--conjecture", "4", "--alpha", "1")
        assert code == 2
        assert "error: conjecture 4 needs --beta" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--conjecture", "8", "--alpha", "2", "--beta", "9"), "8 takes no --beta"),
            (("--conjecture", "anchors", "--alpha", "5"), "anchors takes no --alpha"),
            (("--conjecture", "anchors", "--beta", "7"), "anchors takes no --beta"),
        ],
    )
    def test_parameter_the_set_does_not_take_exits_2(self, capsys, argv, name):
        assert invoke(capsys, "verify", *argv) == (2, "", f"error: conjecture {name}\n")

    def test_unknown_conjecture_exits_2(self, capsys):
        code, _, err = invoke(capsys, "verify", "--conjecture", "5", "--alpha", "1")
        assert code == 2
        assert "invalid choice" in err


class TestOverLimitValues:
    """Values past CPython's int->str digit limit (4300 by default)."""

    HUGE = 10**100

    def test_conjecture8_prints_exact_values(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--conjecture", "8", f"--alpha={self.HUGE}",
            "--depth", "6", "--format", "csv",
        )
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(row[-1] == "true" for row in rows)
        by_claim = {(row[5], int(row[4])): row[6] for row in rows}
        # alpha^((n+1)^2) = 10^(100 (n+1)^2): 4901 digits at n = 6
        assert by_claim[(CLAIM_C8_HSS, 6)] == "1" + "0" * 4900
        assert by_claim[(CLAIM_C8_HSTAR, 6)] == "1" + "0" * 4200
        assert by_claim[(CLAIM_C8_H, 6)] == "-6" + "0" * 3500

    @pytest.mark.parametrize(
        "argv",
        [
            ("prop9", f"--alpha={10**120}", "--n", "6", "--format", "json"),
            ("triple", "--family", "C", f"--alpha={-10**120}", "--depth", "6"),
            ("revert", "--family", "C", f"--alpha={10**120}", "--order", "40"),
        ],
    )
    def test_other_commands_exit_0(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert max(len(word) for word in out.split()) > 4300


class TestOverLimitInput:
    """Integers past CPython's str->int digit limit (4300 by default) as input."""

    ONES = "1" * 5000  # (10**5000 - 1) / 9

    def test_sequence_entry(self, capsys):
        code, out, err = invoke(
            capsys, "hankel", "--seq", f"{self.ONES},1,1", "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert out == f"{self.ONES},{self.ONES[:-1]}0\n"  # h_1 = ONES - 1

    def test_alpha(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--conjecture", "8", f"--alpha={self.ONES}",
            "--depth", "1", "--format", "csv",
        )
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(row[1] == self.ONES and row[-1] == "true" for row in rows)
        alpha = (10**5000 - 1) // 9
        by_claim = {(row[5], int(row[4])): row[6] for row in rows}
        assert by_claim[(CLAIM_C8_HSTAR, 1)] == _decimal(alpha**2)
        assert by_claim[(CLAIM_C8_H, 1)] == "-1"

    def test_range_bounds(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--conjecture", "8",
            f"--alpha-range=-{self.ONES}:-{self.ONES}", "--depth", "1",
        )
        assert (code, err) == (0, "")
        assert out.startswith("conjecture 8: depth=1 grid=1 checked=1 skipped=0")

    def test_gf_literal(self, capsys):
        literal = "1" + "0" * 4999
        code, out, err = invoke(
            capsys, "expand", "--gf", f"{literal}*x", "--order", "2", "--format", "csv",
        )
        assert (code, out, err) == (0, f"0,{literal},0\n", "")

    def test_range_bounds_in_csv(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--conjecture", "8",
            f"--alpha-range=-{self.ONES}:-{self.ONES}", "--depth", "1", "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert out == f"conjecture,alpha,beta,depth,status\n8,-{self.ONES},0,1,pass\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hankel", "--seq", f"1,{ONES}x"), f"error: invalid sequence entry '{ONES}x'\n"),
            (("sweep", "--conjecture", "8", "--alpha-range=1:2x"),
             "error: invalid --alpha-range '1:2x': expected LO:HI\n"),
            (("sweep", "--conjecture", "4", "--alpha-range=1:", "--beta-range", "1:2"),
             "error: invalid --alpha-range '1:': expected LO:HI\n"),
            (("sweep", "--conjecture", "8", "--alpha-range=:"),
             "error: invalid --alpha-range ':': expected LO:HI\n"),
            (("sweep", "--conjecture", "8", "--alpha-range=1:2:3"),
             "error: invalid --alpha-range '1:2:3': expected LO:HI\n"),
            (("sweep", "--conjecture", "4", "--alpha-range=1:2", "--beta-range=-1:x"),
             "error: invalid --beta-range '-1:x': expected LO:HI\n"),
        ],
    )
    def test_malformed_entry_keeps_its_message(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", message)

    def test_malformed_alpha_keeps_its_message(self, capsys):
        code, _, err = invoke(capsys, "verify", "--conjecture", "8", "--alpha=1_x")
        assert code == 2
        assert err.endswith("error: argument --alpha: invalid int value: '1_x'\n")

    @pytest.mark.parametrize("text", [f"{ONES}", f" -{ONES} ", f"+{ONES[:2000]}_{ONES[2000:]}"])
    def test_parse_int_past_the_limit(self, text):
        value = (10**5000 - 1) // 9
        assert cli._parse_int(text) == (-value if "-" in text else value)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no str->int digit limit"
    )
    def test_parse_int_keeps_a_lowered_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli._parse_int("-1" + "0" * 2000) == -(10**2000)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)


class TestInternalErrors:
    def test_exit_3_with_traceback(self, capsys, monkeypatch):
        def broken(alpha, depth):
            raise ArithmeticError("inexact Bareiss division")

        monkeypatch.setattr(conjectures, "verify_conjecture8", broken)
        code, out, err = invoke(
            capsys, "verify", "--conjecture", "8", "--alpha", "2", "--depth", "1",
        )
        assert code == 3
        assert out == ""
        assert "Traceback" in err
        assert "ArithmeticError: inexact Bareiss division" in err
        assert err.rstrip().endswith("error: internal error (see the traceback above)")


class TestClosedStdout:
    def test_run_lets_a_broken_pipe_through(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            run(["expand", "--gf", "1/(1-x)", "--order", "3"])

    def test_reader_that_stops_early_gets_exit_141_and_no_stderr(self):
        # 20001 rows are far more than a pipe buffer holds, so the writer is
        # still writing when the reader closes its end
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["expand", "--gf", "1/(1-x)", "--order", "20000"]
        process = subprocess.Popen(
            [sys.executable, "-c", "from hankelrev.cli import main; main()", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            first = process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
            code = process.wait(timeout=60)
        finally:
            process.kill()
        assert (code, err) == (141, b"")
        assert first == b"n      value\n"


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--conjecture", "8", "--alpha-range=-2:2",
            "--depth", "2", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "conjecture,alpha,beta,depth,status\n"
            "8,-2,0,2,pass\n"
            "8,-1,0,2,pass\n"
            "8,0,0,2,skipped\n"
            "8,1,0,2,pass\n"
            "8,2,0,2,pass\n"
        )

    def test_json_counts(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--conjecture", "4", "--alpha-range=-1:1",
            "--beta-range=-1:1", "--depth", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["grid_points"] == "9"
        assert payload["checked"] == "6"
        assert payload["all_pass"] is True

    def test_table_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--conjecture", "8", "--alpha-range=-2:2", "--depth", "2",
        )
        assert code == 0
        assert out == (
            "conjecture 8: depth=2 grid=5 checked=4 skipped=1 counterexamples=0\n"
            "no counterexamples\n"
        )

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        point = FamilyParams(1, 0, FAMILY_C)
        failing = ConjectureReport(
            conjecture_id="8",
            params=point,
            depth=1,
            blocks=row_blocks([Check(0, "demo claim", 1, 2)]),
        )
        result = SweepResult(
            conjecture_id="8",
            depth=1,
            grid=(point,),
            reports=(failing,),
            counterexamples=(failing,),
            skipped=(),
        )
        monkeypatch.setattr(cli, "sweep", lambda *a, **k: result)
        code, out, _ = invoke(
            capsys, "sweep", "--conjecture", "8", "--alpha-range", "1:1",
        )
        assert code == 1
        assert "counterexamples=1" in out

    def test_single_value_range(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--conjecture", "8", "--alpha-range", "3",
            "--depth", "2", "--format", "csv",
        )
        assert code == 0
        assert out == "conjecture,alpha,beta,depth,status\n8,3,0,2,pass\n"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = invoke(
            capsys, "sweep", "--conjecture", "8", "--alpha-range", "2:1",
        )
        assert code == 2
        assert "error: empty range '2:1'" in err


def report_payload(report):
    """What a report's JSON must parse to: every integer as its decimal text."""
    params = report.params
    return {
        "conjecture": report.conjecture_id,
        "alpha": None if params is None else _decimal(params.alpha),
        "beta": None if params is None else _decimal(params.beta),
        "depth": str(report.depth),
        "checks": [
            {
                "n": str(c.index),
                "claim": c.claim,
                "lhs": _decimal(c.lhs),
                "rhs": _decimal(c.rhs),
                "pass": c.lhs == c.rhs,
            }
            for c in report.checks
        ],
        "all_pass": all(c.lhs == c.rhs for c in report.checks),
        "notes": list(report.notes),
    }


def sweep_payload(result, full):
    """What a sweep's JSON must parse to."""
    payload = {
        "conjecture": result.conjecture_id,
        "depth": str(result.depth),
        "grid_points": str(len(result.grid)),
        "checked": str(len(result.reports)),
        "skipped": [{"alpha": _decimal(p.alpha), "beta": _decimal(p.beta)} for p in result.skipped],
        "counterexamples": [report_payload(r) for r in result.counterexamples],
        "all_pass": not result.counterexamples,
    }
    if full:
        payload["reports"] = [report_payload(r) for r in result.reports]
    return payload


# text with JSON's escapes (quotes, backslashes, control characters) and
# non-ASCII characters, which are written as \u escapes
_TEXT = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600') | st.characters(),
    max_size=8,
)
# small values, and values past CPython's 4300-digit int->str limit
_VALUES = st.one_of(
    st.integers(),
    st.builds(
        lambda sign, digits, low: sign * (10**digits + low),
        st.sampled_from([1, -1]), st.integers(4300, 4400), st.integers(0, 10**30),
    ),
)
_CSV_CELLS = st.text(st.sampled_from(',"\r\n\x00 1-') | st.characters(), max_size=6)
_PARAMS = st.builds(FamilyParams, _VALUES, _VALUES, st.sampled_from([FAMILY_A, FAMILY_B, FAMILY_C]))


@st.composite
def _blocks(draw):
    """A block of one to three claims over zero to three indices; each rhs
    entry is its lhs entry or a value of its own."""
    count = draw(st.integers(0, 3))
    claims = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.lists(_VALUES, min_size=count, max_size=count))
        rhs = [draw(st.one_of(st.just(x), _VALUES)) for x in lhs]
        claims.append(Claim(draw(_TEXT), tuple(lhs), tuple(rhs)))
    return Block(draw(st.integers(0, 10**6)), tuple(claims))


_REPORTS = st.builds(
    ConjectureReport,
    _TEXT,
    st.none() | _PARAMS,
    st.integers(0, 10**6),
    st.lists(_blocks(), max_size=3).map(tuple),
    st.lists(_TEXT, max_size=3).map(tuple),
)


@st.composite
def _sweeps(draw):
    reports = tuple(draw(st.lists(_REPORTS, max_size=3)))
    skipped = tuple(draw(st.lists(_PARAMS, max_size=3)))
    grid = skipped + tuple(r.params for r in reports if r.params is not None)
    counterexamples = tuple(r for r in reports if not r.all_pass)
    return SweepResult(draw(_TEXT), draw(st.integers(0, 10**6)), grid, reports, counterexamples, skipped)


class TestSerialization:
    def test_report_json_uses_decimal_strings(self):
        payload = json.loads(printed(render_report, verify_conjecture4(-3, -5, 2), "json"))
        assert payload["conjecture"] == "4"
        assert payload["alpha"] == "-3"
        assert payload["beta"] == "-5"
        assert payload["depth"] == "2"
        assert payload["all_pass"] is True
        assert payload["notes"] == []
        first = payload["checks"][0]
        assert set(first) == {"n", "claim", "lhs", "rhs", "pass"}
        assert isinstance(first["lhs"], str)

    def test_report_json_roundtrips(self):
        report = verify_conjecture8(2, 2)
        text = printed(render_report, report, "json")
        assert json.loads(text) == report_payload(report)
        assert text == json.dumps(report_payload(report), indent=2) + "\n"

    def test_anchor_report_has_null_parameters(self):
        payload = json.loads(printed(render_report, verify_anchors(2), "json"))
        assert payload["alpha"] is None
        assert payload["beta"] is None

    def test_report_csv_shape(self):
        text = printed(render_report, verify_conjecture8(2, 1), "csv")
        lines = text.splitlines()
        assert lines[0] == "conjecture,alpha,beta,depth,n,claim,lhs,rhs,pass"
        assert lines[1].startswith("8,2,0,1,0,")
        assert all(line.endswith(",true") for line in lines[1:])

    def test_failing_check_serializes_false(self):
        bad = Check(1, "demo", 5, 7)
        report = ConjectureReport("8", FamilyParams(1, 0, FAMILY_C), 1, row_blocks([bad]))
        assert json.loads(printed(render_report, report, "json"))["checks"][0]["pass"] is False
        assert printed(render_report, report, "csv").splitlines()[1].endswith(",false")

    def test_sweep_json_counts(self):
        result = sweep("4", (-1, 1), (-1, 1), 2)
        payload = json.loads(printed(cli._render_sweep, result, "json", False))
        assert payload["grid_points"] == "9"
        assert payload["checked"] == "6"
        assert payload["skipped"] == [
            {"alpha": "-1", "beta": "0"},
            {"alpha": "0", "beta": "0"},
            {"alpha": "1", "beta": "0"},
        ]
        assert payload["all_pass"] is True
        assert "reports" not in payload
        with_reports = json.loads(printed(cli._render_sweep, result, "json", True))
        assert len(with_reports.pop("reports")) == 6
        assert with_reports == payload

    @given(st.lists(_CSV_CELLS, min_size=2, max_size=4))
    def test_csv_field_is_what_csv_writer_writes(self, row):
        buffer = io.StringIO()
        try:
            csv.writer(buffer, lineterminator="\n").writerow(row)
        except csv.Error:  # Python 3.10 refuses a NUL without an escapechar
            with pytest.raises(csv.Error):
                [cli._csv_field(cell) for cell in row]
            return
        assert ",".join(map(cli._csv_field, row)) + "\n" == buffer.getvalue()

    @given(_REPORTS)
    def test_report_json_is_indented_json_of_its_values(self, report):
        text = printed(render_report, report, "json")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text) == report_payload(report)

    @given(_sweeps(), st.booleans())
    def test_sweep_json_is_indented_json_of_its_values(self, result, full):
        text = printed(cli._render_sweep, result, "json", full)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text) == sweep_payload(result, full)


# a label that csv.writer must quote, JSON must escape and a table prints as is
_HOSTILE_LABEL = 'a,b "c"\nd'


class TestWriterOracle:
    """The streaming writers print what the writers that built each output
    as one string (``tests/oracles.py``) printed, byte for byte."""

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("command, verify", [
        ("verify --conjecture 4 --alpha=-3 --beta=-5 --depth 6", lambda: verify_conjecture4(-3, -5, 6)),
        ("verify --conjecture 6 --alpha 2 --beta 5 --depth 5",
         lambda: CONJECTURES["6"].verify(2, 5, 5)),
        ("verify --conjecture 8 --alpha=-7 --depth 8", lambda: verify_conjecture8(-7, 8)),
        ("verify --conjecture alpha_shift --alpha 1 --beta 2 --depth 4",
         lambda: CONJECTURES["alpha_shift"].verify(1, 2, 4)),
        ("verify --conjecture anchors --depth 5", lambda: verify_anchors(5)),
        ("prop9 --alpha 3 --n 5", lambda: prop9_verify(3, 5)),
    ])
    def test_every_set(self, capsys, fmt, command, verify):
        report = verify()
        assert invoke(capsys, *command.split(), "--format", fmt) == (
            0, report_text_ref(report, fmt) + "\n", ""
        )

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_failing_claim(self, capsys, monkeypatch, fmt):
        real = conjectures._triangular_powers

        def off_by_one(x, count):
            powers = real(x, count)
            powers[-1] += 1
            return powers

        monkeypatch.setattr(conjectures, "_triangular_powers", off_by_one)
        report = verify_conjecture4(-3, -5, 3)
        command = "verify --conjecture 4 --alpha=-3 --beta=-5 --depth 3 --format"
        out = report_text_ref(report, fmt) + "\n"
        assert invoke(capsys, *command.split(), fmt) == (1, out, "")
        assert "CHECKS FAILED (9/10)" in report_text_ref(report, "table")

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_report_with_hostile_text(self, fmt):
        huge = 10**5000 + 1  # past CPython's int->str limit
        checks = (
            Check(0, _HOSTILE_LABEL, 1, 1),
            Check(1, _HOSTILE_LABEL, -2, 3),
            Check(1, "plain", huge, huge),
            Check(7, "a\rb\x00", 5, 5),
        )
        notes = (_HOSTILE_LABEL, "second note")
        for params in (FamilyParams(-(10**40), 3, FAMILY_A), None):
            report = ConjectureReport('x,"y"', params, 2, row_blocks(checks), notes)
            try:
                expected = report_text_ref(report, fmt) + "\n"
            except csv.Error:  # Python 3.10 refuses a NUL without an escapechar
                with pytest.raises(csv.Error):
                    printed(render_report, report, fmt)
                continue
            assert printed(render_report, report, fmt) == expected
        empty = ConjectureReport("0", None, 0, (), ())
        assert printed(render_report, empty, fmt) == report_text_ref(empty, fmt) + "\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_anchor_notes(self, fmt):
        report = verify_anchors(3)
        assert report.notes
        assert printed(render_report, report, fmt) == report_text_ref(report, fmt) + "\n"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("full", [False, True])
    def test_sweep_with_counterexamples(self, capsys, monkeypatch, fmt, full):
        real = conjectures._triangular_powers

        def off_at_beta_one(x, count):
            powers = real(x, count)
            if x == 1:
                powers[-1] += 1
            return powers

        monkeypatch.setattr(conjectures, "_triangular_powers", off_at_beta_one)
        result = sweep("4", (-1, 2), (-1, 1), 3)
        assert result.counterexamples and len(result.counterexamples) < len(result.reports)
        assert result.skipped
        command = "sweep --conjecture 4 --alpha-range=-1:2 --beta-range=-1:1 --depth 3 --format"
        expected = sweep_text_ref(result, fmt, full) + "\n"
        assert invoke(capsys, *command.split(), fmt, *["--full"] * full) == (1, expected, "")

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("argv", [
        "expand --gf 1/(2-x) --order 12",  # Fractions
        "revert --gf 2*x+x^2 --order 6",  # negative Fractions
        "binomial --seq 1,2,3,-4,5 --inverse",  # negatives
        "hankel --seq 1,1,2,5,14,42,132",  # values narrower than the header
        "expand --gf x --order 0",  # one value, narrower than the header
    ])
    def test_value_tables(self, capsys, fmt, argv):
        values = invoke(capsys, *argv.split(), "--format", "csv")[1].rstrip("\n").split(",")
        assert invoke(capsys, *argv.split(), "--format", fmt) == (
            0, values_text_ref(values, fmt) + "\n", ""
        )

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_triple_tables(self, capsys, fmt):
        # the cells of WORKED_TABLE; 0, 1 and -3 are narrower than their headers
        rows = [line.split(",") for line in WORKED_TABLE.splitlines()]
        layout = csv_text_ref if fmt == "csv" else align_table_ref
        argv = "triple --family A --alpha=-3 --beta=-5 --depth 5 --format"
        assert invoke(capsys, *argv.split(), fmt) == (0, layout(rows[0], rows[1:]) + "\n", "")

    @given(
        st.lists(_TEXT, min_size=1, max_size=4).flatmap(lambda header: st.tuples(
            st.just(header),
            st.lists(st.lists(_TEXT, min_size=len(header), max_size=len(header)), max_size=4),
        ))
    )
    def test_table_layout(self, table):
        header, rows = table
        assert printed(cli._write_table, header, rows) == align_table_ref(header, rows) + "\n"


@pytest.fixture
def rendered(monkeypatch):
    """The ints passed to ``series._decimal``, through every module that binds it."""
    values = []
    real = series._decimal

    def counting(value):
        values.append(value)
        return real(value)

    for name, module in list(sys.modules.items()):
        if name.startswith("hankelrev") and getattr(module, "_decimal", None) is real:
            monkeypatch.setattr(module, "_decimal", counting)
    return values


class TestLazyRendering:
    @pytest.mark.parametrize("fmt, coordinates", [("table", []), ("json", [-1, 0, 0, 0, 1, 0])])
    def test_sweep_renders_no_check_value(self, capsys, rendered, fmt, coordinates):
        code, _, _ = invoke(
            capsys, "sweep", "--conjecture", "4", "--alpha-range=-1:1",
            "--beta-range=-1:1", "--depth", "2", "--format", fmt,
        )
        assert code == 0
        # only the skipped points' coordinates become text
        assert rendered == coordinates

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_sweeps_and_reports_make_no_check_row(self, capsys, monkeypatch, fmt):
        made = []
        init = Check.__init__

        def spy(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Check, "__init__", spy)
        for cid in SWEEPABLE:
            result = sweep(cid, (-2, 2), (-2, 2), 3)
            assert result.reports and not result.counterexamples
            printed(cli._render_sweep, result, fmt, False)
            printed(cli._render_sweep, result, fmt, True)
        for command in (
            "verify --conjecture 8 --alpha 2 --depth 3",
            "verify --conjecture anchors",
            "prop9 --alpha 2 --n 3",
            "sweep --conjecture 6 --alpha-range=-2:2 --beta-range=-2:2 --full",
        ):
            assert invoke(capsys, *command.split(), "--format", fmt)[0] == 0
        assert made == []
        # the rows are made when they are asked for
        assert len(verify_conjecture8(2, 3).checks) == len(made) == 18

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize(
        "command, report",
        [
            ("verify --conjecture 8 --alpha 2 --depth 3", lambda: verify_conjecture8(2, 3)),
            ("prop9 --alpha 2 --n 3", lambda: prop9_verify(2, 3)),
        ],
    )
    def test_report_renders_each_distinct_value_once(self, capsys, rendered, fmt, command, report):
        checks = report().checks
        rendered.clear()
        code, _, _ = invoke(capsys, *command.split(), "--format", fmt)
        assert code == 0
        # alpha, beta, then each distinct value of the rows once
        values = {c.lhs for c in checks}
        assert len(values) < len(checks)
        assert Counter(rendered) == Counter([2, 0, *values])


@pytest.fixture
def fractions_made(monkeypatch):
    """The arguments of each Fraction built."""
    calls = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    return calls


class TestIntegerPath:
    @pytest.mark.parametrize(
        "command",
        [
            "expand --gf x/(1+3*x-4*x^2) --order 60",
            "expand --gf (1-sqrt(1-12*x))/(6*x) --order 60",
            "expand --family A --alpha 2 --beta 3 --order 20",
            "revert --gf x/(1+3*x-4*x^2) --order 60",
            "revert --gf x*(1+3*x)/(1-2*x) --order 60",
            "revert --gf x/(1-x-x^2-x^3) --order 30",
            "revert --gf x/sqrt(1+4*x)+x^3/(1-x)^2 --order 12",
            "hankel --gf 1/sqrt(1-4*x) --depth 10",
            "hankel --gf (1-sqrt(1-4*x))/(2*x)-x^2 --depth 20",
        ],
    )
    def test_an_integral_series_builds_no_fraction(self, capsys, fractions_made, command):
        code, out, _ = invoke(capsys, *command.split(), "--format", "csv")
        assert code == 0
        assert "/" not in out
        assert fractions_made == []

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("expand --gf 1/(2-x) --order 3", "1/2,1/4,1/8,1/16"),
            ("expand --gf sqrt(1+x) --order 4", "1,1/2,-1/8,1/16,-5/128"),
            ("expand --gf (1+x)/(6-4*x) --order 3", "1/6,5/18,5/27,10/81"),
            ("revert --gf 2*x+x^2 --order 4", "0,1/2,-1/8,1/16,-5/128"),
        ],
    )
    def test_other_coefficients_print_reduced(self, capsys, fractions_made, command, expected):
        code, out, _ = invoke(capsys, *command.split(), "--format", "csv")
        assert (code, out) == (0, expected + "\n")
        assert fractions_made

    def test_hankel_of_a_non_integral_series_exits_2(self, capsys):
        code, _, err = invoke(capsys, "hankel", "--gf", "1/(2-x)", "--depth", "2")
        assert code == 2
        assert "non-integer coefficient 1/2" in err


class TestProp9:
    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "prop9", "--alpha", "2", "--n", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjecture"] == "prop9"
        assert payload["all_pass"] is True

    def test_alpha_is_required(self, capsys):
        code, _, err = invoke(capsys, "prop9", "--n", "3")
        assert code == 2
        assert "--alpha" in err


class TestOeis:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HANKELREV_CACHE_DIR", str(tmp_path))

    def test_offline_match(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis", "--seq", "1,1,2,5,14,42,132", "--offline",
        )
        assert code == 0
        assert out.splitlines()[0] == "id       matched  name"
        assert out.splitlines()[1].startswith("A000108  7")

    def test_offline_no_match(self, capsys):
        code, out, _ = invoke(capsys, "oeis", "--seq", "3,1,4,1,5", "--offline")
        assert code == 0
        assert out == "no matches\n"

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "oeis", "--seq", "0,1,1,2,3,5,8", "--offline", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)[0]["id"] == "A000045"

    def test_csv_reads_back(self, capsys):
        from hankelrev import oeis

        # a fixture name holds commas; a cached name holds double quotes too
        code, out, _ = invoke(
            capsys, "oeis", "--seq", "1,1,2,5,14", "--offline", "--format", "csv",
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["id", "matched_prefix_length", "name"],
            ["A000108", "5", "Catalan numbers: C(n) = binomial(2n,n)/(n+1)."],
        ]
        quoted = 'The "lucky" numbers, sieved'
        oeis.cache_put(oeis.query_key([1, 3, 7, 9]), [oeis.OeisMatch("A000959", quoted, 4)])
        code, out, _ = invoke(
            capsys, "oeis", "--seq", "1,3,7,9", "--offline", "--format", "csv",
        )
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["id", "matched_prefix_length", "name"],
            ["A000959", "4", quoted],
        ]

    def test_term_past_the_digit_limit(self, capsys):
        from hankelrev import oeis

        # 5000 digits: past CPython's int->str limit, which the key must not hit
        digits = "1" + "0" * 4998 + "1"
        seq = f"{digits},1,2,5,14"
        assert invoke(capsys, "oeis", "--seq", seq, "--offline") == (0, "no matches\n", "")
        assert oeis.query_key([10**4999 + 1, 1, 2, 5, 14]) == seq

    def test_too_few_terms_exits_2(self, capsys):
        code, _, err = invoke(capsys, "oeis", "--seq", "1,2,3", "--offline")
        assert code == 2
        assert "need at least 4 terms" in err

    def test_online_failure_exits_2(self, capsys, monkeypatch):
        from hankelrev import oeis

        def fail(url, params):
            raise ConnectionError("refused")

        monkeypatch.setattr(oeis, "_http_get_json", fail)
        code, _, err = invoke(capsys, "oeis", "--seq", "1,2,3,4")
        assert code == 2
        assert "error: online lookup failed" in err


class TestUsage:
    def test_no_arguments_exits_2(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_reruns_are_byte_identical(self, capsys):
        argv = (
            "verify", "--conjecture", "4", "--alpha", "2", "--beta", "3",
            "--depth", "4", "--format", "json",
        )
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second

    def test_parser_is_built_once_and_survives_usage_errors(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        try:
            assert invoke(capsys, "frobnicate")[0] == 2
            assert invoke(capsys, "binomial", "--seq", "1,1,1", "--format", "csv") == (
                0, "1,2,4\n", "",
            )
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hankel", "--family", "A", "--alpha", "1", "--beta", "1", "--depth", "-1"), "depth"),
            (("hankel", "--gf=1/(1-x)", "--depth", "-1"), "depth"),
            (("hankel", "--seq", "1,2,3", "--depth", "-1"), "depth"),
            (("triple", "--family", "C", "--alpha", "2", "--depth", "-2"), "depth"),
            (("triple", "--gf=1/(1-x)", "--depth", "-2"), "depth"),
            (("triple", "--seq", "1,2,3", "--depth", "-1"), "depth"),
            (("revert", "--family", "A", "--alpha", "1", "--beta", "1", "--order", "-1"), "order"),
            (("revert", "--gf=x/(1+x)", "--order", "-1"), "order"),
            (("expand", "--family", "B", "--alpha", "1", "--beta", "1", "--order", "-1"), "order"),
        ],
    )
    def test_negative_size_names_the_option(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message} must be non-negative\n")

    @pytest.mark.parametrize("cid", ["4", "6", "8", "alpha_shift", "anchors"])
    def test_verify_depth_below_one_exits_2(self, capsys, cid):
        given = [arg for name in CONJECTURES[cid].parameters for arg in (f"--{name}", "1")]
        argv = ("verify", "--conjecture", cid, *given, "--depth", "0")
        assert invoke(capsys, *argv) == (2, "", "error: depth must be at least 1\n")

    def test_verify_sizes_alpha_shift_by_depth_alone(self, capsys):
        # --order is gone: a depth d runs alpha_shift at series order 2d + 1
        argv = ("verify", "--conjecture", "alpha_shift", "--alpha", "1", "--beta", "2")
        code, _, err = invoke(capsys, *argv, "--order", "7")
        assert code == 2 and "unrecognized arguments: --order 7" in err
        shown = invoke(capsys, *argv, "--depth", "3", "--format", "csv")
        assert shown[1].splitlines()[-1] == (
            "alpha_shift,1,2,7,3,hankel(u*)[n] == hankel(binomial(u*))[n],64,64,true"
        )
        assert invoke(capsys, *argv) == invoke(capsys, *argv, "--depth", "6")

    @pytest.mark.parametrize(
        "argv",
        [
            ("hankel", "--seq", "1,2,3", "--gf=x/(1-x)"),
            ("hankel", "--seq", "1,2,3", "--family", "C", "--alpha", "2"),
            ("triple", "--seq", "1,2,3,4,5", "--family", "A", "--alpha", "1", "--beta", "1"),
            ("triple", "--gf=1/(1-x)", "--family", "B", "--alpha", "1", "--beta", "1"),
        ],
    )
    def test_conflicting_sources_exit_2(self, capsys, argv):
        assert invoke(capsys, *argv) == (2, "", "error: provide exactly one of --seq, --gf, --family\n")
