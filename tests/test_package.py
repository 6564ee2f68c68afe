"""The public namespace of the package, its start-up imports, its frozen
value types, and the README's library example."""

import ast
import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hankelrev
from hankelrev import (
    BinOp,
    Block,
    Check,
    Claim,
    ConjectureReport,
    FamilyParams,
    HankelTriple,
    Lit,
    Pow,
    Sqrt,
    SweepResult,
    Var,
)
from hankelrev.oeis import OeisMatch

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_resolve_once():
    names = hankelrev.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hankelrev, name), name


def test_a_report_from_package_level_blocks():
    from hankelrev import Block, Check, Claim, ConjectureReport

    block = Block(1, (Claim("n == n", (1, 2), (1, 3)),))
    report = ConjectureReport("demo", None, 2, (block,))
    assert report.checks == (Check(1, "n == n", 1, 1), Check(2, "n == n", 2, 3))
    assert not report.all_pass


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # h* of the reversion of x/(1 - 3x - 5x^2): the paper's worked table
    assert capsys.readouterr().out == "(1, -5, -125, 15625, 9765625, -30517578125)\n"


def test_power_series_is_a_value_type():
    # the ring and shape methods went; tests/oracles.py holds list-based
    # references (pad, compose_ref, series_quotient_ref, series_sqrt_ref)
    removed = (
        "constant", "zero", "one", "identity", "from_polynomial",
        "__add__", "__sub__", "__neg__", "__rmul__", "__truediv__",
        "truncate", "shift_down", "compose", "sqrt",
    )
    assert [name for name in removed if hasattr(hankelrev.PowerSeries, name)] == []


def test_printer_and_hankel_matrix_are_gone():
    # expression text is its own canonical form, and a Hankel matrix is one
    # comprehension; tests/oracles.py holds format_gf_ref and hankel_matrix_ref
    removed = ("format_gf", "hankel_matrix")
    assert [name for name in removed if hasattr(hankelrev, name)] == []


# modules that no command needs before it runs, or that only some commands
# load when they run (json, csv and traceback on use, the OEIS lookup, and
# fractions, which imports decimal and numbers, where a Fraction is made)
_NOT_AT_START = (
    "dataclasses", "inspect", "json", "csv", "traceback", "hankelrev.oeis",
    "fractions", "decimal", "numbers",
)


def _fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` run in a fresh isolated interpreter on the source
    tree, with ``args`` in ``sys.argv[2:]``."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, sys.argv[1])\n{code}",
         str(ROOT / "src"), *args],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_start_up_loads_only_what_every_command_needs():
    code = (
        "before = set(sys.modules); import hankelrev.cli; hankelrev.cli.build_parser(); "
        "print(' '.join(sorted(set(sys.argv[2:]) & (set(sys.modules) - before))))"
    )
    assert _fresh(code, *_NOT_AT_START).split() == []


# commands whose series and values are all integral
_INTEGRAL_COMMANDS = [
    ["expand", "--gf", "x/(1-x-x^2)", "--order", "20"],
    ["revert", "--gf", "x/(1+3*x-4*x^2)", "--order", "20"],
    ["hankel", "--gf", "(1-sqrt(1-4*x))/(2*x)", "--depth", "8"],
    ["triple", "--family", "C", "--alpha", "3", "--depth", "6"],
    ["verify", "--conjecture", "4", "--alpha", "3", "--beta", "-5", "--depth", "4"],
    ["sweep", "--conjecture", "6", "--alpha-range=-2:2", "--beta-range=-2:2", "--depth", "3"],
    ["prop9", "--alpha", "3", "--n", "4"],
    ["binomial", "--seq", "1,1,2,5,14,42"],
]


def test_integral_commands_make_no_fraction():
    code = (
        "import contextlib, io; from hankelrev import cli\n"
        f"for argv in {_INTEGRAL_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()): assert cli.run(argv) == 0, argv\n"
        "print('fractions' in sys.modules)"
    )
    assert _fresh(code) == "False\n"


def test_fractions_load_where_a_fraction_is_made():
    code = (
        "import contextlib, io; from hankelrev import cli, PowerSeries\n"
        "for argv in (['expand', '--gf', '1/(2-x)', '--order', '3', '--format', 'csv'],\n"
        "             ['revert', '--gf', '2*x+x^2', '--order', '4', '--format', 'csv']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out): cli.run(argv)\n"
        "    print(out.getvalue(), end='')\n"
        "print([type(c).__name__ for c in PowerSeries([1, 2]).coeffs])"
    )
    assert _fresh(code) == "1/2,1/4,1/8,1/16\n0,1/2,-1/8,1/16,-5/128\n['Fraction', 'Fraction']\n"


def test_the_package_makes_no_dataclass():
    sources = sorted((ROOT / "src" / "hankelrev").glob("*.py"))
    assert sources
    pattern = re.compile(r"^\s*(import dataclasses|from dataclasses import)", re.MULTILINE)
    assert [path.name for path in sources if pattern.search(path.read_text())] == []


# every frozen value type, as its repr gave it when it was a dataclass:
# the keyword call that makes it
VALUE_REPRS = [
    "Lit(value=1)",
    "Var()",
    "BinOp(op='+', left=Var(), right=Lit(value=1))",
    "Pow(base=Var(), exponent=2)",
    "Sqrt(arg=Lit(value=1))",
    "FamilyParams(alpha=1, beta=2, family='B')",
    "HankelTriple(h=(1,), h_star=(2,), h_star_star=(3,), depth=0)",
    "Check(index=0, claim='demo', lhs=1, rhs=2)",
    "ConjectureReport(conjecture_id='8', params=None, depth=1, blocks=(Block(start=0, "
    "claims=(Claim(label='demo', lhs=(1,), rhs=(2,)),)),), notes=())",
    "SweepResult(conjecture_id='8', depth=1, grid=(FamilyParams(alpha=1, beta=0, family='C'),),"
    " reports=(), counterexamples=(), skipped=())",
    "OeisMatch(id='A000108', name='Catalan', matched_prefix_length=5)",
]

_NAMESPACE = {cls.__name__: cls for cls in (
    BinOp, Block, Check, Claim, ConjectureReport, FamilyParams, HankelTriple,
    Lit, OeisMatch, Pow, Sqrt, SweepResult, Var,
)}


def _made(text):
    return eval(text, dict(_NAMESPACE))


def _positional_fields(value):
    """The fields that a positional class pattern binds, in its order."""
    match value:
        case Lit(v):
            return (v,)
        case Var():
            return ()
        case BinOp(op, left, right):
            return (op, left, right)
        case Pow(base, exponent):
            return (base, exponent)
        case Sqrt(arg):
            return (arg,)
        case FamilyParams(alpha, beta, family):
            return (alpha, beta, family)
        case HankelTriple(h, h_star, h_star_star, depth):
            return (h, h_star, h_star_star, depth)
        case Check(index, claim, lhs, rhs):
            return (index, claim, lhs, rhs)
        case ConjectureReport(conjecture_id, params, depth, blocks, notes):
            return (conjecture_id, params, depth, blocks, notes)
        case SweepResult(conjecture_id, depth, grid, reports, counterexamples, skipped):
            return (conjecture_id, depth, grid, reports, counterexamples, skipped)
        case OeisMatch(id_, name, matched_prefix_length):
            return (id_, name, matched_prefix_length)


@pytest.mark.parametrize("text", VALUE_REPRS)
class TestValueTypes:
    def test_keyword_call_and_repr_round_trip(self, text):
        value = _made(text)
        assert repr(value) == text
        assert _made(repr(value)) == value

    def test_pickle_and_copies_give_an_equal_value(self, text):
        value = _made(text)
        for twin in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == text

    def test_fields_can_be_neither_assigned_nor_deleted(self, text):
        value = _made(text)
        for name in (*type(value).__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    def test_equal_values_hash_equal(self, text):
        value, twin = _made(text), _made(text)
        assert value is not twin
        assert value == twin and hash(value) == hash(twin)
        assert not value != twin

    def test_values_of_other_classes_are_never_equal(self, text):
        value = _made(text)
        fields = tuple(getattr(value, name) for name in type(value).__match_args__)
        assert value != fields and fields != value
        for other in VALUE_REPRS:
            if other != text:
                assert _made(other) != value

    def test_a_positional_pattern_binds_the_fields_in_order(self, text):
        value = _made(text)
        fields = _positional_fields(value)
        assert fields == tuple(getattr(value, name) for name in type(value).__match_args__)
        # the pattern binds the fields in the order of the keyword call
        call = ast.parse(text, mode="eval").body
        assert type(value).__match_args__ == tuple(keyword.arg for keyword in call.keywords)


def test_values_of_different_classes_differ_even_when_their_fields_agree():
    assert Lit(1) != Sqrt(Lit(1))
    assert FamilyParams(1) != (1, 0, "A")
    assert Check(0, "demo", 1, 1) != (0, "demo", 1, 1)


def test_value_types_keep_their_checks():
    with pytest.raises(ValueError, match="unknown family 'D'"):
        FamilyParams(1, 2, "D")
    with pytest.raises(TypeError):
        FamilyParams(1.5)
    assert FamilyParams(True, False) == FamilyParams(1, 0)
    assert type(FamilyParams(True).alpha) is int
    with pytest.raises(ValueError, match="each transform must carry depth \\+ 1 entries"):
        HankelTriple((1,), (2,), (3, 4), 0)
    with pytest.raises(ValueError, match="literals are non-negative"):
        Lit(-1)
    with pytest.raises(ValueError, match="unknown operator '%'"):
        BinOp("%", Var(), Var())
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        Pow(Var(), -1)
