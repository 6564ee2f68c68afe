"""The public namespace of the package, and the README's library example."""

import re
from pathlib import Path

import hankelrev

README = Path(__file__).resolve().parents[1] / "README.md"


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
