"""Generating-function expression parsing and expansion."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelrev import (
    BinOp,
    GfParseError,
    Lit,
    Pow,
    PowerSeries,
    Sqrt,
    Var,
    eval_gf,
    expand_gf,
    parse_gf,
)
from hankelrev import gf, series
from oracles import eval_gf_ref, format_gf_ref


class TestParse:
    def test_precedence(self):
        assert parse_gf("1+2*x^2") == BinOp(
            "+", Lit(1), BinOp("*", Lit(2), Pow(Var(), 2))
        )

    def test_parenthesized_base(self):
        assert parse_gf("(1+x)^2") == Pow(BinOp("+", Lit(1), Var()), 2)

    def test_left_associativity(self):
        assert parse_gf("1-x-x^2") == BinOp(
            "-", BinOp("-", Lit(1), Var()), Pow(Var(), 2)
        )

    def test_leading_minus_desugars_to_subtraction(self):
        assert parse_gf("-x") == BinOp("-", Lit(0), Var())
        assert parse_gf("-x+1") == BinOp("+", BinOp("-", Lit(0), Var()), Lit(1))

    def test_sqrt(self):
        assert parse_gf("sqrt(1-4*x)") == Sqrt(
            BinOp("-", Lit(1), BinOp("*", Lit(4), Var()))
        )

    def test_unicode_minus_is_plain_minus(self):
        assert parse_gf("1−x") == parse_gf("1-x")

    def test_unicode_whitespace_is_insignificant(self):
        # U+00A0 is whitespace
        assert parse_gf("1\xa0+x") == parse_gf("1+x")

    @pytest.mark.parametrize(
        "text,offset,message",
        [
            ("x^", 2, "exponent must be a non-negative integer literal"),
            ("x^-1", 2, "exponent must be a non-negative integer literal"),
            ("(1+x", 4, "expected ')'"),
            (")", 0, "expected a value, found ')'"),
            ("x x", 2, "unexpected trailing input 'x'"),
            ("y", 0, "unknown identifier 'y'"),
            ("1//x", 2, "expected a value, found '/'"),
            # offsets count bytes, and U+2212 is three of them
            ("1−y", 4, "unknown identifier 'y'"),
            ("", 0, "expected a value, found end of input"),
            # the whole text is tokenized before it is parsed
            ("x x y", 4, "unknown identifier 'y'"),
            # digits and letters are ASCII only
            ("٣", 0, "unexpected character '٣'"),
            ("xsqrt", 0, "unknown identifier 'xsqrt'"),
            ("x^1_0", 3, "unexpected character '_'"),
            ("sqrt x", 5, "expected '('"),
            ("2^3^2", 3, "unexpected trailing input '^'"),
            # a leading '-' only starts an expression
            ("1*-x", 2, "expected a value, found '-'"),
            ("--x", 1, "expected a value, found '-'"),
            # U+2003 is whitespace of three bytes
            ("1 + \u2003 é", 8, "unexpected character 'é'"),
            # how Python decodes the byte 0xff of argv: a lone surrogate
            ("1+\udcff", 2, "unexpected character '\\udcff'"),
            ("\u2212\ud800", 3, "unexpected character '\\ud800'"),
            # the 101st '(' of 300 is one too deep, for the parser's
            # recursion and for evaluation
            ("(" * 300 + "x" + ")" * 300, 100, "parentheses nested more than 100 deep"),
            ("sqrt(" * 101 + "x" + ")" * 101, 504, "parentheses nested more than 100 deep"),
        ],
    )
    def test_syntax_errors_carry_byte_offsets(self, text, offset, message):
        with pytest.raises(GfParseError) as exc:
            parse_gf(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"syntax error at offset {offset}: {message}"

    def test_nesting_up_to_the_limit_evaluates(self):
        assert parse_gf("(" * 100 + "x" + ")" * 100) == Var()
        assert expand_gf("1/(1-x*" * 100 + "x" + ")" * 100, 3).coefficient_strings() == [
            "1", "1", "2", "5",
        ]
        # closing a level frees it: the depth is the nesting, not the count
        assert parse_gf("+".join(["(x)"] * 300)) == parse_gf("+".join(["x"] * 300))

    def test_ast_validation(self):
        with pytest.raises(ValueError, match="literals are non-negative"):
            Lit(-1)
        with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
            Pow(Var(), -2)


def expressions(roots, max_leaves):
    """Expression trees over 0..9 and x, with ``roots(children)`` for sqrt."""
    atoms = st.one_of(st.integers(0, 9).map(Lit), st.just(Var()))

    def extend(children):
        binops = st.tuples(
            st.sampled_from("+-*/"), children, children
        ).map(lambda t: BinOp(*t))
        pows = st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(*t))
        return st.one_of(binops, pows, roots(children))

    return st.recursive(atoms, extend, max_leaves=max_leaves)


def gf_expressions():
    return expressions(lambda children: children.map(Sqrt), 16)


def unit_root_expressions():
    """Each sqrt is of 1 + x * e or of e/e, so most roots are defined and
    the series paths of the evaluator run."""
    return expressions(
        lambda children: st.one_of(
            children.map(lambda c: Sqrt(BinOp("+", Lit(1), BinOp("*", Var(), c)))),
            children.map(lambda c: Sqrt(BinOp("/", c, c))),
        ),
        12,
    )


class TestRoundtrip:
    @given(gf_expressions())
    def test_parse_inverts_format(self, expression):
        assert parse_gf(format_gf_ref(expression)) == expression

    def test_literals_past_the_digit_limit(self):
        # CPython converts at most 4300 digits between int and str by default
        big = 10**5000 + 12345
        expression = BinOp("*", Lit(big), Pow(BinOp("-", Lit(1), Var()), 10**4999))
        text = format_gf_ref(expression)
        assert text == f"({'1' + '0' * 4995 + '12345'}*((1-x)^1{'0' * 4999}))"
        assert parse_gf(text) == expression

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit"
    )
    def test_literals_keep_a_lowered_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = "3" * 2000 + "*x"
            assert parse_gf(text) == BinOp("*", Lit((10**2000 - 1) // 3), Var())
            assert format_gf_ref(parse_gf(text)) == f"({text})"
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)


class TestExpand:
    def test_rational(self):
        s = expand_gf("x/(1-3*x-5*x^2)", 5)
        assert s.integer_coefficients() == [0, 1, 3, 14, 57, 241]

    def test_catalan_radical(self):
        s = expand_gf("(1-sqrt(1-4*x))/2", 6)
        assert s.integer_coefficients() == [0, 1, 1, 2, 5, 14, 42]

    def test_catalan_radical_with_series_divisor(self):
        s = expand_gf("(1-sqrt(1-4*x))/(2*x)", 4)
        assert s.integer_coefficients() == [1, 1, 2, 5, 14]

    def test_radical_over_negative_monomial(self):
        # numerator valuation 2, divisor valuation 1: the numerator is
        # evaluated one coefficient further, so the quotient reaches the
        # requested order
        s = expand_gf("(1+3*x-sqrt(1+6*x+29*x^2))/(-10*x)", 5)
        assert s.integer_coefficients() == [0, 1, -3, 4, 18, -139]

    def test_monomial_cancellation(self):
        assert expand_gf("x/x", 3).integer_coefficients() == [1, 0, 0, 0]
        assert expand_gf("x^2/x", 3).integer_coefficients() == [0, 1, 0, 0]

    def test_scalar_division_keeps_rationals(self):
        assert expand_gf("1/2/2", 2)[0] == Fraction(1, 4)

    def test_power_binds_tighter_than_product(self):
        assert expand_gf("2*x^2", 2).integer_coefficients() == [0, 0, 2]
        assert expand_gf("(2*x)^2", 2).integer_coefficients() == [0, 0, 4]

    def test_eval_accepts_ast(self):
        assert eval_gf(parse_gf("1+x"), 2).integer_coefficients() == [1, 1, 0]

    def test_division_by_pure_zero_series_fails(self):
        with pytest.raises(ValueError, match="non-invertible series"):
            expand_gf("x/(x-x)", 3)

    def test_division_by_higher_valuation_fails(self):
        with pytest.raises(ValueError, match="non-invertible series"):
            expand_gf("1/x", 4)

    @pytest.mark.parametrize("order, expected", [(0, [2]), (1, [2, 0]), (3, [2, 0, 0, 0])])
    def test_series_divisor_past_the_order(self, order, expected):
        # the divisor vanishes through x^7, past the requested order
        assert expand_gf("x^8/(sqrt(1+x^8)-1)", order).integer_coefficients() == expected

    def test_reach_of_a_series_divisor(self):
        # a series divisor is evaluated at most _REACH = 64 coefficients
        # past the requested order to find its valuation
        assert expand_gf("x^64/(sqrt(1+x^64)-1)", 0).integer_coefficients() == [2]
        with pytest.raises(ValueError, match="non-invertible series"):
            expand_gf("x^65/(sqrt(1+x^65)-1)", 0)

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError, match="sqrt requires unit constant term"):
            expand_gf("sqrt(2+x)", 3)

    def test_order_must_be_non_negative(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            expand_gf("x", -1)

    @given(gf_expressions(), st.integers(0, 6))
    def test_expansion_when_defined_is_exact_at_low_order(self, expression, order):
        # whichever expressions evaluate must produce a series of the
        # requested order; the rest must fail loudly, never silently truncate
        try:
            series = eval_gf(expression, order)
        except ValueError:
            return
        assert series.order == order


def outcome(evaluate, expression, order, *args):
    """The series an evaluator returns, or the message of its ValueError."""
    try:
        return evaluate(expression, order, *args)
    except ValueError as exc:
        return str(exc)


# the reference widens its working order by one per pass while a divisor
# shows no nonzero coefficient, so a divisor of valuation v needs about v
# of its passes; with 64 passes it reaches as far as eval_gf, which looks
# 64 coefficients past the order of a series divisor, and further than
# the valuations these trees can build
REFERENCE_PASSES = 64
BIG = 10**119 + 7


class TestAgainstReference:
    """eval_gf against eval_gf_ref, the evaluator on truncated Fraction
    series that it replaced."""

    def check(self, expression, order):
        actual = outcome(eval_gf, expression, order)
        expected = outcome(eval_gf_ref, expression, order)
        if expected == "non-invertible series" and actual != expected:
            expected = outcome(eval_gf_ref, expression, order, REFERENCE_PASSES)
        assert actual == expected
        if isinstance(actual, PowerSeries):
            assert actual.order == order

    @settings(max_examples=300)
    @given(gf_expressions(), st.integers(0, 8))
    def test_random_expressions(self, expression, order):
        self.check(expression, order)

    @settings(max_examples=300)
    @given(unit_root_expressions(), st.integers(0, 8))
    def test_random_expressions_with_unit_roots(self, expression, order):
        self.check(expression, order)

    @pytest.mark.parametrize(
        "text",
        [
            "x/x",
            "x^2/x",
            "x/(x-x)",
            "1/x",
            "(1/x)*x",
            "sqrt(2+x)",
            "sqrt(x/x)",
            "(1-sqrt(1-4*x))/(sqrt(1-4*x)-1)",
            f"(1-sqrt(1-4*{BIG}*x))/(2*{BIG})",
            "x^8/x^8",
            "(x^4)^4/(x^3)^3",
            "sqrt(1+x)/sqrt(1+x)^3",
            "1/sqrt(1/(1-x)+x)",
            "(1+3*x-sqrt(1+6*x+29*x^2))/(-10*x^2)",
            "x/(1-sqrt(1-x))",
            "sqrt(sqrt(1+x)+3)",
            "1/(sqrt(1+x)-sqrt(1+x))",
            "(sqrt(1+x)-1)^2/x^2",
            "(1/x)/(sqrt(2+x)-1)",
            "sqrt(3+x)/(sqrt(2+x)-1)",
        ],
    )
    @pytest.mark.parametrize("order", [0, 1, 2, 7])
    def test_pinned(self, text, order):
        self.check(parse_gf(text), order)

    def test_budget_of_the_reference(self):
        # the exact valuation of x^8 needs no widening
        assert outcome(eval_gf_ref, parse_gf("x^8/x^8"), 1) == "non-invertible series"
        assert eval_gf(parse_gf("x^8/x^8"), 1).integer_coefficients() == [1, 0]


@pytest.fixture
def power_runs(monkeypatch):
    """(p, q, k) of each run of the power recurrence."""
    runs = []
    power_coefficients = series._power_coefficients

    def spy(terms, p, q, k):
        runs.append((p, q, k))
        return power_coefficients(terms, p, q, k)

    monkeypatch.setattr(series, "_power_coefficients", spy)
    return runs


class TestSinglePass:
    def test_polynomial_divisor_takes_one_root(self, power_runs):
        s = expand_gf("(1-sqrt(1-8*x))/(4*x)", 120)
        assert s.integer_coefficients() == [math.comb(2 * n, n) // (n + 1) * 2**n for n in range(121)]
        assert power_runs == [(1, 2, 121)]

    def test_quotient_by_a_root_is_one_power(self, power_runs):
        s = expand_gf("1/sqrt(1-4*x)", 400)
        assert s.integer_coefficients() == [math.comb(2 * n, n) for n in range(401)]
        assert power_runs == [(-1, 2, 400)]

    def test_series_divisor_runs_the_numerator_once(self, power_runs):
        # the divisor's root runs at 100, which shows its valuation 1, and
        # once more at 101; the numerator's root runs once, at 101
        s = expand_gf("sqrt(1+x)*x/(1-sqrt(1-4*x))", 100)
        assert s.order == 100
        assert power_runs == [(1, 2, 100), (1, 2, 101), (1, 2, 101)]

    def test_divisor_without_a_zero_head_takes_no_widening(self, power_runs):
        s = expand_gf("x/(1+sqrt(1-4*x))", 100)
        assert s.order == 100
        assert power_runs == [(1, 2, 100)]

    def test_divisor_whose_probe_fails_raises_its_own_error(self, power_runs):
        with pytest.raises(ValueError, match="sqrt requires unit constant term"):
            expand_gf("x/(x-sqrt(4-x))", 10)

    @pytest.mark.parametrize(
        "text, order, runs",
        [("x^8/(sqrt(1+x^8)-1)", 1, [9, 1]), ("x/(1-sqrt(1-4*x))", 100, [101, 100])],
    )
    def test_quotient_runs_to_the_order_asked(self, monkeypatch, text, order, runs):
        # the divisor is widened to find its valuation v, then cut back to
        # x^(order + v), so the numerator's expansion and the quotient, the
        # last two runs, stop there
        orders = []
        quotient = gf._quotient

        def spy(a, b, n):
            orders.append(n)
            return quotient(a, b, n)

        monkeypatch.setattr(gf, "_quotient", spy)
        assert expand_gf(text, order).order == order
        assert orders[-2:] == runs

    def test_zero_series_divisor_fails_after_one_widening(self, power_runs):
        # the divisor's two roots run at 100, then once more at 100 + 64
        with pytest.raises(ValueError, match="non-invertible series"):
            expand_gf("1/(sqrt(1-4*x)-sqrt(1-4*x))", 100)
        assert len(power_runs) <= 4
        assert power_runs == [(1, 2, 100)] * 2 + [(1, 2, 164)] * 2

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_nested_divisors_take_linear_runs(self, power_runs, k):
        # each divisor's valuation is found once per evaluation: divisors
        # of valuation 0 take no second run, and the root under k + 1
        # divisors of valuation 1 runs once per evaluation of its divisor,
        # k + 2 times
        expand_gf("1/(" * k + "1+sqrt(1-4*x)" + ")" * k, 4)
        assert len(power_runs) == 1
        power_runs.clear()
        expand_gf("x/(" + "x^2/(" * k + "1-sqrt(1-4*x)" + ")" * (k + 1), 4)
        assert len(power_runs) == k + 2

    def test_deepest_nested_divisors(self):
        # 100 levels of parentheses, as deep as the parser takes
        deep = expand_gf("x/(" + "x^2/(" * 98 + "1-sqrt(1-4*x)" + ")" * 99, 4)
        assert deep.coefficient_strings() == ["1/2", "-1/2", "-1/2", "-1", "-5/2"]
        deep = expand_gf("1/(" * 99 + "1+sqrt(1-4*x)" + ")" * 99, 4)
        assert deep.coefficient_strings() == ["1/2", "1/2", "1", "5/2", "7"]
