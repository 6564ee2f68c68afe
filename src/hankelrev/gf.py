"""Parsing, printing, and exact evaluation of generating-function expressions.

Grammar::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'x' | '(' expr ')' | 'sqrt' '(' expr ')'

'^' binds tightest, then '*' and '/', then '+' and '-'; operators of equal
precedence associate left; a leading '-' reads as ``0 - term``.  Whitespace
is insignificant and U+2212 is accepted as a minus sign.  Syntax errors
report the byte offset of the offending input.

Evaluation is numeric, not symbolic: :func:`eval_gf` expands an expression
to a requested truncation order in exact rational arithmetic.  Division by
an expression that vanishes at 0 (for example ``(1-sqrt(1-4*x))/(2*x)``) is
supported by cancelling the common power of x; internally the evaluator
widens its working order until the requested order is fully determined.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from hankelrev.series import PowerSeries, _decimal, _parse_int


class GfParseError(ValueError):
    """Syntax error in a generating-function expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


# ----------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Lit:
    """A non-negative integer literal; negative values come from '-'."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("literals are non-negative; negation is an operator")


@dataclass(frozen=True)
class Var:
    """The formal variable x."""


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "GfExpression"
    right: "GfExpression"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Pow:
    base: "GfExpression"
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("exponent must be a non-negative integer")


@dataclass(frozen=True)
class Sqrt:
    arg: "GfExpression"


GfExpression = Union[Lit, Var, BinOp, Pow, Sqrt]


# ----------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str  # INT, IDENT, SYM, EOF
    text: str
    offset: int  # byte offset into the source


_SYMBOLS = {"+": "+", "-": "-", "−": "-", "*": "*", "/": "/", "^": "^", "(": "(", ")": ")"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    byte = 0
    while i < len(text):
        ch = text[i]
        width = len(ch.encode("utf-8"))
        if ch.isspace():
            i += 1
            byte += width
            continue
        if ch in string.digits:
            start = byte
            j = i
            while j < len(text) and text[j] in string.digits:
                j += 1
            tokens.append(_Token("INT", text[i:j], start))
            byte += j - i  # ASCII digits are one byte each
            i = j
            continue
        if ch in string.ascii_letters:
            start = byte
            j = i
            while j < len(text) and text[j] in string.ascii_letters:
                j += 1
            word = text[i:j]
            if word not in ("x", "sqrt"):
                raise GfParseError(f"unknown identifier {word!r}", start)
            tokens.append(_Token("IDENT", word, start))
            byte += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("SYM", _SYMBOLS[ch], byte))
            i += 1
            byte += width
            continue
        raise GfParseError(f"unexpected character {ch!r}", byte)
    tokens.append(_Token("EOF", "", byte))
    return tokens


# ----------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text in symbols

    def expect_sym(self, symbol: str) -> None:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != symbol:
            raise GfParseError(f"expected {symbol!r}", tok.offset)
        self.advance()

    def parse_expr(self) -> GfExpression:
        if self.at_sym("-"):
            self.advance()
            node: GfExpression = BinOp("-", Lit(0), self.parse_term())
        else:
            node = self.parse_term()
        while self.at_sym("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> GfExpression:
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> GfExpression:
        node = self.parse_base()
        if self.at_sym("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise GfParseError(
                    "exponent must be a non-negative integer literal", tok.offset
                )
            self.advance()
            node = Pow(node, _parse_int(tok.text))
        return node

    def parse_base(self) -> GfExpression:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Lit(_parse_int(tok.text))
        if tok.kind == "IDENT" and tok.text == "x":
            self.advance()
            return Var()
        if tok.kind == "IDENT" and tok.text == "sqrt":
            self.advance()
            self.expect_sym("(")
            arg = self.parse_expr()
            self.expect_sym(")")
            return Sqrt(arg)
        if tok.kind == "SYM" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        found = repr(tok.text) if tok.kind != "EOF" else "end of input"
        raise GfParseError(f"expected a value, found {found}", tok.offset)


def parse_gf(text: str) -> GfExpression:
    """Parse an expression string into its syntax tree."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise GfParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# ----------------------------------------------------------------------
# printer

_ATOM_PREC = 5
_POW_PREC = 4
_BINOP_PREC = {"*": 2, "/": 2, "+": 1, "-": 1}


def format_gf(expression: GfExpression) -> str:
    """Print an expression; ``parse_gf(format_gf(e))`` is structurally ``e``."""
    return _format(expression, 0)


def _format(e: GfExpression, min_prec: int) -> str:
    if isinstance(e, Lit):
        return _decimal(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Sqrt):
        return f"sqrt({_format(e.arg, 0)})"
    if isinstance(e, Pow):
        text = f"{_format(e.base, _ATOM_PREC)}^{_decimal(e.exponent)}"
        return f"({text})" if _POW_PREC < min_prec else text
    prec = _BINOP_PREC[e.op]
    # the right operand needs strictly higher precedence to survive
    # left-associative reparsing
    text = f"{_format(e.left, prec)}{e.op}{_format(e.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


# ----------------------------------------------------------------------
# evaluator

_MAX_EVAL_PASSES = 8


class _NeedPrecision(Exception):
    """Internal signal: widen the working order and re-evaluate."""

    def __init__(self, extra: int):
        self.extra = max(1, extra)


def eval_gf(expression: GfExpression, order: int) -> PowerSeries:
    """Expand an expression to a power series of exactly the given order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    working = order
    for _ in range(_MAX_EVAL_PASSES):
        try:
            series, valid = _eval(expression, working)
        except _NeedPrecision as need:
            working += need.extra
            continue
        if valid >= order:
            return series.truncate(order)
        working += order - valid
    raise ValueError("non-invertible series")


def expand_gf(text: str, order: int) -> PowerSeries:
    """Parse and evaluate in one step."""
    return eval_gf(parse_gf(text), order)


def _eval(e: GfExpression, w: int) -> tuple[PowerSeries, int]:
    """Evaluate at working order ``w``.

    Returns the series along with the greatest index whose coefficient is
    fully determined.  Division by a series with positive valuation shifts
    the quotient down, so downstream coefficients past that index are
    garbage; the ``valid`` bound tracks exactly how far results can be
    trusted, and the caller widens ``w`` until the requested order is
    covered.
    """
    if isinstance(e, Lit):
        return PowerSeries.constant(e.value, w), w
    if isinstance(e, Var):
        return PowerSeries.identity(w), w
    if isinstance(e, Sqrt):
        inner, valid = _eval(e.arg, w)
        if valid < 0:
            raise _NeedPrecision(-valid)
        if inner[0] != 1:
            raise ValueError("sqrt requires unit constant term")
        return inner.sqrt(), valid
    if isinstance(e, Pow):
        base, valid = _eval(e.base, w)
        if e.exponent == 0:
            return PowerSeries.one(w), w
        result = PowerSeries.one(w)
        power = base
        exponent = e.exponent
        while True:
            if exponent & 1:
                result = result * power
            exponent >>= 1
            if not exponent:
                break
            power = power * power
        return result, valid
    if isinstance(e, BinOp):
        left, lv = _eval(e.left, w)
        right, rv = _eval(e.right, w)
        if e.op == "+":
            return left + right, min(lv, rv)
        if e.op == "-":
            return left - right, min(lv, rv)
        if e.op == "*":
            return left * right, min(lv, rv)
        return _divide(left, lv, right, rv, w)
    raise TypeError(f"not a generating-function expression node: {e!r}")


def _divide(
    num: PowerSeries, nv: int, den: PowerSeries, dv: int, w: int
) -> tuple[PowerSeries, int]:
    if dv < 0:
        raise _NeedPrecision(-dv)
    v = next((k for k in range(dv + 1) if den[k] != 0), None)
    if v is None:
        # no trusted nonzero coefficient yet; widen (a genuinely zero
        # divisor exhausts the pass budget and surfaces as non-invertible)
        raise _NeedPrecision(w - dv + 1)
    if v == 0:
        return num / den, min(nv, dv)
    if nv < v - 1:
        raise _NeedPrecision(v - 1 - nv)
    if any(num[k] != 0 for k in range(v)):
        raise ValueError("non-invertible series")
    if w < v:
        raise _NeedPrecision(v - w)
    quotient = num.shift_down(v) / den.shift_down(v)
    padded = PowerSeries(quotient.coeffs + (Fraction(0),) * v)
    return padded, min(nv, dv) - v
