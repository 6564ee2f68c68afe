"""Parsing and exact evaluation of generating-function expressions.

Grammar::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := uint | 'x' | '(' expr ')' | 'sqrt' '(' expr ')'

'^' binds tightest, then '*' and '/', then '+' and '-'; operators of equal
precedence associate left; a leading '-' reads as ``0 - term``.  The
binary precedences are stated once, in ``_BINOP_PREC``: the parser has one
level per precedence in it.  Lexing is one regular expression
(``_TOKEN``): whitespace is insignificant, integers and words are ASCII,
and U+2212 is accepted as a minus sign.  Syntax errors report the byte
offset of the offending input.

Evaluation is exact: :func:`eval_gf` expands an expression to a requested
truncation order in one pass.  A subtree without sqrt evaluates to a
rational function P/Q of integer polynomials, untruncated.  ``sqrt(f)``,
and a quotient by it, are one run of the power recurrence of
:mod:`hankelrev.series` at e = 1/2 or e = -1/2, and the series built from
them keep integer numerators over a denominator.  The result hands them
to :class:`hankelrev.series.PowerSeries`, which reads each output
coefficient once, as an int where it is one, and builds Fractions only
when they are asked for.  Division by an expression that vanishes at 0
(for example ``(1-sqrt(1-4*x))/(2*x)``) is supported by cancelling the
common power of x.  The divisor is evaluated first, so its valuation v is
known and the numerator is evaluated once, v further than the quotient
needs.  A series divisor with no nonzero coefficient through the order it
was asked for is evaluated once more, ``_REACH`` coefficients past it; a
divisor whose valuation lies past that is reported as non-invertible.
Each divisor's valuation is found once per evaluation and kept by node
identity: a series divisor of valuation v >= 1 runs once more, v past its
order, and each later evaluation of it, when an outer quotient widens,
goes there at once.  So divisors nested k deep cost about k evaluations
of the innermost one, not 2^k.
"""

from __future__ import annotations

import math
import re
from functools import partial
from itertools import zip_longest
from typing import Union

from hankelrev.series import PowerSeries, _conv, _parse_int, _quotient, _root, _Value


class GfParseError(ValueError):
    """Syntax error in a generating-function expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


# ----------------------------------------------------------------------
# abstract syntax


class Lit(_Value):
    """A non-negative integer literal; negative values come from '-'."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError("literals are non-negative; negation is an operator")
        object.__setattr__(self, "value", value)


class Var(_Value):
    """The formal variable x."""

    __slots__ = ()


class BinOp(_Value):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: GfExpression, right: GfExpression) -> None:
        if op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Pow(_Value):
    __slots__ = ("base", "exponent")

    def __init__(self, base: GfExpression, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Sqrt(_Value):
    __slots__ = ("arg",)

    def __init__(self, arg: GfExpression) -> None:
        object.__setattr__(self, "arg", arg)


GfExpression = Union[Lit, Var, BinOp, Pow, Sqrt]


# ----------------------------------------------------------------------
# parser

# the binary operators by precedence, one parser level each
_BINOP_PREC = {"*": 2, "/": 2, "+": 1, "-": 1}
_LOWEST, _HIGHEST = min(_BINOP_PREC.values()), max(_BINOP_PREC.values())

# one token: an unsigned integer, a word, or any other single character.
# ``\s`` matches what str.isspace does; digits and letters are ASCII only.
# Kept as text: re compiles it on the first parse and caches it, so a
# command that parses no expression never compiles it.
_TOKEN = r"\s*(?:([0-9]+)|([A-Za-z]+)|(\S))"

# the deepest nesting of parentheses taken: the parser spends four frames
# of Python's recursion limit on each level, and evaluation recurses too
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, byte offset) pairs, closed by ("", length in bytes).

    U+2212 reads as '-'.  A word other than x and sqrt, a character that
    is not an operator or a parenthesis (a lone surrogate, which is how
    Python decodes a byte of argv that is not UTF-8, included), and a '('
    nested more than ``_MAX_NESTING`` deep are errors.  The text before
    an offset has passed these checks, so it always has a UTF-8 length.
    """
    tokens = []
    byte = last = depth = 0
    for match in re.finditer(_TOKEN, text):
        start = match.start(match.lastindex)
        byte += len(text[last:start].encode("utf-8"))
        last = start
        token = match[match.lastindex]
        if match[2] and token not in ("x", "sqrt"):
            raise GfParseError(f"unknown identifier {token!r}", byte)
        if match[3]:
            token = "-" if token == "\u2212" else token
            if token not in "+-*/^()":
                raise GfParseError(f"unexpected character {token!r}", byte)
            if token == "(":
                depth += 1
                if depth > _MAX_NESTING:
                    raise GfParseError(f"parentheses nested more than {_MAX_NESTING} deep", byte)
            elif token == ")":
                depth -= 1
        tokens.append((token, byte))
    tokens.append(("", byte + len(text[last:].encode("utf-8"))))
    return tokens


def parse_gf(text: str) -> GfExpression:
    """Parse an expression string into its syntax tree.

    The whole text is tokenized before it is parsed, so a bad character or
    word is reported ahead of any error of grammar.
    """
    tokens = _tokenize(text)[::-1]  # a stack: the next token is tokens[-1]
    node = _binary(tokens, _LOWEST)
    token, offset = tokens[-1]
    if token:
        raise GfParseError(f"unexpected trailing input {token!r}", offset)
    return node


# The parsing functions below are passed the token stack rather than
# nested in parse_gf: nested functions that call each other form a
# reference cycle, garbage for the cyclic collector after every parse.


def _binary(tokens: list[tuple[str, int]], prec: int) -> GfExpression:
    """Operands joined by the operators of precedence ``prec``; a leading
    '-' at the lowest level reads as ``0 - operand``."""
    operand = (
        partial(_factor, tokens) if prec == _HIGHEST else partial(_binary, tokens, prec + 1)
    )
    node = Lit(0) if prec == _LOWEST and tokens[-1][0] == "-" else operand()
    while _BINOP_PREC.get(tokens[-1][0]) == prec:
        node = BinOp(tokens.pop()[0], node, operand())
    return node


def _factor(tokens: list[tuple[str, int]]) -> GfExpression:
    node = _base(tokens)
    if tokens[-1][0] == "^":
        tokens.pop()
        token, offset = tokens.pop()
        if not token.isdigit():
            raise GfParseError("exponent must be a non-negative integer literal", offset)
        node = Pow(node, _parse_int(token))
    return node


def _base(tokens: list[tuple[str, int]]) -> GfExpression:
    token, offset = tokens.pop()
    if token.isdigit():
        return Lit(_parse_int(token))
    if token == "x":
        return Var()
    if token == "sqrt":
        _expect(tokens, "(")
    elif token != "(":
        found = repr(token) if token else "end of input"
        raise GfParseError(f"expected a value, found {found}", offset)
    node = _binary(tokens, _LOWEST)
    _expect(tokens, ")")
    return Sqrt(node) if token == "sqrt" else node


def _expect(tokens: list[tuple[str, int]], symbol: str) -> None:
    token, offset = tokens.pop()
    if token != symbol:
        raise GfParseError(f"expected {symbol!r}", offset)


# ----------------------------------------------------------------------
# evaluator

# how many coefficients past its order a series divisor is evaluated to
# find its valuation
_REACH = 64


class _Rational:
    """An exact rational function p/q, as integer coefficient lists with the
    constant term first: no trailing zeros (p = [] is 0), q[0] > 0, and the
    content of p and q together divided out.  Common polynomial factors
    are not cancelled.  q comes with no trailing zeros: it is [1], the q
    of a value, or a product of two lists that end in nonzero entries."""

    __slots__ = ("p", "q")

    def __init__(self, p: list[int], q: list[int]):
        while p and not p[-1]:
            p.pop()
        g = math.gcd(*p, *q)
        if q[0] < 0:
            g = -g
        if g != 1:
            p, q = [c // g for c in p], [c // g for c in q]
        self.p, self.q = p, q


class _Series:
    """A truncated series whose coefficient j is z[j] / (d * r^j).  It
    determines the coefficients through len(z) - 1, its order."""

    __slots__ = ("z", "d", "r")

    def __init__(self, z: list[int], d: int, r: int):
        self.z, self.d, self.r = z, d, r


_Number = Union[_Rational, _Series]


def eval_gf(expression: GfExpression, order: int) -> PowerSeries:
    """Expand an expression to a power series of exactly the given order.

    The tree is evaluated once on integers (see :func:`_eval`).  The
    series keeps the integer numerators of the result: each coefficient is
    read once, as an int where it is one, and becomes a Fraction only
    when ``coeffs`` is read.  A rational result also keeps its exact P/Q
    for :meth:`hankelrev.series.PowerSeries.revert`.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    value = _eval(expression, order, {})
    series = _series(value, order)
    form = (value.p, value.q) if isinstance(value, _Rational) else None
    return PowerSeries._from_numerators(series.z, series.d, series.r, form)


def expand_gf(text: str, order: int) -> PowerSeries:
    """Parse and evaluate in one step."""
    return eval_gf(parse_gf(text), order)


def _eval(e: GfExpression, w: int, valuations: dict[int, int | None]) -> _Number:
    """The value of ``e``, determined through x^w.

    A subtree without sqrt is an exact :class:`_Rational`, never truncated,
    except that a power whose degree would pass w is expanded as a series
    to order w.  ``sqrt(f)`` is a :class:`_Series` of order w from one run
    of :func:`hankelrev.series._root`.  Operations on series keep integer
    numerators over a denominator d * r^j, so nothing is divided before
    :func:`eval_gf` is done.  Every series returned determines at least
    its coefficients through x^w: a quotient by a divisor of valuation v
    takes its numerator, and a series divisor, through x^(w+v).
    ``valuations`` holds the valuation of each divisor found so far in
    this evaluation, by node identity (see :func:`_divisor`).
    """
    if isinstance(e, Lit):
        return _Rational([e.value], [1])
    if isinstance(e, Var):
        return _Rational([0, 1], [1])
    if isinstance(e, Sqrt):
        return _root_of(_eval(e.arg, w, valuations), w, 1)
    if isinstance(e, Pow):
        return _power(_eval(e.base, w, valuations), e.exponent, w)
    if isinstance(e, BinOp):
        # a chain such as x+x+...+x or x/x/.../x is a left-deep tree, one
        # node per operand: it is folded in a loop, left operand first, as
        # recursion would, but without a frame per operand.  On the way down
        # each divisor other than a bare sqrt is evaluated first, and its
        # valuation v adds v to the order of everything to its left; one
        # that fails counts as v = 0 and raises on the way up, after its
        # numerator, so the numerator's errors come first
        chain = []
        while isinstance(e, BinOp):
            right = None  # evaluated on the way up
            if e.op == "/" and not isinstance(e.right, Sqrt):
                try:
                    right = _divisor(e.right, w, valuations)
                except ValueError as error:
                    right = error
            chain.append((e, w, right))
            if isinstance(right, tuple):
                w += right[1]
            e = e.left
        value = _eval(e, w, valuations)
        for node, w, right in reversed(chain):
            if isinstance(right, ValueError):
                raise right
            if right is not None:
                value = _over(value, *right)
            elif node.op == "/":  # the quotient by sqrt(f) is the product with f^(-1/2)
                value = _mul(value, _root_of(_eval(node.right.arg, w, valuations), w, -1))
            elif node.op == "*":
                value = _mul(value, _eval(node.right, w, valuations))
            else:
                value = _add(value, _eval(node.right, w, valuations), 1 if node.op == "+" else -1)
        return value
    raise TypeError(f"not a generating-function expression node: {e!r}")


def _divisor(den: GfExpression, w: int, valuations: dict[int, int | None]) -> tuple[_Number, int]:
    """A divisor other than a bare sqrt, and its valuation v.

    The first time a divisor comes up in an evaluation it is evaluated
    through x^w, and once more through x^(w + _REACH) if it is a series
    with no nonzero coefficient through x^w.  Its valuation v is then
    stored in ``valuations``; None, where none is found, is stored as
    unknown, and raises.  A series divisor of valuation v >= 1 is
    evaluated once more, through x^(w + v), or cut back to x^(w + v) if
    it was widened: the quotient runs to the length of its divisor.  Each
    later time, v is known, and the divisor is evaluated once, through
    x^(w + v).  So a divisor nested k deep in others runs about k times,
    not 2^k.
    """
    v = valuations.get(id(den))
    if v is None:
        right = _eval(den, w, valuations)
        if _valuation(right) is None and isinstance(right, _Series):
            right = _eval(den, w + _REACH, valuations)
        v = valuations[id(den)] = _valuation(right)
        if v is None:
            raise ValueError("non-invertible series")
        if isinstance(right, _Rational):
            return right, v
        if len(right.z) > w + v:
            return _series(right, w + v), v
    return _eval(den, w + v, valuations), v


def _coefficients(value: _Number) -> list[int]:
    """The numerator of a rational function, the numerators of a series:
    either has the valuation of ``value``."""
    return value.p if isinstance(value, _Rational) else value.z


def _valuation(value: _Number) -> int | None:
    """The index of the first nonzero coefficient of ``value`` that it
    determines, or None."""
    return next((k for k, c in enumerate(_coefficients(value)) if c), None)


def _product(a: list[int], b: list[int]) -> list[int]:
    """The full product of two polynomials."""
    return _conv(a, b, len(a) + len(b) - 2)


def _scaled(z: list[int], step: int, f: int = 1) -> list[int]:
    """z_j * f * step^j for each j.  For a polynomial p and step r that is
    p(r * x); for the numerators of a series s it moves them from ratio s.r
    to ratio step * s.r."""
    if step == 1 and f == 1:
        return z
    out, scale = [], f
    for c in z:
        out.append(c * scale)
        scale *= step
    return out


def _series(value: _Number, n: int) -> _Series:
    """``value`` as a series of order at most n."""
    if isinstance(value, _Series):
        return value if len(value.z) <= n + 1 else _Series(value.z[: n + 1], value.d, value.r)
    return _Series(*_quotient(value.p, value.q, n))


def _add(a: _Number, b: _Number, sign: int) -> _Number:
    """a + b for sign 1, a - b for sign -1."""
    if isinstance(a, _Rational) and isinstance(b, _Rational):
        if a.q == b.q:
            return _Rational([x + sign * y for x, y in zip_longest(a.p, b.p, fillvalue=0)], a.q)
        p = zip_longest(_product(a.p, b.q), _product(b.p, a.q), fillvalue=0)
        return _Rational([x + sign * y for x, y in p], _product(a.q, b.q))
    if isinstance(a, _Rational):
        a = _series(a, len(b.z) - 1)
    if isinstance(b, _Rational):
        b = _series(b, len(a.z) - 1)
    n = min(len(a.z), len(b.z))
    r, d = math.lcm(a.r, b.r), math.lcm(a.d, b.d)
    za = _scaled(a.z[:n], r // a.r, d // a.d)
    zb = _scaled(b.z[:n], r // b.r, sign * (d // b.d))
    return _Series([x + y for x, y in zip(za, zb)], d, r)


def _mul(a: _Number, b: _Number) -> _Number:
    if isinstance(a, _Rational):
        if isinstance(b, _Rational):
            return _Rational(_product(a.p, b.p), _product(a.q, b.q))
        return _times_ratio(b, a.p, a.q)
    if isinstance(b, _Rational):
        return _times_ratio(a, b.p, b.q)
    n = min(len(a.z), len(b.z))
    r = math.lcm(a.r, b.r)
    za, zb = _scaled(a.z[:n], r // a.r), _scaled(b.z[:n], r // b.r)
    return _Series(_conv(za, zb, n - 1), a.d * b.d, r)


def _times_ratio(s: _Series, p: list[int], q: list[int]) -> _Series:
    """s * p/q for polynomials p and q with q[0] != 0.

    With s = Z(y) / d for y = x / r, this is Z(y) * p(r y) / q(r y) / d:
    a sparse product and :func:`hankelrev.series._quotient`, O(n) steps
    per term of p and q.  A constant q is a scalar.
    """
    n = len(s.z) - 1
    z = s.z if p == [1] else _conv(s.z, _scaled(p, s.r), n)
    if q == [1]:
        return _Series(z, s.d, s.r)
    t, d, r = _quotient(z, _scaled(q, s.r), n)
    return _Series(t, s.d * d, s.r * r)


def _over(num: _Number, den: _Number, v: int) -> _Number:
    """num / den for den of valuation v, which num must share: both are
    shifted down by v, so a series quotient is v shorter than the shorter
    of num and den."""
    if any(_coefficients(num)[:v]):
        raise ValueError("non-invertible series")
    if isinstance(den, _Rational):
        if isinstance(num, _Rational):
            return _Rational(_product(num.p[v:], den.q), _product(num.q, den.p[v:]))
        shifted = _Series(num.z[v:], num.d * num.r**v, num.r)
        return _times_ratio(shifted, den.q, den.p[v:])
    num = _series(num, len(den.z) - 1)
    n = min(len(num.z), len(den.z))
    # both shifted down by v in y = x / r, where the factors r^v cancel
    r = math.lcm(num.r, den.r)
    a, b = _scaled(num.z[:n], r // num.r), _scaled(den.z[:n], r // den.r)
    t, d, rt = _quotient(a[v:], b[v:], n - v - 1)
    return _Series(_scaled(t, 1, den.d), num.d * d, r * rt)


def _root_of(value: _Number, w: int, sign: int) -> _Series:
    """sqrt(value) for sign 1, 1/sqrt(value) for sign -1: one run of the
    power recurrence at e = sign/2.  The constant term must be 1."""
    if isinstance(value, _Rational):
        p, q = value.p, value.q
        if not p or p[0] != q[0]:
            raise ValueError("sqrt requires unit constant term")
        z, rho = _root(p, q, w, sign)
        return _Series(z, 1, rho)
    if value.z[0] != value.d:
        raise ValueError("sqrt requires unit constant term")
    z, rho = _root(value.z, [1], len(value.z) - 1, sign)
    return _Series(z, 1, rho * value.r)


def _power(base: _Number, k: int, w: int) -> _Number:
    """base^k by repeated squaring; exact unless its degree would pass w."""
    if k == 0:
        return _Rational([1], [1])
    if not isinstance(base, _Rational) or k * (max(len(base.p), len(base.q)) - 1) > w:
        base = _series(base, w)
    result = None
    while True:
        if k & 1:
            result = base if result is None else _mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _mul(base, base)
