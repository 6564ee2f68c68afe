"""Slow reference implementations used only to cross-check the library.

Everything here trades speed for obviousness: cofactor expansion is
exponential and the Gaussian variant works over Fraction, so neither is
suitable outside tests.  The series routines work on plain lists of
Fraction coefficients, one Fraction operation per pair of terms, without
the library's common-denominator kernel; :func:`compose_ref` substitutes
one series into another, which checks reversion both ways, and
:func:`pad` builds such a list from a polynomial.  :func:`eval_gf_ref`
evaluates a g.f. expression on them, node by node at a working order, as
``hankelrev.gf`` did before it evaluated on integers.  :func:`h_fractions`
draws sequences whose Hankel minors are known in closed form.
:func:`prop9_coeff_identity_1` and :func:`prop9_coeff_identity_2` check
the two polynomial coefficient identities that prop9's factorization
rests on, by expanding the polynomials term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from hankelrev.gf import BinOp, Lit, Pow, Sqrt, Var
from hankelrev.series import PowerSeries


def det_cofactor(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [
            [row[c] for c in range(n) if c != j]
            for row in matrix[1:]
        ]
        total += (-1) ** j * matrix[0][j] * det_cofactor(minor)
    return total


def det_gauss(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by plain Gaussian elimination over Fraction."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    result = Fraction(sign)
    for k in range(n):
        result *= m[k][k]
    return result


def binomial_row(n: int) -> list[int]:
    """Row n of Pascal's triangle via the additive recurrence."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def binomial_transform_ref(terms: Sequence[int]) -> list[int]:
    """Binomial transform straight from the defining double sum."""
    out = []
    for n in range(len(terms)):
        row = binomial_row(n)
        out.append(sum(row[k] * terms[k] for k in range(n + 1)))
    return out


def inverse_binomial_transform_ref(terms: Sequence[int]) -> list[int]:
    """Inverse binomial transform from its double sum with signs (-1)^(n-k)."""
    out = []
    for n in range(len(terms)):
        row = binomial_row(n)
        out.append(sum((-1) ** (n - k) * row[k] * terms[k] for k in range(n + 1)))
    return out


def pad(coeffs: Sequence[Fraction], order: int) -> list[Fraction]:
    """A coefficient list padded with zeros, or truncated, to the order."""
    out = [Fraction(c) for c in coeffs[: order + 1]]
    return out + [Fraction(0)] * (order + 1 - len(out))


def series_product_ref(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Truncated product of two equal-length coefficient lists, one Fraction
    multiply-add per pair of terms."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out


def series_quotient_ref(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """a/b for equal-length coefficient lists with b[0] != 0, by the division
    recurrence q_m = (a_m - sum_k b_k q_{m-k}) / b_0."""
    out: list[Fraction] = []
    for m in range(len(a)):
        acc = Fraction(a[m])
        for k in range(1, m + 1):
            acc -= b[k] * out[m - k]
        out.append(acc / b[0])
    return out


def series_inverse_ref(b: Sequence[Fraction]) -> list[Fraction]:
    """1/b for a coefficient list with b[0] != 0."""
    return series_quotient_ref([Fraction(1)] + [Fraction(0)] * (len(b) - 1), b)


def series_sqrt_ref(f: Sequence[Fraction]) -> list[Fraction]:
    """sqrt(f) for f[0] == 1, by matching coefficients of y * y = f:
    y_m = (f_m - sum_{0<k<m} y_k y_{m-k}) / 2."""
    out = [Fraction(1)]
    for m in range(1, len(f)):
        acc = Fraction(f[m])
        for k in range(1, m):
            acc -= out[k] * out[m - k]
        out.append(acc / 2)
    return out


def revert_ref(f: Sequence[Fraction]) -> list[Fraction]:
    """Compositional inverse by Lagrange inversion, n u_n = [x^(n-1)] (x/f)^n,
    with every power of x/f formed by the Fraction product above."""
    n = len(f) - 1
    h = series_inverse_ref(f[1:])  # x/f, to order n - 1
    out = [Fraction(0), h[0]]
    power = h
    for m in range(2, n + 1):
        power = series_product_ref(power, h)
        out.append(power[m - 1] / m)
    return out


def compose_ref(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    """f(g) for equal-length coefficient lists with g[0] == 0, by Horner's
    rule with the Fraction product above."""
    if g[0] != 0:
        raise ValueError("composition requires zero constant term")
    result = [Fraction(0)] * len(f)
    for c in reversed(f):
        result = series_product_ref(result, g)
        result[0] += c
    return result


def binomial_ogf_horner_ref(f: Sequence[Fraction]) -> list[Fraction]:
    """(1/(1-x)) * f(x/(1-x)), with f(x/(1-x)) by :func:`compose_ref`."""
    n = len(f) - 1
    inner = [Fraction(0)] + [Fraction(1)] * n  # x/(1-x)
    return series_product_ref(compose_ref(f, inner), [Fraction(1)] * (n + 1))


class _NeedPrecisionRef(Exception):
    def __init__(self, extra: int):
        self.extra = max(1, extra)


def eval_gf_ref(expression, order: int, passes: int = 8) -> PowerSeries:
    """Expand a g.f. expression tree the way ``eval_gf`` once did.

    Every node, literals and x included, is a Fraction list truncated at
    a working order w, built with the reference routines above, together
    with the greatest index it determines.  A quotient by a series of
    valuation v shifts both down by v and determines v fewer
    coefficients, and the caller widens w until the requested order is
    determined, in at most ``passes`` evaluations of the whole tree.  With
    no nonzero coefficient in sight the divisor widens w by one, so a
    divisor of valuation v needs about v passes: x^8/x^8 runs out of
    passes at order 0 and 1.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    working = order
    for _ in range(passes):
        try:
            series, valid = _eval_ref(expression, working)
        except _NeedPrecisionRef as need:
            working += need.extra
            continue
        if valid >= order:
            return PowerSeries(tuple(series[: order + 1]))
        working += order - valid
    raise ValueError("non-invertible series")


def _eval_ref(e, w: int) -> tuple[list[Fraction], int]:
    zero = [Fraction(0)] * (w + 1)
    if isinstance(e, Lit):
        return [Fraction(e.value)] + zero[1:], w
    if isinstance(e, Var):
        return ([Fraction(0), Fraction(1)] + zero[2:])[: w + 1], w
    if isinstance(e, Sqrt):
        inner, valid = _eval_ref(e.arg, w)
        if valid < 0:
            raise _NeedPrecisionRef(-valid)
        if inner[0] != 1:
            raise ValueError("sqrt requires unit constant term")
        return series_sqrt_ref(inner), valid
    if isinstance(e, Pow):
        base, valid = _eval_ref(e.base, w)
        result = [Fraction(1)] + zero[1:]
        for _ in range(e.exponent):
            result = series_product_ref(result, base)
        return result, valid if e.exponent else w
    if not isinstance(e, BinOp):
        raise TypeError(f"not a generating-function expression node: {e!r}")
    left, lv = _eval_ref(e.left, w)
    right, rv = _eval_ref(e.right, w)
    if e.op == "+":
        return [a + b for a, b in zip(left, right)], min(lv, rv)
    if e.op == "-":
        return [a - b for a, b in zip(left, right)], min(lv, rv)
    if e.op == "*":
        return series_product_ref(left, right), min(lv, rv)
    if rv < 0:
        raise _NeedPrecisionRef(-rv)
    v = next((k for k in range(rv + 1) if right[k] != 0), None)
    if v is None:
        raise _NeedPrecisionRef(w - rv + 1)
    if v == 0:
        return series_quotient_ref(left, right), min(lv, rv)
    if lv < v - 1:
        raise _NeedPrecisionRef(v - 1 - lv)
    if any(left[k] != 0 for k in range(v)):
        raise ValueError("non-invertible series")
    if w < v:
        raise _NeedPrecisionRef(v - w)
    quotient = series_quotient_ref(left[v:], right[v:])
    return quotient + [Fraction(0)] * v, min(lv, rv) - v


@st.composite
def h_fractions(draw) -> tuple[list[int], list[int]]:
    """A sequence with zero-minor blocks anywhere, and its leading minors.

    The sequence is the expansion, by the list routines above, of a
    random finite H-fraction (G.-N. Han, *Hankel continued fraction and
    its applications*, Adv. Math. 303, 2016, Thm 2.1)

        F = v_0 x^{k_0} / (1 + x u_1 - v_1 x^{k_0+k_1+2} / (1 + x u_2 - ...)),

    J = 1..4 levels deep, with k_j in 0..3, small nonzero v_j and small
    integer polynomials u_j of degree at most k_{j-1}.  Its nonzero minors
    are exactly H_{s_j} = (-1)^{eps_j} prod_{i<j} v_i^{s_j - s_i} for
    j = 1..J, with s_j = k_0 + ... + k_{j-1} + j and eps_j the sum of
    k_i (k_i + 1) / 2 over i < j, so a k_j >= 1 is a block of k_j zero
    minors.  The minors returned are those of orders 1..depth+1, depth
    up to two past s_J; the sequence has 2 * depth + 3 terms.
    """
    levels = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(0, 3), min_size=levels, max_size=levels))
    vs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=levels, max_size=levels))
    # u_1..u_J; u_j has degree at most k_{j-1}
    us = [draw(st.lists(st.integers(-2, 2), min_size=k + 1, max_size=k + 1)) for k in ks]
    s = [0]
    for k in ks:
        s.append(s[-1] + k + 1)
    depth = s[-1] - 1 + draw(st.integers(0, 2))
    order = 2 * depth + 2

    def poly(coeffs):
        return pad(coeffs, order)

    tail = poly([1, *us[-1]])
    for j in range(levels - 1, 0, -1):
        level = series_quotient_ref(poly([0] * (ks[j - 1] + ks[j] + 2) + [vs[j]]), tail)
        tail = [a - b for a, b in zip(poly([1, *us[j - 1]]), level)]
    expansion = series_quotient_ref(poly([0] * ks[0] + [vs[0]]), tail)
    if any(c.denominator != 1 for c in expansion):
        raise ArithmeticError("the H-fraction expansion is not integral")
    terms = [c.numerator for c in expansion]
    minors = [0] * (depth + 1)
    for j in range(1, levels + 1):
        sign = (-1) ** sum(k * (k + 1) // 2 for k in ks[:j])
        minors[s[j] - 1] = sign * math.prod(vs[i] ** (s[j] - s[i]) for i in range(j))
    return terms, minors


# ----------------------------------------------------------------------
# closed forms of the three families (see hankelrev.families)


def _catalan_ref(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def family_base_term_ref(family: str, alpha: int, beta: int, n: int) -> int:
    """Coefficient n of the base o.g.f. in closed form:

    A: a_n = sum_k C(n-1-k, k) * (-alpha)^(n-1-2k) * (-beta)^k (n >= 1);
    B: a_1 = 1 and a_n = (beta - alpha) * beta^(n-2) for n >= 2;
    C: the polynomial x - alpha*x^2.
    """
    if n == 0:
        return 0
    if family == "A":
        return sum(
            math.comb(n - 1 - k, k) * (-alpha) ** (n - 1 - 2 * k) * (-beta) ** k
            for k in range((n - 1) // 2 + 1)
        )
    if n == 1:
        return 1
    if family == "B":
        return (beta - alpha) * beta ** (n - 2)
    return -alpha if n == 2 else 0


def family_reversion_term_ref(family: str, alpha: int, beta: int, n: int) -> int:
    """Coefficient n of the reversion of the base o.g.f. as a binomial sum:

    A: u_n = sum_k C(n-1, 2k) * catalan(k) * alpha^(n-2k-1) * beta^k;
    B: u_n = sum_{k<n} C(n+k-1, 2k) * catalan(k) * alpha^k * (-beta)^(n-k-1);
    C: u_n = catalan(n-1) * alpha^(n-1)  (beta is ignored).
    """
    if n == 0:
        return 0
    if family == "A":
        return sum(
            math.comb(n - 1, 2 * k) * _catalan_ref(k) * alpha ** (n - 2 * k - 1) * beta**k
            for k in range((n - 1) // 2 + 1)
        )
    if family == "B":
        return sum(
            math.comb(n + k - 1, 2 * k) * _catalan_ref(k) * alpha**k * (-beta) ** (n - k - 1)
            for k in range(n)
        )
    return _catalan_ref(n - 1) * alpha ** (n - 1)


def family_reversion_radical_ref(family: str, alpha: int, beta: int, count: int) -> list[Fraction]:
    """The first ``count`` coefficients of the reversion from its radical o.g.f.:

    A: (1 - alpha*x - sqrt(1 - 2*alpha*x + (alpha^2 - 4*beta)*x^2)) / (2*beta*x), beta != 0;
    B: (1 + beta*x - sqrt(1 - 2*(2*alpha - beta)*x + beta^2*x^2)) / (2*alpha), alpha != 0;
    C: (1 - sqrt(1 - 4*alpha*x)) / (2*alpha), alpha != 0.

    The square root is ``series_sqrt_ref``, so nothing here uses the library.
    """
    if family == "A":
        if beta == 0:
            raise ValueError("the family A radical form needs beta != 0")
        head, scale, shift = [1, -alpha], 2 * beta, 1
        radicand = [1, -2 * alpha, alpha * alpha - 4 * beta]
    else:
        if alpha == 0:
            raise ValueError("the radical form needs alpha != 0")
        b = beta if family == "B" else 0
        head, scale, shift = [1, b], 2 * alpha, 0
        radicand = [1, 2 * b - 4 * alpha, b * b]
    size = count + shift
    padded = [Fraction(c) for c in radicand] + [Fraction(0)] * size
    root = series_sqrt_ref(padded[:size])
    numerator = [(head[m] if m < len(head) else 0) - root[m] for m in range(size)]
    return [c / scale for c in numerator[shift:]]


# ----------------------------------------------------------------------
# the two coefficient identities behind prop9's factorization


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return out


def _poly_coefficient(p: list[int], k: int) -> int:
    return p[k] if 0 <= k < len(p) else 0


def prop9_coeff_identity_1(i: int, j: int, alpha: int) -> bool:
    """Coefficient of x^(i+j+1) in (1-alpha*x)^2 * (1+alpha*x)^(2i+2j)
    equals -2 * catalan(i+j) * alpha^(i+j+1)."""
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    poly = [1, -2 * alpha, alpha * alpha]
    for _ in range(2 * i + 2 * j):
        poly = _poly_mul(poly, [1, alpha])
    lhs = _poly_coefficient(poly, i + j + 1)
    rhs = -2 * _catalan_ref(i + j) * alpha ** (i + j + 1)
    return lhs == rhs


def prop9_coeff_identity_2(i: int, k: int, alpha: int) -> bool:
    """Coefficient of x^k in (1-alpha*x) * (1+alpha*x)^(2i)
    equals C(2i, k) * (2i-2k+1)/(2i-k+1) * alpha^k.

    At k = 2i+1 the stated ratio degenerates to 0/0; there the equivalent
    difference form C(2i, k) - C(2i, k-1) is used instead.
    """
    if i < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    poly = [1, -alpha]
    for _ in range(2 * i):
        poly = _poly_mul(poly, [1, alpha])
    lhs = _poly_coefficient(poly, k)
    if 2 * i - k + 1 != 0:
        # the ratio form, cross-multiplied
        return lhs * (2 * i - k + 1) == math.comb(2 * i, k) * (2 * i - 2 * k + 1) * alpha**k
    return lhs == (math.comb(2 * i, k) - math.comb(2 * i, k - 1)) * alpha**k
