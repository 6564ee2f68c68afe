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
draws sequences whose Hankel minors are known in closed form, and
:func:`stieltjes_moments` builds the moments of a J-fraction, whose run
:func:`continuants` follows.  The ``*_rhs_ref`` functions give the
right-hand sides of the verifier reports from their closed forms, and
:func:`report_checks_ref` gives their whole check rows with each side a
function of n, one call per row; :func:`row_blocks` puts rows into claim
blocks, one block per row, to build a report from.
:func:`prop9_coeff_identity_1` and :func:`prop9_coeff_identity_2` check
the two polynomial coefficient identities that prop9's factorization
rests on, by expanding the polynomials term by term.  The ``*_text_ref``
functions are the CLI's writers as they were before it streamed rendered
rows: each builds the whole text, cell by cell, and
:func:`align_table_ref` and :func:`csv_text_ref` lay out the table and
CSV cells.
"""

from __future__ import annotations

import csv
import io
import json
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


def stieltjes_moments(a: Sequence, b: Sequence, count: int) -> list:
    """The first ``count`` moments of the J-fraction

        b_0 / (1 - a_0 x - b_1 x^2 / (1 - a_1 x - b_2 x^2 / (1 - ...))),

    with coefficients past the lists taken as 0, by the forward Stieltjes
    recurrence on weighted Motzkin paths: m_n = b_0 g_{n,0}, where
    g_{0,k} = [k = 0] and g_{n+1,k} = g_{n,k-1} + a_k g_{n,k} + b_{k+1} g_{n,k+1}.
    The entries are ints or Fractions, as the coefficients are.  The
    Hankel minors of m are nu_0 ... nu_n with nu_k = b_0 ... b_k.
    """
    levels = len(a)
    g = [1] + [0] * (levels - 1)
    out = []
    for _ in range(count):
        out.append(b[0] * g[0])
        g = [
            (g[k - 1] if k else 0) + a[k] * g[k] + (b[k + 1] * g[k + 1] if k + 1 < levels else 0)
            for k in range(levels)
        ]
    return out


def continuants(a: Sequence[int], b: Sequence[int], start: tuple[int, int]) -> list[int]:
    """[X_{-1}, X_0, X_1, ...] from (X_{-1}, X_0) = start by
    X_{k+1} = a_k X_k - b_k X_{k-1}, one step per pair (a_k, b_k)."""
    x = list(start)
    for ak, bk in zip(a, b):
        x.append(ak * x[-1] - bk * x[-2])
    return x


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


# ----------------------------------------------------------------------
# right-hand sides of the verifier reports, one pow per closed form


def conjecture4_rhs_ref(alpha: int, beta: int, depth: int) -> list[int]:
    """The rhs column of conjecture 4's report, in its row order, with
    h*_n = beta^binom(n+1,2) and the base coefficients in closed form."""
    h_star = [beta ** math.comb(n + 1, 2) for n in range(depth + 1)]
    a = [family_base_term_ref("A", alpha, beta, n) for n in range(depth + 2)]
    return h_star + [
        rhs for n in range(depth) for rhs in (a[n + 1] * h_star[n], a[n + 2] * h_star[n])
    ]


def conjecture6_rhs_ref(alpha: int, beta: int, depth: int) -> list[int]:
    """The rhs column of conjecture 6's report, with h*_n = (alpha(alpha-beta))^binom(n+1,2)."""
    gap = alpha - beta
    h_star = [(alpha * gap) ** math.comb(n + 1, 2) for n in range(depth + 1)]
    return h_star + [
        rhs
        for n in range(depth)
        for rhs in ((gap ** (n + 1) - alpha ** (n + 1)) * h_star[n], gap ** (n + 1) * h_star[n])
    ]


def conjecture8_rhs_ref(alpha: int, depth: int) -> list[int]:
    """The rhs column of conjecture 8's report, with h*_n = alpha^(n(n+1))."""
    h_star = [alpha ** (n * (n + 1)) for n in range(depth + 1)]
    direct = [
        rhs
        for n in range(depth + 1)
        for rhs in (-n * alpha ** (n * n - 1) if n else 0, h_star[n], alpha ** ((n + 1) ** 2))
    ]
    return direct + [
        rhs
        for n in range(depth)
        for rhs in (-(n + 1) * alpha**n * h_star[n], alpha ** (n + 1) * h_star[n])
    ]


def prop9_rhs_ref(alpha: int, n: int) -> list[int]:
    """The rhs column of prop9's report: every entry of T * T^t as the plain
    sum of T[i][k] T[j][k], T[i][k] = C(2i, i+k) (2k+1) / (i+k+1) alpha^i,
    then alpha^(n(n+1)) and alpha^binom(n+1,2)."""
    T = [
        [math.comb(2 * i, i + k) * (2 * k + 1) // (i + k + 1) * alpha**i for k in range(i + 1)]
        for i in range(n + 1)
    ]
    products = [
        sum(T[i][k] * T[j][k] for k in range(min(i, j) + 1))
        for i in range(n + 1)
        for j in range(n + 1)
    ]
    return products + [alpha ** (n * (n + 1)), alpha ** math.comb(n + 1, 2)]


# ----------------------------------------------------------------------
# the verifier reports as per-n claims, as the verifiers stated them
# before their claims became columns


def _rows_ref(count: int, *claims) -> tuple:
    """Check rows for n = 0..count-1, n-major, of ``(label, lhs, rhs)``
    claims whose sides are functions of n."""
    from hankelrev.conjectures import Check

    return tuple(
        Check(n, label, lhs(n), rhs(n)) for n in range(count) for label, lhs, rhs in claims
    )


def report_checks_ref(cid: str, alpha: int, beta: int, depth: int, order: int) -> tuple:
    """The check rows of ``CONJECTURES[cid].verify(alpha, beta, depth, order)``
    at an admissible point, each side a function of n evaluated per row; the
    transforms and family terms come from the library."""
    from hankelrev import conjectures as c
    from hankelrev.families import FamilyParams, family_base_terms, family_reversion_terms
    from hankelrev.hankel import (
        binomial_transform,
        det_exact,
        hankel_matrix,
        hankel_transform,
        hankel_triple,
    )

    def triple(family: str):
        params = FamilyParams(alpha, beta if family != "C" else 0, family)
        return params, hankel_triple(family_reversion_terms(params, 2 * depth + 3), depth)

    if cid == "4":
        params, t = triple("A")
        a = family_base_terms(params, depth + 2)
        return _rows_ref(
            depth + 1,
            (c.CLAIM_C4_HSTAR, lambda n: t.h_star[n], lambda n: beta ** math.comb(n + 1, 2)),
        ) + _rows_ref(
            depth,
            (c.CLAIM_C4_H, lambda n: (-1) ** (n + 1) * t.h[n + 1],
             lambda n: a[n + 1] * t.h_star[n]),
            (c.CLAIM_C4_HSS, lambda n: (-1) ** (n + 1) * t.h_star_star[n],
             lambda n: a[n + 2] * t.h_star[n]),
        )
    if cid == "6":
        _, t = triple("B")
        gap = alpha - beta
        return _rows_ref(
            depth + 1,
            (c.CLAIM_C6_HSTAR, lambda n: t.h_star[n],
             lambda n: (alpha * gap) ** math.comb(n + 1, 2)),
        ) + _rows_ref(
            depth,
            (c.CLAIM_C6_H, lambda n: beta * t.h[n + 1],
             lambda n: (gap ** (n + 1) - alpha ** (n + 1)) * t.h_star[n]),
            (c.CLAIM_C6_HSS, lambda n: t.h_star_star[n], lambda n: gap ** (n + 1) * t.h_star[n]),
        )
    if cid == "8":
        _, t = triple("C")
        return _rows_ref(
            depth + 1,
            (c.CLAIM_C8_H, lambda n: t.h[n], lambda n: -n * alpha ** (n * n - 1) if n else 0),
            (c.CLAIM_C8_HSTAR, lambda n: t.h_star[n], lambda n: alpha ** (n * (n + 1))),
            (c.CLAIM_C8_HSS, lambda n: t.h_star_star[n], lambda n: alpha ** ((n + 1) ** 2)),
        ) + _rows_ref(
            depth,
            (c.CLAIM_C8_H_RATIO, lambda n: t.h[n + 1],
             lambda n: -(n + 1) * alpha**n * t.h_star[n]),
            (c.CLAIM_C8_HSS_RATIO, lambda n: t.h_star_star[n],
             lambda n: alpha ** (n + 1) * t.h_star[n]),
        )
    if cid == "prop9":
        params = FamilyParams(alpha, 0, "C")
        H = hankel_matrix(family_reversion_terms(params, 2 * depth + 2)[1:], depth)
        T = c.prop9_T_matrix(alpha, depth)
        products = tuple(
            c.Check(i, c.CLAIM_P9_PRODUCT.format(i=i, j=j), H[i][j],
                    sum(T[i][k] * T[j][k] for k in range(depth + 1)))
            for i in range(depth + 1)
            for j in range(depth + 1)
        )
        det_t = math.prod(T[i][i] for i in range(depth + 1))
        return products + (
            c.Check(depth, c.CLAIM_P9_DET, det_exact(H), alpha ** (depth * (depth + 1))),
            c.Check(depth, c.CLAIM_P9_DET_T, det_t, alpha ** math.comb(depth + 1, 2)),
        )
    if cid == "alpha_shift":
        here = family_reversion_terms(FamilyParams(alpha, beta, "A"), order + 2)[1:]
        shifted = family_reversion_terms(FamilyParams(alpha + 1, beta, "A"), order + 2)[1:]
        transformed = binomial_transform(here)
        half = (order - 1) // 2
        h_here, h_transformed = hankel_transform(here, half), hankel_transform(transformed, half)
        return _rows_ref(
            order + 1, (c.CLAIM_SHIFT_COEFF, lambda n: transformed[n], lambda n: shifted[n])
        ) + _rows_ref(
            half + 1, (c.CLAIM_SHIFT_HANKEL, lambda n: h_here[n], lambda n: h_transformed[n])
        )
    if cid == "anchors":
        count = 2 * depth + 1
        cat = [_catalan_ref(k) for k in range(count + 1)]
        central = [math.comb(2 * k, k) for k in range(count)]

        def transform(sequence):
            return hankel_transform(sequence, depth).__getitem__

        anchors = [
            (c.CLAIM_ANCHOR_CATALAN, transform(cat[:count]), lambda n: 1),
            (c.CLAIM_ANCHOR_CATALAN_SHIFT, transform(cat[1 : count + 1]), lambda n: 1),
            (c.CLAIM_ANCHOR_CENTRAL, transform(central), lambda n: 2**n),
            (c.CLAIM_ANCHOR_CENTRAL_ZERO, transform([0] + central[: count - 1]),
             lambda n: -n * 2 ** (n - 1) if n else 0),
            (c.CLAIM_ANCHOR_CATALAN_ZERO, transform([0] + cat[: count - 1]), lambda n: -n),
            (c.CLAIM_ANCHOR_CATALAN_HEADLESS, transform([0] + cat[1:count]), lambda n: -n),
        ]
        return tuple(row for anchor in anchors for row in _rows_ref(depth + 1, anchor))
    raise ValueError(f"no reference for {cid!r}")


def row_blocks(checks) -> tuple:
    """Claim blocks that hold ``checks`` in order: one block of one claim
    per row, so a report built from them has exactly these rows."""
    from hankelrev.conjectures import Block, Claim

    return tuple(Block(c.index, (Claim(c.claim, (c.lhs,), (c.rhs,)),)) for c in checks)


# ----------------------------------------------------------------------
# the CLI's writers as they were before the rendered-row stream: each
# builds its whole output as one string, cell by cell


def align_table_ref(header: list[str], rows: list[list[str]]) -> str:
    """Columns padded to their widest cell, two spaces apart."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def csv_text_ref(header: list[str], rows: list[list[str]]) -> str:
    """CSV lines, a cell quoted only where it needs it, without the last
    newline: ``csv.writer``'s text, each cell that could need quoting
    written through the writer on its own."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def quoted(cells: list[str]) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(cells)
        return buffer.getvalue()[:-1]

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


def values_text_ref(values: list[str], fmt: str) -> str:
    """A value table (``expand``, ``revert``, ``hankel``, ``binomial``)."""
    if fmt == "json":
        return json.dumps(values)
    if fmt == "csv":
        return ",".join(values)
    return align_table_ref(["n", "value"], [[str(n), v] for n, v in enumerate(values)])


def _sides_ref(row) -> tuple[str, str, str, str, bool]:
    from hankelrev.series import _decimal

    n, claim, lhs, rhs = row
    return str(n), claim, _decimal(lhs), _decimal(rhs), lhs == rhs


def _json_list_ref(items: list[str], pad: str) -> str:
    """A JSON array of rendered items whose opening bracket sits at indent pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_object_ref(fields: dict[str, str], pad: str) -> str:
    """A JSON object of rendered values under plain ASCII keys, opened at indent pad."""
    inner = "\n" + pad + "  "
    body = ("," + inner).join(f'"{key}": {value}' for key, value in fields.items())
    return "{" + inner + body + "\n" + pad + "}"


def _report_json_ref(report, pad: str) -> str:
    from hankelrev.series import _decimal

    string = json.encoder.encode_basestring_ascii
    lead = "\n" + pad + "      "
    sep = "," + lead
    close = "\n" + pad + "    }"
    rows = []
    for n, claim, lhs, rhs, passed in map(_sides_ref, report.rows()):
        rows.append(
            f'{{{lead}"n": "{n}"{sep}"claim": {string(claim)}{sep}"lhs": "{lhs}"'
            f'{sep}"rhs": "{rhs}"{sep}"pass": {"true" if passed else "false"}{close}'
        )
    params = report.params
    return _json_object_ref({
        "conjecture": string(report.conjecture_id),
        "alpha": "null" if params is None else f'"{_decimal(params.alpha)}"',
        "beta": "null" if params is None else f'"{_decimal(params.beta)}"',
        "depth": f'"{report.depth}"',
        "checks": _json_list_ref(rows, pad + "  "),
        "all_pass": "true" if report.all_pass else "false",
        "notes": _json_list_ref([string(note) for note in report.notes], pad + "  "),
    }, pad)


def report_text_ref(report, fmt: str) -> str:
    """A verification report as ``hankelrev verify`` prints it, but for
    the last newline."""
    from hankelrev.series import _decimal

    params = report.params
    if fmt == "json":
        return _report_json_ref(report, "")
    rows = [_sides_ref(row) for row in report.rows()]
    if fmt == "csv":
        alpha = "" if params is None else _decimal(params.alpha)
        beta = "" if params is None else _decimal(params.beta)
        header = ["conjecture", "alpha", "beta", "depth", "n", "claim", "lhs", "rhs", "pass"]
        return csv_text_ref(header, [
            [report.conjecture_id, alpha, beta, str(report.depth), n, claim, lhs, rhs,
             "true" if passed else "false"]
            for n, claim, lhs, rhs, passed in rows
        ])
    heading = f"conjecture {report.conjecture_id}"
    if params is not None:
        heading += f": alpha={_decimal(params.alpha)} beta={_decimal(params.beta)}"
    heading += f" depth={report.depth}"
    lines = [heading] + [f"note: {note}" for note in report.notes]
    table = [[n, claim, lhs, rhs, "ok" if passed else "FAIL"] for n, claim, lhs, rhs, passed in rows]
    lines.append(align_table_ref(["n", "claim", "lhs", "rhs", "status"], table))
    passed = sum(row[-1] for row in rows)
    verdict = "all checks passed" if passed == len(rows) else "CHECKS FAILED"
    lines.append(f"{verdict} ({passed}/{len(rows)})")
    return "\n".join(lines)


def sweep_text_ref(result, fmt: str, full: bool) -> str:
    """A sweep as ``hankelrev sweep`` prints it, but for the last newline."""
    from hankelrev.series import _decimal

    if fmt == "json":
        pad = "    "
        skipped = [
            _json_object_ref({"alpha": f'"{_decimal(p.alpha)}"', "beta": f'"{_decimal(p.beta)}"'}, pad)
            for p in result.skipped
        ]
        fields = {
            "conjecture": json.encoder.encode_basestring_ascii(result.conjecture_id),
            "depth": f'"{result.depth}"',
            "grid_points": f'"{len(result.grid)}"',
            "checked": f'"{len(result.reports)}"',
            "skipped": _json_list_ref(skipped, "  "),
            "counterexamples": _json_list_ref(
                [_report_json_ref(r, pad) for r in result.counterexamples], "  "
            ),
            "all_pass": "false" if result.counterexamples else "true",
        }
        if full:
            fields["reports"] = _json_list_ref([_report_json_ref(r, pad) for r in result.reports], "  ")
        return _json_object_ref(fields, "")
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
        return csv_text_ref(["conjecture", "alpha", "beta", "depth", "status"], rows)
    lines = [
        f"conjecture {result.conjecture_id}: depth={result.depth}"
        f" grid={len(result.grid)} checked={len(result.reports)}"
        f" skipped={len(result.skipped)}"
        f" counterexamples={len(result.counterexamples)}"
    ]
    for report in result.counterexamples:
        lines.append("")
        lines.append(report_text_ref(report, "table"))
    if not result.counterexamples:
        lines.append("no counterexamples")
    return "\n".join(lines)
