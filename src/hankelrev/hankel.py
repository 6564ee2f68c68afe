"""Hankel matrices, exact integer determinants, and binomial transforms.

Sequences are plain lists of arbitrary-precision ints.  Determinants use
the Bareiss fraction-free elimination: every intermediate entry is a minor
of the input matrix, every division is exact (and checked), and no
rationals appear.

A Hankel transform needs every leading principal minor of one matrix.
They all follow from the Chebyshev algorithm (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004), a recurrence on two
rows of modified moments, so a transform of depth d costs O(d^2) integer
operations (see :func:`_leading_minors`).  Its rows are kept as integers
over one denominator with their content divided out, so on sequences
with small J-fraction coefficients, such as those of the families, the
entries stay small.  The recurrence divides by the previous minor, so it
stops at the first zero one; the minors past that point are computed one
index at a time with :func:`det_exact`, which swaps rows.  A zero head
u_0, as in every reversion sequence, is handled by expanding along the
(0, 0) entry, whose cofactor is a value of the transform of u[2:] (see
:func:`_head_prefix`); :func:`hankel_transform` and the h of
:func:`hankel_triple` both use it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from hankelrev.series import _decimal


def hankel_matrix(terms: Sequence[int], n: int) -> list[list[int]]:
    """The (n+1) x (n+1) matrix with entry (i, j) = terms[i + j]."""
    if n < 0:
        raise ValueError("matrix index must be non-negative")
    needed = 2 * n + 1
    if len(terms) < needed:
        raise ValueError(
            f"hankel matrix of index {n} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    return [[operator.index(terms[i + j]) for j in range(n + 1)] for i in range(n + 1)]


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination.

    Row swaps (with sign tracking) handle zero pivots; a pivot column that
    is zero from the pivot row down means the determinant is zero.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    m = [[operator.index(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                quotient, remainder = divmod(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
                if remainder:
                    raise ArithmeticError("inexact Bareiss division")
                m[i][j] = quotient
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _leading_minors(terms: Sequence[int], depth: int) -> list[int]:
    """Leading principal minors of orders 1.. of the index-``depth`` Hankel
    matrix, by the Chebyshev recurrence.

    With pi_k the monic orthogonal polynomials of the moments ``terms``,
    sigma_{k,l} = L(pi_k x^l) obeys

        sigma_{k+1,l} = sigma_{k,l+1} - a_k sigma_{k,l} - b_k sigma_{k-1,l},

    a_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1},
    b_k = sigma_{k,k}/sigma_{k-1,k-1}, and the minor of order k+1 is
    H_k = sigma_{0,0} sigma_{1,1} ... sigma_{k,k}.  Row k is kept as an
    integer list r over one denominator D, r[i] = D sigma_{k,k+i}.  With
    h = r[0] and p0, p1 the first two entries of the previous row (1, 0
    before row 0), clearing the fractions of a_k and b_k gives

        next[i] = h p0 r[i+2] - (r[1] p0 - h p1) r[i+1] - h^2 prev[i+2]

    over D h p0.  The gcd of D and the new row is divided out of both,
    with its sign chosen so that D stays positive, which keeps the
    entries small when the J-fraction coefficients are.  Row k gives
    H_k = H_{k-1} h / D; that division is exact for integer input, and
    a remainder raises ``ArithmeticError``.

    The list ends at the first zero minor, past which a_k is undefined;
    it is complete when it has ``depth + 1`` entries.
    """
    if len(terms) < 2 * depth + 1:
        raise ValueError(f"{depth + 1} leading minors need {2 * depth + 1} terms")
    row = [operator.index(t) for t in terms[: 2 * depth + 1]]
    prev = [1] + [0] * len(row)  # the row before row 0
    minor = denom = 1
    minors = []
    while True:
        h = row[0]
        minor, remainder = divmod(minor * h, denom)
        if remainder:
            raise ArithmeticError("inexact Chebyshev division")
        minors.append(minor)
        if not h or len(minors) > depth:
            return minors
        p0 = prev[0]
        c0, c1, c2 = h * p0, row[1] * p0 - h * prev[1], h * h
        nxt = [c0 * a - c1 * b - c2 * c for a, b, c in zip(row[2:], row[1:], prev[2:])]
        denom *= c0
        g = math.gcd(denom, *nxt)
        if denom < 0:
            g = -g
        if g != 1:
            nxt = [x // g for x in nxt]
            denom //= g
        prev, row = row, nxt


def _complete(terms: Sequence[int], depth: int, values: list[int]) -> list[int]:
    """Extend a prefix of the transform to ``depth``, one det_exact per index."""
    return values + [
        det_exact(hankel_matrix(terms, n)) for n in range(len(values), depth + 1)
    ]


def hankel_transform(terms: Sequence[int], depth: int) -> list[int]:
    """Determinants of the Hankel matrices of index 0..depth.

    One run of the Chebyshev recurrence gives them all; past a zero
    minor the remaining indices fall back to one det_exact each.  A
    zero-headed sequence (a reversion, a zero-prefixed anchor) would stop
    the recurrence at once, so its values come from the transform of
    ``terms[2:]`` instead, as h does in :func:`hankel_triple`.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    needed = 2 * depth + 1
    if len(terms) < needed:
        raise ValueError(
            f"hankel transform of depth {depth} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    return _complete(terms, depth, _exact_prefix(terms, depth))


def _exact_prefix(terms: Sequence[int], depth: int) -> list[int]:
    """The values of the transform that the recurrence gives, in order.

    A zero head stops the recurrence at index 0, so the values then come
    from those of ``terms[2:]`` through the (0, 0) cofactor expansion (see
    :func:`_head_prefix`), and so on while ``terms[2k]`` is zero.  Only
    the caller falls back to det_exact, so a run of zero heads costs no
    more determinants than one.
    """
    heads = 0  # terms[2k:] at depth - k is zero-headed for every k < heads
    while heads < depth and terms[2 * heads] == 0:
        heads += 1
    prefix = _leading_minors(terms[2 * heads :], depth - heads)
    for k in reversed(range(heads)):
        prefix = _head_prefix(terms[2 * k :], depth - k, prefix)
    return prefix


@dataclass(frozen=True)
class HankelTriple:
    """Hankel transforms of a sequence and of its first and second shifts."""

    h: tuple[int, ...]
    h_star: tuple[int, ...]
    h_star_star: tuple[int, ...]
    depth: int

    def __post_init__(self) -> None:
        expected = self.depth + 1
        if not (len(self.h) == len(self.h_star) == len(self.h_star_star) == expected):
            raise ValueError("each transform must carry depth + 1 entries")

    def rows(self) -> list[tuple[int, int, int, int]]:
        return [
            (n, self.h[n], self.h_star[n], self.h_star_star[n])
            for n in range(self.depth + 1)
        ]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "h", "h_star", "h_star_star"])
        for row in self.rows():
            writer.writerow([_decimal(v) for v in row])
        return buffer.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": str(self.depth),
                "h": [_decimal(v) for v in self.h],
                "h_star": [_decimal(v) for v in self.h_star],
                "h_star_star": [_decimal(v) for v in self.h_star_star],
            }
        )


# heads tried in place of u_0 by _head_prefix; with c = 1 alone, family C
# (scaled Catalan, alpha > 0) hits a zero minor wherever c * alpha = n
_HEADS = (1, -1, 2, -2)


def hankel_triple(terms: Sequence[int], depth: int) -> HankelTriple:
    """Hankel transforms of ``terms``, ``terms[1:]`` and ``terms[2:]``.

    h* and h** come from one recurrence each.  h is computed from h** and
    the transform of the sequence with its head replaced (see
    :func:`_head_prefix`), because a reversion sequence has u_0 = 0 and
    so a zero first minor.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    needed = 2 * depth + 3
    if len(terms) < needed:
        raise ValueError(
            f"hankel triple of depth {depth} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    h_star_star = hankel_transform(terms[2:], depth)
    return HankelTriple(
        h=tuple(_complete(terms, depth, _head_prefix(terms, depth, h_star_star))),
        h_star=tuple(hankel_transform(terms[1:], depth)),
        h_star_star=tuple(h_star_star),
        depth=depth,
    )


def _head_prefix(
    terms: Sequence[int], depth: int, h_star_star: Sequence[int]
) -> list[int]:
    """Leading values of the Hankel transform of ``terms`` given leading
    values of that of ``terms[2:]``.

    A determinant is linear in its (0, 0) entry, and the cofactor of that
    entry in H_n(u) is H_{n-1}(u[2:]).  So for u' equal to u with u_0
    replaced by c,

        det H_n(u) = det H_n(u') - (c - u_0) * h**_{n-1},   h**_{-1} = 1.

    The sequence itself is tried first, then each head in ``_HEADS``; the
    longest prefix wins.  A value needs its minor of u' and h**_{n-1}, so
    a head can give at most ``len(h_star_star) + 1`` values and its
    recurrence stops there; the caller completes the prefix with det_exact.
    """
    u0 = operator.index(terms[0])
    best = _leading_minors(terms, depth) if u0 else [0]  # a zero minor at once
    cofactors = [1, *h_star_star]
    reach = min(depth, len(h_star_star))
    for c in _HEADS:
        if len(best) > depth:
            break
        minors = _leading_minors([c, *terms[1:]], reach)
        if len(minors) > len(best):
            best = [m - (c - u0) * cof for m, cof in zip(minors, cofactors)]
    return best


def binomial_transform(terms: Sequence[int]) -> list[int]:
    """b_n = sum_k C(n, k) * a_k, same length as the input.

    Taken by Pascal's rule: the rows t_0 = a, t_{j+1}[i] = t_j[i] + t_j[i+1]
    have t_n[0] = b_n, so the transform costs O(n^2) integer additions.
    """
    row = [operator.index(t) for t in terms]
    out = []
    while row:
        out.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return out


def inverse_binomial_transform(terms: Sequence[int]) -> list[int]:
    """a_n = sum_k (-1)^(n-k) * C(n, k) * b_k; inverts binomial_transform.

    a_n is the n-th forward difference of b at 0, taken by the difference
    rows t_{j+1}[i] = t_j[i+1] - t_j[i], which have t_n[0] = a_n.
    """
    row = [operator.index(t) for t in terms]
    out = []
    while row:
        out.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return out
