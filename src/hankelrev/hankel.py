"""Hankel matrices, exact integer determinants, and binomial transforms.

Sequences are plain lists of arbitrary-precision ints, and so are the
results: :mod:`hankelrev.cli` renders them as text.  No rationals
appear, and every division is exact and checked: a remainder raises
``ArithmeticError``, also under ``python -O``.

A Hankel transform needs every leading principal minor of one matrix.
They all follow from the Chebyshev algorithm (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004), a recurrence on two
rows of modified moments, so a transform of depth d costs O(d^2) integer
operations (see :func:`_leading_minors`).  Its rows are kept as integers
over one denominator with their content divided out, so on sequences
with small J-fraction coefficients, such as those of the families, the
entries stay small.

One run on m = u[1:] gives all three transforms of :func:`hankel_triple`
(Krattenthaler, *Advanced determinant calculus*, 1999, the section on
orthogonal polynomials).  Let L(x^j) = m_j, let pi_k be the monic
orthogonal polynomials of L, nu_k = L(pi_k^2), and
x pi_k = pi_{k+1} + a_k pi_k + (nu_k / nu_{k-1}) pi_{k-1}.  The minors
of m are the products nu_0 ... nu_n.  With L_u(x^j) = u_j, so that
L_u(x p) = L(p), H_n(u) is the Gram matrix of L_u on 1, x, ..., x^n.  On
1, x pi_0, ..., x pi_{n-1}, a unit triangular change of basis, it is the
Jacobi matrix of m (diagonal a_k nu_k, off-diagonal nu_{k+1}) bordered
by the row and column (u_0, m_0, 0, ...).  H_n(u[2:]) is the Gram matrix
of p, q -> L(x p q) on pi_0, ..., pi_n: the Jacobi matrix alone.  Both
determinants are continuants of the same entries,

    X_{k+1} = a_k nu_k X_k - nu_k^2 X_{k-1},

with (X_{-1}, X_0) = (1, u_0) giving X_n = h_n, and (0, 1) giving
X_{n+1} = h**_n.  Row k of the run gives nu_k and a_k nu_k, so h and h**
ride on it at a few integer operations per row, and no condition such
as h**_{n-1} != 0 is needed.  The step at row k uses only pi_0, ...,
pi_k, so it is also taken at a row where nu_k = 0 and the run stops.

Past the first zero minor, values are computed one index at a time with
:func:`det_exact`, Bareiss fraction-free elimination with row swaps.  It
is also the oracle that the tests compare the run against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence


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


def _leading_minors(terms: Sequence[int], depth: int, *riders: list[int]) -> list[int]:
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

        next[i] = h p0 r[i+2] - c1 r[i+1] - h^2 prev[i+2],  c1 = r[1] p0 - h p1,

    over D h p0.  The gcd of D and the new row is divided out of both,
    with its sign chosen so that D stays positive, which keeps the
    entries small when the J-fraction coefficients are.  Row k gives
    H_k = H_{k-1} h / D; that division is exact for integer input, and
    a remainder raises ``ArithmeticError``.

    The list ends at the first zero minor, past which a_k is undefined;
    it is complete when it has ``depth + 1`` entries.

    Each rider is a list [X_{-1}, X_0] that the run extends in place with
    the continuant X_{k+1} = a_k nu_k X_k - nu_k^2 X_{k-1} at every row it
    takes, the last one included (see the module docstring).  Row k gives
    nu_k = h / D and a_k nu_k = c1 / (p0 D), so the step is

        X_{k+1} = (c1 D X_k - h^2 p0 X_{k-1}) / (p0 D^2),

    exact for integer input and checked like H_k.  It reads r[1] of the
    last row, so riders need ``2 * depth + 2`` terms.
    """
    needed = 2 * depth + (2 if riders else 1)
    if len(terms) < needed:
        raise ValueError(f"{depth + 1} leading minors need {needed} terms")
    row = [operator.index(t) for t in terms[:needed]]
    prev = [1] + [0] * len(row)  # the row before row 0
    minor = denom = 1
    minors = []
    while True:
        h = row[0]
        minor, remainder = divmod(minor * h, denom)
        if remainder:
            raise ArithmeticError("inexact Chebyshev division")
        minors.append(minor)
        last = not h or len(minors) > depth
        if last and not riders:
            return minors
        p0 = prev[0]
        c0, c1, c2 = h * p0, row[1] * p0 - h * prev[1], h * h
        for seq in riders:
            step, remainder = divmod(
                c1 * denom * seq[-1] - c2 * p0 * seq[-2], p0 * denom * denom
            )
            if remainder:
                raise ArithmeticError("inexact continuant division")
            seq.append(step)
        if last:
            return minors
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
    zero head (a reversion, a zero-prefixed anchor) would stop a run on
    ``terms`` at once, so the values then ride on a run on ``terms[1:]``,
    as h does in :func:`hankel_triple`.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    needed = 2 * depth + 1
    if len(terms) < needed:
        raise ValueError(
            f"hankel transform of depth {depth} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    if operator.index(terms[0]) or not depth:
        return _complete(terms, depth, _leading_minors(terms, depth))
    h = [1, 0]  # (X_{-1}, X_0) with u_0 = 0
    _leading_minors(terms[1:], depth - 1, h)
    return _complete(terms, depth, h[1:])


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


def hankel_triple(terms: Sequence[int], depth: int) -> HankelTriple:
    """Hankel transforms of ``terms``, ``terms[1:]`` and ``terms[2:]``.

    One run of the Chebyshev recurrence on ``terms[1:]`` gives h* as its
    minors, and h and h** as the two continuants that ride on it (see the
    module docstring).  If that run stops on a zero minor, u (when u_0 !=
    0) and u[2:] also get runs of their own, and each of h and h** keeps
    the longer prefix.  Each arm is completed with det_exact from there.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    needed = 2 * depth + 3
    if len(terms) < needed:
        raise ValueError(
            f"hankel triple of depth {depth} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    h, h_star_star = [1, operator.index(terms[0])], [0, 1]  # (X_{-1}, X_0)
    h_star = _leading_minors(terms[1:], depth, h, h_star_star)
    h, h_star_star = h[1 : depth + 2], h_star_star[2:]
    if len(h_star) <= depth:
        # u and u[2:] may have no zero minor where u[1:] has one, and their
        # own runs, O(d^2), then go further than the continuants did
        if h[0]:  # u_0; a zero head stops a run on u at once
            h = max(h, _leading_minors(terms, depth), key=len)
        h_star_star = max(h_star_star, _leading_minors(terms[2:], depth), key=len)
    return HankelTriple(
        h=tuple(_complete(terms, depth, h)),
        h_star=tuple(_complete(terms[1:], depth, h_star)),
        h_star_star=tuple(_complete(terms[2:], depth, h_star_star)),
        depth=depth,
    )


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
