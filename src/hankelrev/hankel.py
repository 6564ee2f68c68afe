"""Hankel matrices, exact integer determinants, and binomial transforms.

Sequences are plain lists of arbitrary-precision ints, and so are the
results: :mod:`hankelrev.cli` renders them as text.  No rationals
appear, and every division is exact and checked: a remainder raises
``ArithmeticError``, also under ``python -O``.

A Hankel transform needs every leading principal minor of one matrix.
One run of Han's Hankel continued fraction (G.-N. Han, *Hankel continued
fraction and its applications*, Adv. Math. 303, 2016, Thm 2.1) gives
them all for any sequence, at O(d^2) integer operations for depth d (see
:func:`_leading_minors`).  A block of zero minors, a zero head included,
costs the run one step.  Where no minor is zero, each step is the
Chebyshev algorithm's (Gautschi, *Orthogonal Polynomials: Computation
and Approximation*, 2004), a recurrence on two rows of modified moments.
The rows are kept as integers over one denominator with their content
divided out, so on sequences with small J-fraction coefficients, such as
those of the families, the entries stay small.  Each step's three
multipliers are divided by their gcd before they touch a row.  While
every row so far has had integer J-fraction coefficients a_k and b_k, as
in the family runs, the rows stay over denominator 1, and the run reads
a_k and b_k off rows r and p by two small quotients, r[1] / r[0] =
a_0 + ... + a_k and r[0] / p[0] = b_k.  It then takes the step
r[i+2] - a_k r[i+1] - b_k p[i+2], with no gcd of the multipliers, the
row or the riders below.  From the first inexact quotient or zero minor
on, the general step runs to the end.

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
as h**_{n-1} != 0 is needed.  They need every nu_k up to the depth to be
nonzero, that is no zero minor of m; past one, u and u[2:] get runs of
their own.  Divided by h*_{k-1} = nu_0 ... nu_{k-1}, the continuants are

    Y_k = X_k / h*_{k-1},  Y_{k+1} = a_k Y_k - b_k Y_{k-1},

with b_k = nu_k / nu_{k-1} and b_0 = nu_0: the ratios h_{n+1} / h*_n and
h**_n / h*_n, which are small where a_k and b_k are.  The integral step
carries these, and the run multiplies them out into h and h** once.

:func:`det_exact`, Bareiss fraction-free elimination with row swaps, is
not on the transform path.  It is prop9's independent determinant and
the oracle that the tests compare the run against.  It first divides
each row, then each column, by the gcd of its entries, so that Bareiss
runs on small entries where rows and columns share large factors: prop9's
H, with entries c_{i+j} alpha^{i+j}, reduces to Catalan-sized integers.
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

    Each row is first divided by the gcd of its entries, then each column
    by the gcd of its entries, and the determinant is the product of those
    gcds times that of the reduced matrix.  A zero gcd is a zero row or
    column, so the determinant is zero.  Bareiss's intermediate entries are
    minors of the matrix it runs on, so the content step keeps them small
    where rows and columns share large factors: entry (i, j) of prop9's H
    is c_{i+j} alpha^{i+j}, and the reduced matrix has Catalan-sized
    entries whatever alpha is.

    Row swaps (with sign tracking) handle zero pivots; a pivot column that
    is zero from the pivot row down means the determinant is zero.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    m = [[operator.index(x) for x in row] for row in matrix]
    content = 1
    for i, row in enumerate(m):
        g = math.gcd(*row)
        if not g:
            return 0
        if g != 1:
            m[i] = [x // g for x in row]
            content *= g
    for j in range(n):
        g = math.gcd(*(row[j] for row in m))
        if not g:
            return 0
        if g != 1:
            for row in m:
                row[j] //= g
            content *= g
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
    return sign * content * m[n - 1][n - 1]


def _rescale(riders: Sequence[list[int]], minors: list[int]) -> None:
    """Turn ratio riders [Y_{-1}, Y_0, ...] into continuants, in place:
    X_k = h*_{k-1} Y_k, with h*_{-2} = h*_{-1} = 1 and h*_k = minors[k]."""
    for seq in riders:
        seq[:] = map(operator.mul, [1, 1, *minors], seq)


def _leading_minors(terms: Sequence[int], depth: int, *riders: list[int]) -> list[int]:
    """Leading principal minors of orders 1 to ``depth + 1`` of the
    index-``depth`` Hankel matrix of ``terms``, by Han's H-fraction.

    Row j of the run is the series E_j of the H-fraction of the o.g.f. F
    of ``terms`` (Han 2016, Thm 2.1).  E_{-1} = 1 and E_0 = F / x^{k_0};
    with v_j = E_j(0) / E_{j-1}(0) and q_j = v_j E_{j-1} / E_j mod
    x^{k_j + 2}, the series R = q_j E_j - v_j E_{j-1} vanishes to order
    k_j + 2, and E_{j+1} = R / x^{val R} with k_{j+1} = val R - k_j - 2.
    The k_j zeros stripped from the head of row j are a block of k_j zero
    minors, and the minor after them is

        H = (-1)^{k_j (k_j + 1) / 2} H_prev E_j(0)^{k_j + 1}.

    Row j is kept as an integer list r over one denominator D, r = D E_j.
    With h = r[0], p the previous row and k = k_j, clearing the fractions
    gives the next row as (Q r - h^{k+2} p) / x^{k+2} over D p[0] h^{k+1},
    where Q = h^{k+2} p / r mod x^{k+2} is the integer polynomial that
    clears the k + 2 leading terms.  The gcd of D and the new row is
    divided out of both, with its sign chosen so that D stays positive,
    which keeps the entries small when the J-fraction coefficients are.
    Each minor is H_prev (h / D)^{k+1} up to sign; that division is exact
    for integer input, and a remainder raises ``ArithmeticError``.  A row
    that is zero as far as ``terms`` reach makes every later minor zero.

    Where k = 0, a 1x1 block, Q = h p0 - c1 x with c1 = r[1] p0 - h p1,
    and the step is the Chebyshev algorithm's.  Its three multipliers
    (c0, c1, c2) = (h p0, c1, h^2) are first divided by their gcd g,
    taken with the sign of c0 so that D stays positive:

        next[i] = (c0 r[i+2] - c1 r[i+1] - c2 p[i+2]) / g  over D c0 / g,

    with r[i] = D sigma_{j,j+i}, where sigma_{k,l} = L(pi_k x^l) for the
    monic orthogonal polynomials pi_k of the moments ``terms``.  Here
    c1 / c0 = a_j and c2 / c0 = b_j D / D_p, with D_p the denominator of
    p.

    While every earlier row has taken it, a row takes the integral step
    instead.  Then D = D_p = 1, and r[1] / h = sigma_{j,j+1} / sigma_{j,j}
    is a_0 + ... + a_j, the sum s_j of the J-fraction's a's, and
    h / p0 = nu_j / nu_{j-1} is b_j (with nu_{-1} = p0 = 1 at the head
    row).  Where both quotients are exact, a_j = s_j - s_{j-1} and b_j are
    integers, g = c0, and the reduced multipliers are (1, a_j, b_j), so
    the step takes no gcd at all:

        next[i] = r[i+2] - a_j r[i+1] - b_j p[i+2]  over D = 1,

    and the row gcd, gcd(1, ...) = 1, is not taken.  Two divisions by the
    small h and p0 replace the four products c0, c1, c2 of row heads the
    size of nu_j and two divisions by c0.  At the first inexact quotient
    or zero minor the run leaves the integral step for good, and the
    general step above runs to the end.

    Each rider is a list [X_{-1}, X_0] that the run extends in place with
    the continuant X_{j+1} = a_j nu_j X_j - nu_j^2 X_{j-1} at every row,
    the last one included (see the module docstring).  Row j gives
    nu_j = h / D and a_j nu_j = c1 / (p0 D), so the step is

        X_{j+1} = (c1 D X_j - h^2 p0 X_{j-1}) / (p0 D^2),

    with its three weights divided by their gcd first.  It is exact for
    integer input and checked like the minors.  The integral step carries
    the ratios Y_k = X_k / h*_{k-1} instead, by Y_{j+1} = a_j Y_j - b_j Y_{j-1},
    with no gcd, no division and no product larger than a_j Y_j.  The
    ratios are multiplied out into X_k = h*_{k-1} Y_k in one pass over
    each rider (:func:`_rescale`) where the integral step ends: when the
    run returns from it, or before the general step's first rider step.
    The riders read r[1] of the last row, so they need ``2 * depth + 2``
    terms.  They stop at the first block of zero minors, short of
    ``depth + 3`` entries and of no further use.
    """
    row = [operator.index(t) for t in terms[: 2 * depth + (2 if riders else 1)]]
    prev = [1] + [0] * len(row)  # E_{-1}
    minor = denom = 1
    minors = []
    s = 0  # a_0 + ... + a_{j-1} while every row has taken the integral step
    while True:
        h = row[0]
        if h:
            if s is not None:  # every row so far took the integral step: D = 1
                minor *= h
            else:
                minor, remainder = divmod(minor * h, denom)
                if remainder:
                    raise ArithmeticError("inexact Chebyshev division")
            minors.append(minor)
            last = len(minors) > depth
            if last and not riders:
                return minors
            if s is not None:
                (t, r1), (b, r2) = divmod(row[1], h), divmod(h, prev[0])
                if not (r1 or r2):  # integral a_j = t - s and b_j = b
                    a, s = t - s, t
                    for seq in riders:
                        seq.append(a * seq[-1] - b * seq[-2])
                    if last:
                        _rescale(riders, minors)
                        return minors
                    prev, row = row, [
                        x - a * y - b * z for x, y, z in zip(row[2:], row[1:], prev[2:])
                    ]
                    continue
                s = None
                _rescale(riders, minors)
            p0 = prev[0]
            c0, c1, c2 = h * p0, row[1] * p0 - h * prev[1], h * h
            if riders:
                w1, w2, w3 = c1 * denom, c2 * p0, p0 * denom * denom
                g = math.gcd(w1, w2, w3)
                (w1, r1), (w2, r2), (w3, r3) = divmod(w1, g), divmod(w2, g), divmod(w3, g)
                if r1 or r2 or r3:
                    raise ArithmeticError("inexact continuant division")
                for seq in riders:
                    step, remainder = divmod(w1 * seq[-1] - w2 * seq[-2], w3)
                    if remainder:
                        raise ArithmeticError("inexact continuant division")
                    seq.append(step)
            if last:
                return minors
            g = math.gcd(c0, c1, c2)
            if c0 < 0:
                g = -g
            (c0, r0), (c1, r1), (c2, r2) = divmod(c0, g), divmod(c1, g), divmod(c2, g)
            if r0 or r1 or r2:
                raise ArithmeticError("inexact Chebyshev division")
            nxt = [c0 * a - c1 * b - c2 * c for a, b, c in zip(row[2:], row[1:], prev[2:])]
            denom *= c0
        else:
            k = next((i for i, x in enumerate(row) if x), len(row))
            minors += [0] * k
            if len(minors) > depth:  # always so when the row is all zeros
                return minors[: depth + 1]
            riders, s = (), None
            row = row[k:]
            h = row[0]
            power = h ** (k + 1)
            minor, remainder = divmod(minor * power, denom ** (k + 1))
            if remainder:
                raise ArithmeticError("inexact look-ahead division")
            if k % 4 in (1, 2):
                minor = -minor
            minors.append(minor)
            if len(minors) > depth:
                return minors
            # the next row negated, h^{k+2} p - Q r over -D p[0] h^{k+1}, by
            # k + 2 steps that each clear the head of p
            nxt = prev[: len(row)]
            for _ in range(k + 2):
                c = nxt[0]
                nxt = [h * a - c * b for a, b in zip(nxt[1:], row[1:])]
            denom *= -prev[0] * power
        g = math.gcd(denom, *nxt)
        if denom < 0:
            g = -g
        if g != 1:
            nxt = [x // g for x in nxt]
            denom //= g
        prev, row = row, nxt


def hankel_transform(terms: Sequence[int], depth: int) -> list[int]:
    """Determinants of the Hankel matrices of index 0..depth.

    One look-ahead run gives them all, zero minors and a zero head
    included (see :func:`_leading_minors`).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    needed = 2 * depth + 1
    if len(terms) < needed:
        raise ValueError(
            f"hankel transform of depth {depth} needs at least {needed} terms,"
            f" got {len(terms)}"
        )
    return _leading_minors(terms, depth)


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

    One run on ``terms[1:]`` gives h* as its minors, and h and h** as the
    two continuants that ride on it (see the module docstring).  Past a
    zero minor of ``terms[1:]`` within the depth the riders stop, and
    ``terms`` and ``terms[2:]`` get runs of their own.
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
    if len(h_star_star) > depth + 2:
        h, h_star_star = h[1 : depth + 2], h_star_star[2:]
    else:
        h, h_star_star = _leading_minors(terms, depth), _leading_minors(terms[2:], depth)
    return HankelTriple(
        h=tuple(h), h_star=tuple(h_star), h_star_star=tuple(h_star_star), depth=depth
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
