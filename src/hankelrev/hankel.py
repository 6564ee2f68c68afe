"""Hankel transforms, exact integer determinants, and binomial transforms.

Sequences are plain lists of arbitrary-precision ints, and so are the
results: :mod:`hankelrev.cli` renders them as text.  No rationals
appear, and every division is exact and checked: a remainder raises
``ArithmeticError``, also under ``python -O``.

A Hankel transform needs every leading principal minor of one matrix.
One run of Han's Hankel continued fraction (G.-N. Han, *Hankel continued
fraction and its applications*, Adv. Math. 303, 2016, Thm 2.1) gives
them all for any sequence, at O(d^2) integer operations for depth d (see
:func:`_leading_minors`).  The run has two steps.  While every row so
far has had integer J-fraction coefficients a_k and b_k, as in the
family runs, the rows stay integer lists over denominator 1, and the
integral step reads a_k and b_k off rows r and p by two small quotients,
r[1] / r[0] = a_0 + ... + a_k and r[0] / p[0] = b_k, and takes the step
r[i+2] - a_k r[i+1] - b_k p[i+2], with no gcd.  Every other row, from
the first inexact quotient, zero head or zero minor on, takes the
look-ahead step, which skips a block of zero minors at once and, where
no minor is zero, gives the Chebyshev algorithm's next row (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, 2004).  Its
rows are kept as integers over one denominator with their content
divided out.

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
X_{n+1} = h**_n.  Divided by h*_{k-1} = nu_0 ... nu_{k-1}, they are

    Y_k = X_k / h*_{k-1},  Y_{k+1} = a_k Y_k - b_k Y_{k-1},

with b_k = nu_k / nu_{k-1} and b_0 = nu_0: the ratios h_{n+1} / h*_n and
h**_n / h*_n, which are small where a_k and b_k are.  The integral step
carries these at a few integer operations per row, with no condition
such as h**_{n-1} != 0, and the run multiplies them out into h and h**
once, at its end.  They ride only while the integral step holds: where
it ends short of the depth, u and u[2:] get runs of their own.  A
transform of u alone with u_0 = 0, as of every reversion, rides h the
same way on the run of u[1:]: the run of u would start on a zero head
and take the look-ahead step at every row.  That run of u[1:] stops
where the riders do, and only then does u get a run of its own.

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
from typing import Sequence

from hankelrev.series import _Value


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


def _leading_minors(
    terms: Sequence[int], depth: int, *riders: list[int], ride_only: bool = False
) -> list[int]:
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

    Row j is kept as an integer list r over one denominator D, r = D E_j,
    and takes one of two steps.

    While every earlier row has taken it, a row takes the integral step.
    Then D = 1, and with h = r[0] and p the previous row,
    r[1] / h = sigma_{j,j+1} / sigma_{j,j} is a_0 + ... + a_j, the sum
    s_j of the J-fraction's a's, and h / p[0] = nu_j / nu_{j-1} is b_j
    (with nu_{-1} = p[0] = 1 at the head row); here
    sigma_{k,l} = L(pi_k x^l) for the monic orthogonal polynomials pi_k
    of the moments ``terms``.  Where h is nonzero and both quotients are
    exact, a_j = s_j - s_{j-1} and b_j are integers, the minor is
    H_prev h, and the next row is

        next[i] = r[i+2] - a_j r[i+1] - b_j p[i+2]  over D = 1,

    with no gcd of the row.

    Every other row, from the first that cannot take the integral step
    to the end of the run, takes the look-ahead step.  With h the first
    nonzero entry of r and k = k_j, clearing the fractions gives the next
    row as (Q r - h^{k+2} p) / x^{k+2} over D p[0] h^{k+1}, where
    Q = h^{k+2} p / r mod x^{k+2} is the integer polynomial that clears
    the k + 2 leading terms.  The gcd of D and the new row is divided
    out of both, with its sign chosen so that D stays positive, which
    keeps the entries small when the J-fraction coefficients are.  Each
    minor is H_prev (h / D)^{k+1} up to sign; that division is exact
    for integer input, and a remainder raises ``ArithmeticError``.  A
    row that is zero as far as ``terms`` reach makes every later minor
    zero.  Where k = 0, a 1x1 block, Q = h p[0] - c1 x with
    c1 = r[1] p[0] - h p[1], and the next row is the Chebyshev
    algorithm's, negated: h^2 p[i+2] - h p[0] r[i+2] + c1 r[i+1].

    Each rider is a list [X_{-1}, X_0] = [Y_{-1}, Y_0] that the integral
    step extends in place with the ratio Y_{j+1} = a_j Y_j - b_j Y_{j-1}
    at every row, the last one included (see the module docstring): no
    gcd, no division and no product larger than a_j Y_j.  Where the run ends on
    the integral step, one pass over each rider (:func:`_rescale`)
    multiplies the ratios out into the continuants X_k = h*_{k-1} Y_k.
    The riders read r[1] of the last row, so they need ``2 * depth + 2``
    terms.  At the first row the integral step cannot take they stop,
    short of ``depth + 3`` entries, and are of no further use; with
    ``ride_only`` the run stops there too.
    """
    row = [operator.index(t) for t in terms[: 2 * depth + (2 if riders else 1)]]
    prev = [1] + [0] * len(row)  # E_{-1}
    minor = denom = 1
    minors = []
    s = 0  # a_0 + ... + a_{j-1} while every row has taken the integral step
    while True:
        h = row[0]
        if h and s is not None:
            if len(row) == 1:  # the last row of a run without riders
                minors.append(minor * h)
                return minors
            (t, r1), (b, r2) = divmod(row[1], h), divmod(h, prev[0])
            if not (r1 or r2):  # integral a_j = t - s and b_j = b, over D = 1
                minor *= h
                minors.append(minor)
                a, s = t - s, t
                for seq in riders:
                    seq.append(a * seq[-1] - b * seq[-2])
                if len(minors) > depth:
                    _rescale(riders, minors)
                    return minors
                prev, row = row, [x - a * y - b * z for x, y, z in zip(row[2:], row[1:], prev[2:])]
                continue
        if ride_only:
            return minors
        riders, s = (), None
        k = next((i for i, x in enumerate(row) if x), len(row))
        if k:
            minors += [0] * k
            if len(minors) > depth:  # always so when the row is all zeros
                return minors[: depth + 1]
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


def _require_terms(name: str, terms: Sequence[int], depth: int, needed: int) -> None:
    """Refuse a negative depth, and fewer than ``needed`` terms."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if len(terms) < needed:
        raise ValueError(f"{name} of depth {depth} needs at least {needed} terms, got {len(terms)}")


def hankel_transform(terms: Sequence[int], depth: int) -> list[int]:
    """Determinants of the Hankel matrices of index 0..depth.

    One run gives them all, zero minors included (see
    :func:`_leading_minors`).  Where ``terms[0]`` is 0 and depth >= 1, they
    are first sought as the continuant h that rides on the run of
    ``terms[1:]`` to depth - 1, with (X_{-1}, X_0) = (1, 0), as in
    :func:`hankel_triple`.  That run stops at its first row that the
    integral step cannot take, and then ``terms`` gets a run of its own.
    """
    needed = 2 * depth + 1
    _require_terms("hankel transform", terms, depth, needed)
    if depth and not operator.index(terms[0]):
        h = [1, 0]  # (X_{-1}, X_0)
        _leading_minors(terms[1:needed], depth - 1, h, ride_only=True)
        if len(h) == depth + 2:
            return h[1:]
    return _leading_minors(terms, depth)


class HankelTriple(_Value):
    """Hankel transforms of a sequence and of its first and second shifts."""

    __slots__ = ("h", "h_star", "h_star_star", "depth")

    def __init__(
        self,
        h: tuple[int, ...],
        h_star: tuple[int, ...],
        h_star_star: tuple[int, ...],
        depth: int,
    ) -> None:
        if not (len(h) == len(h_star) == len(h_star_star) == depth + 1):
            raise ValueError("each transform must carry depth + 1 entries")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_star", h_star)
        object.__setattr__(self, "h_star_star", h_star_star)
        object.__setattr__(self, "depth", depth)

    def rows(self) -> list[tuple[int, int, int, int]]:
        return [
            (n, self.h[n], self.h_star[n], self.h_star_star[n])
            for n in range(self.depth + 1)
        ]


def hankel_triple(terms: Sequence[int], depth: int) -> HankelTriple:
    """Hankel transforms of ``terms``, ``terms[1:]`` and ``terms[2:]``.

    One run on ``terms[1:]`` gives h* as its minors, and h and h** as the
    two continuants that ride on its integral steps (see the module
    docstring).  Where a row of that run within the depth cannot take the
    integral step (a fraction a_k or b_k, or a zero minor), the riders
    stop, and ``terms`` and ``terms[2:]`` get runs of their own.
    """
    _require_terms("hankel triple", terms, depth, 2 * depth + 3)
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
