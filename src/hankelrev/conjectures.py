"""Mechanical verification of Hankel-transform identities for the families.

Each verifier takes the relevant family sequence from the integer
recurrences of :mod:`hankelrev.families` (``family_reversion_terms`` and
``family_base_terms``), far enough for a depth-d Hankel triple, and
builds every claim in product form (no division, so zero values need no
special casing) as two int columns, lhs and rhs over the claim's n, by
slices and comprehensions over the transforms, the base terms and the
power lists.  A report is built from those columns, as tuples, grouped
in blocks whose rows run n-major: at each n the block's claims in the
order given.  It is a frozen value, equal to another report with the same
fields, blocks included.  Its ``all_pass`` is one tuple comparison per
claim.  Its rows are made only for output: :mod:`hankelrev.cli` walks the
columns in row order and turns each row into text as it prints it,
``rows()`` gives them as plain ``(n, claim, lhs, rhs)`` tuples, and the
:class:`Check` tuple ``checks`` is built only when something reads it.
Claims that reference index n+1 of a depth-d transform are checked for
n = 0..d-1; claims fully determined at index n run to n = d.  All of it
is integer work, prop9 included: T and T * T^t have int entries and
det T is the product of T's diagonal.

The built-in catalog:

* ``4``  - family A reversions: h* is a power of beta and the ratios
           h_{n+1}/h*_n and h**_n/h*_n reproduce the base coefficients
           up to sign.
* ``6``  - family B reversions: h* is a power of alpha*(alpha-beta) and
           the two ratios have closed forms in alpha and beta.
* ``8``  - family C reversions (scaled Catalan): all three transforms are
           signed monomials in alpha.
* ``alpha_shift`` - the binomial transform of the shifted family A
           reversion equals the same construction at alpha+1, and both
           ends have equal Hankel transforms.
* ``prop9``        - the scaled-Catalan Hankel matrix factors as T * T^t
           with T lower triangular, forcing det = alpha^(n(n+1)).
* ``anchors``      - classical sequences with known transforms, kept as a
           fixed regression bed.

``CONJECTURES`` holds the catalog as one table; the CLI, :func:`sweep` and
the scripts read what each set needs from it.  A row's ``family`` and
``nonzero`` (the parameters that must not be 0) are the set's side
conditions: the verifiers build their :class:`FamilyParams` and raise on
a zero parameter from them, and a sweep skips the points that
``admissible`` derives from them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from hankelrev.families import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    catalan,
    family_base_terms,
    family_reversion_terms,
)
from hankelrev.hankel import (
    HankelTriple,
    binomial_transform,
    det_exact,
    hankel_matrix,
    hankel_transform,
    hankel_triple,
)

# claim labels are stable strings: reports are regression artifacts and
# downstream tooling matches on them
CLAIM_C4_HSTAR = "h_star[n] == beta^binom(n+1,2)"
CLAIM_C4_H = "(-1)^(n+1) * h[n+1] == a[n+1] * h_star[n]"
CLAIM_C4_HSS = "(-1)^(n+1) * h_star_star[n] == a[n+2] * h_star[n]"
CLAIM_C6_HSTAR = "h_star[n] == (alpha*(alpha-beta))^binom(n+1,2)"
CLAIM_C6_H = "beta * h[n+1] == ((alpha-beta)^(n+1) - alpha^(n+1)) * h_star[n]"
CLAIM_C6_HSS = "h_star_star[n] == (alpha-beta)^(n+1) * h_star[n]"
CLAIM_C8_H = "h[n] == -n * alpha^(n^2-1)"
CLAIM_C8_HSTAR = "h_star[n] == alpha^(n*(n+1))"
CLAIM_C8_HSS = "h_star_star[n] == alpha^((n+1)^2)"
CLAIM_C8_H_RATIO = "h[n+1] == -(n+1) * alpha^n * h_star[n]"
CLAIM_C8_HSS_RATIO = "h_star_star[n] == alpha^(n+1) * h_star[n]"
CLAIM_SHIFT_COEFF = "binomial_ogf(u*)[n] == u*_at_alpha_plus_1[n]"
CLAIM_SHIFT_HANKEL = "hankel(u*)[n] == hankel(binomial(u*))[n]"
CLAIM_P9_PRODUCT = "H[{i},{j}] == (T*T^t)[{i},{j}]"
CLAIM_P9_DET = "det(H) == alpha^(n*(n+1))"
CLAIM_P9_DET_T = "det(T) == alpha^binom(n+1,2)"
CLAIM_ANCHOR_CATALAN = "hankel(catalan)[n] == 1"
CLAIM_ANCHOR_CATALAN_SHIFT = "hankel(shifted_catalan)[n] == 1"
CLAIM_ANCHOR_CENTRAL = "hankel(central_binomial)[n] == 2^n"
CLAIM_ANCHOR_CENTRAL_ZERO = "hankel(zero_prefixed_central_binomial)[n] == -n*2^(n-1)"
CLAIM_ANCHOR_CATALAN_ZERO = "hankel(zero_prefixed_catalan)[n] == -n"
CLAIM_ANCHOR_CATALAN_HEADLESS = "hankel(head_zeroed_catalan)[n] == -n"


@dataclass(frozen=True)
class Check:
    """One asserted equality lhs == rhs at index n; both sides are exact ints."""

    index: int
    claim: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class Claim(NamedTuple):
    """One claimed identity as two int columns: lhs[k] == rhs[k] is
    asserted at the k-th index of the block that holds the claim."""

    label: str
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]


class Block(NamedTuple):
    """Claims over the indices start, start + 1, ..., one column entry per
    index; the rows are n-major: at each index, the claims in order."""

    start: int
    claims: tuple[Claim, ...]


def _block(*claims: tuple[str, Iterable[int], Iterable[int]], start: int = 0) -> Block:
    """A block of ``(label, lhs, rhs)`` claims, each side made a tuple;
    every column must have the same length."""
    block = Block(start, tuple([Claim(label, tuple(lhs), tuple(rhs)) for label, lhs, rhs in claims]))
    length = len(block.claims[0].lhs)
    for _, lhs, rhs in block.claims:
        if len(lhs) != length or len(rhs) != length:
            raise RuntimeError("the columns of a block differ in length")
    return block


@dataclass(frozen=True)
class ConjectureReport:
    """A verifier's result: its rows, held as claim blocks of int columns.

    ``all_pass`` compares each claim's two columns once, and :meth:`rows`
    walks the rows without making a :class:`Check`.  ``checks`` holds the
    same rows as Check values, made when it is first read.  Equality,
    hashing and repr come from the fields, so they go by blocks.
    """

    conjecture_id: str
    params: FamilyParams | None
    depth: int
    blocks: tuple[Block, ...]
    notes: tuple[str, ...] = ()

    @functools.cached_property
    def checks(self) -> tuple[Check, ...]:
        return tuple(Check(*row) for row in self.rows())

    @functools.cached_property
    def all_pass(self) -> bool:
        """Whether every check passed: one comparison of columns per claim,
        worked out on the first read only."""
        return all(claim.lhs == claim.rhs for block in self.blocks for claim in block.claims)

    def rows(self) -> Iterator[tuple[int, str, int, int]]:
        """(n, claim, lhs, rhs) for every row, in the order of ``checks``."""
        for start, claims in self.blocks:
            for k in range(len(claims[0].lhs)):
                for label, lhs, rhs in claims:
                    yield start + k, label, lhs[k], rhs[k]


def _powers(x: int, count: int) -> list[int]:
    """x^0, ..., x^(count-1), each the last times x."""
    return list(accumulate(repeat(x, count - 1), operator.mul, initial=1))


def _alternating(xs: Sequence[int]) -> list[int]:
    """(-1)^(n+1) * xs[n] for each n."""
    return [x if n & 1 else -x for n, x in enumerate(xs)]


def _triangular_powers(x: int, count: int) -> list[int]:
    """x^binom(n+1, 2) for n = 0..count-1, each the last times x^n."""
    return list(accumulate(accumulate(repeat(x, count - 1), operator.mul), operator.mul, initial=1))


def _require_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")


def _params(cid: str, alpha: int, beta: int = 0) -> FamilyParams:
    """The point (alpha, beta) of set cid's family; refuses a point that
    its row does not admit, naming alpha first if both are at fault."""
    row = CONJECTURES[cid]
    if not row.admissible(alpha, beta):
        name = "alpha" if alpha == 0 and "alpha" in row.nonzero else "beta"
        raise ValueError(f"{name} must be nonzero")
    return FamilyParams(alpha, beta, row.family)


def _reversion_triple(
    cid: str, alpha: int, beta: int, depth: int
) -> tuple[FamilyParams, HankelTriple]:
    """The point of set cid and the depth-d Hankel triple of its family reversion."""
    params = _params(cid, alpha, beta)
    _require_depth(depth)
    return params, hankel_triple(family_reversion_terms(params, 2 * depth + 3), depth)


# ----------------------------------------------------------------------
# conjecture verifiers


def verify_conjecture4(alpha: int, beta: int, depth: int) -> ConjectureReport:
    """Check the family A reversion claims to the given depth."""
    params, t = _reversion_triple("4", alpha, beta, depth)
    a, h_star = family_base_terms(params, depth + 2), t.h_star[:depth]
    return ConjectureReport("4", params, depth, blocks=(
        _block((CLAIM_C4_HSTAR, t.h_star, _triangular_powers(beta, depth + 1))),
        _block(
            (CLAIM_C4_H, _alternating(t.h[1:]), map(operator.mul, a[1:], h_star)),
            (CLAIM_C4_HSS, _alternating(t.h_star_star[:depth]), map(operator.mul, a[2:], h_star)),
        ),
    ))


def verify_conjecture6(alpha: int, beta: int, depth: int) -> ConjectureReport:
    """Check the family B reversion claims to the given depth."""
    params, t = _reversion_triple("6", alpha, beta, depth)
    gap = alpha - beta
    gaps, alphas = _powers(gap, depth + 1)[1:], _powers(alpha, depth + 1)[1:]
    h_star = t.h_star[:depth]
    return ConjectureReport("6", params, depth, blocks=(
        _block((CLAIM_C6_HSTAR, t.h_star, _triangular_powers(alpha * gap, depth + 1))),
        _block(
            (CLAIM_C6_H, [beta * h for h in t.h[1:]],
             [(g - a) * s for g, a, s in zip(gaps, alphas, h_star)]),
            (CLAIM_C6_HSS, t.h_star_star[:depth], map(operator.mul, gaps, h_star)),
        ),
    ))


def verify_conjecture8(alpha: int, depth: int) -> ConjectureReport:
    """Check the scaled-Catalan claims (family C) to the given depth."""
    params, t = _reversion_triple("8", alpha, 0, depth)
    # alpha^(n(n+1)) = (alpha^2)^binom(n+1,2); alpha^((n+1)^2) and
    # alpha^(n^2-1) are alpha^(n(n+1)) times alpha^(n+1), and
    # alpha^((n-1)n) times alpha^(n-1)
    alphas, pronic = _powers(alpha, depth + 2), _triangular_powers(alpha * alpha, depth + 1)
    h_star = t.h_star[:depth]
    return ConjectureReport("8", params, depth, blocks=(
        _block(
            # at n = 0 the monomial's exponent n^2 - 1 is negative, but the
            # factor -n kills the term; the expected value is 0
            (CLAIM_C8_H, t.h,
             [0, *(-n * alphas[n - 1] * pronic[n - 1] for n in range(1, depth + 1))]),
            (CLAIM_C8_HSTAR, t.h_star, pronic),
            (CLAIM_C8_HSS, t.h_star_star, map(operator.mul, alphas[1:], pronic)),
        ),
        _block(
            (CLAIM_C8_H_RATIO, t.h[1:], [-(n + 1) * alphas[n] * s for n, s in enumerate(h_star)]),
            (CLAIM_C8_HSS_RATIO, t.h_star_star[:depth], map(operator.mul, alphas[1:], h_star)),
        ),
    ))


def verify_alpha_shift(alpha: int, beta: int, order: int) -> ConjectureReport:
    """Check that the binomial transform shifts alpha by one.

    The binomial transform (o.g.f. f(x/(1-x))/(1-x)) of the shifted
    family A reversion (u_{n+1})_{n>=0} at (alpha, beta) must equal the
    same construction at (alpha + 1, beta), coefficient by coefficient;
    as a corollary both sequences must share their Hankel transform,
    which is re-derived here to depth (order - 1) // 2.
    """
    params = _params("alpha_shift", alpha, beta)
    if order < 1:
        raise ValueError("order must be at least 1")
    here = family_reversion_terms(params, order + 2)[1:]
    shifted = family_reversion_terms(FamilyParams(alpha + 1, beta, FAMILY_A), order + 2)[1:]
    transformed = binomial_transform(here)
    depth = (order - 1) // 2
    return ConjectureReport("alpha_shift", params, order, blocks=(
        _block((CLAIM_SHIFT_COEFF, transformed, shifted)),
        _block((CLAIM_SHIFT_HANKEL, hankel_transform(here, depth),
                hankel_transform(transformed, depth))),
    ))


# ----------------------------------------------------------------------
# the proved factorization


def prop9_T_matrix(alpha: int, n: int) -> list[list[int]]:
    """Lower-triangular T with T[i][k] = C(2i, i+k) * (2k+1)/(i+k+1) * alpha^i.

    Every entry is an integer multiple of alpha^i; that integrality is
    checked rather than assumed.
    """
    if n < 0:
        raise ValueError("matrix index must be non-negative")
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        power = alpha**i
        for k in range(i + 1):
            entry, rem = divmod(math.comb(2 * i, i + k) * (2 * k + 1), i + k + 1)
            if rem:
                raise ArithmeticError(f"T[{i}][{k}] is not an integer multiple of alpha^{i}")
            rows[i][k] = entry * power
    return rows


def prop9_verify(alpha: int, n: int) -> ConjectureReport:
    """Check H = T * T^t entrywise and both determinant consequences.

    H is the (n+1) x (n+1) Hankel matrix of catalan(k) * alpha^k.  The
    three checks are mutually consistent (the entrywise identity plus the
    triangular determinant force the Hankel determinant) but each is
    still evaluated independently against det_exact.

    T[i][k] is t[i][k] alpha^i with t = T at alpha = 1, so (T * T^t)[i][j]
    is alpha^(i+j) (t * t^t)[i][j]: a sum of small products times one
    power of alpha.
    """
    params = _params("prop9", alpha)
    t = prop9_T_matrix(1, n)  # refuses a negative n
    alphas = _powers(alpha, 2 * n + 1)
    H = hankel_matrix(family_reversion_terms(params, 2 * n + 2)[1:], n)
    # row i of H is a block at index i of one-entry claims, one per column j
    blocks = [
        _block(*(
            (CLAIM_P9_PRODUCT.format(i=i, j=j), [H[i][j]],
             [alphas[i + j] * sum(t[i][k] * t[j][k] for k in range(min(i, j) + 1))])
            for j in range(n + 1)
        ), start=i)
        for i in range(n + 1)
    ]
    det_t = math.prod(t[i][i] * alphas[i] for i in range(n + 1))
    blocks.append(_block(
        (CLAIM_P9_DET, [det_exact(H)], [alpha ** (n * (n + 1))]),
        (CLAIM_P9_DET_T, [det_t], [alpha ** math.comb(n + 1, 2)]),
        start=n,
    ))
    return ConjectureReport("prop9", params, n, blocks=tuple(blocks))


# ----------------------------------------------------------------------
# classical anchors


def verify_anchors(depth: int = 6) -> ConjectureReport:
    """Hankel transforms of classical sequences with known values.

    Includes the head-zeroed Catalan sequence 0, 1, 2, 5, 14, ... whose
    transform is commonly quoted with a positive sign; exact computation
    gives -n, and that computed value is what this report asserts.
    """
    _require_depth(depth)
    count = 2 * depth + 1
    cat = [catalan(k) for k in range(count + 1)]
    central = [math.comb(2 * k, k) for k in range(count)]

    transform = functools.partial(hankel_transform, depth=depth)
    ns = range(depth + 1)
    # claim-major: a block per anchor, all of its rows before the next one's
    blocks = tuple(_block(anchor) for anchor in (
        (CLAIM_ANCHOR_CATALAN, transform(cat[:count]), [1] * len(ns)),
        (CLAIM_ANCHOR_CATALAN_SHIFT, transform(cat[1 : count + 1]), [1] * len(ns)),
        (CLAIM_ANCHOR_CENTRAL, transform(central), [2**n for n in ns]),
        (
            CLAIM_ANCHOR_CENTRAL_ZERO,
            transform([0] + central[: count - 1]),
            [-n * 2 ** (n - 1) if n else 0 for n in ns],
        ),
        (CLAIM_ANCHOR_CATALAN_ZERO, transform([0] + cat[: count - 1]), [-n for n in ns]),
        (CLAIM_ANCHOR_CATALAN_HEADLESS, transform([0] + cat[1:count]), [-n for n in ns]),
    ))
    notes = (
        "the transform of the head-zeroed Catalan sequence 0, 1, 2, 5, 14, ..."
        " is commonly quoted as n; exact computation gives -n at every depth"
        " checked here, and -n is the value asserted.",
    )
    return ConjectureReport("anchors", None, depth, notes=notes, blocks=blocks)


# ----------------------------------------------------------------------
# the registry


class Conjecture(NamedTuple):
    """One identity set: its family, the parameters it needs, those of them
    that must be nonzero, and how to call its verifier.

    ``verify(alpha, beta, depth, order)`` passes on the values the verifier
    takes and looks it up by module name at call time, so a patched module
    attribute reaches every caller.
    """

    id: str
    family: str | None
    parameters: tuple[str, ...]
    nonzero: tuple[str, ...]
    verify: Callable[[int, int, int, int], ConjectureReport]

    def admissible(self, alpha: int, beta: int) -> bool:
        """Whether the verifier accepts the point: no ``nonzero`` parameter is 0."""
        return (alpha != 0 or "alpha" not in self.nonzero) and (
            beta != 0 or "beta" not in self.nonzero
        )


CONJECTURES: dict[str, Conjecture] = {c.id: c for c in (
    Conjecture("4", FAMILY_A, ("alpha", "beta"), ("beta",),
               lambda a, b, depth, order: verify_conjecture4(a, b, depth)),
    Conjecture("6", FAMILY_B, ("alpha", "beta"), ("alpha", "beta"),
               lambda a, b, depth, order: verify_conjecture6(a, b, depth)),
    Conjecture("8", FAMILY_C, ("alpha",), ("alpha",),
               lambda a, b, depth, order: verify_conjecture8(a, depth)),
    Conjecture("prop9", FAMILY_C, ("alpha",), ("alpha",),
               lambda a, b, depth, order: prop9_verify(a, depth)),
    Conjecture("alpha_shift", FAMILY_A, ("alpha", "beta"), ("beta",),
               lambda a, b, depth, order: verify_alpha_shift(a, b, order)),
    Conjecture("anchors", None, (), (),
               lambda a, b, depth, order: verify_anchors(depth)),
)}

# the sets with parameters to sweep, in table order
SWEEPABLE = tuple(cid for cid, c in CONJECTURES.items() if c.parameters)


# ----------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    conjecture_id: str
    depth: int
    grid: tuple[FamilyParams, ...]
    reports: tuple[ConjectureReport, ...]
    counterexamples: tuple[ConjectureReport, ...]
    skipped: tuple[FamilyParams, ...]


def _expand_range(bounds: tuple[int, int]) -> list[int]:
    lo, hi = bounds
    if lo > hi:
        raise ValueError("range must be non-empty")
    return list(range(lo, hi + 1))


def sweep(
    conjecture_id: str | int,
    alpha_range: tuple[int, int],
    beta_range: tuple[int, int] | None = None,
    depth: int = 6,
) -> SweepResult:
    """Run one verifier over an integer parameter grid.

    Grid points violating the verifier's preconditions are recorded as
    skipped, never as failed.  Points are evaluated in grid order
    (alpha-major) and the aggregation is deterministic.  alpha_shift runs
    at series order 2 * depth + 1.
    """
    cid = str(conjecture_id)
    if cid not in SWEEPABLE:
        raise ValueError(f"cannot sweep conjecture {cid!r}")
    _require_depth(depth)
    conjecture = CONJECTURES[cid]
    alphas = _expand_range(alpha_range)
    if "beta" in conjecture.parameters:
        if beta_range is None:
            raise ValueError(f"conjecture {cid} needs a beta range")
        betas = _expand_range(beta_range)
    else:
        betas = [0]

    grid: list[FamilyParams] = []
    skipped: list[FamilyParams] = []
    reports: list[ConjectureReport] = []
    for a in alphas:
        for b in betas:
            point = FamilyParams(a, b, conjecture.family)
            grid.append(point)
            if not conjecture.admissible(a, b):
                skipped.append(point)
                continue
            reports.append(conjecture.verify(a, b, depth, 2 * depth + 1))
    counterexamples = tuple(r for r in reports if not r.all_pass)
    return SweepResult(
        conjecture_id=cid,
        depth=depth,
        grid=tuple(grid),
        reports=tuple(reports),
        counterexamples=counterexamples,
        skipped=tuple(skipped),
    )
