"""Three parametric generating-function families and their reversions.

With integer parameters alpha and beta, the base o.g.f.s are::

    family A:  x / (1 + alpha*x + beta*x^2)
    family B:  x * (1 - alpha*x) / (1 - beta*x)
    family C:  x * (1 - alpha*x)

Each family is one row of ``_ROWS``, and two integer loops read that row.
The base series is numerator/denominator with a denominator of head 1, so
its terms follow the linear recurrence of the denominator.  Every
reversion u is quadratic-algebraic with the radical y = sqrt(D),
D = 1 + 2e*x + d*x^2: past the row's seeds, u_m is a constant times
y_{m+s} for the row's index shift s.  So, like the square root in
``hankelrev.series._root``, u follows the recurrence of 2*D*y' = D'*y;
with k = m + s,

    k*u_m = (3 - 2k)*e*u_{m-1} + (3 - k)*d*u_{m-2},

an exact division that is checked.  The binomial-sum and radical closed
forms are the test suite's independent references (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from hankelrev.series import PowerSeries

FAMILY_A = "A"
FAMILY_B = "B"
FAMILY_C = "C"


@dataclass(frozen=True)
class FamilyParams:
    """Integer parameters for one family; beta is ignored by family C."""

    alpha: int
    beta: int = 0
    family: str = FAMILY_A

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_A, FAMILY_B, FAMILY_C):
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "alpha", operator.index(self.alpha))
        object.__setattr__(self, "beta", operator.index(self.beta))


def catalan(n: int) -> int:
    """C(n) = binomial(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("term index must be non-negative")
    return math.comb(2 * n, n) // (n + 1)


# family -> (alpha, beta) -> (numerator, denominator, e, d, shift, seeds):
# the base o.g.f. is numerator/denominator (denominator head 1), and the
# reversion has radical 1 + 2e*x + d*x^2, index shift ``shift`` and first
# terms ``seeds``
_ROWS: dict[str, Callable[[int, int], tuple]] = {
    FAMILY_A: lambda a, b: ((0, 1), (1, a, b), -a, a * a - 4 * b, 1, (0, 1)),
    FAMILY_B: lambda a, b: ((0, 1, -a), (1, -b), b - 2 * a, b * b, 0, (0, 1, a - b)),
    # the B row at beta = 0
    FAMILY_C: lambda a, b: ((0, 1, -a), (1,), -2 * a, 0, 0, (0, 1, a)),
}


def _row(params: FamilyParams) -> tuple:
    return _ROWS[params.family](params.alpha, params.beta)


def family_base_ogf(params: FamilyParams, order: int) -> PowerSeries:
    """Expansion of the family's base o.g.f."""
    num, den, *_ = _row(params)
    return PowerSeries.from_rational(num, den, order)


def family_base_terms(params: FamilyParams, count: int) -> list[int]:
    """The first ``count`` coefficients of the base o.g.f. as integers."""
    if count < 1:
        raise ValueError("count must be positive")
    num, den, *_ = _row(params)
    terms: list[int] = []
    for n in range(count):
        t = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            t -= den[k] * terms[n - k]
        terms.append(t)
    return terms


def family_reversion_terms(params: FamilyParams, count: int) -> list[int]:
    """The first ``count`` coefficients of the reversion of the base o.g.f."""
    if count < 1:
        raise ValueError("count must be positive")
    *_, e, d, shift, seeds = _row(params)
    u = list(seeds[:count])
    for m in range(len(u), count):
        k = m + shift
        q, r = divmod((3 - 2 * k) * e * u[m - 1] + (3 - k) * d * u[m - 2], k)
        if r:
            raise ArithmeticError(f"reversion term {m} is not an integer")
        u.append(q)
    return u
