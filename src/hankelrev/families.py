"""Three parametric generating-function families and their reversions.

With integer parameters alpha and beta, the base o.g.f.s are::

    family A:  x / (1 + alpha*x + beta*x^2)
    family B:  x * (1 - alpha*x) / (1 - beta*x)
    family C:  x * (1 - alpha*x)

Each family is one row of ``_ROWS``, its point (p, q, r) of the class
x*(1 + p*x) / (1 + q*x + r*x^2), and ``_row`` derives the rest from that
point.  The base series is (0, 1, p) over (1, q, r), a denominator of head
1, so its terms are one run of ``hankelrev.series._quotient``.  Every
reversion u is quadratic-algebraic with the radical y = sqrt(D),
D = 1 + 2e*x + d*x^2 for e = 2p - q and d = q^2 - 4r: past the seeds
(0, 1, q - p), u_m is a constant times y_{m+s}, for the index shift s = 1
if p = 0 and s = 0 otherwise.  So, like the square root in
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

from hankelrev.series import PowerSeries, _quotient

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


# family -> (alpha, beta) -> its point (p, q, r) of the class
# x*(1 + p*x) / (1 + q*x + r*x^2).  Every family has p*r = 0, which the
# two-term recurrence needs: the reversion is
# (1 - q*x - sqrt(D)) / (2*(r*x - p)), and only while r*x - p is a monomial
# are its terms past the seeds a constant times those of sqrt(D).
_ROWS: dict[str, Callable[[int, int], tuple[int, int, int]]] = {
    FAMILY_A: lambda a, b: (0, a, b),
    FAMILY_B: lambda a, b: (-a, -b, 0),
    FAMILY_C: lambda a, b: (-a, 0, 0),
}


def _row(params: FamilyParams) -> tuple:
    """(numerator, denominator, e, d, shift, seeds) of the family's point:
    the base o.g.f. is numerator/denominator, and the reversion has the
    radical D = 1 + 2e*x + d*x^2, index shift ``shift`` and first terms
    ``seeds``."""
    p, q, r = _ROWS[params.family](params.alpha, params.beta)
    return (0, 1, p), (1, q, r), 2 * p - q, q * q - 4 * r, int(p == 0), (0, 1, q - p)


def family_base_ogf(params: FamilyParams, order: int) -> PowerSeries:
    """Expansion of the family's base o.g.f., from :func:`family_base_terms`;
    it keeps its numerator and denominator for
    :meth:`hankelrev.series.PowerSeries.revert`."""
    if order < 0:
        raise ValueError("order must be non-negative")
    form = _row(params)[:2]
    return PowerSeries._from_numerators(family_base_terms(params, order + 1), 1, 1, form)


def family_base_terms(params: FamilyParams, count: int) -> list[int]:
    """The first ``count`` coefficients of the base o.g.f. as integers."""
    if count < 1:
        raise ValueError("count must be positive")
    num, den, *_ = _row(params)
    # the denominator has head 1, so the quotient's d and r are 1
    return _quotient(num, den, count - 1)[0]


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
