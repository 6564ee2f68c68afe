"""Exact truncated formal power series over rational coefficients.

A :class:`PowerSeries` stores coefficients 0..order as `fractions.Fraction`
values; all arithmetic is exact and nothing is ever rounded.  Binary
operations insist on equal truncation orders.  Silent extension or
truncation is how precision bugs sneak into determinant work downstream,
so mixing orders raises instead.

Products, division, square roots and reversion run on integer numerators
over one common denominator (:func:`_common`, :func:`_conv`), so the inner
loops multiply and add plain ints and each output coefficient is reduced
once.  Square roots and reversion share one recurrence, J.C.P. Miller's
for a power of a series (:func:`_power_coefficients`): sqrt takes the
power 1/2 and reversion the powers +-m of Lagrange inversion.

:func:`_decimal` and :func:`coefficient_string` are the one way a value
becomes exact decimal text at any magnitude, and :func:`_parse_int` the
one way decimal text becomes an int.  The other modules hand back ints
(or series), and :mod:`hankelrev.cli` renders them with the first two
when it prints.  The command line and the gf parser read integers with
the third.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


def coefficient_string(value: Fraction) -> str:
    """Render a coefficient as ``num`` or ``num/den``, exact at any magnitude."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(value: int) -> str:
    """Exact decimal text of an int of any size.

    CPython caps int->str conversion (4300 digits by default, settable per
    process).  Values past the cap are split by a power of ten and each half
    converted on its own, so the process-wide limit is never touched: library
    callers of ``cli.run`` keep whatever limit they chose.
    """
    try:
        return str(value)
    except ValueError:  # past the int->str digit limit
        pass
    if value < 0:
        return "-" + _decimal(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _parse_int(text: str) -> int:
    """``int(text)`` for decimal text of any length; inverts :func:`_decimal`.

    CPython caps str->int conversion as it caps int->str.  Well-formed text
    past the cap is split in two and each part converted on its own, so
    the process-wide limit is never touched.  Malformed text raises int()'s
    own error.
    """
    try:
        return int(text)
    except ValueError:
        match = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
        if match is None:
            raise
    sign, digits = match.groups()
    digits = digits.replace("_", "")
    high, low = digits[: len(digits) // 2], digits[len(digits) // 2 :]
    value = _parse_int(high) * 10 ** len(low) + _parse_int(low)
    return -value if sign == "-" else value


def _common(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: c_k = nums[k] / den."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _conv(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two integer coefficient lists.

    Zero entries of either list are skipped, so a product with a sparse or
    polynomial factor costs only its nonzero terms.
    """
    out = [0] * (n + 1)
    nonzero_b = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in nonzero_b:
                if i + j > n:
                    break
                out[i + j] += x * y
    return out


def _power_terms(b: Sequence[int]) -> list[tuple[int, int]]:
    """(j, B_j * B_0^(j-1)) for the nonzero B_j, j >= 1, of integer coefficients B."""
    b0 = b[0]
    return [(j, bj * b0 ** (j - 1)) for j, bj in enumerate(b[1:], start=1) if bj]


def _power_coefficients(
    terms: Sequence[tuple[int, int]], p: int, q: int, k: int
) -> list[int]:
    """Y_0..Y_k, for Y_i = B_0^i * [x^i] (B/B_0)^(p/q), by Miller's
    recurrence (see :meth:`PowerSeries.revert`), given ``terms`` =
    :func:`_power_terms` of B.  Each division is checked.
    """
    pq = p + q
    scaled = [1]  # Y_0, Y_1, ...
    for i in range(1, k + 1):
        acc = 0
        qi = q * i
        for j, w in terms:
            if j > i:
                break
            acc += (pq * j - qi) * w * scaled[i - j]
        y, r = divmod(acc, qi)
        if r:
            raise ArithmeticError("inexact division in the power recurrence")
        scaled.append(y)
    return scaled


@dataclass(frozen=True)
class PowerSeries:
    """A formal power series truncated at a fixed order.

    ``coeffs[n]`` is the coefficient of x^n; the order is ``len(coeffs) - 1``.
    Instances are immutable and safe to share across threads.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs
        )
        if not normalized:
            raise ValueError("series must carry at least the constant coefficient")
        object.__setattr__(self, "coeffs", normalized)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        return cls((Fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(1, order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series x, truncated to the given order."""
        if order == 0:
            return cls.zero(0)
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @classmethod
    def from_polynomial(cls, coeffs: Iterable[Scalar], order: int) -> "PowerSeries":
        """Pad or truncate a coefficient list to the requested order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) < order + 1:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        return cls(tuple(cs[: order + 1]))

    @classmethod
    def from_rational(
        cls,
        numerator: Iterable[Scalar],
        denominator: Iterable[Scalar],
        order: int,
    ) -> "PowerSeries":
        """Expand the rational function numerator/denominator.

        Both arguments are polynomial coefficient lists, constant term first.
        """
        den = [Fraction(c) for c in denominator]
        if not den or den[0] == 0:
            raise ValueError("zero constant denominator")
        num_series = cls.from_polynomial(numerator, order)
        den_series = cls.from_polynomial(den, order)
        return num_series / den_series

    # ------------------------------------------------------------------
    # queries

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(coefficient_string(c) for c in self.coeffs)
        return f"PowerSeries([{inner}])"

    def integer_coefficients(self) -> list[int]:
        """Coefficients as plain ints; raises if any denominator is not 1."""
        for c in self.coeffs:
            if c.denominator != 1:
                raise ValueError(
                    f"series has a non-integer coefficient {coefficient_string(c)}"
                )
        return [c.numerator for c in self.coeffs]

    def coefficient_strings(self) -> list[str]:
        return [coefficient_string(c) for c in self.coeffs]

    def _require_same_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise ValueError("incompatible truncation orders")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_order(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            a, da = _common(self.coeffs)
            b, db = _common(other.coeffs)
            den = da * db
            return PowerSeries(
                tuple(Fraction(c, den) for c in _conv(a, b, self.order))
            )
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            return PowerSeries(tuple(c * scalar for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: Union["PowerSeries", Scalar]) -> "PowerSeries":
        """Quotient by a series with a nonzero constant term, or by a scalar.

        With a = A/da and b = g*B/db, where g is the content (gcd) of b's
        common numerators, the quotient of the integer lists is
        q_m = R_m / B_0^(m+1) for the fraction-free recurrence

            R_m = A_m * B_0^m - sum_{k>=1, B_k != 0} B_k * B_0^(k-1) * R_{m-k},

        so coefficient m of a/b is R_m * db / (da * g * B_0^(m+1)), reduced
        once.  Taking the content out keeps a divisor like 10^100 * (1 + x)
        from scaling every R_m, and makes a constant divisor cost one
        Fraction per coefficient.
        """
        if isinstance(other, PowerSeries):
            self._require_same_order(other)
            if other.coeffs[0] == 0:
                raise ValueError("non-invertible series")
            a, da = _common(self.coeffs)
            b, db = _common(other.coeffs)
            g = math.gcd(*b)
            b0 = b[0] // g
            terms = _power_terms([bk // g for bk in b])
            rs: list[int] = []  # R_0, R_1, ...
            out = []
            scale = da * g  # da * g * B_0^m, before the step for m
            b0_power = 1  # B_0^m
            for m, am in enumerate(a):
                r = am * b0_power
                for k, w in terms:
                    if k > m:
                        break
                    r -= w * rs[m - k]
                rs.append(r)
                scale *= b0
                out.append(Fraction(r * db, scale))
                b0_power *= b0
            return PowerSeries(tuple(out))
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            return PowerSeries(tuple(c / scalar for c in self.coeffs))
        return NotImplemented

    # ------------------------------------------------------------------
    # structural operations

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        if order > self.order:
            raise ValueError("truncate cannot extend a series")
        return PowerSeries(self.coeffs[: order + 1])

    def shift_down(self, k: int) -> "PowerSeries":
        """Divide by x^k, i.e. drop the first k coefficients.

        Dropping a nonzero coefficient changes the series, so it is refused.
        """
        if k < 0:
            raise ValueError("shift must be non-negative")
        if k == 0:
            return self
        if k > self.order:
            raise ValueError(f"cannot shift a series of order {self.order} down by {k}")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"shifting down by {k} drops nonzero coefficients")
        return PowerSeries(self.coeffs[k:])

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` for x, by Horner evaluation at equal order.

        Requires ``inner`` to have zero constant term; otherwise the result
        would need infinitely many terms of this series.
        """
        self._require_same_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires zero constant term")
        n = self.order
        result = PowerSeries.constant(self.coeffs[n], n)
        for c in reversed(self.coeffs[:-1]):
            result = result * inner + PowerSeries.constant(c, n)
        return result

    def sqrt(self) -> "PowerSeries":
        """Square root of a series with constant term exactly 1.

        This is the power (B/B_0)^(1/2) of :meth:`revert`'s recurrence,
        with B the integer numerators N of f = N/d (N_0 = d), and with
        weight j scaled by 4^j.  Then Y_m = y_m * (4d)^m, and coefficient
        m reads

            2m * Y_m = sum_{i=1..m, N_i != 0} (3i - 2m) * N_i * 4^i * d^(i-1) * Y_{m-i},

        so a polynomial f of degree k costs O(k) operations per coefficient.
        Y_m is an integer because binom(1/2, j) * 4^j = +-2 * Catalan(j-1)
        for j >= 1, so each division by 2m is exact, and checked.
        """
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires unit constant term")
        nums, d = _common(self.coeffs)
        # B = 4N: B_0 = 4d and B_i * B_0^(i-1) = N_i * 4^i * d^(i-1)
        terms = _power_terms([4 * ni for ni in nums])
        out = []
        scale = 1  # (4d)^m
        for y in _power_coefficients(terms, 1, 2, self.order):
            out.append(Fraction(y, scale))
            scale *= 4 * d
        return PowerSeries(tuple(out))

    def revert(self) -> "PowerSeries":
        """Compositional inverse of a series with f0 = 0 and f1 != 0.

        Computed by Lagrange inversion, m * u_m = [x^(m-1)] (x/f)^m, which
        needs one coefficient of each power.  Write B/d for the integer
        numerators of whichever of f/x (e = -m) or x/f (e = m) has fewer
        nonzero coefficients (f/x on a tie), so that (x/f)^m = (B/d)^e.
        J.C.P. Miller's recurrence for a power (Knuth, TAOCP vol. 2,
        section 4.7), on Y_k = B_0^k * [x^k] (B/B_0)^e, reads Y_0 = 1 and

            k * Y_k = sum_{j>=1, B_j != 0} ((e+1) j - k) * B_j * B_0^(j-1) * Y_{k-j}.

        Y_k is an integer for either sign of e: (B/B_0)^e is a sum of
        binom(e, i) (B/B_0 - 1)^i with integer binom(e, i), and each
        product of i <= k ratios B_j/B_0 at x^k has denominator dividing
        B_0^k.  So each division by k is exact, and it is checked.  Taking
        the recurrence to k = m - 1 gives

            u_m = B_0 * Y_{m-1} / (d^m * m)               for x/f,
            u_m = d^m * Y_{m-1} / (B_0^(2m-1) * m)        for f/x,

        each reduced once.  Step k costs min(k, s) terms for s nonzero
        B_j, so order n costs about n^3/6 products for a dense B and
        s * n^2 / 2 for a polynomial one.

        The result u satisfies compose(f, u) = compose(u, f) = x through the
        truncation order; the test suite checks that postcondition with an
        independent composition routine.
        """
        if self.order < 1 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise ValueError("series not reversible")
        n = self.order
        f_over_x = self.shift_down(1)  # invertible constant term
        x_over_f = PowerSeries.one(n - 1) / f_over_x
        on_x_over_f = sum(map(bool, x_over_f.coeffs)) < sum(map(bool, f_over_x.coeffs))
        b, d = _common((x_over_f if on_x_over_f else f_over_x).coeffs)
        b0 = b[0]
        terms = _power_terms(b)
        out = [Fraction(0)]
        for m in range(1, n + 1):
            if on_x_over_f:
                y = _power_coefficients(terms, m, 1, m - 1)[-1]
                out.append(Fraction(b0 * y, d**m * m))
            else:
                y = _power_coefficients(terms, -m, 1, m - 1)[-1]
                out.append(Fraction(d**m * y, b0 ** (2 * m - 1) * m))
        return PowerSeries(tuple(out))
