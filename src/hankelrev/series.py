"""Exact truncated formal power series over rational coefficients.

A :class:`PowerSeries` is a value: coefficients 0..order, read as
`fractions.Fraction` values (``coeffs``), exact and never rounded.  It is
built from a coefficient list, by :meth:`PowerSeries.from_rational`, or by
:func:`hankelrev.gf.expand_gf`, and is read, reverted, or multiplied by a
series of the same order; a product of mixed orders raises rather than
truncate silently.

Quotients, square roots and reversion run on integer numerators over one
common denominator (:func:`_common`, :func:`_conv`), so the inner loops
multiply and add plain ints and each output coefficient is read once.  A
quotient by an integer list is the fraction-free recurrence of
:func:`_quotient`, which forms its own weights from the divisor, and a
square root or its inverse one run of :func:`_root`; both give integers
Z_j with coefficient j equal to Z_j / (d * r^j).  :func:`_quotients`
reads each by one checked exact division: an int where it divides, a
reduced Fraction elsewhere.  A series holds those values and builds its
Fractions only when ``coeffs`` is read, so an integral series goes from
:mod:`hankelrev.gf` through reversion to printed text without a Fraction.
``fractions`` is imported in the functions that make a Fraction, on the
branch that makes one, so a process whose series are all integral never
loads it, nor the ``decimal`` and ``numbers`` modules it imports.
:meth:`PowerSeries.from_rational`, :meth:`PowerSeries.revert`,
:func:`_radical_revert` and the evaluator of :mod:`hankelrev.gf` all
expand a ratio P/Q or a root of one through these.  Square roots and
reversion share one recurrence for a power
Y = (P/P_0)^e * (Q/Q_0)^(-e) of a ratio of integer series
(:func:`_power_coefficients`).  With R = PQ and S = P'Q - PQ', Y solves
R * Y' = e * S * Y, so Z_k = R_0^k * Y_k obeys

    k * Z_k = sum_{i>=1} (e * S_(i-1) + i * R_i - k * R_i) * R_0^(i-1) * Z_(k-i),

with one term per nonzero R_i or S_(i-1).  At Q = 1 this is J.C.P.
Miller's recurrence for a power of a series (Knuth, TAOCP vol. 2,
section 4.7).  :func:`_root` takes e = 1/2 or -1/2.  Reversion takes the
powers e = -m of Lagrange inversion on one form P/Q of f/x: the exact
integer pair that the series was built from, when the code that built it
knew one (:meth:`PowerSeries.from_rational`, the evaluator of
:mod:`hankelrev.gf` on a rational expression, the family bases), else
f/x itself over Q = 1.  Reverting a rational f to order n then costs
O(n^2 * deg PQ) products, not the n^3/6 of a dense f/x.  The quadratic class,
f = x * P/Q with deg(x * P) <= 2 and deg Q <= 2, which holds the bases
of all three families, skips Lagrange inversion: there u solves a
quadratic, so one square root of a polynomial of degree 2 and one
quotient by a polynomial of degree at most 1 give it in O(n) steps
(:func:`_radical_revert`).

:func:`_decimal` and :func:`coefficient_string` are the one way a value
becomes exact decimal text at any magnitude, and :func:`_parse_int` the
one way decimal text becomes an int.  The other modules hand back ints
(or series), and :mod:`hankelrev.cli` renders them with the first two
when it prints.  The command line and the gf parser read integers with
the third.  :func:`_decimal` splits a value of 2000 bits or more at a
cached power 10^(300 * 2^k) near the middle of its digits, so every
piece that reaches CPython's ``str``, quadratic in the digit count, is
under 603 digits, below any int->str limit a process can set.

:class:`_Value` is the base of the package's frozen value types (the gf
syntax nodes, ``FamilyParams``, ``HankelTriple``, ``Check``,
``ConjectureReport``, ``SweepResult``, ``OeisMatch``): fields in
``__slots__``, equality, hash and repr by field as a frozen dataclass
has them, pickling through the constructor.  It lives here, in the module
every other one imports, so that no module loads ``dataclasses``, which
would add its own imports (``inspect`` among them) to every start-up.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


def coefficient_string(value: Scalar) -> str:
    """Render an int or Fraction as ``num`` or ``num/den``, exact at any magnitude."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


_POW10 = [10**300]  # _POW10[k] = 10^(300 * 2^k), squared on demand


def _decimal(value: int) -> str:
    """Exact decimal text of an int of any size.

    CPython caps int->str conversion (4300 digits by default, settable per
    process, never below 640) and takes quadratic time below the cap.  A
    value of fewer than 2000 bits, so fewer than 603 digits, goes straight
    to ``str``.  A larger one is split by ``divmod`` at m = 300 * 2^k
    digits, with k chosen so that m is 0.35 to 0.71 of its digit count, and
    each part converted on its own.  The powers 10^m are cached in
    ``_POW10``, one per octave, as in CPython's ``Lib/_pylong.py``.  The
    process-wide limit is neither read nor touched: library callers of
    ``cli.run`` keep whatever limit they chose.
    """
    if value.bit_length() < 2000:
        return str(value)
    if value < 0:
        return "-" + _decimal(-value)
    # 2^k <= bits / 1410.75 < 2^(k+1), so m lies in (0.353, 0.707] of the digits
    k = (value.bit_length() * 4 // 5643).bit_length() - 1
    while len(_POW10) <= k:
        _POW10.append(_POW10[-1] ** 2)
    high, low = divmod(value, _POW10[k])
    return _decimal(high) + _decimal(low).zfill(300 << k)


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


class _Value:
    """Base of the package's frozen value types.

    A subclass lists its fields in ``__slots__``, or, where more slots hold
    state derived from the fields, in ``__match_args__``, and its own
    ``__init__`` sets them with ``object.__setattr__``.  Instances equal
    and hash by their fields, among objects of one class only, repr as a
    dataclass does, refuse assignment and deletion with AttributeError,
    and pickle and copy by calling the constructor on their fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls.__slots__

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._field_values()


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


def _ratio_terms(p: Sequence[int], q: Sequence[int], k: int) -> list[tuple[int, int, int]]:
    """(i, S_(i-1) * R_0^(i-1), R_i * R_0^(i-1)) for i = 1..k where either
    is nonzero, with R = P*Q and S = P'Q - PQ' of integer lists P and Q.

    Both are summed over the nonzero pairs P_i * Q_j alone, since
    P'Q - PQ' = sum (i - j) * P_i * Q_j * x^(i+j-1), so the zeros of a
    polynomial padded to the order cost one scan and no products.
    """
    p = [(i, c) for i, c in enumerate(p) if c]
    q = [(j, c) for j, c in enumerate(q) if c]
    k = min(k, p[-1][0] + q[-1][0])  # deg R, and deg S < deg R
    r, s = [0] * (k + 1), [0] * (k + 1)
    for i, a in p:
        for j, b in q:
            if i + j > k:
                break
            r[i + j] += a * b
            if i != j:
                s[i + j - 1] += (i - j) * a * b
    terms, scale = [], 1  # R_0^(i-1)
    for i in range(1, k + 1):
        if s[i - 1] or r[i]:
            terms.append((i, s[i - 1] * scale, r[i] * scale))
        scale *= r[0]
    return terms


def _power_coefficients(
    terms: Sequence[tuple[int, int, int]], p: int, q: int, k: int
) -> list[int]:
    """Z_0..Z_k, for Z_j = R_0^j * [x^j] (P/P_0)^e * (Q/Q_0)^(-e) with
    e = p/q, by the recurrence in the module docstring, given ``terms`` =
    :func:`_ratio_terms` of P and Q.  Times q, term i at step j weighs
    a_i - j * b_i with a_i = p * S_(i-1) + q * i * R_i and b_i = q * R_i
    (each times R_0^(i-1)), so a_i and b_i are formed once per call.  Each
    division is checked.
    """
    weights = [(i, p * s + q * i * r, q * r) for i, s, r in terms]
    scaled = [1]  # Z_0, Z_1, ...
    for j in range(1, k + 1):
        acc = 0
        for i, a, b in weights:
            if i > j:
                break
            acc += (a - j * b) * scaled[j - i]
        z, rem = divmod(acc, q * j)
        if rem:
            raise ArithmeticError("inexact division in the power recurrence")
        scaled.append(z)
    return scaled


def _primitive(a: Sequence[int]) -> tuple[list[int], int]:
    """An integer list with a nonzero entry, divided by its content g; and g."""
    g = math.gcd(*a)
    return [x // g for x in a], g


def _quotient(a: Sequence[int], b: Sequence[int], n: int) -> tuple[list[int], int, int]:
    """(T, d, r) with [x^m] a/b = T_m / (d * r^m) for m = 0..n, for integer
    lists a and b with b_0 != 0; a may be shorter than n + 1.

    With g the content of b and B = b / g, the quotient of a by B is
    T_m / B_0^(m+1) for the fraction-free recurrence

        T_m = a_m * B_0^m - sum_{k>=1, B_k != 0} B_k * B_0^(k-1) * T_{m-k},

    so d = g * B_0 and r = B_0: O(n * deg b) products, with each weight
    B_k * B_0^(k-1) formed once per call.  Taking the content out keeps a
    divisor like 10^100 * (1 + x) from scaling every T_m, and a constant
    divisor costs nothing: T = a, d = b_0, r = 1.
    """
    b, g = _primitive(b)
    b0 = b[0]
    a = [*a[: n + 1], *[0] * (n + 1 - len(a))]
    weights = [(k, c * b0 ** (k - 1)) for k, c in enumerate(b[1 : n + 1], 1) if c]
    if not weights:
        return a, g * b0, 1
    out: list[int] = []
    b0_power = 1  # B_0^m
    for m, am in enumerate(a):
        t = am * b0_power
        for k, w in weights:
            if k > m:
                break
            t -= w * out[m - k]
        out.append(t)
        b0_power *= b0
    return out, g * b0, b0


def _quotients(z: Sequence[int], d: int, r: int) -> tuple[Scalar, ...]:
    """The coefficients z_j / (d * r^j): an int where the division is exact,
    a reduced Fraction elsewhere.

    With d * r^j = 2^(s + j*t) * o * u^j for odd o and u, the power of two
    is known by addition.  z_j is read by one mask test of its low s + j*t
    bits, a shift, and one checked division by the odd part o * u^j, none
    when that is 1.  So an integral coefficient costs no gcd and no
    Fraction.  From the first coefficient that fails either test on,
    each coefficient becomes a reduced Fraction, kept as its int when it
    is whole: a failed division costs about as much as the gcd after it.
    The power of 2 that z_j shares with its denominator is shifted out
    first, because the 4 in rho of :func:`_root` puts 2^(2j) into every
    denominator of a root, which would leave math.gcd on numbers of twice
    the size of the reduced coefficient.
    """
    if d == 1 and r == 1:
        return tuple(z)
    s, t = (d & -d).bit_length() - 1, (r & -r).bit_length() - 1
    odd, odd_step = d >> s, r >> t
    out = []
    for c in z:
        rem = c & ((1 << s) - 1)
        if not rem:
            q, rem = (c >> s, 0) if odd == 1 else divmod(c >> s, odd)
        if rem:
            from fractions import Fraction

            break
        out.append(q)
        s += t
        odd *= odd_step
    for c in z[len(out) :]:
        k = min((c & -c).bit_length() - 1, s) if c else 0
        f = Fraction(c >> k, (odd << s) >> k)
        out.append(f.numerator if f.denominator == 1 else f)
        s += t
        odd *= odd_step
    return tuple(out)


def _root(p: Sequence[int], q: Sequence[int], n: int, sign: int = 1) -> tuple[list[int], int]:
    """(Z, rho) with [x^j] (P/P_0)^(s/2) * (Q/Q_0)^(-s/2) = Z_j / rho^j for
    j = 0..n and s = ``sign`` (1 or -1), for integer lists P and Q with
    nonzero heads: the power of :func:`_power_coefficients` at e = s/2, run
    on 4P and Q, so rho = 4 * P_0 * Q_0.

    Z_j is an integer: binom(+-1/2, i) * 4^i is one, and the coefficient of
    x^j in (P/P_0 - 1)^i has a denominator dividing P_0^j, so the x^j
    coefficient of (P/P_0)^(s/2) has one dividing (4 P_0)^j, and that of
    (Q/Q_0)^(-s/2) one dividing (4 Q_0)^j.  When P_0 = Q_0 this is the root
    of P/Q itself.
    """
    terms = _ratio_terms([4 * c for c in p], q, n)
    return _power_coefficients(terms, sign, 2, n), 4 * p[0] * q[0]


def _scalar(c: Scalar) -> Scalar:
    if type(c) is int:
        return c
    from fractions import Fraction

    return Fraction(c)


class PowerSeries:
    """A formal power series truncated at a fixed order.

    ``coeffs[n]`` is the coefficient of x^n, a Fraction; the order is
    ``len(coeffs) - 1``.  Beyond reading its coefficients, a series
    offers :meth:`revert` and a product ``*`` with a series of the same
    order.  A series that the integer kernels build
    (:meth:`_from_numerators`) holds each coefficient as an int where it
    is one, and builds the tuple of Fractions once, on its first read.
    :meth:`revert`, :meth:`integer_coefficients` and
    :meth:`coefficient_strings` read the ints, so an integral series
    reaches print without a Fraction.  A series built from a rational
    function f = P/Q keeps that exact integer pair (P, Q) for
    :meth:`revert`; a coefficient list, a product or a reversion keeps
    none.  Equality and hashing compare values, as ``coeffs`` would, and
    ignore the pair.  Instances are immutable and safe to share across
    threads.
    """

    __slots__ = ("_values", "_coeffs", "_form")

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        from fractions import Fraction

        normalized = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not normalized:
            raise ValueError("series must carry at least the constant coefficient")
        self._values = self._coeffs = normalized
        self._form = None

    @classmethod
    def _from_numerators(
        cls, z: Sequence[Scalar], d: int, r: int, form: tuple | None = None
    ) -> "PowerSeries":
        """The series whose coefficient j is z_j / (d * r^j), read by
        :func:`_quotients`.  At d = r = 1, z may be values already read:
        ints and reduced Fractions.  ``form``, if given, is integer lists
        (P, Q) with the series equal to P/Q, Q_0 != 0."""
        series = cls.__new__(cls)
        series._values, series._coeffs, series._form = _quotients(z, d, r), None, form
        return series

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            from fractions import Fraction

            self._coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self._values)
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    @classmethod
    def from_rational(
        cls,
        numerator: Iterable[Scalar],
        denominator: Iterable[Scalar],
        order: int,
    ) -> "PowerSeries":
        """Expand the rational function numerator/denominator.

        Both arguments are polynomial coefficient lists, constant term first.
        This is the quotient recurrence of :func:`_quotient`, in
        O(order * deg den).  The series keeps the pair, cleared of
        denominators, for :meth:`revert`.
        """
        den = [_scalar(c) for c in denominator]
        if not den or den[0] == 0:
            raise ValueError("zero constant denominator")
        if order < 0:
            raise ValueError("order must be non-negative")
        a, da = _common([_scalar(c) for c in numerator])
        b, db = _common(den)
        z, d, r = _quotient(a, b, order)
        if db != 1:
            z = [c * db for c in z]
        return cls._from_numerators(z, da * d, r, ([c * db for c in a], [c * da for c in b]))

    # ------------------------------------------------------------------
    # queries

    @property
    def order(self) -> int:
        return len(self._values) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(self.coefficient_strings())
        return f"PowerSeries([{inner}])"

    def integer_coefficients(self) -> list[int]:
        """Coefficients as plain ints; raises if any denominator is not 1."""
        for c in self._values:
            if c.denominator != 1:
                raise ValueError(
                    f"series has a non-integer coefficient {coefficient_string(c)}"
                )
        return [c.numerator for c in self._values]

    def coefficient_strings(self) -> list[str]:
        return [coefficient_string(c) for c in self._values]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """The truncated product of two series of one order."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("incompatible truncation orders")
        a, da = _common(self._values)
        b, db = _common(other._values)
        return PowerSeries._from_numerators(_conv(a, b, self.order), da * db, 1)

    def revert(self) -> "PowerSeries":
        """Compositional inverse of a series with f0 = 0 and f1 != 0.

        Both paths below start from one form f = P/Q: the exact pair the
        series was built from, if it keeps one, else f itself over Q = 1.
        With B/d the integer numerators of P/x, that gives x/f = w * N/D
        for N = Q and D = B divided by their content and trimmed of
        trailing zeros, and a rational w = w_n / w_d.  So u solves
        A(u) = x * C(u) for A = w_d * t * D(t) and C = w_n * N(t).

        When deg A <= 2 and deg C <= 2, as for the bases of all three
        families in :mod:`hankelrev.families`, that is a quadratic in u, and
        :func:`_radical_revert` reads u off the square root of a polynomial
        of degree 2 and one quotient by a polynomial of degree at most 1:
        O(n) steps on integers of O(n) digits.  Its root is checked, u_0 = 0
        and u_1 * f_1 = 1, and a failure raises ArithmeticError.

        Every other form runs Lagrange inversion,
        m * u_m = [x^(m-1)] (x/f)^m, which needs one coefficient of each
        power.  The recurrence in the module docstring, with D and N in
        place of P and Q and at e = -m, gives
        [x^(m-1)] (N/D)^m = N_0 * Z_(m-1) / D_0^(2m-1), so

            u_m = w^m * N_0 * Z_(m-1) / (m * D_0^(2m-1)),

        an int where the division is exact, reduced once elsewhere.  Z_k
        is an integer: (D/D_0)^(-m) is a sum of binom(-m, i) (D/D_0 - 1)^i,
        whose coefficient at x^k has a denominator dividing D_0^k, and
        likewise (N/N_0)^m.  So each division by k is exact, and it is
        checked.

        At Q = 1 there is one term per nonzero B_i, i >= 1, and the weights
        are Miller's, ((1 - m) i - k) * B_i * B_0^(i-1).  A form with s
        terms costs about s * n^2 / 2 products to order n: O(n^2 * deg PQ)
        for an exact P/Q, against n^3/6 for a dense f/x.  The pair is used
        as it was built: a factor common to P and Q is not cancelled, so
        such a form may take Lagrange inversion where the reduced one would
        take the radical.

        The result u satisfies compose(f, u) = compose(u, f) = x through the
        truncation order; the test suite checks that postcondition with an
        independent composition routine.
        """
        f = self._values
        if len(f) < 2 or f[0] != 0 or f[1] == 0:
            raise ValueError("series not reversible")
        n = self.order
        p, q = self._form or (f, [1])  # f = P/Q
        b, d = _common(p[1:])  # P/x, with an invertible constant term
        # x/f = w * num/den for f/x = B/(d * Q)
        (den, gd), (num, gn) = _primitive(b), _primitive(q)
        wn, wd = gn * d, gd
        g = math.gcd(wn, wd)
        wn, wd = wn // g, wd // g
        for poly in (num, den):
            while not poly[-1]:
                poly.pop()
        if len(den) <= 2 and len(num) <= 3:
            # u solves A(u) = x * C(u), A = wd * t * den(t), C = wn * num(t)
            u = _radical_revert([0, *(wd * c for c in den)], [wn * c for c in num], n)
            if u._values[0] != 0 or u._values[1] * f[1] != 1:
                raise ArithmeticError("the radical's root is not the reversion")
            return u
        terms = _ratio_terms(den, num, n - 1)
        out = [0]
        for m in range(1, n + 1):
            z = _power_coefficients(terms, -m, 1, m - 1)[-1]
            top, bottom = wn**m * num[0] * z, wd**m * m * den[0] ** (2 * m - 1)
            q, rem = divmod(top, bottom)
            if rem:
                from fractions import Fraction

                q = Fraction(top, bottom)
            out.append(q)
        return PowerSeries._from_numerators(out, 1, 1)


def _radical_revert(a: Sequence[int], c: Sequence[int], n: int) -> PowerSeries:
    """The series u to order n with u_0 = 0 that solves A(u) = x * C(u),
    for A = A_1 t + A_2 t^2 and C = C_0 + C_1 t + C_2 t^2 with A_1 and C_0
    nonzero, given as coefficient lists a = [0, A_1, A_2] and
    c = [C_0, C_1, C_2], either of them possibly without its zero tail.

    That is a * u^2 + b * u - C_0 x = 0 for a = A_2 - C_2 x and
    b = A_1 - C_1 x, so u = (sqrt(D) - b) / (2a) for D = b^2 + 4 C_0 x a,
    with the root whose constant term is A_1.  D has degree at most 2 and
    D_0 = A_1^2, so s = sqrt(D / A_1^2) is s_j = Z_j / rho^j for the
    integers (Z, rho) of :func:`_root`, O(n) steps, and

        u = A_1 * (s - b / A_1) / (2a),

    a quotient by a polynomial of degree at most 1.  s - b / A_1 differs
    from s in its first two coefficients alone: Z_0 becomes 0 and Z_1 gains
    C_1 * rho / A_1 = 4 A_1 C_1.  In y = x / rho it is the integer series
    Z(y), so :func:`_quotient` divides A_1 * Z by 2a(rho y) in O(n) steps,
    and each coefficient of u is read once.  If A_2 = 0, a = -C_2 x and
    s - b / A_1 is divisible by x^2, so s is taken to order n + 1 and the
    difference shifted down by one.  If a = 0, u = C_0 x / b.
    """
    _, a1, a2 = [*a, 0][:3]
    c0, c1, c2 = [*c, 0, 0][:3]
    if not a2 and not c2:
        return PowerSeries._from_numerators(*_quotient([0, c0], [a1, -c1], n))
    disc = [a1 * a1, 4 * c0 * a2 - 2 * a1 * c1, c1 * c1 - 4 * c0 * c2]
    z, rho = _root(disc, [1], n if a2 else n + 1)
    z[0], z[1] = 0, a1 * (z[1] + 4 * a1 * c1)  # A_1 * (s - b / A_1)
    z[2:] = [a1 * x for x in z[2:]]
    if a2:
        t, d, r = _quotient(z, [2 * a2, -2 * c2 * rho], n)
        return PowerSeries._from_numerators(t, d, r * rho)
    return PowerSeries._from_numerators(z[1:], -2 * c2 * rho, rho)
