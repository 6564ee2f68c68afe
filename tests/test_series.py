"""Truncated power series arithmetic over exact rationals."""

import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelrev import PowerSeries, coefficient_string
from hankelrev import series
from hankelrev.families import FamilyParams, family_base_ogf, family_reversion_terms
from hankelrev.gf import expand_gf
from hankelrev.series import (
    _berlekamp_massey,
    _common,
    _conv,
    _power_coefficients,
    _quotients,
    _ratio_terms,
    _rational_form,
    _root,
)
from oracles import (
    compose_ref,
    family_reversion_term_ref,
    pad,
    revert_ref,
    series_inverse_ref,
    series_product_ref,
    series_quotient_ref,
    series_sqrt_ref,
)

ORDER = 6

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def series_of_order(order, elements=fractions):
    return st.lists(elements, min_size=order + 1, max_size=order + 1).map(
        lambda cs: PowerSeries(tuple(Fraction(c) for c in cs))
    )


def int_coeffs(series):
    return series.integer_coefficients()


def sqrt_series(f):
    """sqrt(f) for a coefficient list with f[0] == 1: :func:`_root` of its
    integer numerators N (N_0 = d) and Q = 1, coefficient m Z_m / (4d)^m."""
    nums, _ = _common(f)
    z, rho = _root(nums, [1], len(f) - 1)
    return PowerSeries._from_numerators(z, 1, rho)


class TestConstruction:
    def test_requires_constant_coefficient(self):
        with pytest.raises(ValueError, match="at least the constant"):
            PowerSeries(())

    def test_from_rational(self):
        s = PowerSeries.from_rational([0, 1], [1, -3, -5], 6)
        assert int_coeffs(s) == [0, 1, 3, 14, 57, 241, 1008]

    def test_from_rational_rejects_zero_constant_denominator(self):
        with pytest.raises(ValueError, match="zero constant denominator"):
            PowerSeries.from_rational([1], [0, 1], 4)

    def test_order_and_indexing(self):
        s = PowerSeries((5, 0, 7))
        assert s.order == 2
        assert s[0] == 5 and s[2] == 7
        assert list(s) == [Fraction(5), Fraction(0), Fraction(7)]

    def test_repr(self):
        s = PowerSeries((0, 1, Fraction(1, 2), 0))
        assert repr(s) == "PowerSeries([0, 1, 1/2, 0])"

    def test_pad_pads_and_truncates(self):
        # the list helper that builds series from polynomials in these tests
        assert int_coeffs(PowerSeries(pad([1, 2], 4))) == [1, 2, 0, 0, 0]
        assert int_coeffs(PowerSeries(pad([1, 2, 3, 4], 1))) == [1, 2]
        assert all(type(c) is Fraction for c in pad([1, Fraction(1, 2)], 3))


class TestArithmetic:
    def test_product(self):
        a = PowerSeries((1, 1, 0))
        b = PowerSeries((1, -1, 0))
        assert int_coeffs(a * b) == [1, 0, -1]

    def test_rational_expansion_times_its_denominator(self):
        geometric = PowerSeries.from_rational([1], [1, -1], 5)
        assert int_coeffs(geometric) == [1, 1, 1, 1, 1, 1]
        assert int_coeffs(geometric * PowerSeries(pad([1, -1], 5))) == [1, 0, 0, 0, 0, 0]

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="incompatible truncation orders"):
            PowerSeries((1, 0)) * PowerSeries((1, 0, 0))

    def test_product_with_a_scalar_is_refused(self):
        # only series x series remains; scale the coefficients instead
        a = PowerSeries((1, 2))
        with pytest.raises(TypeError):
            a * 3
        with pytest.raises(TypeError):
            3 * a

    @given(series_of_order(ORDER), series_of_order(ORDER), series_of_order(ORDER))
    def test_product_commutes_and_associates(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(series_of_order(ORDER), series_of_order(ORDER))
    def test_from_rational_inverts_multiplication(self, a, b):
        if b[0] == 0:
            b = PowerSeries((b[0] + 1, *b.coeffs[1:]))
        assert PowerSeries.from_rational((a * b).coeffs, b.coeffs, ORDER) == a


class TestSqrt:
    def test_known_expansion(self):
        assert int_coeffs(expand_gf("sqrt(1-4*x)", 5)) == [1, -2, -2, -4, -10, -28]

    @given(series_of_order(ORDER))
    def test_square_of_sqrt(self, s):
        adjusted = PowerSeries((Fraction(1),) + s.coeffs[1:])
        root = sqrt_series(adjusted.coeffs)
        assert root * root == adjusted


class TestRevert:
    def test_composition_reference_behind_the_roundtrips(self):
        # 1/(1-t) at t = x + x^2 collapses to 1/(1-x-x^2)
        assert compose_ref([1] * 6, pad([0, 1, 1], 5)) == [1, 1, 2, 3, 5, 8]

    def test_composition_reference_requires_zero_inner_constant(self):
        with pytest.raises(ValueError, match="composition requires zero constant term"):
            compose_ref(pad([1], 3), pad([1], 3))

    def test_catalan_numbers(self):
        f = PowerSeries(pad([0, 1, -1], 8))
        assert int_coeffs(f.revert()) == [0, 1, 1, 2, 5, 14, 42, 132, 429]

    def test_rational_example(self):
        f = PowerSeries.from_rational([0, 1], [1, -3, -5], 7)
        assert int_coeffs(f.revert()) == [0, 1, -3, 4, 18, -139, 357, 779]

    @pytest.mark.parametrize("head", [[1, 1], [0, 0, 1]])
    def test_rejects_inadmissible_series(self, head):
        with pytest.raises(ValueError, match="series not reversible"):
            PowerSeries(pad(head, 4)).revert()

    @given(series_of_order(ORDER))
    def test_roundtrip_both_ways(self, s):
        f = [Fraction(0), Fraction(1), *s.coeffs[2:]]
        g = list(PowerSeries(f).revert().coeffs)
        assert compose_ref(f, g) == pad([0, 1], ORDER)
        assert compose_ref(g, f) == pad([0, 1], ORDER)

    @given(series_of_order(ORDER), st.fractions(min_value=1, max_value=5, max_denominator=6))
    def test_roundtrip_general_slope(self, s, slope):
        f = [Fraction(0), slope, *s.coeffs[2:]]
        assert compose_ref(f, list(PowerSeries(f).revert().coeffs)) == pad([0, 1], ORDER)


# the eight largest primes below 10**6: pairwise coprime denominators make
# the common denominator of a series as large as it gets
PRIMES = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)
numerators = st.integers(-(10**6), 10**6)


@st.composite
def coefficient_lists(draw, size):
    """``size`` coefficients mixing runs of zeros, fractions over pairwise
    coprime denominators near 10**6, and fractions with any denominator up
    to 10**6."""
    cs = []
    while len(cs) < size:
        kind = draw(st.sampled_from(("zeros", "coprime", "any")))
        if kind == "zeros":
            cs += [Fraction(0)] * draw(st.integers(1, 5))
        elif kind == "coprime":
            cs.append(Fraction(draw(numerators), draw(st.sampled_from(PRIMES))))
        else:
            cs.append(Fraction(draw(numerators), draw(st.integers(1, 10**6))))
    return cs[:size]


def sized_pairs(max_order):
    return st.integers(0, max_order).flatmap(
        lambda n: st.tuples(coefficient_lists(n + 1), coefficient_lists(n + 1))
    )


nonzero_slopes = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
).filter(bool)
# proper fractions p/q with 0 < |p| < q <= 10**6
proper_slopes = st.integers(2, 10**6).flatmap(
    lambda q: st.integers(1, q - 1).flatmap(
        lambda p: st.sampled_from((Fraction(p, q), Fraction(-p, q)))
    )
)


def all_fractions(series):
    return all(type(c) is Fraction for c in series.coeffs)


# divisor heads: negative, fractional, proper fractions and huge constants
heads = st.one_of(
    nonzero_slopes, proper_slopes, st.sampled_from((10**120, -(10**120)))
)
contents = st.sampled_from(
    (10**100, -(10**100), Fraction(10**100, 999983), Fraction(3, 10**100))
)


@st.composite
def quotients(draw, max_order):
    """(a, b) coefficient lists of one order, with b[0] drawn from ``heads``."""
    n = draw(st.integers(0, max_order))
    a = draw(coefficient_lists(n + 1))
    b = [draw(heads)] + draw(coefficient_lists(n))
    return a, b


def sqrt_binomial(c, order):
    """Coefficients of sqrt(1 + c x): binom(1/2, j) c^j, with
    binom(1/2, j) = (-1)^(j-1) C(2j, j) / (4^j (2j - 1))."""
    return [
        Fraction(-((-1) ** j) * math.comb(2 * j, j), 4**j * (2 * j - 1)) * c**j
        for j in range(order + 1)
    ]


class TestIntegerKernel:
    """Products, division, square roots, reversion and the binomial o.g.f. on
    common numerators equal the one-Fraction-per-term routines in
    ``oracles``."""

    @given(
        st.lists(st.integers(-3, 3), max_size=9),
        st.lists(st.integers(-3, 3), max_size=9),
        st.integers(0, 12),
    )
    def test_conv_is_the_truncated_integer_product(self, a, b, n):
        expected = [
            sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n + 1)
        ]
        assert _conv(a, b, n) == expected

    @given(coefficient_lists(9))
    def test_common_numerators_share_the_lcm_denominator(self, cs):
        nums, den = _common(cs)
        assert [Fraction(c, den) for c in nums] == cs
        assert all(den % c.denominator == 0 for c in cs)
        assert math.gcd(den, *nums) == 1

    @given(sized_pairs(12))
    def test_product_equals_the_fraction_product(self, pair):
        a, b = pair
        product = PowerSeries(tuple(a)) * PowerSeries(tuple(b))
        assert list(product.coeffs) == series_product_ref(a, b)
        assert all_fractions(product)

    def test_product_at_order_zero(self):
        a = PowerSeries((Fraction(2, 999983),))
        assert (a * PowerSeries((Fraction(-3, 4),))).coeffs == (Fraction(-3, 1999966),)
        assert (a * PowerSeries((0,))).coeffs == (Fraction(0),)

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.sampled_from(PRIMES), st.integers(0, 4))
    def test_product_is_exact_past_the_digit_limit(self, small, prime, order):
        huge = 7 * 10**5000 + small
        a = [Fraction(huge, prime)] + [Fraction(small, huge | 1)] * order
        b = [Fraction(prime)] + [Fraction(-huge, 3)] * order
        product = PowerSeries(tuple(a)) * PowerSeries(tuple(b))
        assert list(product.coeffs) == series_product_ref(a, b)
        assert product[0] == huge
        assert coefficient_string(product[0]).startswith("7" + "0" * 4000)

    @given(st.integers(1, 10), st.one_of(nonzero_slopes, proper_slopes), st.data())
    def test_revert_equals_lagrange_inversion_over_fractions(self, order, slope, data):
        f = [Fraction(0), slope] + data.draw(coefficient_lists(order - 1))
        reverted = PowerSeries(tuple(f)).revert()
        assert list(reverted.coeffs) == revert_ref(f)
        assert all_fractions(reverted)

    @given(st.one_of(nonzero_slopes, proper_slopes))
    def test_revert_at_order_one_inverts_the_slope(self, slope):
        assert PowerSeries((Fraction(0), slope)).revert().coeffs == (Fraction(0), 1 / slope)

    def test_revert_at_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="series not reversible"):
            PowerSeries((0,)).revert()

    @given(quotients(12))
    def test_division_equals_the_fraction_quotient(self, pair):
        a, b = pair
        quotient = PowerSeries.from_rational(a, b, len(a) - 1)
        assert list(quotient.coeffs) == series_quotient_ref(a, b)
        assert all_fractions(quotient)

    @given(st.integers(0, 12), heads, st.data())
    def test_division_by_a_constant_equals_the_scalar_quotient(self, order, c, data):
        a = data.draw(coefficient_lists(order + 1))
        quotient = PowerSeries.from_rational(a, [c], order)
        assert list(quotient.coeffs) == series_quotient_ref(a, pad([c], order))
        assert list(quotient.coeffs) == [x / c for x in a]
        assert all_fractions(quotient)

    @given(st.integers(0, 20), contents, st.data())
    def test_division_by_a_divisor_with_large_content(self, order, content, data):
        a = data.draw(coefficient_lists(order + 1))
        polynomial = pad([1, 3, -5], order)
        dense = [data.draw(heads), *data.draw(coefficient_lists(order))]
        for divisor in (polynomial, dense):
            b = [content * c for c in divisor]
            quotient = PowerSeries.from_rational(a, b, order)
            assert list(quotient.coeffs) == series_quotient_ref(a, b)
            unscaled = PowerSeries.from_rational(a, divisor, order)
            assert list(quotient.coeffs) == [c / content for c in unscaled.coeffs]

    def test_division_takes_out_the_content(self):
        # the same quotient as by 1 + 3x - 5x^2, over one extra factor: with
        # the content left in, every R_m carries 10^1000 per step and this
        # division runs for seconds instead of milliseconds
        content = 10**1000
        a = range(1, 152)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            quotient = PowerSeries.from_rational(a, [content, 3 * content, -5 * content], 150)
            elapsed.append(time.perf_counter() - start)
        unscaled = PowerSeries.from_rational(a, [1, 3, -5], 150)
        assert list(quotient.coeffs) == [c / content for c in unscaled.coeffs]
        assert min(elapsed) < 0.1

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.sampled_from(PRIMES), st.integers(0, 4))
    def test_division_is_exact_past_the_digit_limit(self, small, prime, order):
        huge = 7 * 10**5000 + small
        a = [Fraction(huge, prime)] + [Fraction(small, huge | 1)] * order
        b = [Fraction(-huge, 3)] + [Fraction(prime), Fraction(0)] * order
        b = b[: order + 1]
        quotient = PowerSeries.from_rational(a, b, order)
        assert list(quotient.coeffs) == series_quotient_ref(a, b)
        assert quotient[0] == Fraction(-3, prime)

    def test_division_at_order_zero(self):
        a = [Fraction(2, 999983)]
        assert PowerSeries.from_rational(a, [Fraction(-3, 4)], 0).coeffs == (Fraction(-8, 2999949),)
        assert PowerSeries.from_rational([0], a, 0).coeffs == (Fraction(0),)

    @given(st.integers(0, 12).flatmap(lambda n: coefficient_lists(n)))
    def test_sqrt_equals_the_self_convolution(self, tail):
        f = [Fraction(1)] + tail
        root = sqrt_series(f)
        assert list(root.coeffs) == series_sqrt_ref(f)
        assert all_fractions(root)

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.sampled_from(PRIMES), st.integers(0, 4))
    def test_sqrt_is_exact_past_the_digit_limit(self, small, prime, order):
        huge = 7 * 10**5000 + small
        f = [Fraction(1), Fraction(huge, prime)] + [Fraction(-small, huge | 1)] * order
        root = sqrt_series(f)
        assert list(root.coeffs) == series_sqrt_ref(f)
        assert root[1] == Fraction(huge, 2 * prime)

    @settings(max_examples=20)
    @given(st.one_of(st.integers(-10, 10), proper_slopes))
    def test_sqrt_of_a_degree_one_radical_at_order_150(self, c):
        root = expand_gf(f"sqrt(1+({c})*x)", 150)
        assert list(root.coeffs) == sqrt_binomial(Fraction(c), 150)

    def test_sqrt_of_the_catalan_radical_past_the_digit_limit(self):
        scale = 10**120
        root = expand_gf(f"sqrt(1-{4 * scale}*x)", 150)
        catalan = [math.comb(2 * j, j) // (j + 1) for j in range(150)]
        assert list(root.coeffs) == [1] + [-2 * catalan[j - 1] * scale**j for j in range(1, 151)]

    @settings(max_examples=10)
    @given(st.integers(-10, 10), st.integers(-10, 10).filter(bool))
    def test_sqrt_of_a_family_radical_at_order_150(self, alpha, beta):
        # the radical of every family reversion: 1 - 2 alpha x + (alpha^2 - 4 beta) x^2
        f = [1, -2 * alpha, alpha**2 - 4 * beta]
        root = expand_gf(f"sqrt({f[0]}+({f[1]})*x+({f[2]})*x^2)", 150)
        assert list(root.coeffs) == series_sqrt_ref(pad(f, 150))

    def test_sqrt_of_a_fractional_degree_two_radical_at_order_150(self):
        root = expand_gf("sqrt(1+3/7*x-5/11*x^2)", 150)
        assert list(root.coeffs) == series_sqrt_ref(pad([1, Fraction(3, 7), Fraction(-5, 11)], 150))

    def test_sqrt_at_order_zero(self):
        assert sqrt_series([Fraction(1)]) == PowerSeries((1,))

    def test_constructor_keeps_fractions_and_converts_the_rest(self):
        class Half(Fraction):
            pass

        kept = Fraction(1, 3)
        s = PowerSeries((kept, 2, True, Half(1, 2), Decimal("0.25")))
        assert s.coeffs[0] is kept
        assert s.coeffs == (Fraction(1, 3), 2, 1, Fraction(1, 2), Fraction(1, 4))
        assert all_fractions(s)


class TestIntegerValues:
    """Series from the integer kernels hold ints where the coefficients are
    integers and read as Fractions through ``coeffs``."""

    @given(
        st.lists(st.integers(-(10**30), 10**30), max_size=8),
        st.integers(-300, 300).filter(bool),
        st.sampled_from((1, -1, 2, -2, 3, 4, -6, 12, 2**40, 3**20)),
    )
    def test_values_are_the_exact_quotients(self, z, d, r):
        values = _quotients(z, d, r)
        assert values == tuple(Fraction(c, d * r**j) for j, c in enumerate(z))
        for v in values:
            assert type(v) is (int if v.denominator == 1 else Fraction)

    def test_values_of_a_root_are_ints(self):
        # [x^j] sqrt(1 - 4x) = Z_j / 4^j, with 2^(2j) in every denominator
        values = expand_gf("sqrt(1-4*x)", 60)._values
        assert all(type(v) is int for v in values)
        assert values[:4] == (1, -2, -2, -4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: expand_gf("(1-sqrt(1-4*x))/(2*x)", 12),
            lambda: expand_gf("1/(2-x)", 12),
            lambda: PowerSeries.from_rational([1, 1], [1, -3, 2], 12),
            lambda: expand_gf("sqrt(1+4*x)", 12),
            lambda: expand_gf("x/(1+3*x-4*x^2)", 12).revert(),
            lambda: expand_gf("x/(1-x-x^2-x^3)", 12).revert(),
            lambda: PowerSeries.from_rational([1], [1, -1], 12)
            * PowerSeries.from_rational([1], [1, 1], 12),
            lambda: PowerSeries.from_rational(range(1, 14), [3, 1], 12),
            lambda: PowerSeries(expand_gf("1/(1-x)", 12).coeffs[:6]),
        ],
    )
    def test_coeffs_are_fractions(self, build):
        assert all_fractions(build())

    def test_integer_coefficients_rejects_proper_fractions(self):
        s = PowerSeries((Fraction(1, 2),))
        with pytest.raises(ValueError, match="non-integer coefficient 1/2"):
            s.integer_coefficients()

    def test_series_from_a_tuple_and_from_ints_are_equal(self):
        ints = PowerSeries.from_rational([1], [1, -2], 6)
        listed = PowerSeries(tuple(Fraction(2**n) for n in range(7)))
        assert ints == listed and hash(ints) == hash(listed)
        assert {listed: "kept"}[ints] == "kept"
        halves = expand_gf("1/(2-x)", 6)
        assert halves == PowerSeries(tuple(Fraction(1, 2 ** (n + 1)) for n in range(7)))
        assert halves != ints and ints != tuple(ints.coeffs)


def nonzero(coeffs):
    return sum(1 for c in coeffs if c)


def takes_x_over_f(f):
    """Whether revert runs on x/f (it has fewer nonzero coefficients than
    f/x) rather than on f/x."""
    f_over_x = f.coeffs[1:]
    return nonzero(series_inverse_ref(f_over_x)) < nonzero(f_over_x)


@st.composite
def sparse_reversible(draw):
    """A reversible series of order 1..30 whose f/x, or else whose x/f, is a
    mostly-zero list with a small nonzero head, so both branches come up."""
    order = draw(st.integers(1, 30))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    tail = draw(st.dictionaries(st.integers(1, max(order - 1, 1)), small, max_size=order // 4))
    sparse = [draw(small)] + [tail.get(j, Fraction(0)) for j in range(1, order)]
    f_over_x = sparse if draw(st.booleans()) else series_inverse_ref(sparse)
    return PowerSeries((Fraction(0), *f_over_x))


class TestMillerRevert:
    """revert by Miller's power recurrence, on the sparser of f/x and x/f."""

    @pytest.mark.parametrize(
        "numerator, denominator, on_x_over_f",
        [
            ([0, 1], [1, 3, -5], True),  # B = x/f, B_0 = 1
            ([0, 2], [3, 1, -4], True),  # B = 2 x/f, B_0 = 3
            ([0, 1, -1], [1], False),  # B = f/x, B_0 = 1
            ([0, Fraction(1, 3), Fraction(1, 7), Fraction(-1, 5)], [1], False),  # B_0 = 35
            # dense f/x and x/f, a tie: B_0 = 2 * 7^59
            ([0, Fraction(2, 3), Fraction(1, 3)], [1, Fraction(-5, 7)], False),
        ],
    )
    def test_differential_at_order_60(self, numerator, denominator, on_x_over_f):
        f = PowerSeries.from_rational(numerator, denominator, 60)
        assert takes_x_over_f(f) == on_x_over_f
        assert list(f.revert().coeffs) == revert_ref(list(f.coeffs))

    def test_dense_rational_input_is_a_tie(self):
        f = PowerSeries.from_rational([0, Fraction(2, 3), Fraction(1, 3)], [1, Fraction(-5, 7)], 60)
        assert nonzero(f.coeffs[1:]) == nonzero(series_inverse_ref(f.coeffs[1:])) == 60

    @pytest.mark.parametrize("alpha, beta", [(3, -5), (-2, 7)])
    def test_family_a_base_at_order_150(self, alpha, beta):
        # revert_ref takes about 10 s at this order; the closed form does not
        f = PowerSeries.from_rational([0, 1], [1, alpha, beta], 150)
        assert takes_x_over_f(f)
        assert int_coeffs(f.revert()) == [
            family_reversion_term_ref("A", alpha, beta, m) for m in range(151)
        ]

    @pytest.mark.parametrize("slope", [1, -1, 2, Fraction(-3, 5)])
    def test_scaled_catalan_at_order_150(self, slope):
        # x/c - x^2 reverts to sum catalan(m-1) c^(2m-1) x^m
        f = PowerSeries(pad([0, 1 / Fraction(slope), -1], 150))
        assert not takes_x_over_f(f)
        assert list(f.revert().coeffs) == [0] + [
            math.comb(2 * m - 2, m - 1) // m * Fraction(slope) ** (2 * m - 1)
            for m in range(1, 151)
        ]

    @settings(max_examples=40, deadline=None)
    @given(sparse_reversible())
    def test_sparse_inputs_against_lagrange_inversion(self, f):
        reverted = f.revert()
        assert list(reverted.coeffs) == revert_ref(list(f.coeffs))
        assert all_fractions(reverted)

    @pytest.mark.parametrize("slope", [1, -1, 2, -7])
    @pytest.mark.parametrize(
        "e", [-9, -2, -1, 0, 1, 2, 9, pytest.param(Fraction(1, 2), id="1/2")]
    )
    def test_power_coefficient_of_a_binomial(self, slope, e):
        # B = B_0 + slope x, any B_0: Y_k = B_0^k [x^k] (1 + slope x / B_0)^e
        # = binom(e, k) slope^k, with binom(e, k) for either sign of e; for
        # e = 1/2 the weight is taken times 4, and Y_k times 4^k
        e = Fraction(e)
        scale = 4 if e.denominator == 2 else 1
        ys = _power_coefficients(
            [(1, scale * slope, scale * slope)], e.numerator, e.denominator, 11
        )
        assert len(ys) == 12
        for k, y in enumerate(ys):
            binom = Fraction(math.prod(e - i for i in range(k)), math.factorial(k))
            assert y == scale**k * binom * slope**k

    def test_power_coefficient_refuses_uncleared_coefficients(self):
        # B = 1 + x/2 not cleared of its denominator: Y_1 = 1/2 for e = 1
        with pytest.raises(ArithmeticError, match="inexact division in the power recurrence"):
            _power_coefficients([(1, Fraction(1, 2), Fraction(1, 2))], 1, 1, 1)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
small_heads = small_fractions.filter(bool)


@st.composite
def rational_reversible(draw):
    """f = x * N/D of order 1..40, with deg N and deg D in 0..3, fraction
    coefficients and nonzero heads, most of them not 1."""
    order = draw(st.integers(1, 40))
    numerator = [draw(small_heads)] + draw(st.lists(small_fractions, max_size=3))
    denominator = [draw(small_heads)] + draw(st.lists(small_fractions, max_size=3))
    return PowerSeries.from_rational([0, *numerator], denominator, order)


def binomial(e, k):
    """binom(e, k) for a Fraction e."""
    return Fraction(math.prod(e - i for i in range(k)), math.factorial(k))


class TestRationalRevert:
    """revert on a form P/Q of f/x: Berlekamp-Massey's when f/x is rational
    and shorter, else the sparser of f/x and x/f."""

    @settings(max_examples=25, deadline=None)
    @given(rational_reversible())
    def test_rational_inputs_against_lagrange_inversion(self, f):
        reverted = f.revert()
        assert list(reverted.coeffs) == revert_ref(list(f.coeffs))
        assert all_fractions(reverted)

    @pytest.mark.parametrize(
        "family, alpha, beta", [("B", 3, -4), ("B", -2, 5), ("C", 3, 0), ("C", -7, 0)]
    )
    def test_family_base_at_order_150(self, family, alpha, beta):
        # B: x(1 - a x)/(1 - b x), C: x(1 - a x); TestMillerRevert has A
        denominator = [1, -beta] if family == "B" else [1]
        f = PowerSeries.from_rational([0, 1, -alpha], denominator, 150)
        assert int_coeffs(f.revert()) == [
            family_reversion_term_ref(family, alpha, beta, m) for m in range(151)
        ]

    def test_berlekamp_massey_finds_the_family_b_form(self):
        # f/x = (1 - 3x)/(1 + 4x): length 2, and P/Q has two terms
        b = PowerSeries.from_rational([1, -3], [1, 4], 50).integer_coefficients()
        assert _berlekamp_massey(b, 4) == ([1, 4], 2)
        assert _rational_form(b, 4) == ([1, -3], [1, 4])
        assert len(_ratio_terms([1, -3], [1, 4], 49)) == 2
        # 2L - 1 = 3 reaches a limit of 3: the search gives up
        assert _berlekamp_massey(b, 3) is None

    def test_berlekamp_massey_keeps_the_coefficients_primitive(self):
        # the sequence 6 * (2/3)^k scaled to integers: Q = 3 - 2x, not 6 - 4x
        b = [6 * 2**k * 3 ** (20 - k) for k in range(21)]
        assert _rational_form(b, 20) == ([3 * 6 * 3**20], [3, -2])

    @pytest.mark.parametrize("a, c", [(3, -5), (-7, 2)])
    @pytest.mark.parametrize("e", [-9, -1, pytest.param(Fraction(1, 2), id="1/2"), 9])
    def test_power_coefficient_of_a_ratio_of_binomials(self, a, c, e):
        # P = 4 + a x and Q = 4 + c x: Z_k = 16^k [x^k] (1 + a x/4)^e (1 + c x/4)^(-e)
        # = sum_i binom(e, i) a^i binom(-e, k-i) c^(k-i) 4^k
        e = Fraction(e)
        k = 15
        zs = _power_coefficients(_ratio_terms([4, a], [4, c], k), e.numerator, e.denominator, k)
        assert zs == [
            4**j
            * sum(binomial(e, i) * a**i * binomial(-e, j - i) * c ** (j - i) for i in range(j + 1))
            for j in range(k + 1)
        ]

    def test_sqrt_input_abandons_the_rational_form(self, monkeypatch):
        # f = (3/2) x sqrt(1 - 4x/5) is not rational, so Berlekamp-Massey gives up
        root = expand_gf("sqrt(1-4/5*x)", 30)
        f = PowerSeries((Fraction(0), *(Fraction(3, 2) * c for c in root.coeffs[:-1])))
        forms = []

        def spy(s, limit):
            forms.append(_rational_form(s, limit))
            return forms[-1]

        monkeypatch.setattr(series, "_rational_form", spy)
        assert list(f.revert().coeffs) == revert_ref(list(f.coeffs))
        assert forms == [None]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda q, length: ([q[0], q[1] + 1, *q[2:]], length),
            # x * Q times B is x * P, a polynomial, but Q_0 = 0
            lambda q, length: ([0, *q], length + 1),
        ],
        ids=["tail", "head"],
    )
    def test_a_corrupted_form_raises(self, monkeypatch, corrupt):
        def corrupted(s, limit):
            return corrupt(*_berlekamp_massey(s, limit))

        monkeypatch.setattr(series, "_berlekamp_massey", corrupted)
        f = PowerSeries.from_rational([0, 1, -3], [1, 4], 30)
        with pytest.raises(ArithmeticError, match="Berlekamp-Massey form does not match"):
            f.revert()


non_unit_heads = small_heads.filter(lambda h: h != 1)


@st.composite
def quadratic_reversible(draw):
    """f = x * N/D of order 1..60 with deg N <= 1 and deg D <= 2, fraction
    coefficients and heads that are not 1, in one of the three shapes of
    the radical's a = A_2 - C_2 x: A_2 != 0 (N_1 != 0), A_2 = 0 with
    C_2 != 0 (D_2 != 0), and a = 0 (deg D <= 1)."""
    order = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["A2", "C2", "zero"]))
    numerator = [draw(non_unit_heads)]
    denominator = [draw(non_unit_heads), draw(small_fractions)]
    if shape == "A2":
        numerator.append(draw(small_heads))
        denominator.append(draw(small_fractions))
    elif shape == "C2":
        denominator.append(draw(small_heads))
    return PowerSeries.from_rational([0, *numerator], denominator, order)


class TestRadicalRevert:
    """revert on the quadratic class, deg(x P) <= 2 and deg Q <= 2, by the
    square root of a polynomial of degree 2."""

    @settings(max_examples=30, deadline=None)
    @given(quadratic_reversible())
    def test_quadratic_inputs_against_lagrange_inversion(self, f):
        reverted = f.revert()
        assert list(reverted.coeffs) == revert_ref(list(f.coeffs))
        assert all_fractions(reverted)

    @pytest.mark.parametrize(
        "numerator, denominator, a, c",
        [
            # x(2 - 3x)/(5 + x): A_2 = -3
            ([0, 2, -3], [5, 1], [0, 2, -3], [5, 1]),
            # x - 3x^2: the form is f/x, padded with zeros to the order
            ([0, 1, -3], [1], [0, 1, -3], [1]),
            # (3/2) x/(1 + 3x - 5x^2): A_2 = 0, C_2 = -10
            ([0, Fraction(3, 2)], [1, 3, -5], [0, 3], [2, 6, -10]),
            # (2/7) x/(1 + 4x): a = 0
            ([0, Fraction(2, 7)], [1, 4], [0, 2], [7, 28]),
        ],
        ids=["A2", "A2-polynomial", "C2", "zero"],
    )
    def test_each_shape_takes_the_radical(self, monkeypatch, numerator, denominator, a, c):
        f = PowerSeries.from_rational(numerator, denominator, 40)
        radical_revert = series._radical_revert
        calls = []

        def spy(a, c, n):
            calls.append((a, c, n))
            return radical_revert(a, c, n)

        monkeypatch.setattr(series, "_radical_revert", spy)
        assert list(f.revert().coeffs) == revert_ref(list(f.coeffs))
        assert calls == [(a, c, 40)]

    @pytest.mark.parametrize(
        "family, alpha, beta",
        [("A", 3, -5), ("A", -2, 7), ("A", 4, 0), ("B", 3, -4), ("B", -2, 5), ("C", -7, 0)],
    )
    def test_family_base_at_order_800(self, family, alpha, beta):
        params = FamilyParams(alpha, beta, family)
        reverted = int_coeffs(family_base_ogf(params, 800).revert())
        assert reverted == family_reversion_terms(params, 801)
        # the binomial sums take seconds per family at every index up to
        # 800, so they are checked at every tenth index and the last ten
        for m in [*range(0, 790, 10), *range(790, 801)]:
            assert reverted[m] == family_reversion_term_ref(family, alpha, beta, m)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda u: PowerSeries(tuple(-c for c in u.coeffs)),
            lambda u: PowerSeries((u[0] + 1, *u.coeffs[1:])),
        ],
        ids=["sign", "constant"],
    )
    def test_a_wrong_root_raises(self, monkeypatch, corrupt):
        radical_revert = series._radical_revert
        monkeypatch.setattr(series, "_radical_revert", lambda *args: corrupt(radical_revert(*args)))
        f = PowerSeries.from_rational([0, 1, -3], [1, 4], 30)
        with pytest.raises(ArithmeticError, match="the radical's root is not the reversion"):
            f.revert()

    def test_rational_form_outside_the_class_needs_no_division(self, monkeypatch):
        # x/f = 1 + x + 2x^2 + 3x^3 has degree 3: Lagrange inversion on the
        # Berlekamp-Massey form, with x/f never formed by a division
        f = PowerSeries.from_rational([0, 1], [1, 1, 2, 3], 60)
        expected = revert_ref(list(f.coeffs))

        def refuse(*args):
            raise AssertionError("revert divided")

        monkeypatch.setattr(series, "_quotient", refuse)
        monkeypatch.setattr(series, "_radical_revert", refuse)
        assert list(f.revert().coeffs) == expected


class TestSerialization:
    def test_coefficient_string(self):
        assert coefficient_string(Fraction(3, 2)) == "3/2"
        assert coefficient_string(Fraction(5)) == "5"
        assert coefficient_string(Fraction(-1, 3)) == "-1/3"

    @pytest.mark.parametrize("digits", [1, 4299, 4300, 4301, 9000, 25001])
    def test_coefficient_string_past_the_digit_limit(self, digits):
        value = 7 * 10 ** (digits - 1) + 123456789
        text = "7" + "0" * (digits - 10) + "123456789" if digits > 9 else str(value)
        assert coefficient_string(Fraction(value)) == text
        assert coefficient_string(Fraction(-value)) == "-" + text
        assert coefficient_string(Fraction(-1, value)) == "-1/" + text

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit"
    )
    def test_coefficient_string_keeps_a_lowered_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert coefficient_string(Fraction(-(10**2000))) == "-1" + "0" * 2000
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit"
    )
    @pytest.mark.parametrize("limit", [640, "default"])
    def test_decimal_at_the_lowest_digit_limit(self, limit):
        # every piece that reaches str must fit under the lowest limit
        # CPython accepts, also next to each split point 10^(300 * 2^j)
        if limit == "default":
            limit = sys.int_info.default_max_str_digits
        rng = random.Random(2021)
        digits = [603, 604, 640, 641, 1300] + rng.sample(range(605, 1300), 6) + [25000, 25123]
        values = [rng.randrange(10 ** (d - 1), 10**d) for d in digits]
        values += [10 ** (300 << j) + c for j in range(5) for c in (-1, 0, 1)]
        values += [-v for v in values]
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(v) for v in values]
            sys.set_int_max_str_digits(limit)
            texts = [series._decimal(v) for v in values]
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(before)
        assert texts == expected
