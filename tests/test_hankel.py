"""Exact determinants, Hankel transforms, and sequence transforms."""

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelrev import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    HankelTriple,
    binomial_transform,
    det_exact,
    family_base_terms,
    family_reversion_terms,
    hankel_transform,
    hankel_triple,
    inverse_binomial_transform,
)
from hankelrev import hankel
from oracles import (
    binomial_ogf_horner_ref,
    binomial_transform_ref,
    continuants,
    det_cofactor,
    det_gauss,
    h_fractions,
    hankel_matrix_ref,
    inverse_binomial_transform_ref,
    stieltjes_moments,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
CENTRAL_60 = [math.comb(2 * k, k) for k in range(60)]
CATALAN_61 = [math.comb(2 * k, k) // (k + 1) for k in range(61)]


def square_matrices(max_dim=5, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


class TestDeterminant:
    def test_small_cases(self):
        assert det_exact([[7]]) == 7
        assert det_exact([[2, 3], [4, 5]]) == -2
        assert det_exact([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0
        assert det_exact([[0, 0], [1, 5]]) == 0

    def test_zero_pivot_needs_row_swap(self):
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 1, 2], [1, 0, 3], [4, 5, 0]]) == 22
        assert det_cofactor([[0, 1, 2], [1, 0, 3], [4, 5, 0]]) == 22

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError, match="square"):
            det_exact([[1, 2], [3]])
        with pytest.raises(ValueError, match="square"):
            det_exact([])

    @given(square_matrices())
    def test_agrees_with_both_oracles(self, m):
        expected = det_cofactor(m)
        assert det_exact(m) == expected
        assert det_gauss(m) == expected

    @given(square_matrices(max_dim=4), st.randoms(use_true_random=False))
    def test_row_swap_flips_sign(self, m, rng):
        if len(m) < 2:
            return
        i, j = rng.sample(range(len(m)), 2)
        swapped = [row[:] for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_exact(swapped) == -det_exact(m)

    @given(square_matrices(), st.data())
    def test_row_and_column_content(self, m, data):
        # diag(r) * M * diag(c): the content step divides most of r and c
        # back out before Bareiss runs
        factors = st.lists(
            st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)).filter(bool),
            min_size=len(m),
            max_size=len(m),
        )
        r, c = data.draw(factors), data.draw(factors)
        scaled = [[r[i] * x * c[j] for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert det_exact(scaled) == det_gauss(scaled)

    def test_zero_row(self):
        assert det_exact([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0

    def test_zero_column_after_the_rows_are_divided(self):
        # every row is nonzero, with contents 6, 10 and 15, so only the
        # column pass finds the zero column
        assert det_exact([[0, 6, 12], [0, 10, -20], [0, 15, 45]]) == 0

    def test_negative_1x1(self):
        assert det_exact([[-6]]) == -6
        assert det_exact([[-1]]) == -1
        assert det_exact([[-(10**50)]]) == -(10**50)

    def test_content_one_divides_nothing(self):
        # every row and column gcd is 1; the second needs a row swap
        assert det_exact([[2, 3], [3, 5]]) == 1
        assert det_exact([[0, 2, 3], [3, 5, 1], [2, 0, 5]]) == -56

    def test_content_with_row_swap(self):
        # rows [0, 4] and [6, 0] reduce to a permutation matrix
        assert det_exact([[0, 4], [6, 0]]) == -24

    def test_large_hankel_stays_exact(self):
        terms = [math.comb(2 * n, n) for n in range(17)]
        assert det_exact(hankel_matrix_ref(terms, 8)) == 2 ** 8
        # factorial entries grow fast enough that any float shortcut would break
        facts = [math.factorial(n) for n in range(11)]
        assert det_exact(hankel_matrix_ref(facts, 5)) == 1194393600


class TestHankelTransform:
    def test_catalan_gives_all_ones(self):
        assert hankel_transform(CATALAN, 6) == [1] * 7

    def test_leading_value_is_first_term(self):
        assert hankel_transform([9, 1, 1], 0) == [9]

    def test_insufficient_terms(self):
        with pytest.raises(
            ValueError,
            match=r"hankel transform of depth 3 needs at least 7 terms, got 5",
        ):
            hankel_transform([1, 2, 3, 4, 5], 3)

    @given(st.lists(st.integers(-9, 9), min_size=13, max_size=13))
    def test_invariant_under_binomial_transform(self, terms):
        assert hankel_transform(terms, 6) == hankel_transform(
            binomial_transform(terms), 6
        )


def per_index(terms, depth):
    """The transform the slow way: one det_exact per index."""
    return [det_exact(hankel_matrix_ref(terms, n)) for n in range(depth + 1)]


def count_calls(monkeypatch, name):
    """Record the first argument's length at each call of hankel.<name>."""
    calls = []
    real = getattr(hankel, name)
    monkeypatch.setattr(
        hankel, name, lambda m, *rest, **kw: calls.append(len(m)) or real(m, *rest, **kw)
    )
    return calls


def no_det_exact(matrix):
    raise AssertionError("det_exact is not on the transform path")


def oracle_transform(terms, depth):
    return [det_gauss(hankel_matrix_ref(terms, n)) for n in range(depth + 1)]


def assert_transforms_agree(terms, depth):
    """hankel_transform and every arm of hankel_triple against both oracles,
    with hankel.det_exact made to raise."""
    expected = [per_index(terms[shift:], depth) for shift in range(3)]
    for shift, values in enumerate(expected):
        assert values == oracle_transform(terms[shift:], depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hankel, "det_exact", no_det_exact)
        triple = hankel_triple(terms, depth)
        assert [list(triple.h), list(triple.h_star), list(triple.h_star_star)] == expected
        assert [hankel_transform(terms[shift:], depth) for shift in range(3)] == expected


class TestOnePassDifferential:
    """The look-ahead run (every leading minor from one run) against
    per-index Bareiss and the Fraction oracle."""

    @given(st.lists(st.integers(-20, 20), min_size=3, max_size=17))
    def test_random_sequences(self, terms):
        assert_transforms_agree(terms, (len(terms) - 3) // 2)

    @given(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=3, max_size=15))
    def test_zero_heavy_sequences(self, terms):
        assert_transforms_agree(terms, (len(terms) - 3) // 2)

    @given(h_fractions())
    def test_h_fraction_blocks(self, case):
        # blocks of zero minors of any size, deep in the sequence: Han's
        # closed form gives each minor, and det_exact agrees with it
        terms, minors = case
        depth = len(minors) - 1
        assert per_index(terms, depth) == minors
        assert_transforms_agree(terms, depth)

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.integers(3, 15),
    )
    def test_periodic_sequences(self, block, length):
        terms = (block * length)[:length]
        assert_transforms_agree(terms, (length - 3) // 2)

    @given(st.integers(1, 4), st.lists(st.integers(-9, 9), min_size=3, max_size=13))
    def test_zero_prefixed_sequences(self, zeros, tail):
        terms = [0] * zeros + tail
        assert_transforms_agree(terms, (len(terms) - 3) // 2)

    def test_nonzero_head_with_a_later_zero_pivot(self):
        # H_1 of 1, 1, 1, ... is singular, and so is every later matrix
        ones = [1] * 15
        assert hankel_transform(ones, 6) == [1] + [0] * 6
        assert_transforms_agree(ones, 6)
        # the Catalan numbers with one entry changed: pivots 1, 1, 0, ...
        bent = CATALAN[:4] + [CATALAN[4] - 1] + CATALAN[5:]
        assert hankel_transform(bent, 5)[2] == 0
        assert_transforms_agree(bent, 5)

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    def test_depth_zero(self, terms):
        assert_transforms_agree(terms, 0)
        assert hankel_transform(terms, 0) == [terms[0]]

    def test_one_pass_needs_no_determinants(self, monkeypatch):
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        assert hankel_transform(CATALAN, 6) == [1] * 7
        # a zero pivot at index 1 starts a block of zero minors to the end
        assert hankel_transform([1] * 13, 6) == [1] + [0] * 6
        assert runs == [13, 13]

    @pytest.mark.parametrize(
        "name, terms",
        [
            ("family A", family_reversion_terms(FamilyParams(-3, -5, FAMILY_A), 61)),
            ("family B", family_reversion_terms(FamilyParams(2, -3, FAMILY_B), 61)),
            ("family C", family_reversion_terms(FamilyParams(3, 0, FAMILY_C), 61)),
            ("zero-prefixed central binomial", [0] + CENTRAL_60),
            ("zero-prefixed Catalan", [0] + CATALAN_61[:60]),
            ("head-zeroed Catalan", [0] + CATALAN_61[1:]),
        ],
    )
    def test_zero_head_needs_no_determinants(self, monkeypatch, name, terms):
        depth = 30
        assert terms[0] == 0 and len(terms) == 2 * depth + 1
        expected = per_index(terms, depth)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        assert hankel_transform(terms, depth) == expected
        # h rides on the run of terms[1 : 2 * depth + 1], which reaches depth - 1
        assert runs == [2 * depth]

    def test_nested_zero_heads_fall_back_to_one_run(self, monkeypatch):
        alternating = [k % 2 for k in range(13)]
        expected = per_index(alternating, 6)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        # every shift by two is zero-headed again: the run of terms[1:]
        # leaves the integral step, so h does not ride, and one run of
        # terms skips each block
        assert hankel_transform([0] * 13, 6) == [0] * 7
        assert hankel_transform(alternating, 6) == expected
        assert runs == [12, 13, 12, 13]

    @pytest.mark.parametrize(
        "family, alpha, beta",
        [
            # with head 1, family C hits a zero pivot where alpha = n
            (FAMILY_C, 1, 0),
            (FAMILY_C, 2, 0),
            (FAMILY_C, 4, 0),
            (FAMILY_C, -3, 0),
            # alpha = beta: h* vanishes from index 1 on
            (FAMILY_B, 3, 3),
            (FAMILY_B, -2, -2),
            (FAMILY_B, 2, 5),
            # alpha = 0
            (FAMILY_A, 0, 1),
            (FAMILY_A, 0, -2),
            (FAMILY_A, -3, -5),
        ],
    )
    def test_named_family_points(self, family, alpha, beta):
        depth = 8
        terms = family_reversion_terms(FamilyParams(alpha, beta, family), 2 * depth + 3)
        assert terms[0] == 0
        assert_transforms_agree(terms, depth)

    @pytest.mark.parametrize("alpha", [1, 2, 4])
    def test_family_c_head_one_is_degenerate(self, monkeypatch, alpha):
        # with 1 in place of its zero head, family C has a zero minor where
        # alpha = n; h rides on the run on terms[1:], which has none
        depth = 8
        terms = family_reversion_terms(FamilyParams(alpha, 0, FAMILY_C), 2 * depth + 3)
        assert 0 in hankel_transform([1, *terms[1:]], depth)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        assert list(hankel_triple(terms, depth).h) == [
            0 if n == 0 else -n * alpha ** (n * n - 1) for n in range(depth + 1)
        ]
        assert len(runs) == 1

    def test_family_b_alpha_equals_beta(self):
        terms = family_reversion_terms(FamilyParams(3, 3, FAMILY_B), 15)
        assert list(hankel_triple(terms, 6).h_star) == [1] + [0] * 6

    @pytest.mark.parametrize(
        "family, alpha, beta, runs",
        [
            # h* = 1, 0, ...: the zero minor of u[1:] at index 1 stops the
            # riders, and u and u[2:] get runs of their own
            (FAMILY_B, 3, 3, 3),
            (FAMILY_B, -2, -2, 3),
            (FAMILY_A, 0, 1, 1),
            (FAMILY_A, 0, -2, 1),
            (FAMILY_C, 1, 0, 1),
            (FAMILY_C, 2, 0, 1),
            (FAMILY_C, 4, 0, 1),
        ],
    )
    def test_triple_run_counts(self, monkeypatch, family, alpha, beta, runs):
        depth = 8
        terms = family_reversion_terms(FamilyParams(alpha, beta, family), 2 * depth + 3)
        expected = [per_index(terms[shift:], depth) for shift in range(3)]
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        calls = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert [list(triple.h), list(triple.h_star), list(triple.h_star_star)] == expected
        assert len(calls) == runs

    @pytest.mark.parametrize(
        "terms",
        [
            # u[1:] has a zero minor at index 0, where u and u[2:] have none
            [1, 0] * 8 + [1],
            [1, 0, 2] * 6,
            [2, 0] + [v for k in range(3, 11) for v in (1, k)],
        ],
    )
    def test_triple_runs_u_and_u2_past_a_zero_minor_of_u1(self, monkeypatch, terms):
        depth = 7
        expected = [per_index(terms[shift:], depth) for shift in range(3)]
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert [list(triple.h), list(triple.h_star), list(triple.h_star_star)] == expected
        assert len(runs) == 3


class TestChebyshevRecurrence:
    """The run deep, on big entries, and its exactness checks."""

    @pytest.mark.parametrize("alpha, beta", [(-3, -5), (4, 7)])
    def test_family_a_h_star_to_depth_100(self, alpha, beta):
        depth = 100
        terms = family_reversion_terms(FamilyParams(alpha, beta, FAMILY_A), 2 * depth + 2)
        assert hankel_transform(terms[1:], depth) == [
            beta ** (n * (n + 1) // 2) for n in range(depth + 1)
        ]

    @given(st.lists(st.integers(-(2**100), 2**100), min_size=1, max_size=15))
    def test_big_entries_against_det_exact(self, terms):
        depth = (len(terms) - 1) // 2
        assert hankel_transform(terms, depth) == per_index(terms, depth)

    @pytest.mark.parametrize(
        "transform, terms, depth, message",
        [
            # the minor of a 1x1 block
            (hankel_transform, [4, 9, 3, 6, 8, 2, 1], 3, "inexact look-ahead division"),
            # a zero head: the run of terms[1:], on which h would ride,
            # takes the look-ahead step from its row 1 on
            (hankel_transform, [0, 7, 0, 1, 0, 4, 0], 3, "inexact look-ahead division"),
            # the minor after a block: H_2 of 0, 7, 0, 1, 0, 4, 0 is zero
            (hankel._leading_minors, [0, 7, 0, 1, 0, 4, 0], 3, "inexact look-ahead division"),
        ],
    )
    def test_inexact_division_raises(self, monkeypatch, transform, terms, depth, message):
        # a gcd that overstates the row content corrupts the rows, and each
        # checked division must notice (also under python -O)
        monkeypatch.setattr(
            hankel, "math", SimpleNamespace(gcd=lambda *args: math.gcd(*args) * 2)
        )
        with pytest.raises(ArithmeticError, match=message):
            transform(terms, depth)


BIG = st.one_of(st.integers(-(2**100), 2**100), st.just(0))


class TestRidingContinuants:
    """h and h** as the continuants that ride on the run on terms[1:]."""

    @given(st.lists(BIG, min_size=3, max_size=15))
    def test_triple_big_entries_against_det_exact(self, terms):
        depth = (len(terms) - 3) // 2
        triple = hankel_triple(terms, depth)
        for shift, arm in enumerate((triple.h, triple.h_star, triple.h_star_star)):
            assert list(arm) == per_index(terms[shift:], depth)

    @given(st.lists(BIG, min_size=0, max_size=14))
    def test_zero_headed_transform_big_entries_against_det_exact(self, tail):
        terms = [0, *tail]
        depth = (len(terms) - 1) // 2
        assert hankel_transform(terms, depth) == per_index(terms, depth)

    def test_family_c_closed_forms_to_depth_100(self, monkeypatch):
        depth, alpha = 100, 3
        terms = family_reversion_terms(FamilyParams(alpha, 0, FAMILY_C), 2 * depth + 3)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert runs == [2 * depth + 2]
        assert list(triple.h) == [
            -n * alpha ** (n * n - 1) if n else 0 for n in range(depth + 1)
        ]
        assert list(triple.h_star) == [alpha ** (n * (n + 1)) for n in range(depth + 1)]
        assert list(triple.h_star_star) == [alpha ** ((n + 1) ** 2) for n in range(depth + 1)]

    def test_family_a_h_star_star_to_depth_100(self, monkeypatch):
        depth, alpha, beta = 100, -3, -5
        params = FamilyParams(alpha, beta, FAMILY_A)
        terms = family_reversion_terms(params, 2 * depth + 3)
        a = family_base_terms(params, depth + 3)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert runs == [2 * depth + 2]
        assert list(triple.h_star_star) == [
            (-1) ** (n + 1) * a[n + 2] * beta ** math.comb(n + 1, 2) for n in range(depth + 1)
        ]



def count_gcds(monkeypatch):
    """Record the arguments of every math.gcd call that hankel makes."""
    calls = []
    monkeypatch.setattr(
        hankel, "math", SimpleNamespace(gcd=lambda *args: calls.append(args) or math.gcd(*args))
    )
    return calls


def assert_triple_equals_det_exact(triple, terms):
    for shift, arm in enumerate((triple.h, triple.h_star, triple.h_star_star)):
        assert list(arm) == per_index(terms[shift:], triple.depth)


PARAMETERS = st.integers(-(10**40), 10**40)
FAMILY_POINTS = st.one_of(
    st.builds(FamilyParams, PARAMETERS, PARAMETERS, st.sampled_from([FAMILY_A, FAMILY_B])),
    st.builds(FamilyParams, PARAMETERS.filter(bool), st.just(0), st.just(FAMILY_C)),
)


class TestIntegralStep:
    """Rows over denominator 1 whose J-fraction coefficients are integers
    take the step r[i+2] - a r[i+1] - b p[i+2] with no gcd at all."""

    @pytest.mark.parametrize(
        "params",
        [
            FamilyParams(-3, -5, FAMILY_A),
            FamilyParams(2, 5, FAMILY_B),
            FamilyParams(10, 0, FAMILY_C),
            FamilyParams(10**30 + 7, 0, FAMILY_C),
            FamilyParams(10**40 + 1, -(10**39) + 3, FAMILY_A),
        ],
        ids=["A(-3,-5)", "B(2,5)", "C(10)", "C(1e30+7)", "A(1e40+1,-1e39+3)"],
    )
    def test_family_runs_take_no_gcd(self, monkeypatch, params):
        depth = 10
        terms = family_reversion_terms(params, 2 * depth + 3)
        gcds = count_gcds(monkeypatch)
        triple = hankel_triple(terms, depth)
        assert gcds == []
        assert_triple_equals_det_exact(triple, terms)

    def test_switch_to_the_look_ahead_step_mid_run(self, monkeypatch):
        # the last four terms make the last rows' coefficients fractions:
        # the riders stop there, and u and u[2:] get runs of their own
        depth = 10
        terms = family_reversion_terms(FamilyParams(-3, -5, FAMILY_A), 2 * depth + 3)
        terms[-4:] = [t + 1 for t in terms[-4:]]
        runs = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert len(runs) == 3
        assert_triple_equals_det_exact(triple, terms)

    @given(FAMILY_POINTS, st.integers(0, 6))
    def test_family_points_against_det_exact(self, params, depth):
        terms = family_reversion_terms(params, 2 * depth + 3)
        assert_triple_equals_det_exact(hankel_triple(terms, depth), terms)
        assert hankel_transform(terms[1:], depth) == per_index(terms[1:], depth)


@st.composite
def j_fraction_runs(draw, variant):
    """(terms, a, b): terms = [u_0, m_0, ..., m_{2d+1}], with m the moments of
    the J-fraction of a_0..a_d and b_0..b_d (b_0 = m_0, see
    :func:`oracles.stieltjes_moments`), so the run of ``hankel_triple(terms, d)``
    on m meets a_k and b_k at row k.

    ``variant`` is "integral" (integer coefficients, every b_k nonzero), "fraction"
    (one a_k or b_k, k >= 1, a fraction; m scaled to integers, which leaves
    a_k and b_k alone), "zero b" (one b_k = 0, k >= 1: the minors of m are
    zero from index k on) or "zero head" (u_0 = 0).
    """
    depth = draw(st.integers(0 if variant in ("integral", "zero head") else 1, 7))
    a = draw(st.lists(st.integers(-4, 4), min_size=depth + 1, max_size=depth + 1))
    b = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=depth + 1, max_size=depth + 1))
    k = draw(st.integers(1, depth)) if depth else 0
    if variant == "fraction":
        q = draw(st.sampled_from([2, 3]))
        value = Fraction(draw(st.integers(1, q - 1)) + q * draw(st.integers(-3, 3)), q)
        (a if draw(st.booleans()) else b)[k] = value
    elif variant == "zero b":
        b[k] = 0
    moments = stieltjes_moments(a, b, 2 * depth + 2)
    scale = math.lcm(*(Fraction(m).denominator for m in moments))
    head = 0 if variant == "zero head" else draw(st.integers(-9, 9))
    return [head, *(int(m * scale) for m in moments)], a, b


class TestQuotientStep:
    """Runs on the moments of random J-fractions: the integral step carries
    the ratios h_{n+1} / h*_n and h**_n / h*_n, which are continuants of the
    J-fraction's coefficients, and a run that meets a fraction, a zero minor
    or a zero head still gives every transform that det_exact gives."""

    @given(j_fraction_runs("integral"))
    def test_whole_integral_runs_carry_the_continuants(self, case):
        terms, a, b = case
        depth = len(a) - 1
        with pytest.MonkeyPatch.context() as patch:
            gcds = count_gcds(patch)
            triple = hankel_triple(terms, depth)
        assert gcds == []
        assert_triple_equals_det_exact(triple, terms)
        # h*_n = nu_0 ... nu_n with nu_k = b_0 ... b_k
        assert list(triple.h_star) == list(accumulate(accumulate(b, operator.mul), operator.mul))
        ratios_h = continuants(a, b, (1, terms[0]))
        ratios_hss = continuants(a, b, (0, 1))
        for n in range(depth + 1):
            if n < depth:
                assert divmod(triple.h[n + 1], triple.h_star[n]) == (ratios_h[n + 2], 0)
            assert divmod(triple.h_star_star[n], triple.h_star[n]) == (ratios_hss[n + 2], 0)

    @pytest.mark.parametrize("variant", ["integral", "fraction", "zero b", "zero head"])
    @given(data=st.data())
    def test_variants_against_det_exact(self, variant, data):
        terms, a, b = data.draw(j_fraction_runs(variant))
        depth = len(a) - 1
        assert_transforms_agree(terms, depth)
        if variant == "fraction":
            # the run on m meets the fraction at row k <= depth and leaves
            # the integral step there, so the riders stop short
            with pytest.MonkeyPatch.context() as patch:
                runs = count_calls(patch, "_leading_minors")
                triple = hankel_triple(terms, depth)
            assert len(runs) == 3
            assert_triple_equals_det_exact(triple, terms)


class TestZeroHeadRoute:
    """A zero-headed transform is the continuant h that rides on the run of
    terms[1:], or, where that run leaves the integral step, the run of terms
    itself: either way, exactly the minors of the run of terms."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 7, 20])
    def test_family_reversions(self, depth):
        # alpha = beta in family B falls back: h* of terms[1:] is 1, 0, ...
        for family in (FAMILY_A, FAMILY_B, FAMILY_C):
            for alpha in range(-4, 5):
                for beta in range(-4, 5) if family != FAMILY_C else [0]:
                    params = FamilyParams(alpha, beta, family)
                    terms = family_reversion_terms(params, 2 * depth + 1)
                    assert terms[0] == 0
                    assert hankel_transform(terms, depth) == hankel._leading_minors(terms, depth)

    @pytest.mark.parametrize("variant, runs", [("zero head", 1), ("fraction", 2), ("zero b", 2)])
    @given(data=st.data())
    def test_j_fraction_moments_ride_or_fall_back(self, variant, runs, data):
        terms, a, _ = data.draw(j_fraction_runs(variant))
        terms[0] = 0
        depth = len(a)  # the run of terms[1:] meets every a_k and b_k
        expected = hankel._leading_minors(terms, depth)
        assert expected == per_index(terms, depth)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, "_leading_minors")
            assert hankel_transform(terms, depth) == expected
        assert len(calls) == runs

    def test_a_run_that_only_rides_stops_where_the_riders_do(self):
        # 1, 0, 1, 0, ... has b_0 = b_1 = 1 and b_2 = 0: a zero head at row 2
        h = [1, 0]
        assert hankel._leading_minors([1, 0] * 10, 9, h, ride_only=True) == [1, 1]
        assert h == [1, 0, -1, 0]
        assert hankel._leading_minors([1, 0] * 10, 9) == [1, 1] + [0] * 8

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=24))
    def test_random_tails(self, tail):
        terms = [0, *tail]
        depth = (len(terms) - 1) // 2
        assert hankel_transform(terms, depth) == hankel._leading_minors(terms, depth)


class TestHugeParameters:
    """Closed forms at |alpha|, |beta| around 10^30 and 10^100, where the
    minors have thousands of bits."""

    @pytest.mark.parametrize("alpha", [10**100 + 1, -(10**100) + 7], ids=["1e100+1", "-1e100+7"])
    def test_family_c_to_depth_24(self, monkeypatch, alpha):
        depth = 24
        terms = family_reversion_terms(FamilyParams(alpha, 0, FAMILY_C), 2 * depth + 3)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        runs = count_calls(monkeypatch, "_leading_minors")
        triple = hankel_triple(terms, depth)
        assert runs == [2 * depth + 2]
        assert list(triple.h) == [
            -n * alpha ** (n * n - 1) if n else 0 for n in range(depth + 1)
        ]
        assert list(triple.h_star) == [alpha ** (n * (n + 1)) for n in range(depth + 1)]
        assert list(triple.h_star_star) == [alpha ** ((n + 1) ** 2) for n in range(depth + 1)]

    @pytest.mark.parametrize(
        "alpha, beta",
        [(10**30 + 7, -(10**30) + 3), (-(10**30) - 1, 10**30 + 9)],
        ids=["1e30+7,-1e30+3", "-1e30-1,1e30+9"],
    )
    def test_family_a_conjecture_4_forms(self, monkeypatch, alpha, beta):
        depth = 16
        params = FamilyParams(alpha, beta, FAMILY_A)
        terms = family_reversion_terms(params, 2 * depth + 3)
        a = family_base_terms(params, depth + 3)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        triple = hankel_triple(terms, depth)
        h_star = [beta ** math.comb(n + 1, 2) for n in range(depth + 1)]
        assert list(triple.h_star) == h_star
        assert list(triple.h) == [0] + [
            (-1) ** (n + 1) * a[n + 1] * h_star[n] for n in range(depth)
        ]
        assert list(triple.h_star_star) == [
            (-1) ** (n + 1) * a[n + 2] * h_star[n] for n in range(depth + 1)
        ]
        assert hankel_transform(terms[1:], depth) == h_star

    @pytest.mark.parametrize(
        "alpha, beta",
        [(10**30 + 7, -(10**30) - 11), (-(10**30) + 1, 3 * 10**29 + 2)],
        ids=["1e30+7,-1e30-11", "-1e30+1,3e29+2"],
    )
    def test_family_b_conjecture_6_forms(self, monkeypatch, alpha, beta):
        depth = 16
        terms = family_reversion_terms(FamilyParams(alpha, beta, FAMILY_B), 2 * depth + 3)
        monkeypatch.setattr(hankel, "det_exact", no_det_exact)
        triple = hankel_triple(terms, depth)
        gap = alpha - beta
        h_star = [(alpha * gap) ** math.comb(n + 1, 2) for n in range(depth + 1)]
        assert list(triple.h_star) == h_star
        assert triple.h[0] == 0
        assert [beta * triple.h[n + 1] for n in range(depth)] == [
            (gap ** (n + 1) - alpha ** (n + 1)) * h_star[n] for n in range(depth)
        ]
        assert list(triple.h_star_star) == [gap ** (n + 1) * h_star[n] for n in range(depth + 1)]
        assert hankel_transform(terms[1:], depth) == h_star

    @given(
        st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=17),
        st.integers(-(10**12), 10**12),
    )
    def test_scaled_moments(self, terms, c):
        # H_n of c^k s_k is D H_n(s) D with D = diag(1, c, ..., c^n); the
        # shifted arms carry c or c^2 in every entry besides
        scaled = [c**k * s for k, s in enumerate(terms)]
        depth = (len(terms) - 1) // 2
        assert hankel_transform(scaled, depth) == [
            c ** (n * (n + 1)) * v for n, v in enumerate(hankel_transform(terms, depth))
        ]
        depth = (len(terms) - 3) // 2
        triple, plain = hankel_triple(scaled, depth), hankel_triple(terms, depth)
        for shift, (arm, base) in enumerate(zip(
            (triple.h, triple.h_star, triple.h_star_star),
            (plain.h, plain.h_star, plain.h_star_star),
        )):
            assert list(arm) == [
                c ** (n * (n + 1) + shift * (n + 1)) * v for n, v in enumerate(base)
            ]


class TestBinomialTransform:
    def test_all_ones_gives_powers_of_two(self):
        assert binomial_transform([1] * 6) == [1, 2, 4, 8, 16, 32]

    def test_inverse_known_case(self):
        assert inverse_binomial_transform([1, 2, 4, 8, 16, 32]) == [1] * 6

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
    def test_roundtrip(self, terms):
        assert inverse_binomial_transform(binomial_transform(terms)) == terms
        assert binomial_transform(inverse_binomial_transform(terms)) == terms

    @given(st.lists(st.integers(-(10**30), 10**30), max_size=14))
    def test_pascal_rows_equal_the_defining_sums(self, terms):
        assert binomial_transform(terms) == binomial_transform_ref(terms)
        assert inverse_binomial_transform(terms) == inverse_binomial_transform_ref(terms)

    def test_known_transform(self):
        assert binomial_transform([0, 1, 2, 3, 4]) == [0, 1, 4, 12, 32]

    @given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=13))
    def test_matches_the_ogf_horner_composition(self, terms):
        # (1/(1-x)) * f(x/(1-x)), the o.g.f. that the alpha_shift claim names
        assert binomial_transform(terms) == binomial_ogf_horner_ref(terms)

    def test_rejects_non_integer_terms(self):
        for transform in (binomial_transform, inverse_binomial_transform):
            with pytest.raises(TypeError):
                transform([1, 2.0])


class TestHankelTriple:
    REVERSION = [0, 1, -3, 4, 18, -139, 357, 779, -10797, 39251, 24327, -981426, 4666428]

    def test_worked_example(self):
        t = hankel_triple(self.REVERSION, 5)
        assert list(t.h) == [0, -1, -15, 1750, 890625, -2353515625]
        assert list(t.h_star) == [1, -5, -125, 15625, 9765625, -30517578125]
        assert list(t.h_star_star) == [
            -3, -70, 7125, 3765625, -9843750000, -129058837890625,
        ]

    def test_matches_shifted_transforms(self):
        t = hankel_triple(self.REVERSION, 4)
        assert list(t.h) == hankel_transform(self.REVERSION, 4)
        assert list(t.h_star) == hankel_transform(self.REVERSION[1:], 4)
        assert list(t.h_star_star) == hankel_transform(self.REVERSION[2:], 4)

    def test_rows(self):
        t = hankel_triple([0, 1, 1, 2, 5, 14, 42, 132, 429], 3)
        assert t.rows() == [(0, 0, 1, 1), (1, -1, 1, 1), (2, -2, 1, 1), (3, -3, 1, 1)]

    def test_insufficient_terms(self):
        with pytest.raises(
            ValueError, match=r"hankel triple of depth 3 needs at least 9 terms, got 8"
        ):
            hankel_triple([1] * 8, 3)

    def test_row_length_validation(self):
        with pytest.raises(ValueError, match="depth \\+ 1 entries"):
            HankelTriple(h=(1,), h_star=(1, 2), h_star_star=(1,), depth=0)
