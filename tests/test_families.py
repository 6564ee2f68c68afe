"""The integer term generators of the three parametric families.

``family_base_terms`` and ``family_reversion_terms`` are checked against
independent routes: the closed forms in ``tests/oracles.py`` (binomial
sums and radical o.g.f.s, with their own square root), the expansion of
the base o.g.f. as a rational series, and generic series reversion.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelrev import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    catalan,
    families,
    family_base_ogf,
    family_base_terms,
    family_reversion_terms,
)
from oracles import (
    family_base_term_ref,
    family_reversion_radical_ref,
    family_reversion_term_ref,
)

params_a = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda t: FamilyParams(t[0], t[1], FAMILY_A)
)
params_b = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda t: FamilyParams(t[0], t[1], FAMILY_B)
)
params_c = st.integers(-5, 5).map(lambda a: FamilyParams(a, 0, FAMILY_C))


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    with pytest.raises(ValueError, match="non-negative"):
        catalan(-1)


class TestFamilyParams:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'D'"):
            FamilyParams(1, 2, "D")

    def test_integral_coercion(self):
        p = FamilyParams(True, False, FAMILY_A)
        assert p.alpha == 1 and p.beta == 0

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(TypeError):
            FamilyParams(1.5, 0, FAMILY_A)


class TestFamilyA:
    def test_base_terms(self):
        p = FamilyParams(-3, -5, FAMILY_A)
        assert family_base_terms(p, 9) == [0, 1, 3, 14, 57, 241, 1008, 4229, 17727]

    def test_reversion_terms(self):
        p = FamilyParams(-3, -5, FAMILY_A)
        assert family_reversion_terms(p, 9) == [0, 1, -3, 4, 18, -139, 357, 779, -10797]

    def test_aerated_catalan_at_zero_alpha(self):
        p = FamilyParams(0, 1, FAMILY_A)
        assert family_reversion_terms(p, 10) == [0, 1, 0, 1, 0, 2, 0, 5, 0, 14]

    @given(params_a)
    def test_terms_match_rational_expansion(self, p):
        expanded = family_base_ogf(p, 12).integer_coefficients()
        assert family_base_terms(p, 13) == expanded

    @given(params_a)
    def test_linear_recurrence(self, p):
        terms = family_base_terms(p, 10)
        for n in range(2, 10):
            assert terms[n] == -p.alpha * terms[n - 1] - p.beta * terms[n - 2]

    @given(params_a)
    def test_reversion_matches_lagrange_inversion(self, p):
        expected = family_base_ogf(p, 10).revert().integer_coefficients()
        assert family_reversion_terms(p, 11) == expected

    @given(params_a.filter(lambda p: p.beta != 0))
    def test_reversion_ogf_matches_terms(self, p):
        radical = family_reversion_radical_ref(FAMILY_A, p.alpha, p.beta, 11)
        assert radical == family_reversion_terms(p, 11)


class TestFamilyB:
    def test_base_terms(self):
        p = FamilyParams(2, 1, FAMILY_B)
        assert family_base_terms(p, 6) == [0, 1, -1, -1, -1, -1]

    def test_reversion_terms(self):
        p = FamilyParams(2, 1, FAMILY_B)
        assert family_reversion_terms(p, 10) == [0, 1, 1, 3, 11, 45, 197, 903, 4279, 20793]

    def test_base_terms_defer_beta_zero_to_family_c(self):
        # at beta = 0 the B row is x(1 - alpha*x), the C base
        b = family_base_terms(FamilyParams(2, 0, FAMILY_B), 6)
        assert b == family_base_terms(FamilyParams(2, 0, FAMILY_C), 6) == [0, 1, -2, 0, 0, 0]
        assert b == family_base_ogf(FamilyParams(2, 0, FAMILY_B), 5).integer_coefficients()

    @given(params_b)
    def test_terms_match_rational_expansion(self, p):
        expanded = family_base_ogf(p, 12).integer_coefficients()
        assert family_base_terms(p, 13) == expanded

    @given(params_b)
    def test_reversion_matches_lagrange_inversion(self, p):
        expected = family_base_ogf(p, 10).revert().integer_coefficients()
        assert family_reversion_terms(p, 11) == expected

    @given(params_b.filter(lambda p: p.alpha != 0))
    def test_reversion_ogf_matches_terms(self, p):
        radical = family_reversion_radical_ref(FAMILY_B, p.alpha, p.beta, 11)
        assert radical == family_reversion_terms(p, 11)


class TestFamilyC:
    def test_base_terms(self):
        p = FamilyParams(2, 0, FAMILY_C)
        assert family_base_terms(p, 5) == [0, 1, -2, 0, 0]

    def test_reversion_terms(self):
        p = FamilyParams(2, 0, FAMILY_C)
        assert family_reversion_terms(p, 6) == [0, 1, 2, 8, 40, 224]

    def test_reversion_at_zero_alpha_is_x(self):
        # the base is f = x, its own reversion
        assert family_reversion_terms(FamilyParams(0, 0, FAMILY_C), 6) == [0, 1, 0, 0, 0, 0]

    def test_base_at_zero_alpha_is_x(self):
        p = FamilyParams(0, 0, FAMILY_C)
        assert family_base_terms(p, 6) == [0, 1, 0, 0, 0, 0]
        assert family_base_ogf(p, 5).integer_coefficients() == [0, 1, 0, 0, 0, 0]

    @given(params_c)
    def test_reversion_matches_lagrange_inversion(self, p):
        expected = family_base_ogf(p, 10).revert().integer_coefficients()
        assert family_reversion_terms(p, 11) == expected

    @given(params_c.filter(lambda p: p.alpha != 0))
    def test_reversion_ogf_matches_terms(self, p):
        radical = family_reversion_radical_ref(FAMILY_C, p.alpha, p.beta, 11)
        assert radical == family_reversion_terms(p, 11)

    def test_reversion_ignores_beta(self):
        with_beta = family_reversion_terms(FamilyParams(3, 7, FAMILY_C), 12)
        assert with_beta == family_reversion_terms(FamilyParams(3, 0, FAMILY_C), 12)
        assert with_beta == [family_reversion_term_ref(FAMILY_C, 3, 0, n) for n in range(12)]


class TestCrossFamily:
    @given(st.integers(-5, 5).filter(lambda a: a != 0))
    def test_b_reversion_degenerates_to_c_at_beta_zero(self, alpha):
        b = FamilyParams(alpha, 0, FAMILY_B)
        c = FamilyParams(alpha, 0, FAMILY_C)
        assert family_reversion_terms(b, 10) == family_reversion_terms(c, 10)

    @given(st.integers(-4, 4).filter(lambda a: a != 0))
    def test_dispatch_matches_direct_ogfs(self, alpha):
        for family in (FAMILY_A, FAMILY_B, FAMILY_C):
            radical = family_reversion_radical_ref(family, alpha, 2, 9)
            assert family_reversion_terms(FamilyParams(alpha, 2, family), 9) == radical

    def test_inexact_step_raises(self, monkeypatch):
        bad_row = ((0, 1), (1, 0, 0), 1, 0, 0, (0, 1))
        monkeypatch.setattr(families, "_row", lambda params: bad_row)
        with pytest.raises(ArithmeticError, match="reversion term 2 is not an integer"):
            family_reversion_terms(FamilyParams(1, 1, FAMILY_A), 3)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be positive"):
            family_base_terms(FamilyParams(1, 1, FAMILY_A), 0)
        with pytest.raises(ValueError, match="count must be positive"):
            family_reversion_terms(FamilyParams(1, 1, FAMILY_A), 0)


# (family, alpha, beta) with the degenerate corners of each row: A at
# beta = 0 (x/(1 + alpha*x), outside the radical form) and alpha = 0, B at
# alpha = 0 (outside the radical form), beta = 0 and alpha = beta
SMALL_POINTS = [
    (FAMILY_A, -3, -5),
    (FAMILY_A, 2, 0),
    (FAMILY_A, 0, 1),
    (FAMILY_B, 0, 3),
    (FAMILY_B, 3, 0),
    (FAMILY_B, 3, 3),
    (FAMILY_B, 2, 5),
    (FAMILY_C, 3, 7),
]
HUGE = 10**120
HUGE_POINTS = [(FAMILY_A, HUGE, -7), (FAMILY_B, -HUGE, 3), (FAMILY_C, -HUGE, 0)]
POINTS = SMALL_POINTS + HUGE_POINTS
RADICAL_POINTS = [
    (f, a, b) for f, a, b in POINTS if not (f == FAMILY_A and b == 0 or f == FAMILY_B and a == 0)
]


def _point_id(point):
    family, alpha, beta = point
    alpha = {HUGE: "1e120", -HUGE: "-1e120"}.get(alpha, alpha)
    return f"{family}({alpha},{beta})"


class TestDifferential:
    """``family_reversion_terms`` at 201 terms against three references; the
    slow references run shorter at |alpha| = 10^120."""

    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_binomial_sums(self, point):
        family, alpha, beta = point
        count = 201 if abs(alpha) < HUGE else 81
        expected = [family_reversion_term_ref(family, alpha, beta, n) for n in range(count)]
        assert family_reversion_terms(FamilyParams(alpha, beta, family), count) == expected

    @pytest.mark.parametrize("point", RADICAL_POINTS, ids=_point_id)
    def test_radical_ogf(self, point):
        family, alpha, beta = point
        count = 201 if abs(alpha) < HUGE else 41
        expected = family_reversion_radical_ref(family, alpha, beta, count)
        assert family_reversion_terms(FamilyParams(alpha, beta, family), count) == expected

    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_generic_revert(self, point):
        family, alpha, beta = point
        count = 201 if abs(alpha) < HUGE else 23
        params = FamilyParams(alpha, beta, family)
        expected = family_base_ogf(params, count - 1).revert().integer_coefficients()
        assert family_reversion_terms(params, count) == expected

    @pytest.mark.parametrize("point", POINTS, ids=_point_id)
    def test_base_terms(self, point):
        family, alpha, beta = point
        count = 201 if abs(alpha) < HUGE else 81
        params = FamilyParams(alpha, beta, family)
        expected = [family_base_term_ref(family, alpha, beta, n) for n in range(count)]
        assert family_base_terms(params, count) == expected
        assert family_base_ogf(params, count - 1).integer_coefficients() == expected

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_short_counts_are_prefixes(self, count):
        for family, alpha, beta in SMALL_POINTS:
            params = FamilyParams(alpha, beta, family)
            assert family_reversion_terms(params, count) == family_reversion_terms(params, 8)[:count]
