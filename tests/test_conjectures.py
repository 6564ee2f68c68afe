"""Verifier reports, parameter sweeps, and the matrix factorization checks."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelrev import (
    CONJECTURES,
    FAMILY_A,
    FAMILY_C,
    SWEEPABLE,
    Check,
    ConjectureReport,
    FamilyParams,
    catalan,
    family_base_terms,
    family_reversion_terms,
    hankel_triple,
    prop9_T_matrix,
    prop9_verify,
    sweep,
    verify_alpha_shift,
    verify_anchors,
    verify_conjecture4,
    verify_conjecture6,
    verify_conjecture8,
)
from hankelrev import cli
from hankelrev.conjectures import (
    CLAIM_C4_H,
    CLAIM_C4_HSS,
    CLAIM_C4_HSTAR,
    CLAIM_C8_H,
    CLAIM_C8_HSTAR,
    CLAIM_P9_DET,
    CLAIM_P9_DET_T,
)
from oracles import (
    conjecture4_rhs_ref,
    conjecture6_rhs_ref,
    conjecture8_rhs_ref,
    prop9_coeff_identity_1,
    prop9_coeff_identity_2,
    prop9_rhs_ref,
    report_checks_ref,
    row_blocks,
)


def checks_for(report, claim):
    return [c for c in report.checks if c.claim == claim]


def sweep_json(result):
    """The JSON that ``hankelrev sweep`` prints for the result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._render_sweep(result, "json", False)
    return out.getvalue()


class TestConjecture4:
    def test_worked_example(self):
        report = verify_conjecture4(-3, -5, 5)
        assert report.all_pass
        assert len(report.checks) == 16
        assert [c.lhs for c in checks_for(report, CLAIM_C4_HSTAR)] == [
            1, -5, -125, 15625, 9765625, -30517578125,
        ]

    @pytest.mark.parametrize("alpha,beta", [(2, 3), (1, 1), (0, -2), (-4, 5)])
    def test_holds_on_sample_points(self, alpha, beta):
        assert verify_conjecture4(alpha, beta, 6).all_pass

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta must be nonzero"):
            verify_conjecture4(1, 0, 4)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            verify_conjecture4(1, 1, 0)

    def test_shifted_transform_ignores_alpha(self):
        lhs_a = [c.lhs for c in checks_for(verify_conjecture4(2, 3, 5), CLAIM_C4_HSTAR)]
        lhs_b = [c.lhs for c in checks_for(verify_conjecture4(9, 3, 5), CLAIM_C4_HSTAR)]
        assert lhs_a == lhs_b

    def test_report_values_recompute_from_raw_sequences(self):
        alpha, beta, depth = 2, 3, 6
        params = FamilyParams(alpha, beta, FAMILY_A)
        u = family_reversion_terms(params, 2 * depth + 3)
        a = family_base_terms(params, depth + 3)
        t = hankel_triple(u, depth)
        report = verify_conjecture4(alpha, beta, depth)
        for c in checks_for(report, CLAIM_C4_HSTAR):
            n = c.index
            assert c.lhs == t.h_star[n]
            assert c.rhs == beta ** math.comb(n + 1, 2)
        for c in checks_for(report, CLAIM_C4_H):
            n = c.index
            assert c.lhs == (-1) ** (n + 1) * t.h[n + 1]
            assert c.rhs == a[n + 1] * t.h_star[n]
        for c in checks_for(report, CLAIM_C4_HSS):
            n = c.index
            assert c.lhs == (-1) ** (n + 1) * t.h_star_star[n]
            assert c.rhs == a[n + 2] * t.h_star[n]


class TestConjecture6:
    @pytest.mark.parametrize("alpha,beta", [(2, 1), (3, -2), (-1, -1), (5, 5)])
    def test_holds_on_sample_points(self, alpha, beta):
        assert verify_conjecture6(alpha, beta, 6).all_pass

    def test_degenerate_diagonal_has_zero_transforms(self):
        # alpha == beta collapses the predicted values to 0^positive
        report = verify_conjecture6(1, 1, 4)
        assert report.all_pass
        star = checks_for(report, "h_star[n] == (alpha*(alpha-beta))^binom(n+1,2)")
        assert [c.lhs for c in star] == [1, 0, 0, 0, 0]

    def test_preconditions(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            verify_conjecture6(0, 1, 4)
        with pytest.raises(ValueError, match="beta must be nonzero"):
            verify_conjecture6(1, 0, 4)


class TestConjecture8:
    @pytest.mark.parametrize("alpha", [1, 2, -3, 5])
    def test_holds_on_sample_points(self, alpha):
        assert verify_conjecture8(alpha, 5).all_pass

    def test_frozen_shifted_values(self):
        report = verify_conjecture8(2, 3)
        assert [c.lhs for c in checks_for(report, CLAIM_C8_HSTAR)] == [1, 4, 64, 4096]

    def test_leading_direct_check_is_zero(self):
        # the -n factor annihilates the n = 0 monomial, so 0 == 0 there
        lead = checks_for(verify_conjecture8(3, 4), CLAIM_C8_H)[0]
        assert (lead.index, lead.lhs, lead.rhs, lead.passed) == (0, 0, 0, True)

    def test_report_values_recompute_from_raw_sequences(self):
        alpha, depth = -3, 5
        u = [0] + [catalan(n - 1) * alpha ** (n - 1) for n in range(1, 2 * depth + 3)]
        t = hankel_triple(u, depth)
        report = verify_conjecture8(alpha, depth)
        for c in checks_for(report, CLAIM_C8_H):
            assert c.lhs == t.h[c.index]
            assert c.rhs == -c.index * alpha ** (c.index * c.index - 1)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            verify_conjecture8(0, 4)


class TestAlphaShift:
    @pytest.mark.parametrize("alpha,beta", [(-3, -5), (0, 1), (2, 3)])
    def test_holds_on_sample_points(self, alpha, beta):
        assert verify_alpha_shift(alpha, beta, 10).all_pass

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta must be nonzero"):
            verify_alpha_shift(1, 0, 8)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            verify_alpha_shift(1, 2, 0)

    def test_check_count_tracks_order(self):
        from hankelrev.conjectures import CLAIM_SHIFT_COEFF, CLAIM_SHIFT_HANKEL

        report = verify_alpha_shift(2, 3, 9)
        assert len(checks_for(report, CLAIM_SHIFT_COEFF)) == 10
        assert len(checks_for(report, CLAIM_SHIFT_HANKEL)) == 5  # depth (order-1)//2


class TestAnchors:
    def test_all_classical_values_hold(self):
        report = verify_anchors(6)
        assert report.all_pass
        assert len(report.checks) == 42
        assert len({c.claim for c in report.checks}) == 6

    def test_note_records_the_sign_discrepancy(self):
        report = verify_anchors(4)
        assert len(report.notes) == 1
        assert "commonly quoted as n" in report.notes[0]
        assert "-n" in report.notes[0]


class TestProp9:
    def test_triangle_values(self):
        assert prop9_T_matrix(1, 3) == [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [2, 3, 1, 0],
            [5, 9, 5, 1],
        ]
        assert prop9_T_matrix(2, 2) == [
            [1, 0, 0],
            [2, 2, 0],
            [8, 12, 4],
        ]

    def test_triangle_is_integer_at_huge_alpha(self):
        alpha = 10**50
        T = prop9_T_matrix(alpha, 6)
        assert {type(entry) for row in T for entry in row} == {int}
        assert T == [
            [
                Fraction(math.comb(2 * i, i + k) * (2 * k + 1), i + k + 1) * alpha**i if k <= i else 0
                for k in range(7)
            ]
            for i in range(7)
        ]

    def test_triangle_integrality_is_checked(self, monkeypatch):
        monkeypatch.setattr(math, "comb", lambda n, k: 1)
        with pytest.raises(ArithmeticError, match=r"T\[1\]\[0\] is not an integer"):
            prop9_T_matrix(2, 2)

    @pytest.mark.parametrize("alpha,n", [(1, 4), (2, 3), (-2, 5), (3, 2)])
    def test_factorization_holds(self, alpha, n):
        report = prop9_verify(alpha, n)
        assert report.all_pass
        assert len(report.checks) == (n + 1) ** 2 + 2

    def test_determinant_claims_present(self):
        report = prop9_verify(2, 2)
        claims = {c.claim for c in report.checks}
        assert CLAIM_P9_DET in claims
        assert CLAIM_P9_DET_T in claims

    def test_huge_alpha(self):
        alpha = 10**100 + 7
        report = prop9_verify(alpha, 12)
        assert report.all_pass
        (det_h,) = [c for c in report.checks if c.claim == CLAIM_P9_DET]
        assert det_h.lhs == alpha**156

    def test_preconditions(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            prop9_verify(0, 3)
        with pytest.raises(ValueError, match="matrix index must be non-negative"):
            prop9_verify(1, -1)

    @given(st.integers(0, 5), st.integers(0, 5), st.sampled_from([1, 2, -3]))
    def test_first_coefficient_identity(self, i, j, alpha):
        assert prop9_coeff_identity_1(i, j, alpha)

    @given(st.integers(0, 5), st.integers(0, 11), st.sampled_from([1, 2, -3]))
    def test_second_coefficient_identity(self, i, k, alpha):
        assert prop9_coeff_identity_2(i, k, alpha)

    def test_second_identity_at_degenerate_index(self):
        # k = 2i + 1 zeroes both sides of the ratio form; the difference
        # form must still be checked there rather than skipped
        for i in range(5):
            assert prop9_coeff_identity_2(i, 2 * i + 1, 2)


def conjecture_choices(command):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in commands.choices[command]._actions if a.dest == "conjecture")
    return tuple(option.choices)


class TestReportsAtDepth:
    """Every right-hand side, built as a running product or from T's
    alpha-free part, against one pow per closed form, far past the depths
    of tests/reports.txt."""

    @pytest.mark.parametrize("alpha, beta", [(-3, -5), (7, 4), (0, 2)])
    def test_conjecture4(self, alpha, beta):
        report = verify_conjecture4(alpha, beta, 60)
        assert [c.rhs for c in report.checks] == conjecture4_rhs_ref(alpha, beta, 60)
        assert report.all_pass

    @pytest.mark.parametrize("alpha, beta", [(2, -3), (-5, 4), (3, 1)])
    def test_conjecture6(self, alpha, beta):
        report = verify_conjecture6(alpha, beta, 60)
        assert [c.rhs for c in report.checks] == conjecture6_rhs_ref(alpha, beta, 60)
        assert report.all_pass

    @pytest.mark.parametrize("alpha", [7, -3, 10**20 + 9])
    def test_conjecture8(self, alpha):
        report = verify_conjecture8(alpha, 60)
        assert [c.rhs for c in report.checks] == conjecture8_rhs_ref(alpha, 60)
        assert report.all_pass

    @pytest.mark.parametrize("alpha", [10**59 + 123, -(10**59) - 4567], ids=["+60d", "-60d"])
    def test_prop9(self, alpha):
        report = prop9_verify(alpha, 12)
        assert [c.rhs for c in report.checks] == prop9_rhs_ref(alpha, 12)
        assert report.all_pass


class TestColumns:
    """Claims held as int columns, against the per-n rows of the reference."""

    @pytest.mark.parametrize("cid", tuple(CONJECTURES))
    def test_rows_and_verdict_match_the_per_n_reference(self, cid):
        conjecture = CONJECTURES[cid]
        alphas = range(-3, 4) if "alpha" in conjecture.parameters else [0]
        betas = range(-3, 4) if "beta" in conjecture.parameters else [0]
        for alpha in alphas:
            for beta in betas:
                if not conjecture.admissible(alpha, beta):
                    continue
                for depth in (1, 2, 5):
                    report = conjecture.verify(alpha, beta, depth)
                    ref = report_checks_ref(cid, alpha, beta, depth)
                    assert list(report.rows()) == [(c.index, c.claim, c.lhs, c.rhs) for c in ref]
                    assert report.checks == ref
                    assert report.all_pass is all(c.passed for c in ref) is True

    def test_a_failing_claim_fails_the_report_and_the_sweep(self, monkeypatch):
        from hankelrev import conjectures

        real = conjectures._triangular_powers

        def off_by_one(x, count):
            powers = real(x, count)
            powers[-1] += 1
            return powers

        monkeypatch.setattr(conjectures, "_triangular_powers", off_by_one)
        report = verify_conjecture4(-3, -5, 3)
        assert not report.all_pass
        failed = [(c.index, c.claim) for c in report.checks if not c.passed]
        assert failed == [(3, CLAIM_C4_HSTAR)]
        result = sweep("4", (1, 2), (1, 1), 3)
        assert result.counterexamples == result.reports and len(result.reports) == 2
        payload = json.loads(sweep_json(result))
        assert payload["all_pass"] is False
        for shown in payload["counterexamples"]:
            assert [(c["n"], c["claim"]) for c in shown["checks"] if not c["pass"]] == [
                ("3", CLAIM_C4_HSTAR)
            ]

    def test_columns_of_a_block_have_one_length(self):
        from hankelrev.conjectures import _block

        with pytest.raises(RuntimeError, match="differ in length"):
            _block(("demo", [1, 2], [1, 2]), ("demo", [1], [1]))

    def test_rows_walk_the_blocks_in_the_order_given(self):
        from hankelrev.conjectures import _block

        blocks = (
            _block(("b", [1, 5], [1, 5]), ("c", [2, 6], [2, 7]), start=4),
            _block(("a", [2], [3])),
        )
        report = ConjectureReport("8", None, 1, blocks)
        rows = [(4, "b", 1, 1), (4, "c", 2, 2), (5, "b", 5, 5), (5, "c", 6, 7), (0, "a", 2, 3)]
        assert list(report.rows()) == rows
        assert report.checks == tuple(Check(*row) for row in rows)
        assert not report.all_pass


class TestRegistry:
    def test_table_order(self):
        assert tuple(CONJECTURES) == ("4", "6", "8", "prop9", "alpha_shift", "anchors")
        assert all(cid == c.id for cid, c in CONJECTURES.items())

    def test_cli_choices(self):
        assert conjecture_choices("verify") == ("4", "6", "8", "alpha_shift", "anchors")
        assert conjecture_choices("sweep") == ("4", "6", "8", "prop9", "alpha_shift")
        assert SWEEPABLE == conjecture_choices("sweep")

    @pytest.mark.parametrize("cid", SWEEPABLE)
    def test_admissible_exactly_where_the_verifier_accepts(self, cid):
        conjecture = CONJECTURES[cid]
        for a in range(-2, 3):
            for b in range(-2, 3):
                try:
                    conjecture.verify(a, b, 1)
                    accepted = True
                except ValueError:
                    accepted = False
                assert conjecture.admissible(a, b) == accepted, (a, b)

    def test_verify_passes_the_sizes_each_verifier_takes(self):
        assert CONJECTURES["4"].verify(2, 3, 2).depth == 2
        assert CONJECTURES["8"].verify(2, None, 2).depth == 2
        assert CONJECTURES["prop9"].verify(2, None, 2).depth == 2
        # alpha_shift runs at series order 2 * depth + 1, and reports it
        assert CONJECTURES["alpha_shift"].verify(2, 3, 2) == verify_alpha_shift(2, 3, 5)
        assert CONJECTURES["anchors"].verify(None, None, 2).depth == 2
        with pytest.raises(ValueError, match="depth must be at least 1"):
            CONJECTURES["alpha_shift"].verify(2, 3, 0)


class TestSweep:
    def test_skips_inadmissible_points(self):
        result = sweep("4", (-5, 5), (-5, 5), 3)
        assert len(result.grid) == 121
        assert len(result.reports) == 110
        assert len(result.skipped) == 11
        assert result.counterexamples == ()
        assert all(p.beta == 0 for p in result.skipped)

    def test_single_parameter_conjecture(self):
        result = sweep("8", (-3, 3), depth=3)
        assert len(result.grid) == 7
        assert len(result.reports) == 6
        assert [p.alpha for p in result.skipped] == [0]

    def test_everything_skipped(self):
        result = sweep("8", (0, 0), depth=3)
        assert result.reports == ()
        assert result.counterexamples == ()
        assert len(result.skipped) == 1

    def test_alpha_shift_sweep_widens_order(self):
        result = sweep("alpha_shift", (-2, 2), (-1, 1), depth=3)
        assert len(result.grid) == 15
        assert len(result.reports) == 10
        assert all(r.depth == 7 for r in result.reports)  # order 2*depth + 1

    def test_grid_order_is_alpha_major(self):
        result = sweep("6", (1, 2), (1, 2), 2)
        assert [(p.alpha, p.beta) for p in result.grid] == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_accepts_integer_ids(self):
        assert sweep(8, (1, 2), depth=2).conjecture_id == "8"

    def test_rejects_unknown_id(self):
        with pytest.raises(ValueError, match="cannot sweep conjecture 'nope'"):
            sweep("nope", (0, 1))

    def test_requires_beta_range_when_needed(self):
        with pytest.raises(ValueError, match="conjecture 4 needs a beta range"):
            sweep("4", (-1, 1))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="range must be non-empty"):
            sweep("8", (3, 1))

    def test_counterexamples_are_collected(self, monkeypatch):
        from hankelrev import conjectures

        def failing(alpha, depth):
            bad = Check(0, "demo", 1, 2)
            return ConjectureReport("8", FamilyParams(alpha, 0, FAMILY_C), depth, row_blocks([bad]))

        monkeypatch.setattr(conjectures, "verify_conjecture8", failing)
        result = sweep("8", (1, 2), depth=2)
        assert len(result.counterexamples) == 2
        assert not json.loads(sweep_json(result))["all_pass"]


class TestReportValues:
    def test_passed_and_all_pass_are_derived_from_the_sides(self):
        good, bad = Check(0, "demo", 3, 3), Check(1, "demo", 1, 2)
        assert (good.passed, bad.passed) == (True, False)
        assert ConjectureReport("8", None, 1, row_blocks([good])).all_pass
        assert not ConjectureReport("8", None, 1, row_blocks([good, bad])).all_pass
        assert [f.name for f in dataclasses.fields(Check)] == ["index", "claim", "lhs", "rhs"]
        assert "all_pass" not in {f.name for f in dataclasses.fields(ConjectureReport)}

    def test_all_pass_is_worked_out_once_and_leaves_equality_alone(self):
        report = ConjectureReport("8", None, 1, row_blocks([Check(0, "demo", 1, 2)]))
        twin = ConjectureReport("8", None, 1, row_blocks([Check(0, "demo", 1, 2)]))
        assert not report.all_pass
        # the cached value sits in the instance, outside the dataclass fields
        assert vars(report)["all_pass"] is False
        assert "all_pass" not in vars(twin)
        assert report == twin and hash(report) == hash(twin) and repr(report) == repr(twin)

    @pytest.mark.parametrize("cid", list(CONJECTURES))
    def test_reports_compare_and_hash_by_their_columns(self, cid):
        report = CONJECTURES[cid].verify(2, 3, 3)
        twin = CONJECTURES[cid].verify(2, 3, 3)
        assert report is not twin
        assert report == twin and hash(report) == hash(twin)
        # one entry of one column changed: the first rhs entry of the first claim
        block, *rest = report.blocks
        first, *claims = block.claims
        first = first._replace(rhs=(first.rhs[0] + 1, *first.rhs[1:]))
        other = dataclasses.replace(report, blocks=(block._replace(claims=(first, *claims)), *rest))
        assert other != report and not other.all_pass

    def test_a_report_is_built_from_blocks_only(self):
        names = [f.name for f in dataclasses.fields(ConjectureReport)]
        assert names == ["conjecture_id", "params", "depth", "blocks", "notes"]
        with pytest.raises(TypeError):
            ConjectureReport("8", None, 1, checks=(Check(0, "demo", 1, 2),))
