"""Acceptance gate.

Each test covers one stated criterion, prints a single pass/fail line,
and then asserts.  Run `pytest tests/test_acceptance.py -v -s` to see
the lines alongside the test ids.
"""

import math
import random
import time
from fractions import Fraction

from hankelrev import (
    FAMILY_A,
    FAMILY_B,
    FAMILY_C,
    FamilyParams,
    PowerSeries,
    catalan,
    binomial_transform,
    det_exact,
    family_base_ogf,
    family_base_terms,
    family_reversion_terms,
    hankel_matrix,
    hankel_transform,
    hankel_triple,
    prop9_verify,
    sweep,
    verify_alpha_shift,
    verify_anchors,
)
from oracles import det_cofactor, prop9_coeff_identity_1, prop9_coeff_identity_2

SEED = 20260816


def _verdict(number: int, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_worked_triple_reproduction():
    start = time.perf_counter()
    u = family_reversion_terms(FamilyParams(-3, -5, FAMILY_A), 13)
    t = hankel_triple(u, 5)
    elapsed = time.perf_counter() - start
    ok = (
        [str(v) for v in t.h]
        == ["0", "-1", "-15", "1750", "890625", "-2353515625"]
        and [str(v) for v in t.h_star]
        == ["1", "-5", "-125", "15625", "9765625", "-30517578125"]
        and [str(v) for v in t.h_star_star]
        == ["-3", "-70", "7125", "3765625", "-9843750000", "-129058837890625"]
        and elapsed < 1.0
    )
    _verdict(1, ok)


def test_criterion_2_family_a_ratio_sweep():
    start = time.perf_counter()
    result = sweep("4", (-5, 5), (-5, 5), depth=6)
    elapsed = time.perf_counter() - start
    ok = (
        len(result.grid) == 121
        and len(result.reports) == 110
        and len(result.skipped) == 11
        and result.counterexamples == ()
        and elapsed < 60.0
    )
    _verdict(2, ok)


def test_criterion_3_family_b_ratio_sweep():
    start = time.perf_counter()
    result = sweep("6", (-5, 5), (-5, 5), depth=6)
    elapsed = time.perf_counter() - start
    diagonal = [r for r in result.reports if r.params.alpha == r.params.beta]
    ok = (
        len(result.reports) == 100
        and result.counterexamples == ()
        and len(diagonal) == 10  # the degenerate alpha == beta line is included
        and all(r.all_pass for r in diagonal)
        and elapsed < 60.0
    )
    _verdict(3, ok)


def test_criterion_4_family_c_power_sweep():
    from hankelrev.conjectures import CLAIM_C8_H, CLAIM_C8_HSS, CLAIM_C8_HSTAR

    result = sweep("8", (-5, 5), depth=6)
    claims_everywhere = all(
        {CLAIM_C8_H, CLAIM_C8_HSTAR, CLAIM_C8_HSS} <= {c.claim for c in r.checks}
        for r in result.reports
    )
    ok = (
        len(result.reports) == 10
        and result.counterexamples == ()
        and claims_everywhere
    )
    _verdict(4, ok)


def test_criterion_5_triangular_factorization():
    ok = all(
        prop9_verify(alpha, n).all_pass
        for alpha in (1, 2, 3, -2)
        for n in range(9)
    )
    ok = ok and all(
        prop9_coeff_identity_1(i, j, alpha)
        for alpha in (1, 2, -3)
        for i in range(7)
        for j in range(7)
    )
    ok = ok and all(
        prop9_coeff_identity_2(i, k, alpha)
        for alpha in (1, 2, -3)
        for i in range(7)
        for k in range(7)
    )
    _verdict(5, ok)


def test_criterion_6_classical_anchors():
    cat = [catalan(n) for n in range(14)]
    central = [math.comb(2 * n, n) for n in range(12)]
    ok = (
        hankel_transform(cat, 6) == [1] * 7
        and hankel_transform(cat[1:], 6) == [1] * 7
        and hankel_transform(central, 5) == [2 ** n for n in range(6)]
        and hankel_transform([0] + central, 5)
        == [-n * 2 ** (n - 1) if n else 0 for n in range(6)]
        and hankel_transform([0] + cat, 5) == [-n for n in range(6)]
    )
    _verdict(6, ok)


def test_criterion_7_property_suites():
    rng = random.Random(SEED)
    ok = True

    # reversion roundtrips to order 12 on 100 random admissible series
    for _ in range(100):
        coeffs = [Fraction(0), Fraction(rng.choice([c for c in range(-9, 10) if c]))]
        coeffs += [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)
        ]
        f = PowerSeries(tuple(coeffs))
        g = f.revert()
        identity = PowerSeries.identity(12)
        ok = ok and f.compose(g) == identity and g.compose(f) == identity

    # Hankel invariance under the binomial transform, 100 sequences
    for _ in range(100):
        terms = [rng.randint(-9, 9) for _ in range(13)]
        ok = ok and hankel_transform(terms, 6) == hankel_transform(
            binomial_transform(terms), 6
        )

    # determinant agreement with the cofactor oracle, 200 matrices
    for _ in range(200):
        dim = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        ok = ok and det_exact(m) == det_cofactor(m)

    # closed-form terms match the expanded o.g.f.s for every family
    for alpha in range(-5, 6):
        for beta in range(-5, 6):
            a = FamilyParams(alpha, beta, FAMILY_A)
            ok = ok and family_base_terms(a, 13) == family_base_ogf(
                a, 12
            ).integer_coefficients()
            ok = ok and family_reversion_terms(a, 13) == family_base_ogf(
                a, 12
            ).revert().integer_coefficients()
            if beta != 0:
                b = FamilyParams(alpha, beta, FAMILY_B)
                ok = ok and family_base_terms(b, 13) == family_base_ogf(
                    b, 12
                ).integer_coefficients()
                ok = ok and family_reversion_terms(b, 13) == family_base_ogf(
                    b, 12
                ).revert().integer_coefficients()
        c = FamilyParams(alpha, 0, FAMILY_C)
        ok = ok and family_base_terms(c, 13) == family_base_ogf(
            c, 12
        ).integer_coefficients()
        if alpha != 0:
            ok = ok and family_reversion_terms(c, 13) == family_base_ogf(
                c, 12
            ).revert().integer_coefficients()

    # parameter-shift property at order 10 on 20 random pairs
    for _ in range(20):
        alpha = rng.randint(-5, 5)
        beta = rng.choice([b for b in range(-5, 6) if b])
        ok = ok and verify_alpha_shift(alpha, beta, 10).all_pass

    _verdict(7, ok)


def test_criterion_8_sign_discrepancy_is_surfaced():
    headless = [0] + [catalan(n) for n in range(1, 12)]
    computed = hankel_transform(headless, 5)
    oracle = [det_cofactor(hankel_matrix(headless, n)) for n in range(6)]
    report = verify_anchors(5)
    ok = (
        computed == [-n for n in range(6)]
        and computed == oracle
        and report.all_pass
        and any("commonly quoted as n" in note for note in report.notes)
    )
    _verdict(8, ok)
