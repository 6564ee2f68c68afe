#!/usr/bin/env python3
"""Regenerate the reference tables frozen into the test suite.

Covers the shifted-Hankel triple for a sample family A point, the family
C power table, and the classical transforms the suite anchors against.
"""

import math
import sys
from itertools import islice

from hankelrev import (
    FAMILY_A,
    FamilyParams,
    catalan,
    family_reversion_terms,
    hankel_transform,
    hankel_triple,
    verify_conjecture8,
)


def print_triple(alpha: int, beta: int, depth: int) -> None:
    params = FamilyParams(alpha, beta, FAMILY_A)
    u = family_reversion_terms(params, 2 * depth + 3)
    t = hankel_triple(u, depth)
    print(f"family A reversion, alpha={alpha} beta={beta}")
    print(f"  u = {u}")
    print(f"  {'n':>2} {'h':>16} {'h*':>16} {'h**':>20}")
    for n, h, hs, hss in t.rows():
        print(f"  {n:>2} {h:>16} {hs:>16} {hss:>20}")
    print()


def print_power_table(alpha: int, depth: int) -> None:
    report = verify_conjecture8(alpha, depth)
    print(f"family C reversion, alpha={alpha}: all_pass={report.all_pass}")
    for n, claim, lhs, _ in islice(report.rows(), depth + 1):
        print(f"  n={n} {claim}: {lhs}")
    print()


def print_classical_anchors() -> None:
    cat = [catalan(n) for n in range(14)]
    central = [math.comb(2 * n, n) for n in range(12)]
    rows = [
        ("catalan", hankel_transform(cat, 6)),
        ("catalan shifted", hankel_transform(cat[1:], 6)),
        ("central binomial", hankel_transform(central, 5)),
        ("0, central binomial", hankel_transform([0] + central, 5)),
        ("0, catalan", hankel_transform([0] + cat, 5)),
        ("catalan, head zeroed", hankel_transform([0] + cat[1:], 5)),
    ]
    print("classical Hankel transforms")
    width = max(len(name) for name, _ in rows)
    for name, values in rows:
        print(f"  {name:<{width}} -> {values}")


def main() -> int:
    print_triple(alpha=-3, beta=-5, depth=5)
    print_triple(alpha=2, beta=3, depth=5)
    print_power_table(alpha=2, depth=5)
    print_classical_anchors()
    return 0


if __name__ == "__main__":
    sys.exit(main())
