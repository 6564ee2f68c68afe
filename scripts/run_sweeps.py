#!/usr/bin/env python3
"""Run the standard verification sweeps over an integer parameter grid.

Prints one summary line per sweep and full reports for any counterexample.
Exit status 1 signals that a counterexample was found.
"""

import argparse
import sys
import time

from hankelrev import SWEEPABLE, sweep
from hankelrev.cli import render_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=int, default=-5, help="grid lower bound")
    parser.add_argument("--hi", type=int, default=5, help="grid upper bound")
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    bounds = (args.lo, args.hi)
    failed = False
    for cid in SWEEPABLE:
        started = time.perf_counter()
        # sweeps of sets without beta ignore the beta range
        result = sweep(cid, bounds, bounds, depth=args.depth)
        elapsed = time.perf_counter() - started
        print(
            f"{cid:>11}: grid={len(result.grid)}"
            f" checked={len(result.reports)} skipped={len(result.skipped)}"
            f" counterexamples={len(result.counterexamples)} ({elapsed:.2f}s)"
        )
        for report in result.counterexamples:
            failed = True
            render_report(report, "json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
