#!/usr/bin/env python3
"""Summarise alternating parent/change benchmark runs as BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent OLD/perfbench/out \\
        --change NEW/perfbench/out --label chebyshev

Each directory holds the ``result-<workload>-seed<N>-trace0.json`` records
that ``perfbench/run.py --trace 0`` wrote in one checkout, one per seed;
a pair is the same workload and seed on both sides.  The file written to
the current directory holds, for each workload, the seeds and, for each
side, the git sha and the median and quartiles of every end-to-end metric
over those seeds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, for the untraced records in ``directory``."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        context = record["context"]
        runs.setdefault(context["workload"], {})[context["seed"]] = record
    return runs


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def side(records: list[dict]) -> dict:
    shas = {r["context"]["git_sha"] for r in records}
    if len(shas) != 1:
        raise ValueError(f"records from more than one commit: {sorted(shas)}")
    metrics = {name: spread([r["metrics"][name] for r in records]) for name in records[0]["metrics"]}
    return {"git_sha": shas.pop(), "metrics": metrics}


def summarise(parent: dict[str, dict[int, dict]], change: dict[str, dict[int, dict]]) -> dict:
    if set(parent) != set(change):
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    workloads = {}
    for name in sorted(parent):
        seeds = sorted(parent[name])
        if seeds != sorted(change[name]):
            raise ValueError(f"{name}: seeds differ: parent {seeds}, change {sorted(change[name])}")
        workloads[name] = {
            "seeds": seeds,
            "parent": side([parent[name][s] for s in seeds]),
            "change": side([change[name][s] for s in seeds]),
        }
    return workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="records of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="records of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args()

    parent, change = load(args.parent), load(args.change)
    if not parent:
        print(f"error: no result-*-trace0.json records in {args.parent}", file=sys.stderr)
        return 2
    try:
        workloads = summarise(parent, change)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({"label": args.label, "workloads": workloads}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
