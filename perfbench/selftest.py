#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that:

* every end-to-end and per-layer metric is printed by name with its unit,
  for every workload, and matches what BENCHMARK.json declares;
* a deliberately wrong reference is counted as a failure, for every kind
  of expected output;
* tracing on or off leaves every output byte-identical, and uninstalling
  the tracer restores every patched binding;
* the closed-form references agree with the slow oracles of
  ``tests/oracles.py`` (Gaussian elimination over Fraction, the additive
  binomial recurrence) at small sizes.

Exit status 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_build = workloads.build
_problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        _problems.append(message)
        print(f"FAIL: {message}")


def tiny_build(name: str, seed: int) -> workloads.Workload:
    return _build(name, seed, tiny=True)


def run_tiny(name: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)])
    expect(code == 0, f"{name} trace={trace}: exit {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics(declared: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect(end_to_end == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(per_layer == {n: u for n, u, _ in tracing.PER_LAYER}, "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result, text = run_tiny(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} differ")
            for metric, unit in wanted.items():
                line = rf"^# {re.escape(metric)} = \S+ {re.escape(unit)}(  |$)"
                expect(re.search(line, text, re.M) is not None, f"{name}: {metric} not printed with {unit}")
            expect(re.search(r"^# failed_ratio: \S+ ratio ", text, re.M) is not None, f"{name}: failed_ratio")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                expect(not zero, f"{name}: end-to-end metrics {zero} are not positive")
                print(f"{name} (tiny):")
                for line in text.splitlines():
                    if line.startswith(("# failed_ratio", "# over-limit")) or " = " in line:
                        print("  " + line[2:])
        print(f"ok: {name} prints every metric with its unit")


def corrupt(expectation: ref.Expectation) -> None:
    """Make one expected value wrong."""
    if isinstance(expectation, ref.Values):
        expectation.values[-1] += 1
    elif isinstance(expectation, ref.Triple):
        expectation.hs[-1] += 1
    elif isinstance(expectation, ref.Report):
        n, claim, lhs, rhs = expectation.rows[-1]
        expectation.rows[-1] = (n, claim, lhs + 1, rhs)
    elif isinstance(expectation, ref.Sweep):
        if expectation.fmt == "json" and expectation.full:
            corrupt(expectation.reports[-1])
        else:
            expectation.skipped = expectation.skipped[1:]
    else:
        raise TypeError(expectation)


def check_wrong_reference(cli) -> None:
    kinds = set()
    for name in workloads.WORKLOADS:
        workload = tiny_build(name, 3)
        for op in workload.ops:
            key = (type(op.expect).__name__, op.expect.fmt)
            if key in kinds:
                continue
            kinds.add(key)
            runner = run.Runner(cli)
            good = runner.run_pass([op])
            bad_op = copy.deepcopy(op)
            corrupt(bad_op.expect)
            bad = runner.run_pass([bad_op])
            expect(good["failed"] == 0, f"{op.argv}: correct output rejected")
            expect(bad["failed"] == 1 and bad["checks"] == 0, f"{op.argv}: wrong reference not counted as failed")
    expect(len(kinds) >= 10, f"only {len(kinds)} output kinds exercised")
    print(f"ok: a wrong reference fails for {len(kinds)} kinds of output")


def check_trace_identity(cli) -> None:
    import hankelrev.cli
    import hankelrev.conjectures

    originals = (hankelrev.cli.run, hankelrev.conjectures.det_exact, vars(hankelrev.series.PowerSeries)["__mul__"])
    for name in workloads.WORKLOADS:
        workload = tiny_build(name, 5)
        runner = run.Runner(cli)
        plain = runner.run_pass(workload.ops)
        tracer = tracing.Tracer()
        tracer.install()
        expect(hankelrev.conjectures.det_exact is not originals[1], "det_exact not wrapped where conjectures imports it")
        try:
            traced = runner.run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        expect(plain["digests"] == traced["digests"], f"{name}: traced output differs from untraced")
        expect(plain["failed"] == traced["failed"] == 0, f"{name}: failures in the identity check")
        expect(tracer.metrics()["cli.run.calls"] == len(workload.ops), f"{name}: cli.run spans missing")
    restored = (hankelrev.cli.run, hankelrev.conjectures.det_exact, vars(hankelrev.series.PowerSeries)["__mul__"])
    expect(all(a is b for a, b in zip(originals, restored)), "uninstall left wrappers behind")
    print("ok: tracing leaves outputs byte-identical and uninstalls cleanly")


def check_references_against_oracles() -> None:
    sys.path.insert(0, str(run.ROOT / "tests"))
    from oracles import binomial_transform_ref, det_gauss

    def transform(terms: list[int], depth: int) -> list[int]:
        out = []
        for n in range(depth + 1):
            det = det_gauss([[terms[i + j] for j in range(n + 1)] for i in range(n + 1)])
            out.append(int(det))
        return out

    depth = 6
    for alpha, beta in ((3, -5), (-4, 7), (2, 2)):
        for seq, triple in (
            (ref.family_a_reversion(alpha, beta, 2 * depth + 3), ref.triple_family_a(alpha, beta, depth)),
            (ref.family_b_reversion(alpha, beta + 1, 2 * depth + 3), ref.triple_family_b(alpha, beta + 1, depth)),
            (ref.family_c_reversion(alpha, 2 * depth + 3), ref.triple_family_c(alpha, depth)),
        ):
            got = tuple(transform(seq[k:], depth) for k in range(3))
            expect(got == tuple(triple), f"closed-form triple differs from det_gauss at {alpha}, {beta}")
        terms = ref.family_a_base(alpha, beta, 12)
        expect(ref.binomial(terms) == binomial_transform_ref(terms), "binomial reference differs")
        expect(ref.binomial(ref.binomial(terms), inverse=True) == terms, "inverse binomial reference differs")
    expect(transform(ref.family_c_reversion(1, 20)[1:], depth) == ref.hankel_scaled_catalan(1, depth), "catalan")
    print("ok: closed-form references agree with tests/oracles.py")


def main() -> int:
    workloads.build = tiny_build
    cli = run.import_program()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_references_against_oracles()
    check_wrong_reference(cli)
    check_trace_identity(cli)
    check_metrics(declared)
    if _problems:
        print(f"{len(_problems)} problem(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
