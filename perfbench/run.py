#!/usr/bin/env python3
"""hankelrev benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload deep_verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  One client drives ``hankelrev.cli.run(argv)``
in-process, in a closed loop (each operation starts when the previous one
returns), on one thread, with stdout and stderr captured.  The operation
list is repeated in passes until the measuring time is used up, and every
output is checked against ``reference.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py``, the tracing overhead, and whether traced output is
byte-identical to untraced output.  The last line of stdout is the JSON
result; the lines before it are for people.  A full record also goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
# Every reported time is in seconds at a reference speed: an operation's
# measured time times PROBE_REF_S over the mean time of speed_probe() runs
# around and during it.  On VMs whose CPUs are shared with other tenants the
# same work runs 1.5-2x slower for tens of seconds at a time, and CPU time
# slows down with it; the probe slows down the same way.
PROBE_REF_S = 0.001
PROBE_INTERVAL_S = 0.02
# p90 needs ten samples beyond it: a slow machine runs past --seconds
# rather than report a p90 from fewer than 100 operations
MIN_SAMPLES = 100
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("checks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
LIMITS = (
    "CPUs shared with other tenants run the same work 1.5-2x slower for tens of seconds at a time:"
    " every time is scaled by speed probes run around each operation (raw times are in the record)",
    "one in-process client, no extra threads: measures latency of one caller, not throughput under load",
    "peak_rss_mb is the whole benchmark process, references and captured output included",
)

_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hankelrev.cli
hankelrev.cli.build_parser()
print(repr(time.perf_counter() - start))
"""


_PROBE_TERMS = [math.comb(2 * k, k) // (k + 1) * 7**k + k for k in range(27)]


def speed_probe() -> float:
    """Seconds taken by a fixed computation that does not touch hankelrev.

    Bareiss elimination on a 12x12 integer Hankel matrix, a truncated
    product of Fraction series and int->str: the kinds of work the program
    does, so it slows down with the machine the way the operations do.
    """
    start = time.perf_counter()
    n = 12
    m = [[_PROBE_TERMS[i + j] for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    series = [Fraction(1, k + 2) for k in range(24)]
    product = [Fraction(0)] * 24
    for i in range(24):
        for j in range(24 - i):
            product[i + j] += series[i] * series[j]
    ",".join(map(str, _PROBE_TERMS))
    return time.perf_counter() - start


def import_program():
    """Import hankelrev from this checkout's src/, and from nowhere else."""
    if not (SRC / "hankelrev" / "cli.py").is_file():
        raise SystemExit(f"error: no hankelrev sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hankelrev.cli

    if Path(hankelrev.cli.__file__).resolve().parent != (SRC / "hankelrev").resolve():
        raise SystemExit(f"error: hankelrev was imported from {hankelrev.cli.__file__}")
    return hankelrev.cli


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> list[tuple[float, float]]:
    """(raw, scaled) import time of hankelrev.cli plus build_parser, in fresh interpreters."""
    times = []
    before = speed_probe()
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: setup child failed: {done.stderr.strip()}")
        after = speed_probe()
        raw = float(done.stdout.strip())
        times.append((raw, raw * 2 * PROBE_REF_S / (before + after)))
        before = after
    return times


class Runner:
    """Runs operations through cli.run and checks them against the reference.

    With ``sample`` set, a SIGALRM handler runs speed_probe() every
    PROBE_INTERVAL_S while an operation runs.  An operation of 0.5 s spans
    several speed changes of a shared CPU, which probes around it alone do
    not see.  The time spent in those probes is subtracted from the
    operation's time.
    """

    def __init__(self, cli, sample: bool = True) -> None:
        self.cli = cli
        self.sample = sample
        self.failures: list[str] = []
        self._inside: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(speed_probe())

    def call(self, argv: list[str], tracer=None, index: int = 0) -> tuple[float, tuple]:
        """(seconds, (exit code, stdout, stderr)) of one operation."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_op(index)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except Exception:  # the operation failed; record why and keep going
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue())

    def check(self, op, result) -> bool:
        code, out, err = result
        try:
            op.expect.verify(code, out, err)
            return True
        except Exception as exc:  # Mismatch, or output too malformed to parse
            self.failures.append(f"{' '.join(op.argv)[:120]}: {type(exc).__name__}: {exc}")
            return False

    def timed_call(self, argv: list[str], tracer, index: int) -> tuple[float, list[float], tuple]:
        """(seconds without in-operation probes, those probes' times, result)."""
        self._inside = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            elapsed, result = self.call(argv, tracer, index)
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        return elapsed - sum(inside), inside, result

    def run_pass(self, ops, tracer=None) -> dict:
        """One closed-loop pass; speed probes run before, during and after each operation.

        An operation's time is scaled by PROBE_REF_S over the mean time of
        the probes just before, during and just after it.
        """
        gc.collect()
        before = speed_probe()
        raw, scaled, results = [], [], []
        for i, op in enumerate(ops):
            elapsed, inside, result = self.timed_call(op.argv, tracer, i)
            after = speed_probe()
            raw.append(elapsed)
            scaled.append(elapsed * PROBE_REF_S / statistics.fmean([before, after, *inside]))
            results.append(result)
            before = after
        ok = [self.check(op, r) for op, r in zip(ops, results)]
        wall = sum(scaled)
        return {
            "wall": wall,
            "wall_raw": sum(raw),
            "scale": wall / sum(raw),
            "latencies": scaled,
            "failed": ok.count(False),
            "checks": sum(op.expect.checks for op, good in zip(ops, ok) if good),
            "bytes": sum(len(r[1].encode()) + len(r[2].encode()) for r in results),
            "digests": [hashlib.sha256(repr(r).encode()).hexdigest() for r in results],
        }


def run_over_limit(runner: Runner, ops, tracer=None) -> list[dict]:
    """Run the over-limit operations once; today they exit 2 (known defect)."""
    rows = []
    for op in ops:
        _, result = runner.call(op.argv, tracer)
        before = len(runner.failures)
        ok = runner.check(op, result)
        reason = "" if ok else runner.failures.pop(before)
        rows.append({"argv": " ".join(op.argv)[:100], "exit": result[0], "ok": ok, "reason": reason[-160:]})
    return rows


def timed_passes(runner: Runner, ops, seconds: float, traced_too: bool) -> tuple[list, list, list]:
    """Closed loop of passes until the time is used; returns (untraced, traced, tracers)."""
    plain, traced, tracers = [], [], []
    spent: list[float] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        plain.append(runner.run_pass(ops))
        if traced_too:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        spent.append(time.perf_counter() - started)
        enough = len(plain) * len(ops) >= MIN_SAMPLES
        if enough and time.perf_counter() - begin + statistics.median(spent) > seconds:
            break
    return plain, traced, tracers


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(passes: list[dict]) -> dict:
    latencies = [t for p in passes for t in p["latencies"]]
    p90 = quantile(latencies, 90)
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "wall_raw_s": statistics.median(p["wall_raw"] for p in passes),
        "speed_scale": statistics.median(p["scale"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "checks_per_s": statistics.median(p["checks"] / p["wall"] for p in passes),
        "samples": len(latencies),
        "beyond_p90": sum(1 for t in latencies if t > p90),
        "passes": len(passes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    workload = workloads.build(args.workload, args.seed)
    # in traced passes a probe inside an operation would be charged to
    # whichever span is open, so the traced run scales by the probes
    # around each operation only, in its untraced passes too
    runner = Runner(cli, sample=args.trace == 0)
    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations_per_pass": len(workload.ops),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "limits": list(LIMITS),
    }
    for key, value in context.items():
        print(f"# {key}: {value}")

    setup = measure_setup() if args.trace == 0 else []
    warm = runner.run_pass(workload.warmup)
    plain, traced, tracers = timed_passes(runner, workload.ops, args.seconds, args.trace == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    over_tracer = tracing.Tracer() if args.trace == 1 else None
    if over_tracer is not None:
        over_tracer.install()
    try:
        over_limit = run_over_limit(runner, workload.over_limit, over_tracer)
    finally:
        if over_tracer is not None:
            over_tracer.uninstall()

    measured = [warm] + plain + traced
    attempted = sum(len(p["latencies"]) for p in measured)
    failed = sum(p["failed"] for p in measured)
    identical = all(p["digests"] == plain[0]["digests"] for p in plain + traced)
    stats = summarize(plain)
    record = {"context": context, "plain": stats, "over_limit": over_limit, "failures": runner.failures[:20]}

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": stats["wall_s"],
            "op_p50_s": stats["op_p50_s"],
            "op_p90_s": stats["op_p90_s"],
            "checks_per_s": stats["checks_per_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        record["setup_runs_s"] = setup
    else:
        layer = [
            {k: v * p["scale"] if k.endswith("_s") else v for k, v in t.metrics().items()}
            for t, p in zip(tracers, traced)
        ]
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            values = [m[name] for m in layer if name in m]
            metrics[name] = statistics.median(values) if values else 0
        metrics["cli.output_bytes"] = statistics.median(p["bytes"] for p in traced)
        over_metrics = over_tracer.metrics()
        for name in tracing.LAYERS:
            metrics[f"{name}.errors"] += over_metrics[f"{name}.errors"]
        metrics["cli.over_limit_failures"] = sum(1 for row in over_limit if not row["ok"])
        traced_wall = statistics.median(p["wall"] for p in traced)
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = stats["wall_s"]
        metrics["trace.overhead_s"] = traced_wall - stats["wall_s"]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        record["layer_passes"] = layer
        OUT.mkdir(exist_ok=True)
        tracers[-1].write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")

    correct = failed == 0 and identical
    print(f"# passes: {stats['passes']}, operation samples: {stats['samples']},"
          f" beyond p90: {stats['beyond_p90']}")
    print(f"# unscaled wall_s: {stats['wall_raw_s']!r} s; speed scale: {stats['speed_scale']!r}"
          f" (times below are in seconds at speed probe = {PROBE_REF_S} s)")
    print(f"# failed_ratio: {failed / max(attempted, 1)!r} ratio ({failed}/{attempted} operations)")
    if args.trace == 1:
        print(f"# traced output byte-identical to untraced: {identical}")
        for name, unit, feeds in tracing.PER_LAYER:
            print(f"# {name} = {metrics[name]!r} {unit}  [feeds {feeds}]")
    else:
        for name, unit in END_TO_END:
            print(f"# {name} = {metrics[name]!r} {unit}")
    for row in over_limit:
        print(f"# over-limit operation: exit {row['exit']} {'ok' if row['ok'] else 'FAILED'}:"
              f" {row['argv'][:60]}... {row['reason']}")
    for line in runner.failures[:10]:
        print(f"# FAILED {line}")

    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
